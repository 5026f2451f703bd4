"""The error contract of the model and certificate loaders.

A bad document raises a :class:`SchemaError` whose path names the first bad
entry in document order.  The hypothesis tests hold both loaders to
reference loaders written here one entry at a time, and run every
generated document through the command line.
"""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iptree.cli import main
from iptree.errors import InvalidInputError, SchemaError
from iptree.local import MassFunction, StateSpace
from iptree.modelio import dump_certificate, load_certificate, load_model
from iptree.supermartingale import TailConstantProcess
from iptree.tree import parse_situation

COIN = StateSpace(("H", "T"))


def table_model(entries, default=([0.5, 0.5],), depth=1, states=("H", "T")):
    return {
        "schema": 1,
        "states": list(states),
        "model": {"kind": "table", "depth": depth, "entries": entries, "default": list(default)},
    }


def certificate(table, depth=1, lower_bound=0.0):
    return {"schema": 1, "depth": depth, "lower_bound": lower_bound, "table": table}


FULL = {"": 0.5, "H": 1.0, "T": 0.0}


def numpy_message(rows) -> str:
    with pytest.raises(ValueError) as exc:
        np.asarray(rows, dtype=float)
    return str(exc.value)


def schema_error(load, *args) -> str:
    with pytest.raises(SchemaError) as exc:
        load(*args)
    return str(exc.value)


class TestTableModelErrors:
    @pytest.mark.parametrize(
        "entries, expected",
        [
            ({"X": [[0.5, 0.5]]}, "model.entries.X: unknown state label 'X'; states are ['H', 'T']"),
            ({"H,T": [[0.5, 0.5]]}, "model.entries.H,T: situation longer than the declared depth 1"),
            ({"H": []}, "model.entries.H: expected a non-empty list of extreme points"),
            ({"H": 0.5}, "model.entries.H: expected a non-empty list of extreme points"),
            ({"H": [[0.5, 0.5], [None, 1.0]]}, "model.entries.H[1]: expected a list of numbers"),
            ({"H": [[True, 0.0]]}, "model.entries.H[0]: expected a list of numbers"),
            ({"H": [["0.5", 0.5]]}, "model.entries.H[0]: expected a list of numbers"),
            ({"H": [0.5, 0.5]}, "model.entries.H[0]: expected a list of numbers"),
            ({"H": [[0.5, math.nan]]}, "model.entries.H: NaN is not a valid extreme point weight"),
            ({"H": [[-0.5, 1.5]]}, "model.entries.H: mass function weights must be non-negative"),
            (
                {"H": [[0.5, 0.5], [0.5, 0.6]]},
                "model.entries.H: mass function weights sum to 1.1, not 1 (tolerance 1e-09)",
            ),
            ({"": [[0.5, 0.5 + 2e-9]]}, "model.entries.<root>: mass function weights sum to "
             f"{0.5 + (0.5 + 2e-9)!r}, not 1 (tolerance 1e-09)"),
            (
                {"H": [[0.5, 0.5], [1.0]]},
                "model.entries.H: " + numpy_message([[0.5, 0.5], [1.0]]),
            ),
            ({"H": [[]]}, "model.entries.H: credal set needs a non-empty (m, k) matrix of extreme points"),
            ({"H": [[0.2, 0.3, 0.5]]}, "model: local model over 3 states attached to a tree with 2 states"),
        ],
        ids=[
            "unknown-label", "too-long", "empty-list", "not-a-list", "none", "bool", "string",
            "row-not-a-list", "nan", "negative", "sum", "sum-just-off", "ragged", "empty-row", "width",
        ],
    )
    def test_entry_defect(self, entries, expected):
        assert schema_error(load_model, table_model(entries)) == expected

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ({"H": [[-0.5, 1.5]], "X": [[0.5, 0.5]]}, "model.entries.H: mass function weights must be non-negative"),
            ({"X": [[0.5, 0.5]], "H": [[-0.5, 1.5]]}, "model.entries.X: unknown state label 'X'; states are ['H', 'T']"),
            ({"T": [[0.5, 0.6]], "H": [[0.5, math.nan]]}, "model.entries.T: mass function weights sum to 1.1, not 1 (tolerance 1e-09)"),
            ({"H": [[0.5, math.nan]], "T": [[0.5, 0.6]]}, "model.entries.H: NaN is not a valid extreme point weight"),
            ({"": [["x"]], "T,T": [[0.5, 0.5]]}, "model.entries.<root>[0]: expected a list of numbers"),
            # A wrong width is a tree-level defect, found after every entry.
            ({"H": [[0.2, 0.3, 0.5]], "T": [[-1.0, 2.0]]}, "model.entries.T: mass function weights must be non-negative"),
        ],
        ids=["negative-then-label", "label-then-negative", "sum-then-nan", "nan-then-sum", "type-then-long", "width-then-negative"],
    )
    def test_first_bad_entry_wins(self, entries, expected):
        assert schema_error(load_model, table_model(entries)) == expected

    def test_entries_before_default(self):
        doc = table_model({"T": [[0.5, 0.6]]}, default=([0.5, math.nan],))
        assert schema_error(load_model, doc) == "model.entries.T: mass function weights sum to 1.1, not 1 (tolerance 1e-09)"
        doc = table_model({"T": [[0.5, 0.5]]}, default=([0.5, math.nan],))
        assert schema_error(load_model, doc) == "model.default: NaN is not a valid extreme point weight"

    @pytest.mark.parametrize("depth", [True, False, -1, 1.0, "1"])
    def test_depth_must_be_a_non_negative_integer(self, depth):
        doc = table_model({"H": [[0.5, 0.5]]}, depth=depth)
        assert schema_error(load_model, doc) == "model.depth: expected a non-negative integer"


class TestCertificateErrors:
    @pytest.mark.parametrize(
        "table, expected",
        [
            ({**FULL, "X": 1.0}, "table.X: unknown state label 'X'; states are ['H', 'T']"),
            ({**FULL, "H,T": 1.0}, "table.H,T: situation longer than the declared depth 1"),
            ({**FULL, "H": []}, "table.H: expected a number or '+inf', got []"),
            ({**FULL, "H": None}, "table.H: expected a number or '+inf', got None"),
            ({**FULL, "H": True}, "table.H: expected a number or '+inf', got True"),
            ({**FULL, "H": "1.0"}, "table.H: expected a number or '+inf', got '1.0'"),
            ({**FULL, "H": "inf"}, "table.H: expected a number or '+inf', got 'inf'"),
            ({**FULL, "H": math.nan}, "table: NaN is not a valid process value"),
            ({**FULL, "H": "-inf"}, "table.H: certificate values must be bounded below; -inf rejected"),
            ({**FULL, "H": -math.inf}, "table: process values must be bounded below; -inf rejected"),
            ({"": 0.5, "H": 1.0}, "depth: the table has 2 entries, fewer than the situations of length <= 1"),
        ],
        ids=["unknown-label", "too-long", "list", "none", "bool", "string", "inf-spelling", "nan",
             "minus-inf", "minus-inf-float", "missing"],
    )
    def test_entry_defect(self, table, expected):
        assert schema_error(load_certificate, certificate(table), COIN) == expected

    @pytest.mark.parametrize(
        "table, expected",
        [
            ({"": "x", "H": 1.0, "X": 0.0}, "table.<root>: expected a number or '+inf', got 'x'"),
            ({"": 0.5, "X": 1.0, "T": "x"}, "table.X: unknown state label 'X'; states are ['H', 'T']"),
            ({"T,T": 1.0, "": "-inf", "H": 0.0}, "table.T,T: situation longer than the declared depth 1"),
            ({"": math.nan, "H": "-inf", "T": 0.0}, "table.H: certificate values must be bounded below; -inf rejected"),
            ({"": 0.5, "H": None}, "depth: the table has 2 entries, fewer than the situations of length <= 1"),
        ],
        ids=["value-then-label", "label-then-value", "long-then-minus-inf", "nan-then-minus-inf", "short-then-value"],
    )
    def test_first_bad_entry_wins(self, table, expected):
        assert schema_error(load_certificate, certificate(table), COIN) == expected

    def test_lower_bound_above_the_minimum(self):
        doc = certificate(FULL, lower_bound=0.25)
        assert schema_error(load_certificate, doc, COIN) == "table: table attains 0.0, below the declared lower bound 0.25"

    def test_lower_bound_ignores_plus_inf(self):
        doc = certificate({"": "+inf", "H": 2.0, "T": math.inf}, lower_bound=2.0)
        process, declared = load_certificate(doc, COIN)
        assert declared == 2.0 and process.lower_bound() == 2.0

    @pytest.mark.parametrize("depth", [True, False, -1, 1.0, None])
    def test_depth_must_be_a_non_negative_integer(self, depth):
        assert schema_error(load_certificate, certificate(FULL, depth=depth), COIN) == "depth: expected a non-negative integer"

    def test_deep_certificate_rejected_before_allocating(self, tmp_path, capsys):
        doc = certificate({"": 0.5}, depth=40)
        assert schema_error(load_certificate, doc, COIN) == (
            "depth: the table has 1 entries, fewer than the situations of length <= 40"
        )
        assert schema_error(load_certificate, certificate({}, depth=10**18), COIN).startswith("depth: ")
        path, model = tmp_path / "deep.json", tmp_path / "coin.json"
        path.write_text(json.dumps(doc))
        model.write_text(json.dumps({"schema": 1, "states": ["H", "T"], "model": {
            "kind": "homogeneous", "extreme_points": [[0.4, 0.6], [0.6, 0.4]]}}))
        code = main(["check", "--model", str(model), "cert", str(path), "--expr", "ind(X[1]==H)"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: depth: the table has 1 entries, fewer than the situations of length <= 40\n"

    def test_huge_integer_is_a_schema_error(self, tmp_path, capsys):
        huge = 10**400
        assert schema_error(load_certificate, certificate({"": 0.5, "H": huge, "T": 1.0}), COIN) == (
            "table.H: number too large for a float"
        )
        path, model = tmp_path / "huge.json", tmp_path / "coin.json"
        path.write_text(json.dumps(certificate({"": 0.5}, depth=0, lower_bound=huge)))
        model.write_text(json.dumps({"schema": 1, "states": ["H", "T"], "model": {
            "kind": "homogeneous", "extreme_points": [[0.4, 0.6], [0.6, 0.4]]}}))
        code = main(["check", "--model", str(model), "cert", str(path), "--expr", "ind(X[1]==H)"])
        assert code == 2
        assert capsys.readouterr().err == "error: lower_bound: number too large for a float\n"

    def test_a_label_with_a_comma_cannot_be_keyed(self):
        space = StateSpace(("a,b", "c"))
        doc = certificate({"": 0.0, "a,b": 1.0, "c": 2.0})
        assert schema_error(load_certificate, doc, space) == (
            "table.a,b: unknown state label 'a'; states are ['a,b', 'c']"
        )

    def test_values_land_on_their_situations(self):
        space = StateSpace(("a", "b", "c"))
        keys = [",".join(s) for n in range(3) for s in itertools.product("abc", repeat=n)]
        rng = np.random.default_rng(5)
        values = rng.uniform(-1, 1, size=len(keys))
        doc = certificate(dict(zip(reversed(keys), reversed(values.tolist()))), depth=2, lower_bound=-2)
        process, _ = load_certificate(doc, space)
        for key, x in zip(keys, values):
            assert process.value(parse_situation(space, key)) == x


# --- reference loaders, one entry at a time -------------------------------------

def ref_points(raw, path):
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a non-empty list of extreme points")
    for i, row in enumerate(raw):
        if not isinstance(row, list) or any(type(x) not in (int, float) for x in row):
            raise SchemaError(f"{path}[{i}]", "expected a list of numbers")
    try:
        arr = np.asarray(raw, dtype=float)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None
    if np.isnan(arr).any():
        raise SchemaError(path, "NaN is not a valid extreme point weight")
    if arr.shape[1] == 0:
        raise SchemaError(path, "credal set needs a non-empty (m, k) matrix of extreme points")
    points = {}
    for row in arr:
        try:
            weights = MassFunction(row).weights
        except InvalidInputError as exc:
            raise SchemaError(path, str(exc)) from None
        points.setdefault(weights.tobytes(), weights)
    return np.array(list(points.values()))


def ref_table_model(doc):
    """Entries then default, each checked row by row; widths last."""
    space = StateSpace(tuple(doc["states"]))
    model = doc["model"]
    depth = model["depth"]
    entries = {}
    for key, raw in model["entries"].items():
        path = f"model.entries.{key or '<root>'}"
        try:
            sit = parse_situation(space, key)
        except InvalidInputError as exc:
            raise SchemaError(path, str(exc)) from None
        if len(sit) > depth:
            raise SchemaError(path, f"situation longer than the declared depth {depth}")
        entries[sit] = ref_points(raw, path)
    default = ref_points(model["default"], "model.default")
    for points in [default, *entries.values()]:
        if points.shape[1] != space.size:
            raise SchemaError(
                "model", f"local model over {points.shape[1]} states attached to a tree with {space.size} states"
            )
    return entries, default


def ref_value(raw, path):
    if raw == "+inf":
        return math.inf
    if raw == "-inf":
        raise SchemaError(path, "certificate values must be bounded below; -inf rejected")
    if type(raw) in (int, float):
        return float(raw)
    raise SchemaError(path, f"expected a number or '+inf', got {raw!r}")


def ref_certificate(doc, space):
    """Depth, bound and entry count, then every entry in document order,
    then the whole table."""
    depth = doc["depth"]
    if type(depth) is not int or depth < 0:
        raise SchemaError("depth", "expected a non-negative integer")
    declared = ref_value(doc["lower_bound"], "lower_bound")
    table = doc["table"]
    k = space.size
    if len(table) < sum(k**m for m in range(depth + 1)):
        raise SchemaError("depth", f"the table has {len(table)} entries, fewer than the situations of length <= {depth}")
    values = {}
    for key, raw in table.items():
        path = f"table.{key or '<root>'}"
        try:
            sit = parse_situation(space, key)
        except InvalidInputError as exc:
            raise SchemaError(path, str(exc)) from None
        if len(sit) > depth:
            raise SchemaError(path, f"situation longer than the declared depth {depth}")
        values[sit] = ref_value(raw, path)
    for m in range(depth + 1):  # level by level, NaN first
        level = [x for sit, x in values.items() if len(sit) == m]
        if any(math.isnan(x) for x in level):
            raise SchemaError("table", "NaN is not a valid process value")
        if -math.inf in level:
            raise SchemaError("table", "process values must be bounded below; -inf rejected")
    flat = np.array(list(values.values()))
    finite = flat[np.isfinite(flat)]
    floor = float(finite.min()) if finite.size else math.inf
    if floor < declared - 1e-12:
        raise SchemaError("table", f"table attains {floor}, below the declared lower bound {declared}")
    return values, declared


# --- random documents with 0-2 defects -------------------------------------------

LABELS = ("H", "T", "U")


def random_row(rng, k):
    row = np.round(rng.dirichlet(np.ones(k)), int(rng.integers(1, 8)))
    row[-1] = 1.0 - row[:-1].sum()
    if rng.uniform() < 0.2:
        row = row * (1 + float(rng.choice([1e-11, -4e-10, 5e-13])))  # renormalized or kept
    out = [float(x) for x in row]
    if rng.uniform() < 0.1:
        out = [0.0] * k
        out[int(rng.integers(0, k))] = 1 if rng.uniform() < 0.5 else 1.0
    return out


def random_key(rng, labels, length):
    return ",".join(labels[int(i)] for i in rng.integers(0, len(labels), size=length))


MODEL_DEFECTS = ("label", "long", "empty", "type", "nan", "negative", "sum", "ragged", "width", "default")


def random_model_doc(rng):
    k = int(rng.integers(2, 4))
    labels = LABELS[:k]
    depth = int(rng.integers(0, 3))
    sits = [",".join(s) for n in range(depth + 1) for s in itertools.product(labels, repeat=n)]
    keys = [s for s in sits if rng.uniform() < 0.7]
    rng.shuffle(keys)
    entries = {}
    for key in keys:
        rows = [random_row(rng, k) for _ in range(int(rng.integers(1, 4)))]
        if rng.uniform() < 0.2:
            rows.append(list(rows[0]))  # a bitwise duplicate, dropped on load
        entries[key] = rows
    doc = table_model(entries, default=[random_row(rng, k)], depth=depth, states=labels)
    for defect in rng.choice(MODEL_DEFECTS, size=int(rng.integers(0, 3))):
        if defect in ("label", "long"):
            length = depth + 1 if defect == "long" else int(rng.integers(1, depth + 2))
            key = random_key(rng, labels, length)
            if defect == "label":
                key = (key + ",Z") if key and rng.uniform() < 0.5 else "Z"
            entries[key] = [random_row(rng, k)]
            continue
        if defect == "default":
            doc["model"]["default"] = [[0.5, math.nan] + [0.0] * (k - 2)]
            continue
        if not entries:
            continue
        key = list(entries)[int(rng.integers(0, len(entries)))]
        rows = entries[key]
        if not rows:
            continue
        i = int(rng.integers(0, len(rows)))
        if defect == "empty":
            entries[key] = []
        elif defect == "type" and rows[i]:
            rows[i][int(rng.integers(0, len(rows[i])))] = [True, None, "0.5", [0.5]][int(rng.integers(0, 4))]
        elif defect == "nan" and rows[i]:
            rows[i][int(rng.integers(0, len(rows[i])))] = math.nan
        elif defect == "negative":
            rows[i] = [-0.25, 1.25] + [0.0] * (k - 2)
        elif defect == "sum":
            row = random_row(rng, k)
            rows[i] = [x * 1.01 for x in row] if rng.uniform() < 0.5 else [x + 1e-9 for x in row]
        elif defect == "ragged":
            rows.append(rows[i][:-1])
        elif defect == "width":
            entries[key] = [random_row(rng, k + 1) for _ in rows]
    return doc


CERT_DEFECTS = ("label", "long", "type", "nan", "minus_inf", "minus_inf_float", "missing", "bound", "depth")


def random_certificate_doc(rng, k):
    labels = LABELS[:k]
    depth = int(rng.integers(0, 4))
    keys = [",".join(s) for n in range(depth + 1) for s in itertools.product(labels, repeat=n)]
    rng.shuffle(keys)
    table = {}
    for key in keys:
        u = rng.uniform()
        if u < 0.05:
            table[key] = "+inf"
        elif u < 0.08:
            table[key] = math.inf
        elif u < 0.12:
            table[key] = int(rng.integers(-3, 4))
        elif u < 0.15:
            table[key] = -0.0
        else:
            table[key] = float(rng.uniform(-2, 2))
    finite = [float(v) for v in table.values() if v not in ("+inf", math.inf)]
    doc = certificate(table, depth=depth, lower_bound=min(finite, default=0.0))
    for defect in rng.choice(CERT_DEFECTS, size=int(rng.integers(0, 3))):
        key = list(table)[int(rng.integers(0, len(table)))] if table else None
        if defect == "label":
            table[random_key(rng, labels, int(rng.integers(0, depth + 1))) + ",Z" if depth else "Z"] = 0.0
        elif defect == "long":
            table[random_key(rng, labels, depth + 1)] = 0.0
        elif defect == "missing" and key is not None:
            del table[key]
        elif defect == "bound":
            doc["lower_bound"] = doc["lower_bound"] + 0.5
        elif defect == "depth":
            doc["depth"] = [True, depth + 1, 40][int(rng.integers(0, 3))]
        elif key is not None:
            table[key] = {
                "type": [True, None, "inf", [1.0], "1"][int(rng.integers(0, 5))],
                "nan": math.nan,
                "minus_inf": "-inf",
                "minus_inf_float": -math.inf,
            }[defect]
    return doc


def outcome(load, *args):
    try:
        return "ok", load(*args)
    except SchemaError as exc:
        return "error", str(exc)


def run_cli(tmp_dir, name, doc, argv):
    path = tmp_dir / name
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{}", str(path)) for a in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "NaN" not in out.getvalue()
    return code, err.getvalue()


FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_table_models_match_the_reference(tmp_path, seed):
    doc = random_model_doc(np.random.default_rng(seed))
    got, want = outcome(load_model, doc), outcome(ref_table_model, doc)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        tree, (entries, default) = got[1], want[1]
        table = tree.assignment
        assert list(table.entries) == list(entries)
        for sit, points in entries.items():
            assert table.entries[sit].points.tobytes() == points.tobytes()
            assert table.entries[sit].points.shape == points.shape
        assert table.default.points.tobytes() == default.tobytes()
    code, err = run_cli(tmp_path, "model.json", doc, ["eval", "--model", "{}", "--expr", "ind(X[1]==H)"])
    assert code == (0 if got[0] == "ok" else 2)
    if got[0] == "error":
        assert err == f"error: {got[1]}\n"


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_certificates_match_the_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    space = StateSpace(LABELS[:k])
    doc = random_certificate_doc(rng, k)
    got, want = outcome(load_certificate, doc, space), outcome(ref_certificate, doc, space)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        (process, declared), (values, ref_declared) = got[1], want[1]
        assert repr(declared) == repr(ref_declared)
        assert sum(level.size for level in process.levels) == len(values)
        for sit, x in values.items():
            assert repr(float(process.levels[len(sit)][sit])) == repr(x)
    model = {"schema": 1, "states": list(space.labels),
             "model": {"kind": "homogeneous", "extreme_points": [[1.0 / k] * k]}}
    model_path = tmp_path / "uniform.json"
    model_path.write_text(json.dumps(model))
    code, err = run_cli(tmp_path, "cert.json", doc, ["check", "--model", str(model_path), "cert", "{}", "--expr", "1"])
    if got[0] == "error":
        assert (code, err) == (2, f"error: {got[1]}\n")


# --- dump_certificate, JSON, load_certificate ------------------------------------

ROUND_TRIP_LABELS = ("H", "T", "U", "V")
#: Label sets that situation strings do not name one to one, for some k.
ODD_LABELS = (("", "a", "b", "c"), ("a", "", "b", "c"), ("a,b", "c", "d", "e"), ("a", "b", "a,b", "c"))


def random_process(rng, k, depth):
    """Values in [-2, 2], with +inf and -0.0 entries."""
    levels = []
    for m in range(depth + 1):
        level = rng.uniform(-2, 2, size=(k,) * m)
        u = rng.uniform(size=level.shape)
        level[u < 0.1] = math.inf
        level[(u >= 0.1) & (u < 0.2)] = -0.0
        levels.append(level)
    return TailConstantProcess(k, tuple(levels))


def dumped(process, space, rng, shuffle):
    doc = json.loads(json.dumps(dump_certificate(process, space)))
    if shuffle:
        keys = list(doc["table"])
        rng.shuffle(keys)
        doc["table"] = {key: doc["table"][key] for key in keys}
    return doc


def same_process(a, b) -> bool:
    return len(a.levels) == len(b.levels) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a.levels, b.levels)
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_certificates_round_trip(k, depth, seed, shuffle):
    rng = np.random.default_rng(seed)
    process, space = random_process(rng, k, depth), StateSpace(ROUND_TRIP_LABELS[:k])
    loaded, declared = load_certificate(dumped(process, space, rng, shuffle), space)
    assert same_process(loaded, process)
    assert repr(declared) == repr(process.lower_bound())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ODD_LABELS), st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_certificates_round_trip_through_the_parser(labels, k, depth, seed, shuffle):
    # An empty label names the root's string again, and a label with a
    # comma splits: the strings of such labels go through parse_situation,
    # and past depth 0 the dumped table cannot be read back.
    rng = np.random.default_rng(seed)
    process, space = random_process(rng, k, depth), StateSpace(labels[:k])
    doc = dumped(process, space, rng, shuffle)
    got, want = outcome(load_certificate, doc, space), outcome(ref_certificate, doc, space)
    assert got[0] == want[0], (got, want)
    odd = any(label == "" or "," in label for label in space.labels)
    if got[0] == "error":
        assert got[1] == want[1] and odd and depth > 0
    else:
        assert same_process(got[1][0], process)
