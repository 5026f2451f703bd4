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
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iptree import modelio
from iptree.cli import main
from iptree.errors import InvalidInputError, SchemaError
from iptree.extreal import _derived
from iptree.local import CredalSet, MassFunction, StateSpace
from iptree.modelio import dump_certificate, load_certificate, load_model
from iptree.supermartingale import TailConstantProcess
from iptree.tree import ImpreciseTree, Table, format_situation, parse_situation

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

    @pytest.mark.parametrize(
        "default, expected",
        [
            (None, "model.default: missing required field"),
            ([], "model.default: expected a non-empty list of extreme points"),
            (0.5, "model.default: expected a non-empty list of extreme points"),
            ([[0.5, 0.5], [None, 1.0]], "model.default[1]: expected a list of numbers"),
            ([[True, 0.0]], "model.default[0]: expected a list of numbers"),
            ([0.5, 0.5], "model.default[0]: expected a list of numbers"),
            ([[0.5, math.nan]], "model.default: NaN is not a valid extreme point weight"),
            ([[-0.5, 1.5]], "model.default: mass function weights must be non-negative"),
            ([[0.5, 0.6]], "model.default: mass function weights sum to 1.1, not 1 (tolerance 1e-09)"),
            ([[0.5, 0.5], [1.0]], "model.default: " + numpy_message([[0.5, 0.5], [1.0]])),
            ([[]], "model.default: credal set needs a non-empty (m, k) matrix of extreme points"),
            ([[0.2, 0.3, 0.5]], "model: local model over 3 states attached to a tree with 2 states"),
            ([[10**400, 0]], "model.default: int too large to convert to float"),
        ],
        ids=["missing", "empty-list", "not-a-list", "none", "bool", "row-not-a-list", "nan", "negative", "sum",
             "ragged", "empty-row", "width", "huge-int"],
    )
    def test_bad_default_after_good_entries(self, default, expected):
        # The default is read with the entries; a bad one still fails at its own path.
        doc = table_model({"": [[0.5, 0.5]], "H": [[0.4, 0.6], [0.6, 0.4]], "T": [[1.0, 0]]})
        if default is None:
            del doc["model"]["default"]
        else:
            doc["model"]["default"] = default
        assert schema_error(load_model, doc) == expected

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ({"H": [[0.5, 0.5]], "T": []}, "model.entries.T: expected a non-empty list of extreme points"),
            ({"T": [[0.5, math.nan]]}, "model.entries.T: NaN is not a valid extreme point weight"),
            ({"": [[0.5, 0.5]], "H": [[0.2, 0.3, 0.5]]}, "model: local model over 3 states attached to a tree with 2 states"),
            ({"H": [[0.3, 0.7]], "T": [[0.5, 0.5], [0.5]]}, "model.entries.T: " + numpy_message([[0.5, 0.5], [0.5]])),
            ({"X": [[0.5, 0.5]]}, "model.entries.X: unknown state label 'X'; states are ['H', 'T']"),
            ({"H": [[0.5, 0.5]], "T": [[0.7, 0.7]]}, "model.entries.T: mass function weights sum to 1.4, not 1 (tolerance 1e-09)"),
        ],
        ids=["empty-list", "nan", "width", "ragged", "unknown-label", "sum"],
    )
    def test_bad_entry_with_a_good_default(self, entries, expected):
        assert schema_error(load_model, table_model(entries, default=([0.4, 0.6], [0.6, 0.4]))) == expected

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


# --- the one-pass certificate loader and the kept situation-string maps ----------

def random_laid_certificate(rng, k, order):
    """A total table with ``"+inf"``, ``inf`` and ``-0.0`` entries, keyed in
    trie, sorted or shuffled order, with NaN and -inf floats at up to three
    random situations of any level."""
    labels = LABELS[:k]
    depth = int(rng.integers(0, 5))
    keys = [",".join(s) for n in range(depth + 1) for s in itertools.product(labels, repeat=n)]
    if order == "sorted":
        keys.sort()
    elif order == "shuffled":
        rng.shuffle(keys)
    table = {}
    for key in keys:
        u = rng.uniform()
        table[key] = "+inf" if u < 0.05 else math.inf if u < 0.1 else -0.0 if u < 0.15 else float(rng.uniform(-2, 2))
    for _ in range(int(rng.integers(0, 4)) if rng.uniform() < 0.5 else 0):
        table[keys[int(rng.integers(0, len(keys)))]] = [math.nan, -math.inf][int(rng.integers(0, 2))]
    finite = [v for v in table.values() if v not in ("+inf", math.inf) and not math.isnan(v)]
    lower_bound = min(finite, default=0.0) + (0.5 if rng.uniform() < 0.1 else 0.0)
    return certificate(table, depth=depth, lower_bound=lower_bound)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.sampled_from(["trie", "sorted", "shuffled"]))
def test_the_one_pass_matches_the_reference_on_cold_and_warm_maps(tmp_path, seed, order):
    # NaN and -Infinity literals take the json fallback of the file reader.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    space = StateSpace(LABELS[:k])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(random_laid_certificate(rng, k, order)))
    want = outcome(ref_certificate, json.loads(path.read_text()), space)
    modelio._POSITIONS.clear()
    for _ in ("cold", "warm"):
        got = outcome(modelio.load_certificate_file, path, StateSpace(space.labels))
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1] == want[1]
            continue
        (process, declared), (values, ref_declared) = got[1], want[1]
        assert bits(declared) == bits(ref_declared)
        assert [level.shape for level in process.levels] == [(k,) * m for m in range(len(process.levels))]
        assert sum(level.size for level in process.levels) == len(values)
        for sit, x in values.items():
            assert bits(process.levels[len(sit)][sit]) == bits(x)
        for level in process.levels:
            assert not level.flags.writeable
            with pytest.raises(ValueError):
                level.flags.writeable = True
    assert len(modelio._POSITIONS) <= 1


#: Strings that are not exactly "+inf", and values that are no number.
NOT_PLUS_INF = ("+Inf", "inf", "Infinity", " +inf", "+inf ", "-inf", "1.5", "", [], True)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_plus_inf_strings_take_the_one_pass(seed, odd):
    # "+inf" at random positions and levels, as dump_certificate writes an
    # infinite value; with ``odd``, also one value that is not exactly
    # "+inf" or no number, which only the entry-by-entry reader reports.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    space = StateSpace(LABELS[:k])
    depth = int(rng.integers(0, 5))
    keys = [",".join(s) for n in range(depth + 1) for s in itertools.product(space.labels, repeat=n)]
    rng.shuffle(keys)
    table = {key: float(rng.uniform(-2, 2)) for key in keys}
    for key in rng.choice(keys, size=int(rng.integers(1, len(keys) + 1)), replace=False).tolist():
        table[key] = "+inf"
    if odd:
        table[keys[int(rng.integers(0, len(keys)))]] = NOT_PLUS_INF[int(rng.integers(0, len(NOT_PLUS_INF)))]
    doc = certificate(table, depth=depth, lower_bound=-2.0)
    want = outcome(ref_certificate, doc, space)
    one_pass = all(type(x) is float or x == "+inf" for x in table.values())
    modelio._POSITIONS.clear()
    for _ in ("cold", "warm"):
        with mock.patch.object(modelio, "_value", wraps=modelio._value) as read:
            got = outcome(load_certificate, doc, StateSpace(space.labels))
        assert (read.call_count == 1) == one_pass  # the lower bound, and no table entry
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1] == want[1]
            continue
        (process, declared), (values, ref_declared) = got[1], want[1]
        assert bits(declared) == bits(ref_declared)
        assert [level.shape for level in process.levels] == [(k,) * m for m in range(depth + 1)]
        assert sum(level.size for level in process.levels) == len(values)
        for sit, x in values.items():
            assert bits(process.levels[len(sit)][sit]) == bits(x)
        assert not any(level.flags.writeable for level in process.levels)


def kept_maps():
    return {labels_depth: dict(positions) for labels_depth, positions in modelio._POSITIONS.items()}


class TestKeptStringMaps:
    """One map of situation strings to positions is kept per labels and
    depth, a bounded number of them, each of bounded size, none mutable."""

    def test_labels_in_another_order_never_share_a_map(self):
        keys = [",".join(s) for n in range(3) for s in itertools.product("AB", repeat=n)]
        doc = certificate({key: float(i) for i, key in enumerate(keys)}, depth=2)
        for labels in [("A", "B"), ("B", "A"), ("A", "B")]:
            space = StateSpace(labels)
            process, _ = load_certificate(doc, space)
            for i, key in enumerate(keys):
                assert process.value(parse_situation(space, key)) == i
        assert set(modelio._POSITIONS) == {(("A", "B"), 2), (("B", "A"), 2)}
        assert modelio._POSITIONS[("A", "B"), 2]["A"] == 1 and modelio._POSITIONS[("B", "A"), 2]["A"] == 2

    def test_the_model_and_its_certificate_share_a_map(self, monkeypatch):
        space = StateSpace(("H", "T"))
        entries = {format_situation(space, s): [[0.5, 0.5]] for s in itertools.product(range(2), repeat=2)}
        built = []
        strings = modelio.situation_strings
        monkeypatch.setattr(modelio, "situation_strings", lambda *args: built.append(args[1:]) or strings(*args))
        load_model(table_model(entries, depth=2))
        keys = ["", "H", "T", *entries]
        load_certificate(certificate(dict.fromkeys(keys, 1.0), depth=2), StateSpace(("H", "T")))
        assert built == [(2,)]

    @pytest.mark.parametrize(
        "labels, depth, kept",
        [
            (("H", "T"), 12, True),  # 8191 situations
            (("H", "T"), 13, False),  # 16383
            (tuple(map(str, range(modelio._KEPT_SITUATIONS - 1))), 1, True),  # exactly the cap
            (tuple(map(str, range(modelio._KEPT_SITUATIONS))), 1, False),
            (("H" * 73, "T" * 73), 8, False),  # 511 strings of 264854 characters in all
            (("H" * 72, "T" * 72), 8, True),  # 261268, under 2**18
            (("H", "T"), 0, False),  # the root's one string is not kept
        ],
    )
    def test_a_map_past_a_size_bound_is_not_kept(self, labels, depth, kept):
        space = StateSpace(labels)
        count = sum(len(labels) ** m for m in range(depth + 1))
        positions = modelio._string_positions(space, depth, count)
        assert positions == dict(zip(modelio.situation_strings(space, depth), range(count)))
        if depth == 8:
            assert (sum(map(len, positions)) <= modelio._KEPT_CHARACTERS) is kept
        assert (positions is modelio._POSITIONS.get((labels, depth))) is kept
        assert len(modelio._POSITIONS) == int(kept)
        assert (modelio._string_positions(space, depth, count) is positions) is kept

    def test_a_sparse_document_builds_no_map_but_reads_a_kept_one(self):
        space = StateSpace(("H", "T"))
        assert modelio._string_positions(space, 3, 6) == {} and not modelio._POSITIONS  # 15 > 2 * 6 + 1
        dense = modelio._string_positions(space, 3, 15)
        assert modelio._string_positions(space, 3, 6) is dense

    def test_the_count_bound_holds_least_recently_used_first(self):
        spaces = [StateSpace((f"a{i}", f"b{i}")) for i in range(3 * modelio._KEPT_MAPS)]
        for i, space in enumerate(spaces):
            modelio._string_positions(space, 2, 7)
            modelio._string_positions(spaces[0], 2, 7)  # kept by use
            assert len(modelio._POSITIONS) == min(i + 1, modelio._KEPT_MAPS)
        kept = [labels for labels, _ in modelio._POSITIONS]
        assert kept == [space.labels for space in spaces[-modelio._KEPT_MAPS + 1:]] + [spaces[0].labels]

    def test_threads_share_the_maps_safely(self):
        # More threads than cores, switching often, over more label sets
        # than are kept: every load is right, and the count bound holds.
        import sys
        import threading

        keys = [",".join(s) for n in range(3) for s in itertools.product("ab", repeat=n)]
        doc = certificate({key: float(i) for i, key in enumerate(keys)}, depth=2)
        label_sets = [(f"a{i}", f"b{i}") for i in range(2 * modelio._KEPT_MAPS)]
        docs = [certificate({key.replace("a", f"a{i}").replace("b", f"b{i}"): x for key, x in doc["table"].items()},
                            depth=2) for i in range(len(label_sets))]
        wrong = []

        def work(offset):
            for j in range(150):
                i = (offset + j) % len(label_sets)
                try:
                    process, _ = load_certificate(docs[i], StateSpace(label_sets[i]))
                except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                    wrong.append(exc)
                    continue
                if np.concatenate([level.ravel() for level in process.levels]).tolist() != list(range(len(keys))):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(3 * t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and len(modelio._POSITIONS) <= modelio._KEPT_MAPS

    def test_no_caller_can_mutate_a_kept_map(self):
        space = StateSpace(("H", "T"))
        positions = modelio._string_positions(space, 2, 7)
        before = kept_maps()
        for mutate in [
            lambda m: m.__setitem__("X", 9),
            lambda m: m.__delitem__("H"),
            lambda m: m.clear(),
            lambda m: m.pop("H"),
            lambda m: m.pop("X", None),
            lambda m: m.popitem(),
            lambda m: m.setdefault("X", 9),
            lambda m: m.update({"H": 9}),
            lambda m: m.__ior__({"H": 9}),
        ]:
            with pytest.raises(TypeError):
                mutate(positions)
        load_certificate(certificate({"": 0.0, "H": 1.0, "T": 2.0, "H,H": 3.0, "H,T": 4.0, "T,H": 5.0, "T,T": 6.0},
                                     depth=2), space)
        assert kept_maps() == before == {(("H", "T"), 2): {"": 0, "H": 1, "T": 2, "H,H": 3, "H,T": 4, "T,H": 5, "T,T": 6}}


# --- Markov models: one check of every part, errors part by part -----------------

def markov_model(model, states=("A", "B")):
    return {"schema": 1, "states": list(states), "model": {"kind": "markov", **model}}


UNIFORM = [[0.5, 0.5]]


class TestMarkovModelErrors:
    @pytest.mark.parametrize(
        "model, expected",
        [
            # The root is read first, then the states in label order, then
            # unknown labels; the widths are checked last, root first.
            ({"root": [[0.5, 0.6]], "by_state": {"A": UNIFORM}},
             "model.root: mass function weights sum to 1.1, not 1 (tolerance 1e-09)"),
            ({"root": UNIFORM, "by_state": {"A": [[-0.5, 1.5]]}},
             "model.by_state.A: mass function weights must be non-negative"),
            ({"by_state": {"A": UNIFORM, "B": UNIFORM}}, "model.root: missing required field"),
            ({"root": [], "by_state": []}, "model.root: expected a non-empty list of extreme points"),
            ({"root": UNIFORM, "by_state": [UNIFORM, UNIFORM]},
             "model.by_state: expected an object keyed by state label"),
            ({"root": UNIFORM}, "model.by_state: missing required field"),
            ({"root": UNIFORM, "by_state": {"A": [[0.5, "x"]], "B": [[0.7, 0.7]]}},
             "model.by_state.A[0]: expected a list of numbers"),
            ({"root": UNIFORM, "by_state": {"B": UNIFORM, "Z": UNIFORM}},
             "model.by_state.A: missing model for this state"),
            ({"root": UNIFORM, "by_state": {"A": UNIFORM, "B": [[0.5, 0.5], [0.2]], "Z": UNIFORM}},
             "model.by_state.B: " + numpy_message([[0.5, 0.5], [0.2]])),
            ({"root": UNIFORM, "by_state": {"A": UNIFORM, "B": UNIFORM, "Z": UNIFORM}},
             "model.by_state.Z: unknown state label"),
            ({"root": UNIFORM, "by_state": {"A": UNIFORM, "B": [[0.2, 0.3, 0.5]]}},
             "model: local model over 3 states attached to a tree with 2 states"),
            ({"root": [[1.0]], "by_state": {"A": UNIFORM, "B": [[0.9, 0.2]]}},
             "model.by_state.B: mass function weights sum to 1.1, not 1 (tolerance 1e-09)"),
            ({"root": UNIFORM, "by_state": {"A": UNIFORM, "B": [[10**400, 0]]}},
             "model.by_state.B: int too large to convert to float"),
            ({"root": UNIFORM, "by_state": {"A": [[math.nan, 1.0]], "B": UNIFORM}},
             "model.by_state.A: NaN is not a valid extreme point weight"),
        ],
    )
    def test_first_bad_part_wins(self, model, expected):
        assert schema_error(load_model, markov_model(model)) == expected


def ref_markov_model(doc):
    """The root, then every state in label order, then unknown labels, each
    checked row by row; widths last."""
    space = StateSpace(tuple(doc["states"]))
    model = doc["model"]
    if "root" not in model:
        raise SchemaError("model.root", "missing required field")
    root = ref_points(model["root"], "model.root")
    if "by_state" not in model:
        raise SchemaError("model.by_state", "missing required field")
    by_state_raw = model["by_state"]
    if not isinstance(by_state_raw, dict):
        raise SchemaError("model.by_state", "expected an object keyed by state label")
    by_state = []
    for label in space.labels:
        if label not in by_state_raw:
            raise SchemaError(f"model.by_state.{label}", "missing model for this state")
        by_state.append(ref_points(by_state_raw[label], f"model.by_state.{label}"))
    extra = sorted(set(by_state_raw) - set(space.labels))
    if extra:
        raise SchemaError(f"model.by_state.{extra[0]}", "unknown state label")
    for points in [root, *by_state]:
        if points.shape[1] != space.size:
            raise SchemaError(
                "model", f"local model over {points.shape[1]} states attached to a tree with {space.size} states"
            )
    return [root, *by_state]


MARKOV_DEFECTS = ("missing", "extra", "no_root", "empty", "type", "nan", "negative", "sum", "ragged", "width")


def random_markov_doc(rng):
    k = int(rng.integers(2, 4))
    labels = LABELS[:k]
    parts = {}
    for name in ("root", *labels):
        rows = [random_row(rng, k) for _ in range(int(rng.integers(1, 4)))]
        if rng.uniform() < 0.3:
            rows.insert(int(rng.integers(0, len(rows) + 1)), list(rows[0]))  # a duplicate, dropped
        parts[name] = rows
    by_state = {label: parts[label] for label in rng.permutation(labels)}
    doc = markov_model({"root": parts["root"], "by_state": by_state}, states=labels)
    for defect in rng.choice(MARKOV_DEFECTS, size=int(rng.integers(0, 3))):
        names = ["root", *by_state]
        if defect == "missing" and by_state:
            del by_state[names[int(rng.integers(1, len(names)))]]
            continue
        if defect == "extra":
            by_state["Z"] = [random_row(rng, k)]
            continue
        if defect == "no_root":
            doc["model"].pop("root", None)
            continue
        name = names[int(rng.integers(0, len(names)))]
        owner = doc["model"] if name == "root" else by_state
        if name not in owner or not owner[name]:
            continue
        rows = owner[name]
        i = int(rng.integers(0, len(rows)))
        if defect == "empty":
            owner[name] = []
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
            owner[name] = [random_row(rng, k + 1) for _ in rows]
    return doc


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_markov_models_match_the_reference(tmp_path, seed):
    doc = random_markov_doc(np.random.default_rng(seed))
    got, want = outcome(load_model, doc), outcome(ref_markov_model, doc)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        a = got[1].assignment
        for credal, points in zip([a.root, *a.by_state], want[1]):
            assert (credal.points.shape, credal.points.tobytes()) == (points.shape, points.tobytes())
    code, err = run_cli(tmp_path, "model.json", doc, ["eval", "--model", "{}", "--expr", "ind(X[1]==A)"])
    if got[0] == "error":
        assert (code, err) == (2, f"error: {got[1]}\n")


@pytest.mark.parametrize("seed", range(30))
def test_markov_points_are_those_of_per_state_credal_sets(seed):
    # Duplicates, renormalized rows and exact masses, all in one stack.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    space = StateSpace(LABELS[:k])
    raws = [[random_row(rng, k) for _ in range(int(rng.integers(1, 4)))] for _ in range(k + 1)]
    raws[0].append(list(raws[0][0]))
    raws[-1].append([1.0 / k * (1 + 4e-10)] * k)
    doc = markov_model({"root": raws[0], "by_state": dict(zip(space.labels, raws[1:]))}, states=space.labels)
    with mock.patch("iptree.modelio._points", side_effect=modelio._points) as part_by_part:
        a = load_model(doc).assignment
    assert part_by_part.call_count == 0
    for credal, raw in zip([a.root, *a.by_state], raws):
        want = CredalSet(np.asarray(raw, dtype=float)).points
        assert (credal.points.shape, credal.points.tobytes()) == (want.shape, want.tobytes())
        assert not credal.points.flags.writeable


# --- table models: one pass to the arrays ----------------------------------------

def compiled(assignment):
    return assignment.step.tolist(), assignment.leaf.tolist(), assignment.points.shape, assignment.points.tobytes()


def entry_by_entry(doc):
    """The table the reference reader's entries and default make."""
    entries, default = ref_table_model(doc)
    table = Table(doc["model"]["depth"], {s: CredalSet(p) for s, p in entries.items()}, CredalSet(default))
    ImpreciseTree(StateSpace(tuple(doc["states"])), table)
    return table


class TestTableArrays:
    """A table document with canonical keys is read in one pass, straight to
    the arrays that the same entries read one by one compile to."""

    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_and_missing_entries(self, seed):
        rng = np.random.default_rng(seed)
        k, depth = int(rng.integers(2, 4)), int(rng.integers(0, 4))
        keys = [",".join(s) for n in range(depth + 1) for s in itertools.product(LABELS[:k], repeat=n)]
        if seed % 2 and len(keys) > 1:
            keys.pop(int(rng.integers(0, len(keys))))  # a missing entry plays the default
        rng.shuffle(keys)
        entries = {}
        for key in keys:
            entries[key] = [random_row(rng, k) for _ in range(int(rng.integers(1, 4)))]
            if rng.uniform() < 0.3:
                entries[key].append(list(entries[key][0]))  # a bitwise duplicate
        doc = table_model(entries, default=[random_row(rng, k)], depth=depth, states=LABELS[:k])
        with mock.patch("iptree.modelio._table_entries", side_effect=AssertionError("read entry by entry")):
            table = load_model(doc).assignment
        assert compiled(table) == compiled(entry_by_entry(doc))
        assert list(table.entries) == list(entry_by_entry(doc).entries)  # document order

    def test_labels_the_strings_cannot_name(self):
        # An empty label: "" is the root and ",b" names (0, 1), keys that
        # only the parser reads, to the same arrays.
        doc = table_model({",b": [[0.2, 0.8]], "": [[0.5, 0.5], [0.1, 0.9]], "b": [[0.3, 0.7]]},
                          depth=2, states=("", "b"))
        table = load_model(doc).assignment
        assert table.entries.keys() == {(0, 1), (), (1,)}
        assert compiled(table) == compiled(entry_by_entry(doc))

    @pytest.mark.parametrize("seed", range(36))
    def test_every_valid_table_takes_the_one_pass(self, seed):
        # Dense or sparse, shallow or 10**18 deep, over labels whose strings
        # name situations one to one, or only through the parser.
        rng = np.random.default_rng(seed)
        labels = [("H", "T"), ("H", "T", "U"), ("", "b"), ("a,b", "c")][seed % 4]
        space, k = StateSpace(labels), len(labels)
        depth = [int(rng.integers(0, 4)), int(rng.integers(4, 8)), 10**18][seed // 4 % 3]
        entries = {}
        for _ in range(int(rng.integers(1, 16))):
            sit = tuple(int(y) for y in rng.integers(0, k, size=int(rng.integers(0, min(depth, 6) + 1))))
            key = format_situation(space, sit)
            try:
                named = parse_situation(space, key) == sit  # no key names (0,) or a "a,b" state
            except InvalidInputError:
                named = False
            if named:
                entries[key] = [random_row(rng, k) for _ in range(int(rng.integers(1, 4)))]
        doc = table_model(entries, default=[random_row(rng, k)], depth=depth, states=labels)
        with mock.patch("iptree.modelio._table_entries", side_effect=AssertionError("read entry by entry")):
            table = load_model(doc).assignment
        reference = entry_by_entry(doc)
        assert compiled(table) == compiled(reference)
        assert list(table.entries) == list(reference.entries)

    def test_no_entry_becomes_an_object(self):
        rng = np.random.default_rng(3)
        keys = [",".join(s) for n in range(6) for s in itertools.product(LABELS, repeat=n)]
        doc = table_model({key: [random_row(rng, 3) for _ in range(3)] for key in keys},
                          default=[random_row(rng, 3)], depth=5, states=LABELS)
        with mock.patch.object(CredalSet, "__post_init__", side_effect=CredalSet.__post_init__, autospec=True) as built, \
                mock.patch("iptree.tree._derived", side_effect=_derived) as derived:
            table = load_model(doc).assignment
            assert table.points.shape == (len(keys) + 1, 3, 3)
        adopted = [call for call in derived.call_args_list if call.args[0] is CredalSet]
        assert built.call_count == 0 and len(adopted) == 1  # the default only, from the one pass


# --- the JSON reader ----------------------------------------------------------------


def stdlib_read(path):
    """The reader's contract, by the standard library alone."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(str(path), f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"not valid JSON: {exc}") from None


def same_json(a, b) -> bool:
    """Equal values of equal types, floats to the bit (NaN too), keys in
    the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[key], b[key]) for key in a)
    return a == b


def read_both(path):
    got, want = outcome(modelio._read_json, path), outcome(stdlib_read, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert same_json(got[1], want[1]), (got[1], want[1])


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


#: Number literals where the two decoders could part: the edges of 64-bit
#: integers, negative zeros, long fractions and exponents, and numbers past
#: the float range.
NUMBER_LITERALS = [
    str(n) for n in (2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, -(2**64), 10**30, -(10**30), 10**18)
] + ["-0", "-0.0", "0.0", "1E+2", "-0.00020593675399990796", "1e0000000000000000001", "1e400", "-1e400", "1e-400",
     "12345678901234567890.5", "NaN", "Infinity", "-Infinity"]

#: JSON strings, escaped or not, some with lone surrogates: escaped, they are
#: valid JSON that only the standard library decodes; raw, invalid UTF-8.
JSON_STRINGS = st.builds(
    json.dumps,
    st.text(st.characters(exclude_categories=()), max_size=8),
    ensure_ascii=st.booleans(),
)

JSON_SCALARS = st.one_of(
    st.integers().map(str),
    st.integers(0, 2**64 - 1).map(float_of_bits).map(json.dumps),  # repr, NaN and Infinity
    st.sampled_from(NUMBER_LITERALS + ["true", "false", "null"]),
    JSON_STRINGS,
)


def json_containers(children):
    keys = st.one_of(st.sampled_from(['"a"', '"b"']), JSON_STRINGS)  # duplicate keys too
    return st.one_of(
        st.lists(children, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(st.tuples(keys, children), max_size=4).map(
            lambda pairs: "{" + ",\r\n ".join(f"{key}: {value}" for key, value in pairs) + "}"
        ),
    )


class TestJsonReader:
    """``modelio._read_json`` decodes with orjson, and falls back to the
    standard library where the two read a text differently; either way the
    document is the value, or the error, that ``json.loads`` of the file's
    UTF-8 text gives."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.recursive(JSON_SCALARS, json_containers, max_leaves=12), st.booleans())
    def test_reads_what_the_standard_library_reads(self, tmp_path, text, bom):
        path = tmp_path / "doc.json"
        path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8", "surrogatepass"))
        read_both(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_floats_to_the_bit(self, tmp_path, bits):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"x": [float_of_bits(b) for b in bits]}))
        read_both(path)

    @pytest.mark.parametrize(
        "data",
        [
            *(literal.encode() for literal in NUMBER_LITERALS),
            b'{"a": 1, "b": 2, "a": [3]}',
            b'"\\ud800"',
            b'["\\udc00x", 1]',
            b'"\xed\xa0\x80"',
            b"\xef\xbb\xbf{}",
            b'"\xff"',
            b"",
            b"[1, 2",
            b"[1] x",
            b"[NaN,\r\n 1,\r 2]",
            b"[NaN,\r\n 1,\r x]",
            b"[1,\r\n 2,\r x]",
            b'{"a": NaN, "b": "\r"}',
        ],
        ids=lambda data: repr(data[:24]),
    )
    def test_the_inputs_where_orjson_differs(self, tmp_path, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        read_both(path)

    def test_reads_the_file_once(self, tmp_path):
        # The standard library decodes the bytes already read, so a pipe
        # works as well as a file.
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"a": [NaN,\r\n 18446744073709551616]}')
        with mock.patch.object(Path, "read_text", side_effect=AssertionError("read twice")):
            doc = modelio._read_json(path)
        assert same_json(doc, stdlib_read(path))

    def test_a_deep_document_is_read_or_names_the_file(self, tmp_path):
        # orjson reads any depth; json.loads, which reads a NaN, stops at
        # Python's recursion limit.
        path = tmp_path / "doc.json"
        path.write_bytes(b"[" * 10**5 + b"]" * 10**5)
        doc, depth = modelio._read_json(path), 1
        while doc:
            doc, depth = doc[0], depth + 1
        assert depth == 10**5
        path.write_bytes(b"[" * 10**5 + b"NaN" + b"]" * 10**5)
        assert outcome(modelio._read_json, path) == ("error", f"{path}: not valid JSON: nests too deeply to read")

    @pytest.mark.parametrize(
        "literal, standard",
        [
            ("-0.00020593675399990796", False),  # a long fraction is read by orjson
            ("1.2345678901234567890123", False),
            ("1234567890123456789", True),  # 19 digits: maybe past 64 bits
            ("-18446744073709551616", True),
            ("1e0000000000000000001", True),  # a long exponent too
            ("123456789012345678", False),
        ],
    )
    def test_only_long_integers_take_the_standard_library(self, tmp_path, literal, standard):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"table": {{"": {literal}}}}}')
        with mock.patch.object(modelio, "_json_loads", wraps=modelio._json_loads) as slow:
            assert same_json(modelio._read_json(path), json.loads(path.read_text()))
        assert slow.called == standard
