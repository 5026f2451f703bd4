"""Random query documents through ``cli.main``: every kind and policy field,
valid and invalid values, conditions, targets, malformed expressions and
fields no query or document may hold, each run held to the documented
contract of ``iptree eval``."""

import io
import json
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iptree.cli import main
from iptree.engine import Policy
from iptree.errors import SchemaError
from iptree.modelio import load_queries

MODEL = {
    "schema": 1,
    "states": ["H", "T"],
    "model": {"kind": "homogeneous", "extreme_points": [[0.4, 0.6], [0.6, 0.4]]},
}

EXPRESSIONS = [
    "1",
    "ind(X[1]==H)",
    "ind(X[1]==H && X[2]==T)",
    "sum(i=1..2, ind(X[i]==H))",
    "max(ind(X[1]==H), 0.5) - min(1, 2*ind(!(X[2]==T)))",
    "ind(X[1]==H || X[2]==H) * 3",
    # Malformed, unknown names, out of range or past a small table cap.
    "",
    "ind(X[1]==",
    "ind(X[1]==Z)",
    "ind(X[0]==H)",
    "sum(i=1..2, ind(X[j]==H))",
    "1 +",
    "ind(X[1]==H) @ 2",
    "sum(i=1..12, ind(X[i]==H))",
    "(1",
    # Deep: a long operator chain and parentheses past the nesting limit,
    # and parentheses within it.
    " + ".join(["ind(X[1]==H)"] * 2000),
    "(" * 2000 + "1" + ")" * 2000,
    "(" * 400 + "1" + ")" * 400,
]
LABELS = ["H", "T", "Z", "", "h", "H,T"]
CONDITIONS = ["", "H", "T", "H,H", "T,H", "H,T,T", "Z", "H,,T", ",", "H,Z", " H"]
#: Values of the wrong JSON type for any field.
JUNK = [None, True, 3, -1.5, "x", [], {}, ["H"]]
KINDS = ["eval", "lower", "hit_prob", "hit_time"]
#: The field each kind takes besides ``kind``, ``condition`` and ``policy``.
OWN_FIELD = {"eval": "expression", "lower": "expression", "hit_prob": "targets", "hit_time": "targets"}
#: Fields no query or document may hold (``seed`` and ``certificate`` were
#: query fields once).
UNKNOWN_FIELDS = ["seed", "certificate", "bogus", "Kind"]

#: Per policy field: valid values, then values the loader rejects.  Only
#: ``table_cap`` is read; the two limit fields are checked and ignored.
POLICY_VALUES = {
    "tol": ([1e-9, 1e-3, 0.5], [0, -1, 1e400, "1e-9", True]),
    "max_horizon": ([1, 3, 8, 4.0], [0, -2, 2.5, None]),
    "table_cap": ([1, 4, 64], [0, -1, 2.5, 4097, 2**45]),
}


def pick(draw, valid, invalid):
    """A value from ``valid``, and one time in 25 from ``invalid``: most
    documents load, and their queries run."""
    rare = draw(st.sampled_from([False] * 24 + [True]))
    return draw(st.sampled_from(invalid if rare else valid))


@st.composite
def queries(draw):
    kind = pick(draw, KINDS, ["bogus", 7])
    query = {"kind": kind}
    # A kind's own field always, the other kind's one time in 25.
    if OWN_FIELD.get(kind) == "expression" or pick(draw, [False], [True]):
        query["expression"] = pick(draw, EXPRESSIONS, JUNK)
    if OWN_FIELD.get(kind) == "targets" or pick(draw, [False], [True]):
        query["targets"] = pick(draw, [[label] for label in LABELS] + [["H", "T"], ["T", "Z"]], [[], *JUNK])
    query.update(pick(draw, [{}], [{name: 1} for name in UNKNOWN_FIELDS]))
    if draw(st.booleans()):
        query["condition"] = pick(draw, CONDITIONS, JUNK)
    fields = draw(st.lists(st.sampled_from(sorted(POLICY_VALUES)), unique=True, max_size=3))
    policy = {name: pick(draw, *POLICY_VALUES[name]) for name in fields}
    policy.update(pick(draw, [{}], [{"bogus": 1}, {"divergence_threshold": 1e12}]))  # the latter a retired field
    query["policy"] = pick(draw, [policy], JUNK)
    return pick(draw, [query], JUNK)


@st.composite
def documents(draw, model_path: str):
    doc = {"schema": pick(draw, [1], [2, "1"]), "queries": draw(st.lists(queries(), max_size=3))}
    doc["queries"] = pick(draw, [doc["queries"]], JUNK)
    if draw(st.integers(0, 3)) == 0:
        doc["model"] = draw(st.sampled_from([model_path, model_path + ".missing", 3]))
    doc.update(pick(draw, [{}], [{name: 1} for name in UNKNOWN_FIELDS]))
    return doc


def split_unknown(doc: dict) -> tuple[list[str], dict]:
    """The JSON paths of the fields ``doc`` may not hold, in the order the
    loader meets them (the document's, then each query's), and ``doc``
    without those fields."""
    paths = [key for key in doc if key not in ("schema", "model", "queries")]
    clean = {key: doc[key] for key in doc if key not in paths}
    if isinstance(doc["queries"], list):
        clean["queries"] = []
        for i, query in enumerate(doc["queries"]):
            if isinstance(query, dict) and query.get("kind") in OWN_FIELD:
                known = ("kind", OWN_FIELD[query["kind"]], "condition", "policy")
                paths += [f"queries[{i}].{name}" for name in query if name not in known]
                query = {name: query[name] for name in query if name in known}
            clean["queries"].append(query)
    return paths, clean


def load_error(doc: dict) -> str | None:
    """The message ``load_queries`` rejects ``doc`` with, or None."""
    try:
        load_queries(doc)
    except SchemaError as exc:
        return str(exc)
    return None


def names_unknown_label(query: dict) -> bool:
    """Whether a query's condition, or a hit query's targets, name a label
    that is not a state of ``MODEL``."""
    states = set(MODEL["states"])
    labels = query["condition"].split(",") if query["condition"] else []
    if query["kind"] in ("hit_prob", "hit_time"):
        labels += query["targets"]
    return not states.issuperset(labels)


#: What an exit 2 without a report names: a JSON path, a file or a flag.
NAMED = re.compile(r"error: ([A-Za-z_]\w*(\[\d+\]|\.\w+)*: |.*\.json|.*--\w)")


def negative_zeros(value) -> list:
    """The negative zeros among the numbers of a parsed JSON value."""
    if isinstance(value, float):
        return [value] if value == 0.0 and math.copysign(1.0, value) < 0 else []
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else []
    return [z for item in items for z in negative_zeros(item)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("query_fuzz")
    model = root / "model.json"
    model.write_text(json.dumps(MODEL))
    return root, str(model)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_query_documents_hold_the_contract(files, data):
    root, model_path = files
    doc = data.draw(documents(model_path))
    argv = ["eval", "--query", str(root / "queries.json")]
    if "model" not in doc or data.draw(st.booleans()):
        argv += ["--model", model_path]
    pretty = data.draw(st.sampled_from([False, False, False, True]))
    if pretty:
        argv.append("--pretty")
    (root / "queries.json").write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    env = {k: v for k, v in os.environ.items() if not k.startswith("IPTREE_")}
    with mock.patch.dict(os.environ, env, clear=True), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert "NaN" not in out
    unknown, clean = split_unknown(doc)
    if unknown:  # the load fails at the first unknown field, or at an error the loader meets before it
        assert code == 2 and out == "", (doc, out)
        before = load_error(clean)
        assert err.startswith(f"error: {unknown[0]}: unknown ") or (before and err == f"error: {before}\n"), (doc, err)
        return
    if code == 2 and out == "":
        assert NAMED.match(err), err
        return
    assert err == ""
    if pretty:
        assert out.startswith("iptree eval report")
        return
    report = json.loads(out)
    assert negative_zeros(report) == []
    records = report["results"]
    assert len(records) == len(doc["queries"])
    failed = [rec for rec in records if not rec["ok"]]
    assert code == (2 if failed else 0)
    for i, rec in enumerate(records):
        if not rec["ok"]:  # every error names the query field it comes from
            assert isinstance(rec["error"], str), rec
            assert rec["error"].startswith(f"queries[{i}]."), rec
    for i, rec in enumerate(records):
        if names_unknown_label(rec["query"]):  # fails at its JSON path
            assert not rec["ok"] and rec["error"].startswith(f"queries[{i}]."), rec
    for rec in records:
        if rec["ok"] and rec["query"]["kind"] in ("hit_prob", "hit_time"):  # the query's policy steers nothing
            assert rec["upper"]["tol"] == rec["lower"]["tol"] == Policy.tol, rec
        for key in ("upper", "lower"):
            value = rec.get(key)
            if isinstance(value, dict):
                value = value["value"]
            if value is not None:
                assert value in ("+inf", "-inf") or math.isfinite(value)
