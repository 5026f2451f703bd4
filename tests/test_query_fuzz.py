"""Random query documents through ``cli.main``: every kind and policy field,
valid and invalid values, conditions, targets and malformed expressions,
each run held to the documented contract of ``iptree eval``."""

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

MODEL = {
    "schema": 1,
    "states": ["H", "T"],
    "model": {"kind": "homogeneous", "extreme_points": [[0.4, 0.6], [0.6, 0.4]]},
}

#: A certificate for ``ind(X[1]==H)`` on the coin: valid, and one below the value.
CERTIFICATE = {"schema": 1, "depth": 1, "lower_bound": 0.0, "table": {"": 0.6, "H": 1.0, "T": 0.0}}
LOW_CERTIFICATE = {**CERTIFICATE, "table": {"": 0.5, "H": 1.0, "T": 0.0}}

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
]
LABELS = ["H", "T", "Z", "", "h", "H,T"]
CONDITIONS = ["", "H", "T", "H,H", "T,H", "H,T,T", "Z", "H,,T", ",", "H,Z", " H"]
#: Values of the wrong JSON type for any field.
JUNK = [None, True, 3, -1.5, "x", [], {}, ["H"]]
KINDS = ["eval", "lower", "hit_prob", "hit_time", "verify_cert", "oracle_check", "axiom_suite"]

#: Per policy field: values within the run-time bounds, then invalid ones.
POLICY_VALUES = {
    "tol": ([1e-9, 1e-3, 0.5], [0, -1, 1e400, "1e-9", True]),
    "max_horizon": ([1, 3, 8, 4.0], [0, -2, 2.5, None]),
    "divergence_threshold": ([1e12, 5, 0.5], [0, -1, "big"]),
    "depth": ([1, 2, 2.0], [0, -1, 1.5, False]),
    "trials": ([1, 2], [0, -3, 1.5, "2"]),
    "enum_cap": ([1, 4, 1000], [0, -1]),
    "table_cap": ([1, 4, 64], [0, -1, 2.5]),
}


def pick(draw, valid, invalid):
    """A value from ``valid``, and one time in 25 from ``invalid``: most
    documents load, and their queries run."""
    rare = draw(st.sampled_from([False] * 24 + [True]))
    return draw(st.sampled_from(invalid if rare else valid))


@st.composite
def queries(draw, cert_path: str):
    kind = pick(draw, KINDS, ["bogus", 7])
    query = {"kind": kind}
    if kind in ("eval", "lower", "verify_cert") or draw(st.booleans()):
        query["expression"] = pick(draw, EXPRESSIONS, JUNK)
    if kind in ("hit_prob", "hit_time") or draw(st.booleans()):
        query["targets"] = pick(draw, [[label] for label in LABELS] + [["H", "T"], ["T", "Z"]], [[], *JUNK])
    if kind == "verify_cert" or draw(st.integers(0, 5)) == 0:
        query["certificate"] = pick(
            draw,
            [cert_path, cert_path + ".missing", CERTIFICATE, LOW_CERTIFICATE, {**CERTIFICATE, "depth": 3},
             {**CERTIFICATE, "table": {"": "-inf", "H": 1.0, "T": 0.0}}],
            [5, None],
        )
    if draw(st.booleans()):
        query["condition"] = pick(draw, CONDITIONS, JUNK)
    fields = draw(st.lists(st.sampled_from(sorted(POLICY_VALUES)), unique=True, max_size=3))
    if kind in ("oracle_check", "axiom_suite"):  # keep the batteries small
        fields = sorted({*fields, "trials", "depth"})
    policy = {name: pick(draw, *POLICY_VALUES[name]) for name in fields}
    policy.update(pick(draw, [{}], [{"bogus": 1}]))
    query["policy"] = pick(draw, [policy], JUNK)
    if draw(st.integers(0, 3)) == 0:
        query["seed"] = pick(draw, [0, 5], [-1, True, "x", 1.5])
    return pick(draw, [query], JUNK)


@st.composite
def documents(draw, model_path: str, cert_path: str):
    doc = {"schema": pick(draw, [1], [2, "1"]), "queries": draw(st.lists(queries(cert_path), max_size=3))}
    doc["queries"] = pick(draw, [doc["queries"]], JUNK)
    if draw(st.integers(0, 3)) == 0:
        doc["model"] = draw(st.sampled_from([model_path, model_path + ".missing", 3]))
    return doc


#: What an exit 2 without a report names: a JSON path, a file or a flag.
NAMED = re.compile(r"error: ([A-Za-z_]\w*(\[\d+\]|\.\w+)*: |.*\.json|.*--\w)")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("query_fuzz")
    model, cert = root / "model.json", root / "cert.json"
    model.write_text(json.dumps(MODEL))
    cert.write_text(json.dumps(CERTIFICATE))
    return root, str(model), str(cert)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_query_documents_hold_the_contract(files, data):
    root, model_path, cert_path = files
    doc = data.draw(documents(model_path, cert_path))
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
    if code == 2 and out == "":
        assert NAMED.match(err), err
        return
    assert err == ""
    if pretty:
        assert out.startswith("iptree eval report")
        return
    records = json.loads(out)["results"]
    assert len(records) == len(doc["queries"])
    failed = [rec for rec in records if not rec["ok"]]
    assert code == (2 if failed else 0)
    for rec in failed:
        assert isinstance(rec["error"], str) and rec["error"]
    for rec in records:
        for key in ("upper", "lower"):
            value = rec.get(key)
            if isinstance(value, dict):
                value = value["value"]
            if value is not None:
                assert value in ("+inf", "-inf") or math.isfinite(value)
