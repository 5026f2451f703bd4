"""The benchmark's tracer still sees the package.

``bench/tracing.py`` wraps iptree functions by module and name, and a traced
benchmark run whose listed counts read 0 fails.  These tests load the tracer
as it is and check that every function it names exists and that a hit query
still reaches the limit loop and the pointwise audit it counts.  The
batteries must keep one traced ``envelope_sup`` call per oracle trial, whose
results carry the trial's selection count, and report the checks the tracer
adds up: batching trials into fewer calls fails here first.
"""

import importlib
import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

import pytest

import iptree.cli
import iptree.suites

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"iptree.{module}"), name, None)), (module, name)


def test_a_hit_query_reaches_the_traced_limit_loop_and_audit(tracing, tmp_path, capsys):
    model = tmp_path / "coin.json"
    model.write_text(json.dumps({
        "schema": 1,
        "states": ["H", "T"],
        "model": {"kind": "homogeneous", "extreme_points": [[0.4, 0.6], [0.6, 0.4]]},
    }))
    tracer = tracing.Tracer()
    env = {k: v for k, v in os.environ.items() if not k.startswith("IPTREE_")}
    restore = tracing.install(tracer)
    try:
        with mock.patch.dict(os.environ, env, clear=True):
            code = iptree.cli.main(["eval", "--model", str(model), "--hit-prob", "T"])
    finally:
        restore()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["upper"]["stop_reason"] == "solved"
    assert tracer.counts["cli.main.calls"] == 1
    assert tracer.counts["engine.limit_upper.calls"] >= 1
    assert tracer.counts["engine.limit_upper.iterates"] >= 1
    assert tracer.counts["gambles.pointwise_leq.calls"] >= 1
    assert not hasattr(iptree.cli.main, "__wrapped__")  # restored


def _traced_check(tracing, capsys, model, argv):
    """``iptree check --model model argv`` under the tracer: the exit code,
    the report and the tracer's counts."""
    tracer = tracing.Tracer()
    env = {k: v for k, v in os.environ.items() if not k.startswith("IPTREE_")}
    restore = tracing.install(tracer)
    try:
        with mock.patch.dict(os.environ, env, clear=True):
            code = iptree.cli.main(["check", "--model", str(model), *argv])
    finally:
        restore()
    return code, json.loads(capsys.readouterr().out), tracer.counts


@pytest.fixture
def table_model(tmp_path):
    """A k = 2 depth-2 table whose entries have one to three extreme points,
    so that trials differ in their selection counts."""
    points = {"": [[0.4, 0.6], [0.6, 0.4]], "H": [[0.5, 0.5]], "T": [[0.2, 0.8], [0.7, 0.3], [0.5, 0.5]],
              "H,H": [[0.1, 0.9], [0.9, 0.1]]}
    model = tmp_path / "table.json"
    model.write_text(json.dumps({
        "schema": 1,
        "states": ["H", "T"],
        "model": {"kind": "table", "depth": 2, "default": [[0.5, 0.5]],
                  "entries": points},
    }))
    return model


def test_the_oracle_battery_makes_one_traced_envelope_per_trial(tracing, table_model, capsys):
    counts = []
    envelope_sup = iptree.suites.envelope_sup

    def recorded(*args, **kwargs):
        result = envelope_sup(*args, **kwargs)
        counts.append(result.count)
        return result

    with mock.patch.object(iptree.suites, "envelope_sup", recorded):
        assert iptree.cli.main(["check", "--model", str(table_model), "oracle", "--trials", "5"]) == 0
    untraced = json.loads(capsys.readouterr().out)
    code, report, traced = _traced_check(tracing, capsys, table_model, ["oracle", "--trials", "5"])
    assert code == 0 and report == untraced
    assert len(counts) == 5 and len(set(counts)) > 1
    assert traced["oracle.envelope_sup.calls"] == 5
    assert traced["oracle.envelope_sup.selections"] == sum(counts) > 0
    assert traced["suites.checks"] == sum(suite["checks"] for suite in report["suites"]) > 0


def test_the_axiom_batteries_count_their_reports_checks(tracing, table_model, capsys):
    code, report, traced = _traced_check(tracing, capsys, table_model, ["axioms", "--trials", "3"])
    assert code == 0 and [suite["trials"] for suite in report["suites"]] == [3, 3]
    assert traced["suites.checks"] == sum(suite["checks"] for suite in report["suites"]) > 0
