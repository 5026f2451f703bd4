"""The benchmark's tracer still sees the package.

``bench/tracing.py`` wraps iptree functions by module and name, and a traced
benchmark run whose listed counts read 0 fails.  These tests load the tracer
as it is and check that every function it names exists and that a hit query
still reaches the limit loop and the pointwise audit it counts.
"""

import importlib
import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

import pytest

import iptree.cli

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
