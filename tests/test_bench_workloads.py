"""The benchmark's workloads still run against the package.

``bench/workloads.py`` builds its requests with the package itself (models,
certificates, reference answers), and ``bench/run.py`` gates every report.
These tests load both as they are, generate each workload's pass at seed 1
and run the first request of every shape through the gate, and check that
the query policy fields the loader accepts but ignores are exactly the ones
the benchmark writes.  They read the bench files and change none.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import iptree.cli
from iptree import modelio

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["hitting_limits", "dense_certify"])
def test_first_request_of_every_shape_passes_the_gate(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # the workloads import bench/reference.py
    for name in [k for k in os.environ if k.startswith("IPTREE_")]:
        monkeypatch.delenv(name)  # as bench/run.py removes them
    run, workloads = _load("run", monkeypatch), _load("workloads", monkeypatch)
    firsts: dict = {}
    for request in workloads.generate(workload, 1, tmp_path):
        firsts.setdefault(request.shape, request)
    runner = run.Runner(iptree.cli, list(firsts.values()))
    for i in range(len(runner.requests)):
        runner.run(i)
    assert runner.attempted == len({shape for shape, *_ in workloads.WORKLOADS[workload]})
    assert runner.failures == []


def test_the_ignored_policy_fields_are_the_ones_the_benchmark_writes(tmp_path, monkeypatch):
    # A query's policy accepts tol and max_horizon and reads neither, only
    # because the benchmark's query files still write them: a benchmark that
    # stops must also stop accepting them.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = _load("workloads", monkeypatch)
    written = set()
    for workload in ("hitting_limits", "dense_certify"):
        workloads.generate(workload, 1, tmp_path / workload)
        for path in (tmp_path / workload).glob("*-query.json"):
            for query in json.loads(path.read_text())["queries"]:
                written |= set(query.get("policy", {}))
    assert written - {"table_cap"} == set(modelio._POLICY_FIELDS) - {"table_cap"}
