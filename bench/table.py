"""Time the scenarios of the ROADMAP baseline table at this commit.

Usage, from the root of a checkout::

    python3 bench/table.py

Prints a Markdown table: each scenario's median wall time over a few
in-process repeats next to the baseline recorded in ROADMAP.md.  This is a
point-in-time reproduction, not a benchmark workload: it has no seeds, no
correctness gate and no bounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from iptree import (  # noqa: E402
    CredalSet,
    FinitaryGamble,
    Homogeneous,
    ImpreciseTree,
    Markov,
    Policy,
    StateSpace,
    canonical_supermartingale,
    finitary_upper,
    hitting_time_variable,
    limit_upper,
    verify,
)
from iptree import cli  # noqa: E402
from iptree.suites import oracle_suite, process_suite  # noqa: E402


def _two_state(lo: float, hi: float) -> ImpreciseTree:
    space = StateSpace(("H", "T"))
    return ImpreciseTree(space, Homogeneous(CredalSet(np.array([[1 - lo, lo], [1 - hi, hi]]))))


def _markov4(rng, target_mass=None) -> ImpreciseTree:
    def credal():
        rows = []
        for _ in range(3):
            if target_mass is None:
                rows.append(rng.dirichlet(np.ones(4)))
            else:
                a = rng.uniform(*target_mass)
                rows.append(np.append((1 - a) * rng.dirichlet(np.ones(3)), a))
        return CredalSet(np.array(rows))

    return ImpreciseTree(StateSpace(("A", "B", "C", "D")), Markov(credal(), tuple(credal() for _ in range(4))))


def _cli_four_queries(workdir: str):
    model = os.path.join(workdir, "slow.json")
    query = os.path.join(workdir, "query.json")
    with open(model, "w") as out:
        json.dump({"schema": 1, "states": ["H", "T"], "model": {
            "kind": "homogeneous", "extreme_points": [[0.99, 0.01], [0.97, 0.03]]}}, out)
    with open(query, "w") as out:
        json.dump({"schema": 1, "queries": [
            {"kind": "hit_time", "targets": ["T"], "condition": cond,
             "policy": {"tol": 1e-12, "max_horizon": 120}}
            for cond in ("", "H", "H,H", "H,H,H")
        ]}, out)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["eval", "--model", model, "--query", query]) != 0:
                raise RuntimeError("CLI scenario failed")
    return run


def scenarios(workdir: str):
    rng = np.random.default_rng(0)
    coin = _two_state(0.4, 0.6)
    slow = _two_state(0.01, 0.03)
    tau = hitting_time_variable(coin.state_space, ["T"])
    markov_hit = _markov4(rng, target_mass=(0.05, 0.2))
    tau4 = hitting_time_variable(markov_hit.state_space, ["D"])
    markov = _markov4(rng)
    dense12 = FinitaryGamble(2, rng.uniform(-5, 5, size=(2,) * 12))
    dense6 = FinitaryGamble(4, rng.uniform(-5, 5, size=(4,) * 6))
    return [
        ("hit_time, coin [0.4, 0.6], tol 1e-12 (stabilizes at m = 56)", "101 ms",
         lambda: limit_upper(coin, tau, (), Policy(tol=1e-12, max_horizon=100))),
        ("hit_time, slow chain p(T) ∈ [0.01, 0.03], cap 100", "457 ms",
         lambda: limit_upper(slow, tau, (), Policy(max_horizon=100))),
        ("the same at cap 200", "3.33 s",
         lambda: limit_upper(slow, tau, (), Policy(max_horizon=200))),
        ("hit_time, random k = 4 Markov tree, cap 100", "2.41 s",
         lambda: limit_upper(markov_hit, tau4, (), Policy(tol=1e-12, max_horizon=100))),
        ("dense upper, k = 2, depth 12, homogeneous", "17 ms",
         lambda: finitary_upper(coin, dense12)),
        ("dense upper, k = 4, depth 6, Markov", "5.4 ms",
         lambda: finitary_upper(markov, dense6)),
        ("canonical certificate + verify, k = 4, depth 6", "37 ms",
         lambda: verify(canonical_supermartingale(markov, dense6), markov)),
        ("`oracle_suite(0, 20)`", "18 ms", lambda: oracle_suite(0, 20)),
        ("`process_suite(0, 60)`", "121 ms", lambda: process_suite(0, 60)),
        ("CLI: 4 hit_time queries at cap 120, serial", "4.7–6.1 s", _cli_four_queries(workdir)),
    ]


def _fmt(seconds: float) -> str:
    return f"{seconds:.2f} s" if seconds >= 1 else f"{1000 * seconds:.1f} ms"


def main() -> int:
    print("| scenario | ROADMAP baseline | this commit (median) | repeats |")
    print("| --- | --- | --- | --- |")
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as workdir:
        for name, baseline, fn in scenarios(workdir):
            times = []
            while len(times) < 3 and sum(times) < 5.0:
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            print(f"| {name} | {baseline} | {_fmt(statistics.median(times))} | {len(times)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
