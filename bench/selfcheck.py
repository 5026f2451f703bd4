"""Determinism self-check of the benchmark and of iptree's reports.

Usage, from the root of a checkout::

    python3 bench/selfcheck.py

For every workload it makes two traced runs with the same seed and one with
another seed, then requires that

* both same-seed runs generated byte-identical inputs and printed
  byte-identical reports (the sha256 over every request's stdout);
* every count metric (calls, levels, iterates, situations, selections,
  cells, checks, bytes) is equal in both runs;
* the other seed generated different inputs;
* every run passed the correctness gate.

Exits 1 if any requirement fails.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("hitting_limits", "dense_certify")
SECONDS = 1.0
SEED = 1


def run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = {}
    for line in lines:
        match = re.match(r"(inputs|outputs): .*sha256 ([0-9a-f]{64})", line)
        if match:
            digest[match.group(1)] = match.group(2)
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "ms"}
    return {"correct": result["correct"], "counts": counts, **digest}


def main() -> int:
    ok = True

    def require(cond: bool, what: str):
        nonlocal ok
        ok &= cond
        print(f"{'PASS' if cond else 'FAIL'} {what}", flush=True)

    for workload in WORKLOADS:
        first, second = (run(workload, SEED, SECONDS) for _ in range(2))
        other = run(workload, SEED + 1, SECONDS)
        require(all(r["correct"] for r in (first, second, other)), f"{workload}: every request passed the gate")
        require(first["inputs"] == second["inputs"], f"{workload}: same seed, same inputs")
        require(first["outputs"] == second["outputs"], f"{workload}: same seed, byte-identical reports")
        differing = sorted(k for k in first["counts"] if first["counts"][k] != second["counts"].get(k))
        require(not differing, f"{workload}: {len(first['counts'])} count metrics repeat {differing or ''}")
        require(first["inputs"] != other["inputs"], f"{workload}: another seed, other inputs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
