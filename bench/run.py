"""Benchmark for the iptree command line, run in-process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload hitting_limits --seed 1 --seconds 30 --trace 0

One client sends requests in a closed loop: each request is one
``iptree.cli.main(argv)`` call with stdout and stderr captured, and the next
starts when it returns.  The request list (one *pass*) is generated from the
seed before timing starts; the run repeats whole passes until ``--seconds``
have passed and at least 100 requests are done, so every run measures the
same mix.  Every request's output goes through the correctness gate.

The machine's speed drifts by up to a factor 1.7 in spells of about a
minute, so every request is followed by a fixed calibration loop, and the
request metrics are normalized: each latency is scaled by ``CAL_REF_MS``
over the calibration time measured right after it.  Raw wall times are
printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from
spans recorded by wrapping iptree's public functions (see ``tracing.py``).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
OUT = Path(".bench_out")

#: One client, no threads: BLAS pools are pinned to one thread, and every
#: IPTREE_* variable is removed (IPTREE_PARALLEL=0 would enable threads).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_REQUESTS = 100
SETUP_REPEATS = 9

#: Nominal time of :func:`calibrate`, close to its median on the reference
#: machine (see README).  Normalized times are "as if the loop took this".
CAL_REF_MS = 2.0

#: Per-layer metrics of the traced run, with units.  ``self_ms`` totals and
#: counts are per pass of the request list.
SELF_MS = [
    "cli.main",
    "modelio.load_model_file",
    "modelio.load_certificate_file",
    "modelio.load_queries_file",
    "expr.parse_gamble",
    "expr.compile_gamble",
    "engine.finitary_upper",
    "engine.limit_upper",
    "gambles.pointwise_leq",
    "supermartingale.verify",
    "supermartingale.certified_upper_bound",
    "oracle.envelope_sup",
    "suites.model_oracle_suite",
    "suites.model_axiom_suites",
    "suites.process_suite",
]
COUNTS = {
    "cli.report_bytes": "bytes",
    "modelio.bytes_in": "bytes",
    "expr.compile_gamble.cells": "count",
    "engine.finitary_upper.calls": "count",
    "engine.finitary_upper.levels": "count",
    "engine.limit_upper.calls": "count",
    "engine.limit_upper.iterates": "count",
    "engine.limit_upper.capped": "count",
    "gambles.pointwise_leq.calls": "count",
    "supermartingale.verify.situations": "count",
    "oracle.envelope_sup.selections": "count",
    "suites.checks": "count",
}


def calibrate() -> float:
    """Seconds taken by a fixed loop of dict and tuple work, about 2 ms."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def normalize(seconds: float, cal: float) -> float:
    return seconds * CAL_REF_MS / 1000 / cal


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing iptree and iptree.cli.

    One untimed start first, which also writes the bytecode caches.  Not
    normalized: start-up time does not follow the calibration loop's speed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import iptree, iptree.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"bench: importing iptree failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return times


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": _git_commit(),
        "thread_env": THREAD_ENV,
    }


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


class Runner:
    """Runs requests through the CLI and gates their outputs."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.first_digest: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[tuple[int, str, list[str]]] = []

    def call(self, argv) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start

    def gate(self, index: int, code: int, out: str, err: str) -> list[str]:
        req = self.requests[index]
        problems = []
        if code != req.expect_exit:
            problems.append(f"exit code {code}, expected {req.expect_exit}")
        if "Traceback" in err:
            problems.append(f"traceback on stderr: {err[-300:]!r}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.first_digest.setdefault(index, digest) != digest:
            problems.append("report differs from this request's first report")
        try:
            report = json.loads(out, parse_constant=_reject_constant)
        except ValueError as exc:
            return problems + [f"stdout is not finite JSON: {exc}"]
        try:
            problems += req.check(report)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            problems.append(f"report lacks an expected field: {exc!r}")
        return problems

    def run(self, index: int) -> tuple[float, int]:
        """One request; returns its latency and report size."""
        code, out, err, latency = self.call(self.requests[index].argv)
        self.attempted += 1
        problems = self.gate(index, code, out, err)
        if problems:
            self.failures.append((index, self.requests[index].shape, problems))
        return latency, len(out.encode())


def timed_run(runner: Runner, seconds: float) -> dict:
    n = len(runner.requests)
    latencies, cals, shapes = [], [], []
    start = time.perf_counter()
    while len(latencies) < MIN_REQUESTS or time.perf_counter() - start < seconds:
        for i in range(n):
            latencies.append(runner.run(i)[0])
            cals.append(calibrate())
            shapes.append(runner.requests[i].shape)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"latencies": latencies, "cals": cals, "shapes": shapes, "rss_mb": rss_mb}


def traced_run(runner: Runner, seconds: float) -> dict:
    from tracing import Tracer, install

    n = len(runner.requests)
    tracer = Tracer()
    untraced_ms, traced_ms, self_ms, limit_ms, spans = [], [], [], [], []
    counts = report_bytes = None
    start = time.perf_counter()
    while not traced_ms or time.perf_counter() - start < seconds:
        untraced_ms.append(1000 * sum(runner.run(i)[0] for i in range(n)))
        if traced_ms and time.perf_counter() - start >= seconds:
            break
        tracer.reset()
        restore = install(tracer)
        try:
            total_ms, size = 0.0, 0
            for i in range(n):
                tracer.request = i
                latency, nbytes = runner.run(i)
                total_ms += 1000 * latency
                size += nbytes
        finally:
            restore()
        traced_ms.append(total_ms)
        self_ms.append(tracer.self_ms())
        limit_ms.append(tracer.total_ms("engine.limit_upper"))
        spans.append(tracer.spans)
        if counts is None:
            counts, report_bytes = dict(tracer.counts), size
    return {
        "untraced_ms": untraced_ms,
        "traced_ms": traced_ms,
        "self_ms": self_ms,
        "limit_ms": limit_ms,
        "counts": counts,
        "report_bytes": report_bytes,
        "spans": spans,
        "tracer": tracer,
    }


def layer_metrics(traced: dict) -> dict:
    metrics = {}
    for name in SELF_MS:
        value = statistics.median(run.get(name, 0.0) for run in traced["self_ms"])
        metrics[f"{name}.self_ms"] = {"value": value, "unit": "ms"}
    counts = dict(traced["counts"])
    counts["cli.report_bytes"] = traced["report_bytes"]
    for name, unit in COUNTS.items():
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    iterates = counts.get("engine.limit_upper.iterates", 0)
    metrics["engine.limit_upper.ms_per_iterate"] = {
        "value": statistics.median(traced["limit_ms"]) / iterates if iterates else 0.0, "unit": "ms",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iptree" / "__init__.py").is_file():
        print(f"bench: no iptree sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    removed = sorted(k for k in os.environ if k.startswith("IPTREE_"))
    for name in removed:
        del os.environ[name]
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    setup = measure_setup()
    import iptree.cli

    env = environment()
    env["iptree_env_removed"] = removed
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    gen_start = time.perf_counter()
    try:
        requests = workloads.generate(args.workload, args.seed, workdir)
        inputs = hashlib.sha256()
        for req in requests:
            inputs.update(json.dumps(req.argv).encode())
        for path in sorted(workdir.iterdir()):
            inputs.update(path.name.encode() + path.read_bytes())
        print(f"inputs: {len(requests)} requests per pass, {sum(p.stat().st_size for p in workdir.iterdir())}"
              f" bytes, sha256 {inputs.hexdigest()}, generated in {time.perf_counter() - gen_start:.2f} s")

        runner = Runner(iptree.cli, requests)
        if args.trace:
            result = traced_run(runner, args.seconds)
            metrics = layer_metrics(result)
            overhead = statistics.median(result["traced_ms"]) - statistics.median(result["untraced_ms"])
            print(f"trace: {len(result['traced_ms'])} traced and {len(result['untraced_ms'])} untraced passes;"
                  f" overhead {overhead:.1f} ms per pass"
                  f" ({100 * overhead / statistics.median(result['untraced_ms']):.1f}%)")
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            result["tracer"].write(spans_path, result["spans"])
            print(f"trace: spans written to {spans_path}")
        else:
            result = timed_run(runner, args.seconds)
            raw, cals = result["latencies"], result["cals"]
            lat = [normalize(t, c) for t, c in zip(raw, cals)]
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "norm_requests_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
                "norm_request_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
                "norm_request_p90_ms": {"value": 1000 * statistics.quantiles(lat, n=10)[-1], "unit": "ms"},
                "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
            }
            samples = {"setup_s": len(setup), "peak_rss_mb": 1}
            for name, m in metrics.items():
                print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={samples.get(name, len(lat))})")
            print(f"raw: requests_per_s = {len(raw) / sum(raw):.6g} 1/s,"
                  f" request_p50_ms = {1000 * statistics.median(raw):.6g} ms,"
                  f" request_p90_ms = {1000 * statistics.quantiles(raw, n=10)[-1]:.6g} ms")
            print(f"calibration: median {1000 * statistics.median(cals):.4g} ms (reference {CAL_REF_MS} ms),"
                  f" quartiles {' '.join(f'{1000 * q:.4g}' for q in statistics.quantiles(cals, n=4))} ms")
            by_shape: dict[str, list[float]] = {}
            for shape, latency in zip(result["shapes"], lat):
                by_shape.setdefault(shape, []).append(latency)
            for shape, values in sorted(by_shape.items(), key=lambda kv: statistics.median(kv[1])):
                print(f"shape {shape}: n={len(values)} normalized median {1000 * statistics.median(values):.1f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every workload exercises every traced layer, so a metric that reads 0
    # means a wrapper no longer sees the calls it should.
    silent = [name for name, m in metrics.items() if not m["value"]]
    if args.trace:
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name in silent:
        print(f"failed: metric {name} reads 0; its layer recorded no calls")
    digests = hashlib.sha256("".join(runner.first_digest[i] for i in sorted(runner.first_digest)).encode())
    print(f"outputs: sha256 {digests.hexdigest()} over {len(runner.first_digest)} first reports")
    failed = len(runner.failures)
    print(f"metric failed_frac = {failed / runner.attempted:.6g} ({failed} of {runner.attempted} requests)")
    for index, shape, problems in runner.failures[:10]:
        print(f"failed: request {index} ({shape}): {'; '.join(problems)[:500]}")
    print(json.dumps({
        "correct": failed == 0 and not silent,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
