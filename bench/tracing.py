"""Per-layer spans and counts, recorded by wrapping iptree's public functions.

The wrappers live here, not in the package: :func:`install` replaces every
attribute of every loaded ``iptree`` module that is bound to a traced
function, so calls made through ``from .engine import finitary_upper``
bindings and through module globals are all seen.  Spans stay in memory;
:meth:`Tracer.write` stores them when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Count functions take (tracer, args, kwargs, result) of a traced call and
# return the counts to add.

def _file_bytes(tracer, args, kwargs, result):
    return {"modelio.bytes_in": os.path.getsize(_arg(args, kwargs, 0, "file_path"))}


def _compile_cells(tracer, args, kwargs, result):
    return {"expr.compile_gamble.cells": result.table.size}


def _finitary_levels(tracer, args, kwargs, result):
    depth, s = _arg(args, kwargs, 1, "f").depth, _arg(args, kwargs, 2, "s", ())
    return {"engine.finitary_upper.levels": max(0, depth - len(s))}


def _limit_counts(tracer, args, kwargs, result):
    return {
        "engine.limit_upper.iterates": len(result.iterates),
        "engine.limit_upper.capped": int(result.stop_reason.value == "horizon_cap"),
    }


def _verified_situations(tracer, args, kwargs, result):
    return {"supermartingale.verify.situations": result.checked}


def _selections(tracer, args, kwargs, result):
    return {"oracle.envelope_sup.selections": result.count}


def _suite_checks(tracer, args, kwargs, result):
    reports = result if isinstance(result, list) else [result]
    return {"suites.checks": sum(r.checks for r in reports)}


#: (module, function) -> count function, or None.  Every traced function
#: also gets ``<module>.<function>.calls`` and a span.  ``finitary_lower``,
#: ``limit_lower``, ``value_table`` and ``process_suite`` are traced so that
#: their own work is not charged to their callers' self time.
TRACED = {
    ("cli", "main"): None,
    ("modelio", "load_model_file"): _file_bytes,
    ("modelio", "load_certificate_file"): _file_bytes,
    ("modelio", "load_queries_file"): _file_bytes,
    ("expr", "parse_gamble"): None,
    ("expr", "compile_gamble"): _compile_cells,
    ("engine", "finitary_upper"): _finitary_levels,
    ("engine", "finitary_lower"): None,
    ("engine", "limit_upper"): _limit_counts,
    ("engine", "limit_lower"): None,
    ("engine", "value_table"): None,
    ("gambles", "pointwise_leq"): None,
    ("supermartingale", "verify"): _verified_situations,
    ("supermartingale", "certified_upper_bound"): None,
    ("oracle", "envelope_sup"): _selections,
    ("suites", "model_oracle_suite"): _suite_checks,
    ("suites", "model_axiom_suites"): _suite_checks,
    ("suites", "process_suite"): None,
}


class Tracer:
    """Spans ``(name, start_ns, end_ns, parent, request)`` and counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[tuple[int, str]] = []
        self.request = -1
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count):
        tracer = self
        calls = f"{name}.calls"

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append((sid, name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.request)
            tracer.counts[calls] += 1
            if count is not None:
                tracer.counts.update(count(tracer, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def reset(self):
        self.spans, self.stack, self.counts = [], [], Counter()

    def total_ms(self, name: str) -> float:
        """Total duration of the spans of one name, children included."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[0] == name) / 1e6

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus children's."""
        child = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        total = defaultdict(int)
        for sid, span in enumerate(self.spans):
            if span is not None:
                total[span[0]] += span[2] - span[1] - child[sid]
        return {name: ns / 1e6 for name, ns in total.items()}

    def write(self, path, passes: list[list[tuple]]) -> None:
        """Store the spans of every traced pass, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for number, spans in enumerate(passes):
                for sid, (name, start, end, parent, request) in enumerate(spans):
                    out.write(json.dumps([number, sid, name, start, end, parent, request]) + "\n")


def install(tracer: Tracer):
    """Wrap every traced function wherever an iptree module binds it.

    Returns a function that restores the original bindings.
    """
    wrappers = {}  # id(original) -> wrapper
    for (module, name), count in TRACED.items():
        fn = getattr(importlib.import_module(f"iptree.{module}"), name)
        wrappers[id(fn)] = tracer.wrap(f"{module}.{name}", fn, count)
    replaced = []
    for modname, mod in list(sys.modules.items()):
        if modname != "iptree" and not modname.startswith("iptree."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                replaced.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def restore():
        for mod, attr, value in replaced:
            setattr(mod, attr, value)

    return restore
