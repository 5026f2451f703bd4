"""Command-line front end.

Two subcommands:

* ``iptree eval`` loads a model and runs queries (from a query file or
  inline flags), printing one report with every value and iterate history.
  A query is ``eval`` or ``lower`` of an expression, or ``hit_time`` or
  ``hit_prob`` of target states; hitting queries are solved exactly
  (:func:`~iptree.engine.limit_bounds`), their iterates an audit trail.
* ``iptree check`` runs verification batteries against a model: ``axioms``
  (coherence and global-model identity suites), ``oracle`` (brute-force
  envelope against the recursion engine), or ``cert`` (validate a
  supermartingale certificate file against an expression).  The batteries
  run only here, not as ``eval`` queries.

Only ``eval`` takes ``--tol``, ``--max-horizon`` (the limit policy of its
queries) and ``--timing``; no ``check`` battery reads them, and ``check``
rejects them as unrecognized arguments.  Only ``check`` takes ``--seed``,
the seed of its randomized batteries, and echoes it in its report; ``eval``
runs nothing randomized and rejects it.  Each ``check`` battery exits 2 on
the ``check`` arguments it does not read: ``axioms`` and ``oracle`` on a
certificate file, ``--expr`` and ``--at``, ``axioms`` and ``cert`` on
``--depth``, and ``cert`` on ``--trials``.  ``eval`` takes a query file or
inline queries (``--expr``, ``--hit-time``, ``--hit-prob`` and their
``--at``), not both; an inline flag counts as given even when it is empty.

Reports are JSON by default (``--pretty`` renders a table derived from the
same JSON, a failed query's error included).  A JSON report is
byte-identical to ``json.dumps(report, indent=2, sort_keys=True)``; it is
written in one pass by ``_json_text``.
All numerics are finite numbers or the strings ``"+inf"`` / ``"-inf"``; NaN
is never emitted.  Identical inputs (and ``check``'s ``--seed``) produce
byte-identical reports; ``--timing`` adds wall-clock fields and is
therefore off by default.

Flags can be supplied through ``IPTREE_``-prefixed environment variables
(``IPTREE_MODEL`` and ``IPTREE_FORMAT``, for ``check`` ``IPTREE_SEED``,
and for ``eval`` ``IPTREE_TOL`` and ``IPTREE_MAX_HORIZON``); explicit flags
win, and an environment value is checked like the flag it stands for.
``main`` reads these variables on every call, and builds a new parser only
when they have changed since the last call.
Per-query ``policy`` objects in a query file override the flags; a policy
value the engine rejects is reported with its source, the query's field or
the flag, and so is an unknown label in a ``condition`` or ``targets``, an
expression whose table would exceed its cap, and a ``check oracle``
``--depth`` whose gambles would exceed the table cap (checked before any
gamble is drawn) or whose enumeration would exceed its cap.

Exit codes: 0 success (and all checks passed), 1 a check ran and found
violations, 2 any input or query error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from .engine import Policy, finitary_lower, finitary_uppers, limit_bounds
from .errors import InvalidInputError, IptreeError, ResourceLimitError
from .expr import compile_gamble, parse_gamble
from .extreal import fmt
from .gambles import DEFAULT_TABLE_CAP, hitting_event_variable, hitting_time_variable
from .modelio import SCHEMA_VERSION, load_certificate_file, load_model_file, load_queries_file
from .supermartingale import certified_upper_bound
from .suites import model_axiom_suites, model_oracle_suite
from .tree import format_situation, parse_situation

_ENV_PREFIX = "IPTREE_"

#: The flags an ``IPTREE_*`` variable can supply, with their defaults.
_ENV_DEFAULTS = (
    ("model", None), ("seed", 0), ("tol", Policy.tol), ("max_horizon", Policy.max_horizon), ("format", "json"),
)


def _env_defaults() -> tuple:
    """The flag defaults as the environment sets them now, in ``_ENV_DEFAULTS`` order."""
    return tuple(os.environ.get(_ENV_PREFIX + name.upper(), fallback) for name, fallback in _ENV_DEFAULTS)


#: Most trials a ``check`` battery runs: a battery's time grows with its
#: trials, so a larger count is refused before any of them is drawn.
_MAX_TRIALS = 10_000

#: ``--trials`` and ``--depth`` where a battery reads them and they are not given.
_DEFAULT_TRIALS, _DEFAULT_DEPTH = 50, 3

#: The ``check`` arguments that only some batteries read: argument -> (its
#: name in messages, the batteries that read it).
_BATTERY_ARGS = {
    "target": ("a certificate file", ("cert",)),
    "expr": ("--expr", ("cert",)),
    "at": ("--at", ("cert",)),
    "trials": ("--trials", ("axioms", "oracle")),
    "depth": ("--depth", ("oracle",)),
}


def _int_at_least(low: int, high: int | None = None):
    """Argparse type: an integer no smaller than ``low`` (and no larger
    than ``high``, if given)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"expected an integer <= {high}, got {value}")
        return value

    return parse


class _StoreOne(argparse.Action):
    """Argparse's ``store``, except that ``--flag=--``, which argparse reads
    as an empty list of values, fails like a missing value."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


@functools.lru_cache(maxsize=1)
def _build_parser(model, seed, tol, max_horizon, report_format) -> argparse.ArgumentParser:
    """The parser whose defaults are the given ``_env_defaults()`` values.

    Parsing leaves a parser unchanged, so one is kept for as long as the
    environment stays the same.
    """
    parser = argparse.ArgumentParser(
        prog="iptree",
        description="Upper/lower expectations for imprecise probability trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # String defaults go through ``type`` like command-line values, so a bad
    # environment value exits 2 with argparse's message for its flag.
    def common(p):
        p.register("action", None, _StoreOne)
        p.add_argument("--model", default=model, help="model JSON file")
        fmt_group = p.add_mutually_exclusive_group()
        fmt_group.add_argument(
            "--json", dest="format", action="store_const", const="json",
            help="machine-readable report (default)",
        )
        fmt_group.add_argument(
            "--pretty", dest="format", action="store_const", const="pretty",
            help="human-readable table derived from the JSON report",
        )
        p.set_defaults(format=report_format)

    p_eval = sub.add_parser("eval", help="evaluate queries against a model")
    common(p_eval)
    p_eval.add_argument("--tol", type=float, default=tol, help="convergence tolerance")
    p_eval.add_argument("--max-horizon", type=int, default=max_horizon, help="iteration cap for limit queries")
    p_eval.add_argument("--timing", action="store_true", help="include wall-clock fields (breaks byte-identical reports)")
    p_eval.add_argument("--query", help="query JSON file")
    p_eval.add_argument("--expr", help="inline gamble expression")
    p_eval.add_argument("--at", help="conditioning situation of inline queries, comma-joined labels")
    p_eval.add_argument("--hit-time", metavar="STATES", help="inline hitting-time query, comma-joined target labels")
    p_eval.add_argument("--hit-prob", metavar="STATES", help="inline hitting-probability query")

    p_check = sub.add_parser("check", help="run verification batteries")
    common(p_check)
    p_check.add_argument("what", choices=("axioms", "oracle", "cert"))
    p_check.add_argument("--seed", type=_int_at_least(0), default=seed, help="seed for randomized suites")
    p_check.add_argument("target", nargs="?", help="certificate file (cert mode)")
    p_check.add_argument("--expr", help="gamble expression the certificate covers (cert mode)")
    p_check.add_argument("--at", help="conditioning situation (cert mode)")
    p_check.add_argument(
        "--trials", type=_int_at_least(1, _MAX_TRIALS),
        help=f"trials per randomized suite (default {_DEFAULT_TRIALS}, at most {_MAX_TRIALS})",
    )
    p_check.add_argument(
        "--depth", type=_int_at_least(1), help=f"gamble depth for the oracle battery (default {_DEFAULT_DEPTH})"
    )
    return parser


#: Where a policy field comes from when a query does not set it.
_POLICY_FLAGS = {"tol": "--tol/IPTREE_TOL", "max_horizon": "--max-horizon/IPTREE_MAX_HORIZON"}


def _policy_from(args, overrides: dict, path: str) -> Policy:
    """The policy of the query at JSON path ``path``: its ``policy``
    ``overrides``, else the flags.  A rejected value is named with its
    source, the query's field or the flag."""
    fields = {
        "tol": float(overrides.get("tol", args.tol)),
        "max_horizon": int(overrides.get("max_horizon", args.max_horizon)),
        "divergence_threshold": float(overrides.get("divergence_threshold", Policy.divergence_threshold)),
    }
    try:
        return Policy(**fields)
    except InvalidInputError:
        for name, value in fields.items():
            try:
                Policy(**{name: value})
            except InvalidInputError as exc:
                source = f"{path}.policy.{name}" if name in overrides else _POLICY_FLAGS[name]
                raise InvalidInputError(f"{source}: {exc}, got {value!r}") from None
        raise


def _compiled(compiled: dict, source: str, space, cap: int):
    """The gamble of an expression, compiled once per (source, cap) in a run."""
    key = (source, cap)
    if key not in compiled:
        compiled[key] = compile_gamble(parse_gamble(source, space), cap=cap)
    return compiled[key]


def _named(source: str, call, *call_args):
    """``call(*call_args)``, an input or size-cap error it raises prefixed
    with ``source``, the JSON path or flag of the input it read."""
    try:
        return call(*call_args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{source}: {exc}") from None
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{source}: {exc}") from None


def _run_query(tree, query: dict, args, compiled: dict, path: str) -> dict:
    space = tree.state_space
    kind = query["kind"]
    policy = _policy_from(args, query.get("policy", {}), path)
    if args.query is not None:  # a query file's fields are named by their JSON paths
        sources = {name: f"{path}.{name}" for name in ("condition", "targets", "expression")}
    else:  # inline queries' by their flags
        sources = {"condition": "--at", "targets": "--" + kind.replace("_", "-"), "expression": "--expr"}
    s = _named(sources["condition"], parse_situation, space, query.get("condition", ""))
    record: dict = {"query": query, "ok": True}
    if kind in ("eval", "lower"):
        cap = int(query.get("policy", {}).get("table_cap", DEFAULT_TABLE_CAP))
        f = _named(sources["expression"], _compiled, compiled, query["expression"], space, cap)
        if kind == "eval":
            upper, negated = finitary_uppers(tree, [f, -f], s)
            record["upper"], record["lower"] = fmt(upper), fmt(0.0 - negated)
        else:
            record["lower"] = fmt(finitary_lower(tree, f, s))
        record["depth"] = f.depth
    else:
        make = hitting_time_variable if kind == "hit_time" else hitting_event_variable
        v = _named(sources["targets"], make, space, query["targets"])
        upper, lower = limit_bounds(tree, v, s, policy)
        record["upper"] = upper.to_json()
        record["lower"] = lower.to_json()
        record["converged"] = upper.converged and lower.converged
    return record


def _certificate_json(cert, space, declared_bound: float) -> dict:
    return {
        "valid": cert.valid,
        "declared_lower_bound": fmt(declared_bound),
        "bound": fmt(cert.bound),
        "engine_value": fmt(cert.engine_value),
        "gap": fmt(cert.gap),
        "situation": format_situation(space, cert.situation),
        "verification": {
            "passed": cert.verification.passed,
            "checked": cert.verification.checked,
            "min_margin": fmt(cert.verification.min_margin),
            "max_margin": fmt(cert.verification.max_margin),
            "violations": [
                {
                    "situation": format_situation(space, v.situation),
                    "value": fmt(v.value),
                    "required": fmt(v.required),
                }
                for v in cert.verification.violations
            ],
        },
        "domination_witnesses": [
            format_situation(space, w) for w in cert.domination_witnesses
        ],
    }


def _render_pretty(report: dict) -> str:
    lines = [f"iptree {report['command']} report (schema {report['schema']})"]
    if "model" in report:
        lines.append(f"model: {report['model']}")
    for i, rec in enumerate(report.get("results", [])):
        q = rec.get("query", {})
        head = f"[{i}] {q.get('kind', '?')}"
        if "expression" in q:
            head += f"  {q['expression']!r}"
        if "targets" in q:
            head += f"  targets={','.join(q['targets'])}"
        if q.get("condition"):
            head += f"  given {q['condition']!r}"
        lines.append(head)
        for key in ("upper", "lower"):
            if key in rec:
                value = rec[key]
                if isinstance(value, dict):
                    lines.append(
                        f"    {key} = {value['value']}  ({value['stop_reason']},"
                        f" {len(value['iterates'])} iterates)"
                    )
                else:
                    lines.append(f"    {key} = {value}")
        if "error" in rec:
            lines.append(f"    error: {rec['error']}")
    for suite in report.get("suites", []):
        status = "pass" if suite["passed"] else "FAIL"
        lines.append(f"suite {suite['name']}: {status} ({suite['checks']} checks)")
        for failure in suite["failures"][:5]:
            lines.append(f"    {failure}")
    if "certificate" in report:
        c = report["certificate"]
        lines.append(f"certificate valid={c['valid']} bound={c['bound']} engine={c['engine_value']}")
    return "\n".join(lines) + "\n"


def _json_dumps(value, indent: str = "") -> str:
    """``json.dumps`` of a report value, its lines indented by ``indent``."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n" + indent)


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else _json_dumps(value)


#: JSON text of a scalar, by exact type; subclasses (NumPy scalars among them)
#: are left to ``json.dumps``.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``,
    byte for byte and raising what it raises, for a value nested at ``indent``.

    Built-in containers and scalars are written in one recursive pass; any
    other value, or a dict with a key that is not a ``str``, is handed to
    ``json.dumps`` and its lines are indented to fit.
    """
    kind = type(value)
    scalar = _SCALAR_JSON.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        inner = indent + "  "
        items = (encode_basestring_ascii(key) + ": " + _json_text(value[key], inner) for key in sorted(value))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        try:
            items = [_SCALAR_JSON[type(item)](item) for item in value]
        except KeyError:
            items = [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return _json_dumps(value, indent)


def _emit(report: dict, args) -> None:
    if args.format == "pretty":
        sys.stdout.write(_render_pretty(report))
    else:
        sys.stdout.write(_json_text(report) + "\n")


def _cmd_eval(args) -> int:
    queries: list[dict] = []
    if args.query is not None:
        if any(flag is not None for flag in (args.expr, args.at, args.hit_time, args.hit_prob)):
            print("error: --query and inline query flags are mutually exclusive", file=sys.stderr)
            return 2
        model_ref, queries = load_queries_file(args.query)
        if not args.model and model_ref:
            args.model = model_ref
    if not args.model:
        print("error: --model is required (or set IPTREE_MODEL, or name a model in the query file)", file=sys.stderr)
        return 2
    tree = load_model_file(args.model)
    if args.query is None:
        at = "" if args.at is None else args.at
        if args.expr is not None:
            queries.append({"kind": "eval", "expression": args.expr, "condition": at, "policy": {}})
        if args.hit_time is not None:
            queries.append({"kind": "hit_time", "targets": args.hit_time.split(","), "condition": at, "policy": {}})
        if args.hit_prob is not None:
            queries.append({"kind": "hit_prob", "targets": args.hit_prob.split(","), "condition": at, "policy": {}})
    report = {
        "schema": SCHEMA_VERSION,
        "command": "eval",
        "model": args.model,
        "results": [],
    }
    start = time.perf_counter()
    status = 0
    compiled: dict = {}

    def run_one(i: int, q: dict) -> dict:
        t0 = time.perf_counter()
        try:
            rec = _run_query(tree, q, args, compiled, f"queries[{i}]")
        except IptreeError as exc:
            return {"query": q, "ok": False, "error": str(exc)}
        if args.timing:
            rec["wall_time_ms"] = round(1000 * (time.perf_counter() - t0), 3)
        return rec

    report["results"] = [run_one(i, q) for i, q in enumerate(queries)]
    if any(not rec["ok"] for rec in report["results"]):
        status = 2
    if args.timing:
        report["wall_time_ms"] = round(1000 * (time.perf_counter() - start), 3)
    _emit(report, args)
    return status


def _cmd_check(args) -> int:
    unread = [
        name for dest, (name, readers) in _BATTERY_ARGS.items()
        if getattr(args, dest) is not None and args.what not in readers
    ]
    if unread:
        print(f"error: check {args.what} does not read {', '.join(unread)}", file=sys.stderr)
        return 2
    if not args.model:
        print("error: --model is required (or set IPTREE_MODEL)", file=sys.stderr)
        return 2
    tree = load_model_file(args.model)
    report: dict = {
        "schema": SCHEMA_VERSION,
        "command": "check",
        "what": args.what,
        "model": args.model,
        "seed": args.seed,
    }
    passed = True
    trials = _DEFAULT_TRIALS if args.trials is None else args.trials
    if args.what == "axioms":
        suites = model_axiom_suites(tree, seed=args.seed, trials=trials)
        report["suites"] = [r.to_json() for r in suites]
        passed = all(r.passed for r in suites)
    elif args.what == "oracle":
        depth = _DEFAULT_DEPTH if args.depth is None else args.depth
        suite = _named("--depth", lambda: model_oracle_suite(tree, seed=args.seed, trials=trials, depth=depth))
        report["suites"] = [suite.to_json()]
        passed = suite.passed
    else:  # cert
        if args.target is None:
            print("error: check cert needs a certificate file", file=sys.stderr)
            return 2
        if args.expr is None:
            print("error: check cert needs --expr for the covered gamble", file=sys.stderr)
            return 2
        process, declared = load_certificate_file(args.target, tree.state_space)
        f = _named("--expr", lambda: compile_gamble(parse_gamble(args.expr, tree.state_space)))
        s = _named("--at", parse_situation, tree.state_space, "" if args.at is None else args.at)
        # The certificate rejects a gamble deeper than itself, else a situation past it.
        source = "--expr" if f.depth > process.depth else "--at"
        cert = _named(source, certified_upper_bound, process, f, tree, s)
        report["certificate"] = _certificate_json(cert, tree.state_space, declared)
        passed = cert.valid
    report["passed"] = passed
    _emit(report, args)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser(*_env_defaults())
    args = parser.parse_args(argv)
    if args.format not in ("json", "pretty"):
        parser.error(f"IPTREE_FORMAT: invalid choice: {args.format!r} (choose from 'json', 'pretty')")
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_check(args)
    except IptreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
