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

Only ``eval`` takes ``--timing``; no ``check`` battery reads it, and
``check`` rejects it as an unrecognized argument.  Only ``check`` takes
``--seed``, the seed of its randomized batteries, and echoes it in its
report; ``eval`` runs nothing randomized and rejects it.  Each ``check`` battery exits 2 on
the ``check`` arguments it does not read: ``axioms`` and ``oracle`` on a
certificate file, ``--expr`` and ``--at``, ``axioms`` and ``cert`` on
``--depth``, and ``cert`` on ``--trials``.  ``eval`` takes a query file or
inline queries (``--expr``, ``--hit-time``, ``--hit-prob`` and their
``--at``), not both; an inline flag counts as given even when it is empty,
and ``--at`` without an inline query exits 2.

Reports are JSON by default (``--pretty`` renders a table derived from the
same JSON, a failed query's error included).  A JSON report is
byte-identical to ``json.dumps(report, indent=2, sort_keys=True)``: it is
written by ``orjson`` when its bytes are ``json.dumps``'s once each
one-digit negative exponent gets its second digit, and otherwise by
``json.dumps`` itself (see ``_report_text``).
All numerics are finite numbers or the strings ``"+inf"`` / ``"-inf"``; NaN
is never emitted.  Identical inputs (and ``check``'s ``--seed``) produce
byte-identical reports; ``--timing`` adds wall-clock fields and is
therefore off by default.

Flags can be supplied through ``IPTREE_``-prefixed environment variables
(``IPTREE_MODEL`` and ``IPTREE_FORMAT``, and for ``check`` ``IPTREE_SEED``);
explicit flags win, and an environment value is checked like the flag it
stands for.
``main`` reads these variables on every call, and builds a new parser only
when they have changed since the last call.  A plain command line (every
flag spelled in full and given once, each value a separate word not
starting with ``-``, ``check``'s positionals side by side) is read straight
from that parser's own action table; every other one, ``-h`` and every
usage error among them, is read by argparse with its own messages (see
``_read_plain``).  So an expression that starts with ``-`` and holds no
space is given as ``--expr=-...``: as a separate word, argparse takes it
for a flag.
Hitting queries are solved exactly, so no tolerance or horizon steers
them: a query file's ``policy`` is checked when the file is read
(:func:`~iptree.modelio.load_queries`), and of its fields only ``table_cap``
is read.  An unknown label in a ``condition`` or ``targets`` is reported
with its source, the query's JSON path or the flag, and so is an
expression that fails to parse (before its line and column) or whose table
would exceed its cap, and a ``check oracle``
``--depth`` whose gambles would exceed the table cap (checked before any
gamble is drawn) or whose enumeration would exceed its cap.

Exit codes: 0 success (and all checks passed), 1 a check ran and found
violations, 2 any input or query error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

import orjson

from .engine import finitary_lower, finitary_uppers, limit_bounds
from .errors import ExprError, InvalidInputError, IptreeError, ResourceLimitError
from .expr import compile_gamble, parse_gamble
from .extreal import fmt
from .gambles import DEFAULT_TABLE_CAP, hitting_event_variable, hitting_time_variable
from .modelio import SCHEMA_VERSION, load_certificate_file, load_model_file, load_queries_file
from .supermartingale import certified_upper_bound
from .suites import model_axiom_suites, model_oracle_suite
from .tree import format_situation, parse_situation

_ENV_PREFIX = "IPTREE_"

#: The flags an ``IPTREE_*`` variable can supply, with their defaults.
_ENV_DEFAULTS = (("model", None), ("seed", 0), ("format", "json"))


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
def _build_parser(model, seed, report_format) -> argparse.ArgumentParser:
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


#: ``const`` of a flag that takes the next word as its value.
_ONE_WORD = object()

#: What a value reads as when its type or choices reject it.
_REJECTED = object()


def _typed(convert, choices, text: str):
    """``text`` through an action's ``type`` and ``choices``, as argparse
    reads it, or ``_REJECTED`` where argparse would exit."""
    try:
        value = convert(text)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return _REJECTED
    return value if choices is None or value in choices else _REJECTED


def _plain_reading(parser: argparse.ArgumentParser, dest: str, name: str):
    """How :func:`_read_plain` reads a subcommand's words: ``(flags,
    positionals, required, defaults)``, taken from ``parser``'s actions, or
    None if an action or a default is one it does not read.

    ``flags`` maps a flag to ``(key, dest, const, type, choices)``, where
    flags that exclude one another (a mutually exclusive group) share one
    ``key`` and a flag that takes a value has ``const`` ``_ONE_WORD``.
    ``positionals`` lists ``(dest, type, choices)``, the ``required`` ones
    first.  ``defaults`` are the values before any word is read: ``dest``
    set to the subcommand's ``name``, and each action's default, a string
    one already passed through the action's ``type`` as argparse passes it.
    """
    if parser.prefix_chars != "-" or parser.fromfile_prefix_chars is not None:
        return None
    groups = {action: group for group in parser._mutually_exclusive_groups for action in group._group_actions}
    flags, positionals, required = {}, [], 0
    defaults = {dest: name}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        convert = parser._registry_get("type", action.type, action.type)
        if isinstance(action, argparse._StoreConstAction) and action.option_strings and not action.required:
            const = action.const
        elif type(action) not in (argparse._StoreAction, _StoreOne):
            return None
        elif action.option_strings and action.nargs is None and not action.required:
            const = _ONE_WORD
        elif not action.option_strings and action.nargs in (None, argparse.OPTIONAL):
            if action.nargs is None and len(positionals) > required:
                return None
            required += action.nargs is None
            positionals.append((action.dest, convert, action.choices))
        else:
            return None
        for option in action.option_strings:
            flags[option] = (groups.get(action, action.dest), action.dest, const, convert, action.choices)
        if action.dest not in defaults and action.default is not argparse.SUPPRESS:
            value = action.default
            if isinstance(value, str):
                value = _typed(convert, None if action.option_strings else action.choices, value)
                if value is _REJECTED:
                    return None
            defaults[action.dest] = value
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    return flags, positionals, required, defaults


@functools.lru_cache(maxsize=1)
def _plain_table(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its :func:`_plain_reading`, for those it covers.
    The top level may hold only ``-h`` and the subcommands, and must read
    words as they are."""
    *others, commands = parser._actions
    if (
        not isinstance(commands, argparse._SubParsersAction)
        or not all(isinstance(action, argparse._HelpAction) for action in others)
        or parser._defaults
        or parser.fromfile_prefix_chars is not None
    ):
        return {}
    table = {name: _plain_reading(sub, commands.dest, name) for name, sub in commands.choices.items()}
    return {name: reading for name, reading in table.items() if reading is not None}


def _read_plain(parser: argparse.ArgumentParser, argv: list):
    """``parser.parse_args(argv)`` for a plain command line, else None.

    A plain line is a subcommand and then words in which every flag is
    spelled in full and given once, each value is the next word and does
    not start with ``-``, and the positionals stand side by side.  The
    namespace is read from the parser's own actions (:func:`_plain_table`);
    any other line, and any on which argparse would exit, is left to
    ``parse_args`` and its messages.
    """
    if not argv or any(type(word) is not str for word in argv):
        return None
    reading = _plain_table(parser).get(argv[0])
    if reading is None:
        return None
    flags, positionals, required, defaults = reading
    values = dict(defaults)
    seen, run, closed = set(), [], False
    words = iter(argv[1:])
    for word in words:
        flag = flags.get(word)
        if flag is None:
            if closed or word.startswith("-"):
                return None
            run.append(word)
            continue
        key, dest, value, convert, choices = flag
        if key in seen:
            return None
        seen.add(key)
        closed = bool(run)
        if value is _ONE_WORD:
            value = next(words, "-")  # a missing value is no plain one either
            if value.startswith("-"):
                return None
            value = _typed(convert, choices, value)
            if value is _REJECTED:
                return None
        values[dest] = value
    if not required <= len(run) <= len(positionals):
        return None
    for (dest, convert, choices), word in zip(positionals, run):
        value = values[dest] = _typed(convert, choices, word)
        if value is _REJECTED:
            return None
    namespace = argparse.Namespace()
    vars(namespace).update(values)
    return namespace


def _compiled(compiled: dict, source: str, space, cap: int):
    """The gamble of an expression, compiled once per (source, cap) in a run."""
    key = (source, cap)
    if key not in compiled:
        compiled[key] = compile_gamble(parse_gamble(source, space), cap=cap)
    return compiled[key]


def _named(source: str, call, *call_args):
    """``call(*call_args)``, an input, size-cap or expression error it
    raises prefixed with ``source``, the JSON path or flag of the input it
    read."""
    try:
        return call(*call_args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{source}: {exc}") from None
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{source}: {exc}") from None
    except ExprError as exc:
        raise ExprError(exc.message, exc.line, exc.column, source) from None


def _run_query(tree, query: dict, args, compiled: dict, path: str) -> dict:
    space = tree.state_space
    kind = query["kind"]
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
        upper, lower = limit_bounds(tree, v, s)
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


#: ``orjson.dumps`` options for ``json.dumps(indent=2, sort_keys=True)``'s
#: layout.  Subclasses of built-in types, dataclasses and datetimes go to no
#: ``default``, so they raise ``TypeError`` instead of being written.
_ORJSON_OPTIONS = (
    orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_SUBCLASS
    | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME
)

#: ``bytes.translate`` arguments that keep of orjson's text the bytes its
#: number tokens are made of, with ``1`` for every digit but ``0``, the
#: letters of ``null``, and a newline for a newline or a colon.  In the kept
#: text a number is preceded by a newline (a list item, or a value after its
#: key's colon) or starts the text, and is followed by a newline or ends it.
_NUMBER_BYTES = bytes(49 if 49 <= b <= 57 else 10 if b == 58 else b for b in range(256))
_NOT_NUMBER_BYTES = bytes(b for b in range(256) if b not in b"0123456789.e-\n:nul")

#: Where orjson's kept text can differ from ``json.dumps``'s, but for
#: ``_SHORT_EXPONENT``: a positive exponent (``1e16``, where ``json`` writes
#: ``1e+16``), a number below 1e-4 written without an exponent (``0.00001``
#: for ``1e-05``), and ``null``, which orjson writes for NaN and the
#: infinities that ``json`` rejects.  Both writers give the shortest digits,
#: so the digit before an exponent is never ``0``.  A string may hold one of
#: these too; its report is then written by ``json.dumps``.
_NOT_JSON_DUMPS = (b"1e1", b"\n0.0000", b"-0.0000", b"null")

#: A one-digit negative exponent, which orjson writes with one digit
#: (``1e-7``) and ``json`` with two (``1e-07``).  Only a number's exponent
#: ends a line of orjson's text, or the text, with it: a string ends with
#: its quote, and no ``-`` follows the ``e`` of ``true`` or ``false``.
_SHORT_EXPONENT = re.compile(rb"e-([1-9])(?=,?\n|\Z)")


def _report_text(report) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)``,
    byte for byte and raising what it raises, except that a member of an
    ``enum.Enum`` that ``json.dumps`` rejects is written as its value and a
    ``uuid.UUID`` as its string.

    The text is ``orjson``'s, each ``_SHORT_EXPONENT`` given its second
    digit, when its bytes then provably are ``json.dumps``'s: ASCII without
    DEL (which ``json`` escapes), and none of ``_NOT_JSON_DUMPS`` among the
    bytes of its numbers.  Any other report, and one orjson cannot write, is
    written by ``json.dumps``.
    """
    try:
        data = orjson.dumps(report, option=_ORJSON_OPTIONS)
    except TypeError:
        pass
    else:
        numbers = data.translate(_NUMBER_BYTES, _NOT_NUMBER_BYTES)
        if (
            data.isascii()
            and b"\x7f" not in data
            and not any(map(numbers.__contains__, _NOT_JSON_DUMPS))
            and not numbers.startswith(b"0.0000")
        ):
            return _SHORT_EXPONENT.sub(rb"e-0\1", data).decode("ascii")
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def _emit(report: dict, args) -> None:
    if args.format == "pretty":
        sys.stdout.write(_render_pretty(report))
    else:
        sys.stdout.write(_report_text(report) + "\n")


def _cmd_eval(args) -> int:
    queries: list[dict] = []
    if args.query is not None:
        if any(flag is not None for flag in (args.expr, args.at, args.hit_time, args.hit_prob)):
            print("error: --query and inline query flags are mutually exclusive", file=sys.stderr)
            return 2
        model_ref, queries = load_queries_file(args.query)
        if not args.model and model_ref:
            args.model = model_ref
    elif args.at is not None and all(flag is None for flag in (args.expr, args.hit_time, args.hit_prob)):
        print("error: --at applies only to inline queries (--expr, --hit-time, --hit-prob), and none is given", file=sys.stderr)
        return 2
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(parser, argv)
    if args is None:
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
