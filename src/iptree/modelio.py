"""JSON schemas for models, certificates, and query files.

All documents carry ``"schema": 1``.  Parse failures raise
:class:`~iptree.errors.SchemaError` whose message starts with the JSON path
of the offending element (``model.by_state.H[0]``), which the CLI surfaces
verbatim.

Model document::

    {"schema": 1,
     "states": ["H", "T"],
     "model": {"kind": "homogeneous",
               "extreme_points": [[0.4, 0.6], [0.6, 0.4]]}}

``kind`` is one of ``homogeneous``, ``markov``, ``table``:

* ``markov`` takes ``root`` (extreme-point list for the initial situation)
  and ``by_state`` (label -> extreme-point list);
* ``table`` takes ``depth``, ``entries`` (situation string -> extreme-point
  list) and ``default``.  Situation strings are comma-joined labels,
  ``""`` for the initial situation.

A precise tree is a model whose extreme-point lists all have length one.

Certificate document::

    {"schema": 1, "depth": 2, "lower_bound": 0.0,
     "table": {"": 0.36, "H": 0.6, "T": 0.0,
               "H,H": 1.0, "H,T": 0.0, "T,H": 0.0, "T,T": 0.0}}

The table must be total over situations of length <= depth; values are
numbers or the string ``"+inf"``.

Situation strings are read only by :func:`~iptree.tree.parse_situation`
and written only by :mod:`iptree.tree`.  A certificate table is read in one
pass: a key among :func:`~iptree.tree.situation_strings` (when the labels
round-trip: none empty, none with a comma) goes straight to its position,
any other key through the parser, which names a bad one.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, SchemaError
from .extreal import INF
from .local import CredalSet, StateSpace
from .supermartingale import TailConstantProcess
from .tree import (
    Homogeneous,
    ImpreciseTree,
    Markov,
    Table,
    format_situation,
    parse_situation,
    situation_strings,
)

SCHEMA_VERSION = 1


def _need(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _check_schema(doc: dict, path: str):
    version = _need(doc, "schema", path)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema" if path else "schema",
                          f"unsupported schema version {version!r}, expected {SCHEMA_VERSION}")


def _points(raw, path: str) -> CredalSet:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a non-empty list of extreme points")
    rows = []
    for i, row in enumerate(raw):
        ok = isinstance(row, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
        )
        if not ok:
            raise SchemaError(f"{path}[{i}]", "expected a list of numbers")
        rows.append(row)
    try:
        return CredalSet(np.asarray(rows, dtype=float))
    except Exception as exc:
        raise SchemaError(path, str(exc)) from None


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _stacked_rows(space: StateSpace, depth: int, entries_raw: dict):
    """The situations, all extreme points and points per entry of a table
    whose keys are situations of length <= ``depth`` and whose entries are
    non-empty lists of rows of ``k`` numbers; None for any other table."""
    try:
        sits = [parse_situation(space, key) for key in entries_raw]
    except (AttributeError, InvalidInputError):
        return None
    raws = list(entries_raw.values())
    if max(map(len, sits), default=0) > depth or set(map(type, raws)) - {list} or not all(raws):
        return None
    rows = [row for raw in raws for row in raw]
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {space.size}:
        return None
    if {type(x) for row in rows for x in row} - {int, float}:
        return None
    return sits, rows, list(map(len, raws))


def _table_entries(space: StateSpace, depth: int, entries_raw: dict, path: str) -> dict:
    """A table model's entries, situation -> credal set, in document order.

    A well-typed table has its extreme points checked in one stack (see
    :meth:`CredalSet.stacked`).  Any other table, or one that fails the
    checks, is read entry by entry, which raises for the first bad entry.
    """
    stacked = _stacked_rows(space, depth, entries_raw)
    if stacked is not None:
        sits, rows, sizes = stacked
        try:
            return dict(zip(sits, CredalSet.stacked(np.array(rows, dtype=float), sizes)))
        except (InvalidInputError, OverflowError):
            pass  # reported below with the entry's path
    entries = {}
    for key, raw in entries_raw.items():
        p_entry = f"{path}.{key or '<root>'}"
        try:
            sit = parse_situation(space, key)
        except Exception as exc:
            raise SchemaError(p_entry, str(exc)) from None
        if len(sit) > depth:
            raise SchemaError(p_entry, f"situation longer than the declared depth {depth}")
        entries[sit] = _points(raw, p_entry)
    return entries


def load_model(doc: dict, path: str = "") -> ImpreciseTree:
    """Build an imprecise tree from a parsed model document."""
    _check_schema(doc, path)
    states = _need(doc, "states", path)
    p_states = f"{path}.states" if path else "states"
    if (
        not isinstance(states, list)
        or not states
        or not all(isinstance(s, str) for s in states)
    ):
        raise SchemaError(p_states, "expected a non-empty list of state labels")
    try:
        space = StateSpace(tuple(states))
    except Exception as exc:
        raise SchemaError(p_states, str(exc)) from None

    model = _need(doc, "model", path)
    p_model = f"{path}.model" if path else "model"
    kind = _need(model, "kind", p_model)
    if kind == "homogeneous":
        credal = _points(_need(model, "extreme_points", p_model), f"{p_model}.extreme_points")
        assignment = Homogeneous(credal)
    elif kind == "markov":
        root = _points(_need(model, "root", p_model), f"{p_model}.root")
        by_state_raw = _need(model, "by_state", p_model)
        if not isinstance(by_state_raw, dict):
            raise SchemaError(f"{p_model}.by_state", "expected an object keyed by state label")
        by_state = []
        for label in space.labels:
            if label not in by_state_raw:
                raise SchemaError(f"{p_model}.by_state.{label}", "missing model for this state")
            by_state.append(_points(by_state_raw[label], f"{p_model}.by_state.{label}"))
        extra = set(by_state_raw) - set(space.labels)
        if extra:
            raise SchemaError(f"{p_model}.by_state.{sorted(extra)[0]}", "unknown state label")
        assignment = Markov(root, tuple(by_state))
    elif kind == "table":
        depth = _need(model, "depth", p_model)
        if not _is_count(depth):
            raise SchemaError(f"{p_model}.depth", "expected a non-negative integer")
        entries_raw = _need(model, "entries", p_model)
        if not isinstance(entries_raw, dict):
            raise SchemaError(f"{p_model}.entries", "expected an object keyed by situation string")
        entries = _table_entries(space, depth, entries_raw, f"{p_model}.entries")
        default = _points(_need(model, "default", p_model), f"{p_model}.default")
        assignment = Table(depth, entries, default)
    else:
        raise SchemaError(f"{p_model}.kind", f"unknown model kind {kind!r}")
    try:
        return ImpreciseTree(space, assignment)
    except Exception as exc:
        raise SchemaError(p_model, str(exc)) from None


def dump_model(tree: ImpreciseTree) -> dict:
    space = tree.state_space
    a = tree.assignment

    def pts(credal: CredalSet) -> list:
        return [[float(x) for x in row] for row in credal.points]

    if isinstance(a, Homogeneous):
        model = {"kind": "homogeneous", "extreme_points": pts(a.model)}
    elif isinstance(a, Markov):
        model = {
            "kind": "markov",
            "root": pts(a.root),
            "by_state": {space.labels[i]: pts(m) for i, m in enumerate(a.by_state)},
        }
    elif isinstance(a, Table):
        model = {
            "kind": "table",
            "depth": a.depth,
            "entries": {format_situation(space, s): pts(m) for s, m in sorted(a.entries.items())},
            "default": pts(a.default),
        }
    else:
        raise SchemaError("model", f"assignment {type(a).__name__} has no JSON form")
    return {"schema": SCHEMA_VERSION, "states": list(space.labels), "model": model}


def _read_json(file_path: str | Path):
    """The JSON document in a file.

    A file that cannot be read, is not UTF-8 text or is not JSON raises a
    :class:`SchemaError` naming the file.
    """
    try:
        return json.loads(Path(file_path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(str(file_path), f"cannot read the file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(str(file_path), f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(str(file_path), f"not valid JSON: {exc}") from None


def load_model_file(file_path: str | Path) -> ImpreciseTree:
    return load_model(_read_json(file_path))


def _value(raw, path: str) -> float:
    if raw == "+inf":
        return INF
    if raw == "-inf":
        raise SchemaError(path, "certificate values must be bounded below; -inf rejected")
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:
            raise SchemaError(path, "number too large for a float") from None
    raise SchemaError(path, f"expected a number or '+inf', got {raw!r}")


def load_certificate(doc: dict, space: StateSpace, path: str = "") -> tuple[TailConstantProcess, float]:
    """Build a tail-constant process and its declared lower bound."""
    _check_schema(doc, path)
    depth = _need(doc, "depth", path)
    p_depth = f"{path}.depth" if path else "depth"
    if not _is_count(depth):
        raise SchemaError(p_depth, "expected a non-negative integer")
    declared = _value(_need(doc, "lower_bound", path), f"{path}.lower_bound" if path else "lower_bound")
    table_raw = _need(doc, "table", path)
    p_table = f"{path}.table" if path else "table"
    if not isinstance(table_raw, dict):
        raise SchemaError(p_table, "expected an object keyed by situation string")
    k = space.size
    sizes, count = [], 0  # situations per length and in all, before any allocation
    for m in range(depth + 1):
        sizes.append(k**m)
        count += sizes[-1]
        if count > len(table_raw):
            raise SchemaError(
                p_depth,
                f"the table has {len(table_raw)} entries, fewer than the situations of length <= {depth}",
            )
    # Each value goes to its situation's position in the levels laid end to
    # end.  Every entry is a distinct situation, so once all are read the
    # count above guarantees that every situation has its value.
    values = [0.0] * count
    labels_round_trip = not any(label == "" or "," in label for label in space.labels)
    positions = dict(zip(situation_strings(space, depth), range(count))) if labels_round_trip else {}
    for key, raw in table_raw.items():
        i = positions.get(key)
        if i is None or type(raw) is not float:
            p_entry = f"{p_table}.{key or '<root>'}"
            if i is None:  # a bad key, or labels that only the parser reads
                try:
                    sit = parse_situation(space, key)
                except Exception as exc:
                    raise SchemaError(p_entry, str(exc)) from None
                if len(sit) > depth:
                    raise SchemaError(p_entry, f"situation longer than the declared depth {depth}")
                i = functools.reduce(lambda i, y: i * k + y + 1, sit, 0)  # breadth-first position
            raw = _value(raw, p_entry)
        values[i] = raw
    parts = np.split(np.array(values), np.cumsum(sizes)[:-1])
    try:
        process = TailConstantProcess(k, tuple(part.reshape((k,) * m) for m, part in enumerate(parts)))
    except Exception as exc:
        raise SchemaError(p_table, str(exc)) from None
    finite_floor = process.lower_bound()
    if finite_floor < declared - 1e-12:
        raise SchemaError(
            p_table, f"table attains {finite_floor}, below the declared lower bound {declared}"
        )
    return process, declared


def dump_certificate(process: TailConstantProcess, space: StateSpace) -> dict:
    from .extreal import fmt

    values = np.concatenate([level.ravel() for level in process.levels]).tolist()
    table = dict(zip(situation_strings(space, process.depth), map(fmt, values)))
    return {
        "schema": SCHEMA_VERSION,
        "depth": process.depth,
        "lower_bound": process.lower_bound(),
        "table": table,
    }


def load_certificate_file(file_path: str | Path, space: StateSpace) -> tuple[TailConstantProcess, float]:
    return load_certificate(_read_json(file_path), space)


_QUERY_KINDS = ("eval", "lower", "hit_prob", "hit_time", "verify_cert", "oracle_check", "axiom_suite")
_POLICY_FIELDS = {
    "tol": float,
    "max_horizon": int,
    "divergence_threshold": float,
    "depth": int,
    "trials": int,
    "enum_cap": int,
    "table_cap": int,
}
#: Policy fields that count work a query must do at least once.
_COUNT_FIELDS = ("depth", "trials")


def load_queries(doc: dict, path: str = "") -> tuple[str | None, list[dict]]:
    """Validate a query document.

    Returns the optional model reference (a path the CLI uses when no
    ``--model`` is given) and the list of normalized query dicts.
    """
    _check_schema(doc, path)
    model_ref = doc.get("model")
    if model_ref is not None and not isinstance(model_ref, str):
        raise SchemaError(f"{path}.model" if path else "model", "expected a model file path")
    queries = _need(doc, "queries", path)
    p_queries = f"{path}.queries" if path else "queries"
    if not isinstance(queries, list):
        raise SchemaError(p_queries, "expected a list of queries")
    out = []
    for i, q in enumerate(queries):
        p = f"{p_queries}[{i}]"
        kind = _need(q, "kind", p)
        if kind not in _QUERY_KINDS:
            raise SchemaError(f"{p}.kind", f"unknown kind {kind!r}; expected one of {_QUERY_KINDS}")
        norm: dict = {"kind": kind}
        if kind in ("eval", "lower", "verify_cert"):
            expression = _need(q, "expression", p)
            if not isinstance(expression, str):
                raise SchemaError(f"{p}.expression", "expected a gamble expression string")
            norm["expression"] = expression
        if kind in ("hit_prob", "hit_time"):
            targets = _need(q, "targets", p)
            if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets) or not targets:
                raise SchemaError(f"{p}.targets", "expected a non-empty list of state labels")
            norm["targets"] = targets
        if kind == "verify_cert":
            cert = _need(q, "certificate", p)
            if not isinstance(cert, (str, dict)):
                raise SchemaError(f"{p}.certificate", "expected a file path or an inline certificate object")
            norm["certificate"] = cert
        condition = q.get("condition", "")
        if not isinstance(condition, str):
            raise SchemaError(f"{p}.condition", "expected a situation string")
        norm["condition"] = condition
        policy = q.get("policy", {})
        if not isinstance(policy, dict):
            raise SchemaError(f"{p}.policy", "expected an object")
        for key, value in policy.items():
            if key not in _POLICY_FIELDS:
                raise SchemaError(f"{p}.policy.{key}", f"unknown policy field; known: {sorted(_POLICY_FIELDS)}")
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                raise SchemaError(f"{p}.policy.{key}", "expected a finite number")
            if _POLICY_FIELDS[key] is int and int(value) != value:
                raise SchemaError(f"{p}.policy.{key}", "expected an integer")
            if key in _COUNT_FIELDS and value < 1:
                raise SchemaError(f"{p}.policy.{key}", "expected an integer >= 1")
        norm["policy"] = dict(policy)
        if "seed" in q:
            seed = q["seed"]
            if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
                raise SchemaError(f"{p}.seed", "expected a non-negative integer")
            norm["seed"] = seed
        out.append(norm)
    return model_ref, out


def load_queries_file(file_path: str | Path) -> tuple[str | None, list[dict]]:
    return load_queries(_read_json(file_path))
