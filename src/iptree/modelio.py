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

Query document::

    {"schema": 1, "model": "coin.json",
     "queries": [{"kind": "eval", "expression": "ind(X[1]==H)", "condition": "H",
                  "policy": {"table_cap": 64}},
                 {"kind": "hit_time", "targets": ["T"]}]}

A query's ``kind`` is one of ``eval``, ``lower`` (these take an
``expression``), ``hit_prob`` and ``hit_time`` (these take ``targets``);
``condition`` and ``policy`` are optional; a query holds no other field.
``policy`` takes ``table_cap``: a query may lower the table cap but not
raise it, so it is an integer in 1..``DEFAULT_TABLE_CAP``.  ``policy`` also
accepts ``tol`` and ``max_horizon`` (an integer), each a positive finite
number, and nothing reads them: hitting queries are solved exactly.  The document holds ``schema``, ``queries`` and optionally
``model``.  An unknown kind, or a field unknown at its place, fails at its
path (``queries[0].seed``, ``queries[0].policy.trials``, ``bogus``).

Situation strings are read only by :func:`~iptree.tree.parse_situation`
and written only by :mod:`iptree.tree`.  Certificates and model tables map
a key to its position through the :func:`~iptree.tree.situation_strings`
map, built when the labels round-trip (none empty, none with a comma) and
the document is not much sparser than the situations, and through the
parser for any other key.  The map is read-only and kept process-wide per
labels and depth, a few of bounded size (see :func:`_string_positions`), so
a model, its certificate and the next document over the same labels build
it once.  A certificate is laid out in one pass: its values go to one
read-only array whose levels are views of it, and one reduction over that
array finds a NaN or -inf, which the checked constructor of
:class:`~iptree.supermartingale.TailConstantProcess` then reports level by
level.  Only a certificate with a key the map lacks or a value that is no
float is read entry by entry.  Every valid model table, its default with its
entries, goes to the arrays of :meth:`~iptree.tree.Table.of_rows` in one
type scan, one array and one check of every extreme point, with no object
per entry; a Markov model is checked the same way.  Only a document that
pass rejects, an invalid one, is read entry by entry or part by part, which
raises for the first bad one.

Messages show a document's values by :func:`reprlib.repr`, which cuts them
short past a few levels of nesting or a few dozen characters, so a value
of any depth or length is reported at its path.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import reprlib
import threading
from pathlib import Path

import numpy as np
import orjson

from .errors import InvalidInputError, SchemaError
from .extreal import INF, _derived, _frozen, check_no_nan
from .gambles import DEFAULT_TABLE_CAP
from .local import CredalSet, StateSpace, _mass_rows
from .supermartingale import TailConstantProcess
from .tree import (
    Homogeneous,
    ImpreciseTree,
    Markov,
    Table,
    format_situation,
    parse_situation,
    situation_strings,
    trie_position,
)

SCHEMA_VERSION = 1


def _need(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _check_schema(doc: dict):
    version = _need(doc, "schema", "")
    if version != SCHEMA_VERSION:
        raise SchemaError("schema", f"unsupported schema version {reprlib.repr(version)}, expected {SCHEMA_VERSION}")


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


def _checked_rows(raws: list, k: int):
    """The extreme-point lists ``raws`` as :func:`~iptree.local._mass_rows`
    leaves them, one frozen matrix and each list's row count, when each is a
    non-empty list of rows of ``k`` numbers that pass the checks of
    :class:`~iptree.local.CredalSet`; None otherwise."""
    if set(map(type, raws)) - {list} or not all(raws):
        return None
    rows = list(itertools.chain.from_iterable(raws))
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {k}:
        return None
    numbers = list(itertools.chain.from_iterable(rows))
    if set(map(type, numbers)) - {int, float}:
        return None
    try:
        arr = np.fromiter(numbers, dtype=float, count=len(numbers)).reshape(-1, k)
        return _mass_rows(check_no_nan(arr, "extreme point weight"), list(map(len, raws)))
    except (OverflowError, InvalidInputError):
        return None


#: The situation-string maps that :func:`_string_positions` keeps, keyed by
#: labels and depth, least recently used first, and the lock that every
#: step on them takes.
_POSITIONS: dict = {}
_POSITIONS_LOCK = threading.Lock()

#: At most this many maps are kept...
_KEPT_MAPS = 8

#: ...each past depth 0 and with at most this many situations, which
#: covers every certificate at the depth of a gamble under the table cap...
_KEPT_SITUATIONS = 2 * DEFAULT_TABLE_CAP + 1

#: ...and at most this many characters in its strings.
_KEPT_CHARACTERS = 2**18


class _ReadOnlyMap(dict):
    """A dict whose mutating methods raise, so that a kept map stays as built."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a situation-string map is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


def _string_positions(space: StateSpace, depth: int, n: int) -> dict:
    """Each of :func:`~iptree.tree.situation_strings` to its position, when
    they name situations one to one; empty otherwise.

    A map is built only for a document of ``n`` keys that they number at
    most ``2 n + 1``, and is read-only.  It is kept process-wide for its
    labels (in their order) and depth, so the model, its certificate and the
    next document over the same labels build it once; a one-shot run builds
    each map once.  At most ``_KEPT_MAPS`` maps are kept, the least recently
    used dropped first, and only those past depth 0 with at most
    ``_KEPT_SITUATIONS`` situations and ``_KEPT_CHARACTERS`` characters."""
    labels = space.labels
    if any(label == "" or "," in label for label in labels):
        return {}
    key = (labels, depth)
    with _POSITIONS_LOCK:
        positions = _POSITIONS.pop(key, None)
        if positions is not None:
            _POSITIONS[key] = positions  # now the most recently used
            return positions
    count = 0  # situations of length <= depth, counted before any allocation
    for m in range(depth + 1):
        count += space.size**m
        if count > 2 * n + 1:
            return {}
    positions = _ReadOnlyMap(zip(situation_strings(space, depth), range(count)))
    if depth and count <= _KEPT_SITUATIONS and sum(map(len, positions)) <= _KEPT_CHARACTERS:
        with _POSITIONS_LOCK:
            _POSITIONS[key] = positions
            while len(_POSITIONS) > _KEPT_MAPS:
                del _POSITIONS[next(iter(_POSITIONS))]
    return positions


def _parsed_key(space: StateSpace, depth: int, key: str, path: str) -> tuple:
    """The situation a key names, by the parser, and its
    :func:`~iptree.tree.trie_step` position, a Python integer at any depth;
    a bad key, or one longer than ``depth``, fails at ``path``."""
    try:
        sit = parse_situation(space, key)
    except Exception as exc:
        raise SchemaError(path, str(exc)) from None
    if len(sit) > depth:
        raise SchemaError(path, f"situation longer than the declared depth {depth}")
    return sit, trie_position(space.size, sit)


def _table_rows(space: StateSpace, depth: int, entries_raw: dict, default_raw):
    """A table model's default and entries read in one pass, as
    :meth:`~iptree.tree.Table.of_rows` takes them; None for an invalid
    document (see the module docstring)."""
    at = list(map(_string_positions(space, depth, len(entries_raw)).get, entries_raw))
    if None in at:  # a key the map lacks, by the parser
        try:
            at = [_parsed_key(space, depth, key, "")[1] if j is None else j for key, j in zip(entries_raw, at)]
        except SchemaError:
            return None
    got = _checked_rows([default_raw, *entries_raw.values()], space.size)
    return None if got is None else (at, *got)


def _table_entries(space: StateSpace, depth: int, entries_raw: dict, path: str) -> dict:
    """A table model's entries, situation -> credal set, read one by one in
    document order, which raises for the first bad entry."""
    entries = {}
    for key, raw in entries_raw.items():
        p_entry = f"{path}.{key or '<root>'}"
        sit = _parsed_key(space, depth, key, p_entry)[0]  # the key before its points
        entries[sit] = _points(raw, p_entry)
    return entries


def _markov_sets(space: StateSpace, model: dict) -> list:
    """A Markov model's root credal set and its credal sets per state, in
    label order.

    A model whose ``by_state`` has exactly the state labels as keys has
    ``root`` and its entries read and checked at once by
    :func:`_checked_rows`.  Any other model, or one it does not take, is
    read part by part, which raises for the first bad part: ``root``, then
    ``by_state`` in label order, then an unknown label.
    """
    by_state_raw = model.get("by_state")
    if isinstance(by_state_raw, dict) and by_state_raw.keys() == set(space.labels):
        got = _checked_rows([model.get("root"), *map(by_state_raw.get, space.labels)], space.size)
        if got is not None:
            ends = np.cumsum(got[1]).tolist()
            return [_derived(CredalSet, points=got[0][a:b]) for a, b in zip([0, *ends], ends)]
    root = _points(_need(model, "root", "model"), "model.root")
    by_state_raw = _need(model, "by_state", "model")
    if not isinstance(by_state_raw, dict):
        raise SchemaError("model.by_state", "expected an object keyed by state label")
    by_state = []
    for label in space.labels:
        if label not in by_state_raw:
            raise SchemaError(f"model.by_state.{label}", "missing model for this state")
        by_state.append(_points(by_state_raw[label], f"model.by_state.{label}"))
    extra = set(by_state_raw) - set(space.labels)
    if extra:
        raise SchemaError(f"model.by_state.{sorted(extra)[0]}", "unknown state label")
    return [root, *by_state]


def load_model(doc: dict) -> ImpreciseTree:
    """Build an imprecise tree from a parsed model document."""
    _check_schema(doc)
    states = _need(doc, "states", "")
    if (
        not isinstance(states, list)
        or not states
        or not all(isinstance(s, str) for s in states)
    ):
        raise SchemaError("states", "expected a non-empty list of state labels")
    try:
        space = StateSpace(tuple(states))
    except Exception as exc:
        raise SchemaError("states", str(exc)) from None

    model = _need(doc, "model", "")
    kind = _need(model, "kind", "model")
    if kind == "homogeneous":
        credal = _points(_need(model, "extreme_points", "model"), "model.extreme_points")
        assignment = Homogeneous(credal)
    elif kind == "markov":
        root, *by_state = _markov_sets(space, model)
        assignment = Markov(root, tuple(by_state))
    elif kind == "table":
        depth = _need(model, "depth", "model")
        if not _is_count(depth):
            raise SchemaError("model.depth", "expected a non-negative integer")
        entries_raw = _need(model, "entries", "model")
        if not isinstance(entries_raw, dict):
            raise SchemaError("model.entries", "expected an object keyed by situation string")
        rows = _table_rows(space, depth, entries_raw, model.get("default"))
        if rows is None:  # entries first, then the default
            entries = _table_entries(space, depth, entries_raw, "model.entries")
            default = _points(_need(model, "default", "model"), "model.default")
            assignment = Table(depth, entries, default)
        else:
            assignment = Table.of_rows(depth, *rows)
    else:
        raise SchemaError("model.kind", f"unknown model kind {reprlib.repr(kind)}")
    try:
        return ImpreciseTree(space, assignment)
    except Exception as exc:
        raise SchemaError("model", str(exc)) from None


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


#: Each byte to ``0`` if it is a digit, ``.`` if it is a point and a space
#: otherwise, so that the integer part of a number is a run of ``0`` after a
#: space and a fractional part a run after a point.
_DIGIT_CLASSES = bytes(48 if 48 <= b <= 57 else 46 if b == 46 else 32 for b in range(256))

#: A run of at least 19 digits after a byte that is no point: an integer
#: that may not fit in 64 bits (10**18 has 19 digits), or digits in a
#: string or an exponent.
_LONG_INTEGER = b" " + b"0" * 19


def _file_name(file_path: str | Path) -> str:
    """A file's path as a message names it: each character that is not
    printable (a control character, a line break, a lone surrogate) escaped
    as :func:`repr` writes it, so that the message stays one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(file_path))


def _read_json(file_path: str | Path):
    """The JSON document in a file.

    A file that cannot be read (a path with a NUL character among them), is
    not UTF-8 text or is not JSON raises a :class:`SchemaError` naming the
    file by :func:`_file_name`.  The file is read once, and its
    bytes decoded by ``orjson``, which gives the values :func:`json.loads`
    gives, except on the documents that :func:`_json_loads` reads instead:
    those ``orjson`` rejects (NaN and Infinity literals, numbers past the
    float range, lone surrogates, a byte order mark, invalid UTF-8) and
    those with a run of 19 or more digits outside a fraction, since
    ``orjson`` reads an integer past 64 bits as a float.
    """
    try:
        with open(os.fspath(file_path), "rb") as file:
            data = file.read()
    except OSError as exc:
        raise SchemaError(_file_name(file_path), f"cannot read the file: {exc.strerror or exc}") from None
    except ValueError as exc:  # a NUL character in the path
        raise SchemaError(_file_name(file_path), f"cannot read the file: {exc}") from None
    digits = data.translate(_DIGIT_CLASSES)
    if not (digits.startswith(_LONG_INTEGER[1:]) or _LONG_INTEGER in digits):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return _json_loads(data, _file_name(file_path))


def _json_loads(data: bytes, name: str):
    """:func:`json.loads` of ``data`` as :meth:`pathlib.Path.read_text`
    reads a file's bytes (UTF-8, any newline read as ``\\n``), or the
    :class:`SchemaError` that :func:`_read_json` raises for file ``name``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(name, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise SchemaError(name, f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(name, "not valid JSON: nests too deeply to read") from None


def _read_document(file_path: str | Path) -> dict:
    """:func:`_read_json` of a model, query or certificate file, whose root
    must be an object: any other root fails naming the file."""
    doc = _read_json(file_path)
    if not isinstance(doc, dict):
        raise SchemaError(_file_name(file_path), f"expected an object, got {type(doc).__name__}")
    return doc


def load_model_file(file_path: str | Path) -> ImpreciseTree:
    return load_model(_read_document(file_path))


#: The one string a certificate value may be, and the value it stands for.
_PLUS_INF = {"+inf": INF}


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
    raise SchemaError(path, f"expected a number or '+inf', got {reprlib.repr(raw)}")


def load_certificate(doc: dict, space: StateSpace) -> tuple[TailConstantProcess, float]:
    """Build a tail-constant process and its declared lower bound."""
    _check_schema(doc)
    depth = _need(doc, "depth", "")
    if not _is_count(depth):
        raise SchemaError("depth", "expected a non-negative integer")
    declared = _value(_need(doc, "lower_bound", ""), "lower_bound")
    table_raw = _need(doc, "table", "")
    if not isinstance(table_raw, dict):
        raise SchemaError("table", "expected an object keyed by situation string")
    k, n = space.size, len(table_raw)
    sizes, count = [], 0  # situations per length and in all, before any allocation
    for m in range(depth + 1):
        sizes.append(k**m)
        count += sizes[-1]
        if count > n:
            raise SchemaError("depth", f"the table has {n} entries, fewer than the situations of length <= {depth}")
    # Each value goes to its situation's position in the levels laid end to
    # end.  Every entry is a distinct situation, so once all are read the
    # count above guarantees that every situation has its value.  Only a
    # table with a key that is not a situation string or a value that is
    # neither a float nor exactly "+inf" (as dump_certificate writes an
    # infinite value) is read entry by entry, which raises for the first bad
    # one.
    positions = _string_positions(space, depth, n)
    try:
        raw = table_raw.values()
        kinds = set(map(type, raw))
        if str in kinds:
            raw = list(map(_PLUS_INF.get, raw, raw))  # an unhashable value is a TypeError
            kinds = set(map(type, raw))
        if kinds - {float}:
            raise TypeError
        at = np.fromiter(map(positions.get, table_raw), dtype=np.intp, count=n)  # a miss is a TypeError
        values = np.fromiter(raw, dtype=float, count=n)
    except TypeError:
        at, values = list(map(positions.get, table_raw)), list(table_raw.values())
        for j, (key, raw) in enumerate(table_raw.items()):
            if at[j] is None or type(raw) is not float:
                p_entry = f"table.{key or '<root>'}"
                if at[j] is None:  # a bad key, or labels that only the parser reads
                    at[j] = _parsed_key(space, depth, key, p_entry)[1]
                values[j] = _value(raw, p_entry)
    laid = np.empty(count)
    laid[at] = values
    _frozen(laid)
    ends = itertools.accumulate(sizes)
    levels = tuple(laid[end - size : end].reshape((k,) * m) for m, (size, end) in enumerate(zip(sizes, ends)))
    lowest = laid.min()  # NaN if any value is
    if not lowest > -INF:  # the checked constructor raises for the first level with a NaN or -inf
        try:
            TailConstantProcess(k, levels)
        except Exception as exc:
            raise SchemaError("table", str(exc)) from None
    process = _derived(TailConstantProcess, k=k, levels=levels)
    if lowest < declared - 1e-12:  # the least finite value, or +inf
        raise SchemaError(
            "table", f"table attains {process.lower_bound()}, below the declared lower bound {declared}"
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
    return load_certificate(_read_document(file_path), space)


_QUERY_KINDS = ("eval", "lower", "hit_prob", "hit_time")
_DOCUMENT_FIELDS = ("schema", "model", "queries")
_POLICY_FIELDS = {"tol": float, "max_horizon": int, "table_cap": int}


def _known_fields(doc: dict, known, path: str, what: str):
    """Fail at the first field of ``doc`` that is not in ``known``."""
    for key in doc:
        if key not in known:
            where = f"{path}.{key}" if path else key
            raise SchemaError(where, f"unknown {what} field; known: {sorted(known)}")


def load_queries(doc: dict) -> tuple[str | None, list[dict]]:
    """Validate a query document.

    Returns the optional model reference (a path the CLI uses when no
    ``--model`` is given) and the list of normalized query dicts.
    """
    _check_schema(doc)
    _known_fields(doc, _DOCUMENT_FIELDS, "", "document")
    model_ref = doc.get("model")
    if model_ref is not None and not isinstance(model_ref, str):
        raise SchemaError("model", "expected a model file path")
    queries = _need(doc, "queries", "")
    if not isinstance(queries, list):
        raise SchemaError("queries", "expected a list of queries")
    out = []
    for i, q in enumerate(queries):
        p = f"queries[{i}]"
        kind = _need(q, "kind", p)
        if kind not in _QUERY_KINDS:
            raise SchemaError(f"{p}.kind", f"unknown kind {reprlib.repr(kind)}; expected one of {_QUERY_KINDS}")
        own = "expression" if kind in ("eval", "lower") else "targets"
        _known_fields(q, ("kind", own, "condition", "policy"), p, "query")
        norm: dict = {"kind": kind}
        if own == "expression":
            expression = _need(q, "expression", p)
            if not isinstance(expression, str):
                raise SchemaError(f"{p}.expression", "expected a gamble expression string")
            norm["expression"] = expression
        else:
            targets = _need(q, "targets", p)
            if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets) or not targets:
                raise SchemaError(f"{p}.targets", "expected a non-empty list of state labels")
            norm["targets"] = targets
        condition = q.get("condition", "")
        if not isinstance(condition, str):
            raise SchemaError(f"{p}.condition", "expected a situation string")
        norm["condition"] = condition
        policy = q.get("policy", {})
        if not isinstance(policy, dict):
            raise SchemaError(f"{p}.policy", "expected an object")
        _known_fields(policy, _POLICY_FIELDS, f"{p}.policy", "policy")
        for key, value in policy.items():
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                raise SchemaError(f"{p}.policy.{key}", "expected a finite number")
            if _POLICY_FIELDS[key] is int and int(value) != value:
                raise SchemaError(f"{p}.policy.{key}", "expected an integer")
            if key == "table_cap" and not 1 <= value <= DEFAULT_TABLE_CAP:
                raise SchemaError(f"{p}.policy.{key}", f"expected a cell cap in 1..{DEFAULT_TABLE_CAP}")
            if value <= 0:  # as the engine's Policy would reject it
                shown = _POLICY_FIELDS[key](value)
                raise SchemaError(f"{p}.policy.{key}", f"expected a positive number, got {shown!r}")
        norm["policy"] = dict(policy)
        out.append(norm)
    return model_ref, out


def load_queries_file(file_path: str | Path) -> tuple[str | None, list[dict]]:
    return load_queries(_read_document(file_path))
