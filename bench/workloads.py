"""The workloads: request lists generated from a seed, with checks.

A request is one ``iptree`` command line.  Generation writes every model,
query and certificate file the command reads, and computes reference
answers with :mod:`reference`, before any timing starts.  The seed decides
model parameters, target and conditioning states and suite seeds; the shape
table of each workload fixes state counts, caps, depths, point counts and
trial counts, so a pass costs about the same work for every seed.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (
    Model,
    close,
    dense_value,
    hitting_iterates,
    hitting_limit_bound,
)

LABELS = ("A", "B", "C", "D")

#: Selection counts up to which dense references are cross-checked against
#: the brute-force oracle at generation time.
ORACLE_CROSS_CHECK_CAP = 20_000


@dataclass
class Request:
    shape: str
    argv: list[str]
    expect_exit: int
    check: Callable[[dict], list[str]]


# --- generated models ------------------------------------------------------

def _leaves(rng, k: int, counts: list[int], target_mask=None, lo: float = 0.0, hi: float = 0.0) -> list[np.ndarray]:
    """Random extreme points, ``counts[i]`` of them for leaf ``i``.

    Weights are rounded to 6 decimals, and the largest weight of each point
    is set so that the point sums to 1; with ``target_mask``, the targets
    get mass in [lo, hi].
    """
    rows = sum(counts)
    if target_mask is None:
        p = rng.dirichlet(np.ones(k), size=rows)
    else:
        a = rng.uniform(lo, hi, size=(rows, 1))
        p = np.zeros((rows, k))
        p[:, target_mask] = a * rng.dirichlet(np.ones(target_mask.sum()), size=rows)
        p[:, ~target_mask] = (1 - a) * rng.dirichlet(np.ones((~target_mask).sum()), size=rows)
    p = np.round(p, 6)
    big = p.argmax(axis=1)
    p[np.arange(rows), big] = 0.0
    p[np.arange(rows), big] = 1.0 - p.sum(axis=1)
    return np.split(p, np.cumsum(counts)[:-1])


def _model(rng, k: int, kind: str, points, depth: int = 0, **kw) -> Model:
    """Random model; ``points`` is an int or a function of the situation
    (``None`` for a table default) giving the extreme-point count."""
    count = points if callable(points) else (lambda sit: points)
    labels = LABELS[:k]
    if kind == "homogeneous":
        return Model(labels, kind, _leaves(rng, k, [count(None)], **kw))
    if kind == "markov":
        sits = [()] + [(y,) for y in range(k)]
        return Model(labels, kind, _leaves(rng, k, [count(sit) for sit in sits], **kw))
    sits = [tuple(idx) for n in range(depth + 1) for idx in np.ndindex(*(k,) * n)]
    leaves = _leaves(rng, k, [count(None)] + [count(sit) for sit in sits], **kw)
    entries = {sit: i + 1 for i, sit in enumerate(sits)}
    return Model(labels, kind, leaves, entries, depth)


def _situation(model: Model, sit) -> str:
    return ",".join(model.labels[y] for y in sit)


# --- report parsing helpers --------------------------------------------------

def _num(x) -> float:
    if x == "+inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


def _match(problems: list[str], what: str, value, ref: float) -> None:
    v = _num(value)
    if not close(v, ref):
        problems.append(f"{what}: {v!r}, reference {ref!r}")


# --- hitting_limits ------------------------------------------------------------

def _hit_request(rng, shape: str, model: Model, kinds, cap: int, cond_len: int, targets, write) -> Request:
    non_targets = [y for y in range(model.k) if y not in targets]
    s = tuple(int(rng.choice(non_targets)) for _ in range(cond_len))
    tol = 1e-12
    queries, expected = [], []
    for kind in kinds:
        queries.append({
            "kind": kind,
            "targets": [model.labels[y] for y in sorted(targets)],
            "condition": _situation(model, s),
            "policy": {"tol": tol, "max_horizon": cap},
        })
        expected.append({
            side: (
                hitting_iterates(model, targets, s, kind, side == "upper", cap),
                hitting_limit_bound(model, targets, s, kind, side == "upper"),
            )
            for side in ("upper", "lower")
        })
    mpath = write("model", model.doc())
    qpath = write("query", {"schema": 1, "queries": queries})

    def check(report: dict) -> list[str]:
        problems: list[str] = []
        results = report.get("results", [])
        if len(results) != len(queries):
            return [f"{len(results)} results for {len(queries)} queries"]
        for q, (rec, exp) in enumerate(zip(results, expected)):
            if not rec.get("ok"):
                problems.append(f"query {q} failed: {rec.get('error')}")
                continue
            values = {}
            for side in ("upper", "lower"):
                res = rec[side]
                refs, bound = exp[side]
                its = res["iterates"]
                if not its:
                    problems.append(f"query {q} {side}: no iterates")
                    continue
                for j, (m, v) in enumerate(its):
                    if m != j + 1 or m > len(refs):
                        problems.append(f"query {q} {side}: iterate {j} has horizon {m}")
                        break
                    if not close(_num(v), refs[m - 1]):
                        problems.append(
                            f"query {q} {side}: iterate {m} = {v!r}, reference {refs[m - 1]!r}"
                        )
                        break
                value, last = _num(res["value"]), _num(its[-1][1])
                slack = 1e-9 * max(1.0, abs(bound))
                if not last - slack <= value <= bound + slack:
                    problems.append(
                        f"query {q} {side}: value {value!r} outside [{last!r}, {bound!r}]"
                    )
                values[side] = (value, [_num(v) for _, v in its])
            if len(values) == 2:
                (vu, iu), (vl, il) = values["upper"], values["lower"]
                if vl > vu + 1e-9 * max(1.0, abs(vu)) or any(
                    a > b + 1e-9 * max(1.0, abs(b)) for a, b in zip(il, iu)
                ):
                    problems.append(f"query {q}: lower exceeds upper")
        return problems

    return Request(shape, ["eval", "--model", mpath, "--query", qpath], 0, check)


def _coin(rng, targets):
    return Model(("H", "T"), "homogeneous", [np.array([[0.4, 0.6], [0.6, 0.4]])])


def _slow_chain(rng, targets):
    t = next(iter(targets))
    rows = []
    for p in (rng.uniform(0.008, 0.012), rng.uniform(0.025, 0.035)):
        row = np.zeros(2)
        row[t] = round(p, 6)
        row[1 - t] = 1.0 - row[t]
        rows.append(row)
    return Model(("H", "T"), "homogeneous", [np.vstack(rows)])


def _random_hitting(kind: str, k: int, depth: int = 0):
    def make(rng, targets):
        mask = np.array([y in targets for y in range(k)])
        return _model(rng, k, kind, 3, depth, target_mask=mask, lo=0.05, hi=0.2)
    return make


def _hit_shape(make, k: int, kinds, cap: int, cond_len: int):
    def build(rng, shape, write, i):
        targets = frozenset({int(rng.integers(k))})
        return _hit_request(rng, shape, make(rng, targets), kinds, cap, cond_len, targets, write)
    return build


BOTH = ("hit_time", "hit_prob")

# --- dense_certify -------------------------------------------------------------

_COEFFS = [0.25 * i for i in range(1, 17)]


def _coef(rng) -> tuple[str, float]:
    c = float(rng.choice(_COEFFS))
    return repr(c), c


def _expression(rng, k: int, n: int) -> tuple[str, np.ndarray]:
    """A random depth-``n`` gamble expression and its payoff table.

    The term structure is fixed, so every seed compiles the same amount of
    work; labels, positions and coefficients vary.
    """
    shape = (k,) * n
    x = np.indices(shape)

    def pos():
        return int(rng.integers(1, n + 1))

    def lab():
        return int(rng.integers(k))

    def atom(i, y):
        return f"X[{i}]=={LABELS[y]}", x[i - 1] == y

    terms = []
    c, cv = _coef(rng)
    (t1, m1), (t2, m2) = atom(pos(), lab()), atom(pos(), lab())
    terms.append((f"{c} * ind({t1} && {t2})", cv * (m1 & m2)))
    c, cv = _coef(rng)
    y = lab()
    terms.append((
        f"sum(i=1..{n}, {c} * ind(X[i]=={LABELS[y]}))",
        sum(cv * (x[i] == y) for i in range(n)),
    ))
    c, cv = _coef(rng)
    (t1, m1), (t2, m2) = atom(pos(), lab()), atom(pos(), lab())
    terms.append((f"max(ind({t1}) + ind({t2}), {c})", np.maximum(m1 * 1.0 + m2, cv)))
    c, cv = _coef(rng)
    lo = pos()
    y1, y2 = lab(), lab()
    terms.append((
        f"min(sum(i={lo}..{n}, ind(X[i]=={LABELS[y1]} || X[i]=={LABELS[y2]})), {c})",
        np.minimum(sum(((x[i] == y1) | (x[i] == y2)) * 1.0 for i in range(lo - 1, n)), cv),
    ))
    c, cv = _coef(rng)
    (t1, m1), (t2, m2), (t3, m3) = atom(pos(), lab()), atom(pos(), lab()), atom(pos(), lab())
    terms.append((f"{c} * ind(!({t1}) && ({t2} || {t3}))", cv * (~m1 & (m2 | m3))))
    c, cv = _coef(rng)
    y1, y2 = lab(), lab()
    terms.append((
        f"sum(i=1..3, sum(j=4..{n}, {c} * ind(X[i]=={LABELS[y1]} && X[j]=={LABELS[y2]})))",
        sum(cv * ((x[i] == y1) & (x[j] == y2)) for i in range(3) for j in range(3, n)),
    ))
    text, table = terms[0][0], np.array(terms[0][1], dtype=float)
    for op, (t, v) in zip("+-+-+", terms[1:]):
        text += f" {op} {t}"
        table = table + v if op == "+" else table - v
    return text, np.broadcast_to(table, shape).astype(float)


def _oracle_agrees(model: Model, table: np.ndarray, s, lower: float) -> bool:
    """Cross-check a reference lower value with the enumeration oracle when
    the selection count is small enough."""
    if model.selections(s, table.ndim) > ORACLE_CROSS_CHECK_CAP:
        return True
    from iptree import FinitaryGamble, envelope_sup, load_model

    # Only situations through s matter; dropping the other table entries
    # keeps the model small to load.
    below = {sit: i for sit, i in model.entries.items() if sit[: len(s)] == s}
    tree = load_model(Model(model.labels, model.kind, model.leaves, below, model.depth).doc())
    f = FinitaryGamble(model.k, -table)
    return close(-envelope_sup(tree, f, s, method="enumerate", cap=ORACLE_CROSS_CHECK_CAP).value, lower)


def _random_situation(rng, k: int, length: int) -> tuple[int, ...]:
    return tuple(int(y) for y in rng.integers(0, k, size=length))


def _dense_shape(k: int, kind: str, n: int, table_depth: int = 0):
    """An eval query at a shallow situation and a lower query two levels
    above the payoff depth, where the oracle can cross-check it."""
    def build(rng, shape, write, i):
        model = _model(rng, k, kind, 3, table_depth)
        text, table = _expression(rng, k, n)
        s0 = _random_situation(rng, k, 1)
        s1 = _random_situation(rng, k, n - 2)
        refs = (
            dense_value(model, table, s0, True),
            dense_value(model, table, s0, False),
            dense_value(model, table, s1, False),
        )
        agreed = _oracle_agrees(model, table, s1, refs[2])
        mpath = write("model", model.doc())
        qpath = write("query", {"schema": 1, "queries": [
            {"kind": "eval", "expression": text, "condition": _situation(model, s0)},
            {"kind": "lower", "expression": text, "condition": _situation(model, s1)},
        ]})

        def check(report: dict) -> list[str]:
            if not agreed:
                return ["reference disagrees with the enumeration oracle"]
            results = report.get("results", [])
            if len(results) != 2 or not all(r.get("ok") for r in results):
                return [f"results not ok: {results!r:.200}"]
            problems: list[str] = []
            _match(problems, "upper", results[0]["upper"], refs[0])
            _match(problems, "lower", results[0]["lower"], refs[1])
            _match(problems, "conditional lower", results[1]["lower"], refs[2])
            if _num(results[0]["lower"]) > _num(results[0]["upper"]) + 1e-9 * max(1.0, abs(refs[0])):
                problems.append("lower exceeds upper")
            return problems

        return Request(shape, ["eval", "--model", mpath, "--query", qpath], 0, check)
    return build


def _cert_shape(k: int, kind: str, n: int, table_depth: int = 0):
    """``check cert`` on the canonical supermartingale of a random
    expression; every other one is lowered at one situation."""
    def build(rng, shape, write, i):
        perturb = i % 2 == 1
        from iptree import canonical_supermartingale, compile_gamble, dump_certificate, load_model, parse_gamble

        model = _model(rng, k, kind, 3, table_depth)
        text, table = _expression(rng, k, n)
        s = _random_situation(rng, k, 1)
        ref = dense_value(model, table, s, True)
        tree = load_model(model.doc())
        f = compile_gamble(parse_gamble(text, tree.state_space))
        cert = dump_certificate(canonical_supermartingale(tree, f), tree.state_space)
        if perturb:
            sit = _random_situation(rng, k, int(rng.integers(0, n)))
            key = _situation(model, sit)
            cert["table"][key] = _num(cert["table"][key]) - 0.01
            cert["lower_bound"] = min(cert["lower_bound"], cert["table"][key])
        mpath = write("model", model.doc())
        cpath = write("cert", cert)

        def check(report: dict) -> list[str]:
            c = report.get("certificate", {})
            problems: list[str] = []
            if c.get("valid") is not (not perturb) or report.get("passed") is not (not perturb):
                problems.append(f"valid={c.get('valid')!r} for a {'perturbed' if perturb else 'canonical'} certificate")
            _match(problems, "engine value", c.get("engine_value"), ref)
            if not perturb:
                _match(problems, "certified bound", c.get("bound"), ref)
            return problems

        argv = ["check", "--model", mpath, "cert", cpath, "--expr", text, "--at", _situation(model, s)]
        return Request(shape, argv, 1 if perturb else 0, check)
    return build


# --- oracle and axiom batteries ------------------------------------------------

def _suite_shape(k: int, kind: str, points, what: str, trials: int):
    """``check oracle`` (depth 3) or ``check axioms`` on a small model whose
    selection count stays under the oracle's cap."""
    def build(rng, shape, write, i):
        model = _model(rng, k, kind, points, 2)
        mpath = write("model", model.doc())
        seed = str(int(rng.integers(0, 2**31)))
        argv = ["check", "--model", mpath, what, "--trials", str(trials), "--seed", seed]
        if what == "oracle":
            argv += ["--depth", "3"]

        def check(report: dict) -> list[str]:
            suites = report.get("suites", [])
            if not suites or report.get("passed") is not True:
                return [f"suites did not pass: {suites!r:.300}"]
            return [
                f"suite {s.get('name')}: passed={s.get('passed')}, trials={s.get('trials')}"
                for s in suites
                if s.get("passed") is not True or s.get("trials") != trials or not s.get("checks")
            ]

        return Request(shape, argv, 0, check)
    return build


def _k3_table_points(sit) -> int:
    # 3 * 2**12 = 12288 selections at oracle depth 3.
    return 1 if sit is None else (3 if sit == () else 2)


#: Slow chains (target mass in [0.01, 0.03]) and random chains (target mass
#: in [0.05, 0.2]) never stabilize at tol 1e-12 within these caps, and the
#: coin [0.4, 0.6] always stabilizes at the same horizon, so the number of
#: iterates, which sets the cost, does not depend on the seed.  One dense
#: eval, one certificate and one run of each battery per pass keep every
#: traced layer in use.
HITTING_LIMITS = [
    # (shape, requests per pass, build function)
    ("markov4_prob_cap20_at1", 8, _hit_shape(_random_hitting("markov", 4), 4, ("hit_prob",), 20, 1)),
    ("table3d2_prob_cap30", 8, _hit_shape(_random_hitting("table", 3, 2), 3, ("hit_prob",), 30, 0)),
    ("table2d3_both_cap30_at1", 6, _hit_shape(_random_hitting("table", 2, 3), 2, BOTH, 30, 1)),
    ("markov3_time_cap30_at1", 8, _hit_shape(_random_hitting("markov", 3), 3, ("hit_time",), 30, 1)),
    ("coin_time_cap80", 6, _hit_shape(_coin, 2, ("hit_time",), 80, 0)),
    ("slow_both_cap40_at1", 5, _hit_shape(_slow_chain, 2, BOTH, 40, 1)),
    ("coin_both_cap80_at1", 2, _hit_shape(_coin, 2, BOTH, 80, 1)),
    ("markov2_both_cap40", 2, _hit_shape(_random_hitting("markov", 2), 2, BOTH, 40, 0)),
    ("markov4_time_cap40", 5, _hit_shape(_random_hitting("markov", 4), 4, ("hit_time",), 40, 0)),
    ("slow_time_cap80", 3, _hit_shape(_slow_chain, 2, ("hit_time",), 80, 0)),
    ("eval_markov4_d6", 1, _dense_shape(4, "markov", 6)),
    ("cert_markov4_d6", 1, _cert_shape(4, "markov", 6)),
    ("oracle_homog2", 1, _suite_shape(2, "homogeneous", 3, "oracle", 40)),
    ("axioms_homog2", 1, _suite_shape(2, "homogeneous", 3, "axioms", 15)),
]


#: Dense gambles at the table cap (4096 cells), certificates of depth 5-10
#: (the k = 4 depth-5 table model is the largest model file), and the
#: oracle and axiom batteries on small models.  Two hitting requests per
#: pass keep the limit loop in use.
DENSE_CERTIFY = [
    ("eval_homog2_d12", 16, _dense_shape(2, "homogeneous", 12)),
    ("eval_markov2_d10", 12, _dense_shape(2, "markov", 10)),
    ("eval_table2_d8", 10, _dense_shape(2, "table", 8, 7)),
    ("eval_markov4_d6", 12, _dense_shape(4, "markov", 6)),
    ("eval_table4_d5", 8, _dense_shape(4, "table", 5, 5)),
    ("eval_homog3_d7", 10, _dense_shape(3, "homogeneous", 7)),
    ("cert_markov2_d10", 12, _cert_shape(2, "markov", 10)),
    ("cert_markov4_d6", 12, _cert_shape(4, "markov", 6)),
    ("cert_table4_d5", 12, _cert_shape(4, "table", 5, 5)),
    ("oracle_homog2", 4, _suite_shape(2, "homogeneous", 3, "oracle", 40)),
    ("oracle_markov2", 4, _suite_shape(2, "markov", 3, "oracle", 40)),
    ("oracle_table2", 4, _suite_shape(2, "table", 3, "oracle", 40)),
    ("oracle_homog3", 4, _suite_shape(3, "homogeneous", 2, "oracle", 40)),
    ("oracle_markov3", 4, _suite_shape(3, "markov", 2, "oracle", 40)),
    ("oracle_table3", 4, _suite_shape(3, "table", _k3_table_points, "oracle", 40)),
    ("axioms_homog2", 4, _suite_shape(2, "homogeneous", 3, "axioms", 15)),
    ("axioms_markov3", 4, _suite_shape(3, "markov", 3, "axioms", 15)),
    ("axioms_table2", 4, _suite_shape(2, "table", 3, "axioms", 15)),
    ("axioms_table3", 4, _suite_shape(3, "table", 2, "axioms", 15)),
    ("markov4_prob_cap20_at1", 2, _hit_shape(_random_hitting("markov", 4), 4, ("hit_prob",), 20, 1)),
]

WORKLOADS = {
    "hitting_limits": HITTING_LIMITS,
    "dense_certify": DENSE_CERTIFY,
}


def _interleave(shapes) -> list[tuple[str, Callable, int]]:
    """Spread each shape's requests evenly over the pass, so that a slow
    spell of the machine does not fall on one shape only."""
    slots = []
    for order, (name, count, build) in enumerate(shapes):
        for i in range(count):
            slots.append(((i + 0.5) / count, order, name, build, i))
    slots.sort(key=lambda t: (t[0], t[1]))
    return [(name, build, i) for _, _, name, build, i in slots]


def generate(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Write the input files of one pass under ``workdir`` and return its
    requests in order.  Paths in the argv are relative to the checkout."""
    rng = np.random.default_rng([zlib.crc32(workload.encode()), seed])
    workdir.mkdir(parents=True, exist_ok=True)
    requests = []
    for index, (name, build, i) in enumerate(_interleave(WORKLOADS[workload])):

        def write(kind, doc, index=index):
            path = workdir / f"{index:03d}-{kind}.json"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n")
            return path.as_posix()

        requests.append(build(rng, name, write, i))
    return requests
