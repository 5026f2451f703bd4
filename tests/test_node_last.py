"""The node-last Bellman step against a reference in the per-node layout.

``engine._expectations`` multiplies (k, P, nodes) extreme points by
(k, G, nodes) next values and adds the symbols left to right.  The
references below compute the sweeps, the certificate check, the limit step
and the policy solve in the per-node layout instead: one
:func:`~iptree.extreal.weighted_sum` over the point and gamble axes of
every node (``points[:, :, None, :]`` against ``nxt.swapaxes(1, 2)[:, None]``),
with the symbols on the innermost axis.  Every result must agree bit for
bit: same values, shapes, dtypes and signs of zero.
"""

import itertools

import numpy as np

from iptree import engine
from iptree.engine import adversarial_selection, finitary_uppers, value_tables
from iptree.extreal import INF, weighted_sum
from iptree.gambles import FinitaryGamble, MachineGamble, MachineStack, hitting_event_variable, hitting_time_variable
from iptree.local import CredalSet, extended_upper_expectation
from iptree.suites import random_space
from iptree.supermartingale import TailConstantProcess, Violation, VerificationReport, _situation, verify
from iptree.tree import Homogeneous, ImpreciseTree, Markov, Table, all_situations, local_model, product_levels, trie_step

KINDS = ("homogeneous", "markov", "table", "selection")

#: Payoff entries: ordinary values, both zeros and the two smallest
#: subnormals, whose products with a weight underflow to a signed zero.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324])


def same(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def payoffs(rng, shape):
    """Uniform values with special ones among them, or, one time in four,
    special ones only, so that whole levels of sums underflow to zeros."""
    values = rng.uniform(-5.0, 5.0, size=shape)
    if rng.uniform() < 0.75:
        special = rng.uniform(size=shape) < 0.3
        values[special] = rng.choice(SPECIAL, size=int(special.sum()))
        return values
    return rng.choice(SPECIAL, size=shape, p=[0.1, 0.1, 0.1, 0.7])


def random_credal(rng, k):
    """One to three random extreme points, some with zero masses, or
    near-uniform ones, whose products with a subnormal underflow (all of
    them from k = 3 on)."""
    if rng.uniform() < 0.25:
        return CredalSet(rng.dirichlet(np.full(k, 50.0), size=int(rng.integers(1, 4))))
    points = rng.dirichlet(np.ones(k), size=int(rng.integers(1, 4)))
    points[rng.uniform(size=points.shape) < 0.25] = 0.0
    points[points.sum(axis=1) == 0.0, int(rng.integers(0, k))] = 1.0
    return CredalSet(points / points.sum(axis=1, keepdims=True))


def tree_of_kind(rng, k, kind):
    space = random_space(k)
    if kind == "homogeneous":
        return ImpreciseTree(space, Homogeneous(random_credal(rng, k)))
    if kind == "markov":
        return ImpreciseTree(space, Markov(random_credal(rng, k), tuple(random_credal(rng, k) for _ in range(k))))
    entries = {s: random_credal(rng, k) for s in all_situations(k, 2) if rng.uniform() < 0.8}
    tree = ImpreciseTree(space, Table(2, entries, random_credal(rng, k)))
    if kind == "table":
        return tree
    # A precise Selection: the attaining tree of a random depth-3 gamble.
    return adversarial_selection(tree, FinitaryGamble(k, rng.uniform(-5.0, 5.0, size=(k,) * 3)))


# --- references: the per-node layout ---------------------------------------

def ref_points(tree, t):
    a = tree.assignment
    return a.points.take(a.leaf[t], axis=0)  # (nodes, P, k)


def ref_scores(points, nxt):
    return weighted_sum(points[:, :, None, :], nxt.swapaxes(1, 2)[:, None])  # (nodes, P, G)


def ref_sweep(tree, cols, s):
    a = tree.assignment
    q_step = trie_step(cols.k, cols.depth)[0] if cols.trie else cols.step
    layers, transitions = product_levels(a.step, q_step, a.machine_init(s), cols.read(s)[1], cols.depth - len(s))
    values, argmax = [cols.payoffs(layers[-1][1])], []
    for li in range(len(transitions) - 1, -1, -1):
        t, q = layers[li]
        nxt = values[0][transitions[li]]
        nxt = nxt + 0.0 if cols.trie else cols.reward[q] + nxt
        scores = ref_scores(ref_points(tree, t), nxt)
        values.insert(0, scores.max(axis=1))
        argmax.insert(0, scores.argmax(axis=1))
    return layers, values, argmax


def ref_verify(process, tree, tol=1e-9):
    k, depth = process.k, process.depth
    violations, checked, lo, hi = [], 0, 0.0, 0.0
    layers = product_levels(tree.assignment.step, trie_step(k, depth)[0], 0, 0, depth)[0]
    for m in range(depth):
        value = process.levels[m].reshape(-1)
        nxt = process.levels[m + 1].reshape(-1, k)
        infinite = np.flatnonzero(np.isinf(nxt).any(axis=1))
        finite = nxt.copy()
        finite[infinite] = 0.0
        required = weighted_sum(ref_points(tree, layers[m][0]), finite[:, None, :]).max(axis=1)
        for i in infinite.tolist():
            leaf = local_model(tree, _situation(i, k, m))
            credal = leaf if isinstance(leaf, CredalSet) else CredalSet.singleton(leaf)
            required[i] = extended_upper_expectation(credal, nxt[i])
        checked += len(value)
        with np.errstate(invalid="ignore"):
            margin = value - required
        known = margin[np.isfinite(margin)]
        if known.size:
            lo, hi = min(lo, float(known.min())), max(hi, float(known.max()))
        for i in np.flatnonzero(margin < -tol).tolist():
            violations.append(Violation(_situation(i, k, m), float(value[i]), float(required[i])))
    return VerificationReport(not violations, checked, lo, hi, tuple(violations))


def ref_symbol_sum(terms):
    total = terms[0]
    for j in range(1, len(terms)):
        total = total + terms[j]
    return total


def ref_closure(tree, step, q, s):
    a = tree.assignment
    trans, t_of, q_of = a.closure(step, a.machine_init(s), q)
    return trans, q_of, ref_points(tree, t_of)


def ref_limit_values(tree, step, reward, terminal, s):
    accs, qs = [np.zeros(terminal.shape[1])], [0]
    for y in s:
        accs.append(accs[-1] + reward[qs[-1], y])
        qs.append(int(step[qs[-1], y]))
    for m in range(1, len(s) + 1):
        yield accs[m] + terminal[qs[m]]
    trans, q_of, points = ref_closure(tree, step, qs[-1], s)
    paid, succ = accs[-1], np.ascontiguousarray(trans.T)
    weights = np.ascontiguousarray(points.transpose(2, 0, 1)[:, :, None, :])
    rewards = np.ascontiguousarray(reward.take(q_of, axis=0).transpose(1, 0, 2))
    values = terminal.take(q_of, axis=0)
    while True:
        values = ref_symbol_sum(weights * (rewards + values.take(succ, axis=0))[..., None]).max(axis=-1)
        yield paid + values[0]


def ref_attractor(pos, trans, goal, allowed):
    inside, choice = goal.copy(), np.zeros(len(goal), dtype=np.intp)
    if not inside.any():
        return inside, choice
    while True:
        toward = allowed & (pos & inside[trans][:, None, :]).any(axis=2)
        new = toward.any(axis=1) & ~inside
        if not new.any():
            return inside, choice
        choice[new] = toward[new].argmax(axis=1)
        inside |= new


def ref_staying(zero, trans, inside):
    return (zero | inside[trans][:, None, :]).all(axis=2)


def ref_trap(zero, trans, live):
    trap = live
    while trap.any():
        kept = trap & ref_staying(zero, trans, trap).any(axis=1)
        if (kept == trap).all():
            break
        trap = kept
    return trap


def ref_sides(trans, q_of, points, time):
    """The two sides of the hitting solve, (nodes, points) ``allowed``."""
    live, pos = q_of == 0, points > 0
    zero = ~pos
    every = np.ones(points.shape[:2], dtype=bool)
    first = np.zeros(len(trans), dtype=np.intp)
    trap = ref_trap(zero, trans, live)
    doomed = ref_attractor(pos, trans, trap, every)[0]
    if not time:
        surely = np.where(live & ~doomed, 1.0, 0.0)
        reach, choice = ref_attractor(pos, trans, ~doomed, every)
        return (doomed & reach, surely, every, choice), (doomed & ~trap, surely, every, first)
    upper = (live & ~doomed, np.where(doomed, INF, 0.0), every, first)
    hits, allowed, choice = np.ones(len(trans), dtype=bool), every, first
    while doomed.any():
        allowed = ref_staying(zero, trans, hits)
        reached, choice = ref_attractor(pos, trans, ~doomed, allowed)
        if (reached == hits).all():
            break
        hits = reached
    return upper, (live & hits, np.where(hits, 0.0, INF), allowed, choice)


def ref_policy_values(points, trans, reward, sides):
    unknown, values, allowed, choice = (np.concatenate(parts) for parts in zip(*sides))
    idx = unknown.nonzero()[0]
    n = len(idx)
    if not n:
        return values
    at = np.full(len(values), -1)
    at[idx] = np.arange(n)
    least, node = np.divmod(idx, len(trans))
    pts = points.take(node, axis=0).transpose(2, 0, 1)
    nxt, rew = (trans.take(node, axis=0) + len(trans) * least[:, None]).T, reward.take(node, axis=0).T
    blocked, choice, sign = ~allowed.take(idx, axis=0), choice[idx], np.where(least, -1.0, 1.0)[:, None]
    col, rows = at[nxt], np.arange(n)
    out, stay = col < 0, col == rows
    inward, leave = ~out, ~stay
    moves = (inward & leave).T
    entry = (np.repeat(rows, len(col))[moves.ravel()], col.T[moves])
    known = np.where(np.isinf(values), 0.0, values)
    known[idx] = 0.0
    base = ref_symbol_sum(pts * (rew + known[nxt])[:, :, None])
    known[idx] = 1.0
    for rounds in range(engine._MAX_ROUNDS):
        gained = sign * ref_symbol_sum(pts * (rew + known[nxt])[:, :, None])
        gained[blocked] = -INF
        best = gained.argmax(axis=1)
        if rounds:
            now = gained[rows, choice]
            switch = gained[rows, best] > now + engine._SWITCH_GAIN * np.maximum(1.0, np.abs(now))
            if not switch.any():
                return values
            best = np.where(switch, best, choice)
        stuck = ~engine._exits(pts[:, rows, best] > 0, out, inward, col)
        best[stuck] = choice[stuck]
        if rounds and (best == choice).all():
            return values
        choice = best
        p = pts[:, rows, choice]
        outflow, off = ref_symbol_sum(p * leave), p.T[moves]
        matrix = np.diag(outflow)
        np.subtract.at(matrix, entry, off)
        values[idx] = known[idx] = np.linalg.solve(matrix, base[rows, choice])
    raise AssertionError("reference policy iteration did not settle")


# --- the properties ---------------------------------------------------------

def stack_of(rng, k, depth, width, dense):
    """``width`` gambles of one depth that share an automaton."""
    if dense:
        return [FinitaryGamble(k, payoffs(rng, (k,) * depth)) for _ in range(width)]
    states = int(rng.integers(1, 6))
    step = rng.integers(0, states, size=(states, k))
    return [MachineGamble(k, depth, step, payoffs(rng, (states, k)), payoffs(rng, states)) for _ in range(width)]


def situation_for(rng, k, depth, mode):
    length = (int(rng.integers(0, depth)) if depth else 0, depth, depth + int(rng.integers(1, 3)))[mode]
    return tuple(int(y) for y in rng.integers(0, k, size=length))


def test_sweeps_match_the_per_node_layout():
    rng = np.random.default_rng(3001)
    seen, cases = set(), 0
    for trial in range(360):
        kind, width, dense, mode = KINDS[trial % 4], (1, 2, 8)[trial // 4 % 3], trial // 12 % 2 == 0, trial // 24 % 3
        k = int(rng.integers(2, 5 if kind != "selection" else 4))
        depth = trial // 72 + int(rng.integers(0, 3))  # 0 .. 6
        tree = tree_of_kind(rng, k, kind)
        gambles = stack_of(rng, k, depth, width, dense)
        s = situation_for(rng, k, depth, mode)
        cols = MachineStack.of(gambles)
        layers, values, argmax = ref_sweep(tree, cols, s)
        got = finitary_uppers(tree, gambles, s)
        want = (cols.read(s)[0] + values[0][0]).tolist()
        assert same(got, want), (trial, got, want)
        if dense:
            ref = ref_sweep(tree, cols, ())[1]
            for g, table in enumerate(value_tables(tree, gambles)):
                assert len(table) == depth + 1
                for m, level in enumerate(table):
                    assert same(level, ref[m][:, g].reshape((k,) * m)), (trial, g, m)
        if width == 1 or trial % 3 == 0:
            sel = adversarial_selection(tree, gambles[0], s).assignment
            picks = {}
            for li, chosen in enumerate(argmax):
                t, q = layers[li]
                rows = ref_points(tree, t)[np.arange(len(t)), chosen[:, 0]]
                picks.update(((len(s) + li, nt, nq), row) for nt, nq, row in zip(t.tolist(), q.tolist(), rows))
            assert list(sel.choices) == list(picks)
            assert all(same(m.weights, picks[key]) for key, m in sel.choices.items())
        seen.add((kind, width, dense, mode, min(depth, 6)))
        cases += 1
    assert cases >= 300
    assert {(kind, width, dense, mode) for kind, width, dense, mode, _ in seen} == set(
        itertools.product(KINDS, (1, 2, 8), (True, False), range(3))
    )
    assert {d for *_, d in seen} == set(range(7))


def random_process(rng, tree, k, depth):
    """Random levels, or the tight canonical process, nudged below its
    values in places or not; +inf entries at random, with their ancestors
    +inf too where the process is left tight."""
    levels = [payoffs(rng, (k,) * m) + rng.uniform(0.0, 0.1) for m in range(depth + 1)]
    shape = int(rng.integers(0, 3)) if depth else 0
    if shape:
        levels = [level.copy() for level in value_tables(tree, [FinitaryGamble(k, levels[-1])])[0]]
    for m in range(depth, 0, -1):
        flat = levels[m].reshape(-1)
        infinite = np.flatnonzero(rng.uniform(size=flat.shape) < 0.1)
        flat[infinite] = INF
        if shape == 1:
            levels[m - 1].reshape(-1)[infinite // k] = INF
        elif shape == 2:
            nudge = rng.uniform(size=levels[m - 1].shape) < 0.2
            levels[m - 1][nudge] -= rng.uniform(0.0, 1e-6, size=int(nudge.sum()))
    return TailConstantProcess(k, tuple(levels))


def test_verify_matches_the_per_node_layout():
    rng = np.random.default_rng(3002)
    seen = set()
    for trial in range(320):
        kind = KINDS[trial % 4]
        k = int(rng.integers(2, 5 if kind != "selection" else 4))
        depth = trial // 4 % 7
        tree = tree_of_kind(rng, k, kind)
        process = random_process(rng, tree, k, depth)
        got, want = verify(process, tree), ref_verify(process, tree)
        assert repr(got) == repr(want), trial
        for field in ("min_margin", "max_margin"):
            assert same(getattr(got, field), getattr(want, field))
        infinite = any(np.isinf(level).any() for level in process.levels[1:])
        seen.add((kind, depth, infinite, bool(got.violations)))
    assert len({(kind, depth) for kind, depth, *_ in seen}) == 4 * 7
    assert {(a, b) for *_, a, b in seen} == set(itertools.product((True, False), repeat=2))


def limit_arrays(rng, k, width):
    states = int(rng.integers(1, 7))
    step = rng.integers(0, states, size=(states, k))
    return step, payoffs(rng, (states, k, width)), payoffs(rng, (states, width))


def test_limit_iterates_match_the_per_node_layout():
    rng = np.random.default_rng(3003)
    sizes = set()
    for trial in range(320):
        kind, width = KINDS[trial % 4], (1, 2, 8)[trial // 4 % 3]
        k = int(rng.integers(2, 5 if kind != "selection" else 4))
        tree = tree_of_kind(rng, k, kind)
        step, reward, terminal = limit_arrays(rng, k, width)
        s = tuple(int(y) for y in rng.integers(0, k, size=int(rng.integers(0, 4))))
        got = itertools.islice(engine._limit_values(tree, step, reward, terminal, s), 12)
        want = itertools.islice(ref_limit_values(tree, step, reward, terminal, s), 12)
        for x, y in zip(got, want, strict=True):
            assert same(x, y), trial
        sizes.add(len(tree.assignment.closure(step, tree.assignment.machine_init(s), 0)[0]) > 20)
    assert sizes == {True, False}


def test_policy_values_match_the_per_node_layout():
    rng = np.random.default_rng(3004)
    solved = set()
    for trial in range(320):
        kind, time = KINDS[trial % 4], trial // 4 % 2 == 0
        k = int(rng.integers(2, 5 if kind != "selection" else 4))
        tree = tree_of_kind(rng, k, kind)
        targets = sorted({int(y) for y in rng.integers(0, k, size=int(rng.integers(1, k)))})
        v = (hitting_time_variable if time else hitting_event_variable)(tree.state_space, targets)
        a = v.automaton
        s = tuple(int(y) for y in rng.integers(0, k, size=int(rng.integers(0, 3))))
        q = 0
        for y in s:
            q = int(a.step[q, y])
        trans, q_of, points = ref_closure(tree, a.step, q, s)
        reward = a.reward.take(q_of, axis=0)
        sides = ref_sides(trans, q_of, points, time)
        node_last = engine._closure(tree, a.step, q, s)[2]
        assert same(node_last, np.ascontiguousarray(points.transpose(2, 1, 0)))
        # The policy solve alone, on the reference's sides, allowed points transposed.
        args = [tuple(part.copy() for part in side) for side in sides]
        want = ref_policy_values(points, trans, reward, args)
        moved = [(u, f.copy(), allowed.T, c.copy()) for u, f, allowed, c in sides]
        assert same(engine._policy_values(node_last, trans, reward, moved), want), trial
        # And the whole solve, graph pass included.
        got = engine._hitting_values(trans, q_of, node_last, reward, time)
        assert same(np.concatenate(got), want), trial
        solved.add((time, bool(np.concatenate([side[0] for side in sides]).any())))
    assert solved == set(itertools.product((True, False), repeat=2))
