#!/usr/bin/env python3
"""Hitting times and probabilities as monotone limits.

Payoffs that depend on the whole infinite path are handled through monotone
sequences of finite-horizon payoffs.  Truncated hitting times grow with the
horizon and their values converge; value iteration runs until the values
stabilize and reports the full history.  For hitting times and hitting
probabilities the limit can also be solved exactly on the finite set of
(tree state, automaton state) nodes, which limit_bounds does.
"""

import numpy as np

from iptree import (
    CredalSet,
    Hitting,
    Homogeneous,
    ImpreciseTree,
    Policy,
    StateSpace,
    hitting_event_variable,
    hitting_time_variable,
    limit_bounds,
    limit_lower,
    limit_upper,
    upper_probability,
)
from iptree.suites import degenerate_tree

space = StateSpace(("H", "T"))
coin = ImpreciseTree(space, Homogeneous(CredalSet(np.array([[0.4, 0.6], [0.6, 0.4]]))))

# Time of the first tails, with the tails chance anywhere in [0.4, 0.6].
tau = hitting_time_variable(space, ["T"])
policy = Policy(tol=1e-12, max_horizon=100)

up = limit_upper(coin, tau, (), policy)
lo = limit_lower(coin, tau, (), policy)
print("upper expected hitting time:", up.value)   # 1/0.4 = 2.5
print("lower expected hitting time:", lo.value)   # 1/0.6 = 1.666...
print("first upper iterates:", [v for _, v in up.iterates[:6]])
print("stopped because:", up.stop_reason.value, "after", len(up.iterates), "horizons")

# The same limits solved on the closure: exact, with a short audited trail.
solved_up, solved_lo = limit_bounds(coin, tau)
print("\nsolved upper / lower:", solved_up.value, solved_lo.value, f"({solved_up.stop_reason.value})")
print("audit trail:", [v for _, v in solved_up.iterates])

# A chain that hits T with chance in [0.01, 0.03]: value iteration capped at
# 100 horizons stops far below the limit, the solve gives 100 and 100/3.
slow = ImpreciseTree(space, Homogeneous(CredalSet(np.array([[0.99, 0.01], [0.97, 0.03]]))))
capped = limit_upper(slow, tau, (), policy)
print("\nslow chain, value iteration:", capped.value, f"({capped.stop_reason.value})")
print("slow chain, solved:", [r.value for r in limit_bounds(slow, tau, (), policy)])

# The chance of ever seeing tails tends to 1 from both sides.
hit = upper_probability(coin, Hitting(("T",)), (), policy)
print("\nupper probability of ever hitting T:", hit.value)
print("first iterates:", [round(v, 4) for _, v in hit.iterates[:5]])

# A process that surely stays in H: every finite horizon gives 0 for the
# chance of leaving, and the limit honors those zeros instead of jumping.
stuck = degenerate_tree(space, "H")
res = upper_probability(stuck, Hitting(("T",)), (), Policy(tol=1e-12, max_horizon=30))
print("\nsure-state process, upper probability of ever leaving:", res.value)
print("converged:", res.converged, "| iterates all zero:", all(v == 0.0 for _, v in res.iterates))
# Solved, the time of leaving is +inf and the chance 0, both exactly.
print("solved time of leaving:", [r.value for r in limit_bounds(stuck, tau)])
print("solved chance of leaving:", [r.value for r in limit_bounds(stuck, hitting_event_variable(space, ["T"]))])
