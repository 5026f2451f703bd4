"""A fresh interpreter runs the command line without SciPy.

SciPy is imported in two function bodies only: the hull LP of
``tree.in_convex_hull`` and the sparse solve of ``engine._policy_values``
for closures of more than ``engine._DENSE_SOLVE`` unknown nodes.  So
importing the package and running ``eval`` and every ``check`` battery on
the demo coin loads no ``scipy.optimize`` or ``scipy.sparse`` module, and
the two functions still load what they need on their first call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import io, json, sys
from contextlib import redirect_stdout

import iptree, iptree.cli

COIN = "demos/data/imprecise_coin.json"
RUNS = [
    ["eval", "--model", COIN, "--query", "demos/data/queries.json"],
    ["check", "--model", COIN, "cert", "demos/data/cert_two_heads.json", "--expr", "ind(X[1]==H && X[2]==H)"],
    ["check", "--model", COIN, "oracle", "--trials", "5"],
    ["check", "--model", COIN, "axioms", "--trials", "5"],
]
codes = []
for argv in RUNS:
    with redirect_stdout(io.StringIO()):
        codes.append(iptree.cli.main(argv))


def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.sparse")))


after_cli = loaded()

import numpy as np
from iptree import engine
from iptree.gambles import hitting_time_variable
from iptree.suites import random_credal, random_space
from iptree.tree import ImpreciseTree, Table, all_situations

# As in test_solver.py: 364 situations avoid the target, each an unknown node.
rng = np.random.default_rng(11)
space = random_space(4)
entries = {s: random_credal(rng, 4) for s in all_situations(4, 5)}
tree = ImpreciseTree(space, Table(5, entries, random_credal(rng, 4)))
v = hitting_time_variable(space, [0])
sparse = [r.value for r in engine.limit_bounds(tree, v)]
after_solve = loaded()
engine._DENSE_SOLVE = 10**6
dense = [r.value for r in engine.limit_bounds(tree, v)]

from iptree.tree import in_convex_hull

square = [[0.4, 0.6], [0.6, 0.4]]
hull = [in_convex_hull([0.5, 0.5], square), in_convex_hull([0.7, 0.3], square)]
after_hull = loaded()

print(json.dumps({
    "codes": codes, "after_cli": after_cli, "hull": hull, "after_hull": after_hull,
    "sparse": sparse, "dense": dense, "after_solve": after_solve,
}))
"""


def test_cli_runs_without_scipy_and_the_two_users_still_load_it():
    env = {k: v for k, v in os.environ.items() if not k.startswith("IPTREE_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["after_cli"] == []
    for a, b in zip(result["sparse"], result["dense"]):
        assert abs(a - b) <= 1e-12 * abs(b)
    assert "scipy.sparse.linalg" in result["after_solve"]
    assert not any(m.startswith("scipy.optimize") for m in result["after_solve"])
    assert result["hull"] == [True, False]
    assert "scipy.optimize" in result["after_hull"]
