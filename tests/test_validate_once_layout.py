"""Each job of the value layer has one spelling, and the checks take no tolerance.

A value stores read-only arrays, and a value derived from a checked one is
adopted without checking it again.  Both go through one helper each in
``iptree.extreal``: ``_frozen`` is the only place that sets
``flags.writeable``, and ``_derived`` the only place that calls
``object.__new__``.  The cross-checks read their module tolerance at call
time (``VERIFY_TOL``, ``HULL_TOL``, ``AXIOM_TOL``, ``ORACLE_TOL``) instead of
taking a ``tol``, and ``compile_gamble`` tabulates at the inferred depth,
with its cap a keyword.  The files are parsed, not imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "iptree"

#: The checks that read a module tolerance, by module.
CHECKS = {
    "supermartingale": ("verify", "certified_upper_bound"),
    "tree": ("in_convex_hull", "is_compatible"),
    "local": ("check_coherence_axioms", "_coherence_axioms"),
    "suites": ("model_oracle_suite",),
}


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _places(predicate) -> list[str]:
    """``module.function`` (or ``module`` at top level) of every node of
    ``src/iptree`` for which ``predicate`` holds."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for top in tree.body:
            for node in ast.walk(top):
                owner[node] = f"{path.stem}.{top.name}" if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else path.stem
        found += [owner[node] for node in ast.walk(tree) if predicate(node)]
    return found


def _sets_writeable(node) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AugAssign) else []
    return any(
        isinstance(t, ast.Attribute) and t.attr == "writeable"
        and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
        for t in targets
    )


def _calls_object_new(node) -> bool:
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
    )


def test_one_freeze_helper():
    assert _places(_sets_writeable) == ["extreal._frozen"]


def test_one_unchecked_constructor():
    assert _places(_calls_object_new) == ["extreal._derived"]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in CHECKS.items() for n in names])
def test_checks_take_no_tolerance(module, name):
    args = _functions(module)[name].args
    assert "tol" not in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def test_compile_gamble_has_no_depth_and_a_keyword_cap():
    args = _functions("expr")["compile_gamble"].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["expr"]
    assert [a.arg for a in args.kwonlyargs] == ["cap"]
