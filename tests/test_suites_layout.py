"""``iptree.suites`` holds only what a caller outside the tests uses.

The product module keeps the batteries ``iptree check`` runs and what they,
``bench/table.py`` and the demos share; the property suites that only the
tests run live in ``tests/property_suites.py``.  Starting from the names the
command line, the benchmark table and the demos import from
``iptree.suites``, the names each top-level definition refers to are followed
through the module, and every public top-level name must be reached.  The
files are parsed, not imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_from_suites(path: Path) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "iptree.suites" or (node.level == 1 and node.module == "suites"))
        for alias in node.names
    }


def _definitions(path: Path) -> dict[str, ast.AST]:
    """Each top-level name the module defines, with its defining statement."""
    defined = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update((name.id, node) for name in ast.walk(target) if isinstance(name, ast.Name))
    return defined


def test_every_public_name_serves_a_product_caller():
    callers = [ROOT / "src" / "iptree" / "cli.py", ROOT / "bench" / "table.py", *sorted(ROOT.glob("demos/*.py"))]
    roots = set().union(*map(_imported_from_suites, callers))
    defined = _definitions(ROOT / "src" / "iptree" / "suites.py")
    assert {"model_axiom_suites", "model_oracle_suite"} <= roots <= defined.keys()
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name) and n.id in defined]
    assert sorted(name for name in defined.keys() - reached if not name.startswith("_")) == []
