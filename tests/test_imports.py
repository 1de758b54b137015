"""Every name a module of the package imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: a name bound by an
import statement, at any scope, must appear as a name somewhere else in the
module's syntax tree.
"""

import ast
from pathlib import Path

import dimfock

PACKAGE = Path(dimfock.__file__).parent

# (module, name) -> why the import stays although the module never reads it
KEPT = {
    ("kacdet", "bra_apply"): "perfbench's rebinding test reads kacdet.bra_apply",
}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _unused_imports(ast.parse(path.read_text())).items():
            if (path.stem, name) not in KEPT:
                found.append("%s.py:%d %s" % (path.stem, line, name))
    assert found == []


def test_kept_imports_are_still_unused():
    # an exception that the module has started to use again is no longer one
    for stem, name in KEPT:
        tree = ast.parse((PACKAGE / (stem + ".py")).read_text())
        assert name in _unused_imports(tree), (stem, name)


def test_checker_flags_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\ndef f():\n    import e\n    return a\n")
    assert set(_unused_imports(tree)) == {"b", "c", "e"}
