"""Every name a module of the package or of its tests imports is used in that
module, and every top-level definition of the package is read somewhere.

A stdlib-only stand-in for a linter's unused-import rule: a name bound by an
import statement, at any scope, must appear as a name somewhere else in the
module's syntax tree.  A top-level function or class must be read, as a name
or an attribute, somewhere in the package or in perfbench/ outside its own
definition.
"""

import ast
from collections import Counter
from pathlib import Path

import dimfock

PACKAGE = Path(dimfock.__file__).parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

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
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
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


# (module, name) -> why the definition stays although nothing reads it
KEPT_DEFINITIONS = {
    ("fock", "state_add"): "the tests' oracle for summing states",
    ("rmatrix_tables", "eigen_block_level1_n2"): "reference table of test_level1_two_boson_corner",
}


def _read_counts(node):
    """How often each name is read in node, as a Name or an Attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unread_definitions(package, readers=()):
    """(module, name) of each top-level function or class of the package
    modules ({module: tree}) that no tree of the package or of readers reads
    outside the definition itself."""
    total = Counter()
    for tree in [*package.values(), *readers]:
        total.update(_read_counts(tree))
    return {
        (stem, node.name)
        for stem, tree in package.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and total[node.name] == _read_counts(node)[node.name]
    }


def _package_unread_definitions():
    package = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    readers = [ast.parse(path.read_text()) for path in PERFBENCH.glob("*.py")]
    assert readers, PERFBENCH
    return _unread_definitions(package, readers)


def test_no_unread_definitions():
    assert sorted(_package_unread_definitions() - set(KEPT_DEFINITIONS)) == []


def test_kept_definitions_are_still_unread():
    # an exception that the code has started to read again is no longer one
    assert set(KEPT_DEFINITIONS) <= _package_unread_definitions()


def test_checker_flags_an_unread_definition():
    package = {
        "a": ast.parse(
            "def f():\n    pass\n\n"
            "def g(n):\n    return g(n - 1)\n\n"
            "def h():\n    pass\n\n"
            "class C:\n    pass\n"
        ),
        "b": ast.parse("from a import f\n\ndef k():\n    return f()\n"),
    }
    reader = ast.parse("import a, b\na.h()\nb.k()\n")
    assert _unread_definitions(package, [reader]) == {("a", "g"), ("a", "C")}
    assert _unread_definitions(package) == {("a", "g"), ("a", "h"), ("a", "C"), ("b", "k")}
