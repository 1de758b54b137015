"""Every name a module of the package or of its tests imports is used in that
module, every top-level definition of the package is read somewhere, every
default of the package is overridden somewhere, the package's module-level
imports form no cycle, and each import inside a function would close one.

A stdlib-only stand-in for a linter's unused-import rule: a name bound by an
import statement, at any scope, must appear as a name somewhere else in the
module's syntax tree.  A top-level function or class must be read, as a name
or an attribute, somewhere in the package or in perfbench/ outside its own
definition.  A parameter with a default must be passed by some call in the
package, the tests or perfbench/; one that never is holds a single value
and is a constant in disguise.
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


def _defaulted_parameters(package):
    """{(module, function, parameter): (callee names, positional index)} for
    each parameter with a default of a function or method of the package
    modules ({module: tree}); the index is None for a keyword-only one.

    A method is called on its instance, so its first parameter takes no
    position; __init__ is called by its class's name.
    """
    out = {}
    for stem, tree in package.items():
        owner = {
            item: node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            cls = owner.get(node)
            names, qualname = [node.name], node.name
            if cls is not None:
                qualname = "%s.%s" % (cls.name, node.name)
                if not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
                    positional = positional[1:]
                if node.name == "__init__":
                    names.append(cls.name)
            first = len(positional) - len(args.defaults)
            for pos, arg in enumerate(positional[first:], first):
                out[(stem, qualname, arg.arg)] = (names, pos)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[(stem, qualname, arg.arg)] = (names, None)
    return out


def _callee(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(trees):
    """{callee name: [(positional count, keyword names, passes everything)]}
    over the calls in the trees; partial(f, ...) is a call of f, and a call
    with *args or **kwargs passes everything."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            star = any(isinstance(a, ast.Starred) for a in args)
            star = star or any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append((len(args), {k.arg for k in node.keywords}, star))
    return out


def _unpassed_defaults(package, readers=()):
    """(module, function, parameter) of each defaulted parameter of the
    package that no call in the package or in readers passes."""
    calls = _calls([*package.values(), *readers])
    return {
        key
        for key, (names, pos) in _defaulted_parameters(package).items()
        if not any(
            star or key[2] in keywords or (pos is not None and n_pos > pos)
            for name in names
            for n_pos, keywords, star in calls.get(name, [])
        )
    }


def test_every_default_is_passed():
    package = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    paths = [*TESTS.glob("*.py"), *PERFBENCH.glob("*.py")]
    readers = [ast.parse(path.read_text()) for path in paths]
    assert sorted(_unpassed_defaults(package, readers)) == []


def test_checker_flags_an_unpassed_default():
    package = {
        "a": ast.parse(
            "def f(x, y=1, *, z=2):\n    pass\n\n"
            "def g(x=1):\n    pass\n\n"
            "def h(x=1):\n    pass\n\n"
            "class C:\n"
            "    def __init__(self, a=1):\n        pass\n\n"
            "    def m(self, b=1, c=2):\n        pass\n"
        ),
    }
    reader = ast.parse(
        "from functools import partial\nimport a\n"
        "a.f(0, 1)\npartial(a.g, 2)\na.h(*())\na.C(1).m(c=3)\n"
    )
    assert _unpassed_defaults(package, [reader]) == {("a", "f", "z"), ("a", "C.m", "b")}
    assert _unpassed_defaults(package) == {
        ("a", "f", "y"),
        ("a", "f", "z"),
        ("a", "g", "x"),
        ("a", "h", "x"),
        ("a", "C.__init__", "a"),
        ("a", "C.m", "b"),
        ("a", "C.m", "c"),
    }


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _relative_targets(node):
    """The modules a relative import statement names."""
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def _module_level_imports(tree, modules):
    """The package modules (names in modules) that tree imports relatively
    while it is imported itself: the imports outside function bodies.  A
    function-local import, as nekrasov uses to break a cycle, runs only
    when the function is called."""
    out = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= _relative_targets(node)
        stack.extend(ast.iter_child_nodes(node))
    return out & set(modules)


def _function_local_imports(tree, modules):
    """(module, line) of each package module (names in modules) that tree
    imports relatively inside a function body."""
    return {
        (target, node.lineno)
        for func in ast.walk(tree)
        if isinstance(func, FUNCTIONS)
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for target in _relative_targets(node) & set(modules)
    }


def _import_cycle(graph):
    """A cycle [a, b, ..., a] of the graph {module: modules it imports}, or None."""
    state = {}

    def visit(path):
        state[path[-1]] = "open"
        for nxt in sorted(graph[path[-1]]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(path + [nxt])
                if found:
                    return found
        state[path[-1]] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            found = visit([module])
            if found:
                return found
    return None


def _import_graph(trees):
    return {stem: _module_level_imports(tree, trees) for stem, tree in trees.items()}


def test_module_level_imports_are_acyclic():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    graph = _import_graph(trees)
    assert {"fock", "linalg"} <= graph["symfunc"] and "symfunc" in graph["genmac"]
    assert _import_cycle(graph) is None


def test_function_local_imports_close_a_cycle():
    # an import that a function defers without breaking a cycle belongs at
    # module level; the module-level graph is acyclic, so a cycle after the
    # edge is added runs through it
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    graph = _import_graph(trees)
    found = [
        "%s.py:%d %s" % (stem, line, target)
        for stem, tree in sorted(trees.items())
        for target, line in sorted(_function_local_imports(tree, trees))
        if _import_cycle({**graph, stem: graph[stem] | {target}}) is None
    ]
    assert found == []


def test_checker_flags_an_import_cycle():
    trees = {
        "a": ast.parse("from . import b\nfrom .c import x\n"),
        "b": ast.parse("import os\n\ndef f():\n    from .a import y\n"),
        "c": ast.parse("try:\n    from .d.e import z\nexcept ImportError:\n    pass\n"),
        "d": ast.parse("class K:\n    from . import a\n"),
    }
    graph = _import_graph(trees)
    assert graph == {"a": {"b", "c"}, "b": set(), "c": {"d"}, "d": {"a"}}
    assert _function_local_imports(trees["b"], trees) == {("a", 4)}
    assert _function_local_imports(trees["d"], trees) == set()
    assert _import_cycle(graph) == ["a", "c", "d", "a"]
    graph["d"] = set()
    assert _import_cycle(graph) is None
