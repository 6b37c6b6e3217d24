"""Import and parameter hygiene of the library, read off the syntax tree of
each module: every name a module imports is used in it (or exported through
`__all__`), no function imports again from a module the file already
imports at its top level (such an import breaks no cycle, it only hides a
dependency), and every parameter of a `def` is read in its body.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gammaspace"
MODULES = sorted(SRC.glob("*.py"))


def _source(node: ast.stmt):
    """The module an import statement reads from, as written."""
    if isinstance(node, ast.ImportFrom):
        return "." * node.level + (node.module or "")
    return None


def _imported(node):
    """(bound name, module) for each name an import statement binds."""
    if isinstance(node, ast.Import):
        return [((a.asname or a.name).split(".")[0], a.name) for a in node.names]
    src = _source(node)
    if src == ".":
        return [(a.asname or a.name, "." + a.name) for a in node.names]
    return [(a.asname or a.name, src) for a in node.names]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str):
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return sorted(
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _source(node) != "__future__"
        for name, _ in _imported(node)
        if name not in used
    )


def repeated_local_imports(source: str):
    """Imports inside a function from a module the file imports at top level."""
    tree = ast.parse(source)
    top = {
        module
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for _, module in _imported(node)
    }
    return sorted(
        (node.lineno, module)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for _, module in _imported(node)
        if module in top
    )


def unused_parameters(source: str):
    """(line, function, parameter) for each parameter of a `def` that its
    body never reads.  `self`, `cls` and names starting with `_` are
    exempt, and so are lambdas."""
    tree = ast.parse(source)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                  if x is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out += [(fn.lineno, fn.name, p) for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return sorted(out)


def test_checks_catch_what_they_name():
    source = (
        "from .simplicial import SimpMap, product\n"
        "from . import corpus\n"
        "import json\n"
        "def f():\n"
        "    from .simplicial import identity_map\n"
        "    from .nerve import tau1\n"
        "    return product, identity_map, tau1\n"
    )
    assert unused_imports(source) == ["SimpMap", "corpus", "json"]
    assert repeated_local_imports(source) == [(5, ".simplicial")]


def test_parameter_check_catches_what_it_names():
    source = (
        "class A:\n"
        "    def f(self, x, y, _z, *args, key=None, **kw):\n"
        "        g = lambda unused: x\n"
        "        def inner(w):\n"
        "            return key\n"
        "        return g, inner, kw\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        return n\n"
    )
    assert unused_parameters(source) == [
        (2, "f", "args"), (2, "f", "y"), (4, "inner", "w")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_import_of_an_imported_module(path):
    assert repeated_local_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []
