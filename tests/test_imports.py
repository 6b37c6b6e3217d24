"""Import and parameter hygiene of the library, read off the syntax tree of
each module: every name a module imports is used in it (or exported through
`__all__`), no function imports again from a module the file already
imports at its top level (such an import breaks no cycle, it only hides a
dependency), every parameter of a `def` is read in its body, every
top-level `def`, `class` and assigned name of the library is read
somewhere in `src/`, `tests/` or `bench/`, `.validate(...)` is called
only where data enters or where a verdict rests on the check, a based
map's table is checked by `gammaop.based_map` only where it enters,
verdicts are combined only by `verdicts.conjoin` and `verdicts.negate`,
composites of maps are compared only by `simplicial.commutes`,
a set's truncation (`.complete`, `top_dim()`) is read only in
`simplicial`, whose `joint_bound` and `map_cap` state the ranges, and a
category's arrows are scanned pairwise only where its table is built.
"""

import ast
import itertools
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gammaspace"
MODULES = sorted(SRC.glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
# "module:qualname", the form in which the benchmark's tracer names what it wraps
_BINDING = re.compile(r"\w+:([\w.]+)")


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


def _reads(node):
    """Names read under node: loaded names, attributes, and the parts of a
    "module:qualname" string.  Importing a name does not read it."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            binding = _BINDING.fullmatch(n.value)
            out.update(binding.group(1).split(".") if binding else ())
    return out


def _defined(node):
    """The names a top-level statement defines: a `def` or `class`, or the
    plain names an assignment binds, dunder names left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not (t.id.startswith("__") and t.id.endswith("__"))]


def dead_definitions(modules, readers):
    """(module, name) for each top-level `def`, `class` or assigned name of
    the sources in `modules` that no source in `readers` reads.  Both map a
    module name to its source; a definition's reads of its own name do not
    count."""
    reads = {name: [_reads(stmt) for stmt in ast.parse(src).body]
             for name, src in readers.items()}
    return sorted(
        (module, name)
        for module, src in modules.items()
        for i, node in enumerate(ast.parse(src).body)
        for name in _defined(node)
        if not any(name in r for reader, stmts in reads.items()
                   for k, r in enumerate(stmts) if (reader, k) != (module, i))
    )


def sites(source: str, hit):
    """The qualified name of the function or method around each node that
    `hit` accepts, one entry per node, sorted; "<module>" for a node outside
    any."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                out.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(out)


def call_sites(source: str, wanted):
    """The sites (see `sites`) of the calls whose callee expression `wanted`
    accepts."""
    return sites(source, lambda node: isinstance(node, ast.Call) and wanted(node.func))


def validate_calls(source: str):
    """The sites of the `.validate(...)` calls (see `call_sites`)."""
    return call_sites(source, lambda f: isinstance(f, ast.Attribute) and f.attr == "validate")


def _is_status_test(node):
    """`.holds` or `.fails` read off a value, or `.status` compared."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("holds", "fails")
    return isinstance(node, ast.Compare) and any(
        isinstance(x, ast.Attribute) and x.attr == "status"
        for x in [node.left, *node.comparators])


def status_tests(source: str):
    """The sites (see `sites`) where a verdict's status is tested."""
    return sites(source, _is_status_test)


def _is_composite_comparison(node):
    """`==` or `!=` with a `.then(...)` call on either side."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(
        isinstance(op, (ast.Eq, ast.NotEq)) and any(
            isinstance(x, ast.Call) and isinstance(x.func, ast.Attribute)
            and x.func.attr == "then" for x in pair)
        for op, pair in zip(node.ops, zip(operands, operands[1:])))


def composite_comparisons(source: str):
    """The sites (see `sites`) where a composite built by `then` is
    compared for equality."""
    return sites(source, _is_composite_comparison)


def _reads_truncation(node):
    """`.complete` read off a value, or `.top_dim` named."""
    return isinstance(node, ast.Attribute) and (
        node.attr == "top_dim" or node.attr == "complete" and isinstance(node.ctx, ast.Load))


def truncation_reads(source: str):
    """The sites (see `sites`) where a set's truncation is read."""
    return sites(source, _reads_truncation)


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loop_iterables(node):
    """The iterables of the loops a `for` statement or a comprehension opens."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, _COMPREHENSIONS):
        return [g.iter for g in node.generators]
    return []


def _is_arrow_pair_scan(node):
    """A loop over arrows (an iterable that reads `arrows` or `arrow_ids`)
    with a loop over the same iterable nested in it: a `for` statement
    with one in its body, or a comprehension with two such clauses."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        pairs = [(node.iter, it) for stmt in node.body for n in ast.walk(stmt)
                 for it in _loop_iterables(n)]
    else:
        pairs = itertools.combinations(_loop_iterables(node), 2)
    return any({"arrows", "arrow_ids"} & _reads(outer) and ast.dump(outer) == ast.dump(inner)
               for outer, inner in pairs)


def arrow_pair_scans(source: str):
    """The sites (see `sites`) of the nested loops over one collection of
    arrows."""
    return sites(source, _is_arrow_pair_scan)


def calls_naming(source: str, name: str):
    """The sites of the calls whose callee reads `name`: `name(...)`,
    `mod.name(...)` or `name.method(...)` (see `call_sites`)."""
    return call_sites(source, lambda f: name in _reads(f))


# The library's `.validate(...)` calls, by (module, function): the loaders
# check what enters (`tabulated_from_json` checks each listed map as it is
# read, then only the laws of the action it completes, by
# `TabulatedGammaSpace.check_laws`); `from_elements` checks the tables it
# is handed; the tau1 certificate decides by validating (`catcore.functors`
# checks each composite as its last arrow is drawn, and validates nothing);
# the validators of the diagram types check their parts; and two verdicts
# rest on a check.  Constructions trust their valid inputs, and
# tests/conftest.py validates every set and category tier-1 builds.
KEPT_VALIDATE_CALLS = {
    ("jsonio", "simpset_from_json"): 1,
    ("jsonio", "simpmap_from_json"): 1,
    ("jsonio", "category_from_json"): 1,
    ("jsonio", "relative_input_from_json"): 1,
    ("jsonio", "over_object_from_json"): 1,
    ("simplicial", "from_elements"): 1,
    ("nerve", "_tau1_full"): 1,
    ("nerve", "tau1_functor"): 1,
    ("gspace", "TabulatedGammaSpace.validate"): 1,
    ("gspace", "GammaSpaceMap.validate"): 1,
    ("marked", "MarkedGammaSpace.validate"): 1,
    ("cocart", "RelativeNerveInput.validate"): 1,
    ("cocart", "OverObject.validate"): 1,
    ("gspace", "_levelwise_iso_verdict"): 1,
    ("gspace", "semiadditivity_probe"): 3,
}


# The tests of a verdict's status outside `verdicts.py`, by (module,
# function).  Verdicts are combined by `verdicts.conjoin` (Kleene's strong
# conjunction) and `verdicts.negate`, so that a spent budget is never read as
# a refutation; `_is_nerve_like` only picks the tier a Segal check reports.
KEPT_STATUS_TESTS = {
    ("gspace", "_is_nerve_like"): 1,
}


# The equality tests of a composite built by `.then(...)`, by (module,
# function).  Composites of simplicial maps are compared by
# `simplicial.commutes`, cell by cell and with no composite built;
# `cmd_factorize` compares based maps.
KEPT_COMPOSITE_COMPARISONS = {
    ("cli", "cmd_factorize"): 1,
}


# The reads of a set's truncation outside `simplicial.py`, by (module,
# function).  Sets read together are compared on `simplicial.joint_bound`
# and maps are defined up to `simplicial.map_cap`; `simpset_to_json` writes
# the flag out.
KEPT_TRUNCATION_READS = {
    ("jsonio", "simpset_to_json"): 1,
}


# The nested loops over one category's arrows, by (module, function).  A
# `FinCat`'s table has one entry per composable pair, so its pairs are read
# off `compose_table` and a pair is extended through `FinCat.out_of`; these
# constructions build the table before the category exists.
KEPT_ARROW_PAIR_SCANS = {
    ("catcore", "functor_category"): 1,
    ("catcore", "coslice_category"): 1,
}


# The `gammaop.based_map(...)` calls, by (module, function): a based map's
# table is checked where it enters, from the command line, from JSON or
# from an arrow name of the based-set category; every other construction
# builds a `GammaMorphism` from valid parts and trusts it.
KEPT_BASED_MAP_CALLS = {
    ("cli", "cmd_factorize"): 1,
    ("jsonio", "gamma_morphism_from_json"): 1,
    ("cocart", "gamma_arrow_of_name"): 1,
}


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


def test_dead_definition_check_catches_what_it_names():
    lib = (
        "__version__ = '1'\n"
        "CAP = 4\n"
        "LIMIT: int = 8\n"
        "UNREAD = CAP\n"
        "def used():\n"
        "    return LIMIT\n"
        "def recursive():\n"
        "    return recursive()\n"
        "class Wrapped:\n"
        "    pass\n"
        "def _helper():\n"
        "    return used()\n"
    )
    reader = (
        '"""_helper is named here, in a docstring only."""\n'
        "from lib import used, recursive\n"
        "TIMED = ['lib:Wrapped.__init__']\n"
        "x = used\n"
    )
    assert dead_definitions({"lib": lib}, {"lib": lib, "reader": reader}) == [
        ("lib", "UNREAD"), ("lib", "_helper"), ("lib", "recursive")]


def test_no_dead_definitions():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS}
    library = {name: src for name, src in sources.items()
               if name.startswith("src/gammaspace/")}
    assert len(library) == len(MODULES)
    assert dead_definitions(library, sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_import_of_an_imported_module(path):
    assert repeated_local_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_validate_call_check_catches_what_it_names():
    source = (
        "x = make().validate()\n"
        "def build(a):\n"
        "    return Set(a).validate()\n"
        "class Diagram:\n"
        "    def validate(self):\n"
        "        self.part.validate(check_pointed=False)\n"
        "        def inner():\n"
        "            return validate(self)\n"
        "        return inner\n"
    )
    assert validate_calls(source) == ["<module>", "Diagram.validate", "build"]


def test_validate_runs_only_where_data_enters():
    found = Counter((p.stem, name) for p in MODULES for name in validate_calls(p.read_text()))
    assert found == Counter(KEPT_VALIDATE_CALLS)


def test_status_test_check_catches_what_it_names():
    source = (
        "ok = all(f(o).holds for o in objects)\n"
        "def law():\n"
        "    v = check()\n"
        "    if not v.holds:\n"
        "        return v\n"
        "    return v.fails or w.status != HOLDS\n"
        "class Routes:\n"
        "    def agree(self, a, b):\n"
        "        return a.status == b.status\n"
        "    def report(self, v):\n"
        "        return {'status': v.status, 'holds': HOLDS, 'all': e['status'] == HOLDS}\n"
    )
    assert status_tests(source) == ["<module>", "Routes.agree", "law", "law", "law"]


def test_verdicts_are_combined_only_in_verdicts():
    found = Counter((p.stem, name) for p in MODULES if p.stem != "verdicts"
                    for name in status_tests(p.read_text()))
    assert found == Counter(KEPT_STATUS_TESTS)


def test_composite_comparison_check_catches_what_it_names():
    source = (
        "ok = f.then(g) == h\n"
        "def law(a, b, c):\n"
        "    same = a.then(b)\n"
        "    return same == c, c != a.then(b), a.then(b) is c, a < b.then(c)\n"
        "class Square:\n"
        "    def agree(self, p, q):\n"
        "        return p == q, then(p) == q, p.then == q, x == p.then(q).key()\n"
        "    def chained(self, p, q):\n"
        "        return p < q == q.then(p)\n"
    )
    assert composite_comparisons(source) == ["<module>", "Square.chained", "law"]


def test_composites_are_compared_only_by_commutes():
    found = Counter((p.stem, name) for p in MODULES
                    for name in composite_comparisons(p.read_text()))
    assert found == Counter(KEPT_COMPOSITE_COMPARISONS)


def test_truncation_read_check_catches_what_it_names():
    source = (
        "top = x.top_dim()\n"
        "def bound(a, b, complete=True):\n"
        "    a.complete = complete\n"
        "    return max(a.top_dim(), key=b.top_dim), b.complete\n"
        "class Writer:\n"
        "    def write(self, x):\n"
        "        return {'complete': x.complete, 'dim_bound': x.dim_bound}\n"
    )
    assert truncation_reads(source) == ["<module>", "Writer.write", "bound", "bound", "bound"]


def test_truncation_is_read_only_in_simplicial():
    found = Counter((p.stem, name) for p in MODULES if p.stem != "simplicial"
                    for name in truncation_reads(p.read_text()))
    assert found == Counter(KEPT_TRUNCATION_READS)


def test_arrow_pair_scan_check_catches_what_it_names():
    source = (
        "pairs = [(g, f) for g in c.arrow_ids() for f in c.arrow_ids()]\n"
        "def table(arrows, objects):\n"
        "    for g in arrows:\n"
        "        for f, ends in arrows.items():\n"
        "            for h in arrows:\n"
        "                pass\n"
        "    return [(a, b) for a in objects for b in objects]\n"
        "class Product:\n"
        "    def pairs(self, c, d):\n"
        "        return [(f, g) for f in c.arrows for g in d.arrows]\n"
        "    def chains(self, c, chains):\n"
        "        return [ch + (g,) for ch in chains for g in c.out_of(ch[-1])]\n"
    )
    assert arrow_pair_scans(source) == ["<module>", "table"]


def test_arrow_pairs_are_read_off_the_table():
    found = Counter((p.stem, name) for p in MODULES for name in arrow_pair_scans(p.read_text()))
    assert found == Counter(KEPT_ARROW_PAIR_SCANS)


def test_call_site_check_catches_what_it_names():
    source = (
        "from .gammaop import GammaMorphism, based_map\n"
        "f = GammaMorphism(1, 1, (1,))\n"
        "def load(data):\n"
        "    return based_map(data[0], data[1], tuple(data[2]))\n"
        "class Reader:\n"
        "    def read(self, key):\n"
        "        return gammaop.GammaMorphism._make(key), self.based_map\n"
    )
    assert calls_naming(source, "GammaMorphism") == ["<module>", "Reader.read"]
    assert calls_naming(source, "based_map") == ["load"]


def test_based_maps_are_checked_only_where_tables_enter():
    found = Counter((p.stem, name) for p in MODULES
                    for name in calls_naming(p.read_text(), "based_map"))
    assert found == Counter(KEPT_BASED_MAP_CALLS)


@pytest.mark.parametrize("module", ["jsonio", "cli"])
def test_loaders_build_based_maps_only_through_the_check(module):
    assert calls_naming((SRC / f"{module}.py").read_text(), "GammaMorphism") == []
