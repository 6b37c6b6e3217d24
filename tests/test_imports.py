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
category's arrows are scanned pairwise only where its table is built,
a name made of parts is joined only by `nerve.joined_name`, every memo
of the library is bounded, a defaulted parameter that some call in
`src/` or `bench/` reaches is passed by at least one such call, and a
definition that no file in `src/` or `bench/` names is kept for a stated
reason.
"""

import ast
import itertools
import pathlib
import re
from collections import Counter

import pytest

from gammaspace.cli import COMMANDS

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


def _scoped(source: str, hit):
    """(scope, node) for each node that `hit` accepts: the names of the
    functions and classes around it, outermost first."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                out.append((scope, child))
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def sites(source: str, hit):
    """The qualified name of the function or method around each node that
    `hit` accepts, one entry per node, sorted; "<module>" for a node outside
    any."""
    return sorted(".".join(scope) or "<module>" for scope, _ in _scoped(source, hit))


def call_sites(source: str, wanted):
    """The sites (see `sites`) of the calls whose callee expression `wanted`
    accepts."""
    return sites(source, lambda node: isinstance(node, ast.Call) and wanted(node.func))


def validate_calls(source: str):
    """The sites of the `.validate(...)` calls (see `call_sites`)."""
    return call_sites(source, lambda f: isinstance(f, ast.Attribute) and f.attr == "validate")


def _is_status_test(node):
    """`.holds` read off a value, or `.status` compared."""
    if isinstance(node, ast.Attribute):
        return node.attr == "holds"
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


def literal_joins(source: str):
    """The sites (see `call_sites`) of the `.join(...)` calls on a string
    literal."""
    return call_sites(source, lambda f: isinstance(f, ast.Attribute) and f.attr == "join"
                      and isinstance(f.value, ast.Constant) and isinstance(f.value.value, str))


def unbounded_memos(source: str):
    """The sites (see `sites`) of the memos that may grow without bound: an
    `lru_cache` whose maxsize is None, and a `cache`, which keeps one entry
    per argument tuple, anywhere but on a function of no arguments."""
    def named(node, name):
        f = node.func if isinstance(node, ast.Call) else node
        return (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name

    def no_arguments(fn):
        a = fn.args
        return not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)

    nullary = {(d.lineno, d.col_offset) for fn in ast.walk(ast.parse(source))
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and no_arguments(fn)
               for d in fn.decorator_list}

    def unbounded(node):
        if named(node, "cache") and not isinstance(node, ast.Call):
            return (node.lineno, node.col_offset) not in nullary
        if isinstance(node, ast.Call) and named(node, "lru_cache"):
            size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            return bool(size) and isinstance(size[0], ast.Constant) and size[0].value is None
        return False

    return sites(source, unbounded)


def _private(node):
    return isinstance(node, ast.Attribute) and node.attr.startswith("_")


def _memo_fill(node):
    """(attribute, how) where node fills a memo kept on an object: a call
    `obj._memo.setdefault(key, value)` ("setdefault"), or a store
    `obj._memo[key] = value` or `obj._memo = value` ("store"); else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault" and _private(node.func.value)):
        return node.func.value.attr, "setdefault"
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            target = target.value if isinstance(target, ast.Subscript) else target
            if _private(target):
                return target.attr, "store"
    return None


def memo_fills(source: str):
    """(qualified name, attribute, how) for each memo fill (see
    `_memo_fill`) outside an `__init__`, which fills its own object
    before anyone shares it; sorted."""
    return sorted((".".join(scope), *_memo_fill(node))
                  for scope, node in _scoped(source, _memo_fill) if scope[-1:] != ("__init__",))


def calls_naming(source: str, name: str):
    """The sites of the calls whose callee reads `name`: `name(...)`,
    `mod.name(...)` or `name.method(...)` (see `call_sites`)."""
    return call_sites(source, lambda f: name in _reads(f))


def _defaulted(fn, offset):
    """(parameter, position among a call's positional arguments) for each
    defaulted parameter of a `def`, whose first `offset` parameters no call
    writes out; None for a keyword-only parameter."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    first = len(positional) - len(a.defaults)
    return ([(x.arg, i - offset) for i, x in enumerate(positional) if i >= first]
            + [(x.arg, None) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def defaulted_parameters(source: str):
    """(qualified name, callee name, parameter, position, offset) for each
    defaulted parameter of a module-level function or of a method of a
    module-level class (see `_defaulted`).  A call names a function or
    method by its own name, and a constructor by its class's; a call
    through the class writes the method's first `offset` parameters (the
    instance) too.  Nested functions are left out, since their defaults
    bind loop variables."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(node.name, node.name, p, i, 0) for p, i in _defaulted(node, 0)]
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                offset = 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in fn.decorator_list) else 1
                callee = node.name if fn.name in ("__init__", "__new__") else fn.name
                out += [(f"{node.name}.{fn.name}", callee, p, i, offset)
                        for p, i in _defaulted(fn, offset)]
    return out


def unpassed_defaults(modules, callers):
    """(module, function, parameter) for each defaulted parameter (see
    `defaulted_parameters`) of the sources in `modules` that some call in
    `callers` may reach but none passes.  Both map a module name to its
    source.  A call passes a parameter by keyword, by position or through
    `*` or `**` unpacking, but not by forwarding a parameter of its own
    function that no call passes.

    A call through a class, `C.f(...)`, reaches only C's method f; any
    other call is matched by name alone, so `obj.f(...)` counts for the
    method f of every class, and a parameter that it passes is passed on
    all of them."""
    params = [(m, q, callee, p, i, offset) for m, src in modules.items()
              for q, callee, p, i, offset in defaulted_parameters(src)]
    classes = {q.split(".")[0] for _, q, *_ in params if "." in q}
    by_name = {}
    for m, src in callers.items():
        for scope, call in _scoped(src, lambda node: isinstance(node, ast.Call)):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            through = f.value.id if isinstance(f, ast.Attribute) and isinstance(
                f.value, ast.Name) and f.value.id in classes else None
            by_name.setdefault(name, []).append((m, scope, call, through))

    def forwards(m, scope, value, found):
        return isinstance(value, ast.Name) and any(
            (m, ".".join(scope[:k]), value.id) in found for k in range(1, len(scope) + 1))

    def passes(m, scope, call, p, i, found):
        for k in call.keywords:
            if k.arg is None or k.arg == p and not forwards(m, scope, k.value, found):
                return True
        if i is None:
            return False
        return any(isinstance(x, ast.Starred) for x in call.args[:i + 1]) or (
            len(call.args) > i and not forwards(m, scope, call.args[i], found))

    def reaching(q, callee, i, offset):
        owner = q.split(".")[0] if "." in q else None
        for m, scope, call, through in by_name.get(callee, ()):
            if through is None:
                yield m, scope, call, i
            elif through == owner:
                yield m, scope, call, None if i is None else i + offset

    calls = {(m, q, p): list(reaching(q, callee, i, offset))
             for m, q, callee, p, i, offset in params}
    found, grown = set(), True
    while grown:
        now = {key for key, reached in calls.items() if reached and not any(
            passes(cm, scope, call, key[2], j, found) for cm, scope, call, j in reached)}
        grown, found = now != found, now
    return sorted(found)


def _pieces(module, source):
    """(path, names read) for each top-level statement of a source, a
    top-level class split into its header and each statement of its body
    (see `_reads`).  A path is (module, index) or (module, class index,
    index), so the pieces inside a definition are those whose path starts
    with its path."""
    for i, node in enumerate(ast.parse(source).body):
        if not isinstance(node, ast.ClassDef):
            yield (module, i), _reads(node)
            continue
        header = [*node.decorator_list, *node.bases, *node.keywords]
        yield (module, i), set().union(*map(_reads, header))
        for j, stmt in enumerate(node.body):
            yield (module, i, j), _reads(stmt)


def _functions_and_classes(module, source):
    """(path, qualified name, name) for each module-level `def` and `class`
    of a source and each method of a module-level class (see `_pieces`);
    dunder methods are left out, since the language calls them."""
    for i, node in enumerate(ast.parse(source).body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield (module, i), node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from (((module, i, j), f"{node.name}.{fn.name}", fn.name)
                        for j, fn in enumerate(node.body)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__") and fn.name.endswith("__")))


def only_tested_definitions(modules, callers, dispatched=frozenset()):
    """(module, qualified name) for each function, class and method (see
    `_functions_and_classes`) of the sources in `modules` that no source in
    `callers` reads outside its own definition, and whose name is not among
    `dispatched`, the names a caller builds to look a definition up.  Both
    map a module name to its source.  A name is matched bare, as
    `unpassed_defaults` matches a call: `obj.f` reads the method f of every
    class."""
    reads = [piece for m, src in callers.items() for piece in _pieces(m, src)]
    return sorted(
        (module, qualified)
        for module, src in modules.items()
        for path, qualified, name in _functions_and_classes(module, src)
        if name not in dispatched
        and not any(name in names for at, names in reads if at[:len(path)] != path)
    )


# The library's `.validate(...)` calls, by (module, function): the loaders
# check what enters, each listed map once, as `simpmap_from_json` reads it
# (`tabulated_from_json` then checks only the laws of the action it
# completes, by `TabulatedGammaSpace.check_laws`, and
# `relative_input_from_json` those of its diagram, by
# `RelativeNerveInput.check_laws`); `from_elements` checks the tables it
# is handed; the tau1 certificate decides by validating (`catcore.all_functors`
# checks each composite as its last arrow is drawn, and validates nothing);
# the validators of the diagram types check their parts; and two verdicts
# rest on a check.  Constructions trust their valid inputs, and
# tests/conftest.py validates every set and category tier-1 builds.
KEPT_VALIDATE_CALLS = {
    ("jsonio", "simpset_from_json"): 1,
    ("jsonio", "simpmap_from_json"): 1,
    ("jsonio", "category_from_json"): 1,
    ("simplicial", "from_elements"): 1,
    ("nerve", "_tau1_full"): 1,
    ("nerve", "tau1_functor"): 1,
    ("gspace", "TabulatedGammaSpace.validate"): 1,
    ("gspace", "GammaSpaceMap.validate"): 1,
    ("marked", "MarkedGammaSpace.validate"): 1,
    ("cocart", "RelativeNerveInput.validate"): 1,
    ("gspace", "_levelwise_iso_verdict"): 1,
    ("gspace", "semiadditivity_probe"): 2,
}


# The tests of a verdict's status outside `verdicts.py`, by (module,
# function).  Verdicts are combined by `verdicts.conjoin` (Kleene's strong
# conjunction) and `verdicts.negate`, so that a spent budget is never read as
# a refutation.
KEPT_STATUS_TESTS = {}


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


# The memo fills of the library that do not publish by `setdefault`, by
# (module, function, attribute), with why a duplicate fill is harmless.
# Threads racing on a first read may each build the value; `setdefault`
# hands every one of them the first value stored, which checks by identity
# (`is`) rely on.  These values are compared by equality only, or are
# filled before the object is shared (ROADMAP item 29).
KEPT_MEMO_STORES = {
    ("simplicial", "FinSimpSet.refs", "_ref_cache"): "a tuple of refs, compared by value",
    ("simplicial", "FinSimpSet._search_plan", "_order_memo"):
        "a backtracking order and its vertex links, read and never compared",
    ("simplicial", "FinSimpSet.neighbours", "_neighbours"): "tuples of vertex refs, values",
    ("simplicial", "FinSimpSet.act", "_act_memo"): "one ref, a value",
    ("simplicial", "Colimit._compute", "_nf"):
        "filled while `__init__` builds the colimit, before anyone shares it",
    ("nerve", "_tau1_kept", "_tau1"):
        "a category and its tables; categories and functors compare by their tables",
}


# The `.join(...)` calls on a string literal, by (module, function).  A
# name made of parts is built by `nerve.joined_name`, which escapes its
# separator in each part, so that two tuples of parts never share a name;
# these join the words of a message, or the digits of generated integers,
# which hold no separator (ROADMAP item 17).
KEPT_LITERAL_JOINS = {
    ("cli", "build_parser"): 1,
    ("suite", "run_suite"): 2,
    ("cocart", "_gamma_arrow_name"): 1,
    ("shapes", "_tuple_name"): 1,
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


# The defaulted parameters that some call in `src/` or `bench/` reaches but
# none passes, by (module, function, parameter).  Each settable value has a
# caller that sets it; these wait on one: the `budget` of the searches no
# command bounds yet, which ROADMAP item 1 threads from the command line as
# one `Budget`.
KEPT_UNPASSED_DEFAULTS = {
    ("catcore", "all_functors", "budget"),
    ("simplicial", "iso_check", "budget"),
    ("marked", "marked_hom_set", "budget"),
    ("marked", "marked_mapping_space", "budget"),
    ("gspace", "mapping_space_tabulated", "budget"),
    ("cocart", "cocartesian_cross_check", "budget"),
}


# The functions, classes and methods that no file in `src/` or `bench/`
# names, by (module, qualified name); the loaders that `cli.main` reaches
# as f"{kind}_from_json", for the kinds of `cli.COMMANDS`, count as named.
# Each stays for the reason above it; anything else that only the tests
# reach goes.
KEPT_TEST_ONLY_DEFINITIONS = {
    # the second of the two trivial-fibration routes, an oracle of ROADMAP
    # aim 2, and the law that ROADMAP item 27 would make of it
    ("gspace", "trivial_fibration_check"),
    # the fibrant verdict of ROADMAP item 19
    ("shapes", "is_quasicategory_up_to"),
    # argparse calls it on a malformed command line
    ("cli", "_Parser.error"),
    # a set read at another bound, by which ROADMAP item 14's truncation
    # oracle cuts its inputs
    ("simplicial", "FinSimpSet.rebound"),
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
        "    return v.status == FAILS or w.status != HOLDS\n"
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


def test_literal_join_check_catches_what_it_names():
    source = (
        "name = '|'.join(parts)\n"
        "def label(tup, sep):\n"
        "    return 't' + '_'.join(map(str, tup)) + sep.join(tup) + os.path.join(a, b)\n"
        "class Report:\n"
        "    def message(self, tags):\n"
        "        return f\"unknown {', '.join(tags)}\", b','.join(tags)\n"
    )
    assert literal_joins(source) == ["<module>", "Report.message", "label"]


def test_names_are_joined_only_by_joined_name():
    found = Counter((p.stem, name) for p in MODULES for name in literal_joins(p.read_text()))
    assert found == Counter(KEPT_LITERAL_JOINS)


def test_unbounded_memo_check_catches_what_it_names():
    source = (
        "@functools.lru_cache(maxsize=64)\n"
        "def sized(n):\n"
        "    return n\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def endless(n):\n"
        "    return n\n"
        "@lru_cache(None)\n"
        "def endless_too(n):\n"
        "    return n\n"
        "@functools.cache\n"
        "def parser():\n"
        "    return 1\n"
        "class Space:\n"
        "    @cache\n"
        "    def faces(self):\n"
        "        return 2\n"
        "wrapped = functools.cache(sized)\n"
    )
    assert unbounded_memos(source) == ["<module>", "Space.faces", "endless", "endless_too"]


def test_every_memo_is_bounded():
    assert [(p.stem, name) for p in MODULES for name in unbounded_memos(p.read_text())] == []


def test_memo_fill_census_catches_what_it_names():
    source = (
        "class Space:\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "    def value(self, n):\n"
        "        if n not in self._memo:\n"
        "            self._memo[n] = n\n"
        "        return self._memo.setdefault(n, n)\n"
        "    def lazy(self):\n"
        "        self._lazy = 1\n"
        "        self.public = 2\n"
        "        local = {}\n"
        "        local[1] = 2\n"
        "def keep(x):\n"
        "    x._kept = 3\n"
    )
    assert memo_fills(source) == [("Space.lazy", "_lazy", "store"),
                                  ("Space.value", "_memo", "setdefault"),
                                  ("Space.value", "_memo", "store"), ("keep", "_kept", "store")]


def test_every_memo_fill_publishes_by_setdefault_or_is_kept_on_purpose():
    found = [(p.stem, site, attr, how)
             for p in MODULES for site, attr, how in memo_fills(p.read_text())]
    assert {(m, site, attr) for m, site, attr, how in found if how == "store"} == \
        set(KEPT_MEMO_STORES)
    assert {("gspace", "PresentedGammaSpace.level_data", "_level_data", "setdefault"),
            ("gspace", "Normalization.col", "_cols", "setdefault"),
            ("marked", "MarkedGammaSpace.value", "_values", "setdefault")} <= set(found)


def test_based_maps_are_checked_only_where_tables_enter():
    found = Counter((p.stem, name) for p in MODULES
                    for name in calls_naming(p.read_text(), "based_map"))
    assert found == Counter(KEPT_BASED_MAP_CALLS)


@pytest.mark.parametrize("module", ["jsonio", "cli"])
def test_loaders_build_based_maps_only_through_the_check(module):
    assert calls_naming((SRC / f"{module}.py").read_text(), "GammaMorphism") == []


def test_unpassed_default_check_catches_what_it_names():
    lib = (
        "def search(a, budget=None, *, order=None, strict=False):\n"
        "    def inner(k=a):\n"
        "        return k\n"
        "    return inner, budget, order, strict\n"
        "def wrapper(a, depth=0, flag=False):\n"
        "    return search(a, None, order=depth, strict=flag)\n"
        "def unread(a, limit=3):\n"
        "    return limit\n"
        "class Counter:\n"
        "    def __init__(self, limit=1, context=''):\n"
        "        self.limit = limit\n"
        "    def spend(self, amount=1):\n"
        "        return amount\n"
        "    @staticmethod\n"
        "    def make(size=0):\n"
        "        return size\n"
        "    def reset(self, to=0):\n"
        "        return to\n"
        "class Meter:\n"
        "    def spend(self, amount=1):\n"
        "        return amount\n"
        "    def reset(self, to=0):\n"
        "        return to\n"
    )
    # a call through a class reaches that class's method alone, and writes
    # the instance first; `c.spend(...)` is matched by name, so it passes
    # `amount` on both classes
    caller = (
        "from lib import search, wrapper, Counter, Meter\n"
        "search(1)\n"
        "wrapper(1, 2)\n"
        "c = Counter(5)\n"
        "c.spend(**{'amount': 2})\n"
        "Counter.make(1)\n"
        "Counter.reset(c, 0)\n"
        "Meter.reset(Meter())\n"
    )
    assert unpassed_defaults({"lib": lib}, {"lib": lib, "caller": caller}) == [
        ("lib", "Counter.__init__", "context"), ("lib", "Meter.reset", "to"),
        ("lib", "search", "strict"), ("lib", "wrapper", "flag")]


def test_every_reached_default_is_passed():
    callers = {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS
               if not p.is_relative_to(ROOT / "tests")}
    modules = {name: src for name, src in callers.items() if name.startswith("src/gammaspace/")}
    assert len(modules) == len(MODULES)
    found = {(pathlib.PurePath(m).stem, q, p) for m, q, p in unpassed_defaults(modules, callers)}
    assert found == KEPT_UNPASSED_DEFAULTS


def test_only_tested_definition_check_catches_what_it_names():
    lib = (
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def tested():\n"
        "    return 2\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.n = self.size()\n"
        "    def size(self):\n"
        "        return 0\n"
        "    def grow(self):\n"
        "        return self.grow\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return Box()\n"
        "class Timed:\n"
        "    def spend(self):\n"
        "        return 0\n"
    )
    # a method named inside its own body or a class only in its own, a
    # docstring and a test are no callers; a "module:qualname" string and a
    # call of another class's method of the same name are
    caller = (
        '"""tested is named here, in a docstring only."""\n'
        "from lib import used, Timed\n"
        "TIMED = ['lib:Timed.__init__']\n"
        "used()\n"
        "def charge(meter):\n"
        "    return meter.spend()\n"
    )
    test = "from lib import tested, recursive, Box\ntested(), recursive(1), Box.make()\n"
    assert only_tested_definitions({"lib": lib}, {"lib": lib, "caller": caller}) == [
        ("lib", "Box"), ("lib", "Box.grow"), ("lib", "Box.make"),
        ("lib", "recursive"), ("lib", "tested")]
    assert only_tested_definitions({"lib": lib}, {"lib": lib, "test": test}) == [
        ("lib", "Box.grow"), ("lib", "Timed"), ("lib", "Timed.spend"),
        ("lib", "used")]
    # a loader looked up by a built name counts as read when its kind is
    # dispatched; one for a kind that no command reads is still flagged
    loaders = "def simpset_from_json(data):\n    return data\n" \
              "def orphan_from_json(data):\n    return data\n"
    dispatched = {f"{kind}_from_json" for kind in ("simpset", "tabulated")}
    assert only_tested_definitions({"io": loaders}, {"io": loaders}, dispatched) == [
        ("io", "orphan_from_json")]
    assert only_tested_definitions({"io": loaders}, {"io": loaders}) == [
        ("io", "orphan_from_json"), ("io", "simpset_from_json")]


def test_the_definitions_only_the_tests_name_are_kept_on_purpose():
    callers = {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS
               if not p.is_relative_to(ROOT / "tests")}
    modules = {name: src for name, src in callers.items() if name.startswith("src/gammaspace/")}
    assert len(modules) == len(MODULES)
    loaders = {f"{kind}_from_json" for row in COMMANDS.values() for kind in row.kinds}
    found = {(pathlib.PurePath(m).stem, q)
             for m, q in only_tested_definitions(modules, callers, loaders)}
    assert found == KEPT_TEST_ONLY_DEFINITIONS
