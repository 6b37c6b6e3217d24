"""Batch front-end: read JSON objects, run a named construction or verdict
suite, and print one machine-readable report.

Exit codes: 0 all checks pass, 1 a check fails (witness included),
2 a search ran out of budget, 3 malformed input or command line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import jsonio, suite
from .cocart import (
    cocartesian_edges,
    nelg,
    r_plus_level,
    relative_nerve,
    sm_qcat_check,
    upsilon,
    hom_over_base,
)
from .gammaop import based_map, factor_inert_active
from .gspace import (
    GammaMappingSpace,
    day_convolve,
    homotopy_category,
    internal_hom,
    normalize,
    segal_check,
    semiadditivity_probe,
)
from .homotopy import h_map_space, j_qcat, restricted_exp
from .marked import hom_marked, mark
from .nerve import tau1
from .shapes import pushout_product
from .verdicts import (
    Budget,
    BudgetExceededError,
    DEFAULT_DIM_BOUND,
    DEFAULT_LEVEL_BOUND,
    DEFAULT_SEARCH_BUDGET,
    ResourceError,
    Verdict,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    conjoin,
)

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INPUT = 0, 1, 2, 3


def _digest(paths, inline=()):
    h = hashlib.sha256()
    for p in paths:
        try:
            with open(p, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            pass  # the command itself reports the missing file
    for chunk in inline:
        h.update(str(chunk).encode())
    return h.hexdigest()[:16]


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _inputs(args, *loaders):
    """One input file per loader, each parsed and read by its loader; a
    different number of files is malformed input (a ValueError)."""
    if len(args.inputs) != len(loaders):
        raise ValueError(f"{args.command} takes {len(loaders)} input file(s),"
                         f" got {len(args.inputs)}")
    return [load(_load(path)) for load, path in zip(loaders, args.inputs)]


class Report:
    def __init__(self, command, args):
        self.command = command
        self.started = time.time()
        self.entries = []
        self.outputs = {}
        self.bounds = {name: getattr(args, name, None)
                       for name in ("dim_bound", "level_bound", "budget")}
        self.inputs_digest = _digest(getattr(args, "inputs", []) or [],
                                     inline=[vars(args)])

    def add(self, tag, verdict: Verdict):
        self.entries.append({"tag": tag, **verdict.as_json()})

    def output(self, key, value):
        self.outputs[key] = value

    def exit_code(self):
        statuses = {e["status"] for e in self.entries}
        if FAILS in statuses:
            return EXIT_FAIL
        if INCONCLUSIVE in statuses:
            return EXIT_INCONCLUSIVE
        return EXIT_PASS

    def emit(self):
        body = {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "bounds": self.bounds,
            "verdicts": self.entries,
            "outputs": self.outputs,
            "seconds": round(time.time() - self.started, 3),
        }
        sys.stdout.write(jsonio.canonical_dumps(body))


def cmd_factorize(args, report):
    f = based_map(args.src, args.dst, tuple(int(v) for v in args.map.split(",")) if args.map else ())
    inert, active, support = factor_inert_active(f)
    report.output("support", list(support))
    report.output("inert", jsonio.gamma_morphism_to_json(inert))
    report.output("active", jsonio.gamma_morphism_to_json(active))
    ok = inert.then(active) == f and inert.is_inert_ordered() and active.is_active()
    report.add("factorization-unique",
               Verdict(HOLDS if ok else FAILS, f"map {f}"))


def cmd_convolve(args, report):
    p, q = _inputs(args, jsonio.presented_from_json, jsonio.presented_from_json)
    conv = day_convolve(p, q)
    levels = {}
    for n in range(args.level_bound + 1):
        levels[str(n)] = jsonio.simpset_to_json(conv.evaluate(n))
    report.output("levels", levels)
    report.add("day-convolution", Verdict(HOLDS, f"levels<={args.level_bound}"))


def cmd_map_space(args, report):
    p, y = _inputs(args, jsonio.presented_from_json, jsonio.tabulated_from_json)
    ms = GammaMappingSpace(p, y, dim_cap=args.dim_bound,
                           budget=Budget(args.budget))
    report.output("space", jsonio.simpset_to_json(ms.space))
    report.add("mapping-space", Verdict(HOLDS, f"dims<={ms.cap}"))


def cmd_internal_hom(args, report):
    p, y = _inputs(args, jsonio.presented_from_json, jsonio.tabulated_from_json)
    hom = internal_hom(p, y, level_bound=args.level_bound,
                       dim_cap=args.dim_bound, budget=Budget(args.budget))
    report.output("hom", jsonio.tabulated_to_json(hom))
    report.add("internal-hom", Verdict(HOLDS, f"levels<={args.level_bound}"))


def cmd_segal_check(args, report):
    x, = _inputs(args, jsonio.tabulated_from_json)
    v = segal_check(x, args.k, args.l, tier=args.tier)
    report.add("segal-condition", v)


def cmd_normalize(args, report):
    x, = _inputs(args, jsonio.tabulated_from_json)
    nor, _ = normalize(x)
    report.output("normalized", jsonio.tabulated_to_json(nor))
    report.add("normalization", Verdict(HOLDS if nor.is_normalized() else FAILS,
                                        f"levels<={x.level_bound}"))


def cmd_semiadd_probe(args, report):
    p, = _inputs(args, jsonio.presented_from_json)
    rep = semiadditivity_probe(p, args.level_bound)
    report.output("report", {
        "levels": {str(k): v for k, v in rep["levels"].items()},
        "coproduct_identification": rep["coproduct_identification"],
    })
    report.add("semiadditivity-composite", conjoin(f"levels<={args.level_bound}", (
        (f"level {n}", Verdict(v["iso"], witness=v)) for n, v in rep["levels"].items())))


def cmd_ho_cat(args, report):
    x, = _inputs(args, jsonio.tabulated_from_json)
    cat = homotopy_category(x)
    report.output("category", jsonio.category_to_json(cat))
    report.add("homotopy-category", Verdict(HOLDS, "fundamental category built"))


def cmd_mark(args, report):
    x, = _inputs(args, jsonio.simpset_from_json)
    m = mark(x, args.kind)
    report.output("marked", jsonio.marked_to_json(m))
    report.add("marking", Verdict(HOLDS, args.kind))


def cmd_hom_marked(args, report):
    x, y = _inputs(args, jsonio.marked_from_json, jsonio.marked_from_json)
    plus, flat, sharp = hom_marked(x, y, dim_cap=args.dim_bound,
                                   budget=Budget(args.budget))
    report.output("plus", jsonio.marked_to_json(plus))
    report.output("flat", jsonio.simpset_to_json(flat))
    report.output("sharp", jsonio.simpset_to_json(sharp))
    report.add("marked-mapping-object", Verdict(HOLDS, f"dims<={args.dim_bound}"))


def cmd_relative_nerve(args, report):
    inp, = _inputs(args, jsonio.relative_input_from_json)
    rn = relative_nerve(inp, args.dim_bound)
    report.output("total", jsonio.simpset_to_json(rn.total))
    report.output("proj", jsonio.simpmap_to_json(rn.proj))
    report.add("relative-nerve-fibers", conjoin(f"dims<={args.dim_bound}", (
        (f"fiber over {o}", rn.fiber_comparison(o)) for o in inp.base.objects)))


def cmd_cocart_edges(args, report):
    inp, = _inputs(args, jsonio.relative_input_from_json)
    rn = relative_nerve(inp, args.dim_bound)
    edges, verdict, marking = cocartesian_edges(
        rn.total, rn.proj, args.dim_bound, budget=Budget(args.budget)
    )
    report.output("cocartesian_edges", None if edges is None else sorted(edges))
    report.output("marking", jsonio.over_object_to_json(marking) if marking else None)
    report.add("cocartesian-fibration", verdict)


def cmd_sm_check(args, report):
    inp, = _inputs(args, jsonio.relative_input_from_json)
    v = sm_qcat_check(inp, args.k, args.l, tier=args.tier)
    report.add("sm-qcat-verdict", v)


def cmd_nelg(args, report):
    over, cos, _ = nelg(args.k, args.level_bound, dim_cap=args.dim_bound)
    report.output("over_object", jsonio.over_object_to_json(over))
    report.add("under-category-nerve",
               Verdict(HOLDS, f"levels<={args.level_bound}, dims<={args.dim_bound}"))


def cmd_upsilon(args, report):
    cmp, src, tgt = upsilon(args.k, args.l, args.level_bound,
                            dim_cap=args.dim_bound)
    report.output("map", jsonio.simpmap_to_json(cmp))
    report.output("source", jsonio.over_object_to_json(src))
    report.output("target", jsonio.over_object_to_json(tgt))
    report.add("under-category-comparison",
               Verdict(HOLDS, f"({args.k},{args.l}), levels<={args.level_bound}"))


def cmd_hom_over_base(args, report):
    x, y = _inputs(args, jsonio.over_object_from_json, jsonio.over_object_from_json)
    space, _ = hom_over_base(x, y, variant=args.variant,
                             dim_cap=args.dim_bound, budget=Budget(args.budget))
    report.output("space", jsonio.simpset_to_json(space))
    report.add("over-base-mapping", Verdict(HOLDS, args.variant))


def cmd_r_plus(args, report):
    x, = _inputs(args, jsonio.over_object_from_json)
    r = r_plus_level(x, args.k, args.level_bound, dim_cap=args.dim_bound,
                     budget=Budget(args.budget))
    report.output("level", jsonio.marked_to_json(r))
    report.add("right-comparison-level", Verdict(HOLDS, f"k={args.k}"))


def cmd_tau1(args, report):
    x, = _inputs(args, jsonio.simpset_from_json)
    cat, _ = tau1(x)
    report.output("category", jsonio.category_to_json(cat))
    report.add("fundamental-category", Verdict(HOLDS, "congruence closure certified"))


def cmd_j(args, report):
    x, = _inputs(args, jsonio.simpset_from_json)
    report.output("space", jsonio.simpset_to_json(j_qcat(x)))
    report.add("largest-sub-kan", Verdict(HOLDS, ""))


def cmd_rexp(args, report):
    x, a = _inputs(args, jsonio.simpset_from_json, jsonio.simpset_from_json)
    space, _ = restricted_exp(x, a, dim_cap=args.dim_bound, budget=Budget(args.budget))
    report.output("space", jsonio.simpset_to_json(space))
    report.add("restricted-exponential", Verdict(HOLDS, f"dims<={args.dim_bound}"))


def cmd_hmap(args, report):
    a, x = _inputs(args, jsonio.simpset_from_json, jsonio.simpset_from_json)
    space = h_map_space(a, x, dim_cap=args.dim_bound, budget=Budget(args.budget))
    report.output("space", jsonio.simpset_to_json(space))
    report.add("homotopy-mapping-space", Verdict(HOLDS, f"dims<={args.dim_bound}"))


def cmd_pushout_product(args, report):
    f, g = _inputs(args, jsonio.arrow_from_json, jsonio.arrow_from_json)
    pp = pushout_product(f, g)
    report.output("source", jsonio.simpset_to_json(pp.source))
    report.output("target", jsonio.simpset_to_json(pp.target))
    report.output("map", jsonio.simpmap_to_json(pp))
    clash = pp.collision()
    if clash is None:
        report.add("pushout-product", Verdict(HOLDS, "mono=True"))
        return
    n, first, second = clash
    report.add("pushout-product", Verdict(FAILS, "mono=False", witness={
        "dim": n,
        "simplices": [jsonio.ref_to_json(first), jsonio.ref_to_json(second)],
        "image": jsonio.ref_to_json(pp(first, n)),
    }))


def cmd_check_suite(args, report):
    only = set(args.only.split(",")) if args.only else None
    for tag, verdict in suite.run_suite(only=only):
        report.add(tag, verdict)


COMMANDS = {
    "factorize": cmd_factorize,
    "convolve": cmd_convolve,
    "map-space": cmd_map_space,
    "internal-hom": cmd_internal_hom,
    "segal-check": cmd_segal_check,
    "normalize": cmd_normalize,
    "semiadd-probe": cmd_semiadd_probe,
    "ho-cat": cmd_ho_cat,
    "mark": cmd_mark,
    "hom-marked": cmd_hom_marked,
    "relative-nerve": cmd_relative_nerve,
    "cocart-edges": cmd_cocart_edges,
    "sm-check": cmd_sm_check,
    "nelg": cmd_nelg,
    "upsilon": cmd_upsilon,
    "hom-over-base": cmd_hom_over_base,
    "r-plus": cmd_r_plus,
    "tau1": cmd_tau1,
    "j": cmd_j,
    "rexp": cmd_rexp,
    "hmap": cmd_hmap,
    "pushout-product": cmd_pushout_product,
    "check-suite": cmd_check_suite,
}


class _Parser(argparse.ArgumentParser):
    """A malformed command line raises ValueError, so `main` reports malformed
    input (exit 3), not argparse's 2, which means a spent search; --help exits 0."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process.  parse_args reads
    it and never changes it, so every caller may share it."""
    parser = _Parser(
        prog="gammaspace",
        description="Finite checks for coherently commutative multiplicative"
                    " structure: based-set calculus, convolution, Segal"
                    " conditions, markings, and relative nerves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("inputs", nargs="*", help="input JSON files")
        p.add_argument("--dim-bound", type=int, default=DEFAULT_DIM_BOUND)
        p.add_argument("--level-bound", type=int, default=DEFAULT_LEVEL_BOUND)
        p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
        p.add_argument("--tier", default="iso",
                       choices=["iso", "cat-equiv", "ho-necessary"])
        p.add_argument("--format", default="json", choices=["json"])
        if name == "factorize":
            p.add_argument("--src", type=int, required=True)
            p.add_argument("--dst", type=int, required=True)
            p.add_argument("--map", default="")
        if name in ("segal-check", "sm-check", "upsilon"):
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--l", type=int, required=True)
        if name in ("nelg", "r-plus"):
            p.add_argument("--k", type=int, required=True)
        if name == "mark":
            p.add_argument("--kind", default="flat", choices=["flat", "sharp"])
        if name == "hom-over-base":
            p.add_argument("--variant", default="flat", choices=["flat", "sharp"])
        if name == "check-suite":
            p.add_argument("--only", default="")
            p.add_argument("--corpus", default="default")
        if name in ("nelg", "upsilon", "r-plus", "hom-over-base"):
            # the dense based-set base is only materialized at small levels
            p.set_defaults(level_bound=2)
    return parser


def main(argv=None):
    report = None
    try:
        args = build_parser().parse_args(argv)
        report = Report(args.command, args)
        for flag in ("dim_bound", "level_bound", "budget", "k", "l"):
            if getattr(args, flag, 0) < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be >= 0,"
                                 f" got {getattr(args, flag)}")
        COMMANDS[args.command](args, report)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as e:
        if report is None:  # a malformed command line; the digest is the argv's
            report = Report(None, argparse.Namespace(argv=sys.argv[1:] if argv is None else argv))
        report.add("input", Verdict(FAILS, "input validation", witness=str(e)))
        report.emit()
        return EXIT_INPUT
    except BudgetExceededError as e:
        report.add("budget", Verdict(INCONCLUSIVE, "search budget", witness=str(e)))
        report.emit()
        return EXIT_INCONCLUSIVE
    except ResourceError as e:
        report.add("resource", Verdict(INCONCLUSIVE, "resource cap",
                                       witness=str(e)))
        report.emit()
        return EXIT_INCONCLUSIVE
    report.emit()
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
