"""Batch front-end: read JSON objects, run a named construction or verdict
suite, and print one machine-readable report.

Exit codes: 0 all checks pass, 1 a check fails (witness included),
2 a search ran out of budget, 3 malformed input or command line, 4 an
internal fault (an exception in the program, named in an `internal`
verdict).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import sys
import time
import traceback

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

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3, 4


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


def cmd_factorize(report, *, src, dst, map):
    f = based_map(src, dst, tuple(int(v) for v in map.split(",")) if map else ())
    inert, active, support = factor_inert_active(f)
    report.output("support", list(support))
    report.output("inert", jsonio.gamma_morphism_to_json(inert))
    report.output("active", jsonio.gamma_morphism_to_json(active))
    ok = inert.then(active) == f and inert.is_inert_ordered() and active.is_active()
    report.add("factorization-unique",
               Verdict(HOLDS if ok else FAILS, f"map {f}"))


def cmd_convolve(report, p, q, *, level_bound):
    conv = day_convolve(p, q)
    levels = {}
    for n in range(level_bound + 1):
        levels[str(n)] = jsonio.simpset_to_json(conv.evaluate(n))
    report.output("levels", levels)
    report.add("day-convolution", Verdict(HOLDS, f"levels<={level_bound}"))


def cmd_map_space(report, p, y, *, dim_bound, budget):
    ms = GammaMappingSpace(p, y, dim_cap=dim_bound, budget=Budget(budget))
    report.output("space", jsonio.simpset_to_json(ms.space))
    report.add("mapping-space", Verdict(HOLDS, f"dims<={ms.cap}"))


def cmd_internal_hom(report, p, y, *, level_bound, dim_bound, budget):
    hom = internal_hom(p, y, level_bound=level_bound,
                       dim_cap=dim_bound, budget=Budget(budget))
    report.output("hom", jsonio.tabulated_to_json(hom))
    report.add("internal-hom", Verdict(HOLDS, f"levels<={level_bound}"))


def cmd_segal_check(report, x, *, k, l, tier):
    report.add("segal-condition", segal_check(x, k, l, tier=tier))


def cmd_normalize(report, x):
    nor, _ = normalize(x)
    report.output("normalized", jsonio.tabulated_to_json(nor))
    report.add("normalization", Verdict(HOLDS if nor.is_normalized() else FAILS,
                                        f"levels<={x.level_bound}"))


def cmd_semiadd_probe(report, p, *, level_bound):
    rep = semiadditivity_probe(p, level_bound)
    report.output("report", {
        "levels": {str(k): v for k, v in rep["levels"].items()},
        "coproduct_identification": rep["coproduct_identification"],
    })
    report.add("semiadditivity-composite", conjoin(f"levels<={level_bound}", (
        (f"level {n}", Verdict(v["iso"], witness=v)) for n, v in rep["levels"].items())))


def cmd_mark(report, x, *, kind):
    report.output("marked", jsonio.marked_to_json(mark(x, kind)))
    report.add("marking", Verdict(HOLDS, kind))


def cmd_hom_marked(report, x, y, *, dim_bound, budget):
    plus, flat, sharp = hom_marked(x, y, dim_cap=dim_bound, budget=Budget(budget))
    report.output("plus", jsonio.marked_to_json(plus))
    report.output("flat", jsonio.simpset_to_json(flat))
    report.output("sharp", jsonio.simpset_to_json(sharp))
    report.add("marked-mapping-object", Verdict(HOLDS, f"dims<={dim_bound}"))


def cmd_relative_nerve(report, inp, *, dim_bound):
    rn = relative_nerve(inp, dim_bound)
    report.output("total", jsonio.simpset_to_json(rn.total))
    report.output("proj", jsonio.simpmap_to_json(rn.proj))
    report.add("relative-nerve-fibers", conjoin(f"dims<={dim_bound}", (
        (f"fiber over {o}", rn.fiber_comparison(o)) for o in inp.base.objects)))


def cmd_cocart_edges(report, inp, *, dim_bound, budget):
    rn = relative_nerve(inp, dim_bound)
    edges, verdict, marking = cocartesian_edges(
        rn.total, rn.proj, dim_bound, budget=Budget(budget)
    )
    report.output("cocartesian_edges", None if edges is None else sorted(edges))
    report.output("marking", jsonio.over_object_to_json(marking) if marking else None)
    report.add("cocartesian-fibration", verdict)


def cmd_sm_check(report, inp, *, k, l, tier):
    report.add("sm-qcat-verdict", sm_qcat_check(inp, k, l, tier=tier))


def cmd_nelg(report, *, k, level_bound, dim_bound):
    over, _, _ = nelg(k, level_bound, dim_cap=dim_bound)
    report.output("over_object", jsonio.over_object_to_json(over))
    report.add("under-category-nerve",
               Verdict(HOLDS, f"levels<={level_bound}, dims<={dim_bound}"))


def cmd_upsilon(report, *, k, l, level_bound, dim_bound):
    cmp, src, tgt = upsilon(k, l, level_bound, dim_cap=dim_bound)
    report.output("map", jsonio.simpmap_to_json(cmp))
    report.output("source", jsonio.over_object_to_json(src))
    report.output("target", jsonio.over_object_to_json(tgt))
    report.add("under-category-comparison",
               Verdict(HOLDS, f"({k},{l}), levels<={level_bound}"))


def cmd_hom_over_base(report, x, y, *, variant, dim_bound, budget):
    space, _ = hom_over_base(x, y, variant=variant,
                             dim_cap=dim_bound, budget=Budget(budget))
    report.output("space", jsonio.simpset_to_json(space))
    report.add("over-base-mapping", Verdict(HOLDS, variant))


def cmd_r_plus(report, x, *, k, level_bound, dim_bound, budget):
    r = r_plus_level(x, k, level_bound, dim_cap=dim_bound, budget=Budget(budget))
    report.output("level", jsonio.marked_to_json(r))
    report.add("right-comparison-level", Verdict(HOLDS, f"k={k}"))


def cmd_tau1(report, x):
    cat, _ = tau1(x)
    report.output("category", jsonio.category_to_json(cat))
    report.add("fundamental-category", Verdict(HOLDS, "congruence closure certified"))


def cmd_j(report, x):
    report.output("space", jsonio.simpset_to_json(j_qcat(x)))
    report.add("largest-sub-kan", Verdict(HOLDS, ""))


def cmd_rexp(report, x, a, *, dim_bound, budget):
    space, _ = restricted_exp(x, a, dim_cap=dim_bound, budget=Budget(budget))
    report.output("space", jsonio.simpset_to_json(space))
    report.add("restricted-exponential", Verdict(HOLDS, f"dims<={dim_bound}"))


def cmd_hmap(report, a, x, *, dim_bound, budget):
    space = h_map_space(a, x, dim_cap=dim_bound, budget=Budget(budget))
    report.output("space", jsonio.simpset_to_json(space))
    report.add("homotopy-mapping-space", Verdict(HOLDS, f"dims<={dim_bound}"))


def cmd_pushout_product(report, f, g):
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


def cmd_check_suite(report, *, only):
    for tag, verdict in suite.run_suite(only=set(only.split(",")) if only else None):
        report.add(tag, verdict)


# Every flag any command parses: dest -> argparse keywords, in the order
# the parser adds them (the order of `vars(args)`, which the digest hashes).
FLAGS = {
    "dim_bound": dict(type=int, default=DEFAULT_DIM_BOUND),
    "level_bound": dict(type=int, default=DEFAULT_LEVEL_BOUND),
    "budget": dict(type=int, default=DEFAULT_SEARCH_BUDGET),
    "tier": dict(default="iso", choices=["iso", "cat-equiv", "ho-necessary"]),
    "format": dict(default="json", choices=["json"]),
    "src": dict(type=int, required=True),
    "dst": dict(type=int, required=True),
    "map": dict(default=""),
    "k": dict(type=int, required=True),
    "l": dict(type=int, required=True),
    "kind": dict(default="flat", choices=["flat", "sharp"]),
    "variant": dict(default="flat", choices=["flat", "sharp"]),
    "only": dict(default=""),
    "corpus": dict(default="default"),
}
# parsed by every command, read or not, because every report echoes them
COMMON = ("dim_bound", "level_bound", "budget", "tier", "format")


class Command:
    """A row of the command table: the run function, the `jsonio` kind of
    each input file (`"tabulated"` is read by `jsonio.tabulated_from_json`,
    looked up when called), flag defaults, and flags parsed but not read.
    The flags the command reads are the run function's keyword-only
    parameters."""

    def __init__(self, run, *kinds, defaults=(), unread=()):
        self.run, self.kinds, self.defaults = run, kinds, dict(defaults)
        self.reads = [name for name, param in inspect.signature(run).parameters.items()
                      if param.kind is param.KEYWORD_ONLY]
        self.flags = [f for f in FLAGS if f in COMMON or f in self.reads or f in unread]


# the dense based-set base is only materialized at small levels
SMALL_LEVELS = {"level_bound": 2}

COMMANDS = {
    "factorize": Command(cmd_factorize),
    "convolve": Command(cmd_convolve, "presented", "presented"),
    "map-space": Command(cmd_map_space, "presented", "tabulated"),
    "internal-hom": Command(cmd_internal_hom, "presented", "tabulated"),
    "segal-check": Command(cmd_segal_check, "tabulated"),
    "normalize": Command(cmd_normalize, "tabulated"),
    "semiadd-probe": Command(cmd_semiadd_probe, "presented"),
    "mark": Command(cmd_mark, "simpset"),
    "hom-marked": Command(cmd_hom_marked, "marked", "marked"),
    "relative-nerve": Command(cmd_relative_nerve, "relative_input"),
    "cocart-edges": Command(cmd_cocart_edges, "relative_input"),
    "sm-check": Command(cmd_sm_check, "relative_input"),
    "nelg": Command(cmd_nelg, defaults=SMALL_LEVELS),
    "upsilon": Command(cmd_upsilon, defaults=SMALL_LEVELS),
    "hom-over-base": Command(cmd_hom_over_base, "over_object", "over_object",
                             defaults=SMALL_LEVELS),
    "r-plus": Command(cmd_r_plus, "over_object", defaults=SMALL_LEVELS),
    "tau1": Command(cmd_tau1, "simpset"),
    "j": Command(cmd_j, "simpset"),
    "rexp": Command(cmd_rexp, "simpset", "simpset"),
    "hmap": Command(cmd_hmap, "simpset", "simpset"),
    "pushout-product": Command(cmd_pushout_product, "arrow", "arrow"),
    "check-suite": Command(cmd_check_suite, unread=("corpus",)),
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
    for name, command in sorted(COMMANDS.items()):
        p = sub.add_parser(name)
        p.add_argument("inputs", nargs="*",
                       help=f"input JSON files: {', '.join(command.kinds) or 'none'}")
        for dest in command.flags:
            p.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest],
                           help=None if dest in command.reads else "parsed but not read")
        p.set_defaults(**command.defaults)
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
        command = COMMANDS[args.command]
        if len(args.inputs) != len(command.kinds):
            raise ValueError(f"{args.command} takes {len(command.kinds)} input file(s),"
                             f" got {len(args.inputs)}")
        inputs = [getattr(jsonio, f"{kind}_from_json")(_load(path))
                  for kind, path in zip(command.kinds, args.inputs)]
        command.run(report, *inputs, **{flag: getattr(args, flag) for flag in command.reads})
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as e:
        tag, code, verdict = "input", EXIT_INPUT, Verdict(FAILS, "input validation", witness=str(e))
    except BudgetExceededError as e:
        tag, code, verdict = "budget", EXIT_INCONCLUSIVE, Verdict(
            INCONCLUSIVE, "search budget", witness=str(e))
    except ResourceError as e:
        tag, code, verdict = "resource", EXIT_INCONCLUSIVE, Verdict(
            INCONCLUSIVE, "resource cap", witness=str(e))
    except Exception as e:  # a fault in the program, not in its input
        traceback.print_exc()
        tag, code, verdict = "internal", EXIT_INTERNAL, Verdict(
            INCONCLUSIVE, "internal fault", witness=f"{type(e).__name__}: {e}")
    else:
        report.emit()
        return report.exit_code()
    if report is None:  # a malformed command line; the digest is the argv's
        report = Report(None, argparse.Namespace(argv=sys.argv[1:] if argv is None else argv))
    report.add(tag, verdict)
    report.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
