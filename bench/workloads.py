"""The three benchmark workloads.

`build(workload, seed, root)` returns the cases one pass runs.  Every case
has a structural key (independent of the seed's relabelling) and a
`run()` that returns a JSON fingerprint of what the library answered:
verdict statuses, exit codes, cell-count summaries, independent-oracle
agreements and, for the command line, a digest of the canonical report.
The worker compares it with the known answer stored under the key in
golden.json.  `pool(workload, root)` returns every case any seed can draw,
with canonical labels; golden.py runs it to record the known answers.

The seed only chooses among inputs of similar cost: it relabels the
categories and draws a fixed number of inputs from each class of
near-equal cost.  Two seeds therefore do comparable work, and a
run-to-run difference is not a different mix.  The cases run in a fixed
order, so the case that first fills a library memo (enumerate_homs, for
one) is the same for every seed; a shuffled order moved such a case's
latency by up to 10 ms from seed to seed.

Library functions are always looked up through their module at call
time, so the tracer's rebinding reaches the calls made here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import string
from dataclasses import dataclass
from typing import Callable

from gammaspace import (
    catcore,
    cli,
    cocart,
    corpus,
    gammaop,
    gspace,
    jsonio,
    nerve,
    shapes,
    simplicial,
)
from gammaspace.verdicts import FAILS, HOLDS
from metrics import SUITE_LAWS


@dataclass
class Case:
    key: str
    run: Callable[[], object]


def build(workload, seed, root):
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, root)


def pool(workload, root):
    return _BUILDERS[workload](None, root)


# ---------------------------------------------------------------------------
# shared inputs


def _status(v):
    return v.status


def relabel_category(cat, rng):
    """An isomorphic copy of cat with fresh random object and arrow names;
    returns (copy, object renaming).  With rng=None the names are kept."""
    if rng is None:
        return cat, {o: o for o in cat.objects}
    used = set()

    def token():
        while True:
            t = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
            if t not in used:
                used.add(t)
                return t

    objs = {o: token() for o in cat.objects}
    arrs = {f: token() for f in cat.arrows}
    copy = catcore.FinCat(
        [objs[o] for o in cat.objects],
        {arrs[f]: (objs[s], objs[d]) for f, (s, d) in cat.arrows.items()},
        {objs[o]: arrs[e] for o, e in cat.identities.items()},
        {(arrs[g], arrs[f]): arrs[h] for (g, f), h in cat.compose_table.items()},
    ).validate()
    return copy, objs


# The five small categories of the corpus.  With triangle or iso-with-tail
# a coCartesian case takes 0.3-0.8 s (up to 2.5x apart by vertex); with
# these every case stays under 0.2 s.
SMALL_CATEGORIES = ["terminal", "arrow", "walking-iso", "cyclic-2", "discrete-2"]


def _pick(rng, items, count):
    """count distinct draws; the whole list when rng is None."""
    if rng is None:
        return list(items)
    return rng.sample(list(items), count)


def edge_oracle(inp):
    """Independent 1-simplex count of a relative nerve, straight from the
    definition: a base arrow with a vertex of its source value and an edge
    of its target value starting at the carried vertex."""
    total = 0
    for e in inp.base.arrow_ids():
        src_val = inp.values[inp.base.src(e)]
        dst_val = inp.values[inp.base.dst(e)]
        carried = inp.arrows[e]
        for g in src_val.cell_ids(0):
            image = carried(simplicial.SimplexRef(g), 0)
            for h in dst_val.refs(1):
                if dst_val.face(h, 1, 1) == image:
                    total += 1
    return total


# ---------------------------------------------------------------------------
# cocart-lift: relative nerves of diagrams of nerves, checked for
# coCartesian lifts.  The relative nerve of a diagram of nerves is a
# coCartesian fibration, so every case is expected to hold.


def _cocart_case(key, inp, dim):
    def run():
        rn = cocart.relative_nerve(inp, dim)
        v = cocart.cocartesian_cross_check(rn, dim)
        return {"status": v.status, "details": v.details,
                "summary": rn.total.summary(),
                "edge_oracle": edge_oracle(inp) == len(rn.total.refs(1))}
    return Case(key, run)


def _diagram(base, values, maps):
    arrows = {base.identities[o]: simplicial.identity_map(values[o]) for o in base.objects}
    arrows.update(maps)
    return cocart.RelativeNerveInput(base, values, arrows).validate()


def _cocart_cases(rng, root):
    base2, base3 = catcore.poset_category(1), catcore.poset_category(2)
    wi, _ = relabel_category(catcore.walking_iso_category(), rng)
    arrow, arrow_names = relabel_category(catcore.poset_category(1), rng)
    # the two criterion-8 diagrams, truncated at dimension 2 (at dimension 3
    # they take 2.3 s and 12 s, longer than a pass should be)
    nw, n1 = nerve.nerve(wi, bound=2), nerve.nerve(arrow, bound=2)
    cases = [_cocart_case("c8-small@2", _diagram(
        base2, {"0": nw, "1": nw}, {"le01": simplicial.identity_map(nw)}), 2)]
    vertex = f"o{arrow_names['0']}"
    cases.append(_cocart_case("c8-mixed@2", _diagram(
        base3, {"0": nw, "1": nw, "2": n1},
        {"le01": simplicial.identity_map(nw),
         "le12": simplicial.constant_map(nw, n1, vertex),
         "le02": simplicial.constant_map(nw, n1, vertex)}), 2))
    # The identity diagram on the small categories with an arrow, and the
    # walking isomorphism with a constant functor at a drawn vertex (both
    # cost the same).
    cats = dict(corpus.category_corpus())
    for name in SMALL_CATEGORIES:
        if name == "terminal":
            continue
        variants = [("id", None)]
        if name == "walking-iso":
            variants += _pick(rng, [("const", o) for o in cats[name].objects], 1)
        for kind, obj in variants:
            copy, names = relabel_category(cats[name], rng)
            nc = nerve.nerve(copy, bound=2)
            edge = (simplicial.identity_map(nc) if kind == "id"
                    else simplicial.constant_map(nc, nc, f"o{names[obj]}"))
            key = f"{name}-{kind}" + (f"-{obj}" if obj is not None else "")
            cases.append(_cocart_case(key, _diagram(
                base2, {"0": nc, "1": nc}, {"le01": edge}), 2))
    # Constant functors N(c) -> N(d) at every vertex of d, for all pairs of
    # the four smallest categories: 24 cases of 0.01-0.08 s.  With them
    # the workload has 31 cases, enough for ten above case_s.tail, and
    # still few enough that a run times every case about fifteen times.
    light = [name for name in SMALL_CATEGORIES if name != "walking-iso"]
    for src in light:
        for dst in light:
            for obj in cats[dst].objects:
                src_copy, _ = relabel_category(cats[src], rng)
                dst_copy, names = relabel_category(cats[dst], rng)
                ns, nd = nerve.nerve(src_copy, bound=2), nerve.nerve(dst_copy, bound=2)
                cases.append(_cocart_case(f"{src}-to-{dst}-const-{obj}", _diagram(
                    base2, {"0": ns, "1": nd},
                    {"le01": simplicial.constant_map(ns, nd, f"o{names[obj]}")}), 2))
    return cases


# ---------------------------------------------------------------------------
# gamma-laws: the bodies of the level-family criteria, one case per
# comparison


# presented spaces cheap enough to convolve in any pair or triple (with
# rep1-interval twice or more a comparison costs up to 0.5 s)
LIGHT_PRESENTED = ["rep0", "rep1", "rep1-two-points", "rep1+rep0"]


def _gamma_cases(rng, root):
    names = dict(corpus.presented_corpus())
    tab6 = corpus.tabulated_corpus(6)
    cases = []

    def add(key, fn):
        cases.append(Case(key, fn))

    for n in range(5):
        for m in range(5):
            def run(n=n, m=m):
                buckets = {}
                for s in range(n + 1):
                    for it in gammaop.enumerate_homs(n, s):
                        if it.is_inert_ordered():
                            for at in gammaop.enumerate_homs(s, m):
                                if at.is_active():
                                    buckets.setdefault(it.then(at).key(), []).append((it, at))
                maps = gammaop.enumerate_homs(n, m)
                unique = all(
                    len(buckets.get(f.key(), [])) == 1
                    and buckets[f.key()][0] == gammaop.factor_inert_active(f)[:2]
                    for f in maps)
                return {"maps": len(maps), "unique": unique}
            add(f"factor-{n}-{m}", run)

    for name, p in names.items():
        add(f"unit-{name}", lambda p=p: _status(gspace.day_unit_comparison(p, range(7))))
    sym = [("rep1", "rep2"), ("rep2", "rep2"), ("rep1-interval", "rep2"),
           ("rep1+rep1", "rep1"), ("rep1-two-points", "rep1-interval")]
    assoc = [("rep1", "rep1", "rep2"), ("rep1", "rep2", "rep2"), ("rep0", "rep2", "rep1"),
             ("rep1", "rep1-interval", "rep1"), ("rep1+rep1", "rep1", "rep1")]
    levels = {pair: range(6) for pair in sym + assoc}
    light_pairs = [(a, b) for a in LIGHT_PRESENTED for b in LIGHT_PRESENTED]
    light_triples = [(a, b, c) for a in LIGHT_PRESENTED for b in LIGHT_PRESENTED
                     for c in LIGHT_PRESENTED]
    for extra in _pick(rng, light_pairs, 4) + _pick(rng, light_triples, 4):
        levels[extra] = range(5)
        (sym if len(extra) == 2 else assoc).append(extra)
    for a, b in sym:
        add(f"sym-{a}-{b}-{len(levels[(a, b)])}", lambda a=a, b=b: _status(
            gspace.day_symmetry_comparison(names[a], names[b], levels[(a, b)])))
    for a, b, c in assoc:
        add(f"assoc-{a}-{b}-{c}-{len(levels[(a, b, c)])}", lambda a=a, b=b, c=c: _status(
            gspace.day_assoc_comparison(names[a], names[b], names[c], levels[(a, b, c)])))
    for a, pl, b, ql in [("rep1", [1], "rep1", [1]), ("rep1", [1], "rep2", [2]),
                         ("rep1-interval", [1], "rep0", [0]),
                         ("rep1+rep1", [1], "rep1", [1])]:
        for level in range(3):
            def run(p=names[a], q=names[b], pl=pl, ql=ql, level=level):
                oracle = gspace.day_coend_oracle(p.tabulate(6), q.tabulate(6), pl, ql, level)
                bilinear = gspace.day_convolve(p, q).evaluate(level)
                return {"iso": simplicial.iso_check(oracle, bilinear).status,
                        "summary": oracle.summary()}
            add(f"coend-{a}-{b}-{level}", run)

    for name, y in tab6:
        for n in range(7):
            add(f"yoneda-{name}-{n}",
                lambda n=n, y=y: _status(gspace.yoneda_comparison(n, y, dim_cap=1)[1]))
    z2 = corpus.z2_monoid_space(6)
    for name, p in list(names.items())[:4]:
        top = max((c.level for c in p.cells), default=0)
        for n in (1, 2, 3):
            if top * n > 6:
                continue
            def run(p=p, n=n, top=top):
                conv = gspace.day_convolve(p, gspace.gamma_rep(n))
                lhs = gspace.GammaMappingSpace(conv, z2, dim_cap=0).space.cell_count(0)
                hom = gspace.internal_hom(gspace.gamma_rep(n), z2, level_bound=top, dim_cap=1)
                rhs = gspace.GammaMappingSpace(p, hom, dim_cap=0).space.cell_count(0)
                return {"tensor": lhs, "hom": rhs}
            add(f"tensor-hom-{name}-{n}", run)

    for name, x in tab6:
        for n in range(4):
            add(f"smash-pre-{name}-{n}", lambda x=x, n=n: _status(
                gspace.smash_precompose_comparison(x, n, level_cap=2)))

    for k in range(7):
        for l in range(7 - k):
            add(f"segal-z2-{k}-{l}", lambda k=k, l=l: _status(
                gspace.segal_check(z2, k, l, tier="iso")))

    def segal_rep1():
        v = gspace.segal_check(gspace.gamma_rep(1).tabulate(2), 1, 1, tier="iso")
        return {"status": v.status, "source": v.witness["source"],
                "target": v.witness["target"]}
    add("segal-rep1-1-1", segal_rep1)

    for name, x in corpus.tabulated_corpus(3):
        def run(x=x):
            _, iota = gspace.unital_part(x)
            nor, eta = gspace.normalize(x)
            eta.validate(level_cap=1)
            return {"mono": iota.is_levelwise_mono(level_cap=3),
                    "normalized": nor.is_normalized(),
                    "counit_iso": gspace.normalization_counit(nor).is_levelwise_iso(level_cap=3)}
        add(f"normalize-{name}", run)

    def pointed_vs_plain():
        nor_x, _ = gspace.normalize(corpus.z2_monoid_space(2))
        nor_y, _ = gspace.normalize(corpus.max_monoid_space(2))
        pointed, _ = gspace.mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=True)
        plain, _ = gspace.mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=False)
        return {"iso": simplicial.iso_check(pointed, plain).status,
                "summary": plain.summary()}
    add("normalize-mapping-space", pointed_vs_plain)

    z2_4 = corpus.z2_monoid_space(4)
    for k in range(1, 4):
        for l in range(1, 5 - k):
            def run(k=k, l=l):
                v = cocart.sm_qcat_check(z2_4, k, l, tier="iso")
                return {"status": v.status,
                        "agrees": gspace.segal_check(z2_4, k, l, tier="iso").status == v.status}
            add(f"sm-qcat-z2-{k}-{l}", run)

    def sm_qcat_rep1():
        g1 = gspace.gamma_rep(1).tabulate(4)
        v = cocart.sm_qcat_check(g1, 1, 1, tier="iso")
        return {"status": v.status,
                "agrees": gspace.segal_check(g1, 1, 1, tier="iso").status == v.status}
    add("sm-qcat-rep1-1-1", sm_qcat_rep1)

    for name, p in names.items():
        cap = 1 if max((c.level for c in p.cells), default=0) >= 2 else 2
        add(f"semiadd-{name}", lambda p=p, cap=cap: {
            "coproduct": gspace.semiadditivity_probe(p, cap)["coproduct_identification"]})

    def semiadd_rep1():
        rep = gspace.semiadditivity_probe(gspace.gamma_rep(1), 6)
        return {"all_iso": rep["all_iso"], "coproduct": rep["coproduct_identification"],
                "points": [rep["levels"][n]["convolved_points"][0] for n in range(7)]}
    add("semiadd-rep1-6", semiadd_rep1)
    return cases


# ---------------------------------------------------------------------------
# cli: the command users run, in process, on JSON files written at set-up


CLI_DIR = os.path.join(".bench_out", "cli")


def _map_pool():
    """The maps whose pushout-products criterion 10 checks for monos."""
    return [
        shapes.inclusion_map(shapes.boundary(1), shapes.standard_simplex(1)),
        shapes.inclusion_map(shapes.boundary(2), shapes.standard_simplex(2)),
        shapes.simplex_inclusion(shapes.horn(2, 1), 2),
        shapes.simplex_inclusion(shapes.horn(2, 0), 2),
        simplicial.identity_map(shapes.standard_simplex(1)),
    ]


# pushout-products of two 2-dimensional maps cost 0.17-0.21 s, the rest
# under 0.05 s
PP_HEAVY = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]


def run_cli(argv):
    """Run one command in process; returns (exit code, report).  The
    report's `seconds` field is dropped so the digest is deterministic."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    report = json.loads(out.getvalue())
    report.pop("seconds", None)
    return code, report


def _report_digest(report):
    return hashlib.sha256(jsonio.canonical_dumps(report).encode()).hexdigest()[:16]


# commands drawn per pass from each family.  The heavy pushout-products
# (0.17-0.21 s) all run, so case_s.tail falls inside that cost class for
# every seed.  tau1, j and mark run on every category, so the light cases
# around case_s.p50 have the same mix for every seed.
CLI_DRAWS = {"factorize": 16, "segal-check": 4, "convolve": 8, "pushout-product": 4,
             "pushout-product-heavy": 9, "tau1": 7, "j": 7, "mark": 14}


def _cli_commands():
    """Every command any seed can draw, as key -> (argv, inputs).  inputs
    maps each JSON file the command reads, relative to the root (so report
    digests do not depend on where the checkout lives), to a function
    that makes its content; only the files of drawn commands are written."""
    commands = {}
    for n in range(4):
        for m in range(1, 3):
            for f in gammaop.enumerate_homs(n, m):
                commands[f"factorize-{n}-{m}-{''.join(map(str, f.table))}"] = ([
                    "factorize", "--src", str(n), "--dst", str(m),
                    "--map", ",".join(map(str, f.table))], {})
    # loading a level-4 family from JSON takes about 6 s, level 3 about 0.1 s
    families = {"z2": lambda: corpus.z2_monoid_space(3),
                "max": lambda: corpus.max_monoid_space(3),
                "terminal": lambda: gspace.terminal_gamma_space(3)}
    for name, make in families.items():
        path = os.path.join(CLI_DIR, f"fam-{name}.json")
        inputs = {path: lambda make=make: jsonio.tabulated_to_json(make())}
        for k in range(1, 3):
            for l in range(1, 4 - k):
                commands[f"segal-check-{name}-{k}-{l}"] = (
                    ["segal-check", path, "--k", str(k), "--l", str(l)], inputs)
    path = os.path.join(CLI_DIR, "fam-rep1.json")
    commands["segal-check-rep1-1-1"] = (
        ["segal-check", path, "--k", "1", "--l", "1"],
        {path: lambda: jsonio.tabulated_to_json(gspace.gamma_rep(1).tabulate(2))})
    presented = dict(corpus.presented_corpus())
    pres = {name: (os.path.join(CLI_DIR, f"pres-{name}.json"),
                   lambda name=name: jsonio.presented_to_json(presented[name]))
            for name in LIGHT_PRESENTED}
    for a in LIGHT_PRESENTED:
        for b in LIGHT_PRESENTED:
            commands[f"convolve-{a}-{b}"] = (
                ["convolve", pres[a][0], pres[b][0], "--level-bound", "3"],
                dict([pres[a], pres[b]]))

    def map_json(i):
        f = _map_pool()[i]
        return {"source": jsonio.simpset_to_json(f.source),
                "target": jsonio.simpset_to_json(f.target),
                "map": jsonio.simpmap_to_json(f)}

    maps = [(os.path.join(CLI_DIR, f"map-{i}.json"), lambda i=i: map_json(i))
            for i in range(5)]
    for i in range(5):
        for j in range(5):
            commands[f"pushout-product-{i}{j}"] = (
                ["pushout-product", maps[i][0], maps[j][0]], dict([maps[i], maps[j]]))
    for name, cat in corpus.category_corpus():
        path = os.path.join(CLI_DIR, f"nerve-{name}.json")
        inputs = {path: lambda cat=cat: jsonio.simpset_to_json(nerve.nerve(cat, bound=2))}
        commands[f"tau1-{name}"] = (["tau1", path], inputs)
        commands[f"j-{name}"] = (["j", path], inputs)
        for kind in ("flat", "sharp"):
            commands[f"mark-{kind}-{name}"] = (["mark", path, "--kind", kind], inputs)
    return commands


def _write_inputs(root, inputs):
    os.makedirs(os.path.join(root, CLI_DIR), exist_ok=True)
    for rel, make in inputs.items():
        with open(os.path.join(root, rel), "w") as fh:
            fh.write(jsonio.canonical_dumps(make()))


def _cli_case(key, argv):
    def run():
        code, report = run_cli(argv)
        tags = [v["tag"] for v in report["verdicts"]]
        statuses = sorted({v["status"] for v in report["verdicts"]})
        return {"exit": code, "tags": tags if key.startswith("check-suite") else len(tags),
                "statuses": statuses, "digest": _report_digest(report)}
    return Case(key, run)


def _cli_cases(rng, root):
    commands = _cli_commands()
    heavy = {f"pushout-product-{i}{j}" for i, j in PP_HEAVY}
    keys = []
    for family, count in CLI_DRAWS.items():
        name = family.removesuffix("-heavy")
        members = sorted(k for k in commands if k.startswith(name + "-")
                         and (k in heavy) == family.endswith("-heavy"))
        keys += _pick(rng, members, count)
    _write_inputs(root, {rel: make for k in keys for rel, make in commands[k][1].items()})
    cases = [_cli_case(k, commands[k][0]) for k in keys]
    # check-suite runs law by law (see metrics.SUITE_LAWS), one case each
    cases += [_cli_case(f"check-suite-{tag}", ["check-suite", "--only", tag])
              for tag in SUITE_LAWS]
    return cases


_BUILDERS = {
    "cocart-lift": _cocart_cases,
    "gamma-laws": _gamma_cases,
    "cli": _cli_cases,
}

# statuses theory fixes in advance; golden.py refuses to record anything else
EXPECTED_FAILS = {"segal-rep1-1-1", "sm-qcat-rep1-1-1", "segal-check-rep1-1-1"}


def theory_ok(key, fingerprint):
    """Whether a fingerprint carries the status theory predicts for key."""
    want = FAILS if key in EXPECTED_FAILS else HOLDS
    if isinstance(fingerprint, str):
        return fingerprint == want
    if key.startswith("check-suite-") and fingerprint["tags"] != [key[len("check-suite-"):]]:
        return False  # a law that did not run has no verdict to compare
    if "exit" in fingerprint:
        return fingerprint["exit"] == (1 if want == FAILS else 0)
    if "status" in fingerprint:
        return fingerprint["status"] == want and fingerprint.get("agrees", True)
    if "tensor" in fingerprint:
        return fingerprint["tensor"] == fingerprint["hom"]
    if "points" in fingerprint and fingerprint["points"] != [(n + 1) ** 2 for n in range(7)]:
        return False
    flags = [v for k, v in fingerprint.items()
             if k in ("iso", "unit", "unique", "mono", "normalized", "counit_iso",
                      "edge_oracle", "agrees", "all_iso")]
    statuses = [v for k, v in fingerprint.items() if k in ("iso", "unit")]
    return (all(f is True or f == HOLDS for f in flags)
            and all(s == HOLDS for s in statuses)
            and all(fingerprint.get("coproduct", [True])))
