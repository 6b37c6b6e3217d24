"""Golden digests of the lifting verdicts.

Each case runs one lifting check on fixed inputs (corpus nerves, fixed
quotients of glued standard simplices, the diagrams of `test_cocart.py`
and identity and constant diagrams over the category corpus) and hashes
the canonical JSON of what it reports:

- `has_rlp`: status, witness and details against ∂Δ[1] ⊂ Δ[1],
  Λ¹[2] ⊂ Δ[2], Λ⁰[2] ⊂ Δ[2] and an identity, and runs cut short by
  the budget;
- `is_quasicategory_up_to`: status and witness;
- `cocartesian_edges`: the detected edges in order, the verdict JSON and
  the marked edges;
- `trivial_fibration_check`: status, witness and details.

`Budget.used` is not pinned: the verdicts are the product, what a search
charges is not.  To print the digests of the current code:

    PYTHONPATH=src python tests/test_lifting_golden.py
"""

import hashlib

import pytest

from test_shapes import spine_of_two_edges
from test_simplicial import glued_simplices

from gammaspace.catcore import poset_category, terminal_category, walking_iso_category
from gammaspace.cocart import (
    RelativeNerveInput,
    cocartesian_edges,
    gamma_diagram_input,
    relative_nerve,
)
from gammaspace.corpus import category_corpus, z2_monoid_space
from gammaspace.gspace import GammaSpaceMap, constant_gamma_space, trivial_fibration_check
from gammaspace.jsonio import canonical_dumps
from gammaspace.nerve import nerve
from gammaspace.shapes import (
    boundary,
    has_rlp,
    horn,
    is_quasicategory_up_to,
    standard_point,
    standard_simplex,
)
from gammaspace.simplicial import (
    FinSimpSet,
    SimplexRef,
    SimpMap,
    constant_map,
    discrete_set,
    identity_map,
    inclusion_map,
)
from gammaspace.verdicts import Budget
from test_simplicial import disjoint_union


def _verdict(v):
    return v.as_json()


def _lifting_spaces():
    spaces = [(f"nerve-{name}", nerve(c, bound=2)) for name, c in category_corpus()]
    spaces += [
        ("quotient-2-01", glued_simplices(2, {0, 1}).space),
        ("quotient-2-12", glued_simplices(2, {1, 2}).space),
        ("quotient-1-03", glued_simplices(1, {0, 3}).space),
        ("quotient-1-14", glued_simplices(1, {1, 4}).space),
        ("quotient-0-0", glued_simplices(0, {0}).space),
        ("spine", spine_of_two_edges()),
    ]
    return spaces


def _inclusions():
    return [
        ("boundary1", inclusion_map(boundary(1), standard_simplex(1))),
        ("horn21", inclusion_map(horn(2, 1), standard_simplex(2))),
        ("horn20", inclusion_map(horn(2, 0), standard_simplex(2))),
        ("identity1", identity_map(standard_simplex(1))),
    ]


def _rlp_cases():
    cases = {}
    for name, x in _lifting_spaces():
        def run(x=x):
            p = constant_map(x, standard_point(), "0")
            return [[i_name, _verdict(has_rlp(p, i))] for i_name, i in _inclusions()]
        cases[name] = run

    def budget_cut():
        j = nerve(walking_iso_category(), bound=2)
        p = constant_map(j, standard_point(), "0")
        i = inclusion_map(boundary(1), standard_simplex(1))
        return [_verdict(has_rlp(p, i, budget=Budget(limit))) for limit in (3, 12, 40)]

    def against_a_quotient():
        q = glued_simplices(2, {0, 1}).space
        p = constant_map(standard_simplex(1), standard_point(), "0")
        return [_verdict(has_rlp(p, inclusion_map(boundary(1), standard_simplex(1)))),
                _verdict(has_rlp(identity_map(q), inclusion_map(horn(2, 1),
                                                                 standard_simplex(2))))]

    cases["budget-cut"] = budget_cut
    cases["interval-and-identity"] = against_a_quotient
    return cases


def _coskeletal(x):
    """x with the same cells, read coskeletally above its bound."""
    return FinSimpSet(x.dim_bound, {n: {c: x.faces_of(n, c) for c in x.cell_ids(n)}
                                    for n in range(x.dim_bound + 1)}, complete=False)


def _qcat_cases():
    cases = {}
    for name, c in category_corpus():
        for bound, d in ((2, 2), (2, 3), (3, 3)):
            cases[f"nerve-{name}-bound{bound}-d{d}"] = (
                lambda c=c, bound=bound, d=d: _verdict(
                    is_quasicategory_up_to(nerve(c, bound=bound), d)))
    for name, x in _lifting_spaces()[len(category_corpus()):]:
        for d in (2, 3):
            cases[f"{name}-d{d}"] = lambda x=x, d=d: _verdict(is_quasicategory_up_to(x, d))
    # read coskeletally above its bound, the spine at bound 1 misses the
    # composite edge that fills its inner 2-horn
    cases["coskeletal-spine-d2"] = lambda: _verdict(
        is_quasicategory_up_to(_coskeletal(spine_of_two_edges()), 2))
    return cases


def _edges(total, proj, dim_cap):
    detected, verdict, marking = cocartesian_edges(total, proj, dim_cap)
    return {"detected": detected, "verdict": verdict.as_json(),
            "marked": None if marking is None else sorted(marking.marked.marked)}


def _diagram(base, values, maps):
    arrows = {base.identities[o]: identity_map(values[o]) for o in base.objects}
    arrows.update(maps)
    return RelativeNerveInput(base, values, arrows).validate()


def _cocart_cases():
    base = poset_category(1)
    cases = {}

    def identity_projection():
        nb = nerve(base, bound=2)
        return _edges(nb, identity_map(nb), 2)

    def walking_iso_twice():
        nw = nerve(walking_iso_category(), bound=2)
        rn = relative_nerve(_diagram(base, {"0": nw, "1": nw},
                                     {"le01": identity_map(nw)}), 2)
        return _edges(rn.total, rn.proj, 2)

    def missing_lift():
        nb = nerve(base, bound=2)
        pt = standard_point(bound=2)
        two, c1, c2 = disjoint_union(pt, pt)
        proj = SimpMap(two, nb, {
            (0, c1.assignment[(0, "0")].base): SimplexRef("o0"),
            (0, c2.assignment[(0, "0")].base): SimplexRef("o1"),
        })
        return _edges(two, proj, 2)

    def monoid_level1():
        m = z2_monoid_space(1)
        rn = relative_nerve(gamma_diagram_input(m, 1), 2)
        return _edges(rn.total, rn.proj, 2)

    def point_into_interval():
        pt, d1 = standard_point(bound=2), standard_simplex(1).rebound(2)
        rn = relative_nerve(_diagram(base, {"0": pt, "1": d1},
                                     {"le01": SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})}), 2)
        return _edges(rn.total, rn.proj, 2)

    def identity_projection_dim3():
        nb = nerve(poset_category(2), bound=3)
        return _edges(nb, identity_map(nb), 3)

    def spine_over_a_point():
        spine = spine_of_two_edges()
        point = nerve(terminal_category(), bound=2)
        return _edges(spine, constant_map(spine, point, point.cell_ids(0)[0]), 2)

    cases["identity-projection"] = identity_projection
    cases["identity-projection-dim3"] = identity_projection_dim3
    cases["spine-over-a-point"] = spine_over_a_point
    cases["walking-iso-twice"] = walking_iso_twice
    cases["missing-lift"] = missing_lift
    cases["monoid-level1"] = monoid_level1
    cases["point-into-interval"] = point_into_interval

    cats = dict(category_corpus())
    light = ["terminal", "arrow", "discrete-2", "cyclic-2"]
    for name in ("arrow", "triangle", "walking-iso", "cyclic-2", "discrete-2",
                 "iso-with-tail"):
        def identity_diagram(name=name):
            nc = nerve(cats[name], bound=2)
            rn = relative_nerve(_diagram(base, {"0": nc, "1": nc},
                                         {"le01": identity_map(nc)}), 2)
            return _edges(rn.total, rn.proj, 2)
        cases[f"identity-{name}"] = identity_diagram
    for src in light:
        for dst in light:
            def constant_diagrams(src=src, dst=dst):
                ns, nd = nerve(cats[src], bound=2), nerve(cats[dst], bound=2)
                out = []
                for obj in cats[dst].objects:
                    rn = relative_nerve(_diagram(base, {"0": ns, "1": nd}, {
                        "le01": constant_map(ns, nd, f"o{obj}")}), 2)
                    out.append([obj, _edges(rn.total, rn.proj, 2)])
                return out
            cases[f"constant-{src}-to-{dst}"] = constant_diagrams
    return cases


def _trivial_fibration_cases():
    def identity():
        m = z2_monoid_space(2)
        ident = GammaSpaceMap(m, m, {n: identity_map(m.value(n)) for n in range(3)})
        return _verdict(trivial_fibration_check(ident, level_cap=1, dim_cap=1))

    def inclusion():
        one, two = discrete_set(["a"]), discrete_set(["a", "b"])
        inc = GammaSpaceMap(
            constant_gamma_space(2, one), constant_gamma_space(2, two),
            {n: SimpMap(one, two, {(0, "a"): SimplexRef("a")}) for n in range(3)},
        )
        return _verdict(trivial_fibration_check(inc, level_cap=1, dim_cap=1))

    return {"identity": identity, "inclusion": inclusion}


CASES = {
    **{f"has-rlp/{k}": v for k, v in _rlp_cases().items()},
    **{f"quasicategory/{k}": v for k, v in _qcat_cases().items()},
    **{f"cocartesian/{k}": v for k, v in _cocart_cases().items()},
    **{f"trivial-fibration/{k}": v for k, v in _trivial_fibration_cases().items()},
}

# recorded before the lifting checks shared one square search
DIGESTS = {
    "cocartesian/constant-arrow-to-arrow": "385ad793845cb3d5b992cc6679d76de118ee51181c77e23e1009a30123f4224f",
    "cocartesian/constant-arrow-to-cyclic-2": "78da08806c42468b1054091ddef5970d0d5ce5e959a445ac59d55b0ed1d6d715",
    "cocartesian/constant-arrow-to-discrete-2": "2e67ca72a9d9ae33f3ab6dc1f56e6b628c2ccee51a80ed8a5f1fcc873ab09515",
    "cocartesian/constant-arrow-to-terminal": "a9fa27813e5c3f65f7904659874d97053650005334c95595e519b16cbaed98c4",
    "cocartesian/constant-cyclic-2-to-arrow": "66fa8b894ee6aa8dd4d0fe3ee0b16e8ca3232bf1449756bad36b4a6ea4790edc",
    "cocartesian/constant-cyclic-2-to-cyclic-2": "a242d75a960fa6bbdc8a472d6dc194e71597f498efa7779bb9e9da257d165c50",
    "cocartesian/constant-cyclic-2-to-discrete-2": "49227667493b114929c948fc1540b1b746ba82091d941d8a1352e65dad0ef7d7",
    "cocartesian/constant-cyclic-2-to-terminal": "25158c1601d0cdb0e2f30a2b3bcc32eceaa256759579f482c8b365fcc822d19e",
    "cocartesian/constant-discrete-2-to-arrow": "67b3f2567c0d79aabedbc18247d930d5320f8be26f5385a224fe0a31c7214fd9",
    "cocartesian/constant-discrete-2-to-cyclic-2": "d91fabb7a00a639fd15a6f6bbbe8f5cdea9e435fc6e67248d90e842d0ea05f6e",
    "cocartesian/constant-discrete-2-to-discrete-2": "49227667493b114929c948fc1540b1b746ba82091d941d8a1352e65dad0ef7d7",
    "cocartesian/constant-discrete-2-to-terminal": "25158c1601d0cdb0e2f30a2b3bcc32eceaa256759579f482c8b365fcc822d19e",
    "cocartesian/constant-terminal-to-arrow": "fb5e47bcf8252247f2f45642289de989de03d6cd86bdf055653b82771b7477f1",
    "cocartesian/constant-terminal-to-cyclic-2": "0481d4cc192534da5967eb10bd497966e1cd776b41fd6102bddcdefe9e9ca615",
    "cocartesian/constant-terminal-to-discrete-2": "f3ab27e171803cc39a9738be0c8dcf6606e0142a14b4b46b0d142de20657e844",
    "cocartesian/constant-terminal-to-terminal": "8d027f663b0733c9c2a99e9a1d36d7e5ec367349729a953b4f5c9f05de7e969b",
    "cocartesian/identity-arrow": "0278c435cd79b2b68989a9a53979cc9633cb1fa42572828ba4915f8d5160a564",
    "cocartesian/identity-cyclic-2": "a5e0084ded933629f59873bdf05e71c728a89ef34f7c192eae283576e83174a6",
    "cocartesian/identity-discrete-2": "06c4fda5bc6135137e74ef96cea23099abdc63b459bba677c2e1eff335c2bcba",
    "cocartesian/identity-iso-with-tail": "cd4a178ae7044f3d405d7a621a726d60ac764d7f0345834df73c5bf0da0a9ece",
    "cocartesian/identity-projection": "110e46c497d7f05b1042c6e1d0677f2081d1efb85574874c382688544523c84d",
    "cocartesian/identity-projection-dim3": "095b5d86525f12554ad6e5799faee0726c6a0d2668ae4fe9842a3f4d8248f1c8",
    "cocartesian/identity-triangle": "86b29e1ae17840b4aa94337bca317467ce99a737ab83dc3c68edc33b62dba2fd",
    "cocartesian/identity-walking-iso": "c994be651e831870f530bec8d94db3ea601ad195f8b81a38e85f6da47424b2cd",
    "cocartesian/missing-lift": "6c7df897598a00dbbe97a998875a300e8d7f51e1b3c7da65c9db50881c745ff1",
    "cocartesian/monoid-level1": "f500b0615e6ac3e707a4a69ff13a67172d68d5a32b5e9c701fad5054cd8163bf",
    "cocartesian/point-into-interval": "86315c99fcfd4d65276e2444452b05a39e7daa3682f4d172699bf9b4454d4519",
    "cocartesian/spine-over-a-point": "e4ae3f4c37048adf3aac2d56eb5a4fb0aded99569c0c8ac99f0c12184917f9ec",
    "cocartesian/walking-iso-twice": "c994be651e831870f530bec8d94db3ea601ad195f8b81a38e85f6da47424b2cd",
    "has-rlp/budget-cut": "e80b759501e4ea71e717f747c0e69d87ec3dbb78559c6208f73b533ae6a915e2",
    "has-rlp/interval-and-identity": "e985de0b9919a2a9cc425e243c35a0a062e82b190924505c55bb58afd7c0c626",
    "has-rlp/nerve-arrow": "e474e84625e72ef1da44442bb09d63b98ad57018e1d89a75deeb8fdefc82762d",
    "has-rlp/nerve-cyclic-2": "412d697ef18a90ff0f1188f27bdab81aea34730bc64b29e319f80a3835a91279",
    "has-rlp/nerve-discrete-2": "c5f7cf68e2a18693cd81bd995d51f8f4d8866867fafab714aa82c3120faf2be5",
    "has-rlp/nerve-iso-with-tail": "3acb8a1a6f109992b4960d2a2b7b3daac4c8d306572b2005cb78dd4dfb406024",
    "has-rlp/nerve-terminal": "15997633bfcd35ca022d8644ce1cb852a1609190857249ab53f162b41f865342",
    "has-rlp/nerve-triangle": "305b2970de06afd6f15097b804fb18c5b1be4220fb7e4d831266d7e2aaf7f12f",
    "has-rlp/nerve-walking-iso": "2e6fdbfd19aa9b5ab43fd08f848bd7d8454d76050806842e153c2974e8bd5a41",
    "has-rlp/quotient-0-0": "eedd984f4cc6326d10a9c844464703049c3f0204966265562efdb8fa4bf1fe64",
    "has-rlp/quotient-1-03": "1f389838b262fff0b5c3708ec6e47389b31753e4af56cec24c47783e06b3448a",
    "has-rlp/quotient-1-14": "bfafd315e80506f6e7287170ff2ec1c5b0296c5ab06788ccae926d586302933d",
    "has-rlp/quotient-2-01": "d9908b9d2ea4315d74349bf4ffa3f3be16eb85e3dd3b350bcb9d706e94f29e8c",
    "has-rlp/quotient-2-12": "2f3f5ea8e318e13bc35f3e398119aa68cf4d2b790c79bb1020e3fb1eb2253c31",
    "has-rlp/spine": "4aeb862693937a057545c69b8c4ac3bcabef4daf687e76206cfda25e60210feb",
    "quasicategory/coskeletal-spine-d2": "06009282956bdfb1fd9038ebee1bac8adbe53f437b73fc53eb8e8560d39cea7b",
    "quasicategory/nerve-arrow-bound2-d2": "50ab8d3ab6e9aaef78325cc616fbfbcbbdd9d45c5b0c5235e1886302049fe0ad",
    "quasicategory/nerve-arrow-bound2-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-arrow-bound3-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-cyclic-2-bound2-d2": "50ab8d3ab6e9aaef78325cc616fbfbcbbdd9d45c5b0c5235e1886302049fe0ad",
    "quasicategory/nerve-cyclic-2-bound2-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-cyclic-2-bound3-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-discrete-2-bound2-d2": "50ab8d3ab6e9aaef78325cc616fbfbcbbdd9d45c5b0c5235e1886302049fe0ad",
    "quasicategory/nerve-discrete-2-bound2-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-discrete-2-bound3-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-iso-with-tail-bound2-d2": "50ab8d3ab6e9aaef78325cc616fbfbcbbdd9d45c5b0c5235e1886302049fe0ad",
    "quasicategory/nerve-iso-with-tail-bound2-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-iso-with-tail-bound3-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-terminal-bound2-d2": "50ab8d3ab6e9aaef78325cc616fbfbcbbdd9d45c5b0c5235e1886302049fe0ad",
    "quasicategory/nerve-terminal-bound2-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-terminal-bound3-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-triangle-bound2-d2": "50ab8d3ab6e9aaef78325cc616fbfbcbbdd9d45c5b0c5235e1886302049fe0ad",
    "quasicategory/nerve-triangle-bound2-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-triangle-bound3-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-walking-iso-bound2-d2": "50ab8d3ab6e9aaef78325cc616fbfbcbbdd9d45c5b0c5235e1886302049fe0ad",
    "quasicategory/nerve-walking-iso-bound2-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/nerve-walking-iso-bound3-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/quotient-0-0-d2": "50ab8d3ab6e9aaef78325cc616fbfbcbbdd9d45c5b0c5235e1886302049fe0ad",
    "quasicategory/quotient-0-0-d3": "90e3ca5e3ae3d8c63e64702b082ffc625311de8b06852970203114b27ae711a9",
    "quasicategory/quotient-1-03-d2": "57e5b61d45abc94f3b69d0411a9b22574e3c21da787e4a7d19fb61ccf0d6c16e",
    "quasicategory/quotient-1-03-d3": "52d10562de4ba8a7ea9e94d23b307816c7d8bf96b501a545d8056162eb72ea88",
    "quasicategory/quotient-1-14-d2": "a8ba43f5a2253fcfb394d4433fa544655dd81d9376e32c43d837dbf3ed04bfe2",
    "quasicategory/quotient-1-14-d3": "56cdb7ed094308fbd0db3b9a32418e5ef44e2ed75cd4ce21051f2cdfeb8c802a",
    "quasicategory/quotient-2-01-d2": "873d0368268042a732e1bf506c0d4ff6b7ec9a8d42cbae8e7f4d0ed79509f91b",
    "quasicategory/quotient-2-01-d3": "44895e837b76498b31f74cfb4775d4662af01648213a5111007d94b4a7154731",
    "quasicategory/quotient-2-12-d2": "a348663d2319fe7cbf3cae9551a7d348f02396df2a4717a82c48b24da6babea0",
    "quasicategory/quotient-2-12-d3": "0060baac79a5deca1d49ba040faf7795036ba5906222184fe50a7debe1c4e5c5",
    "quasicategory/spine-d2": "06009282956bdfb1fd9038ebee1bac8adbe53f437b73fc53eb8e8560d39cea7b",
    "quasicategory/spine-d3": "468bca75afaf2031380bf891736a44a389887cb7f4b66a4811ed4c8ba3c03d7d",
    "trivial-fibration/identity": "b2032ce1900f3670154b3b9d4db27c446c7ad814b910f37cc6fb8408b6b3397b",
    "trivial-fibration/inclusion": "5b5100c184c7e67e160e6229fcf2a30caa46ed2e0a61fdcd1bf21950a51a8f07",
}


def _digest(case):
    return hashlib.sha256(canonical_dumps(CASES[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_lifting_digests(case):
    assert _digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(case)}",')
