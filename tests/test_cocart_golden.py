"""Golden digests of the relative nerve and the constructions around it.

Each case builds one construction on fixed inputs and hashes the canonical
JSON of what it returns:

- `relative_nerve`, on the diagrams of `test_lifting_golden.py`: the total
  space, the projection, and the element behind each cell name;
- `upsilon(1, 1, 2)` and `upsilon(0, 1, 2)`: the comparison map, its
  source and its target;
- `marked_mapping_space` on the input `check-suite` runs it on: the space,
  and the family of maps behind each cell name.

Cell names follow the sorted order of the element keys, so any change to
which elements qualify, to their keys, or to the face and degeneracy
structure moves a digest.  To print the digests of the current code:

    PYTHONPATH=src python tests/test_cocart_golden.py
"""

import hashlib

import pytest

from test_lifting_golden import _diagram

from gammaspace.catcore import poset_category, walking_iso_category
from gammaspace.cocart import relative_nerve, upsilon
from gammaspace.corpus import category_corpus, z2_monoid_space
from gammaspace.gspace import gamma_rep
from gammaspace.jsonio import (
    canonical_dumps,
    over_object_to_json,
    simpmap_to_json,
    simpset_to_json,
)
from gammaspace.marked import gamma_flat, marked_mapping_space
from gammaspace.nerve import nerve
from gammaspace.shapes import standard_point, standard_simplex
from gammaspace.simplicial import SimplexRef, SimpMap, constant_map, identity_map


def _cells(space):
    return [name for n in range(space.dim_bound + 1) for name in space.cell_ids(n)]


def _relative_nerve(inp):
    rn = relative_nerve(inp, 2)
    return {"total": simpset_to_json(rn.total), "proj": simpmap_to_json(rn.proj),
            "elements": {name: rn.element_of(name) for name in _cells(rn.total)}}


def _relative_nerve_cases():
    """The relative-nerve diagrams of `test_lifting_golden.py`."""
    base = poset_category(1)
    cats = dict(category_corpus())

    def walking_iso_twice():
        nw = nerve(walking_iso_category(), bound=2)
        return _relative_nerve(_diagram(base, {"0": nw, "1": nw}, {"le01": identity_map(nw)}))

    def monoid_level1():
        m = z2_monoid_space(1)
        return _relative_nerve(m)

    def point_into_interval():
        pt, d1 = standard_point(bound=2), standard_simplex(1).rebound(2)
        return _relative_nerve(_diagram(base, {"0": pt, "1": d1}, {
            "le01": SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})}))

    cases = {
        "walking-iso-twice": walking_iso_twice,
        "monoid-level1": monoid_level1,
        "point-into-interval": point_into_interval,
    }
    for name in ("arrow", "triangle", "walking-iso", "cyclic-2", "discrete-2",
                 "iso-with-tail"):
        def identity_diagram(name=name):
            nc = nerve(cats[name], bound=2)
            return _relative_nerve(_diagram(base, {"0": nc, "1": nc},
                                            {"le01": identity_map(nc)}))
        cases[f"identity-{name}"] = identity_diagram
    light = ["terminal", "arrow", "discrete-2", "cyclic-2"]
    for src in light:
        for dst in light:
            def constant_diagrams(src=src, dst=dst):
                ns, nd = nerve(cats[src], bound=2), nerve(cats[dst], bound=2)
                return [[obj, _relative_nerve(_diagram(base, {"0": ns, "1": nd}, {
                    "le01": constant_map(ns, nd, f"o{obj}")}))]
                    for obj in cats[dst].objects]
            cases[f"constant-{src}-to-{dst}"] = constant_diagrams
    return cases


def _upsilon(k, l):
    cmp, src, tgt = upsilon(k, l, 2)
    return {"map": simpmap_to_json(cmp), "source": over_object_to_json(src),
            "target": over_object_to_json(tgt)}


def _marked_mapping_space():
    m = z2_monoid_space(2)
    space, ms = marked_mapping_space(gamma_flat(m), gamma_flat(m), gamma_rep(1), dim_cap=1)
    shape = simpset_to_json(space)
    # not the completeness flag: a copy through `_subset_of` is always
    # marked complete, while the mapping space itself is truncated at its
    # cap; the cells and the families behind them are pinned
    shape.pop("truncated", None)
    return {"space": shape,
            "elements": {name: [f.key() for f in ms.element_of(name)]
                         for name in _cells(space)}}


CASES = {
    **{f"relative-nerve/{k}": v for k, v in _relative_nerve_cases().items()},
    "upsilon/1-1-2": lambda: _upsilon(1, 1),
    "upsilon/0-1-2": lambda: _upsilon(0, 1),
    "marked-mapping-space/check-suite": _marked_mapping_space,
}

# recorded before the relative nerve ran on the shared backtracking engine
DIGESTS = {
    "marked-mapping-space/check-suite": "e01f9a20c2cebedf9385fc830573f7b3bf26a56419a389cb21992ce880d9610f",
    "relative-nerve/constant-arrow-to-arrow": "fe821d44172941b658e41c740b7cc1968bf30dfa51d02acaa35b16e64792cb9f",
    "relative-nerve/constant-arrow-to-cyclic-2": "49843a4cd91ae0ed56e587be90134f953b7ab6d0ca743cba6bdcb2f489889f73",
    "relative-nerve/constant-arrow-to-discrete-2": "e551148e004a6f0c7577eeaa928d7414f9aedb644aa519dac7ec167da8145ec2",
    "relative-nerve/constant-arrow-to-terminal": "f72f597fd2b637a3048b1676c098e78527a265c8554e742c0631a697b356ddd6",
    "relative-nerve/constant-cyclic-2-to-arrow": "c0387efaf8f8c8be845d465fbb19f9d6df22b40e86b211b44b12e6b30c9e8985",
    "relative-nerve/constant-cyclic-2-to-cyclic-2": "b9b1818e19c7fe2e4ef0612fde7b737b7d46dbffe36982be761cdd9b02857029",
    "relative-nerve/constant-cyclic-2-to-discrete-2": "691f2903cb28bc623fc80c5784ee4cc958a9e195bbb80bcfd641a9752ce45852",
    "relative-nerve/constant-cyclic-2-to-terminal": "92757447a913f0f587b6e3202f68ef8fd93c16ee4d32632775bef91bf0846783",
    "relative-nerve/constant-discrete-2-to-arrow": "194cf8a7b1671df8ce8badf8f591c0aeb72bb84acd5457d79dcc8581c6ea31f5",
    "relative-nerve/constant-discrete-2-to-cyclic-2": "ad8edbd3f648d629a00fc3c2a5a3763e059533016eae0500c24d1b11605d8be3",
    "relative-nerve/constant-discrete-2-to-discrete-2": "649c32fef654f0922aa49dcd3a507cf5d8a7d1f218350750d1497a4ae71e44da",
    "relative-nerve/constant-discrete-2-to-terminal": "750d02526934cfbda71fa8aa4e4c2e5a2ac836100d636ff8c6ddad2c81cf6a51",
    "relative-nerve/constant-terminal-to-arrow": "40dbb51eb7b34ca19845daccb769feecade65658111f1ac62d19ba2396a05fb4",
    "relative-nerve/constant-terminal-to-cyclic-2": "3428e419eccab1e9ad0d1cd3249d0a66618b5a9869b1f170036686ceeb95e8d0",
    "relative-nerve/constant-terminal-to-discrete-2": "3a6a28d90fdd0a8fc9d62181f337c9640f160cdb1c95530595c3924285d4198c",
    "relative-nerve/constant-terminal-to-terminal": "b15b3f77d6e47dc086d6a2b44b92f86d0496555295af6b3febe597ed1340458e",
    "relative-nerve/identity-arrow": "ab0961ad2fc9564ebe5b05aded5af81b13b59bc5967f287b00c06add02fffa04",
    "relative-nerve/identity-cyclic-2": "5e54a3c923d9ec128cd62f69611c264b6e97f8538ab2105d18433dabec78d526",
    "relative-nerve/identity-discrete-2": "2ee36419f2af01b806ff7a216c50e3f6fc9d20036a8d5793b6674e9985a27da7",
    "relative-nerve/identity-iso-with-tail": "4c1f2c9b485ebc2912247c2e31ace3e3df95a0898878040fb52cddbaba7c7959",
    "relative-nerve/identity-triangle": "9819a6178b7849af96399b4d0ce34c8ddc9afdef82db8726f4a536e02b8d6001",
    "relative-nerve/identity-walking-iso": "396742e70ad55026f990b62873dd287652b54887b40eb97bc366dde38d96c1a7",
    "relative-nerve/monoid-level1": "41565c8fb3f31e66239fb71bd397802a8046b165f77c9443594f1719f3644f3e",
    "relative-nerve/point-into-interval": "ef40235d8080a21a668a45a7abd409ce3826e4307618ab56c2e67cdaad4031f5",
    "relative-nerve/walking-iso-twice": "396742e70ad55026f990b62873dd287652b54887b40eb97bc366dde38d96c1a7",
    "upsilon/0-1-2": "a05e608ed2659a05e866bd7f4b84ce649c96c1f10ef2bcc2eb8005fb7fa36fdc",
    "upsilon/1-1-2": "a67040375346535d208ac03c151bdd2325962f58c8e4076a721ee90566c8031f",
}


def _digest(case):
    return hashlib.sha256(canonical_dumps(CASES[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cocart_digests(case):
    assert _digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(case)}",')
