"""Finite categories: subgroupoids, equivalences, slices, functor categories."""

import pytest

from gammaspace.catcore import (
    FinCat,
    all_functors,
    coslice_category,
    cyclic_group_category,
    discrete_category,
    equivalence_check,
    functor_category,
    max_subgroupoid,
    poset_category,
    product_category,
    skeleton,
    terminal_category,
    walking_iso_category,
)
from gammaspace.corpus import category_corpus, iso_with_tail_category


def test_validation_catches_bad_tables():
    # right unit law broken: f o id = id
    with pytest.raises(ValueError):
        FinCat(["a"], {"ida": ("a", "a"), "f": ("a", "a")},
               {"a": "ida"},
               {("ida", "ida"): "ida", ("f", "ida"): "ida", ("ida", "f"): "f",
                ("f", "f"): "ida"}).validate()


def test_every_category_built_in_tier_one_is_validated():
    # tests/conftest.py validates each FinCat as it is constructed
    with pytest.raises(ValueError, match="right unit law fails"):
        FinCat(["a"], {"ida": ("a", "a"), "f": ("a", "a")}, {"a": "ida"},
               {("ida", "ida"): "ida", ("f", "ida"): "ida", ("ida", "f"): "f",
                ("f", "f"): "ida"})


@pytest.mark.parametrize("name,c", category_corpus())
def test_constructed_functors_are_functors(name, c):
    # the constructions trust their input and do not check their functors
    max_subgroupoid(c)[1].validate()
    _, retraction, inclusion = skeleton(c)
    retraction.validate()
    inclusion.validate()
    for a in c.objects:
        coslice_category(c, a)[1].validate()


def test_full_faithful_essentially_surjective_functors_keep_iso_classes():
    # why segal_check's ho-necessary tier counts no iso classes: an
    # equivalence has as many in its source as in its target
    corpus = category_corpus()
    equivalences = 0
    for _, c in corpus:
        for _, d in corpus:
            for fun in all_functors(c, d):
                if fun.is_full_faithful_ess_surjective()[0]:
                    assert len(c.iso_classes()) == len(d.iso_classes())
                    equivalences += 1
    assert equivalences == 20


def test_max_subgroupoid():
    jw, incl = max_subgroupoid(walking_iso_category())
    assert len(jw.arrows) == 4
    jp, _ = max_subgroupoid(poset_category(2))
    assert len(jp.arrows) == 3
    jx, _ = max_subgroupoid(iso_with_tail_category())
    assert sorted(jx.arrows) == ["ida", "idb", "idc", "u", "v"]
    # idempotent
    again, _ = max_subgroupoid(jx)
    assert sorted(again.arrows) == sorted(jx.arrows)


def test_equivalence_check():
    t = terminal_category()
    w = walking_iso_category()
    v = equivalence_check(w, t)
    assert v.holds
    ok, _ = v.witness.is_full_faithful_ess_surjective()
    assert ok
    assert equivalence_check(discrete_category(["a", "b"]), t).fails
    for name, c in category_corpus():
        assert equivalence_check(c, c).holds, name
    # symmetric on a corpus pair
    assert equivalence_check(t, w).holds
    # equivalent categories have equal iso-class counts and matching
    # hom-set cardinality profiles between class representatives
    assert len(w.iso_classes()) == len(t.iso_classes())
    witness = equivalence_check(w, t).witness
    for a in w.objects:
        for b in w.objects:
            assert len(w.hom(a, b)) == len(t.hom(witness.obj(a), witness.obj(b)))


def test_skeleton_collapses_isos():
    w = walking_iso_category()
    skel, retract, include = skeleton(w)
    assert len(skel.objects) == 1
    assert retract.then(include).is_full_faithful_ess_surjective()[0]


def test_coslice():
    t = terminal_category()
    ct, proj, _ = coslice_category(t, "*")
    assert len(ct.objects) == 1
    c1, proj1, _ = coslice_category(poset_category(1), "0")
    assert equivalence_check(c1, poset_category(1)).holds
    proj1.validate()
    # fibers of the projection biject with hom(c, x)
    p2 = poset_category(2)
    cos, proj2, _ = coslice_category(p2, "0")
    for x in p2.objects:
        fiber = [o for o in cos.objects if proj2.obj(o) == x]
        assert len(fiber) == len(p2.hom("0", x))


def _two_triangles_one_name(a_b="a_b"):
    """Objects x, y, z; arrows a, a_b: x -> y, b_c, c: x -> z, d: y -> z,
    with d o a = b_c and d o a_b = c, so that the triangles (a, b_c, d)
    and (a_b, c, d) of x/C are both named ta_b_c_d.  `a_b` renames the
    second arrow out of x."""
    arrows = {"ix": ("x", "x"), "iy": ("y", "y"), "iz": ("z", "z"), "a": ("x", "y"),
              a_b: ("x", "y"), "b_c": ("x", "z"), "c": ("x", "z"), "d": ("y", "z")}
    identities = {"x": "ix", "y": "iy", "z": "iz"}
    compose = {("d", "a"): "b_c", ("d", a_b): "c"}
    for f, (s, t) in arrows.items():
        compose[(identities[t], f)] = compose[(f, identities[s])] = f
    return FinCat(["x", "y", "z"], arrows, identities, compose)


def test_coslice_refuses_two_triangles_with_one_name():
    with pytest.raises(ValueError, match="both named 'ta_b_c_d'"):
        coslice_category(_two_triangles_one_name(), "x")
    # renamed apart, x/C has all 11 commuting triangles: 5 out of the
    # identity of x, 2 out of each of a and e (over iy and d), 1 out of
    # each of b_c and c
    cos, proj, _ = coslice_category(_two_triangles_one_name(a_b="e"), "x")
    c = _two_triangles_one_name(a_b="e")
    want = sum(c.compose(h, f) == g for f in cos.objects for g in cos.objects
               for h in c.hom(c.dst(f), c.dst(g)))
    assert len(cos.arrows) == want == 11
    proj.validate()


def test_product_and_functor_categories():
    p1 = poset_category(1)
    pc = product_category(p1, p1)
    assert len(pc.objects) == 4 and len(pc.arrows) == 9
    fc, objs, _ = functor_category(p1, p1)
    assert len(fc.objects) == 3
    z2 = cyclic_group_category(2)
    fz, _, _ = functor_category(z2, z2)
    assert len(fz.objects) == 2
    assert len(all_functors(p1, poset_category(2))) == 6


def test_natural_transformations_compose():
    p1 = poset_category(1)
    fc, objs, data = functor_category(p1, poset_category(1))
    fc.validate()
    ids = [f for f in fc.arrow_ids() if fc.is_identity(f)]
    assert len(ids) == len(fc.objects)
