"""The based-set calculus: factorization uniqueness, closure, smash laws."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from gammaspace import jsonio
from gammaspace.cli import main
from gammaspace.gammaop import (
    GammaMorphism,
    delta_projection,
    enumerate_homs,
    factor_inert_active,
    gamma_identity,
    smash_element,
    smash_gamma,
    smash_twist,
    zero_map,
)


def morphisms(max_level=3):
    return st.tuples(st.integers(0, max_level), st.integers(0, max_level)).flatmap(
        lambda nm: st.tuples(
            st.just(nm[0]), st.just(nm[1]),
            st.lists(st.integers(0, nm[1]), min_size=nm[0], max_size=nm[0]),
        )
    ).map(lambda t: GammaMorphism(t[0], t[1], tuple(t[2])))


def test_then_indexes_like_the_per_entry_composite():
    # every composable pair up to level 4, against the composite that
    # calls the second map once per entry of the first
    for n, m, k in itertools.product(range(5), repeat=3):
        after = enumerate_homs(m, k)
        for f in enumerate_homs(n, m):
            assert ([f.then(g) for g in after]
                    == [GammaMorphism(n, k, tuple(map(g, f.table))) for g in after])


def test_spec_factorization_examples():
    f = GammaMorphism(3, 2, (0, 1, 2))
    inert, active, supp = factor_inert_active(f)
    assert supp == (2, 3)
    assert inert == GammaMorphism(3, 2, (0, 1, 2)) and inert.is_inert()
    assert active == gamma_identity(2)

    i, a, s = factor_inert_active(gamma_identity(4))
    assert i == a == gamma_identity(4) and s == (1, 2, 3, 4)

    z = GammaMorphism(2, 1, (0, 0))
    i, a, s = factor_inert_active(z)
    assert s == () and i == GammaMorphism(2, 0, (0, 0)) and a == GammaMorphism(0, 1, ())


@given(morphisms())
@settings(max_examples=100)
def test_factorization_recomposes(f):
    inert, active, _ = factor_inert_active(f)
    assert inert.then(active) == f
    assert inert.is_inert_ordered() and active.is_active()


def test_plain_inert_not_unique():
    # the swap composed with the fold is a second plain-inert/active pair
    fold = GammaMorphism(2, 1, (1, 1))
    swap = GammaMorphism(2, 2, (2, 1))
    assert swap.is_inert() and not swap.is_inert_ordered()
    assert swap.then(fold) == fold


def test_ordered_factorization_unique_exhaustive():
    for n in range(4):
        for m in range(4):
            for f in enumerate_homs(n, m):
                found = []
                for s in range(f.src + 1):
                    for it in enumerate_homs(f.src, s):
                        if not it.is_inert_ordered():
                            continue
                        for at in enumerate_homs(s, f.dst):
                            if at.is_active() and it.then(at) == f:
                                found.append((it, at))
                assert len(found) == 1
                assert found[0] == factor_inert_active(f)[:2]


def test_inert_active_closed_under_composition():
    for n in range(4):
        for m in range(4):
            for p in range(4):
                for f in enumerate_homs(n, m):
                    for g in enumerate_homs(m, p):
                        if f.is_inert() and g.is_inert():
                            assert f.then(g).is_inert()
                        if f.is_active() and g.is_active():
                            assert f.then(g).is_active()


def test_hom_counts():
    assert len(enumerate_homs(1, 2)) == 3
    assert len(enumerate_homs(0, 5)) == 1
    assert len(enumerate_homs(2, 2)) == 9


def test_smash_encoding():
    assert smash_element(2, 1, 3) == 4
    assert smash_element(0, 2, 3) == 0
    # unit: 1 smash n acts as the identity encoding
    for g in enumerate_homs(2, 3):
        assert smash_gamma(gamma_identity(1), g).table == g.table
    # absorbing: 0 smash n is the zero object
    assert smash_gamma(zero_map(0, 0), gamma_identity(2)).src == 0


def test_smash_functorial():
    homs22 = enumerate_homs(2, 2)
    homs21 = enumerate_homs(2, 1)
    homs12 = enumerate_homs(1, 2)
    for fa in homs22[:6]:
        for ga in homs21[:5]:
            for fb in homs12:
                for gb in homs22[:6]:
                    lhs = smash_gamma(fa.then(ga), fb.then(gb))
                    rhs = smash_gamma(fa, fb).then(smash_gamma(ga, gb))
                    assert lhs == rhs


def test_twist_is_involutive_iso():
    for k, l in [(1, 2), (2, 2), (2, 3)]:
        t = smash_twist(k, l)
        back = smash_twist(l, k)
        assert t.then(back) == gamma_identity(k * l)


def test_projection_inclusion_identities():
    # the summand inclusions k+ -> (k+l)+ and l+ -> (k+l)+, written out
    for k in range(4):
        for l in range(4):
            left = GammaMorphism(k, k + l, tuple(range(1, k + 1)))
            right = GammaMorphism(l, k + l, tuple(range(k + 1, k + l + 1)))
            assert left.then(delta_projection(k, l, "left")) == gamma_identity(k)
            assert right.then(delta_projection(k, l, "right")) == gamma_identity(l)
            assert left.then(delta_projection(k, l, "right")) == zero_map(k, l)


# -- based maps as values -----------------------------------------------------


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_based_maps_compare_hash_sort_and_print_as_their_fields(n, m):
    homs = enumerate_homs(n, m)
    fields = [(f.src, f.dst, f.table) for f in homs]
    for f, t in zip(homs, fields):
        assert f == t and hash(f) == hash(t) and f.key() == t
        assert GammaMorphism(*t) == f and type(GammaMorphism(*t)) is GammaMorphism
        assert repr(f) == f"({t[0]}+->{t[1]}+:{list(t[2])})" and str(f) == repr(f)
    assert sorted(homs) == list(homs) == [GammaMorphism(*t) for t in sorted(fields)]
    for (f, s_), (g, t) in itertools.product(list(zip(homs, fields))[:30], repeat=2):
        assert (f == g) == (s_ == t) and (f < g) == (s_ < t)


def test_enumerate_homs_is_kept_and_matches_product():
    for n in range(5):
        for m in range(5):
            homs = enumerate_homs(n, m)
            assert enumerate_homs(n, m) is homs and isinstance(homs, tuple)
            assert homs == tuple(GammaMorphism(n, m, t)
                                 for t in itertools.product(range(m + 1), repeat=n))


# a table of the wrong length, or with an entry above dst
ILL_FORMED = [(2, 1, (1,)), (1, 2, (1, 1)), (1, 1, (2,)), (2, 2, (0, 3))]


@pytest.mark.parametrize("src,dst,table", ILL_FORMED, ids=str)
def test_ill_formed_tables_are_refused_where_they_enter(capsys, src, dst, table):
    with pytest.raises(ValueError, match="ill-formed based map"):
        jsonio.gamma_morphism_from_json({"src": src, "dst": dst, "map": list(table)})
    code = main(["factorize", "--src", str(src), "--dst", str(dst),
                 "--map", ",".join(map(str, table))])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["verdicts"][0]["tag"] == "input"
