"""The default instance corpus the suites quantify over: small categories,
pointed complexes, presented and tabulated level families."""

from __future__ import annotations

from .catcore import (
    FinCat,
    cyclic_group_category,
    discrete_category,
    poset_category,
    terminal_category,
    walking_iso_category,
)
from .gspace import (
    PresentedGammaSpace,
    TabulatedGammaSpace,
    constant_gamma_space,
    coproduct_presented,
    discrete_monoid_space,
    gamma_rep,
    terminal_gamma_space,
)
from .gammaop import GammaMorphism
from .gspace import CellArrow, GammaCell
from .simplicial import FinSimpSet, SimplexRef, SimpMap, discrete_set
from .shapes import boundary, sphere_zero, standard_point, standard_simplex


def iso_with_tail_category() -> FinCat:
    """An isomorphism a <-> b with an extra arrow c -> a."""
    arrows = {
        "ida": ("a", "a"), "idb": ("b", "b"), "idc": ("c", "c"),
        "u": ("a", "b"), "v": ("b", "a"), "w": ("c", "a"), "wu": ("c", "b"),
    }
    compose = {
        ("ida", "ida"): "ida", ("idb", "idb"): "idb", ("idc", "idc"): "idc",
        ("u", "ida"): "u", ("idb", "u"): "u",
        ("v", "idb"): "v", ("ida", "v"): "v",
        ("v", "u"): "ida", ("u", "v"): "idb",
        ("w", "idc"): "w", ("ida", "w"): "w",
        ("u", "w"): "wu", ("wu", "idc"): "wu", ("idb", "wu"): "wu",
        ("v", "wu"): "w",
    }
    return FinCat(["a", "b", "c"], arrows,
                  {"a": "ida", "b": "idb", "c": "idc"}, compose)


def category_corpus():
    return [
        ("terminal", terminal_category()),
        ("arrow", poset_category(1)),
        ("triangle", poset_category(2)),
        ("walking-iso", walking_iso_category()),
        ("cyclic-2", cyclic_group_category(2)),
        ("discrete-2", discrete_category(["a", "b"])),
        ("iso-with-tail", iso_with_tail_category()),
    ]


def pointed_corpus():
    interval = FinSimpSet(
        1,
        {0: {"0": (), "1": ()}, 1: {"01": (SimplexRef("1"), SimplexRef("0"))}},
        pointed="0",
    )
    two = discrete_set(["p", "q"], pointed="p")
    return [
        ("point", FinSimpSet(0, {0: {"0": ()}}, pointed="0")),
        ("interval", interval),
        ("s0", sphere_zero()),
        ("two-points", two),
    ]


def glued_presentation() -> PresentedGammaSpace:
    """Two level-1 cells glued along a level-2 cell: a genuinely non-free
    colimit presentation."""
    pt = standard_point()
    cells = [GammaCell(2, pt), GammaCell(1, pt), GammaCell(1, pt)]
    proj_l = GammaMorphism(1, 2, (1,))
    proj_r = GammaMorphism(1, 2, (2,))
    ident = SimpMap(pt, pt, {(0, "0"): SimplexRef("0")})
    arrows = [
        CellArrow(0, 1, proj_l, ident),
        CellArrow(0, 2, proj_r, ident),
    ]
    return PresentedGammaSpace(cells, arrows)


def presented_corpus():
    d1 = standard_simplex(1)
    edge_pair = discrete_set(["x", "y"])
    return [
        ("rep0", gamma_rep(0)),
        ("rep1", gamma_rep(1)),
        ("rep2", gamma_rep(2)),
        ("rep1-interval", gamma_rep(1, d1)),
        ("rep1-two-points", gamma_rep(1, edge_pair)),
        ("rep2-interval", gamma_rep(2, d1)),
        ("rep1+rep1", coproduct_presented(gamma_rep(1), gamma_rep(1))),
        ("rep0+rep2", coproduct_presented(gamma_rep(0), gamma_rep(2))),
        ("rep1+rep0", coproduct_presented(gamma_rep(1), gamma_rep(0))),
        ("rep1-boundary2", gamma_rep(1, boundary(2))),
        ("glued", glued_presentation()),
    ]


def z2_monoid_space(level_bound) -> TabulatedGammaSpace:
    return discrete_monoid_space([0, 1], lambda a, b: (a + b) % 2, 0, level_bound)


def max_monoid_space(level_bound) -> TabulatedGammaSpace:
    """The idempotent monoid ({0,1}, max): a commutative monoid that is not
    a group."""
    return discrete_monoid_space([0, 1], max, 0, level_bound)


def tabulated_corpus(level_bound=4):
    return [
        ("monoid-z2", z2_monoid_space(level_bound)),
        ("monoid-max", max_monoid_space(level_bound)),
        ("terminal", terminal_gamma_space(level_bound)),
        ("rep1", gamma_rep(1).tabulate(level_bound)),
        ("constant-interval", constant_gamma_space(level_bound, standard_simplex(1))),
    ]
