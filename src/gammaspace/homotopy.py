"""Maximal sub Kan complexes, restricted exponentials, and the computable
homotopy-mapping-space model J(X^A)."""

from __future__ import annotations

from .nerve import edge_is_invertible, tau1
from .shapes import Exponential
from .simplicial import (
    FinSimpSet,
    SimplexRef,
    full_sub_on_edges,
    full_sub_on_vertices,
)


def j_qcat(x: FinSimpSet) -> FinSimpSet:
    """The largest sub Kan complex of a quasi-category: simplices all of
    whose edges become isomorphisms in the fundamental category."""
    cat, edge_to_arrow = tau1(x)
    return full_sub_on_edges(
        x, lambda e: edge_is_invertible(e, cat, edge_to_arrow)
    )


def restricted_exp(x: FinSimpSet, a: FinSimpSet, dim_cap=None, budget=None):
    """The full sub-simplicial set of x^a on the vertices that factor
    through the inclusion of the largest sub Kan complex of x.

    Over a = Delta[0] it is x itself.  Returns (space, exponential)."""
    exp = Exponential(x, a, dim_cap=dim_cap, budget=budget)
    cat, edge_to_arrow = tau1(x)

    def lands_in_j(vertex_name):
        m = exp.element_of(vertex_name)
        for e in a.cell_ids(1):
            img = m(_edge_in_product(exp, 0, e), 1)
            if not edge_is_invertible(img, cat, edge_to_arrow):
                return False
        return True

    return full_sub_on_vertices(exp.space, lands_in_j), exp


def _edge_in_product(exp: Exponential, n, edge_name):
    """The edge (degenerate simplex vertex, edge) of Delta[n] x a."""
    pair_ref = exp.frame(0, n)[3]
    vertex_edge = SimplexRef("0", (0,))
    return pair_ref(vertex_edge, SimplexRef(edge_name), 1)


def h_map_space(a: FinSimpSet, x: FinSimpSet, dim_cap=None, budget=None) -> FinSimpSet:
    """Computable model of the homotopy mapping space: J(x^a)."""
    exp = Exponential(x, a, dim_cap=dim_cap, budget=budget)
    return j_qcat(exp.space)
