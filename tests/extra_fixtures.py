"""Structures that only the tests build; the fixture corpus does not use them."""

from dataclasses import replace

from ogaction import fixtures as fx
from ogaction.actions import Action
from ogaction.algebras import Algebra
from ogaction.groupoids import OrderedGroupoid
from ogaction.linalg import LinMap, Subspace
from ogaction.semigroups import InverseSemigroup


def order_two_group() -> OrderedGroupoid:
    """The order-2 group as a one-object groupoid with the trivial order."""
    comp = [("one", "one", "one"), ("t", "t", "one"), ("one", "t", "t"), ("t", "one", "t")]
    return OrderedGroupoid.from_parts(["one", "t"], ["one"], {"one": "one", "t": "t"}, comp, [])


def pointed_arrow_restriction_ideal() -> Subspace:
    """The two-block ideal the block swap is restricted to."""
    return Subspace.span(3, [[0, 1, 0], [0, 0, 1]], fx.P)


def symmetric_monoid_i1() -> InverseSemigroup:
    """I_1: an identity and a zero, which multiply as the two-element chain."""
    return InverseSemigroup(["one", "zero"], fx.chain_semilattice().mult)


def nilpotent_edge_po_action() -> Action:
    """The square-zero edge with the order-2 group read as a groupoid."""
    edge = fx.nilpotent_edge_action()
    return replace(edge, structure=order_two_group(), name=f"{edge.name} (groupoid form)")


def multiplier_twist_algebra() -> Algebra:
    """Non-unital: v*w2 = w2*v = w1, every other product zero (basis w1, v, w2)."""
    return Algebra.from_products(fx.P, 3, ({}, {2: {0: 1}}, {1: {0: 1}}), name="multiplier twist")


def zero_ring_swap_action() -> Action:
    """A valid non-unital action whose skew ring is not associative: the order-2
    group swaps two zero-multiplying coordinates, which no multiplier can follow."""
    a = multiplier_twist_algebra()
    flat = Subspace.span(3, [[1, 0, 0], [0, 1, 0]], fx.P)
    maps = (LinMap.identity(a.space()), LinMap.from_images(flat, flat, [[0, 1, 0], [1, 0, 0]]))
    return Action(order_two_group(), a, (a.space(), flat), maps, name="zero-ring swap")


def zero_product_point() -> Action:
    """Valid but not even preunital: the trivial group on the zero-product line."""
    g = OrderedGroupoid.from_parts(["one"], ["one"], {"one": "one"}, [("one", "one", "one")], [])
    a = Algebra(fx.P, 1, [[(0,)]], name="zero line")
    return Action(g, a, (a.space(),), (LinMap.identity(a.space()),), name="zero line point")


def matrix_units_f2() -> Algebra:
    """2x2 matrix units over F_2; simple, noncommutative."""
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    table = [[[int(b == c and u == (a, d)) for u in units] for c, d in units] for a, b in units]
    return Algebra(2, 4, table, unit=[1, 0, 0, 1], name="matrix units")


def first_row_algebra(p: int, n: int, opposite: bool = False) -> Algebra:
    """The matrices of M_n supported on the first row, b_j = E_0j:
    b_0 b_j = b_j and every other product is 0, so b_0 is a left unit and a
    right unit only when n = 1.  The opposite ring swaps the sides."""
    if opposite:
        products = tuple({0: {j: 1}} for j in range(n))
    else:
        products = ({j: {j: 1} for j in range(n)}, *({} for _ in range(1, n)))
    return Algebra.from_products(p, n, products, name="first row")
