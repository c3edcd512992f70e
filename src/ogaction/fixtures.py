"""Golden fixtures: the small ordered groupoids, inverse semigroups, and
actions the fixture corpus (`corpus.py`) is built from.  All carriers are
over the prime field with p = 5."""

from __future__ import annotations

from .actions import Action
from .algebras import Algebra, diagonal_algebra
from .groupoids import OrderedGroupoid
from .linalg import LinMap, Subspace
from .semigroups import InverseSemigroup

P = 5


def pointed_arrow_groupoid() -> OrderedGroupoid:
    """One arrow s with distinct endpoints plus a minimum object below
    everything; the smallest ordered groupoid with a non-trivial order."""
    names = ["s", "s_inv", "r_s", "d_s", "e_min"]
    comp = [
        ("s", "s_inv", "r_s"),
        ("s_inv", "s", "d_s"),
        ("s", "d_s", "s"),
        ("r_s", "s", "s"),
        ("s_inv", "r_s", "s_inv"),
        ("d_s", "s_inv", "s_inv"),
        ("r_s", "r_s", "r_s"),
        ("d_s", "d_s", "d_s"),
        ("e_min", "e_min", "e_min"),
    ]
    order = [("e_min", "s"), ("e_min", "s_inv"), ("e_min", "r_s"), ("e_min", "d_s")]
    return OrderedGroupoid.from_parts(
        names,
        ["r_s", "d_s", "e_min"],
        {"s": "s_inv", "s_inv": "s", "r_s": "r_s", "d_s": "d_s", "e_min": "e_min"},
        comp,
        order,
    )


def pointed_arrow_global_action() -> Action:
    """The global ordered action on three orthogonal idempotent blocks:
    s swaps the first and third blocks and fixes the middle one."""
    g = pointed_arrow_groupoid()
    b = diagonal_algebra(P, 3, name="three-block carrier")
    idx = {nm: i for i, nm in enumerate(g.names)}
    span23 = Subspace.span(3, [[0, 1, 0], [0, 0, 1]], P)
    span12 = Subspace.span(3, [[1, 0, 0], [0, 1, 0]], P)
    span2 = Subspace.span(3, [[0, 1, 0]], P)
    ideals = [None] * 5
    ideals[idx["s"]] = span23
    ideals[idx["r_s"]] = span23
    ideals[idx["s_inv"]] = span12
    ideals[idx["d_s"]] = span12
    ideals[idx["e_min"]] = span2
    maps = [None] * 5
    maps[idx["s"]] = LinMap.from_images(span12, span23, [[0, 0, 1], [0, 1, 0]])
    maps[idx["s_inv"]] = LinMap.from_images(span23, span12, [[0, 1, 0], [1, 0, 0]])
    maps[idx["r_s"]] = LinMap.identity(span23)
    maps[idx["d_s"]] = LinMap.identity(span12)
    maps[idx["e_min"]] = LinMap.identity(span2)
    return Action(g, b, tuple(ideals), tuple(maps), name="block swap")


def pointed_arrow_partial_action() -> Action:
    """The standard restriction of the block swap, authored directly on the
    two-block carrier: every map is the identity."""
    g = pointed_arrow_groupoid()
    a = diagonal_algebra(P, 2, name="two-block carrier")
    idx = {nm: i for i, nm in enumerate(g.names)}
    full = a.space()
    first = Subspace.span(2, [[1, 0]], P)
    ideals = [first] * 5
    ideals[idx["r_s"]] = full
    maps = [LinMap.identity(first)] * 5
    maps[idx["r_s"]] = LinMap.identity(full)
    return Action(g, a, tuple(ideals), tuple(maps), name="restricted swap")


def stacked_involutions_groupoid() -> OrderedGroupoid:
    """Two order-2 one-object groups stacked by the order: the lower copy
    sits below the upper one arrow-by-arrow."""
    names = ["m0", "m1", "n0", "n1"]
    comp = [
        ("m0", "m0", "m0"),
        ("m1", "m1", "m0"),
        ("m1", "m0", "m1"),
        ("m0", "m1", "m1"),
        ("n0", "n0", "n0"),
        ("n1", "n1", "n0"),
        ("n1", "n0", "n1"),
        ("n0", "n1", "n1"),
    ]
    order = [("m0", "n0"), ("m1", "n1")]
    return OrderedGroupoid.from_parts(
        names,
        ["m0", "n0"],
        {"m0": "m0", "m1": "m1", "n0": "n0", "n1": "n1"},
        comp,
        order,
    )


def stacked_involutions_action() -> Action:
    """A unital action that is not strong: the lower involution acts on a
    strictly smaller ideal than the object intersection suggests."""
    g = stacked_involutions_groupoid()
    a = diagonal_algebra(P, 4, name="four-block carrier")
    idx = {nm: i for i, nm in enumerate(g.names)}
    full = a.space()
    odd = Subspace.span(4, [[1, 0, 0, 0], [0, 0, 1, 0]], P)
    ideals = [None] * 4
    ideals[idx["m0"]] = full
    ideals[idx["n0"]] = full
    ideals[idx["n1"]] = full
    ideals[idx["m1"]] = odd
    swap_pairs = LinMap.from_images(
        full,
        full,
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    )
    swap_odd = LinMap.from_images(odd, odd, [[0, 0, 1, 0], [1, 0, 0, 0]])
    maps = [None] * 4
    maps[idx["m0"]] = LinMap.identity(full)
    maps[idx["n0"]] = LinMap.identity(full)
    maps[idx["n1"]] = swap_pairs
    maps[idx["m1"]] = swap_odd
    return Action(g, a, tuple(ideals), tuple(maps), name="stacked involutions")


def brandt_b2() -> InverseSemigroup:
    """The five-element combinatorial Brandt semigroup."""
    names = ["a", "a_inv", "f1", "f2", "z"]
    idx = {nm: i for i, nm in enumerate(names)}
    z = idx["z"]
    table = [[z] * 5 for _ in range(5)]

    def put(x, y, out):
        table[idx[x]][idx[y]] = idx[out]

    put("a", "a_inv", "f1")
    put("a_inv", "a", "f2")
    put("f1", "a", "a")
    put("a", "f2", "a")
    put("f2", "a_inv", "a_inv")
    put("a_inv", "f1", "a_inv")
    put("f1", "f1", "f1")
    put("f2", "f2", "f2")
    return InverseSemigroup(names, table)


def brandt_action() -> Action:
    """B_2 moving one block onto another, zero at the zero element.  The
    ideal at the non-idempotent sits strictly inside its anchor, so the
    action is genuinely partial (not global)."""
    s = brandt_b2()
    a = diagonal_algebra(P, 3, name="three-block carrier")
    idx = {nm: i for i, nm in enumerate(s.names)}
    first = Subspace.span(3, [[1, 0, 0]], P)
    third = Subspace.span(3, [[0, 0, 1]], P)
    plane12 = Subspace.span(3, [[1, 0, 0], [0, 1, 0]], P)
    zero = Subspace.zero(3, P)
    ideals = [None] * 5
    ideals[idx["a"]] = first
    ideals[idx["a_inv"]] = third
    ideals[idx["f1"]] = plane12
    ideals[idx["f2"]] = third
    ideals[idx["z"]] = zero
    maps = [None] * 5
    maps[idx["a"]] = LinMap.from_images(third, first, [[1, 0, 0]])
    maps[idx["a_inv"]] = LinMap.from_images(first, third, [[0, 0, 1]])
    maps[idx["f1"]] = LinMap.identity(plane12)
    maps[idx["f2"]] = LinMap.identity(third)
    maps[idx["z"]] = LinMap(zero, zero, ())
    return Action(s, a, tuple(ideals), tuple(maps), name="block swap on B2")


def chain_semilattice() -> InverseSemigroup:
    """Two comparable idempotents under meet."""
    names = ["one", "e"]
    table = [[0, 1], [1, 1]]
    return InverseSemigroup(names, table)


def chain_semilattice_action() -> Action:
    s = chain_semilattice()
    a = diagonal_algebra(P, 2, name="two-block carrier")
    full = a.space()
    ideals = (full, full)
    maps = (LinMap.identity(full), LinMap.identity(full))
    return Action(s, a, ideals, maps, name="trivial semilattice action")


def dual_numbers() -> Algebra:
    """F5[x]/(x^2): a unit and a square-zero generator."""
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return Algebra(P, 2, table, unit=[1, 0], name="dual numbers")


def nilpotent_edge_semigroup() -> InverseSemigroup:
    """The order-2 group, viewed as an inverse semigroup."""
    return InverseSemigroup(["one", "t"], [[0, 1], [1, 0]])


def nilpotent_edge_action() -> Action:
    """Preunital but not unital: the non-identity element acts on the
    square-zero ideal, which has no identity element."""
    s = nilpotent_edge_semigroup()
    a = dual_numbers()
    full = a.space()
    nil = Subspace.span(2, [[0, 1]], P)
    ideals = (full, nil)
    maps = (LinMap.identity(full), LinMap.identity(nil))
    return Action(s, a, ideals, maps, name="square-zero edge")
