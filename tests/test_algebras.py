import random

import pytest

from ogaction import fixtures as fx
from ogaction.algebras import (
    Algebra,
    diagonal_algebra,
    ideal_closure,
    identity_of,
    is_ideal,
    is_ring_iso,
    local_units_witness,
    product_ring,
    quotient,
    subalgebra_on,
    subring_closure,
    validate_algebra,
)
from ogaction.errors import (
    InvalidAlgebra,
    NotAnIdeal,
    NotCentralIdempotent,
    NotContained,
    NotMultiplicativelyClosed,
)
from ogaction.linalg import LinMap, Subspace

import extra_fixtures as xf
from oracles import naive_assoc_failures, naive_ideal_closure, naive_rank

F5_3 = diagonal_algebra(5, 3)


def test_pointwise_algebra_is_valid():
    assert validate_algebra(F5_3).ok


def test_matrix_units_valid_against_exhaustive_oracle():
    alg = xf.matrix_units_f2()
    assert validate_algebra(alg).ok
    assert naive_assoc_failures(alg.table, 2) == []


def test_nonassociative_table_is_reported():
    # b1*b1 = b2 and b2*b1 = b1 break (b1 b1) b1 = b1 (b1 b1)
    z = (0, 0)
    table = [[(0, 1), z], [(1, 0), z]]
    alg = Algebra(5, 2, table, check=False)
    rep = validate_algebra(alg)
    assert not rep.ok
    assert not rep.clause_ok("ASSOC")
    assert naive_assoc_failures(table, 5) != []
    with pytest.raises(InvalidAlgebra):
        Algebra(5, 2, table)


def test_bad_unit_is_reported():
    alg = Algebra(5, 2, diagonal_algebra(5, 2).table, unit=(1, 0), check=False)
    rep = validate_algebra(alg)
    assert not rep.clause_ok("UNIT")


def test_pointwise_multiplication():
    assert F5_3.mul((1, 2, 0), (3, 1, 4)) == (3, 2, 0)
    assert F5_3.mul((2, 4, 1), (0, 0, 0)) == (0, 0, 0)


def test_matrix_unit_relations():
    alg = xf.matrix_units_f2()
    e11, e12 = alg.basis_vector(0), alg.basis_vector(1)
    assert alg.mul(e11, e12) == e12
    assert alg.mul(e12, e11) == (0, 0, 0, 0)


def test_ideal_closure_pointwise():
    e2 = (0, 1, 0)
    assert ideal_closure(F5_3, [e2]).basis == ((0, 1, 0),)
    grown = ideal_closure(F5_3, [(1, 1, 0)])
    assert grown == Subspace.span(3, [(1, 0, 0), (0, 1, 0)], 5)


def test_ideal_closure_simple_algebra_is_everything():
    alg = xf.matrix_units_f2()
    closed = ideal_closure(alg, [alg.basis_vector(0)])
    assert closed.rank == 4
    oracle = naive_ideal_closure(
        alg.mul, 4, 2, [alg.basis_vector(0)], [alg.basis_vector(i) for i in range(4)]
    )
    assert naive_rank(oracle, 2) == 4


def test_subring_closure_pointwise():
    parts = [Subspace.span(3, [(0, 1, 0)], 5), Subspace.span(3, [(0, 0, 1)], 5)]
    assert subring_closure(F5_3, parts) == Subspace.span(3, [(0, 1, 0), (0, 0, 1)], 5)


def test_subring_closure_matrix_units_generates_everything():
    alg = xf.matrix_units_f2()
    parts = [
        Subspace.span(4, [alg.basis_vector(1)], 2),
        Subspace.span(4, [alg.basis_vector(2)], 2),
    ]
    assert subring_closure(alg, parts).rank == 4


def test_subring_closure_of_translated_pieces_has_five_parameters():
    # the three graded pieces of the globalized two-block carrier span a
    # five-parameter subring of the five-fold product
    two = diagonal_algebra(5, 2)
    amb = product_ring(two, 5)
    piece_s = Subspace.span(
        10,
        [
            (1, 0, 0, 0, 1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        ],
        5,
    )
    piece_s_inv = Subspace.span(
        10,
        [
            (0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        ],
        5,
    )
    piece_e = Subspace.span(10, [(0, 0, 0, 0, 0, 0, 0, 0, 1, 0)], 5)
    closed = subring_closure(amb, [piece_s, piece_s_inv, piece_e])
    assert closed.rank == 5
    expected = Subspace.span(
        10,
        [
            (1, 0, 0, 0, 1, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        ],
        5,
    )
    assert closed == expected


def test_identity_of_subrings():
    sub = Subspace.span(3, [(0, 1, 0), (0, 0, 1)], 5)
    ident = identity_of(F5_3, sub)
    assert ident is not None
    assert ident.element == (0, 1, 1)
    assert ident.central and F5_3.mul(ident.element, ident.element) == ident.element

    diag_line = Subspace.span(3, [(1, 1, 0)], 5)
    ident2 = identity_of(F5_3, diag_line)
    assert ident2 is not None and ident2.element == (1, 1, 0)

    zero = Subspace.zero(3, 5)
    ident3 = identity_of(F5_3, zero)
    assert ident3 is not None and not any(ident3.element)
    assert ident3.central


def test_identity_of_requires_closure():
    alg = xf.matrix_units_f2()
    not_closed = Subspace.span(4, [alg.basis_vector(1), alg.basis_vector(2)], 2)
    with pytest.raises(NotMultiplicativelyClosed):
        identity_of(alg, not_closed)


def test_identity_missing_for_square_zero_ideal():
    alg = fx.dual_numbers()
    nil = Subspace.span(2, [(0, 1)], 5)
    assert identity_of(alg, nil) is None


def test_is_ideal():
    inner = Subspace.span(3, [(0, 1, 0)], 5)
    outer = Subspace.span(3, [(1, 0, 0), (0, 1, 0)], 5)
    assert is_ideal(F5_3, inner, outer)
    assert is_ideal(F5_3, outer, outer)
    alg = xf.matrix_units_f2()
    line = Subspace.span(4, [alg.basis_vector(0)], 2)
    assert not is_ideal(alg, line, alg.space())
    with pytest.raises(NotContained):
        is_ideal(F5_3, outer, inner)


def test_quotient_of_pointwise_algebra():
    ideal = Subspace.span(3, [(0, 0, 1)], 5)
    q, proj = quotient(F5_3, ideal)
    assert q.dim == 2
    assert q.table == diagonal_algebra(5, 2).table
    assert proj.apply((1, 2, 3)) == (1, 2)
    # projection is multiplicative and has the ideal as kernel
    for x in [(1, 2, 3), (0, 4, 1)]:
        for y in [(2, 2, 2), (1, 0, 3)]:
            assert proj.apply(F5_3.mul(x, y)) == q.mul(proj.apply(x), proj.apply(y))
    assert proj.preimage_of(Subspace.zero(2, 5)) == ideal


def test_quotient_by_zero_is_isomorphic_copy():
    q, proj = quotient(F5_3, Subspace.zero(3, 5))
    assert q.table == F5_3.table
    assert proj.matrix == LinMap.identity(F5_3.space()).matrix


def test_quotient_requires_ideal():
    alg = xf.matrix_units_f2()
    line = Subspace.span(4, [alg.basis_vector(0)], 2)
    with pytest.raises(NotAnIdeal):
        quotient(alg, line)


def test_is_ring_iso_examples():
    line = Subspace.span(3, [(0, 1, 0)], 5)
    assert is_ring_iso(LinMap.identity(line), F5_3, F5_3)
    # the block swap between the two coordinate planes
    dom = Subspace.span(3, [(1, 0, 0), (0, 1, 0)], 5)
    cod = Subspace.span(3, [(0, 1, 0), (0, 0, 1)], 5)
    swap = LinMap.from_images(dom, cod, [(0, 0, 1), (0, 1, 0)])
    assert is_ring_iso(swap, F5_3, F5_3)
    doubling = LinMap(line, line, ((2,),))
    assert not is_ring_iso(doubling, F5_3, F5_3)


def test_product_ring():
    one = product_ring(F5_3, 1)
    assert one.table == F5_3.table
    five = product_ring(diagonal_algebra(5, 2), 5)
    assert five.dim == 10
    assert five.unit == (1,) * 10
    big = product_ring(F5_3, 5)
    assert big.dim == 15
    assert validate_algebra(big).ok


def test_local_units_witness():
    sub = Subspace.span(3, [(0, 1, 0), (0, 0, 1)], 5)
    assert local_units_witness(F5_3, sub, [(0, 1, 0), (0, 0, 1)])
    assert not local_units_witness(F5_3, Subspace.span(3, [(1, 0, 0)], 5), [(0, 1, 0)])
    with pytest.raises(NotCentralIdempotent):
        local_units_witness(F5_3, sub, [(0, 2, 0)])


def test_subalgebra_on_recoordinatizes():
    sub = Subspace.span(3, [(0, 1, 0), (0, 0, 1)], 5)
    small, incl = subalgebra_on(F5_3, sub)
    assert small.dim == 2
    assert small.table == diagonal_algebra(5, 2).table
    assert incl.apply((1, 0)) == (0, 1, 0)


def test_subalgebra_on_refuses_a_subspace_not_closed_under_the_product():
    # (1, 2, 0) squares to (1, 4, 0), outside its span
    with pytest.raises(NotMultiplicativelyClosed, match="not closed under the product"):
        subalgebra_on(F5_3, Subspace.span(3, [(1, 2, 0)], 5))


def test_random_associativity_and_distributivity():
    rng = random.Random(5)
    alg = xf.matrix_units_f2()
    for _ in range(50):
        x = tuple(rng.randrange(2) for _ in range(4))
        y = tuple(rng.randrange(2) for _ in range(4))
        z = tuple(rng.randrange(2) for _ in range(4))
        assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))
        left = alg.mul(x, tuple((a + b) % 2 for a, b in zip(y, z)))
        assert left == tuple(
            (a + b) % 2 for a, b in zip(alg.mul(x, y), alg.mul(x, z))
        )


def test_ideal_closure_is_minimal_fixed_point():
    rng = random.Random(9)
    alg = xf.matrix_units_f2()
    for trial in range(10):
        gens = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(1 + trial % 2)]
        closed = ideal_closure(alg, gens)
        for g in gens:
            assert closed.contains(g)
        # a fixed point: absorbing once more adds nothing
        for v in closed.basis:
            for i in range(4):
                assert closed.contains(alg.mul(alg.basis_vector(i), v))
                assert closed.contains(alg.mul(v, alg.basis_vector(i)))
        oracle = naive_ideal_closure(
            alg.mul, 4, 2, gens, [alg.basis_vector(i) for i in range(4)]
        )
        assert naive_rank(oracle, 2) == closed.rank
