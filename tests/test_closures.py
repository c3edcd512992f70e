"""Each closure stops when its defining property holds.

`ideal_closure` grows the span of its generators until `is_ideal` holds on
the full space; `subring_closure` grows the span of its parts until the
span has a kept product table.  `oracles.naive_ideal_closure` and
`oracles.naive_subring_closure` keep the loops that span once more after
the last growth and stop when the rank stands still.  Both must give the
same RREF basis on random tables (monomial, general, and known algebras
moved to a random basis by `generators.rebased_algebra`), with no
generators, with generators, and on input that is already closed
(`test_basis_products.py` compares the ideal closure of drawn generators
on its own, over as many tables).

On a semigroup index the span of N's generators lift(s, v) - lift(t, v),
s <= t and v in D_s, is already a two-sided ideal (Exel and Vieira,
J. Math. Anal. Appl. 363, 2010): (a d_r)(v d_s - v d_t) = w d_rs - w d_rt
with w in D_rs and rs <= rt, and on the right alpha_t* agrees with
alpha_s* on D_s, so the product is w' d_sr - w' d_tr with sr <= tr.  So
`build_ordered_skew` takes N with no growth round on every semigroup
fixture, on the natural actions of I_2, I_3 and of random inverse
subsemigroups of I_3, and on rebased copies of each.  On a groupoid index a
product is defined only on composable arrows, and N outgrows the span.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from generators import fixture_builders, random_invertible, rebased_action, symmetric_inverse_monoid
from ogaction import fixtures as fx
from ogaction.actions import Action
from ogaction.algebras import ideal_closure, subring_closure
from ogaction.linalg import Subspace, vec_sub
from ogaction.semigroups import InverseSemigroup
from ogaction.skew import build_ordered_skew, build_skew
from test_basis_products import KINDS, PRIMES, SETTINGS, _element, _random_algebra
from test_inv_action_memos import natural_action, random_subsemigroup


def test_both_closures_match_the_rank_fixpoint_loops():
    grew, seen, ideal_ranks = set(), set(), set()

    @SETTINGS
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(1, 7),
        p=st.sampled_from(PRIMES),
        start=st.sampled_from(("empty", "drawn", "closed")),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(kind, n, p, start, seed):
        rng = random.Random(seed)
        alg = _random_algebra(rng, kind, n, p)
        table = alg.table

        def mul(x, y):
            return oracles.naive_mul(table, p, x, y)

        units = [tuple(int(i == j) for j in range(alg.dim)) for i in range(alg.dim)]
        drawn = [] if start == "empty" else [_element(rng, alg.dim, p) for _ in range(rng.choice([1, 2]))]
        ideal_gens, ring_rows = drawn, drawn
        if start == "closed":
            ideal_gens = oracles.naive_ideal_closure(mul, alg.dim, p, drawn, units)
            ring_rows = oracles.naive_subring_closure(mul, alg.dim, p, drawn)
        for name, closed, expected, rows in (
            ("ideal", ideal_closure(alg, ideal_gens), oracles.naive_ideal_closure(mul, alg.dim, p, ideal_gens, units),
             ideal_gens),
            ("subring", subring_closure(alg, [Subspace.span(alg.dim, ring_rows, p)]),
             oracles.naive_subring_closure(mul, alg.dim, p, ring_rows), ring_rows),
        ):
            assert closed.basis == expected, (name, start)
            seen.add((name, start))
            if name == "ideal":
                ideal_ranks.add((closed.rank, alg.dim))
            if closed.rank > oracles.naive_rank(rows, p):
                grew.add(name)

    check()
    assert grew == {"ideal", "subring"}
    assert any(0 < r < n for r, n in ideal_ranks) and any(r == n for r, n in ideal_ranks)
    assert seen == {(name, start) for name in ("ideal", "subring") for start in ("empty", "drawn", "closed")}


def _order_span(s):
    """The span of lift(g, v) - lift(h, v) over g < h and v in the ideal at
    g: N's generators, as `build_ordered_skew` forms them."""
    a, p = s.source, s.algebra.p
    gens = [vec_sub(s.lift(g, v), s.lift(h, v), p) for g, h in a.index.order_pairs() for v in a.ideal_of[g].basis]
    return Subspace.span(s.algebra.dim, gens, p)


def _semigroup_actions():
    """(label, action): every semigroup-indexed action fixture, the natural
    actions of I_2, I_3 and of six random inverse subsemigroups of I_3 on
    which it is valid, and a rebased copy of each."""
    out = [(label, a) for label, fn in fixture_builders()
           if isinstance(a := fn(), Action) and isinstance(a.structure, InverseSemigroup)]
    out += [(f"natural_I_{n}", natural_action(symmetric_inverse_monoid(n))) for n in (2, 3)]
    rng, subs = random.Random(36), []
    while len(subs) < 6:
        # The subsemigroup's anchor ideals must still sum to the carrier (P1').
        if (b := natural_action(random_subsemigroup(symmetric_inverse_monoid(3), rng))).validate().ok:
            subs.append((f"natural_sub_I_3_{len(subs)}", b))
    out += subs
    return out + [(f"{label}_rebased", rebased_action(a, random_invertible(rng, a.carrier.dim, a.carrier.p)))
                  for label, a in out]


SEMIGROUP_ACTIONS = _semigroup_actions()


@pytest.mark.parametrize("label,a", SEMIGROUP_ACTIONS, ids=[label for label, _ in SEMIGROUP_ACTIONS])
def test_on_a_semigroup_index_n_is_the_span_of_its_generators(label, a):
    assert a.validate().ok
    s = build_skew(a)
    assert build_ordered_skew(s).n_ideal == _order_span(s)


def test_the_semigroup_cases_have_generators():
    labels = {label for label, _ in SEMIGROUP_ACTIONS}
    assert {"fx.brandt_action", "fx.chain_semilattice_action", "natural_I_3", "natural_I_3_rebased"} <= labels
    assert sum(_order_span(build_skew(a)).rank > 0 for _, a in SEMIGROUP_ACTIONS) >= 10


@pytest.mark.parametrize("build,span_rank,n_rank", [
    (fx.pointed_arrow_partial_action, 4, 5),
    (fx.stacked_involutions_action, 6, 14),
])
def test_on_a_groupoid_index_n_outgrows_the_span(build, span_rank, n_rank):
    s = build_skew(build())
    span, n_ideal = _order_span(s), build_ordered_skew(s).n_ideal
    assert (span.rank, n_ideal.rank) == (span_rank, n_rank) and n_ideal.contains_subspace(span)
