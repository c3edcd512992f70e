"""`Algebra.basis_products` and its readers against dense products.

The kernel reads x b_j and b_i x from the rows and columns of `products`;
`oracles.naive_mul` multiplies dense vectors under the dense table.  The
UNIT clause, `is_central_vec` and `ideal_closure` read the kernel, and each
must give what its dense reference in `oracles` gives: the same UNIT issues
in the same order, the same centrality verdict and the same RREF basis.

Tables are random (monomial, or with general entries) or known associative
algebras moved to a random basis by `generators.rebased_algebra`: full
matrix rings, pointwise carriers of random actions, and
`extra_fixtures.first_row_algebra`, whose b_0 is a unit on one side only.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from extra_fixtures import first_row_algebra
from generators import random_global_action, random_invertible, rebased_algebra
from ogaction.algebras import Algebra, ideal_closure, product_ring, validate_algebra
from ogaction.errors import AmbientMismatch

PRIMES = (2, 3, 5, 7, 2**31 - 1)
KINDS = ("monomial", "general", "rebased")


def _matrix_ring(p, n):
    """M_n(F_p) on the matrix units E_ab = b_(a n + b), with its unit."""
    products = tuple(
        {b * n + d: {a * n + d: 1} for d in range(n)} for a in range(n) for b in range(n)
    )
    unit = [int(i % (n + 1) == 0) for i in range(n * n)]
    return Algebra.from_products(p, n * n, products, unit=unit, name=f"M{n}")


def _random_algebra(rng, kind, n, p):
    """A table of the given kind; a rebased one has a unit when its source
    has one (the first-row ring has none)."""
    if kind == "rebased":
        source = rng.choice([
            lambda: _matrix_ring(p, rng.choice([1, 2])),
            lambda: random_global_action(rng, p=p, max_dim=n)[0].carrier,
            lambda: first_row_algebra(p, n, opposite=rng.random() < 0.5),
        ])()
        return rebased_algebra(source, random_invertible(rng, source.dim, p))
    density = rng.random()

    def entry():
        out = [0] * n
        if rng.random() < density:
            if kind == "monomial":
                out[rng.randrange(n)] = rng.randrange(1, p)
            else:
                out = [rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
        return out

    return Algebra(p, n, [[entry() for _ in range(n)] for _ in range(n)], check=False)


def _element(rng, n, p):
    """Zero entries, reduced ones and unreduced ones (negative or >= p)."""
    return tuple(rng.choice([0, rng.randrange(p), rng.randrange(-2 * p, 3 * p)]) for _ in range(n))


def _dense(kc, n):
    return tuple(kc.get(k, 0) for k in range(n))


def _units(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
CASE = dict(
    kind=st.sampled_from(KINDS), n=st.integers(1, 6), p=st.sampled_from(PRIMES), seed=st.integers(0, 2**32 - 1)
)


def test_the_kernel_matches_dense_products_on_random_tables():
    kinds = set()

    @SETTINGS
    @given(**CASE)
    def check(kind, n, p, seed):
        rng = random.Random(seed)
        alg = _random_algebra(rng, kind, n, p)
        table, units = alg.table, _units(alg.dim)
        for _ in range(3):
            x = _element(rng, alg.dim, p)
            left, right = alg.basis_products(x)
            assert [_dense(w, alg.dim) for w in left] == [oracles.naive_mul(table, p, x, b) for b in units]
            assert [_dense(w, alg.dim) for w in right] == [oracles.naive_mul(table, p, b, x) for b in units]
            assert all(0 < c < p for w in left + right for c in w.values())
        kinds.add((kind, any(len(kc) > 1 for row in alg.products for kc in row.values())))

    check()
    assert {("monomial", False), ("general", True), ("rebased", True)} <= kinds


def test_a_wrong_length_element_is_refused_as_by_mul():
    alg = _matrix_ring(5, 2)
    for x in ((1, 0, 0), (1, 0, 0, 1, 0)):
        for call in (alg.basis_products, lambda x: alg.mul(x, x)):
            with pytest.raises(AmbientMismatch, match="^element length differs from algebra dimension$"):
                call(x)


def _unital(rng, p):
    """An associative algebra with a unit, in monomial or rebased form."""
    alg = rng.choice([
        lambda: _matrix_ring(p, rng.choice([1, 2, 3])),
        lambda: product_ring(_matrix_ring(p, 2), 2),
        lambda: random_global_action(rng, p=p, max_dim=5)[0].carrier,
    ])()
    return alg if rng.random() < 0.5 else rebased_algebra(alg, random_invertible(rng, alg.dim, p))


def test_unit_issues_match_the_dense_loop():
    sides = set()

    @SETTINGS
    @given(case=st.sampled_from(["true", "one entry off", "one-sided"]), p=st.sampled_from(PRIMES),
           seed=st.integers(0, 2**32 - 1))
    def check(case, p, seed):
        rng = random.Random(seed)
        if case == "one-sided":
            n = rng.randrange(2, 5)
            alg = first_row_algebra(p, n, opposite=rng.random() < 0.5)
            unit = (1,) + (0,) * (n - 1)
            if rng.random() < 0.5:
                move = random_invertible(rng, n, p)
                alg, unit = rebased_algebra(alg, move), move[0]  # T(b_0) = b_0 P
        else:
            alg = _unital(rng, p)
            unit = list(alg.unit)
            if case == "one entry off":
                i = rng.randrange(alg.dim)
                unit[i] = (unit[i] + rng.randrange(1, p)) % p
        alg = Algebra(p, alg.dim, alg.table, unit=unit, check=False)
        got = [issue for issue in validate_algebra(alg).issues if issue.clause == "UNIT"]
        expected = oracles.unit_issues(alg)
        assert got == expected
        assert bool(expected) == (case != "true")
        sides.update(issue.message.split()[4] for issue in expected)

    check()
    assert sides == {"left", "right"}


def test_centrality_verdicts_match_the_dense_loop():
    verdicts = []

    @SETTINGS
    @given(kind=st.sampled_from(("unital", *KINDS)), p=st.sampled_from(PRIMES), seed=st.integers(0, 2**32 - 1))
    def check(kind, p, seed):
        rng = random.Random(seed)
        alg = _unital(rng, p) if kind == "unital" else _random_algebra(rng, kind, rng.randrange(1, 5), p)
        candidates = [alg.zero(), _element(rng, alg.dim, p)]
        if alg.unit is not None:
            c = rng.randrange(p)
            candidates.append(tuple(c * u for u in alg.unit))
            candidates.append(tuple(c * u + int(i == 0) for i, u in enumerate(alg.unit)))
        for x in candidates:
            verdict = alg.is_central_vec(x)
            assert verdict == oracles.is_central(alg, x)
            verdicts.append(verdict)

    check()
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_ideal_closure_bases_match_the_naive_closure():
    ranks = set()

    @SETTINGS
    @given(**{**CASE, "n": st.integers(1, 7)})
    def check(kind, n, p, seed):
        rng = random.Random(seed)
        alg = _random_algebra(rng, kind, n, p)
        gens = [_element(rng, alg.dim, p) for _ in range(rng.choice([1, 2]))]
        table = alg.table
        expected = oracles.naive_ideal_closure(
            lambda x, y: oracles.naive_mul(table, p, x, y), alg.dim, p, gens, _units(alg.dim)
        )
        closed = ideal_closure(alg, gens)
        assert closed.basis == oracles.rref(expected, p)
        ranks.add((closed.rank, alg.dim))

    check()
    assert any(0 < r < n for r, n in ranks) and any(r == n for r, n in ranks)
