"""The kept per-subspace product tables against the pair scans they replaced.

`identity_of`, `is_ideal`, `is_ring_hom` and `subalgebra_on` read one
product table per subspace, kept on the algebra with the identity and
ideal answers.  `tests/oracles.py` keeps the scans that formed every basis
product on each call.  Both sides must give the same values and the same
exceptions, on a cold algebra and again on the warm one, and a question
asked again must form no product.  `is_ring_hom` forms both sides from
the two product tables with no `Algebra.mul` call, whether or not the
codomain is closed.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ogaction import validation
from ogaction.actions import Action
from ogaction.algebras import (
    Algebra,
    identity_of,
    ideal_closure,
    is_ideal,
    is_multiplicatively_closed,
    is_ring_hom,
    subalgebra_on,
    subring_closure,
)
from ogaction.linalg import LinMap, Subspace

from generators import fixture_builders


def outcome(fn, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared with the oracle's, never swallowed
        return ("raised", type(exc).__name__, str(exc))


@functools.lru_cache(maxsize=None)
def matrix_algebra(n, p):
    """M_n(F_p) on the matrix units E_ab (index a*n + b)."""
    dim = n * n
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for d in range(n):
                table[a * n + b][b * n + d][a * n + d] = 1
    unit = [int(i % (n + 1) == 0) for i in range(dim)]
    return Algebra(p, dim, table, unit=unit, name=f"M{n}(F{p})")


FIXTURES = [make() for _, make in fixture_builders()]
FIXTURE_ACTIONS = [x for x in FIXTURES if isinstance(x, Action)]
ALGEBRAS = [x for x in FIXTURES if isinstance(x, Algebra)]
for action in FIXTURE_ACTIONS:
    if action.carrier not in ALGEBRAS:
        ALGEBRAS.append(action.carrier)
ALGEBRAS += [matrix_algebra(n, p) for n in (2, 3) for p in (3, 5)]


def fresh(alg):
    """A copy of alg with nothing kept on it."""
    return Algebra.from_products(alg.p, alg.dim, alg.products, unit=alg.unit, check=False)


def random_vec(rng, alg):
    return tuple(rng.randrange(alg.p) for _ in range(alg.dim))


def draw_subspace(rng, alg, kind):
    n, p = alg.dim, alg.p
    if kind == "zero":
        return Subspace.zero(n, p)
    if kind == "full":
        return alg.space()
    if kind == "closed":
        return subring_closure(alg, [Subspace.span(n, [random_vec(rng, alg)], p)])
    if kind == "ideal":
        return ideal_closure(alg, [random_vec(rng, alg)])
    if kind in ("left", "right"):
        # A x or x A for a low-rank x: closed, and in M_n with an identity
        # on one side only.
        x = alg.mul(random_vec(rng, alg), alg.basis_vector(rng.randrange(n)))
        basis = [alg.basis_vector(i) for i in range(n)]
        prods = [alg.mul(b, x) if kind == "left" else alg.mul(x, b) for b in basis]
        return Subspace.span(n, prods, p)
    if kind == "foreign":
        return Subspace.span(n + 1, [random_vec(rng, alg) + (1,)], p)
    return Subspace.span(n, [random_vec(rng, alg) for _ in range(rng.randint(1, 3))], p)


def random_map(rng, dom, cod):
    matrix = tuple(tuple(rng.randrange(dom.p) for _ in range(cod.rank)) for _ in range(dom.rank))
    return LinMap(dom, cod, matrix)


def conjugation(rng, alg):
    """x -> u x u^-1 on M_n for a unit u = 1 + N with N strictly upper
    triangular (so u^-1 = sum (-N)^k), or None for another algebra."""
    n = round(alg.dim ** 0.5)
    if n * n != alg.dim or alg != matrix_algebra(n, alg.p):
        return None
    nil = [0] * alg.dim
    for a in range(n):
        for b in range(a + 1, n):
            nil[a * n + b] = rng.randrange(alg.p)
    nil = tuple(nil)
    u = tuple((x + y) % alg.p for x, y in zip(alg.unit, nil))
    inv, power = alg.unit, alg.unit
    neg = tuple(-x % alg.p for x in nil)
    for _ in range(n):
        power = alg.mul(power, neg)
        inv = tuple((x + y) % alg.p for x, y in zip(inv, power))
    full = alg.space()
    images = [alg.mul(alg.mul(u, e), inv) for e in full.basis]
    return LinMap.from_images(full, full, images)


KINDS = ("zero", "full", "closed", "ideal", "left", "right", "random", "random", "foreign")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, len(ALGEBRAS) - 1), seed=st.integers(0, 2**32 - 1))
def test_kept_tables_match_the_pair_scans(which, seed):
    rng = random.Random(seed)
    alg = fresh(ALGEBRAS[which])
    sub = draw_subspace(rng, alg, rng.choice(KINDS))
    other = draw_subspace(rng, alg, rng.choice(KINDS[:-1]))
    expected = outcome(oracles.identity_of, alg, sub)
    for _ in range(2):  # cold, then read back from what the first call kept
        assert outcome(identity_of, alg, sub) == expected
        if expected[0] == "raised":
            assert outcome(subalgebra_on, alg, sub) == expected
        else:
            small = subalgebra_on(alg, sub).algebra
            assert small.products == oracles.subalgebra_products(alg, sub)
            ident = expected[1]
            assert small.unit == (ident and oracles.coordinates_of(sub, ident.element))
        if sub.dim == alg.dim:
            closed = expected[0] == "value"
            assert is_multiplicatively_closed(alg, sub) == closed
            assert oracles.is_ideal(alg, sub, sub) == closed
    line = Subspace.span(sub.dim, sub.basis[:1], sub.p)
    for inner, outer in ((sub, sub), (sub, alg.space()), (line, sub), (sub, other), (other, sub)):
        for _ in range(2):
            assert outcome(is_ideal, alg, inner, outer) == outcome(
                oracles.is_ideal, alg, inner, outer
            )
    if sub.dim != alg.dim:
        return
    maps = [LinMap.identity(sub), random_map(rng, sub, sub), random_map(rng, sub, other)]
    conj = conjugation(rng, alg)
    if conj is not None:
        maps += [conj, conj.restrict(sub, conj.image_of(sub))]
    for m in maps:
        for _ in range(2):
            assert outcome(is_ring_hom, m, alg, alg) == outcome(oracles.is_ring_hom, m, alg, alg)


def has_identity_on_one_side(alg, sub):
    """Whether some e in sub has e v = v, or v e = v, for all v in sub."""
    target = [c for v in sub.basis for c in v]
    for left in (True, False):
        rows = [
            [c for v in sub.basis for c in (alg.mul(u, v) if left else alg.mul(v, u))]
            for u in sub.basis
        ]
        if oracles.express(rows, target, alg.p) is not None:
            return True
    return False


def test_the_draws_reach_every_case():
    """The subspaces drawn above include closed and non-closed ones, closed
    ones with an identity, without one and with an identity on one side
    only, and the maps include ring maps and non-ring maps, one of them on
    a domain that is not closed."""
    seen = set()
    rng = random.Random(0)
    for alg in ALGEBRAS:
        for _ in range(20):
            sub = draw_subspace(rng, alg, rng.choice(KINDS[:-1]))
            got = outcome(oracles.identity_of, alg, sub)
            closed = got[0] == "value"
            seen.add(("closed", closed, closed and got[1] is not None))
            if closed and got[1] is None and sub.rank:
                seen.add(("one-sided", has_identity_on_one_side(alg, sub)))
            m = LinMap.identity(sub)
            seen.add(("identity map", closed, oracles.is_ring_hom(m, alg, alg)))
            seen.add(("random map", oracles.is_ring_hom(random_map(rng, sub, sub), alg, alg)))
    assert ("closed", True, True) in seen and ("closed", True, False) in seen
    assert ("closed", False, False) in seen and ("one-sided", True) in seen
    assert ("identity map", True, True) in seen and ("identity map", False, False) in seen
    assert ("random map", False) in seen


@pytest.mark.parametrize("a", FIXTURE_ACTIONS, ids=lambda a: a.name)
def test_fixture_maps_and_ideals_match_the_pair_scans(a):
    alg = fresh(a.carrier)
    for ideal, m in zip(a.ideal_of, a.map_of):
        doubled = LinMap(m.domain, m.codomain, tuple(tuple(2 * x % m.p for x in r) for r in m.matrix))
        for f in (m, doubled):
            assert outcome(is_ring_hom, f, alg, alg) == outcome(oracles.is_ring_hom, f, alg, alg)
        assert outcome(identity_of, alg, ideal) == outcome(oracles.identity_of, alg, ideal)
        for outer in a.ideal_of:
            assert outcome(is_ideal, alg, ideal, outer) == outcome(
                oracles.is_ideal, alg, ideal, outer
            )


def first_row_multiplicative(m, alg):
    """m(u_0 v) = m(u_0) m(v) for the domain's basis vectors v only."""
    u0 = m.domain.basis[0]
    return all(
        oracles.apply(m, alg.mul(u0, v)) == alg.mul(oracles.apply(m, u0), oracles.apply(m, v))
        for v in m.domain.basis
    )


def test_single_entry_perturbations_match_the_pair_scan():
    """Every fixture map, and each copy with one matrix entry moved by one,
    gives the pair scan's answer.  Some moves break multiplicativity only
    on pairs outside the first basis vector's."""
    broken = only_later = 0
    for a in FIXTURE_ACTIONS:
        alg = fresh(a.carrier)
        for m in a.map_of:
            assert is_multiplicatively_closed(alg, m.codomain)
            assert is_ring_hom(m, alg, alg) == oracles.is_ring_hom(m, alg, alg)
            for i, row in enumerate(m.matrix):
                for j in range(len(row)):
                    moved = [list(r) for r in m.matrix]
                    moved[i][j] = (moved[i][j] + 1) % m.p
                    f = LinMap(m.domain, m.codomain, tuple(map(tuple, moved)))
                    expected = oracles.is_ring_hom(f, alg, alg)
                    assert is_ring_hom(f, alg, alg) == expected
                    broken += not expected
                    only_later += not expected and first_row_multiplicative(f, alg)
    assert broken > 50 and only_later > 5


def test_ring_maps_into_a_codomain_that_is_not_closed():
    """In M_2(F_5), span(E12, E11 + 2 E22) is not closed under the product,
    so m(u) m(v) can leave it: E12 -> E12 is multiplicative, and
    E11 -> E11 + 2 E22 is not."""
    alg = fresh(matrix_algebra(2, 5))
    e11, e12, e22 = (alg.basis_vector(i) for i in (0, 1, 3))
    mixed = tuple((a + 2 * b) % 5 for a, b in zip(e11, e22))
    cod = Subspace.span(4, [e12, mixed], 5)
    for source, image, expected in ((e12, e12, True), (e11, mixed, False)):
        dom = Subspace.span(4, [source], 5)
        m = LinMap.from_images(dom, cod, [image])
        assert oracles.is_ring_hom(m, alg, alg) is expected
        assert is_ring_hom(m, alg, alg) is expected
    assert not is_multiplicatively_closed(alg, cod)


@pytest.fixture
def products_formed(monkeypatch):
    """`Algebra.mul` calls counted per algebra, keyed by its id."""
    counts = {}
    mul = Algebra.mul

    def counting(self, x, y):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return mul(self, x, y)

    monkeypatch.setattr(Algebra, "mul", counting)
    return counts


def test_a_question_asked_again_forms_no_product(products_formed, monkeypatch):
    # Checked mode forms the products again on purpose; the count is plain mode's.
    monkeypatch.setattr(validation, "CHECKED", False)
    alg = fresh(matrix_algebra(3, 5))
    e11, e12, e22 = alg.basis_vector(0), alg.basis_vector(1), alg.basis_vector(4)
    # Upper triangular 2 x 2 block, spanned two ways.
    sub = Subspace.span(9, [e11, e12, e22], 5)
    respanned = Subspace.span(9, [e12, tuple((a + b) % 5 for a, b in zip(e11, e22)), e22], 5)
    assert respanned == sub
    ident = identity_of(alg, sub)
    assert ident is not None and products_formed[id(alg)] > 0
    products_formed.clear()
    assert identity_of(alg, respanned) == ident
    assert products_formed.get(id(alg), 0) == 0
    small = subalgebra_on(alg, respanned).algebra
    assert is_ideal(alg, sub, respanned) and is_multiplicatively_closed(alg, sub)
    assert products_formed.get(id(alg), 0) == 0
    assert small.products == oracles.subalgebra_products(alg, sub)



def test_ring_map_check_forms_no_product_once_the_domain_table_is_kept(products_formed):
    """After the domain's table is formed, `is_ring_hom` reads both sides
    from the product tables: a second check of the same map calls no
    `Algebra.mul`, and a map into a codomain that is not closed calls it
    once, for its one-vector domain's table."""
    alg = fresh(matrix_algebra(2, 5))
    e11, e12, e22 = (alg.basis_vector(i) for i in (0, 1, 3))
    dom = Subspace.span(4, [e11, e12, e22], 5)
    m = LinMap.from_images(dom, dom, list(dom.basis))
    assert is_ring_hom(m, alg, alg) is oracles.is_ring_hom(m, alg, alg) is True
    products_formed.clear()
    assert is_ring_hom(m, alg, alg)
    mixed = tuple((a + 2 * b) % 5 for a, b in zip(e11, e22))
    cod = Subspace.span(4, [e12, mixed], 5)
    f = LinMap.from_images(Subspace.span(4, [e11], 5), cod, [mixed])
    assert not is_multiplicatively_closed(alg, cod)
    products_formed.clear()
    assert not is_ring_hom(f, alg, alg)
    assert products_formed.get(id(alg), 0) == 1
