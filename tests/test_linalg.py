import random

import pytest

from ogaction import linalg
from ogaction.errors import AmbientMismatch
from ogaction.linalg import (
    LinMap,
    Subspace,
    check_prime,
    compose_partial,
    express,
    intersect_subspaces,
    partial_inverse,
    span,
    sum_subspaces,
)

from oracles import naive_rank, span_members


def test_check_prime_accepts_primes():
    assert check_prime(2) == 2
    assert check_prime(2**31 - 1) == 2**31 - 1


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 2**31 + 1, 15])
def test_check_prime_rejects(bad):
    with pytest.raises(ValueError):
        check_prime(bad)


def test_the_trial_division_runs_once_per_modulus():
    """`is_prime` is memoized, so repeated constructions at the largest
    prime divide once; a bad modulus still raises on every call."""
    linalg.is_prime.cache_clear()
    for _ in range(5):
        assert Subspace.full(4, 2**31 - 1).rank == 4
    info = linalg.is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    for bad, message in [(2**31 - 3, "is not prime"), (2**31 + 11, "out of range")]:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Subspace.full(4, bad)


def test_span_canonicalizes():
    s = span(3, [(1, 1, 0), (0, 1, 0)], 5)
    assert s.basis == ((1, 0, 0), (0, 1, 0))


def test_span_collapses_duplicates():
    s = span(3, [(1, 2, 3), (1, 2, 3)], 5)
    assert s.rank == 1


def test_span_rank_matches_naive_elimination():
    rng = random.Random(7)
    for _ in range(50):
        vectors = [[rng.randrange(2) for _ in range(4)] for _ in range(3)]
        assert span(4, vectors, 2).rank == naive_rank(vectors, 2)


def test_span_is_idempotent():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        dim = rng.randrange(1, 6)
        vectors = [
            [rng.randrange(p) for _ in range(dim)] for _ in range(rng.randrange(4))
        ]
        s = span(dim, vectors, p)
        assert span(dim, s.basis, p) == s


def test_sum_and_intersection_of_coordinate_subspaces():
    e1 = span(3, [(1, 0, 0)], 5)
    e2 = span(3, [(0, 1, 0)], 5)
    plane12 = span(3, [(1, 0, 0), (0, 1, 0)], 5)
    plane23 = span(3, [(0, 1, 0), (0, 0, 1)], 5)
    assert sum_subspaces(e1, e2) == plane12
    assert intersect_subspaces(plane12, plane23) == e2


def test_dimension_formula_against_exhaustive_membership():
    rng = random.Random(3)
    for _ in range(10):
        u = span(5, [[rng.randrange(3) for _ in range(5)] for _ in range(2)], 3)
        v = span(5, [[rng.randrange(3) for _ in range(5)] for _ in range(2)], 3)
        mu = span_members(u.basis, 5, 3)
        mv = span_members(v.basis, 5, 3)
        inter_size = len(mu & mv)
        # |U ∩ V| = 3^dim(U∩V)
        expect_inter = u.intersect(v).rank
        assert 3**expect_inter == inter_size
        assert u.add(v).rank + expect_inter == u.rank + v.rank


def test_ambient_mismatch_raises():
    u = span(3, [(1, 0, 0)], 5)
    v = span(2, [(1, 0)], 5)
    with pytest.raises(AmbientMismatch):
        sum_subspaces(u, v)
    w = span(3, [(1, 0, 0)], 3)
    with pytest.raises(AmbientMismatch):
        intersect_subspaces(u, w)


def test_membership_and_coordinates():
    s = span(3, [(1, 2, 0), (0, 0, 1)], 5)
    v = (2, 4, 3)
    assert s.contains(v)
    coords = s.coordinates_of(v)
    assert s.from_coordinates(coords) == v
    assert not s.contains((0, 1, 0))
    with pytest.raises(ValueError):
        s.coordinates_of((0, 1, 0))


def test_express_solves_linear_combinations():
    rows = [(1, 1, 0), (0, 1, 1)]
    combo = express(rows, (2, 3, 1), 5)
    assert combo == (2, 1)
    assert express(rows, (0, 0, 2), 5) is None


def test_linmap_roundtrip_and_inverse():
    dom = span(3, [(1, 0, 0), (0, 1, 0)], 5)
    cod = span(3, [(0, 1, 0), (0, 0, 1)], 5)
    m = LinMap.from_images(dom, cod, [(0, 0, 1), (0, 1, 0)])
    assert m.is_iso
    assert m.apply((2, 3, 0)) == (0, 3, 2)
    inv = m.inverse()
    for v in dom.basis:
        assert inv.apply(m.apply(v)) == v


def test_linmap_image_and_preimage():
    dom = span(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 5)
    cod = span(4, [(1, 0, 0, 0), (0, 1, 0, 0)], 5)
    # project away the third coordinate
    m = LinMap.from_images(dom, cod, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)])
    assert m.image() == cod
    kernel_line = span(4, [(0, 0, 1, 0)], 5)
    assert m.preimage_of(Subspace.zero(4, 5)) == kernel_line
    target = span(4, [(1, 0, 0, 0)], 5)
    pre = m.preimage_of(target)
    assert pre == span(4, [(1, 0, 0, 0), (0, 0, 1, 0)], 5)


def test_partial_composition_restricts_domains():
    # g embeds a line, f is only defined on a complementary line
    amb = 2
    g = LinMap.from_images(span(amb, [(1, 0)], 5), span(amb, [(1, 0)], 5), [(1, 0)])
    f = LinMap.from_images(span(amb, [(0, 1)], 5), span(amb, [(0, 1)], 5), [(0, 1)])
    fg = compose_partial(f, g)
    assert fg.domain.rank == 0
    gg = compose_partial(g, g)
    assert gg.domain == g.domain
    assert gg.as_partial_le(g)


def test_partial_inverse_swaps_endpoints():
    dom = span(2, [(1, 0)], 5)
    m = LinMap.from_images(dom, span(2, [(0, 1)], 5), [(0, 2)])
    back = partial_inverse(m)
    assert back.domain == span(2, [(0, 1)], 5)
    assert back.apply((0, 2)) == (1, 0)


def test_equal_subspaces_hash_equal_and_the_kept_hash_stays_out_of_equality():
    """A subspace keeps its hash, the hash of (dim, p, basis), in its
    instance dict like `pivots`: equal subspaces built by different routes
    hash equal, and a kept value, even a wrong one, does not decide ==."""
    p = 5
    a = Subspace.span(3, [(1, 2, 0), (0, 1, 1)], p)
    routes = [
        Subspace.span(3, [(1, 3, 1), (2, 4, 0), (0, 0, 0)], p),
        Subspace.full(3, p).intersect(a),
        a.add(Subspace.zero(3, p)),
        LinMap.identity(Subspace.full(3, p)).image_of(a),
    ]
    assert "_hash" not in vars(a)
    assert hash(a) == hash((3, p, a.basis)) and "_hash" in vars(a)
    for b in routes:
        assert b == a and hash(b) == hash(a)
    other = Subspace.span(3, [(1, 0, 0)], p)
    vars(other)["_hash"] = hash(a)
    vars(routes[0])["_hash"] = hash(a) + 1
    assert other != a and hash(other) == hash(a)
    assert routes[0] == a and a == routes[0]
