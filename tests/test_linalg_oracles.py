"""The support-aware kernel against the dense routines it replaced.

`Subspace` eliminates along the kept non-zero entries of its basis rows,
`LinMap` combines kept ambient images, `intersect` returns a nested
operand unchanged, and `inverse`, `partial_inverse`, `express`, `kernel`
and Zassenhaus read one `split_rows` elimination each, where the oracle
eliminates twice.  On a coordinate subspace (every basis
row a unit vector) `coordinates_of` reads the pivot entries and checks the
free columns, and `preimage_of` returns the domain on a target that
contains the codomain.  `tests/oracles.py` keeps the dense
routines as they were.  Both sides must give the same tuples, the same
values and the same exceptions on every subspace and map the fixtures and
`tests/generators.py` build, on skewed copies with dense supports, on
non-invertible maps, and on drawn matrices.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ogaction.actions import Action
from ogaction.algebras import Algebra
from ogaction.errors import AmbientMismatch
from ogaction.linalg import LinMap, Subspace, express, kernel, partial_inverse, rref, split_rows

from generators import fixture_builders, random_global_action, random_ideal, random_monotone_family


def outcome(fn, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared with the oracle's, never swallowed
        return ("raised", type(exc).__name__, str(exc))


def _skewed(sub):
    """The image of sub under x_j -> x_j + 2 x_{j+1}: same rank, and rows
    whose supports are no longer single coordinates."""
    n, p = sub.dim, sub.p
    rows = [[(r[j] + 2 * r[j + 1]) if j + 1 < n else r[j] for j in range(n)] for r in sub.basis]
    return Subspace.span(n, rows, p)


def _collect():
    """(subspaces, maps) built by the fixtures and the generators, with a
    skewed copy of each and the zero and full space of each ambient."""
    subs, maps = [], []
    for _, fn in fixture_builders():
        made = fn()
        if isinstance(made, Action):
            subs += [made.carrier.space(), *made.ideal_of]
            maps += made.map_of
        elif isinstance(made, Algebra):
            subs.append(made.space())
        elif isinstance(made, Subspace):
            subs.append(made)
    rng = random.Random(5)
    for _ in range(12):
        beta, coords = random_global_action(rng)
        subs += [*beta.ideal_of, random_ideal(rng, beta)]
        subs += random_monotone_family(rng, beta, coords).values()
        maps += beta.map_of
    maps += [LinMap(_skewed(f.domain), _skewed(f.codomain), f.matrix) for f in maps]
    subs += [_skewed(s) for s in subs]
    for s in list(subs):
        subs += [Subspace.zero(s.dim, s.p), Subspace.full(s.dim, s.p)]
    return sorted(set(subs), key=repr), maps


SUBSPACES, MAPS = _collect()


def _non_invertible(f):
    """Maps out of f's domain that are not isomorphisms: zero, an inclusion
    into the full ambient, and one with a repeated row."""
    dom, p = f.domain, f.p
    out = [LinMap.from_images(dom, Subspace.full(dom.dim, p), dom.basis)]
    if dom.rank and f.codomain.rank:
        zero = ((0,) * f.codomain.rank,) * dom.rank
        out.append(LinMap(dom, f.codomain, zero))
    if dom.rank >= 2 and f.codomain.rank == dom.rank:
        out.append(LinMap(dom, f.codomain, (f.matrix[0],) + f.matrix[:-1]))
    return out


def _probe_vectors(dim, p, rows):
    """Rows, their sum, unit vectors, and unreduced and negative entries."""
    out = [tuple(r) for r in rows]
    out.append(tuple(sum(col) for col in zip(*rows)) if rows else (0,) * dim)
    out += [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    out.append(tuple(3 * p + j for j in range(dim)))
    out.append(tuple(-(j + 1) for j in range(dim)))
    return out


def check_subspace(u):
    vectors = _probe_vectors(u.dim, u.p, u.basis) + [(1,) * (u.dim + 1)]
    for v in vectors:
        assert outcome(u.reduce, v) == outcome(oracles.reduce, u, v)
        assert outcome(u.contains, v) == outcome(oracles.contains, u, v)
        assert outcome(u.coordinates_of, v) == outcome(oracles.coordinates_of, u, v)
    for coords in _probe_vectors(u.rank, u.p, ()) + [(1,) * (u.rank + 1)]:
        assert outcome(u.from_coordinates, coords) == outcome(oracles.from_coordinates, u, coords)
    rows = list(u.basis) + [v for v in vectors if len(v) == u.dim][-3:]
    assert rref(rows, u.p) == oracles.rref(rows, u.p)
    for t in [v for v in vectors if len(v) == u.dim]:
        assert express(u.basis, t, u.p) == oracles.express(u.basis, t, u.p)
        assert express(rows, t, u.p) == oracles.express(rows, t, u.p)
    assert kernel(rows, len(rows), u.p) == oracles.kernel(rows, len(rows), u.p)
    assert split_rows(u.dim, rows, rows, u.p) == oracles.split_rows(u.dim, rows, rows, u.p)


def check_pair(u, v):
    got = outcome(u.intersect, v)
    assert got == outcome(oracles.intersect, u, v)
    if u <= v:
        assert got == ("value", u)
    assert rref(u.basis + v.basis, u.p) == oracles.rref(u.basis + v.basis, u.p)


def check_map(f):
    assert f.images == tuple(oracles.from_coordinates(f.codomain, row) for row in f.matrix)
    assert f.image() == oracles.image(f)
    for v in _probe_vectors(f.domain.dim, f.p, f.domain.basis):
        assert outcome(f.apply, v) == outcome(oracles.apply, f, v)
    assert outcome(f.inverse) == outcome(oracles.inverse, f)
    assert outcome(partial_inverse, f) == outcome(oracles.partial_inverse, f)


def check_preimages(f, targets):
    """`preimage_of` against the kernel route on every target of f's
    codomain ambient; returns how many targets contained the codomain."""
    nested = 0
    for t in targets:
        if (t.dim, t.p) == (f.codomain.dim, f.p):
            assert outcome(f.preimage_of, t) == outcome(oracles.preimage_of, f, t)
            nested += f.codomain <= t
    return nested


def _is_coordinate(s):
    return all(sum(1 for x in row if x) == 1 for row in s.basis)


def test_the_collection_covers_the_cases_it_names():
    assert any(s.rank == 0 for s in SUBSPACES) and any(s.rank == s.dim for s in SUBSPACES)
    assert any(0 < s.rank < s.dim and any(len(row) > 1 for row in s.entries) for s in SUBSPACES)
    assert any(0 < s.rank < s.dim and _is_coordinate(s) for s in SUBSPACES)
    pairs = [(u, v) for u in SUBSPACES for v in SUBSPACES if (u.dim, u.p) == (v.dim, v.p)]
    assert any(u <= v for u, v in pairs if u != v)
    assert any(not u <= v and not v <= u for u, v in pairs)
    assert any(not g.is_iso for f in MAPS for g in _non_invertible(f))


def test_subspaces_match_the_dense_kernel():
    for u in SUBSPACES:
        check_subspace(u)


def test_intersections_match_zassenhaus():
    for u in SUBSPACES:
        for v in SUBSPACES:
            if (u.dim, u.p) == (v.dim, v.p):
                check_pair(u, v)


def test_maps_match_the_dense_kernel():
    for f in MAPS:
        for g in [f, *_non_invertible(f)]:
            check_map(g)


def test_preimages_match_the_kernel_route():
    """Targets that contain the codomain (the short cut), the codomain
    itself among them, and targets that do not, nested inside it or not."""
    nested = outside = 0
    for f in MAPS:
        for g in [f, *_non_invertible(f)]:
            n = check_preimages(g, SUBSPACES + [g.codomain])
            nested += n
            outside += sum((t.dim, t.p) == (g.codomain.dim, g.p) for t in SUBSPACES) + 1 - n
    assert nested > 100 and outside > 100


@st.composite
def coordinate_spaces(draw):
    """A coordinate subspace (the span of some unit vectors, possibly none
    or all) and probe vectors: drawn ones, members with unreduced and
    negative entries, and members plus a multiple of one free unit vector,
    which lie outside unless the multiple is a multiple of p."""
    p = draw(st.sampled_from(PRIMES))
    dim = draw(st.integers(1, 6))
    pivots = sorted(draw(st.sets(st.integers(0, dim - 1))))
    u = Subspace.span(dim, [tuple(int(i == j) for j in range(dim)) for i in pivots], p)
    entry = st.integers(-3 * p, 3 * p)
    vectors = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        member = [draw(entry) if j in pivots else 0 for j in range(dim)]
        vectors.append(member)
        free = [j for j in range(dim) if j not in pivots]
        if free:
            j, c = draw(st.sampled_from(free)), draw(st.sampled_from((1, -1, p, 2 * p + 1)))
            vectors.append([x + c * (i == j) for i, x in enumerate(member)])
    return u, [tuple(v) for v in vectors]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(coordinate_spaces())
def test_coordinate_subspaces_match_the_dense_kernel(case):
    """`coordinates_of`'s pivot-entry read gives the oracle's values and
    raises its ValueError on every vector with a free entry that is not
    0 mod p; `reduce` and `contains` agree with the oracle on the same
    vectors."""
    u, vectors = case
    assert _is_coordinate(u)
    for v in vectors + [(1,) * (u.dim + 1)]:
        assert outcome(u.reduce, v) == outcome(oracles.reduce, u, v)
        assert outcome(u.contains, v) == outcome(oracles.contains, u, v)
        assert outcome(u.coordinates_of, v) == outcome(oracles.coordinates_of, u, v)
    check_subspace(u)


PRIMES = (2, 3, 5, 7, 2**31 - 1)


@st.composite
def spaces(draw):
    """(u, v, f): two subspaces of one drawn ambient, the second built from
    combinations of the first's rows and fresh ones so that nesting and
    overlap are common, and a map from u to v with a drawn matrix."""
    p = draw(st.sampled_from(PRIMES))
    dim = draw(st.integers(1, 6))
    entry = st.integers(-2 * p, 2 * p) if p < 100 else st.integers(-(2**40), 2**40)
    row = st.lists(entry, min_size=dim, max_size=dim)
    u = Subspace.span(dim, draw(st.lists(row, max_size=4)), p)
    combos = draw(st.lists(st.lists(st.integers(0, 2), min_size=u.rank, max_size=u.rank), max_size=3))
    mixed = [[sum(c * r[j] for c, r in zip(cs, u.basis)) for j in range(dim)] for cs in combos]
    v = Subspace.span(dim, mixed + draw(st.lists(row, max_size=2)), p)
    matrix = draw(st.lists(st.lists(st.integers(0, p - 1) | st.just(0), min_size=v.rank, max_size=v.rank),
                           min_size=u.rank, max_size=u.rank))
    return u, v, LinMap(u, v, tuple(tuple(r) for r in matrix))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spaces())
def test_drawn_spaces_match_the_dense_kernel(case):
    u, v, f = case
    check_subspace(u)
    check_subspace(v)
    check_pair(u, v)
    check_pair(v, u)
    check_map(f)
    check_preimages(f, [u, v, Subspace.zero(v.dim, v.p), Subspace.full(v.dim, v.p)])


@st.composite
def splits(draw):
    """(n, rows, images, p): rows of length n, some of them combinations of
    earlier ones (zero rows included), each beside an image of length m.
    The images are the values of a drawn linear map on the rows (a well
    defined map, no trailing half), or that with one image moved (a
    contradiction when its row is dependent), or drawn freely."""
    p = draw(st.sampled_from(PRIMES))
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    entry = st.integers(-2 * p, 2 * p) if p < 100 else st.integers(-(2**40), 2**40)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            cs = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("map", "moved", "free")))
    if kind == "free":
        images = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in rows]
    else:
        f = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
        images = [[sum(x * f[i][j] for i, x in enumerate(r)) for j in range(m)] for r in rows]
        if kind == "moved" and rows and m:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, m - 1))
            images[i][j] += 1
    return n, [tuple(r) for r in rows], [tuple(w) for w in images], p


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(splits())
def test_drawn_splits_match_the_defining_parts(case):
    """`split_rows` against `oracles.split_rows`, which forms the basis, the
    images and the trailing halves from `oracles.rref`, `oracles.kernel` and
    `oracles.express`; `kernel` and `express` against their oracles on the
    same rows."""
    n, rows, images, p = case
    got = split_rows(n, rows, images, p)
    assert got == oracles.split_rows(n, rows, images, p)
    assert got[0] == rref(rows, p)
    if rows:
        assert kernel(rows, len(rows), p) == oracles.kernel(rows, len(rows), p)
        units = [tuple(int(i == j) for j in range(len(rows))) for i in range(len(rows))]
        assert split_rows(n, rows, units, p)[2] == kernel(rows, len(rows), p)
    for t in [tuple(r) for r in rows] + [tuple(range(1, n + 1)), (0,) * n]:
        assert express(rows, t, p) == oracles.express(rows, t, p)


def test_drawn_splits_cover_the_cases_they_name():
    """Some drawn rows are dependent; some maps on them are well defined and
    some are not; some splits have no rows."""
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(splits())
    def collect(case):
        n, rows, images, p = case
        basis, _, trailing = split_rows(n, rows, images, p)
        dependent = len(basis) < len(rows)
        seen.add((bool(rows), dependent, bool(trailing)))

    collect()
    assert {(False, False, False), (True, False, False), (True, True, False), (True, True, True)} <= seen


def test_express_refuses_a_target_of_the_wrong_length():
    rows = [(1, 0, 2), (0, 1, 1)]
    assert express(rows, (2, 3, 1), 5) == oracles.express(rows, (2, 3, 1), 5)
    for target in [(1, 0), (1, 0, 2, 0)]:
        with pytest.raises(AmbientMismatch):
            express(rows, target, 5)


def test_split_needs_one_image_per_row():
    with pytest.raises(AmbientMismatch):
        split_rows(2, [(1, 0), (0, 1)], [(1,)], 5)
