"""`rref`, `kernel`, `express`, `Subspace.intersect` and `LinMap.preimage_of`
against sympy's `DomainMatrix` over GF(p).

sympy shares no code with the package: its reduced row echelon form and
null space over a finite field are an independent reference.  RREF is
canonical, so rank and row space are compared as equal bases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from ogaction.linalg import LinMap, Subspace, express, kernel, rref

PRIMES = (2, 3, 5, 7, 2**31 - 1)


def _dm(rows, ncols, p):
    field = GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in rows], (len(rows), ncols), field)


def _plain(dm, p):
    """The rows of a DomainMatrix as residues in [0, p)."""
    return [tuple(int(x.val) % p for x in row) for row in dm.to_list()]


def _sympy_rref(rows, ncols, p):
    """sympy's RREF with its zero rows dropped."""
    if not rows:
        return ()
    reduced, _ = _dm(rows, ncols, p).rref()
    return tuple(row for row in _plain(reduced, p) if any(row))


@st.composite
def matrices(draw, p=None, ncols=None):
    """(p, ncols, rows): a few drawn rows, then linear combinations of them,
    shuffled, so that rank drops below the row count as often as not."""
    p = p or draw(st.sampled_from(PRIMES))
    ncols = ncols or draw(st.integers(1, 6))
    entry = st.integers(-3 * p, 3 * p) if p < 100 else st.integers(-(2**40), 2**40) | st.integers(-3, 3)
    nbase = draw(st.integers(0, 4))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nbase, max_size=nbase))
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)), max_size=3))
    rows = [list(r) for r in base]
    rows += [[sum(c * r[j] for c, r in zip(cs, base)) for j in range(ncols)] for cs in combos if base]
    order = draw(st.permutations(range(len(rows))))
    return p, ncols, [rows[i] for i in order]


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(matrices())
def test_rref_matches_sympy(case):
    p, ncols, rows = case
    ours = rref(rows, p)
    assert ours == _sympy_rref(rows, ncols, p)
    rank = _dm(rows, ncols, p).rank() if rows else 0
    assert len(ours) == rank


@SETTINGS
@given(matrices())
def test_kernel_matches_sympy(case):
    p, ncols, rows = case
    ours = kernel(rows, len(rows), p)
    if not rows:
        assert ours == ()
        return
    # the left kernel of M is the null space of its transpose
    null = _dm(rows, ncols, p).transpose().nullspace()
    theirs = _plain(null, p) if null.shape[0] else []
    assert ours == _sympy_rref(theirs, len(rows), p)


@SETTINGS
@given(matrices(), st.data())
def test_express_matches_sympy(case, data):
    p, ncols, rows = case
    in_span = data.draw(st.booleans())
    if in_span and rows:
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
        target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    else:
        target = data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=ncols, max_size=ncols))
    combo = express(rows, target, p)
    # target lies in the row space iff appending it keeps sympy's rank
    rank = _dm(rows, ncols, p).rank() if rows else 0
    solvable = _dm(rows + [target], ncols, p).rank() == rank
    assert (combo is not None) == solvable
    if combo is not None:
        assert len(combo) == len(rows)
        got = [sum(c * r[j] for c, r in zip(combo, rows)) % p for j in range(ncols)]
        assert got == [x % p for x in target]


def _sympy_left_kernel(rows, ncols, p):
    """A basis of {x : x @ rows = 0}, as plain rows."""
    null = _dm(rows, ncols, p).transpose().nullspace()
    return _plain(null, p) if null.shape[0] else []


def _sympy_combinations(coeffs, rows, ncols, p):
    """The rows coeffs @ rows, reduced by sympy."""
    if not coeffs or not rows:
        return ()
    product = _dm(coeffs, len(rows), p).matmul(_dm(rows, ncols, p))
    return _sympy_rref(_plain(product, p), ncols, p)


@st.composite
def subspace_pairs(draw):
    """(p, u, v): two subspaces of one ambient; v is spanned by combinations
    of u's rows and fresh rows, so nested and overlapping pairs are common."""
    p, ncols, rows = draw(matrices())
    u = Subspace.span(ncols, rows, p)
    combos = draw(st.lists(st.lists(st.integers(0, 2), min_size=u.rank, max_size=u.rank), max_size=3))
    mixed = [[sum(c * r[j] for c, r in zip(cs, u.basis)) for j in range(ncols)] for cs in combos]
    _, _, fresh = draw(matrices(p, ncols))
    return p, u, Subspace.span(ncols, mixed + fresh, p)


@SETTINGS
@given(subspace_pairs())
def test_intersect_matches_sympy(case):
    p, u, v = case
    n, r = u.dim, u.rank
    # x @ [U; V] = 0 gives x_U @ U = -x_V @ V, a vector of U ∩ V
    null = _sympy_left_kernel(list(u.basis) + list(v.basis), n, p) if u.rank + v.rank else []
    expected = _sympy_combinations([row[:r] for row in null], list(u.basis), n, p)
    assert u.intersect(v).basis == expected
    assert v.intersect(u).basis == expected


@SETTINGS
@given(subspace_pairs(), st.data())
def test_preimage_of_matches_sympy(case, data):
    p, u, v = case
    n = u.dim
    entries = st.lists(st.integers(0, p - 1) | st.just(0), min_size=v.rank, max_size=v.rank)
    matrix = data.draw(st.lists(entries, min_size=u.rank, max_size=u.rank))
    f = LinMap(u, v, tuple(tuple(r) for r in matrix))
    _, _, rows = data.draw(matrices(p, n))
    target = Subspace.span(n, rows, p)
    # x @ (M @ V) + y @ W = 0 picks the domain coordinates x whose image is in W
    if u.rank and v.rank:
        images = _plain(_dm(matrix, v.rank, p).matmul(_dm(v.basis, n, p)), p)
    else:
        images = [(0,) * n] * u.rank
    stacked = images + list(target.basis)
    null = _sympy_left_kernel(stacked, n, p) if stacked else []
    expected = _sympy_combinations([row[: u.rank] for row in null], list(u.basis), n, p)
    assert f.preimage_of(target).basis == expected
