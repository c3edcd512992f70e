"""Exact linear algebra over a prime field.

Vectors are tuples of residues in [0, p).  Subspaces are kept in reduced
row echelon form, so subspace equality is plain tuple equality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import AmbientMismatch

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


@functools.cache
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A prime p with 2 <= p <= 2**31, checked at construction."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p <= 2**31):
            raise ValueError(f"modulus {self.p} out of range [2, 2^31]")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


def as_modulus(p: "PrimeModulus | int") -> PrimeModulus:
    return p if isinstance(p, PrimeModulus) else PrimeModulus(int(p))


def vec(values: Iterable[int], p: int) -> Vector:
    return tuple(int(v) % p for v in values)


def zero_vec(dim: int) -> Vector:
    return (0,) * dim


def vec_add(u: Vector, v: Vector, p: int) -> Vector:
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector, p: int) -> Vector:
    return tuple((a - b) % p for a, b in zip(u, v))


def rref(rows: Iterable[Sequence[int]], p: int) -> Matrix:
    """Reduced row echelon form; zero rows dropped, pivots by column."""
    work = [[int(x) % p for x in row] for row in rows]
    if not work:
        return ()
    ncols = len(work[0])
    for row in work:
        if len(row) != ncols:
            raise AmbientMismatch("rows of unequal length")
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        if lead != 1:
            inv = pow(lead, -1, p)
            work[rank] = [(inv * x) % p for x in work[rank]]
        # Entries left of col are zero in the pivot row: eliminate along
        # its support only.
        support = [(j, x) for j, x in enumerate(work[rank][col:], col) if x]
        for r, row in enumerate(work):
            c = row[col]
            if c and r != rank:
                for j, x in support:
                    row[j] = (row[j] - c * x) % p
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(row) for row in work[:rank] if any(row))


def _entries(v: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The non-zero (column, value) entries of a reduced vector."""
    return tuple((j, x) for j, x in enumerate(v) if x)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F_p^dim with a canonical RREF basis."""

    dim: int
    p: int
    basis: Matrix

    @staticmethod
    def span(dim: int, vectors: Iterable[Sequence[int]], p: "PrimeModulus | int") -> "Subspace":
        p = as_modulus(p).p
        rows = [list(v) for v in vectors]
        for row in rows:
            if len(row) != dim:
                raise AmbientMismatch(f"vector of length {len(row)} in ambient of dim {dim}")
        return Subspace(dim, p, rref(rows, p))

    @staticmethod
    def zero(dim: int, p: "PrimeModulus | int") -> "Subspace":
        return Subspace(dim, as_modulus(p).p, ())

    @staticmethod
    def full(dim: int, p: "PrimeModulus | int") -> "Subspace":
        return Subspace(dim, as_modulus(p).p, _unit_rows(dim))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def pivots(self) -> tuple[int, ...]:
        # Kept in the instance __dict__, outside the dataclass fields, so
        # equality, hashing and the frozen fields are unaffected.
        return tuple(row[0][0] for row in self.entries)

    @functools.cached_property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The non-zero (column, value) entries of each basis row, kept
        like `pivots`; elimination walks only these."""
        return tuple(_entries(row) for row in self.basis)

    @functools.cached_property
    def _free(self) -> Optional[tuple[int, ...]]:
        """The non-pivot columns of a coordinate subspace (every basis row a
        unit vector: the vectors that vanish on these columns), else None;
        `contains` and `coordinates_of` read it."""
        if all(len(row) == 1 and row[0][1] == 1 for row in self.entries):
            return self.complement_coordinates()
        return None

    def _check_ambient(self, other: "Subspace") -> None:
        if self.dim != other.dim or self.p != other.p:
            raise AmbientMismatch(
                f"ambient mismatch: dim {self.dim}/mod {self.p} vs dim {other.dim}/mod {other.p}"
            )

    def reduce(self, v: Sequence[int]) -> Vector:
        """Residual of v after elimination against the basis."""
        if len(v) != self.dim:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient of dim {self.dim}")
        p = self.p
        w = [int(x) % p for x in v]
        for piv, row in zip(self.pivots, self.entries):
            c = w[piv]
            if c:
                for j, x in row:
                    w[j] = (w[j] - c * x) % p
        return tuple(w)

    def contains(self, v: Sequence[int]) -> bool:
        """v's residual on a coordinate subspace is v off the pivots, so v is
        inside exactly when its free entries are 0 mod p."""
        free = self._free
        if free is not None and len(v) == self.dim:
            return not any(int(v[j]) % self.p for j in free)
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(row) for row in other.basis)

    def coordinates_of(self, v: Sequence[int]) -> Vector:
        """Coefficients of v over the canonical basis; raises if v is outside.
        On a coordinate subspace they are v's pivot entries (v itself on the
        full space), once its free entries are checked to be zero."""
        if len(v) != self.dim:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient of dim {self.dim}")
        p = self.p
        w = [int(x) % p for x in v]
        free = self._free
        if free is not None:
            # v = sum of v[piv] e_piv exactly when v vanishes off the pivots,
            # and elimination against e_piv reads off v[piv] and clears it.
            if any([w[j] for j in free]):
                raise ValueError("vector not in subspace")
            return tuple([w[piv] for piv in self.pivots]) if free else tuple(w)
        coords = []
        for piv, row in zip(self.pivots, self.entries):
            c = w[piv]
            coords.append(c)
            if c:
                for j, x in row:
                    w[j] = (w[j] - c * x) % p
        if any(w):
            raise ValueError("vector not in subspace")
        return tuple(coords)

    def from_coordinates(self, coords: Sequence[int]) -> Vector:
        if len(coords) != self.rank:
            raise AmbientMismatch(f"{len(coords)} coordinates for rank {self.rank}")
        p = self.p
        out = [0] * self.dim
        for c, row in zip(coords, self.entries):
            c = int(c) % p
            if c:
                for j, x in row:
                    out[j] = (out[j] + c * x) % p
        return tuple(out)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.dim, self.p, rref(list(self.basis) + list(other.basis), self.p))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        # RREF is canonical, so a nested pair returns the smaller operand
        # itself: the very tuple the elimination below would give.
        if other.contains_subspace(self):
            return self
        if self.contains_subspace(other):
            return other
        # Zassenhaus: split [U|U] over [V|0]; the trailing halves are U∩V in RREF.
        n = self.dim
        images = self.basis + (zero_vec(n),) * other.rank
        return Subspace(n, self.p, split_rows(n, self.basis + other.basis, images, self.p)[2])

    def complement_coordinates(self) -> tuple[int, ...]:
        """Ambient coordinates not used as pivots (a complement's support)."""
        piv = set(self.pivots)
        return tuple(i for i in range(self.dim) if i not in piv)

    def vectors(self) -> Iterator[Vector]:
        """All p**rank member vectors; intended for small subspaces only."""
        for coords in itertools.product(range(self.p), repeat=self.rank):
            yield self.from_coordinates(coords)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)


def span(dim: int, vectors: Iterable[Sequence[int]], p: "PrimeModulus | int") -> Subspace:
    return Subspace.span(dim, vectors, p)


def sum_subspaces(u: Subspace, v: Subspace) -> Subspace:
    return u.add(v)


def intersect_subspaces(u: Subspace, v: Subspace) -> Subspace:
    return u.intersect(v)


def _unit_rows(k: int) -> Matrix:
    """The k unit vectors of length k: the rows of the k x k identity."""
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def combine(coeffs: Sequence[int], vectors: Sequence[Sequence[int]], dim: int, p: int) -> Vector:
    """The sum of c * w over coeffs and vectors, mod p; zero c and zero entries add nothing."""
    out = [0] * dim
    for c, w in zip(coeffs, vectors):
        if c:
            for j, x in enumerate(w):
                if x:
                    out[j] = (out[j] + c * x) % p
    return tuple(out)


def split_rows(
    n: int, rows: Sequence[Sequence[int]], images: Sequence[Sequence[int]], p: int
) -> tuple[Matrix, Matrix, Matrix]:
    """One `rref` of [row | image], split at column n into three parts:

    - the RREF basis of the rows' span (right-column steps add only rows
      whose left half is zero, so the left halves are the rows' own RREF);
    - the image of each basis row: its right half, the images combined as
      the rows were to give that basis row;
    - the right halves of the trailing rows whose left half is zero, in
      RREF already: each is the image of a dependency among the rows.

    With unit images the right halves are combinations of the rows, and the
    trailing halves are the rows' left kernel.  With a map's values as the
    images, the map is well defined on the rows' span exactly when there
    is no trailing half.
    """
    if len(rows) != len(images):
        raise AmbientMismatch("one image per row required")
    reduced = rref([[*r, *w] for r, w in zip(rows, images)], p)
    cut = next((i for i, row in enumerate(reduced) if not any(row[:n])), len(reduced))
    left = reduced[:cut]
    return tuple(r[:n] for r in left), tuple(r[n:] for r in left), tuple(r[n:] for r in reduced[cut:])


def express(rows: Sequence[Sequence[int]], target: Sequence[int], p: int) -> Optional[Vector]:
    """Coefficients c with sum(c_i * rows_i) = target, or None: the target's
    coordinates over the split's basis, carried along the combinations that
    give the basis rows."""
    if not rows:
        return () if all(int(x) % p == 0 for x in target) else None
    n, k = len(rows[0]), len(rows)
    if len(target) != n:
        raise AmbientMismatch(f"target of length {len(target)} for rows of length {n}")
    basis, combos, _ = split_rows(n, rows, _unit_rows(k), p)
    try:
        coords = Subspace(n, p, basis).coordinates_of(target)
    except ValueError:
        return None
    return combine(coords, combos, k, p)


def kernel(matrix: Sequence[Sequence[int]], nrows: int, p: int) -> Matrix:
    """Basis of the left kernel {x : x @ matrix = 0} of an nrows-row matrix:
    the trailing halves of the split beside the unit rows."""
    return split_rows(len(matrix[0]), matrix[:nrows], _unit_rows(nrows), p)[2] if nrows else ()


@dataclass(frozen=True)
class LinMap:
    """A linear map between two canonical subspaces.

    Row i of `matrix` holds the codomain coordinates of the image of the
    i-th canonical basis vector of the domain.  The two subspaces may live
    in different ambient spaces (same modulus).
    """

    domain: Subspace
    codomain: Subspace
    matrix: Matrix

    def __post_init__(self):
        if self.domain.p != self.codomain.p:
            raise AmbientMismatch("domain and codomain moduli differ")
        if len(self.matrix) != self.domain.rank:
            raise AmbientMismatch("matrix row count != domain rank")
        for row in self.matrix:
            if len(row) != self.codomain.rank:
                raise AmbientMismatch("matrix column count != codomain rank")

    @property
    def p(self) -> int:
        return self.domain.p

    @functools.cached_property
    def images(self) -> Matrix:
        """Ambient images of the domain's canonical basis, kept once
        computed (outside the dataclass fields, like `Subspace.pivots`)."""
        return tuple(self.codomain.from_coordinates(row) for row in self.matrix)

    @functools.cached_property
    def _image_entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(_entries(img) for img in self.images)

    @staticmethod
    def from_images(domain: Subspace, codomain: Subspace, images: Sequence[Sequence[int]]) -> "LinMap":
        """Build from ambient images of the domain's canonical basis."""
        if len(images) != domain.rank:
            raise AmbientMismatch("one image per domain basis vector required")
        matrix = tuple(codomain.coordinates_of(img) for img in images)
        return LinMap(domain, codomain, matrix)

    @staticmethod
    def identity(sub: Subspace) -> "LinMap":
        return LinMap(sub, sub, _unit_rows(sub.rank))

    def apply(self, v: Sequence[int]) -> Vector:
        p = self.p
        out = [0] * self.codomain.dim
        for c, img in zip(self.domain.coordinates_of(v), self._image_entries):
            if c:
                for j, x in img:
                    out[j] = (out[j] + c * x) % p
        return tuple(out)

    def image(self) -> Subspace:
        return Subspace.span(self.codomain.dim, self.images, self.p)

    def image_of(self, sub: Subspace) -> Subspace:
        if not self.domain.contains_subspace(sub):
            raise AmbientMismatch("subspace not inside the map's domain")
        return Subspace.span(self.codomain.dim, [self.apply(v) for v in sub.basis], self.p)

    def preimage_of(self, sub: Subspace) -> Subspace:
        """{v in domain : f(v) in sub}, as a subspace of the domain's ambient.

        When sub ∩ codomain is the codomain, f(domain) ⊆ codomain ⊆ sub, so
        the answer is the domain (the kernel route would span it again)."""
        if sub.dim != self.codomain.dim or sub.p != self.p:
            raise AmbientMismatch("preimage target lives in the wrong ambient")
        target = sub.intersect(self.codomain)
        if target == self.codomain:
            return self.domain
        coords = Subspace.span(
            self.codomain.rank,
            [self.codomain.coordinates_of(v) for v in target.basis],
            self.p,
        )
        reduced_rows = [coords.reduce(row) for row in self.matrix]
        ker = kernel(reduced_rows, self.domain.rank, self.p)
        vecs = [self.domain.from_coordinates(row) for row in ker]
        return Subspace.span(self.domain.dim, vecs, self.p)

    @property
    def rank_of_map(self) -> int:
        return len(rref(self.matrix, self.p))

    @property
    def is_iso(self) -> bool:
        return (
            self.domain.rank == self.codomain.rank
            and self.rank_of_map == self.domain.rank
        )

    @property
    def is_injective(self) -> bool:
        return self.rank_of_map == self.domain.rank

    def inverse(self) -> "LinMap":
        """The split of [matrix | unit rows] is [I | inverse matrix] exactly
        when the rows are independent (no trailing half) and span the
        codomain's coordinates (a full basis)."""
        k = self.codomain.rank
        basis, inv, trailing = split_rows(k, self.matrix, _unit_rows(self.domain.rank), self.p)
        if trailing or len(basis) < k:
            raise ValueError("map is not invertible")
        return LinMap(self.codomain, self.domain, inv)

    def then(self, after: "LinMap") -> "LinMap":
        """Composite v -> after(self(v)); the image must fit after's domain."""
        imgs = self.images
        for img in imgs:
            if not after.domain.contains(img):
                raise AmbientMismatch("composite escapes the second map's domain")
        return LinMap.from_images(self.domain, after.codomain, [after.apply(v) for v in imgs])

    def restrict(self, sub: Subspace, codomain: Optional[Subspace] = None) -> "LinMap":
        if not self.domain.contains_subspace(sub):
            raise AmbientMismatch("restriction outside the domain")
        cod = codomain if codomain is not None else self.codomain
        return LinMap.from_images(sub, cod, [self.apply(v) for v in sub.basis])

    def agrees_with(self, other: "LinMap", on: Subspace) -> bool:
        return all(self.apply(v) == other.apply(v) for v in on.basis)

    def as_partial_le(self, other: "LinMap") -> bool:
        """Restriction order on partial maps: self = other on self's domain."""
        if self.domain.dim != other.domain.dim or self.codomain.dim != other.codomain.dim:
            return False
        return other.domain.contains_subspace(self.domain) and other.agrees_with(self, self.domain)


def compose_partial(f: LinMap, g: LinMap) -> LinMap:
    """Composition f∘g of partial linear bijections, restricted to where it is defined.

    The result's domain is g^{-1}(dom f ∩ im g); this is the product in the
    symmetric inverse structure on subspaces of the ambient spaces.
    """
    if g.codomain.dim != f.domain.dim or g.p != f.p:
        raise AmbientMismatch("inner codomain and outer domain ambient mismatch")
    middle = f.domain.intersect(g.image())
    dom = g.preimage_of(middle)
    imgs = [f.apply(g.apply(v)) for v in dom.basis]
    cod = Subspace.span(f.codomain.dim, imgs, f.p)
    return LinMap.from_images(dom, cod, imgs)


def partial_inverse(f: LinMap) -> LinMap:
    """Inverse of a partial linear bijection, image becoming the domain: the
    split of f's images beside the unit rows gives the image's RREF basis
    and each basis vector's coordinates in f.domain."""
    n = f.codomain.dim
    basis, back, trailing = split_rows(n, f.images, _unit_rows(f.domain.rank), f.p)
    if trailing:
        raise ValueError("partial map is not injective")
    return LinMap(Subspace(n, f.p, basis), f.domain, back)
