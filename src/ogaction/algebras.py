"""Finite-dimensional algebras over a prime field, given by structure constants.

An algebra of dimension n has basis products b_i * b_j = sum_k c[i][j][k] * b_k
and stores only the non-zero constants: products[i] maps j to {k: c[i][j][k]}.
A dense n x n x n table is accepted at construction and offered back as the
`table` view.  Associativity (Light's middle-slot certificate on a monomial
table, else the chain scan) and any declared unit are checked at
construction unless check=False is passed; downstream operations assume it.
`mul` is the dense product; `basis_products(x)` reads every x b_j and b_i x
off `products` in one pass, for UNIT, `is_central_vec`, `ideal_closure` and
`skew.skew_unit`.

Each algebra keeps, per subspace it has been asked about, the products of
the subspace's basis pairs in the subspace's own coordinates (or None when
the subspace is not closed under the product).  `identity_of`,
`subalgebra_on`, `is_ring_hom`, `is_ideal` and `is_multiplicatively_closed`
read that table, and the identity and ideal answers are kept beside it, so
a question asked again forms no product.  The kept answers, like `__hash__`,
assume that `products` is never mutated after construction.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    AmbientMismatch,
    InvalidAlgebra,
    NotAnIdeal,
    NotCentralIdempotent,
    NotContained,
    NotMultiplicativelyClosed,
)
from .linalg import (
    LinMap,
    Subspace,
    Vector,
    check_prime,
    express,
    sparse_sum,
    vec,
    zero_vec,
)
from .validation import Issue, ValidationReport, short_cut


# products[i][j] = {k: c[i][j][k]} over the non-zero constants only, each a
# residue in (0, p); a pair whose product is zero has no entry.
Products = tuple[dict[int, dict[int, int]], ...]


def _products_of_table(table: Sequence[Sequence[Sequence[int]]], dim: int, p: int) -> Products:
    """The non-zero constants of a dense dim x dim x dim table, reduced mod p."""
    if len(table) != dim:
        raise AmbientMismatch("structure table must have dim rows")
    products = []
    for row in table:
        if len(row) != dim:
            raise AmbientMismatch("structure table must be dim x dim")
        entries = [vec(entry, p) for entry in row]
        if any(len(entry) != dim for entry in entries):
            raise AmbientMismatch("structure vectors must have length dim")
        products.append(_nonzero_products(entries))
    return tuple(products)


def _nonzero_products(row: Iterable[Vector]) -> dict[int, dict[int, int]]:
    """One row of `Products` from the reduced vectors b_i * b_0, b_i * b_1, ..."""
    out = {}
    for j, v in enumerate(row):
        kc = {k: c for k, c in enumerate(v) if c}
        if kc:
            out[j] = kc
    return out


class Algebra:
    """An associative F_p-algebra on an explicit basis."""

    def __init__(
        self,
        modulus: int,
        dim: int,
        table: Sequence[Sequence[Sequence[int]]],
        unit: Optional[Sequence[int]] = None,
        check: bool = True,
        name: str = "",
    ):
        """From a dense table: table[i][j] is the coefficient vector of b_i * b_j."""
        p = check_prime(modulus)
        self._setup(p, int(dim), _products_of_table(table, int(dim), p), unit, check, name)

    @classmethod
    def from_products(
        cls,
        modulus: int,
        dim: int,
        products: Products,
        unit: Optional[Sequence[int]] = None,
        check: bool = True,
        name: str = "",
    ) -> "Algebra":
        """From non-zero constants already reduced mod p (see `Products`)."""
        alg = cls.__new__(cls)
        alg._setup(modulus, dim, products, unit, check, name)
        return alg

    def _setup(self, modulus, dim: int, products: Products, unit, check: bool, name: str) -> None:
        self.p = check_prime(modulus)
        self.dim = dim
        self.products = products
        self.unit: Optional[Vector] = vec(unit, self.p) if unit is not None else None
        self.name = name
        self._commutative: Optional[bool] = None
        # The kept answers of the module docstring, filled on first use.
        self._subspace_products: dict[Subspace, Optional[Products]] = {}
        self._identities: dict[Subspace, Optional[SubringIdentity]] = {}
        self._ideals: dict[tuple[Subspace, Subspace], bool] = {}
        if check:
            report = validate_algebra(self)
            if not report.ok:
                raise InvalidAlgebra(str(report))
        self._checked_unit = SubringIdentity(self.unit, True) if check and unit is not None else None

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """Dense view: table[i][j] is the coefficient vector of b_i * b_j."""
        return tuple(tuple(_dense(row.get(j, {}), self.dim) for j in range(self.dim)) for row in self.products)

    def __eq__(self, other) -> bool:
        # Dict equality ignores insertion order, and `Products` holds no
        # zeros, so equal algebras have equal products.
        return (
            isinstance(other, Algebra)
            and self.p == other.p
            and self.dim == other.dim
            and self.products == other.products
            and self.unit == other.unit
        )

    @functools.cached_property
    def _constants(self) -> frozenset[tuple[int, int, int, int]]:
        return frozenset(
            (i, j, k, c)
            for i, row in enumerate(self.products)
            for j, kc in row.items()
            for k, c in kc.items()
        )

    def __hash__(self):
        return hash((self.p, self.dim, self._constants, self.unit))

    def __repr__(self):
        tag = self.name or "algebra"
        return f"<{tag}: dim {self.dim} over F_{self.p}>"

    def space(self) -> Subspace:
        return Subspace.full(self.dim, self.p)

    def zero(self) -> Vector:
        return zero_vec(self.dim)

    def basis_vector(self, i: int) -> Vector:
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def mul(self, x: Sequence[int], y: Sequence[int]) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise AmbientMismatch("element length differs from algebra dimension")
        # Exact integer sums, reduced once: unreduced inputs give the same residues.
        ys = [(j, b) for j, b in enumerate(y) if b]
        out = [0] * self.dim
        for i, a in enumerate(x):
            row = self.products[i]
            if not (a and row):
                continue
            for j, b in ys:
                kc = row.get(j)
                if kc is not None:
                    ab = a * b
                    for k, c in kc.items():
                        out[k] += ab * c
        p = self.p
        return tuple([v % p for v in out])

    def basis_products(self, x: Sequence[int]) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
        """(left, right) with left[j] = x b_j and right[i] = b_i x as sparse
        entries, from one pass over `products`: right[i] sums row i over x's
        support, and a row i on x's support adds its entry j to left[j]."""
        if len(x) != self.dim:
            raise AmbientMismatch("element length differs from algebra dimension")
        xs, p = {i: a for i, a in enumerate(x) if a}, self.p
        by_col: list[list] = [[] for _ in x]
        right = []
        for i, row in enumerate(self.products):
            if i in xs:
                for j, kc in row.items():
                    by_col[j].append((xs[i], kc.items()))
            right.append(sparse_sum(((xs[j], kc.items()) for j, kc in row.items() if j in xs), p))
        return [sparse_sum(terms, p) for terms in by_col], right

    def is_commutative(self) -> bool:
        if self._commutative is None:
            rows = self.products
            self._commutative = all(
                rows[j].get(i) == kc for i, row in enumerate(rows) for j, kc in row.items()
            )
        return self._commutative

    def is_idempotent_vec(self, v: Vector) -> bool:
        return self.mul(v, v) == vec(v, self.p)

    def is_central_vec(self, v: Vector) -> bool:
        left, right = self.basis_products(v)
        return left == right


def _dense(kc: dict[int, int], n: int) -> Vector:
    out = [0] * n
    for k, c in kc.items():
        out[k] = c
    return tuple(out)


def _reduced(coeffs: Optional[dict[int, int]], p: int) -> dict[int, int]:
    return {k: c % p for k, c in coeffs.items() if c % p} if coeffs else {}


def _middle_slot_certificate(rows: Products, p: int, cols: list[list[tuple[int, int, int]]]) -> bool:
    """True when Light's test (Clifford and Preston, I, section 1.2) proves
    the algebra associative; cols[k] lists each (j, m, c) with b_j b_k = c b_m.
    N = {a : (x, a, y) = 0 for all x, y} is a subspace (the associator is
    trilinear) closed under products, as x((ab)y) = x(a(by)) = (xa)(by) =
    ((xa)b)y = (x(ab))y for a, b in N.  So if basis vectors S generate, the
    algebra is associative iff (b_i, s, b_k) = 0 for all s in S, i and k.  On
    a monomial table (each b_i b_j is c b_k with c != 0, or 0) S generates the
    span of its closure under the support table, and each bracketing of
    (i, s, k) is one term or none.  S is greedy as in `light_certificate`;
    False (not monomial, or S is every index) proves nothing."""
    if any(len(kc) != 1 for row in rows for kc in row.values()):
        return False
    inside, gens = set(), []
    for x in sorted(range(len(rows)), key=lambda x: -len(rows[x])):
        new = set() if x in inside else {x}
        gens += new
        while new:
            inside |= new
            new = {k for y in new for j, kc in rows[y].items() if j in inside for k in kc}.union(
                m for y in new for i, m, _ in cols[y] if i in inside
            ) - inside
    return len(gens) < len(rows) and all(
        {(i, k): (l, a * c % p) for i, m, a in cols[s] for k, lc in rows[m].items() for l, c in lc.items()}
        == {(i, k): (r, d * e % p) for k, qd in rows[s].items() for q, d in qd.items() for i, r, e in cols[q]}
        for s in gens
    )


def _associator_failures(alg: Algebra, limit: int = 32) -> list[tuple[int, int, int]]:
    """The first `limit` basis triples (i, j, k), in lexicographic order, with
    (b_i b_j) b_k != b_i (b_j b_k): none when `_middle_slot_certificate` proves
    it, else from a scan of both bracketings per i along chains of non-zero
    constants only, with exact sums reduced mod p once per pair."""
    rows, p = alg.products, alg.p
    # b_j b_k has c != 0 at b_m for every (j, k, c) in makers[m] and (j, m, c) in cols[k].
    makers: list[list[tuple[int, int, int]]] = [[] for _ in range(alg.dim)]
    cols: list[list[tuple[int, int, int]]] = [[] for _ in range(alg.dim)]
    for j, row in enumerate(rows):
        for k, jk in row.items():
            for m, c in jk.items():
                makers[m].append((j, k, c))
                cols[k].append((j, m, c))
    if _middle_slot_certificate(rows, p, cols):
        return []
    bad: list[tuple[int, int, int]] = []
    for i, row_i in enumerate(rows):
        left: dict[tuple[int, int], dict[int, int]] = {}
        for j, ij in row_i.items():
            for m, a in ij.items():
                for k, mk in rows[m].items():
                    out = left.setdefault((j, k), {})
                    for l, c in mk.items():
                        out[l] = out.get(l, 0) + a * c
        right: dict[tuple[int, int], dict[int, int]] = {}
        for m, im in row_i.items():
            for j, k, a in makers[m]:
                out = right.setdefault((j, k), {})
                for l, c in im.items():
                    out[l] = out.get(l, 0) + a * c
        for j, k in sorted(
            jk for jk in left.keys() | right.keys()
            if _reduced(left.get(jk), p) != _reduced(right.get(jk), p)
        ):
            bad.append((i, j, k))
            if len(bad) >= limit:
                return bad
    return bad


def validate_algebra(alg: Algebra) -> ValidationReport:
    """Report every non-associative basis triple and any unit violation."""
    issues = []
    for i, j, k in _associator_failures(alg):
        issues.append(Issue("ASSOC", f"(b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})"))
    if alg.unit is not None:
        for i, sides in enumerate(zip(*alg.basis_products(alg.unit))):
            for side, bu in zip(("left", "right"), sides):
                if bu != {i: 1}:
                    issues.append(Issue("UNIT", f"unit fails on the {side} of b{i}"))
    return ValidationReport(alg.name or "algebra", ("ASSOC", "UNIT"), issues)


def _products_on(alg: Algebra, sub: Subspace) -> Optional[Products]:
    """The products of sub's basis pairs in sub's coordinates, in the
    `Products` format, or None when one of them leaves sub.  Formed on the
    first call for sub and kept on alg.  The full space's RREF basis is the
    unit vectors, so its table is `alg.products`."""
    table = alg._subspace_products
    if sub not in table:
        full = alg.products if sub.dim == sub.rank == alg.dim else None
        table[sub] = short_cut("full-space table", full, lambda: _form_products(alg, sub))
    return table[sub]


def _form_products(alg: Algebra, sub: Subspace) -> Optional[Products]:
    rows = []
    for u in sub.basis:
        row = []
        for v in sub.basis:
            w = alg.mul(u, v)
            try:
                row.append(sub.coordinates_of(w))
            except ValueError:
                return None
        rows.append(_nonzero_products(row))
    return tuple(rows)


def is_multiplicatively_closed(alg: Algebra, sub: Subspace) -> bool:
    return _products_on(alg, sub) is not None


def ideal_closure(alg: Algebra, gens: Iterable[Sequence[int]]) -> Subspace:
    """Smallest subspace containing gens and absorbing basis multiplication:
    until `is_ideal` holds on the full space, the span gains each basis
    row's 2 dim products with the unit vectors, one `basis_products` call each."""
    current = Subspace.span(alg.dim, [vec(g, alg.p) for g in gens], alg.p)
    while not is_ideal(alg, current, alg.space()):
        grown = (_dense(w, alg.dim) for v in current.basis for side in alg.basis_products(v) for w in side)
        current = Subspace.span(alg.dim, [*current.basis, *grown], alg.p)
    return current


def subring_closure(alg: Algebra, parts: Iterable[Subspace]) -> Subspace:
    """Smallest subspace containing all parts and closed under the product:
    while the span has no kept product table, add its pairwise products."""
    rows: list[Vector] = []
    for part in parts:
        if part.dim != alg.dim or part.p != alg.p:
            raise AmbientMismatch("part lives in a different ambient space")
        rows.extend(part.basis)
    current = Subspace.span(alg.dim, rows, alg.p)
    while _products_on(alg, current) is None:
        grown = (alg.mul(u, v) for u in current.basis for v in current.basis)
        current = Subspace.span(alg.dim, [*current.basis, *grown], alg.p)
    return current


class SubringIdentity(NamedTuple):
    element: Vector
    central: bool


def identity_of(alg: Algebra, sub: Subspace) -> Optional[SubringIdentity]:
    """Two-sided identity of a multiplicatively closed subspace, if any.

    The zero subspace counts as the zero ring with identity 0.  Also reports
    whether the identity is central in the ambient algebra.  It is always
    idempotent: u lies in the subspace and fixes each x there, so u u = u.
    On the full space a declared unit that UNIT checked is the answer, with
    no system solved: a two-sided identity is unique, and it is central."""
    if sub.dim != alg.dim or sub.p != alg.p:
        raise AmbientMismatch("subspace lives in a different ambient space")
    memo = alg._identities
    if sub not in memo:
        prod = _products_on(alg, sub)
        if prod is None:
            raise NotMultiplicativelyClosed("subspace is not closed under the product")
        unit = alg._checked_unit if sub.rank == alg.dim else None
        memo[sub] = short_cut("declared unit", unit, lambda: _identity(alg, sub, prod))
    return memo[sub]


def _identity(alg: Algebra, sub: Subspace, prod: Products) -> Optional[SubringIdentity]:
    r = sub.rank
    if r == 0:
        return SubringIdentity(alg.zero(), True)

    def coords(i: int, k: int) -> list[int]:
        out = [0] * r
        for j, c in prod[i].get(k, {}).items():
            out[j] = c
        return out

    # Row k holds the coordinates of u_i * u_k and u_k * u_i for each basis
    # vector u_i in turn; solve sum_k c_k row_k = (e_i, e_i for each i).
    # A two-sided identity is unique, so the rows are independent when one
    # exists.
    rows = [[x for i in range(r) for x in (*coords(i, k), *coords(k, i))] for k in range(r)]
    target = [int(i == j) for i in range(r) for _ in range(2) for j in range(r)]
    combo = express(rows, target, alg.p)
    if combo is None:
        return None
    u = sub.from_coordinates(combo)
    return SubringIdentity(u, alg.is_central_vec(u))


def is_ideal(alg: Algebra, inner: Subspace, outer: Subspace) -> bool:
    """True iff inner absorbs multiplication by outer's basis (inner ⊆ outer, unscanned on
    the full space): read from a closed outer's kept table (`_absorbs`), else scanned by pair."""
    memo = alg._ideals
    key = (inner, outer)
    if key in memo:
        return memo[key]
    if outer.rank < outer.dim or (inner.dim, inner.p) != (outer.dim, outer.p):
        if not outer.contains_subspace(inner):
            raise NotContained("inner subspace is not contained in the outer one")
    prod = _products_on(alg, outer)
    fast = None if prod is None else inner == outer or _absorbs(alg, inner, outer, prod)
    ok = short_cut("ideal from the kept table", fast, lambda: all(
        inner.contains(alg.mul(b, x)) and inner.contains(alg.mul(x, b))
        for b in outer.basis
        for x in inner.basis
    ))
    memo[key] = ok
    return ok


def _absorbs(alg: Algebra, inner: Subspace, outer: Subspace, prod: Products) -> bool:
    """Whether inner absorbs outer's basis u, read in u's coordinates from
    prod, outer's table: there inner's basis rows are in RREF already (each
    leading 1 at a pivot of outer), u_i x = sum_k x_k u_i u_k, x u_i likewise."""
    sub = Subspace(outer.rank, alg.p, tuple(outer.coordinates_of(x) for x in inner.basis))
    sides = [[(x, prod[i].get(k, {}).items()) for k, x in row] for i in range(outer.rank) for row in sub.entries]
    sides += [[(x, prod[k].get(i, {}).items()) for k, x in row] for i in range(outer.rank) for row in sub.entries]
    return not any(sub.split_entries(sparse_sum(terms, alg.p))[1] for terms in sides)


class QuotientResult(NamedTuple):
    algebra: Algebra
    projection: LinMap


def quotient(alg: Algebra, ideal: Subspace) -> QuotientResult:
    """Quotient algebra on the ideal's pivot-free coordinates, plus projection."""
    if not is_ideal(alg, ideal, alg.space()):
        raise NotAnIdeal("quotient requires a two-sided ideal")
    coords = ideal.complement_coordinates()

    def project(v: Sequence[int]) -> Vector:
        w = ideal.reduce(v)
        return tuple(w[c] for c in coords)

    # A free column's basis vector is its own representative, and the
    # residual of b_i b_j has only free columns: its entries are the constants.
    at, rows = {c: i for i, c in enumerate(coords)}, alg.products
    products = tuple(
        {
            at[j]: dict(sorted((at[k], c) for k, c in rest.items()))
            for j, y in sorted(rows[i].items())
            if j in at and (rest := ideal.split_entries(y)[1])
        }
        for i in coords
    )
    unit = project(alg.unit) if alg.unit is not None else None
    q = Algebra.from_products(
        alg.p, len(coords), products, unit=unit, check=True, name=f"{alg.name or 'algebra'}/ideal"
    )
    proj = LinMap.from_images(
        alg.space(), q.space(), [project(alg.basis_vector(i)) for i in range(alg.dim)]
    )
    return QuotientResult(q, proj)


def is_ring_iso(m: LinMap, dom_alg: Algebra, cod_alg: Algebra) -> bool:
    """Bijective between its subspaces and multiplicative on the domain basis."""
    if m.domain.dim != dom_alg.dim or m.codomain.dim != cod_alg.dim:
        raise AmbientMismatch("map endpoints do not live in the stated algebras")
    return m.is_iso and is_ring_hom(m, dom_alg, cod_alg)


def is_ring_hom(m: LinMap, dom_alg: Algebra, cod_alg: Algebra) -> bool:
    """m(u_i u_j) = m(u_i) m(u_j) on the domain's basis pairs, where
    m(u_i u_j) = sum_k c_ijk m(u_k) is read from the domain's product table
    and m(u_i) m(u_j) = sum_{a,b} x_a y_b d_ab from cod_alg's constants d,
    over the non-zero entries x of m(u_i) and y of m(u_j)."""
    prod = _products_on(dom_alg, m.domain)
    if prod is None:
        return False
    if prod and m.codomain.dim != cod_alg.dim:
        raise AmbientMismatch("element length differs from algebra dimension")
    p, n, table = m.p, cod_alg.dim, cod_alg.products
    entries = [[(col, x) for col, x in enumerate(v) if x] for v in m.images]
    for row, mi in zip(prod, entries):
        for j, mj in enumerate(entries):
            # Left side minus right side, reduced once.
            out = [0] * n
            for k, c in row.get(j, {}).items():
                for col, x in entries[k]:
                    out[col] += c * x
            for a, x in mi:
                products = table[a]
                for b, y in mj:
                    kc = products.get(b)
                    if kc is not None:
                        xy = x * y
                        for col, c in kc.items():
                            out[col] -= xy * c
            if any([x % p for x in out]):
                return False
    return True


def product_ring(alg: Algebra, copies: int) -> Algebra:
    """Componentwise product on copies of alg; block i occupies [i*n, (i+1)*n)."""
    if copies < 1:
        raise ValueError("at least one copy required")
    n, p = alg.dim, alg.p
    total = n * copies
    products = tuple(
        {a * n + j: {a * n + k: c for k, c in kc.items()} for j, kc in row.items()}
        for a in range(copies)
        for row in alg.products
    )
    unit = None
    if alg.unit is not None:
        unit = tuple(alg.unit[i % n] for i in range(total))
    return Algebra.from_products(
        p, total, products, unit=unit, check=True, name=f"{alg.name or 'algebra'}^{copies}"
    )


def local_units_witness(
    alg: Algebra, sub: Subspace, candidates: Iterable[Sequence[int]]
) -> bool:
    """Close central idempotents under e∨f = e+f-ef, then absorb sub's basis."""
    pool = []
    for cand in candidates:
        u = vec(cand, alg.p)
        if not (alg.is_central_vec(u) and alg.is_idempotent_vec(u)):
            raise NotCentralIdempotent(f"candidate {u} is not a central idempotent")
        pool.append(u)
    closed = set(pool)
    frontier = list(closed)
    while frontier:
        e = frontier.pop()
        for f in list(closed):
            ef = alg.mul(e, f)
            join = tuple((a + b - c) % alg.p for a, b, c in zip(e, f, ef))
            if join not in closed:
                closed.add(join)
                frontier.append(join)
    for v in sub.basis:
        if not any(alg.mul(b, v) == v for b in closed):
            return False
    return True


class SubalgebraResult(NamedTuple):
    algebra: Algebra
    inclusion: LinMap


def subalgebra_on(alg: Algebra, sub: Subspace, name: str = "") -> SubalgebraResult:
    """Re-coordinatize a multiplicatively closed subspace as its own algebra."""
    # identity_of refuses a subspace of another ambient space or one that
    # is not closed under the product, and leaves its product table kept.
    ident = identity_of(alg, sub)
    products = _products_on(alg, sub)
    unit = sub.coordinates_of(ident.element) if ident is not None else None
    small = Algebra.from_products(
        alg.p, sub.rank, products, unit=unit, check=True, name=name or "subalgebra"
    )
    incl = LinMap.from_images(small.space(), sub, list(sub.basis))
    return SubalgebraResult(small, incl)


def diagonal_algebra(p: int, n: int, name: str = "") -> Algebra:
    """F_p^n with the pointwise product."""
    p = check_prime(p)
    products = tuple({i: {i: 1}} for i in range(n))
    return Algebra.from_products(p, n, products, unit=(1,) * n, name=name or f"F{p}^{n}")
