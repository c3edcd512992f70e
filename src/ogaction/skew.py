"""Partial skew rings graded by groupoid arrows or semigroup elements,
their ordered quotients, and the Morita-context verification between the
quotient of a unital action and the quotient of its globalization."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

from .actions import Action, _translated, is_preunital, require_unital
from .algebras import Algebra, _associator_failures, _dense, ideal_closure, quotient
from .errors import InvalidAction, NotAGlobalization, NotAssociative, NotPreunital
from .globalize import Globalization, verify_globalization
from .linalg import LinMap, Subspace, Vector, sparse_sum, vec_add, vec_sub
from .validation import ValidationReport, short_cut


@dataclass
class SkewRing:
    """Graded algebra on symbols delta_g: one block per grade, sized by the
    grade's ideal.  Built without the associativity gate; run
    check_skew_associative before quotienting.  `_assoc` keeps that check's
    report once it has run; `algebra` must never be mutated after it."""

    source: Action
    algebra: Algebra
    grading: tuple[int, ...]
    offsets: tuple[int, ...]
    _assoc: Optional[ValidationReport] = field(
        default=None, init=False, repr=False, compare=False
    )

    def lift(self, grade: int, v: Sequence[int]) -> Vector:
        """Skew-ring vector holding v (a member of the grade's ideal) at delta_grade."""
        out = [0] * self.algebra.dim
        for k, c in enumerate(self.source.ideal_of[grade].coordinates_of(v)):
            out[self.offsets[grade] + k] = c
        return tuple(out)


def build_skew(a: Action) -> SkewRing:
    """Skew ring of a validated action; grading recorded per basis vector."""
    a.require_valid("skew ring needs a valid action")
    ix = a.index
    ranks = [a.ideal_of[g].rank for g in ix.grades]
    *offsets, dim = accumulate(ranks, initial=0)
    grading = tuple(g for g, r in zip(ix.grades, ranks) for _ in range(r))
    rows, p = a.carrier.products, a.carrier.p

    # Per grade g, each basis column of each grade h that g composes with,
    # in column order, so the first failure raised is the first in
    # row-major order.
    columns: list[list[tuple[int, int, int, tuple[tuple[int, int], ...]]]] = [[] for _ in ix.grades]
    for g, h, gh in ix.products():
        columns[g].extend((h, gh, offsets[h] + k, vh) for k, vh in enumerate(a.ideal_of[h].entries))

    products = []
    for g, alpha in zip(ix.grades, a.map_of):
        # alpha_{g^-1} has the grade's ideal as its domain: its images are
        # the twisted basis vectors, in basis order.
        for twisted in a.map_of[ix.inv[g]]._image_entries:
            row = {}
            for h, gh, col, vh in columns[g]:
                y = sparse_sum(
                    ((x * w, kc.items()) for i, x in twisted for j, w in vh if (kc := rows[i].get(j))), p
                )
                coords, rest = alpha.domain.split_entries(y)
                if rest:
                    raise InvalidAction(f"twisted product at ({ix.names[g]},{ix.names[h]}) leaves its domain")
                z = sparse_sum(((c, alpha._image_entries[k]) for k, c in coords), p)
                coords, rest = a.ideal_of[gh].split_entries(z)
                if rest:
                    raise InvalidAction(
                        f"twisted product at ({ix.names[g]},{ix.names[h]}) escapes grade {ix.names[gh]}"
                    )
                kc = {offsets[gh] + k: c for k, c in coords}
                if kc:
                    row[col] = kc
            products.append(row)
    alg = Algebra.from_products(p, dim, tuple(products), check=False, name="skew ring")
    return SkewRing(a, alg, grading, tuple(offsets))


def check_skew_associative(s: SkewRing) -> ValidationReport:
    """Associator scan over all basis triples, reported with grades; run on
    the first call and kept on the ring."""
    if s._assoc is None:
        rep = ValidationReport("skew ring", ("ASSOC",))
        nm = s.source.index.names
        for i, j, k in _associator_failures(s.algebra):
            rep.add(
                "ASSOC",
                f"associator at grades ({nm[s.grading[i]]},{nm[s.grading[j]]},{nm[s.grading[k]]})",
            )
        s._assoc = rep
    return s._assoc


@dataclass
class OrderedSkewRing:
    skew: SkewRing
    n_ideal: Subspace
    quotient: Algebra
    projection: LinMap

    def project_lift(self, grade: int, v: Sequence[int]) -> Vector:
        return self.projection.apply(self.skew.lift(grade, v))


def build_ordered_skew(s: SkewRing) -> OrderedSkewRing:
    """Quotient by the ideal identifying each graded copy along the order."""
    assoc = check_skew_associative(s)
    if not assoc.ok:
        raise NotAssociative(str(assoc))
    a = s.source
    ix = a.index
    p = s.algebra.p
    gens = []
    for g, h in ix.order_pairs():
        for v in a.ideal_of[g].basis:
            if not a.ideal_of[h].contains(v):
                raise InvalidAction(
                    f"ordered pair {ix.names[g]} <= {ix.names[h]} with non-nested ideals"
                )
            gens.append(vec_sub(s.lift(g, v), s.lift(h, v), p))
    n_ideal = ideal_closure(s.algebra, gens)
    q, proj = quotient(s.algebra, n_ideal)
    return OrderedSkewRing(s, n_ideal, q, proj)


def _unit_of(o: OrderedSkewRing) -> Optional[Vector]:
    """Image of the anchor units' sum if one `basis_products` call shows it
    a two-sided identity of the quotient, else None."""
    s, a = o.skew, o.skew.source
    if not is_preunital(a):
        return None
    total = (0,) * s.algebra.dim
    for e in a.index.anchors:
        total = vec_add(total, s.lift(e, a.unit_vector(e)), s.algebra.p)
    img = o.projection.apply(total)
    left, right = o.quotient.basis_products(img)
    return img if left == right == [{i: 1} for i in range(len(left))] else None


def skew_unit(o: OrderedSkewRing) -> Vector:
    """Image of the sum of the anchor units; verified two-sided in the quotient."""
    if not is_preunital(o.skew.source):
        raise NotPreunital("some anchor ideal has no central idempotent identity")
    if (img := _unit_of(o)) is None:
        raise InvalidAction("anchor unit image is not an identity of the quotient")
    return img


def build_inv_sgp_skew(a: Action) -> OrderedSkewRing:
    """Skew ring of a unital inverse-semigroup action, quotiented along the
    natural partial order."""
    a.require_valid("skew ring needs a valid action")
    require_unital(a)
    return build_ordered_skew(build_skew(a))


def _times(xb: Sequence[dict[int, int]], y: Sequence[int], p: int) -> Vector:
    """x y = sum_j y_j (x b_j), with xb[j] = x b_j as `basis_products` lists it."""
    return _dense(sparse_sum(((c, xb[j].items()) for j, c in enumerate(y) if c), p), len(y))


def _span_products(alg: Algebra, left: Sequence[Vector], right: Sequence[Vector]) -> Subspace:
    tables = [alg.basis_products(x)[0] for x in left]
    return Subspace.span(alg.dim, [_times(xb, y, alg.p) for xb in tables for y in right], alg.p)


@dataclass
class MoritaReport:
    """Corner-subspace identities and context checks inside the globalized
    quotient; `dims` holds the subspace ranks and the dimensions of T and R."""

    clauses: dict[str, bool]
    dims: dict[str, int]

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())


def morita_context(a: Action, gl: Globalization, r_ring: Optional[OrderedSkewRing] = None) -> MoritaReport:
    """Verify the corner identities and context axioms for an action and a
    globalization of it, identifying the carrier with its embedded image;
    R, a's ordered skew ring, is built here unless the caller keeps one."""
    if gl.base is not a and gl.base != a:
        raise NotAGlobalization("globalization does not belong to this action")
    require_unital(a)
    # A globalization built here carries the checklist its build ran.
    checklist = gl.checklist if gl.checklist is not None else verify_globalization(gl)
    if not checklist.ok:
        raise NotAGlobalization(str(checklist))
    return _morita_core(a, gl, r_ring)


def inv_sgp_morita(a: Action, gl: Globalization) -> MoritaReport:
    """`morita_context` under the name the semigroup pipeline once used."""
    return morita_context(a, gl)


def _morita_core(a: Action, gl: Globalization, r_ring: Optional[OrderedSkewRing]) -> MoritaReport:
    """Corner identities inside the ordered quotient T of the global
    action's skew ring, with R the ordered quotient of a's skew ring and
    e = 1_R the image of a's anchor units along the embeddings; every span
    is read from `basis_products`.

    MOR(compat) is associativity of T read on module triples: (x x') y ==
    x (x' y) for x, y in one of T e, e T and x' in the other.  The
    associator is trilinear, so module triples can fail only if basis
    triples of T fail, and the clause is that basis check.  `quotient`
    builds T with the check on and raises `InvalidAlgebra` when it fails,
    so the clause holds on every T reaching it, and only checked mode
    repeats the check.

    If e e = e and the global action's anchor units, lifted and projected,
    are a two-sided unit 1_T of T, then e = e e e lies in eTe, x = e x on
    eT, x = x e on Te and T T = T, so three clauses hold, and only checked
    mode runs their spans: MOR(idem), as e is a unit of eTe; MOR(unital), as
    each module product contains the module times e or 1_T; and MOR(surj),
    as (eT)(Te) = eTe and (Te)(eT) = TeT make it MOR(iii) and MOR(iv)."""
    r_ring = r_ring or build_ordered_skew(build_skew(a))
    b, phi = gl.global_action, gl.embeddings
    t_ring = build_ordered_skew(build_skew(b))
    ix = a.index
    q = t_ring.quotient
    p = q.p
    full = q.space()
    basis = [q.basis_vector(i) for i in range(q.dim)]

    one_r = (0,) * q.dim
    for e in ix.anchors:
        one_r = vec_add(one_r, t_ring.project_lift(e, phi[e].apply(a.unit_vector(e))), p)
    one_left, one_right = q.basis_products(one_r)

    right_module = Subspace.span(q.dim, [_dense(w, q.dim) for w in one_right], p)  # T 1_R
    left_module = Subspace.span(q.dim, [_dense(w, q.dim) for w in one_left], p)  # 1_R T
    corner = Subspace.span(q.dim, [_times(one_left, y, p) for y in right_module.basis], p)  # 1_R T 1_R
    lm, rm, cn = left_module.basis, right_module.basis, corner.basis
    double = Subspace.span(q.dim, [_dense(w, q.dim) for x in rm for w in q.basis_products(x)[0]], p)  # T 1_R T
    idempotent = _times(one_left, one_r, p) == one_r
    lemmas = idempotent and _unit_of(t_ring) is not None

    def graded_sum(pieces: Sequence[tuple[int, Subspace]]) -> Subspace:
        rows = [t_ring.project_lift(grade, v) for grade, sub in pieces for v in sub.basis]
        return Subspace.span(q.dim, rows, p)

    images = {e: phi[e].image() for e in ix.anchors}
    moved = _translated(b.map_of, ix.triples, images)
    sum_moved = graded_sum(list(zip(ix.grades, moved)))
    sum_range = graded_sum([(g, images[r]) for g, r, _ in ix.triples])
    embedded_copy = graded_sum([(g, phi[r].image_of(a.ideal_of[g])) for g, r, _ in ix.triples])

    def spans_equal(*cases: tuple[Sequence[Vector], Sequence[Vector], Subspace]) -> bool:
        return all(_span_products(q, x, y) == want for x, y, want in cases)

    iii, iv = corner == embedded_copy, double == full
    clauses = {
        "MOR(i)": right_module == sum_moved,
        "MOR(ii)": left_module == sum_range,
        "MOR(iii)": iii,
        "MOR(iv)": iv,
        "MOR(compat)": not short_cut("MOR(compat): T is associative", [], lambda: _associator_failures(q, limit=1)),
        "MOR(surj)": short_cut("MOR(surj)", (iii and iv) if lemmas else None,
                               lambda: spans_equal((lm, rm, embedded_copy), (rm, lm, full))),
        "MOR(unital)": short_cut("MOR(unital)", lemmas or None, lambda: spans_equal(
            (cn, lm, left_module), (lm, basis, left_module), (basis, rm, right_module), (rm, cn, right_module))),
        "MOR(idem)": short_cut("MOR(idem)", lemmas or None, lambda: spans_equal((cn, cn, corner)) and Subspace.span(
            q.dim, [v for row in q.table for v in row if any(v)], p) == full),
    }
    dims = {
        "T": q.dim,
        "R": r_ring.quotient.dim,
        "embedded_copy": embedded_copy.rank,
        "corner": corner.rank,
        "T1R": right_module.rank,
        "1RT": left_module.rank,
        "T1RT": double.rank,
        "one_r_idempotent": int(idempotent),
        "copy_faithful": int(embedded_copy.rank == r_ring.quotient.dim),
    }
    return MoritaReport(clauses, dims)
