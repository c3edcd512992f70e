"""Partial skew rings graded by groupoid arrows or semigroup elements,
their ordered quotients, and the Morita-context verification between the
quotient of a unital action and the quotient of its globalization."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

from .actions import Action, _translated, is_preunital, require_unital
from .algebras import Algebra, _associator_failures, ideal_closure, quotient
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


def skew_unit(o: OrderedSkewRing) -> Vector:
    """Image of the sum of the anchor units; verified two-sided in the quotient."""
    s = o.skew
    a = s.source
    if not is_preunital(a):
        raise NotPreunital("some anchor ideal has no central idempotent identity")
    total = (0,) * s.algebra.dim
    for e in a.index.anchors:
        total = vec_add(total, s.lift(e, a.unit_vector(e)), s.algebra.p)
    img = o.projection.apply(total)
    left, right = o.quotient.basis_products(img)
    if not left == right == [{i: 1} for i in range(len(left))]:
        raise InvalidAction("anchor unit image is not an identity of the quotient")
    return img


def build_inv_sgp_skew(a: Action) -> OrderedSkewRing:
    """Skew ring of a unital inverse-semigroup action, quotiented along the
    natural partial order."""
    a.require_valid("skew ring needs a valid action")
    require_unital(a)
    return build_ordered_skew(build_skew(a))


def _span_products(alg: Algebra, left: Sequence[Vector], right: Sequence[Vector]) -> Subspace:
    rows = [alg.mul(x, y) for x in left for y in right]
    return Subspace.span(alg.dim, rows, alg.p)


@dataclass
class MoritaReport:
    """Corner-subspace identities and context checks inside the globalized
    quotient; `dims` holds the subspace ranks and the dimensions of T and R."""

    clauses: dict[str, bool]
    dims: dict[str, int]

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())


def morita_context(a: Action, gl: Globalization) -> MoritaReport:
    """Verify the corner identities and context axioms for an action and a
    globalization of it, identifying the carrier with its embedded image."""
    if gl.base is not a and gl.base != a:
        raise NotAGlobalization("globalization does not belong to this action")
    require_unital(a)
    # A globalization built here carries the checklist its build ran.
    checklist = gl.checklist if gl.checklist is not None else verify_globalization(gl)
    if not checklist.ok:
        raise NotAGlobalization(str(checklist))
    return _morita_core(a, gl)


def inv_sgp_morita(a: Action, gl: Globalization) -> MoritaReport:
    """`morita_context` under the name the semigroup pipeline once used."""
    return morita_context(a, gl)


def _morita_core(a: Action, gl: Globalization) -> MoritaReport:
    """Corner identities inside the ordered quotient T of the global
    action's skew ring, with R the ordered quotient of a's skew ring and
    1_R the image of a's anchor units along the embeddings.

    MOR(compat) is associativity of T read on module triples: (x x') y ==
    x (x' y) for x, y in one of T 1_R, 1_R T and x' in the other.  The
    associator is trilinear, so module triples can fail only if basis
    triples of T fail, and the clause is that basis check.  `quotient`
    builds T with the check on and raises `InvalidAlgebra` when it fails,
    so the clause holds on every T reaching it, and only checked mode
    repeats the check."""
    r_ring = build_ordered_skew(build_skew(a))
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

    right_module = _span_products(q, basis, [one_r])  # T 1_R
    left_module = _span_products(q, [one_r], basis)  # 1_R T
    corner = _span_products(q, [one_r], right_module.basis)  # 1_R T 1_R
    double = _span_products(q, right_module.basis, basis)  # T 1_R T

    def graded_sum(pieces: Sequence[tuple[int, Subspace]]) -> Subspace:
        rows = [t_ring.project_lift(grade, v) for grade, sub in pieces for v in sub.basis]
        return Subspace.span(q.dim, rows, p)

    images = {e: phi[e].image() for e in ix.anchors}
    moved = _translated(b.map_of, ix.triples, images)
    sum_moved = graded_sum(list(zip(ix.grades, moved)))
    sum_range = graded_sum([(g, images[r]) for g, r, _ in ix.triples])
    embedded_copy = graded_sum([(g, phi[r].image_of(a.ideal_of[g])) for g, r, _ in ix.triples])

    pair_to_r = _span_products(q, left_module.basis, right_module.basis)
    pair_to_t = _span_products(q, right_module.basis, left_module.basis)

    unital_modules = (
        _span_products(q, corner.basis, left_module.basis) == left_module
        and _span_products(q, left_module.basis, basis) == left_module
        and _span_products(q, basis, right_module.basis) == right_module
        and _span_products(q, right_module.basis, corner.basis) == right_module
    )
    idempotent_rings = (
        _span_products(q, corner.basis, corner.basis) == corner
        and Subspace.span(q.dim, [v for row in q.table for v in row if any(v)], p) == full
    )

    clauses = {
        "MOR(i)": right_module == sum_moved,
        "MOR(ii)": left_module == sum_range,
        "MOR(iii)": corner == embedded_copy,
        "MOR(iv)": double == full,
        "MOR(compat)": not short_cut("MOR(compat): T is associative", [], lambda: _associator_failures(q, limit=1)),
        "MOR(surj)": pair_to_r == embedded_copy and pair_to_t == full,
        "MOR(unital)": unital_modules,
        "MOR(idem)": idempotent_rings,
    }
    dims = {
        "T": q.dim,
        "R": r_ring.quotient.dim,
        "embedded_copy": embedded_copy.rank,
        "corner": corner.rank,
        "T1R": right_module.rank,
        "1RT": left_module.rank,
        "T1RT": double.rank,
        "one_r_idempotent": int(q.mul(one_r, one_r) == one_r),
        "copy_faithful": int(embedded_copy.rank == r_ring.quotient.dim),
    }
    return MoritaReport(clauses, dims)
