"""Partial skew rings graded by groupoid arrows or semigroup elements,
their ordered quotients, and the Morita-context verification between the
quotient of a unital action and the quotient of its globalization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .actions import Action, is_preunital, require_unital
from .algebras import Algebra, _associator_failures, ideal_closure, quotient
from .errors import InvalidAction, NotAGlobalization, NotAssociative, NotPreunital
from .globalize import Globalization, InvSgpGlobalization, verify_globalization
from .linalg import LinMap, Subspace, Vector, vec_add, vec_sub
from .validation import ValidationReport

MORITA_CLAUSES = (
    "MOR(i)",
    "MOR(ii)",
    "MOR(iii)",
    "MOR(iv)",
    "MOR(compat)",
    "MOR(surj)",
    "MOR(unital)",
    "MOR(idem)",
)


def _lift(a: Action, offsets: Sequence[int], dim: int, grade: int, v: Sequence[int]) -> Vector:
    """SkewRing.lift from explicit block offsets, usable while the table is built."""
    out = [0] * dim
    for k, c in enumerate(a.ideal_of[grade].coordinates_of(v)):
        out[offsets[grade] + k] = c
    return tuple(out)


@dataclass
class SkewRing:
    """Graded algebra on symbols delta_g: one block per grade, sized by the
    grade's ideal.  Built without the associativity gate; run
    check_skew_associative before quotienting."""

    source: Action
    algebra: Algebra
    grading: tuple[int, ...]
    offsets: tuple[int, ...]

    def lift(self, grade: int, v: Sequence[int]) -> Vector:
        """Skew-ring vector holding v (a member of the grade's ideal) at delta_grade."""
        return _lift(self.source, self.offsets, self.algebra.dim, grade, v)


def build_skew(a: Action) -> SkewRing:
    """Skew ring of a validated action; grading recorded per basis vector."""
    a.require_valid("skew ring needs a valid action")
    ix = a.index
    offsets = []
    grading: list[int] = []
    dim = 0
    for g in ix.grades:
        offsets.append(dim)
        r = a.ideal_of[g].rank
        grading.extend([g] * r)
        dim += r
    carrier = a.carrier
    p = carrier.p
    zero = (0,) * dim
    basis_members = [(g, v) for g in ix.grades for v in a.ideal_of[g].basis]

    table = []
    for g, vg in basis_members:
        row = []
        twisted = a.map_of[ix.inv[g]].apply(vg)
        for h, vh in basis_members:
            gh = ix.prod(g, h)
            if gh is None:
                row.append(zero)
                continue
            y = carrier.mul(twisted, vh)
            if not a.map_of[g].domain.contains(y):
                raise InvalidAction(
                    f"twisted product at ({ix.names[g]},{ix.names[h]}) leaves its domain"
                )
            z = a.map_of[g].apply(y)
            if not a.ideal_of[gh].contains(z):
                raise InvalidAction(
                    f"twisted product at ({ix.names[g]},{ix.names[h]}) escapes grade "
                    f"{ix.names[gh]}"
                )
            row.append(_lift(a, offsets, dim, gh, z))
        table.append(row)
    alg = Algebra(p, dim, table, unit=None, check=False, name="skew ring")
    if is_preunital(a):
        unit = zero
        for e in ix.anchors:
            unit = vec_add(unit, _lift(a, offsets, dim, e, a.unit_vector(e)), p)
        ok = all(
            alg.mul(unit, alg.basis_vector(i)) == alg.basis_vector(i)
            and alg.mul(alg.basis_vector(i), unit) == alg.basis_vector(i)
            for i in range(dim)
        )
        if ok:
            alg.unit = unit
    return SkewRing(a, alg, tuple(grading), tuple(offsets))


def check_skew_associative(s: SkewRing) -> ValidationReport:
    """Associator scan over all basis triples, reported with grades."""
    rep = ValidationReport("skew ring", ("ASSOC",))
    nm = s.source.index.names
    for i, j, k in _associator_failures(s.algebra):
        rep.add(
            "ASSOC",
            f"associator at grades ({nm[s.grading[i]]},{nm[s.grading[j]]},{nm[s.grading[k]]})",
        )
    return rep


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
    for g in ix.grades:
        for h in ix.grades:
            if g == h or not ix.le(g, h):
                continue
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
    a = o.skew.source
    if not is_preunital(a):
        raise NotPreunital("some anchor ideal has no central idempotent identity")
    total = (0,) * o.skew.algebra.dim
    for e in a.index.anchors:
        total = vec_add(total, o.skew.lift(e, a.unit_vector(e)), o.skew.algebra.p)
    img = o.projection.apply(total)
    q = o.quotient
    for i in range(q.dim):
        b = q.basis_vector(i)
        if q.mul(img, b) != b or q.mul(b, img) != b:
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
    quotient, with the intrinsic quotient kept for dimension comparison."""

    r_ring: OrderedSkewRing
    t_ring: OrderedSkewRing
    one_r: Vector
    right_module: Subspace  # T * 1_R
    left_module: Subspace  # 1_R * T
    corner: Subspace  # 1_R * T * 1_R
    double: Subspace  # T * 1_R * T
    embedded_copy: Subspace
    clauses: dict[str, bool]
    dims: dict[str, int]
    objects_finite: bool = True

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())

    def report(self) -> ValidationReport:
        rep = ValidationReport("morita context", MORITA_CLAUSES)
        for label, good in self.clauses.items():
            if not good:
                rep.add(label, "identity fails (see dims payload)")
        return rep


def morita_context(a: Action, gl: Globalization) -> MoritaReport:
    """Verify the corner identities and context axioms for an action and a
    globalization of it, identifying the carrier with its embedded image."""
    if gl.base is not a and gl.base != a:
        raise NotAGlobalization("globalization does not belong to this action")
    require_unital(a)
    checklist = verify_globalization(gl)
    if not checklist.ok:
        raise NotAGlobalization(str(checklist))
    return _morita_core(a, gl.global_action, gl.embeddings, build_ordered_skew(build_skew(a)))


def inv_sgp_morita(a: Action, gl: InvSgpGlobalization) -> MoritaReport:
    """Same corner identities for an inverse-semigroup action and the
    globalization produced by the pipeline."""
    if gl.action.structure != a.structure:
        raise NotAGlobalization("globalization belongs to a different semigroup")
    require_unital(a)
    return _morita_core(a, gl.action, gl.embeddings, build_inv_sgp_skew(a))


def _morita_core(
    a: Action, b: Action, phi: dict[int, LinMap], r_ring: OrderedSkewRing
) -> MoritaReport:
    """Corner identities inside the ordered quotient T of b's skew ring,
    with 1_R the image of a's anchor units along the embeddings phi."""
    t_ring = build_ordered_skew(build_skew(b))
    ix = a.index
    q = t_ring.quotient
    p = q.p
    full = q.space()
    basis = [q.basis_vector(i) for i in range(q.dim)]

    one = [0] * q.dim
    for e in ix.anchors:
        u = a.unit_vector(e)
        img = t_ring.project_lift(e, phi[e].apply(u))
        for i, x in enumerate(img):
            one[i] = (one[i] + x) % p
    one_r = tuple(one)

    right_module = Subspace.span(q.dim, [q.mul(t, one_r) for t in basis], p)  # T 1_R
    left_module = Subspace.span(q.dim, [q.mul(one_r, t) for t in basis], p)  # 1_R T
    corner = Subspace.span(q.dim, [q.mul(one_r, q.mul(t, one_r)) for t in basis], p)
    double = _span_products(q, right_module.basis, basis)  # T 1_R T

    def graded_sum(pieces: Sequence[tuple[int, Subspace]]) -> Subspace:
        total = Subspace.zero(q.dim, p)
        rows = []
        for grade, sub in pieces:
            for v in sub.basis:
                rows.append(t_ring.project_lift(grade, v))
        return total.add(Subspace.span(q.dim, rows, p))

    moved_pieces = []
    range_pieces = []
    embedded_pieces = []
    for g, anchor_r, anchor_d in ix.triples:
        img_d = phi[anchor_d].image()
        moved = b.map_of[g].image_of(img_d.intersect(b.map_of[g].domain))
        moved_pieces.append((g, moved))
        range_pieces.append((g, phi[anchor_r].image()))
        embedded_pieces.append((g, phi[anchor_r].image_of(a.ideal_of[g])))
    sum_moved = graded_sum(moved_pieces)
    sum_range = graded_sum(range_pieces)
    embedded_copy = graded_sum(embedded_pieces)

    compat = True
    for x in left_module.basis:
        for xp in right_module.basis:
            for y in left_module.basis:
                if q.mul(q.mul(x, xp), y) != q.mul(x, q.mul(xp, y)):
                    compat = False
    for xp in left_module.basis:  # second law with the roles exchanged
        for x in right_module.basis:
            for yp in right_module.basis:
                if q.mul(q.mul(x, xp), yp) != q.mul(x, q.mul(xp, yp)):
                    compat = False

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
        and _span_products(q, basis, basis) == full
    )

    clauses = {
        "MOR(i)": right_module == sum_moved,
        "MOR(ii)": left_module == sum_range,
        "MOR(iii)": corner == embedded_copy,
        "MOR(iv)": double == full,
        "MOR(compat)": compat,
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
    return MoritaReport(
        r_ring=r_ring,
        t_ring=t_ring,
        one_r=one_r,
        right_module=right_module,
        left_module=left_module,
        corner=corner,
        double=double,
        embedded_copy=embedded_copy,
        clauses=clauses,
        dims=dims,
    )
