"""Partial ordered actions of ordered groupoids on algebras, and partial
actions of inverse semigroups: axiom validation, strength and the
composition law, restrictions of global actions, equivalence search, and
the transfers along the inverse-semigroup/groupoid correspondence."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .algebras import (
    Algebra,
    identity_of,
    is_ideal,
    is_ring_iso,
    subalgebra_on,
)
from .errors import (
    BudgetExceeded,
    GroupoidMismatch,
    InvalidAction,
    NotAnIdeal,
    NotContained,
    NotGlobal,
    NotMonotone,
    NotMultiplicativelyClosed,
    NotPreunital,
    NotUnital,
)
from .groupoids import OrderedGroupoid
from .linalg import LinMap, Subspace, Vector, combine, split_rows
from .semigroups import GradedIndex, InverseSemigroup, esn_to_groupoid, graded_index
from .validation import ValidationReport, short_cut

ACTION_CLAUSES = ("IDEAL", "ISO", "P1", "P2", "P3", "PO", "INV", "IMG")
INV_ACTION_CLAUSES = ("IDEAL'", "ISO'", "P1'", "P2'", "P3'")


@dataclass(frozen=True)
class Action:
    """A family (A_g, alpha_g) indexed by the grades of an ordered groupoid
    (its arrows) or of an inverse semigroup (its elements).

    ideal_of[g] is a subspace of the carrier's space; map_of[g] sends
    ideal_of[inv g] to ideal_of[g].  `inclusion`, when set by a restriction
    builder, embeds the carrier into the parent action's carrier.  The
    fields are frozen, so the validation report is computed once and kept;
    `dataclasses.replace` does not hand it on.  The units of the ideals are
    kept on the carrier, keyed by the ideal (see `identity_of`).
    """

    structure: "OrderedGroupoid | InverseSemigroup"
    carrier: Algebra
    ideal_of: tuple[Subspace, ...]
    map_of: tuple[LinMap, ...]
    name: str = field(default="", compare=False)
    inclusion: Optional[LinMap] = field(default=None, compare=False)
    _report: Optional[ValidationReport] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = self.structure.n
        if len(self.ideal_of) != n or len(self.map_of) != n:
            raise InvalidAction("one ideal and one map required per grade")
        object.__setattr__(self, "ideal_of", tuple(self.ideal_of))
        object.__setattr__(self, "map_of", tuple(self.map_of))

    @property
    def index(self) -> GradedIndex:
        return graded_index(self.structure)

    def apply(self, g: int, v: Sequence[int]) -> Vector:
        return self.map_of[g].apply(v)

    def unit_vector(self, g: int) -> Optional[Vector]:
        """Central identity of ideal_of[g] (idempotent: see `identity_of`); None if absent."""
        try:
            ident = identity_of(self.carrier, self.ideal_of[g])
        except NotMultiplicativelyClosed:
            return None
        if ident is None or not ident.central:
            return None
        return ident.element

    def validate(self) -> ValidationReport:
        """The axiom report of the structure's kind, computed on the first
        call and kept.  The validators are looked up at call time, so a
        rebinding of their module names sees every real validation."""
        if self._report is None:
            if isinstance(self.structure, OrderedGroupoid):
                rep = validate_po_action(self)
            else:
                rep = validate_inv_sgp_action(self)
            object.__setattr__(self, "_report", rep)
        return self._report

    def require_valid(self, context: str = "") -> None:
        """Raise InvalidAction with the report, after `context` if given."""
        rep = self.validate()
        if not rep.ok:
            raise InvalidAction(f"{context}:\n{rep}" if context else str(rep))


# Both names stay bound to the one type: callers construct through them, and
# perfbench/tracer.py patches their methods by name.
POAction = InvSgpAction = Action


def _check_ideals_and_isos(a: Action, rep: ValidationReport, prime: str = "") -> list[bool]:
    """The IDEAL, ISO and anchor-sum P1 clauses, common to both kinds of
    action (labels carry `prime` on the semigroup side).  Returns whether
    each grade's map is a ring isomorphism between the right ideals."""
    ix = a.index
    nm = ix.names
    full = a.carrier.space()

    def require_ideal(g: int, outer: Subspace, where: str) -> None:
        try:
            if not is_ideal(a.carrier, a.ideal_of[g], outer):
                rep.add("IDEAL" + prime, f"ideal at {nm[g]} does not absorb {where}")
        except NotContained:
            rep.add("IDEAL" + prime, f"ideal at {nm[g]} is not inside {where}")

    for e in ix.anchors:
        require_ideal(e, full, "the carrier")
    for g, r, _ in ix.triples:
        require_ideal(g, a.ideal_of[r], "its range ideal")
    iso_ok = []
    for g in ix.grades:
        m = a.map_of[g]
        ok = m.domain == a.ideal_of[ix.inv[g]] and m.codomain == a.ideal_of[g]
        if not ok:
            rep.add("ISO" + prime, f"map at {nm[g]} has wrong endpoints")
        elif not is_ring_iso(m, a.carrier, a.carrier):
            rep.add("ISO" + prime, f"map at {nm[g]} is not a ring isomorphism")
            ok = False
        iso_ok.append(ok)
    total = Subspace.zero(a.carrier.dim, a.carrier.p)
    for e in ix.anchors:
        total = total.add(a.ideal_of[e])
    if total != full:
        rep.add("P1" + prime, "anchor ideals do not sum to the carrier")
    return iso_ok


def _partial(a: Action):
    """(g, v) -> alpha_g(v), or None where v lies outside alpha_g's domain."""
    def apply(g: int, v: Vector) -> Optional[Vector]:
        try:
            return a.map_of[g].apply(v)
        except ValueError:
            return None
    return apply


def _composite_failures(a: Action, s: int, t: int, st: int, overlap: Subspace, apply=None) -> list[str]:
    """The composite law alpha_s alpha_t = alpha_st on the overlap: one
    message per basis vector where alpha_t leaves alpha_s's domain, where
    alpha_st is undefined, or where the two sides differ.  When the overlap
    is dom alpha_t = dom alpha_st, cod alpha_t = dom alpha_s and cod alpha_s =
    cod alpha_st, the maps share bases: the law is M_t M_s = M_st (each row a
    combination of M_s's rows), and only a mismatch runs the loop.  `apply`
    is `_partial(a)` or a memo of it; the overlap lies in alpha_t's domain."""
    nm = a.index.names
    apply = apply or _partial(a)
    ms, mt, mst = a.map_of[s], a.map_of[t], a.map_of[st]
    same = overlap == mt.domain == mst.domain and mt.codomain == ms.domain and ms.codomain == mst.codomain
    same = same and mst.matrix == tuple(combine(r, ms.matrix, ms.codomain.rank, ms.p) for r in mt.matrix)

    def loop():
        for v in overlap.basis:
            lhs = apply(s, apply(t, v))
            if lhs is None:
                yield f"composite at ({nm[s]},{nm[t]}) leaves the domain"
                continue
            rhs = apply(st, v)
            if rhs is None:
                yield f"product map at ({nm[s]},{nm[t]}) undefined on the overlap"
            elif lhs != rhs:
                yield f"composite and product map differ at ({nm[s]},{nm[t]})"
    return short_cut("P3 on a full overlap", [] if same else None, lambda: list(loop()))


def validate_po_action(a: Action) -> ValidationReport:
    """Full axiom check: ideal chains, iso property, the three partial-action
    conditions, order compatibility, and the two derived identities."""
    ix = a.index  # validates the structure
    nm = ix.names
    rep = ValidationReport(a.name or "action", ACTION_CLAUSES)
    iso_ok = _check_ideals_and_isos(a, rep)
    meet = functools.cache(Subspace.intersect)  # read by P2 and again by IMG
    # A map with checked endpoints is decided by its canonical matrix, so
    # P1 and INV compare maps by equality.
    for e in a.structure.objects:
        if iso_ok[e] and a.map_of[e] != LinMap.identity(a.ideal_of[e]):
            rep.add("P1", f"map at object {nm[e]} is not the identity")
    for g, h, gh in ix.products():
        if not (iso_ok[g] and iso_ok[h]):
            continue
        inter = meet(a.ideal_of[ix.inv[g]], a.ideal_of[h])
        pulled = a.map_of[h].preimage_of(inter)
        if not a.ideal_of[ix.inv[gh]].contains_subspace(pulled):
            rep.add("P2", f"pulled-back overlap of ({nm[g]},{nm[h]}) escapes its target")
        if not iso_ok[gh]:
            continue
        for message in _composite_failures(a, g, h, gh, pulled):
            rep.add("P3", message)
    for g, h in ix.order_pairs():
        if not a.ideal_of[h].contains_subspace(a.ideal_of[g]):
            rep.add("PO", f"{nm[g]} <= {nm[h]} but ideals are not nested")
            continue
        if iso_ok[g] and iso_ok[h]:
            dom = a.ideal_of[ix.inv[g]]
            if not a.map_of[h].domain.contains_subspace(dom):
                rep.add("PO", f"map at {nm[h]} does not extend the one at {nm[g]}")
                continue
            if not all(a.map_of[h].apply(v) == a.map_of[g].apply(v) for v in dom.basis):
                rep.add("PO", f"maps at {nm[g]} <= {nm[h]} disagree")
    for g in ix.grades:
        if iso_ok[g] and iso_ok[ix.inv[g]] and a.map_of[g].inverse() != a.map_of[ix.inv[g]]:
            rep.add("INV", f"inverse of map at {nm[g]} differs from map at inv({nm[g]})")
    for g, h, gh in ix.products():
        if not iso_ok[g]:
            continue
        inter = meet(a.ideal_of[ix.inv[g]], a.ideal_of[h])
        m, src = a.map_of[g], inter.intersect(a.map_of[g].domain)
        whole = m.codomain if src == m.domain else None
        image = short_cut("IMG: an isomorphism maps onto its codomain", whole, lambda: m.image_of(src))
        expected = a.ideal_of[g].intersect(a.ideal_of[gh])
        if image != expected:
            rep.add("IMG", f"image identity fails on ({nm[g]},{nm[h]})")
    return rep


def require_valid_action(a: Action) -> None:
    a.require_valid()


def is_global(a: Action) -> bool:
    return all(a.ideal_of[g] == a.ideal_of[r] for g, r, _ in a.index.triples)


def is_preunital(a: Action) -> bool:
    return all(a.unit_vector(e) is not None for e in a.index.anchors)


def first_non_unital_arrow(a: Action) -> Optional[int]:
    for g in a.index.grades:
        if a.unit_vector(g) is None:
            return g
    return None


def is_unital(a: Action) -> bool:
    return first_non_unital_arrow(a) is None


def require_unital(a: Action) -> None:
    """Refuse an action with a grade whose ideal has no central idempotent
    identity, naming the first such grade."""
    bad = first_non_unital_arrow(a)
    if bad is not None:
        raise NotUnital(
            f"ideal at {a.index.names[bad]} has no central idempotent identity", arrow=bad
        )


def is_strong(a: Action) -> bool:
    """Corestriction ideals equal object-arrow intersections everywhere."""
    a.require_valid("strength needs a valid action")
    g0 = a.structure
    for g in g0.arrows():
        for e in g0.objects:
            if g0.le(e, g0.ran[g]):
                co = g0.corestriction(e, g)
                if a.ideal_of[co] != a.ideal_of[e].intersect(a.ideal_of[g]):
                    return False
    return True


def meets_compatible(a: Action) -> bool:
    """Object meets carry exactly the ideal intersections.

    This does not follow from the corestriction condition alone: two
    incomparable objects may share ideal content above a small meet.  The
    composition law along pseudoproducts is equivalent to strength plus
    this condition.
    """
    g0 = a.structure
    objs = sorted(g0.objects)
    for e in objs:
        for f in objs:
            m = g0.meet_objects(e, f)
            if m is None:
                continue
            if a.ideal_of[m] != a.ideal_of[e].intersect(a.ideal_of[f]):
                return False
    return True


def satisfies_ps(a: Action) -> bool:
    """Composition law along pseudoproducts, as a partial-map equality.

    Both sides must have the same domain (the pulled-back overlap on the
    left, the product-side intersection on the right) and the same values.
    """
    a.require_valid("the composition law needs a valid action")
    g0 = a.structure
    for g, row in enumerate(g0._pseudoproducts):
        for h, gh in enumerate(row):
            if gh is None:
                continue
            inter = a.ideal_of[g0.inv[g]].intersect(a.ideal_of[h])
            left_dom = a.map_of[h].preimage_of(inter)
            right_dom = a.ideal_of[g0.inv[gh]].intersect(a.ideal_of[g0.inv[h]])
            if left_dom != right_dom:
                return False
            if _composite_failures(a, g, h, gh, left_dom):
                return False
    return True


def _pull_coords(ambient_sub: Subspace, s: Subspace) -> Subspace:
    """Rewrite s (inside ambient_sub) in ambient_sub's coordinate system."""
    rows = [ambient_sub.coordinates_of(v) for v in s.basis]
    return Subspace.span(ambient_sub.rank, rows, ambient_sub.p)


def _cut_out(
    g0: OrderedGroupoid,
    ambient: Algebra,
    carrier_sub: Subspace,
    pieces: Sequence[Subspace],
    ambient_maps: Sequence[LinMap],
    name: str,
    carrier_name: str,
) -> Action:
    """The action on the subring carrier_sub of `ambient` whose ideal at
    each arrow is pieces[g] and whose map is ambient_maps[g] read on the
    pieces, all rewritten in carrier_sub's coordinates.  `inclusion`
    embeds the new carrier into `ambient`.  A map that carries a piece out
    of carrier_sub contradicts the construction, so it raises."""
    small, incl = subalgebra_on(ambient, carrier_sub, name=carrier_name)
    ideals = tuple(_pull_coords(carrier_sub, s) for s in pieces)
    maps = []
    for g in g0.arrows():
        dom = ideals[g0.inv[g]]
        images = []
        for v in dom.basis:
            out = ambient_maps[g].apply(carrier_sub.from_coordinates(v))
            try:
                images.append(carrier_sub.coordinates_of(out))
            except ValueError:
                raise InvalidAction(
                    f"translated carrier escapes the generated subring at {g0.names[g]} (finding)"
                )
        maps.append(LinMap.from_images(dom, ideals[g], images))
    return Action(g0, small, ideals, tuple(maps), name=name, inclusion=incl)


def _translated(
    maps: Sequence[LinMap],
    triples: Sequence[tuple[int, int, int]],
    family: Mapping[int, Subspace],
) -> list[Subspace]:
    """Per grade g, with (g, ran g, dom g) in `triples`: maps[g] applied to
    the family's subspace at dom g met with the map's domain."""
    return [maps[g].image_of(family[d].intersect(maps[g].domain)) for g, _, d in triples]


def _restrict_global(
    beta: Action,
    carrier_sub: Subspace,
    object_family: dict[int, Subspace],
    name: str,
) -> Action:
    """Cut the valid global action beta down along the object family: the
    piece at g is the family's ideal at ran g met with beta_g of the one at
    dom g (at an object, where beta is the identity, the family's ideal)."""
    triples = beta.index.triples
    moved = _translated(beta.map_of, triples, object_family)
    pieces = [object_family[r].intersect(moved[g]) for g, r, _ in triples]
    return _cut_out(beta.structure, beta.carrier, carrier_sub, pieces, beta.map_of, name, name)


def standard_restriction(beta: Action, a_ideal: Subspace) -> Action:
    """Restrict a global ordered action to a two-sided ideal of its carrier.
    `is_ideal` against the full space cannot raise NotContained: a subspace
    of this ambient lies in it, and one of another raises AmbientMismatch."""
    beta.require_valid("cannot restrict an invalid action")
    if not is_global(beta):
        raise NotGlobal("standard restriction needs a global ordered action")
    if not is_ideal(beta.carrier, a_ideal, beta.carrier.space()):
        raise NotAnIdeal("restriction target is not a two-sided ideal")
    family = {e: a_ideal.intersect(beta.ideal_of[e]) for e in beta.structure.objects}
    restricted = _restrict_global(
        beta, a_ideal, family, name=f"{beta.name or 'action'}|ideal"
    )
    restricted.require_valid("standard restriction failed to validate")
    if not is_strong(restricted):
        raise InvalidAction("standard restriction is unexpectedly not strong")
    return restricted


def general_restriction(beta: Action, family: dict[int, Subspace]) -> Action:
    """Restrict a global ordered action along a monotone family of ideals;
    no entry's ideal test raises NotContained (see `standard_restriction`)."""
    beta.require_valid("cannot restrict an invalid action")
    g0 = beta.structure
    if not is_global(beta):
        raise NotGlobal("restriction needs a global ordered action")
    if set(family) != set(g0.objects):
        raise NotAnIdeal("family must assign one ideal per object")
    for e, sub in family.items():
        if not is_ideal(beta.carrier, sub, beta.carrier.space()):
            raise NotAnIdeal(f"family entry at {g0.names[e]} is not a two-sided ideal")
        if not beta.ideal_of[e].contains_subspace(sub):
            raise NotAnIdeal(f"family entry at {g0.names[e]} escapes the object ideal")
    for e in g0.objects:
        for f in g0.objects:
            if g0.le(e, f) and not family[f].contains_subspace(family[e]):
                raise NotMonotone(
                    f"family is not monotone on {g0.names[e]} <= {g0.names[f]}"
                )
    carrier_sub = Subspace.zero(beta.carrier.dim, beta.carrier.p)
    for e in g0.objects:
        carrier_sub = carrier_sub.add(family[e])
    restricted = _restrict_global(
        beta, carrier_sub, dict(family), name=f"{beta.name or 'action'}|family"
    )
    restricted.require_valid("restriction failed to validate")
    return restricted


@dataclass
class EquivalenceWitness:
    """Ring isomorphisms per object, mapping one action's ideals to another's."""

    maps: dict[int, LinMap]


def identity_witness(a: Action) -> EquivalenceWitness:
    return EquivalenceWitness({e: LinMap.identity(a.ideal_of[e]) for e in a.index.anchors})


def _require_valid_pair(a: Action, c: Action) -> None:
    if a.structure != c.structure:
        raise GroupoidMismatch("equivalence is defined over a single groupoid")
    a.require_valid("equivalence needs valid actions")
    c.require_valid("equivalence needs valid actions")


def _intertwining_failures(a: Action, c: Action, phi: dict[int, LinMap]):
    """Per arrow g and basis vector v of a's map domain at g where phi fails
    to intertwine alpha_g with gamma_g: (g, True) when phi_dom(v) leaves
    gamma_g's domain, (g, False) when the two sides differ."""
    ix = a.index
    for g, r, d in ix.triples:
        for v in a.ideal_of[ix.inv[g]].basis:
            lhs = phi[r].apply(a.map_of[g].apply(v))
            moved = phi[d].apply(v)
            if not c.map_of[g].domain.contains(moved):
                yield g, True
            elif lhs != c.map_of[g].apply(moved):
                yield g, False


def verify_equivalence(a: Action, c: Action, w: EquivalenceWitness) -> bool:
    """Object-wise isos matching ideals and intertwining the partial maps."""
    _require_valid_pair(a, c)
    ix = a.index
    for e in ix.anchors:
        m = w.maps.get(e)
        if m is None or m.domain != a.ideal_of[e] or m.codomain.dim != c.carrier.dim:
            return False
        if m.image() != c.ideal_of[e]:
            return False
        if not is_ring_iso(m, a.carrier, c.carrier):
            return False
    for g, r, _ in ix.triples:
        if w.maps[r].image_of(a.ideal_of[g]) != c.ideal_of[g]:
            return False
    return next(_intertwining_failures(a, c, w.maps), None) is None


@dataclass
class EquivalenceSearch:
    witness: Optional[EquivalenceWitness]
    disproof: Optional[str]
    tested: int

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def definitive_no(self) -> bool:
        return self.disproof is not None


def _commutative_on(alg: Algebra, sub: Subspace) -> bool:
    return all(
        alg.mul(u, v) == alg.mul(v, u) for u in sub.basis for v in sub.basis
    )


def _primitive_idempotents(alg: Algebra, sub: Subspace, cap: int) -> Optional[list[Vector]]:
    """Primitive idempotents of a non-zero commutative subring, by exhaustive
    scan; None unless there are rank(sub) of them.  Those form an orthogonal
    basis: for distinct minimal idempotents e and f, ef is an idempotent
    below both, so 0; and orthogonal non-zero idempotents are independent."""
    count = alg.p ** sub.rank
    if count > cap:
        return None
    idems = [
        v for v in sub.vectors() if any(v) and alg.mul(v, v) == v
    ]
    prims = []
    for u in idems:
        strictly_below = [
            w for w in idems if w != u and alg.mul(w, u) == w and alg.mul(u, w) == w
        ]
        if not strictly_below:
            prims.append(u)
    return sorted(prims) if len(prims) == sub.rank else None


def _object_candidates(
    a: Action, c: Action, e: int, budget: int
) -> list[LinMap]:
    """Candidate ring isomorphisms from a's ideal at e onto c's, of the same
    rank (`search_equivalence` refuses a mismatch first).  When both have an
    orthogonal idempotent basis, a linear bijection taking one basis onto
    the other is multiplicative, as (sum x_i e_i)(sum y_j e_j) =
    sum x_i y_i e_i, so each permutation is a candidate untested; otherwise
    every matrix is tested with `is_ring_iso`."""
    dom = a.ideal_of[e]
    cod = c.ideal_of[e]
    if dom.rank == 0:
        return [LinMap(dom, cod, ())]
    if _commutative_on(a.carrier, dom) and _commutative_on(c.carrier, cod):
        prims_a = _primitive_idempotents(a.carrier, dom, budget)
        prims_c = _primitive_idempotents(c.carrier, cod, budget)
        if prims_a is not None and prims_c is not None:
            return [
                LinMap.from_images(dom, cod, split_rows(dom.dim, prims_a, perm, dom.p)[1])
                for perm in itertools.permutations(prims_c)
            ]
    # exhaustive fallback over all matrices, only viable for tiny ideals
    r = dom.rank
    total = a.carrier.p ** (r * r)
    if total > budget:
        raise BudgetExceeded(
            f"matrix enumeration at object {a.structure.names[e]} needs {total} nodes"
        )
    out = []
    for flat in itertools.product(range(a.carrier.p), repeat=r * r):
        matrix = tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(r))
        m = LinMap(dom, cod, matrix)
        if is_ring_iso(m, a.carrier, c.carrier):
            out.append(m)
    return out


def search_equivalence(a: Action, c: Action, budget: int = 200_000) -> EquivalenceSearch:
    """Look for an equivalence witness within the idempotent-matching class.

    Dimension mismatches are a definitive refusal.  Exceeding the budget in
    either candidate generation or combination raises BudgetExceeded, which
    is an inconclusive outcome distinct from an exhausted search.
    """
    _require_valid_pair(a, c)
    for g in a.index.grades:
        da, dc = a.ideal_of[g].rank, c.ideal_of[g].rank
        if da != dc:
            return EquivalenceSearch(
                None,
                f"ideal at {a.structure.names[g]} has dimension {da} on one side, {dc} on the other",
                0,
            )
    objects = a.index.anchors
    per_object = [_object_candidates(a, c, e, budget) for e in objects]
    combos = 1
    for cands in per_object:
        combos *= max(len(cands), 1)
        if combos > budget:
            raise BudgetExceeded(f"witness combinations exceed budget {budget}")
    if any(not cands for cands in per_object):
        return EquivalenceSearch(None, None, 0)
    tested = 0
    for combo in itertools.product(*per_object):
        tested += 1
        w = EquivalenceWitness(dict(zip(objects, combo)))
        if verify_equivalence(a, c, w):
            return EquivalenceSearch(w, None, tested)
    return EquivalenceSearch(None, None, tested)


# -- inverse-semigroup actions ------------------------------------------


def validate_inv_sgp_action(a: Action) -> ValidationReport:
    """IDEAL', ISO' and P1', then P2' and P3' on every product in order.  These
    read only meets of ideals, images of meets and map values, and k distinct
    ideals have at most k^2 meets however many products there are: each value
    is computed once, in memos keyed by value (RREF is canonical) that die with
    the call.  No pair is skipped, so the issues are the per-pair loop's."""
    ix = a.index  # validates the structure
    nm = ix.names
    rep = ValidationReport(a.name or "semigroup action", INV_ACTION_CLAUSES)
    iso_ok = _check_ideals_and_isos(a, rep, prime="'")
    meet = functools.cache(Subspace.intersect)
    image = functools.cache(lambda s, sub: a.map_of[s].image_of(sub))
    apply = functools.cache(_partial(a))
    for s, t, st in ix.products():
        if not (iso_ok[s] and iso_ok[t]):
            continue
        moved = image(s, meet(a.ideal_of[ix.inv[s]], a.ideal_of[t]))
        if moved != meet(a.ideal_of[s], a.ideal_of[st]):
            rep.add("P2'", f"moved overlap of ({nm[s]},{nm[t]}) misses its target")
    for s, t, st in ix.products():
        if not (iso_ok[s] and iso_ok[t] and iso_ok[st]):
            continue
        dom = meet(a.ideal_of[ix.inv[t]], a.ideal_of[ix.inv[st]])
        for message in _composite_failures(a, s, t, st, dom, apply):
            rep.add("P3'", message)
    return rep


# The semigroup-side names of the validity flags, kept for callers.
inv_action_is_global = is_global
inv_action_is_preunital = is_preunital
inv_action_is_unital = is_unital


def semigroup_action_to_groupoid_action(a: Action) -> Action:
    """Reindex a preunital semigroup action over the derived groupoid.

    The result must validate and be strong; a counterexample would
    contradict the transfer argument, so it raises rather than returns.
    """
    a.require_valid()
    if not is_preunital(a):
        raise NotPreunital("semigroup action has a non-unital idempotent ideal")
    out = replace(a, structure=esn_to_groupoid(a.structure), name=f"{a.name or 'action'}@groupoid")
    out.require_valid("transferred action fails validation (finding)")
    if not is_strong(out):
        raise InvalidAction("transferred action is not strong (finding)")
    return out


def groupoid_action_to_semigroup_action(a: Action, s: InverseSemigroup) -> Action:
    """Transport a global action over the derived groupoid back to s."""
    if esn_to_groupoid(s) != a.structure:
        raise GroupoidMismatch("action's groupoid was not derived from this semigroup")
    if not is_global(a):
        raise NotGlobal("only global actions transport back to the semigroup")
    out = replace(a, structure=s, name=f"{a.name or 'action'}@semigroup")
    out.require_valid("transported action fails validation")
    return out


def relabel_action(a: Action, perm: Sequence[int]) -> Action:
    """The same action with groupoid arrows renumbered by perm."""
    back = sorted(a.structure.arrows(), key=perm.__getitem__)  # back[perm[i]] = i
    ideals, maps = (tuple(t[i] for i in back) for t in (a.ideal_of, a.map_of))
    name = f"{a.name or 'action'}~relabeled"
    return Action(a.structure.relabeled(perm), a.carrier, ideals, maps, name=name)
