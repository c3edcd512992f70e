"""Globalization of partial ordered actions.

Both constructions embed the carrier into a product ring indexed by the
arrows, push the ideals around with arrow translations along
pseudoproducts, and cut out the subring generated by the translated images
the way a restriction cuts out an ideal.  The full construction translates
over the down-range arrow sets (where the pseudoproduct is
restriction-then-compose); the minimal one over the pseudo-composable sets,
and it only sums over arrows with equal range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence

from .actions import (
    Action,
    _cut_out,
    _intertwining_failures,
    _translated,
    groupoid_action_to_semigroup_action,
    is_global,
    is_preunital,
    is_strong,
    require_unital,
    satisfies_ps,
    semigroup_action_to_groupoid_action,
    validate_po_action,  # unused here; perfbench checks that the tracer rebinds this copy
)
from .algebras import (
    Algebra,
    is_ideal,
    is_ring_hom,
    product_ring,
    subring_closure,
)
from .errors import (
    InvalidAction,
    NotContained,
    NotPreunital,
    NotPseudoassociative,
    NotStrong,
)
from .linalg import LinMap, Subspace, Vector
from .validation import ValidationReport

GLOBALIZATION_CLAUSES = (
    "GLOB(valid)",
    "GLOB(global)",
    "GLOB(mono)",
    "GLOB(i)",
    "GLOB(ii)",
    "GLOB(iii)",
    "GLOB(iv)",
    "GLOB(iv')",
    "GLOB(restr)",
)

SEMIGROUP_GLOBALIZATION_CLAUSES = ("SGLOB(i)", "SGLOB(ii)", "SGLOB(iii)", "SGLOB(iv)")

# The semigroup checklist is the minimal globalization's checklist over the
# derived groupoid, read on the same ideals, maps and embeddings.
SGLOB_OF_GLOB = dict(
    zip(("GLOB(i)", "GLOB(ii)", "GLOB(iii)", "GLOB(iv')"), SEMIGROUP_GLOBALIZATION_CLAUSES)
)


@dataclass
class Globalization:
    """A global action together with the embeddings that witness it.

    `ambient` and `gamma` carry the product-ring scaffolding when the
    globalization was built here (the global action's `inclusion` embeds
    its carrier into `ambient`); externally supplied globalizations leave
    them unset and are still checkable by verify_globalization.  `checklist`
    is the report of that check on a globalization built here; the
    semigroup pipeline's carries the SGLOB clauses.
    """

    base: Action
    global_action: Action
    embeddings: dict[int, LinMap]
    minimal: bool = False
    ambient: Optional[Algebra] = None
    gamma: Optional[dict[int, LinMap]] = None
    checklist: Optional[ValidationReport] = field(default=None, compare=False)


def as_globalization(
    base: Action,
    global_action: Action,
    embeddings: dict[int, LinMap],
    minimal: bool = False,
) -> Globalization:
    """Wrap an externally supplied global action for verification."""
    return Globalization(base, global_action, dict(embeddings), minimal=minimal)


def _translation_map(
    eye: Sequence[Vector],
    p: int,
    n: int,
    ins: Sequence[int],
    outs: Sequence[int],
    source_of: Sequence[Optional[int]],
) -> LinMap:
    """Map F-vectors supported on the blocks `ins` (n coordinates each) to
    the blocks `outs`; output block h copies input block source_of[h].

    Both ends are spans of the ambient's unit rows `eye` in sorted block
    order, written down as they are: sorted distinct unit rows are already
    in reduced row echelon form.  In those bases the matrix is 0/1, with a
    1 from input block k, position i to output block h, position i for
    each h with source_of[h] == k."""
    ins, outs = sorted(ins), sorted(outs)
    sources = [source_of[h] for h in outs]
    matrix = tuple(
        tuple(int(s == k and c == i) for s in sources for c in range(n)) for k in ins for i in range(n)
    )

    def blocks(bs: Sequence[int]) -> Subspace:
        return Subspace(len(eye), p, tuple(eye[b * n + i] for b in bs for i in range(n)))

    return LinMap(blocks(ins), blocks(outs), matrix)


def _embedding_vector(a: Action, v: Vector, support: Sequence[int], total_dim: int) -> Vector:
    """The product-ring vector with block h holding alpha_{h^{-1}}(v * 1_h)."""
    n = a.carrier.dim
    out = [0] * total_dim
    for h in support:
        cut = a.carrier.mul(v, a.unit_vector(h))
        out[h * n : (h + 1) * n] = a.map_of[a.structure.inv[h]].apply(cut)
    return tuple(out)


def _build(a: Action, minimal: bool) -> Globalization:
    a.require_valid("cannot globalize an invalid action")
    require_unital(a)
    g0 = a.structure
    if minimal:
        if not is_strong(a):
            raise NotStrong("minimal globalization needs a strong action")
        if not satisfies_ps(a):
            # strength alone does not grant the composition law: object
            # meets must also carry exactly the ideal intersections
            raise NotStrong(
                "action is strong but fails the composition law along pseudoproducts"
            )
        if not g0.is_pseudoassociative():
            raise NotPseudoassociative("minimal globalization needs a pseudoassociative groupoid")
    n = a.carrier.dim
    ambient = product_ring(a.carrier, g0.n)
    total = ambient.dim
    p = a.carrier.p
    eye = ambient.space().basis

    support = g0.pseudo_composable_set if minimal else g0.down_range_set
    support_of = {g: support(g) for g in g0.arrows()}

    # gamma_g moves block h from the block of inv(g) * h, the pseudoproduct.
    # On a down-range set the object meet is ran h and the corestriction
    # there is h, so the pseudoproduct is restriction-then-compose.
    gamma_maps = [
        _translation_map(eye, p, n, support_of[gi], support_of[g], g0._pseudoproducts[gi])
        for g, gi in enumerate(g0.inv)
    ]

    # Per object, the embedded images of its ideal's basis.
    embedded = {
        e: [
            _embedding_vector(a, v, support_of[e] if minimal else g0._by_ran[e], total)
            for v in a.ideal_of[e].basis
        ]
        for e in sorted(g0.objects)
    }

    # One piece per range object, shared by every arrow with that range:
    # the subring generated by the translated embedded ideals of the arrows
    # whose range equals it (minimal) or lies below it (full), the sets
    # that GLOB(iv') and GLOB(iv) sum.
    ix = a.index
    family = {e: Subspace.span(total, embedded[e], p) for e in ix.anchors}
    moved = _translated(gamma_maps, ix.triples, family)
    piece_at = {
        e: subring_closure(
            ambient,
            [moved[h] for h, r, _ in ix.triples if (r == e if minimal else ix.le(r, e))],
        )
        for e in ix.anchors
    }
    piece = [piece_at[r] for _, r, _ in ix.triples]

    carrier_sub = reduce(Subspace.add, piece_at.values(), Subspace.zero(total, p))
    name = a.name or "action"
    beta = _cut_out(
        g0,
        ambient,
        carrier_sub,
        piece,
        gamma_maps,
        f"{name}::globalized" + ("-minimal" if minimal else ""),
        f"{name}::globalized-carrier",
    )
    embeddings = {
        e: LinMap.from_images(
            a.ideal_of[e], beta.ideal_of[e], [carrier_sub.coordinates_of(v) for v in images]
        )
        for e, images in embedded.items()
    }

    built = Globalization(
        base=a,
        global_action=beta,
        embeddings=embeddings,
        minimal=minimal,
        ambient=ambient,
        gamma=dict(enumerate(gamma_maps)),
    )
    built.checklist = verify_globalization(built)
    if not built.checklist.ok:
        raise InvalidAction(
            f"construction failed its own checklist (finding):\n{built.checklist}"
        )
    if minimal and not satisfies_ps(beta):
        raise InvalidAction("minimal construction violates the composition law (finding)")
    return built


def build_globalization(a: Action) -> Globalization:
    """Globalize a unital partial ordered action over the down-range sets."""
    return _build(a, minimal=False)


def build_minimal_globalization(a: Action) -> Globalization:
    """Globalize a unital strong action over pseudoproduct translations,
    generating each piece only from arrows of equal range."""
    return _build(a, minimal=True)


def verify_globalization(gl: Globalization) -> ValidationReport:
    """Checklist for a global action plus embeddings to be a globalization.

    It reads the base action's index, so a groupoid action and the
    semigroup pipeline's result are checked alike.  Clause (iv') is
    evaluated only when the globalization claims minimality.
    The final clause rebuilds the restriction data of the global action
    along the embedding images and checks it is equivalent to the base.
    """
    checked = GLOBALIZATION_CLAUSES if gl.minimal else tuple(
        c for c in GLOBALIZATION_CLAUSES if c != "GLOB(iv')"
    )
    rep = ValidationReport("globalization", checked)
    a, b = gl.base, gl.global_action
    if a.structure != b.structure:
        rep.add("GLOB(valid)", "base and global actions live over different groupoids")
        return rep
    ix = a.index
    nm = ix.names
    beta_rep = b.validate()
    if not beta_rep.ok:
        rep.add("GLOB(valid)", f"global action fails validation: {beta_rep.issues[0]}")
    if not is_global(b):
        rep.add("GLOB(global)", "some ideal differs from its range ideal")
    for e in ix.anchors:
        m = gl.embeddings.get(e)
        if m is None or m.domain != a.ideal_of[e]:
            rep.add("GLOB(mono)", f"embedding at {nm[e]} missing or with wrong domain")
            return rep
        if not m.is_injective:
            rep.add("GLOB(mono)", f"embedding at {nm[e]} is not injective")
        if not is_ring_hom(m, a.carrier, b.carrier):
            rep.add("GLOB(mono)", f"embedding at {nm[e]} is not multiplicative")
        if not b.ideal_of[e].contains_subspace(m.image()):
            rep.add("GLOB(mono)", f"embedding at {nm[e]} escapes the object ideal")
    images = {e: gl.embeddings[e].image() for e in ix.anchors}
    for e in ix.anchors:
        try:
            if not is_ideal(b.carrier, images[e], b.ideal_of[e]):
                rep.add("GLOB(i)", f"embedded ideal at {nm[e]} does not absorb its object ideal")
        except NotContained:
            rep.add("GLOB(i)", f"embedded ideal at {nm[e]} is not inside its object ideal")
    phi = gl.embeddings
    moved = _translated(b.map_of, ix.triples, images)
    for g, r, _ in ix.triples:
        if phi[r].image_of(a.ideal_of[g]) != images[r].intersect(moved[g]):
            rep.add("GLOB(ii)", f"embedded ideal at {nm[g]} is not the stated intersection")
    for g, escaped in _intertwining_failures(a, b, phi):
        what = "embedded vector escapes the map domain" if escaped else "intertwining fails"
        rep.add("GLOB(iii)", f"{what} at {nm[g]}")
    # Both sums depend on the range object only: (iv) over arrows whose
    # range lies below it, (iv') over arrows with exactly that range.
    for e in ix.anchors:
        down = equal = Subspace.zero(b.carrier.dim, b.carrier.p)
        for h, r, _ in ix.triples:
            if ix.le(r, e):
                down = down.add(moved[h])
                if r == e:
                    equal = equal.add(moved[h])
        for g, r, _ in ix.triples:
            if r != e:
                continue
            if down != b.ideal_of[g]:
                rep.add("GLOB(iv)", f"piece at {nm[g]} differs from the down-range sum")
            if gl.minimal and equal != b.ideal_of[g]:
                rep.add("GLOB(iv')", f"piece at {nm[g]} differs from the equal-range sum")
    # Restriction data along the embedded family: the pieces the family cuts
    # out of the global action must be the embedded base ideals, with the
    # embeddings intertwining the maps.  That is (ii) together with (iii).
    if not (rep.clause_ok("GLOB(ii)") and rep.clause_ok("GLOB(iii)")):
        rep.add("GLOB(restr)", "restriction along the embedded family differs from the base")
    return rep


def semigroup_checklist(glob: ValidationReport) -> ValidationReport:
    """The SGLOB clauses, read off a minimal globalization's checklist over
    the derived groupoid."""
    rep = ValidationReport("semigroup globalization", SEMIGROUP_GLOBALIZATION_CLAUSES)
    for issue in glob.issues:
        if issue.clause in SGLOB_OF_GLOB:
            rep.add(SGLOB_OF_GLOB[issue.clause], issue.message)
    return rep


def globalize_inverse_semigroup_action(a: Action) -> Globalization:
    """Transfer to the derived groupoid, build the minimal globalization,
    and transport the result back, reporting the semigroup checklist."""
    if not is_preunital(a):
        raise NotPreunital("pipeline needs unital idempotent ideals")
    require_unital(a)
    inner = build_minimal_globalization(semigroup_action_to_groupoid_action(a))
    return Globalization(
        a,
        groupoid_action_to_semigroup_action(inner.global_action, a.structure),
        dict(inner.embeddings),
        minimal=True,
        ambient=inner.ambient,
        gamma=inner.gamma,
        checklist=semigroup_checklist(inner.checklist),
    )
