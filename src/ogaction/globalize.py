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
from functools import cached_property, reduce
from typing import Iterable, Optional, Sequence

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
    _dense,
    is_ideal,
    is_ring_hom,
    product_ring,
    subring_closure,
)
from .errors import (
    AmbientMismatch,
    InvalidAction,
    NotContained,
    NotPreunital,
    NotPseudoassociative,
    NotStrong,
)
from .linalg import LinMap, Subspace, Vector, _unit_rows, sparse_sum
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
    its carrier into `ambient`, and each gamma_g is a `BlockCopy`);
    externally supplied globalizations leave them unset and are still
    checkable by verify_globalization.  `checklist` is the report of that
    check on a globalization built here; the semigroup pipeline's carries
    the SGLOB clauses.
    """

    base: Action
    global_action: Action
    embeddings: dict[int, LinMap]
    minimal: bool = False
    ambient: Optional[Algebra] = None
    gamma: Optional[dict[int, BlockCopy]] = None
    checklist: Optional[ValidationReport] = field(default=None, compare=False)


def as_globalization(
    base: Action,
    global_action: Action,
    embeddings: dict[int, LinMap],
    minimal: bool = False,
) -> Globalization:
    """Wrap an externally supplied global action for verification."""
    return Globalization(base, global_action, dict(embeddings), minimal=minimal)


@dataclass(frozen=True)
class BlockCopy:
    """The translation gamma_g of the product ring F^dim, in blocks of n
    coordinates: output block h is a copy of input block s for each move
    (h, s), sorted by h, on the vectors that vanish off the sorted input
    blocks `ins`.  `apply` and `image_of` reindex; the unit-row `domain`
    and the 0/1 `LinMap` of `as_linmap` are formed only on demand."""

    dim: int
    p: int
    n: int
    ins: tuple[int, ...]
    moves: tuple[tuple[int, int], ...]

    @cached_property
    def _off(self) -> tuple[int, ...]:
        ins = set(self.ins)
        return tuple(j for j in range(self.dim) if j // self.n not in ins)

    def apply(self, v: Sequence[int]) -> Vector:
        """`LinMap.apply` of `as_linmap()`, with its errors: AmbientMismatch
        on a wrong length, ValueError on a vector off the input blocks."""
        if len(v) != self.dim:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient of dim {self.dim}")
        w, n, out = [int(x) % self.p for x in v], self.n, [0] * self.dim
        if any([w[j] for j in self._off]):
            raise ValueError("vector not in subspace")
        for h, s in self.moves:
            out[h * n : (h + 1) * n] = w[s * n : (s + 1) * n]
        return tuple(out)

    def image_of(self, sub: Subspace) -> Subspace:
        """The image of sub ∩ domain: sub's basis rows with blocks copied,
        then one rref.  sub is met with the domain only when a row leaves
        the input blocks."""
        if any(v[j] for v in sub.basis for j in self._off):
            sub = sub.intersect(self.domain)
        return Subspace.span(self.dim, [self.apply(v) for v in sub.basis], self.p)

    def _blocks(self, blocks: Iterable[int]) -> Subspace:  # sorted unit rows: RREF as they stand
        eye = _unit_rows(self.dim)
        return Subspace(self.dim, self.p, tuple(eye[b * self.n + i] for b in blocks for i in range(self.n)))

    @cached_property
    def domain(self) -> Subspace:
        return self._blocks(self.ins)

    def as_linmap(self) -> LinMap:
        """The dense form: a 1 from input block k, position i to output
        block h, position i for each move (h, k)."""
        n, moves = self.n, self.moves
        rows = (tuple(int(s == k and c == i) for _, s in moves for c in range(n)) for k in self.ins for i in range(n))
        return LinMap(self.domain, self._blocks(h for h, _ in moves), tuple(rows))


def _embedding_vector(a: Action, v: Vector, support: Sequence[int], right: dict, total_dim: int) -> Vector:
    """The product-ring vector with block h holding alpha_{h^{-1}}(v * 1_h),
    where v * 1_h = sum_i v_i (b_i 1_h) is read from right[h][i] = b_i 1_h,
    the right half of `basis_products(1_h)`."""
    n, p = a.carrier.dim, a.carrier.p
    out = [0] * total_dim
    for h in support:
        cut = sparse_sum(((c, right[h][i].items()) for i, c in enumerate(v) if c), p)
        out[h * n : (h + 1) * n] = a.map_of[a.structure.inv[h]].apply(_dense(cut, n))
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
    n, p = a.carrier.dim, a.carrier.p
    ambient = product_ring(a.carrier, g0.n)
    total = ambient.dim

    support = g0.pseudo_composable_set if minimal else g0.down_range_set
    support_of = {g: support(g) for g in g0.arrows()}

    # gamma_g moves block h from the block of inv(g) * h, the pseudoproduct.
    # On a down-range set the object meet is ran h and the corestriction
    # there is h, so the pseudoproduct is restriction-then-compose.
    gamma = [
        BlockCopy(total, p, n, support_of[gi], tuple((h, g0._pseudoproducts[gi][h]) for h in support_of[g]))
        for g, gi in enumerate(g0.inv)
    ]

    # Per object, the embedded images of its ideal's basis: one `basis_products` call per arrow read.
    reads = {e: support_of[e] if minimal else g0._by_ran[e] for e in g0.objects if a.ideal_of[e].rank}
    right = {h: a.carrier.basis_products(a.unit_vector(h))[1] for h in set().union(*reads.values())}
    embedded = {
        e: [_embedding_vector(a, v, reads[e], right, total) for v in a.ideal_of[e].basis]
        for e in sorted(g0.objects)
    }

    # One piece per range object, shared by every arrow with that range:
    # the subring generated by the translated embedded ideals of the arrows
    # whose range equals it (minimal) or lies below it (full), the sets
    # that GLOB(iv') and GLOB(iv) sum.
    ix = a.index
    family = {e: Subspace.span(total, embedded[e], p) for e in ix.anchors}
    moved = [gamma[g].image_of(family[d]) for g, _, d in ix.triples]
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
        gamma,
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
        gamma=dict(enumerate(gamma)),
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
