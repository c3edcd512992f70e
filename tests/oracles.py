"""Independent reference implementations used to cross-check the library.

Most of this is deliberately naive: plain forward elimination, set
enumeration, and fixpoint loops that only rely on a multiplication
callback, sharing no code with the package under test; the two closure
loops span once more after the last growth and stop when the rank stands
still, as the library closed before it tested each closure's property
first.  The algebra section keeps the identity, ideal, ring-map and
subalgebra checks as pair scans that form every basis product afresh on
each call, as the library wrote them before it kept one product table per
subspace, and the UNIT clause and the centrality test as one pair of dense products per basis
vector, as the library wrote them before it read a product with a basis
vector from the table.  One section keeps two globalization checks as the library wrote them before the
semigroup and restriction clauses were read off the groupoid checklist;
they use the library's linear algebra, and serve as oracles for that
reading.  The scaffolding section forms a built globalization's
translations and embeddings by elimination, as the library did before it
wrote the block spans and 0/1 matrices down, and keeps the whole dense
build: each translation a 0/1 `LinMap` applied row by row, as the library
built it before a translation was a block copy.  The skew section forms the
skew ring's and a quotient's structure constants one basis pair at a time,
as the library did before it read them from sparse entries.  The P3 section
keeps the composite law as a loop over the overlap's basis vectors, as the
library checked it before it compared matrices, and the P2' and P3' clauses
of an inverse-semigroup action as one meet, image and loop per product, as
the library checked them before it kept one per distinct value.  The
Morita section keeps the MOR(compat) clause as the loop over module triples that the library ran
before it read the clause from the quotient's associator scan, and the
whole Morita report with every span formed by dense products, as the
library formed it before it read the spans from `basis_products` and took
three clauses from the unit lemmas.  The next section keeps the order closure, the groupoid, order,
semigroup and pseudoproduct checks, the two ESN conversions, and the
walks over composites and over the strict order, as plain scans over all
arrows or elements, as the library wrote them before it read them from
index tables or closed the order in one Warshall pass.
The kernel section keeps the dense F_p routines as the library wrote them
before it eliminated along vector supports or read a coordinate subspace's
pivot entries or split one elimination of [rows | images], `preimage_of` as
the kernel route, taken on every target, and `split_rows` from what its
three parts are.  The last section keeps the symmetric inverse monoid
generator as it was before it translated byte words.
"""

from itertools import combinations, permutations, product

from ogaction.actions import (
    INV_ACTION_CLAUSES,
    InvSgpAction,
    _check_ideals_and_isos,
    _cut_out,
    _translated,
    is_strong,
    require_unital,
    satisfies_ps,
)
from ogaction import skew
from ogaction.algebras import SubringIdentity, _associator_failures, product_ring, subring_closure
from ogaction.errors import (
    AmbientMismatch,
    InvalidAction,
    InvalidGroupoid,
    NotBelowDomain,
    NotBelowRange,
    NotContained,
    NotInductive,
    NotMultiplicativelyClosed,
    NotPseudoassociative,
    NotStrong,
)
from ogaction.groupoids import GROUPOID_CLAUSES, ORDER_CLAUSES, OrderedGroupoid
from ogaction.semigroups import SEMIGROUP_CLAUSES, InverseSemigroup
from ogaction.globalize import SEMIGROUP_GLOBALIZATION_CLAUSES, Globalization, verify_globalization
from ogaction.linalg import LinMap, Subspace, vec_add
from ogaction.validation import Issue, ValidationReport


def naive_rank(rows, p):
    """Row rank by forward elimination without any canonicalization."""
    work = [list(r) for r in rows if any(x % p for x in r)]
    rank = 0
    col = 0
    ncols = len(work[0]) if work else 0
    while rank < len(work) and col < ncols:
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] % p:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(inv * x) % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] % p:
                c = work[r][col]
                work[r] = [(x - c * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def span_members(rows, dim, p):
    """The set of all vectors in the span, by enumerating coefficients."""
    rows = [tuple(x % p for x in r) for r in rows]
    out = set()
    for coeffs in product(range(p), repeat=len(rows)):
        v = [0] * dim
        for c, r in zip(coeffs, rows):
            for i, x in enumerate(r):
                v[i] = (v[i] + c * x) % p
        out.add(tuple(v))
    return out


def naive_ideal_closure(mul, dim, p, gens, basis_vectors):
    """Fixpoint closure under left/right multiplication by every basis
    vector, the rows reduced by `rref` once per round; returns the RREF
    basis of the closure."""
    current = rref(gens, p)
    while True:
        new = list(current)
        for v in current:
            for b in basis_vectors:
                new.append(mul(b, v))
                new.append(mul(v, b))
        new = rref(new, p)
        if len(new) == len(current):
            return current
        current = new


def naive_subring_closure(mul, dim, p, rows):
    """Fixpoint closure under the product of every pair of basis rows, the
    rows reduced by `rref` once per round until the rank stops growing, as
    the library closed a subring before it stopped on a kept product table;
    returns the RREF basis of the closure."""
    current = rref(rows, p)
    while True:
        new = rref([*current, *(mul(u, v) for u in current for v in current)], p)
        if len(new) == len(current):
            return current
        current = new


def naive_mul(table, p, x, y):
    """The product of x and y under a dense structure table."""
    n = len(table)
    out = [0] * n
    for i, a in enumerate(x):
        if a % p == 0:
            continue
        for j, b in enumerate(y):
            if b % p == 0:
                continue
            for k, t in enumerate(table[i][j]):
                out[k] = (out[k] + a * b * t) % p
    return tuple(out)


def naive_assoc_failures(table, p):
    """All basis triples (i, j, k) where the two bracketings differ."""
    n = len(table)

    def mul(x, y):
        return naive_mul(table, p, x, y)

    def basis(i):
        return tuple(1 if j == i else 0 for j in range(n))

    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul(mul(basis(i), basis(j)), basis(k))
                rhs = mul(basis(i), mul(basis(j), basis(k)))
                if lhs != rhs:
                    bad.append((i, j, k))
    return bad


# -- retained algebra pair scans -----------------------------------------
#
# Each forms the products of the basis pairs it needs with `Algebra.mul`
# and keeps nothing; subspace and map calls go to the dense kernel below.


def unit_issues(alg):
    """The UNIT issues of alg's declared unit u: per basis vector b_i,
    u b_i then b_i u."""
    issues = []
    for i in range(alg.dim):
        b = alg.basis_vector(i)
        if alg.mul(alg.unit, b) != b:
            issues.append(Issue("UNIT", f"unit fails on the left of b{i}"))
        if alg.mul(b, alg.unit) != b:
            issues.append(Issue("UNIT", f"unit fails on the right of b{i}"))
    return issues


def is_central(alg, v):
    """v b_i == b_i v for every basis vector b_i."""
    return all(
        alg.mul(v, alg.basis_vector(i)) == alg.mul(alg.basis_vector(i), v)
        for i in range(alg.dim)
    )


def identity_of(alg, sub):
    """Two-sided identity of a multiplicatively closed subspace, if any."""
    if sub.dim != alg.dim or sub.p != alg.p:
        raise AmbientMismatch("subspace lives in a different ambient space")
    prod = [[alg.mul(u, v) for v in sub.basis] for u in sub.basis]
    if not all(contains(sub, x) for row in prod for x in row):
        raise NotMultiplicativelyClosed("subspace is not closed under the product")
    if sub.rank == 0:
        return SubringIdentity(alg.zero(), True)
    # Row k holds u * u_k and u_k * u for each basis vector u in turn.
    rows = [
        [x for i in range(sub.rank) for x in (*prod[i][k], *prod[k][i])]
        for k in range(sub.rank)
    ]
    target = [x for v in sub.basis for x in (*v, *v)]
    combo = express(rows, target, alg.p)
    if combo is None:
        return None
    u = from_coordinates(sub, combo)
    # The library leaves this to a lemma (u lies in sub and fixes it, so
    # u u = u); the scan checks it on every identity it finds.
    assert alg.mul(u, u) == u, f"identity {u} of a subring is not idempotent"
    return SubringIdentity(u, is_central(alg, u))


def is_ideal(alg, inner, outer):
    """True iff inner absorbs multiplication by outer's basis (inner ⊆ outer)."""
    if not outer.contains_subspace(inner):
        raise NotContained("inner subspace is not contained in the outer one")
    for b in outer.basis:
        for x in inner.basis:
            if not contains(inner, alg.mul(b, x)):
                return False
            if not contains(inner, alg.mul(x, b)):
                return False
    return True


def is_ring_hom(m, dom_alg, cod_alg):
    basis = m.domain.basis
    images = [apply(m, u) for u in basis]
    for u, mu in zip(basis, images):
        for v, mv in zip(basis, images):
            prod = dom_alg.mul(u, v)
            if not contains(m.domain, prod):
                return False
            if apply(m, prod) != cod_alg.mul(mu, mv):
                return False
    return True


def subalgebra_products(alg, sub):
    """The structure constants of a closed subspace in its own coordinates:
    row i maps j to {k: c} over the non-zero coordinates of u_i * u_j."""
    out = []
    for u in sub.basis:
        row = {}
        for j, v in enumerate(sub.basis):
            kc = {k: c for k, c in enumerate(coordinates_of(sub, alg.mul(u, v))) if c}
            if kc:
                row[j] = kc
        out.append(row)
    return tuple(out)


# -- retained P3 loop ---------------------------------------------------------
#
# The composite law as the library checked it before it compared matrices on
# a full overlap: one application of each map per basis vector, on the
# dense kernel below.  The inverse-semigroup action report after it checks
# P2' and P3' per product, as the library did before it kept one meet, image
# and map value per distinct argument.


def composite_failures(a, s, t, st, overlap):
    """One message per basis vector of the overlap where alpha_t leaves
    alpha_s's domain, where alpha_st is undefined, or where the two sides
    differ."""
    nm = a.index.names
    ms, mt, mst = a.map_of[s], a.map_of[t], a.map_of[st]
    out = []
    for v in overlap.basis:
        try:
            lhs = apply(ms, apply(mt, v))
        except ValueError:
            out.append(f"composite at ({nm[s]},{nm[t]}) leaves the domain")
            continue
        try:
            rhs = apply(mst, v)
        except ValueError:
            out.append(f"product map at ({nm[s]},{nm[t]}) undefined on the overlap")
            continue
        if lhs != rhs:
            out.append(f"composite and product map differ at ({nm[s]},{nm[t]})")
    return out


def validate_inv_sgp_action(a):
    """The inverse-semigroup action report with P2' and P3' checked afresh
    on every product: one meet and one image per pair, and the composite
    law by the loop above."""
    ix = a.index
    nm = ix.names
    rep = ValidationReport(a.name or "semigroup action", INV_ACTION_CLAUSES)
    iso_ok = _check_ideals_and_isos(a, rep, prime="'")
    for s, t, st in ix.products():
        if not (iso_ok[s] and iso_ok[t]):
            continue
        inter = a.ideal_of[ix.inv[s]].intersect(a.ideal_of[t])
        image = a.map_of[s].image_of(inter)
        if image != a.ideal_of[s].intersect(a.ideal_of[st]):
            rep.add("P2'", f"moved overlap of ({nm[s]},{nm[t]}) misses its target")
    for s, t, st in ix.products():
        if not (iso_ok[s] and iso_ok[t] and iso_ok[st]):
            continue
        dom = a.ideal_of[ix.inv[t]].intersect(a.ideal_of[ix.inv[st]])
        for message in composite_failures(a, s, t, st, dom):
            rep.add("P3'", message)
    return rep


# -- retained dense skew ring and quotient constants -------------------------
#
# Both form every basis product with `Algebra.mul`, one pair at a time, and
# read it with the dense kernel below.


def skew_products(a):
    """The skew ring's constants: for u in the ideal of g and v in the ideal
    of each h that g composes with, alpha_g(alpha_{g^-1}(u) v) in the ideal
    of gh's coordinates, offset by gh's block; raises `InvalidAction` at the
    first product, in row-major order, outside alpha_g's domain or gh's ideal."""
    ix = a.index
    offsets = [sum(a.ideal_of[k].rank for k in ix.grades[:g]) for g in ix.grades]
    columns = [[] for _ in ix.grades]
    for g, h, gh in ix.products():
        columns[g].extend((h, gh, offsets[h] + k, v) for k, v in enumerate(a.ideal_of[h].basis))
    products = []
    for g in ix.grades:
        for u in a.map_of[ix.inv[g]].domain.basis:
            twisted = apply(a.map_of[ix.inv[g]], u)
            row = {}
            for h, gh, col, v in columns[g]:
                where = f"twisted product at ({ix.names[g]},{ix.names[h]})"
                y = a.carrier.mul(twisted, v)
                try:
                    z = apply(a.map_of[g], y)
                except ValueError:
                    raise InvalidAction(f"{where} leaves its domain") from None
                try:
                    coords = coordinates_of(a.ideal_of[gh], z)
                except ValueError:
                    raise InvalidAction(f"{where} escapes grade {ix.names[gh]}") from None
                kc = {offsets[gh] + k: c for k, c in enumerate(coords) if c}
                if kc:
                    row[col] = kc
            products.append(row)
    return tuple(products)


def quotient_constants(alg, ideal):
    """The constants of alg modulo an ideal on its pivot-free columns, and the
    projection matrix: each product of free basis vectors, and each basis
    vector, reduced against the ideal and read at the free columns."""
    free = [c for c in range(alg.dim) if c not in ideal.pivots]

    def project(v):
        w = reduce(ideal, v)
        return tuple(w[c] for c in free)

    products = []
    for i in free:
        row = {}
        for j, c in enumerate(free):
            w = project(alg.mul(alg.basis_vector(i), alg.basis_vector(c)))
            kc = {k: x for k, x in enumerate(w) if x}
            if kc:
                row[j] = kc
        products.append(row)
    return tuple(products), tuple(project(alg.basis_vector(i)) for i in range(alg.dim))


# -- retained Morita compatibility loop -------------------------------------


def morita_compat(q, left, right):
    """(x x') y == x (x' y) for every x, y in one module basis and x' in the
    other, over L x R x L and R x L x R, forming every product afresh."""
    for firsts, mids in ((left, right), (right, left)):
        for x in firsts:
            for xp in mids:
                for y in firsts:
                    if q.mul(q.mul(x, xp), y) != q.mul(x, q.mul(xp, y)):
                        return False
    return True


def _dense_span(q, left, right):
    return Subspace.span(q.dim, [q.mul(x, y) for x in left for y in right], q.p)


def morita_core(a, gl):
    """The Morita report as the library formed it before it read each span
    from `basis_products`, took MOR(surj), MOR(unital) and MOR(idem) from
    the unit lemmas and was handed R: both rings built afresh, every span
    one dense `mul` per pair, and MOR(compat) T's own associator scan.  The
    rings are built through the `skew` module's names, so a test that
    forges T there forges it here too."""
    r_ring = skew.build_ordered_skew(skew.build_skew(a))
    b, phi = gl.global_action, gl.embeddings
    t_ring = skew.build_ordered_skew(skew.build_skew(b))
    ix = a.index
    q = t_ring.quotient
    p = q.p
    full = q.space()
    basis = [q.basis_vector(i) for i in range(q.dim)]

    one_r = (0,) * q.dim
    for e in ix.anchors:
        one_r = vec_add(one_r, t_ring.project_lift(e, phi[e].apply(a.unit_vector(e))), p)

    right_module = _dense_span(q, basis, [one_r])
    left_module = _dense_span(q, [one_r], basis)
    corner = _dense_span(q, [one_r], right_module.basis)
    double = _dense_span(q, right_module.basis, basis)

    def graded_sum(pieces):
        rows = [t_ring.project_lift(grade, v) for grade, sub in pieces for v in sub.basis]
        return Subspace.span(q.dim, rows, p)

    images = {e: phi[e].image() for e in ix.anchors}
    moved = _translated(b.map_of, ix.triples, images)
    sum_moved = graded_sum(list(zip(ix.grades, moved)))
    sum_range = graded_sum([(g, images[r]) for g, r, _ in ix.triples])
    embedded_copy = graded_sum([(g, phi[r].image_of(a.ideal_of[g])) for g, r, _ in ix.triples])

    pair_to_r = _dense_span(q, left_module.basis, right_module.basis)
    pair_to_t = _dense_span(q, right_module.basis, left_module.basis)
    unital_modules = (
        _dense_span(q, corner.basis, left_module.basis) == left_module
        and _dense_span(q, left_module.basis, basis) == left_module
        and _dense_span(q, basis, right_module.basis) == right_module
        and _dense_span(q, right_module.basis, corner.basis) == right_module
    )
    idempotent_rings = (
        _dense_span(q, corner.basis, corner.basis) == corner
        and Subspace.span(q.dim, [v for row in q.table for v in row if any(v)], p) == full
    )
    clauses = {
        "MOR(i)": right_module == sum_moved,
        "MOR(ii)": left_module == sum_range,
        "MOR(iii)": corner == embedded_copy,
        "MOR(iv)": double == full,
        "MOR(compat)": not _associator_failures(q, limit=1),
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
    return skew.MoritaReport(clauses, dims)


# -- retained globalization checks ---------------------------------------


def glob_restr_report(gl):
    """The GLOB(restr) clause as its own loop over the restriction data."""
    rep = ValidationReport("globalization", ("GLOB(restr)",))
    a, b = gl.base, gl.global_action
    g0 = a.structure
    nm = g0.names
    phi = gl.embeddings
    images = {e: gl.embeddings[e].image() for e in g0.objects}
    # Restriction data along the embedded family: the pieces the family cuts
    # out of the global action must be the embedded base ideals, with the
    # embeddings intertwining the maps.  (The family need not be monotone:
    # the per-object embeddings may have disjoint supports.)
    for g in g0.arrows():
        r, d = g0.ran[g], g0.dom[g]
        moved = b.map_of[g].image_of(images[d].intersect(b.map_of[g].domain))
        piece = images[r].intersect(moved)
        if phi[r].image_of(a.ideal_of[g]) != piece:
            rep.add("GLOB(restr)", f"restriction piece at {nm[g]} is not the embedded ideal")
            continue
        for v in a.ideal_of[g0.inv[g]].basis:
            moved_v = phi[d].apply(v)
            if not b.map_of[g].domain.contains(moved_v):
                rep.add("GLOB(restr)", f"restriction map undefined at {nm[g]}")
                continue
            if b.map_of[g].apply(moved_v) != phi[r].apply(a.map_of[g].apply(v)):
                rep.add("GLOB(restr)", f"restricted map differs from the base at {nm[g]}")
    return rep


def verify_semigroup_globalization(
    a: InvSgpAction, b: InvSgpAction, phi: dict[int, LinMap]
) -> ValidationReport:
    rep = ValidationReport("semigroup globalization", SEMIGROUP_GLOBALIZATION_CLAUSES)
    s0 = a.structure
    nm = s0.names
    images = {e: phi[e].image() for e in s0.idempotents()}
    for e in s0.idempotents():
        try:
            if not is_ideal(b.carrier, images[e], b.ideal_of[e]):
                rep.add("SGLOB(i)", f"embedded ideal at {nm[e]} does not absorb its object ideal")
        except NotContained:
            rep.add("SGLOB(i)", f"embedded ideal at {nm[e]} escapes its object ideal")
    for s in s0.elements():
        anchor = s0.mul(s, s0.inverse(s))
        co_anchor = s0.mul(s0.inverse(s), s)
        lhs = phi[anchor].image_of(a.ideal_of[s])
        moved = b.map_of[s].image_of(images[co_anchor].intersect(b.map_of[s].domain))
        if lhs != images[anchor].intersect(moved):
            rep.add("SGLOB(ii)", f"embedded ideal at {nm[s]} is not the stated intersection")
    for s in s0.elements():
        anchor = s0.mul(s, s0.inverse(s))
        co_anchor = s0.mul(s0.inverse(s), s)
        for v in a.ideal_of[s0.inverse(s)].basis:
            lhs = phi[anchor].apply(a.map_of[s].apply(v))
            moved = phi[co_anchor].apply(v)
            if not b.map_of[s].domain.contains(moved):
                rep.add("SGLOB(iii)", f"embedded vector escapes the map domain at {nm[s]}")
                continue
            if lhs != b.map_of[s].apply(moved):
                rep.add("SGLOB(iii)", f"intertwining fails at {nm[s]}")
    for s in s0.elements():
        anchor = s0.mul(s, s0.inverse(s))
        total = Subspace.zero(b.carrier.dim, b.carrier.p)
        for t in s0.elements():
            if s0.mul(t, s0.inverse(t)) != anchor:
                continue
            co = s0.mul(s0.inverse(t), t)
            total = total.add(
                b.map_of[t].image_of(images[co].intersect(b.map_of[t].domain))
            )
        if total != b.ideal_of[s]:
            rep.add("SGLOB(iv)", f"piece at {nm[s]} differs from the equal-anchor sum")
    return rep


# -- retained globalization scaffolding by elimination -------------------


def _blocks_subspace(total_dim, p, block_dim, blocks):
    rows = []
    for b in blocks:
        for i in range(block_dim):
            row = [0] * total_dim
            row[b * block_dim + i] = 1
            rows.append(row)
    return Subspace.span(total_dim, rows, p)


def _translation_map(total_dim, p, block_dim, in_blocks, out_blocks, source_of):
    domain = _blocks_subspace(total_dim, p, block_dim, sorted(in_blocks))
    codomain = _blocks_subspace(total_dim, p, block_dim, sorted(out_blocks))
    images = []
    for k in sorted(in_blocks):
        for i in range(block_dim):
            img = [0] * total_dim
            for h in out_blocks:
                if source_of[h] == k:
                    img[h * block_dim + i] = 1
            images.append(tuple(img))
    return LinMap.from_images(domain, codomain, images)


def _embedding_vector(a, v, support, total_dim):
    g0 = a.structure
    n = a.carrier.dim
    out = [0] * total_dim
    for h in support:
        cut = a.carrier.mul(v, a.unit_vector(h))
        moved = a.map_of[g0.inv[h]].apply(cut)
        for i, x in enumerate(moved):
            out[h * n + i] = x
    return tuple(out)


def _supports(g0, minimal):
    """Per arrow g, the blocks gamma_g writes: the arrows h with inv(g) * h
    defined (minimal), or with ran h below ran g (full)."""
    if minimal:
        return {
            g: tuple(h for h in g0.arrows() if pseudoproduct(g0, g0.inv[g], h) is not None)
            for g in g0.arrows()
        }
    return {g: tuple(h for h in g0.arrows() if g0.leq[g0.ran[h]][g0.ran[g]]) for g in g0.arrows()}


def _translations(g0, support_of, p, n):
    """gamma_g for every arrow g: output block h copies input block
    inv(g) * h, as a dense 0/1 map between block spans."""
    gamma = {}
    for g in g0.arrows():
        gi = g0.inv[g]
        source_of = {h: pseudoproduct(g0, gi, h) for h in support_of[g]}
        gamma[g] = _translation_map(n * g0.n, p, n, support_of[gi], support_of[g], source_of)
    return gamma


def _embedding_support(g0, support_of, minimal, e):
    return support_of[e] if minimal else [h for h in g0.arrows() if g0.ran[h] == e]


def globalization_scaffolding(gl):
    """The translations gamma and the embeddings of a globalization built
    over a groupoid, as the library formed them by elimination: each block
    span by `Subspace.span`, each translation by `LinMap.from_images`, and
    the embeddings read through maps onto the spans of the embedded images.
    Supports and pseudoproducts come from the plain scans below."""
    a, minimal = gl.base, gl.minimal
    g0 = a.structure
    n, p = a.carrier.dim, a.carrier.p
    total = n * g0.n
    support_of = _supports(g0, minimal)
    gamma = _translations(g0, support_of, p, n)
    carrier_sub = gl.global_action.inclusion.image()
    embeddings = {}
    for e in sorted(g0.objects):
        dom = a.ideal_of[e]
        support = _embedding_support(g0, support_of, minimal, e)
        images = [_embedding_vector(a, v, support, total) for v in dom.basis]
        raw = LinMap.from_images(dom, Subspace.span(total, images, p), images)
        coords = [carrier_sub.coordinates_of(raw.apply(w)) for w in dom.basis]
        embeddings[e] = LinMap.from_images(dom, gl.global_action.ideal_of[e], coords)
    return gamma, embeddings


def dense_globalization(a, minimal):
    """Either globalization of a groupoid action as the library built it
    with dense translations: the same gates and errors, each gamma_g the
    0/1 `LinMap` above, the translated family by `_translated` over those
    maps, v * 1_h by `mul`, and the built action cut out, embedded and
    checklisted as the library does.  Supports and pseudoproducts come from
    the plain scans below."""
    a.require_valid("cannot globalize an invalid action")
    require_unital(a)
    g0 = a.structure
    if minimal:
        if not is_strong(a):
            raise NotStrong("minimal globalization needs a strong action")
        if not satisfies_ps(a):
            raise NotStrong("action is strong but fails the composition law along pseudoproducts")
        if not is_pseudoassociative(g0):
            raise NotPseudoassociative("minimal globalization needs a pseudoassociative groupoid")
    n, p = a.carrier.dim, a.carrier.p
    ambient = product_ring(a.carrier, g0.n)
    total = ambient.dim
    support_of = _supports(g0, minimal)
    gamma = _translations(g0, support_of, p, n)
    maps = [gamma[g] for g in g0.arrows()]
    embedded = {
        e: [_embedding_vector(a, v, _embedding_support(g0, support_of, minimal, e), total) for v in a.ideal_of[e].basis]
        for e in sorted(g0.objects)
    }
    ix = a.index
    family = {e: Subspace.span(total, embedded[e], p) for e in ix.anchors}
    moved = _translated(maps, ix.triples, family)
    piece_at = {
        e: subring_closure(ambient, [moved[h] for h, r, _ in ix.triples if (r == e if minimal else ix.le(r, e))])
        for e in ix.anchors
    }
    piece = [piece_at[r] for _, r, _ in ix.triples]
    carrier_sub = Subspace.zero(total, p)
    for sub in piece_at.values():
        carrier_sub = carrier_sub.add(sub)
    name = a.name or "action"
    beta = _cut_out(
        g0, ambient, carrier_sub, piece, maps,
        f"{name}::globalized" + ("-minimal" if minimal else ""), f"{name}::globalized-carrier",
    )
    embeddings = {
        e: LinMap.from_images(a.ideal_of[e], beta.ideal_of[e], [carrier_sub.coordinates_of(v) for v in images])
        for e, images in embedded.items()
    }
    built = Globalization(a, beta, embeddings, minimal=minimal, ambient=ambient, gamma=gamma)
    built.checklist = verify_globalization(built)
    if not built.checklist.ok:
        raise InvalidAction(f"construction failed its own checklist (finding):\n{built.checklist}")
    if minimal and not satisfies_ps(beta):
        raise InvalidAction("minimal construction violates the composition law (finding)")
    return built


# -- retained scans of the combinatorial layer ---------------------------
#
# Free functions of `self` (an OrderedGroupoid or an InverseSemigroup), so
# that each body reads as it did on the class.  They cache nothing, and a
# call on `self` goes to these functions, never to the index tables.


def order_closure(n, pairs):
    """Reflexive-transitive closure of the pairs, repeated until unchanged."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if leq[a][b]:
                    for c in range(n):
                        if leq[b][c] and not leq[a][c]:
                            leq[a][c] = True
                            changed = True
    return tuple(tuple(row) for row in leq)


def validate_groupoid(self):
    rep = ValidationReport("groupoid", GROUPOID_CLAUSES)
    nm = self.names
    for e in self.objects:
        if self.inv[e] != e:
            rep.add("OBJ", f"object {nm[e]} is not its own inverse")
        if self.dom[e] != e or self.ran[e] != e:
            rep.add("OBJ", f"object {nm[e]} is not its own domain/range")
    for g in self.arrows():
        if self.dom[g] not in self.objects:
            rep.add("OBJ", f"domain of {nm[g]} is not an object")
        if self.ran[g] not in self.objects:
            rep.add("OBJ", f"range of {nm[g]} is not an object")
        if self.inv[self.inv[g]] != g:
            rep.add("INV", f"inverse of {nm[g]} is not an involution")
    # Entries of comp with a key or value outside the arrows are reported;
    # the rest of the scan reads the others.
    comp = {}
    for (g, h), gh in self.comp.items():
        if all(0 <= x < self.n for x in (g, h, gh)):
            comp[(g, h)] = gh
        else:
            rep.add("CAT", f"product ({g}, {h}) -> {gh} has an index outside the arrows")
    for g in self.arrows():
        for h in self.arrows():
            defined = (g, h) in comp
            if defined != self.composable(g, h):
                rep.add(
                    "CAT",
                    f"product {nm[g]}*{nm[h]} defined iff domains match fails",
                )
    for (g, h), gh in comp.items():
        if self.composable(g, h):
            if self.dom[gh] != self.dom[h] or self.ran[gh] != self.ran[g]:
                rep.add("CAT", f"endpoints of {nm[g]}*{nm[h]} are wrong")
    for g in self.arrows():
        if comp.get((g, self.dom[g])) != g:
            rep.add("CAT", f"{nm[g]} * its domain is not {nm[g]}")
        if comp.get((self.ran[g], g)) != g:
            rep.add("CAT", f"range * {nm[g]} is not {nm[g]}")
        if comp.get((self.inv[g], g)) != self.dom[g]:
            rep.add("INV", f"inv({nm[g]}) * {nm[g]} is not the domain object")
        if comp.get((g, self.inv[g])) != self.ran[g]:
            rep.add("INV", f"{nm[g]} * inv({nm[g]}) is not the range object")
    for (g, h), gh in comp.items():
        for k in self.arrows():
            if (h, k) not in comp:
                continue
            hk = comp[(h, k)]
            left = comp.get((gh, k))
            right = comp.get((g, hk))
            if left is None or right is None or left != right:
                rep.add("CAT", f"associativity fails on ({nm[g]},{nm[h]},{nm[k]})")
    return rep


def validate_order(self):
    rep = ValidationReport("groupoid order", ORDER_CLAUSES)
    nm = self.names
    for a in self.arrows():
        if not self.leq[a][a]:
            rep.add("ORD", f"order is not reflexive at {nm[a]}")
        for b in self.arrows():
            if a != b and self.leq[a][b] and self.leq[b][a]:
                rep.add("ORD", f"order is not antisymmetric on {nm[a]}, {nm[b]}")
            if self.leq[a][b]:
                for c in self.arrows():
                    if self.leq[b][c] and not self.leq[a][c]:
                        rep.add("ORD", f"order is not transitive via {nm[a]}<={nm[b]}<={nm[c]}")
    for g in self.arrows():
        for h in self.arrows():
            if self.leq[g][h] and not self.leq[self.inv[g]][self.inv[h]]:
                rep.add("OG1", f"{nm[g]} <= {nm[h]} but inverses are unordered")
    for g in self.arrows():
        for h in self.arrows():
            if not self.leq[g][h]:
                continue
            for k in self.arrows():
                for l in self.arrows():
                    if not self.leq[k][l]:
                        continue
                    if self.composable(g, k) and self.composable(h, l):
                        gk, hl = self.comp.get((g, k)), self.comp.get((h, l))
                        # A composite missing or outside the arrows is a CAT issue, not an order one.
                        if gk in self.arrows() and hl in self.arrows() and not self.leq[gk][hl]:
                            rep.add(
                                "OG2",
                                f"products of {nm[g]}<={nm[h]} with {nm[k]}<={nm[l]} are unordered",
                            )
    for g in self.arrows():
        for e in self.objects:
            if self.leq[e][self.dom[g]]:
                found = [x for x in self.arrows() if self.leq[x][g] and self.dom[x] == e]
                if len(found) != 1:
                    rep.add(
                        "OG3",
                        f"restriction of {nm[g]} at {nm[e]}: {len(found)} candidates",
                    )
            if self.leq[e][self.ran[g]]:
                found = [x for x in self.arrows() if self.leq[x][g] and self.ran[x] == e]
                if len(found) != 1:
                    rep.add(
                        "OG3*",
                        f"corestriction of {nm[g]} at {nm[e]}: {len(found)} candidates",
                    )
    return rep


def restriction(self, g, e):
    """The unique arrow below g with domain e (e below dom g)."""
    if e not in self.objects or not self.leq[e][self.dom[g]]:
        raise NotBelowDomain(
            f"{self.names[e]} is not an object below the domain of {self.names[g]}"
        )
    found = [x for x in self.arrows() if self.leq[x][g] and self.dom[x] == e]
    if len(found) != 1:
        raise InvalidGroupoid(
            f"restriction of {self.names[g]} at {self.names[e]} is not unique"
        )
    return found[0]


def corestriction(self, e, g):
    """The unique arrow below g with range e (e below ran g)."""
    if e not in self.objects or not self.leq[e][self.ran[g]]:
        raise NotBelowRange(
            f"{self.names[e]} is not an object below the range of {self.names[g]}"
        )
    found = [x for x in self.arrows() if self.leq[x][g] and self.ran[x] == e]
    if len(found) != 1:
        raise InvalidGroupoid(
            f"corestriction of {self.names[g]} at {self.names[e]} is not unique"
        )
    return found[0]


def meet_objects(self, e, f):
    lower = [
        x
        for x in sorted(self.objects)
        if self.leq[x][e] and self.leq[x][f]
    ]
    greatest = [z for z in lower if all(self.leq[w][z] for w in lower)]
    return greatest[0] if len(greatest) == 1 else None


def pseudoproduct(self, g, h):
    """(g | d(g)∧r(h)) * (d(g)∧r(h) | h) when the object meet exists."""
    m = meet_objects(self, self.dom[g], self.ran[h])
    if m is None:
        return None
    left = restriction(self, g, m)
    right = corestriction(self, m, h)
    return self.comp[(left, right)]


def is_pseudoassociative(self):
    """Existence of (g*h)*k and g*(h*k) agree on all triples.

    When both sides exist they must coincide; a difference would break
    the ordered-groupoid axioms and raises instead of returning False.
    """
    for g in self.arrows():
        for h in self.arrows():
            gh = pseudoproduct(self, g, h)
            for k in self.arrows():
                hk = pseudoproduct(self, h, k)
                left = None if gh is None else pseudoproduct(self, gh, k)
                right = None if hk is None else pseudoproduct(self, g, hk)
                if (left is None) != (right is None):
                    return False
                if left is not None and left != right:
                    raise InvalidGroupoid(
                        "pseudoproducts exist on both sides but differ on "
                        f"({self.names[g]},{self.names[h]},{self.names[k]})"
                    )
    return True


def idempotents(self):
    return tuple(e for e in self.elements() if self.mult[e][e] == e)


def validate_semigroup(self):
    rep = ValidationReport("inverse semigroup", SEMIGROUP_CLAUSES)
    nm = self.names
    for a in self.elements():
        for b in self.elements():
            for c in self.elements():
                if self.mult[self.mult[a][b]][c] != self.mult[a][self.mult[b][c]]:
                    rep.add("ASSOC", f"({nm[a]}{nm[b]}){nm[c]} != {nm[a]}({nm[b]}{nm[c]})")
    inverse = []
    for s in self.elements():
        partners = [
            t
            for t in self.elements()
            if self.mult[self.mult[s][t]][s] == s and self.mult[self.mult[t][s]][t] == t
        ]
        if len(partners) != 1:
            rep.add("INVERSES", f"{nm[s]} has {len(partners)} inverse partner(s)")
            inverse.append(s)
        else:
            inverse.append(partners[0])
    idem = idempotents(self)
    for e in idem:
        for f in idem:
            if self.mult[e][f] != self.mult[f][e]:
                rep.add("IDEMPOTENTS", f"idempotents {nm[e]}, {nm[f]} do not commute")
    return rep


def natural_le(self, s, t):
    """s below t iff s = t*e for some idempotent e."""
    self.require_valid()
    return any(self.mult[t][e] == s for e in idempotents(self))


def esn_to_groupoid(s):
    """Composable pairs from a scan over all pairs, the order from
    `natural_le`, then the library's groupoid checks."""
    s.require_valid()
    mult, elems = s.mult, s.elements()
    inv = [s.inverse(a) for a in elems]
    dom = [mult[inv[a]][a] for a in elems]
    ran = [mult[a][inv[a]] for a in elems]
    comp = {(a, b): mult[a][b] for a in elems for b in elems if dom[a] == ran[b]}
    leq = [[natural_le(s, a, b) for b in elems] for a in elems]
    g = OrderedGroupoid(s.names, set(s.idempotents()), inv, comp, dom, ran, leq)
    g.require_valid()
    if not g.is_inductive():
        raise NotInductive("derived groupoid is not inductive")
    return g


def esn_to_semigroup(g):
    """One `pseudoproduct` call per entry of the table."""
    g.require_valid()
    if not g.is_inductive():
        raise NotInductive("pseudoproduct is not total without object meets")
    mult = [[0] * g.n for _ in range(g.n)]
    for a in g.arrows():
        for b in g.arrows():
            prod = g.pseudoproduct(a, b)
            assert prod is not None
            mult[a][b] = prod
    s = InverseSemigroup(g.names, mult)
    s.require_valid()
    return s


def index_products(self):
    """(g, h, gh) from a scan over all pairs, g-major: the pairs of a
    groupoid that compose, every pair of a semigroup."""
    if isinstance(self, OrderedGroupoid):
        arrows = self.arrows()
        return [(g, h, self.compose(g, h)) for g in arrows for h in arrows if self.composable(g, h)]
    return [(a, b, self.mul(a, b)) for a in self.elements() for b in self.elements()]


def index_order_pairs(self):
    """(g, h) from a scan over all pairs, g-major, where g is strictly
    below h in the groupoid order or the natural partial order."""
    le = self.le if isinstance(self, OrderedGroupoid) else lambda a, b: natural_le(self, a, b)
    return [(g, h) for g in range(self.n) for h in range(self.n) if g != h and le(g, h)]


# -- retained dense kernel -----------------------------------------------
#
# Free functions of `self` (a Subspace or a LinMap), each body as the class
# wrote it, walking every coordinate.  A call on a subspace or map goes to
# these functions, never to the library's supports or kept images.


def is_zero_vec(v):
    return all(a == 0 for a in v)


def rref(rows, p):
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
        inv = pow(work[rank][col], -1, p)
        work[rank] = [(inv * x) % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                c = work[r][col]
                work[r] = [(x - c * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(row) for row in work[:rank] if any(row))


def express(rows, target, p):
    """Coefficients c with sum(c_i * rows_i) = target, or None."""
    if not rows:
        return () if all(int(x) % p == 0 for x in target) else None
    n = len(rows[0])
    k = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(k)] for i, r in enumerate(rows)]
    reduced = rref(aug, p)
    w = [int(x) % p for x in target]
    combo = [0] * k
    for row in reduced:
        piv = next(i for i, x in enumerate(row) if x)
        if piv >= n:
            continue
        c = w[piv]
        if c:
            for j in range(n):
                w[j] = (w[j] - c * row[j]) % p
            for j in range(k):
                combo[j] = (combo[j] + c * row[n + j]) % p
    if any(w):
        return None
    return tuple(combo)


def kernel(matrix, nrows, p):
    """Basis of the left kernel {x : x @ matrix = 0}: the zero-left rows of
    the reduced [matrix | I], reduced once more."""
    if nrows == 0:
        return ()
    ncols = len(matrix[0]) if matrix else 0
    aug = [list(matrix[i]) + [1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    out = [row[ncols:] for row in rref(aug, p) if is_zero_vec(row[:ncols])]
    return rref(out, p)


def split_rows(n, rows, images, p):
    """The split of rows beside images by what its parts are, not by the
    one elimination: the rows' RREF; the images of the rows' left kernel
    vectors, reduced; and each basis row's image through the combination
    `express` finds, reduced against the span of those kernel images (any
    combination gives the same residual)."""
    if not rows:
        return (), (), ()
    m, k = len(images[0]), len(rows)

    def combine(coeffs):
        return [sum(c * w[j] for c, w in zip(coeffs, images)) % p for j in range(m)]

    trailing = rref([combine(x) for x in kernel(rows, k, p)], p)
    kernel_images = Subspace(m, p, trailing)
    basis = rref(rows, p)
    basis_images = tuple(reduce(kernel_images, combine(express(rows, b, p))) for b in basis)
    return basis, basis_images, trailing


def reduce(self, v):
    """Residual of v after elimination against the basis."""
    if len(v) != self.dim:
        raise AmbientMismatch(f"vector of length {len(v)} in ambient of dim {self.dim}")
    w = [int(x) % self.p for x in v]
    for row, piv in zip(self.basis, self.pivots):
        c = w[piv]
        if c:
            for j in range(piv, self.dim):
                w[j] = (w[j] - c * row[j]) % self.p
    return tuple(w)


def contains(self, v):
    return is_zero_vec(reduce(self, v))


def coordinates_of(self, v):
    """Coefficients of v over the canonical basis; raises if v is outside."""
    if len(v) != self.dim:
        raise AmbientMismatch(f"vector of length {len(v)} in ambient of dim {self.dim}")
    w = [int(x) % self.p for x in v]
    coords = []
    for row, piv in zip(self.basis, self.pivots):
        c = w[piv]
        coords.append(c)
        if c:
            for j in range(piv, self.dim):
                w[j] = (w[j] - c * row[j]) % self.p
    if not is_zero_vec(tuple(w)):
        raise ValueError("vector not in subspace")
    return tuple(coords)


def from_coordinates(self, coords):
    if len(coords) != self.rank:
        raise AmbientMismatch(f"{len(coords)} coordinates for rank {self.rank}")
    out = [0] * self.dim
    for c, row in zip(coords, self.basis):
        c = int(c) % self.p
        if c:
            for j, x in enumerate(row):
                out[j] = (out[j] + c * x) % self.p
    return tuple(out)


def intersect(self, other):
    # Zassenhaus: eliminate [U|U] over [V|0]; zero-left rows carry U∩V.
    self._check_ambient(other)
    n = self.dim
    rows = [list(r) + list(r) for r in self.basis]
    rows += [list(r) + [0] * n for r in other.basis]
    reduced = rref(rows, self.p)
    inter = [row[n:] for row in reduced if all(x == 0 for x in row[:n])]
    return Subspace(n, self.p, rref(inter, self.p))


def preimage_of(self, sub):
    """{v in domain : f(v) in sub} by the kernel route on every target: the
    left kernel of f's matrix reduced against sub's part of the codomain."""
    if sub.dim != self.codomain.dim or sub.p != self.p:
        raise AmbientMismatch("preimage target lives in the wrong ambient")
    p, r, k = self.p, self.codomain.rank, self.domain.rank
    target = intersect(sub, self.codomain)
    coords = Subspace(r, p, rref([coordinates_of(self.codomain, v) for v in target.basis], p))
    aug = [list(reduce(coords, row)) + [int(i == j) for j in range(k)] for i, row in enumerate(self.matrix)]
    ker = [row[r:] for row in rref(aug, p) if is_zero_vec(row[:r])]
    vecs = [from_coordinates(self.domain, row) for row in ker]
    return Subspace(self.domain.dim, p, rref(vecs, p))


def from_images(domain, codomain, images):
    """Build from ambient images of the domain's canonical basis."""
    if len(images) != domain.rank:
        raise AmbientMismatch("one image per domain basis vector required")
    matrix = tuple(coordinates_of(codomain, img) for img in images)
    return LinMap(domain, codomain, matrix)


def apply(self, v):
    coords = coordinates_of(self.domain, v)
    out = [0] * self.codomain.rank
    for c, row in zip(coords, self.matrix):
        if c:
            for j, x in enumerate(row):
                out[j] = (out[j] + c * x) % self.p
    return from_coordinates(self.codomain, out)


def image(self):
    imgs = [from_coordinates(self.codomain, row) for row in self.matrix]
    return Subspace(self.codomain.dim, self.p, rref(imgs, self.p))


def inverse(self):
    if not self.is_iso:
        raise ValueError("map is not invertible")
    inv_imgs = []
    for v in self.codomain.basis:
        combo = express(list(self.matrix), coordinates_of(self.codomain, v), self.p)
        if combo is None:
            raise ValueError("map is not surjective onto its codomain")
        inv_imgs.append(from_coordinates(self.domain, combo))
    return from_images(self.codomain, self.domain, inv_imgs)


def partial_inverse(f):
    """Inverse of a partial linear bijection, image becoming the domain."""
    img = image(f)
    if img.rank != f.domain.rank:
        raise ValueError("partial map is not injective")
    back = []
    for v in img.basis:
        combo = express(list(f.matrix), coordinates_of(f.codomain, v), f.p)
        if combo is None:
            raise ValueError("image vector not reachable")
        back.append(from_coordinates(f.domain, combo))
    return from_images(img, f.domain, back)


# -- retained generator -----------------------------------------------------


def symmetric_inverse_monoid(n):
    """I_n as `generators.symmetric_inverse_monoid` built it before it
    translated byte words: one image tuple formed and looked up per product."""
    elems = []
    for size in range(n + 1):
        for dom in combinations(range(n), size):
            for img in permutations(range(n), size):
                f = [None] * n
                for x, y in zip(dom, img):
                    f[x] = y
                elems.append(tuple(f))
    index = {f: i for i, f in enumerate(elems)}
    mult = [
        [index[tuple(None if y is None else s[y] for y in t)] for t in elems] for s in elems
    ]
    names = ["s" + "".join("_" if y is None else str(y) for y in f) for f in elems]
    return InverseSemigroup(names, mult)
