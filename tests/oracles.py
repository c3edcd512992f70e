"""Independent reference implementations used to cross-check the library.

Most of this is deliberately naive: plain forward elimination, set
enumeration, and fixpoint loops that only rely on a multiplication
callback, sharing no code with the package under test.  The last section
keeps two globalization checks as the library wrote them before the
semigroup and restriction clauses were read off the groupoid checklist;
they use the library's linear algebra, and serve as oracles for that
reading.
"""

from itertools import product

from ogaction.actions import InvSgpAction
from ogaction.algebras import is_ideal
from ogaction.errors import NotContained
from ogaction.globalize import SEMIGROUP_GLOBALIZATION_CLAUSES
from ogaction.linalg import LinMap, Subspace
from ogaction.validation import ValidationReport


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
    """Fixpoint closure under left/right multiplication, tracked by rank."""
    current = [tuple(int(x) % p for x in g) for g in gens]
    while True:
        new = list(current)
        for v in current:
            for b in basis_vectors:
                new.append(mul(b, v))
                new.append(mul(v, b))
        if naive_rank(new, p) == naive_rank(current, p):
            return current
        current = new


def naive_assoc_failures(table, p):
    """All basis triples (i, j, k) where the two bracketings differ."""
    n = len(table)

    def mul(x, y):
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
