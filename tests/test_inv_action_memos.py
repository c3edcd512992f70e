"""P2' and P3' of an inverse-semigroup action, checked once per distinct
meet, image and map value, against the per-product loop in `oracles`.

The draws are the natural actions of I_2 and I_3 on F_3^n (alpha_f sends
e_x to e_f(x) for x in dom f), the same action of random inverse
subsemigroups of I_3, and mutants of each: one map entry moved to another
column of its row (no longer an isomorphism), two images of one map
exchanged (an isomorphism with wrong values), one ideal swapped for
another, and one map given another domain of the same rank.  Every draw
is seeded, and the reports must list the same issues in the same order.
"""

import random

import pytest

from ogaction.actions import Action, validate_inv_sgp_action
from ogaction.algebras import diagonal_algebra
from ogaction.linalg import LinMap, Subspace
from ogaction.semigroups import InverseSemigroup

import oracles
from generators import symmetric_inverse_monoid

P = 3


def _images(name):
    """The partial injection named "s" + its images, "_" where undefined."""
    return [None if c == "_" else int(c) for c in name[1:]]


def natural_action(s):
    n = len(s.names[0]) - 1

    def coords(xs):
        return Subspace.span(n, [[int(i == x) for i in range(n)] for x in xs], P)

    ideals, maps = [], []
    for name in s.names:
        f = _images(name)
        dom = [x for x in range(n) if f[x] is not None]
        ideals.append(coords([f[x] for x in dom]))
        maps.append(LinMap.from_images(coords(dom), ideals[-1], [coords([f[x]]).basis[0] for x in dom]))
    return Action(s, diagonal_algebra(P, n), ideals, maps, name=f"natural I_{n}")


def random_subsemigroup(s, rng):
    """The inverse subsemigroup of s generated by one to three random
    elements: closed under products and under inverses."""
    index = {name: i for i, name in enumerate(s.names)}

    def inverse(a):
        f = _images(s.names[a])
        back = ["_"] * len(f)
        for x, y in enumerate(f):
            if y is not None:
                back[y] = str(x)
        return index["s" + "".join(back)]

    keep = set(rng.sample(range(s.n), rng.randint(1, 3)))
    while more := ({s.mult[a][b] for a in keep for b in keep} | set(map(inverse, keep))) - keep:
        keep |= more
    elems = sorted(keep)
    pos = {x: i for i, x in enumerate(elems)}
    names = [s.names[x] for x in elems]
    return InverseSemigroup(names, [[pos[s.mult[a][b]] for b in elems] for a in elems])


def mutants(a, rng):
    """(kind, action) for each mutant the action admits."""
    n = a.structure.n
    out = []

    def mutant(kind, grade, ideal=None, m=None):
        ideals, maps = list(a.ideal_of), list(a.map_of)
        ideals[grade] = ideals[grade] if ideal is None else ideal
        maps[grade] = maps[grade] if m is None else m
        out.append((kind, Action(a.structure, a.carrier, ideals, maps, name=f"{a.name}~{kind}")))

    wide = [g for g in range(n) if a.map_of[g].domain.rank >= 2]
    if wide:
        g = rng.choice(wide)
        m = a.map_of[g]
        rows = [list(row) for row in m.matrix]
        i, j = rng.sample(range(len(rows)), 2)
        col = rows[i].index(1)
        rows[i][col], rows[i][(col + 1) % len(rows[i])] = 0, 1
        mutant("moved", g, m=LinMap(m.domain, m.codomain, rows))
        rows = list(m.matrix)
        rows[i], rows[j] = rows[j], rows[i]
        mutant("exchanged", g, m=LinMap(m.domain, m.codomain, rows))
    pairs = [(g, h) for g in range(n) for h in range(n) if a.ideal_of[g] != a.ideal_of[h]]
    if pairs:
        g, h = rng.choice(pairs)
        mutant("ideal", g, ideal=a.ideal_of[h])
    others = [
        (g, h) for g in range(n) for h in range(n)
        if a.ideal_of[h] != a.map_of[g].domain and a.ideal_of[h].rank == a.map_of[g].domain.rank
    ]
    if others:
        g, h = rng.choice(others)
        m = a.map_of[g]
        mutant("domain", g, m=LinMap(a.ideal_of[h], m.codomain, m.matrix))
    return out


def draws(seed):
    """The natural action of I_2 or I_3 (by seed parity), that of a random
    inverse subsemigroup of I_3, and the mutants of both."""
    rng = random.Random(seed)
    full = natural_action(symmetric_inverse_monoid(2 + seed % 2))
    sub = natural_action(random_subsemigroup(symmetric_inverse_monoid(3), rng))
    out = []
    for a in (full, sub):
        out += [("valid", a), *mutants(a, rng)]
    return out


SEEDS = range(8)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_memos_give_the_per_product_report(seed):
    for kind, a in draws(seed):
        got, want = validate_inv_sgp_action(a), oracles.validate_inv_sgp_action(a)
        assert got.issues == want.issues, (seed, kind, a.name)


def test_the_draws_fail_p2_p3_and_iso_somewhere():
    failed = {}
    for seed in SEEDS:
        for kind, a in draws(seed):
            for issue in validate_inv_sgp_action(a).issues:
                failed.setdefault(issue.clause, set()).add(kind)
    assert {"P2'", "P3'", "ISO'"} <= set(failed), failed
    assert "valid" not in failed.get("P2'", ()) | failed.get("P3'", ()) | failed.get("ISO'", ())
