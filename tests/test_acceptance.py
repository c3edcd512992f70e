"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact over prime fields, so every tolerance is exact
equality; the stated runtime budgets are asserted as well.
"""

import random
import time

import pytest

from ogaction import fixtures as fx
from ogaction.actions import (
    general_restriction,
    is_global,
    is_strong,
    is_unital,
    relabel_action,
    satisfies_ps,
    search_equivalence,
    standard_restriction,
    validate_po_action,
)
from ogaction.errors import NotStrong, NotUnital
from ogaction.globalize import (
    build_globalization,
    build_minimal_globalization,
    globalize_inverse_semigroup_action,
    verify_globalization,
)
from ogaction.semigroups import esn_to_groupoid, esn_to_semigroup
from ogaction.skew import (
    build_ordered_skew,
    build_skew,
    check_skew_associative,
    inv_sgp_morita,
    morita_context,
)

import extra_fixtures as xf
from generators import random_global_action, random_ideal, random_monotone_family
from test_globalization import inclusion_globalization


def record(criterion: int, ok: bool, detail: str, budget: float, elapsed: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[criterion-{criterion:02d}] {status} ({elapsed:.2f}s/{budget}s) {detail}")
    assert ok, detail
    assert elapsed <= budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"


def arrow_index(g):
    return {nm: i for i, nm in enumerate(g.names)}


def test_criterion_01_standard_restriction_dimensions():
    start = time.time()
    beta = fx.pointed_arrow_global_action()
    alpha = standard_restriction(beta, xf.pointed_arrow_restriction_ideal())
    i = arrow_index(alpha.structure)
    dims = tuple(
        alpha.ideal_of[i[nm]].rank for nm in ["r_s", "d_s", "s", "s_inv", "e_min"]
    )
    ok = dims == (2, 1, 1, 1, 1)
    identity_maps = all(
        m.matrix == tuple(
            tuple(1 if r == c else 0 for c in range(m.domain.rank))
            for r in range(m.domain.rank)
        )
        for m in alpha.map_of
    )
    record(
        1,
        ok and identity_maps,
        f"ideal dims {dims}, all maps identities: {identity_maps}",
        0.1,
        time.time() - start,
    )


def test_criterion_02_full_globalization_and_non_equivalence():
    start = time.time()
    alpha = fx.pointed_arrow_partial_action()
    gl = build_globalization(alpha)
    b = gl.global_action
    i = arrow_index(b.structure)
    dims_ok = b.ideal_of[i["s"]].rank == 3 and b.carrier.dim == 5
    checklist = verify_globalization(gl)
    _, incl = inclusion_globalization()
    original_ok = verify_globalization(incl).ok
    res = search_equivalence(fx.pointed_arrow_global_action(), b)
    negative = res.definitive_no and "2" in res.disproof and "3" in res.disproof
    record(
        2,
        dims_ok and checklist.ok and original_ok and negative,
        f"piece dim 3, carrier dim 5, checklist ok, original passes, "
        f"non-equivalence: {res.disproof}",
        1.0,
        time.time() - start,
    )


def test_criterion_03_minimal_globalization_and_equivalence():
    start = time.time()
    alpha = fx.pointed_arrow_partial_action()
    gl = build_minimal_globalization(alpha)
    b = gl.global_action
    i = arrow_index(b.structure)
    dims_ok = b.ideal_of[i["s"]].rank == 2 and b.carrier.dim == 3
    checklist = verify_globalization(gl)
    minimal_clause = checklist.clause_ok("GLOB(iv')") and "GLOB(iv')" in checklist.checked
    res = search_equivalence(fx.pointed_arrow_global_action(), b)
    record(
        3,
        dims_ok and checklist.ok and minimal_clause and res.found,
        f"piece dim 2, carrier dim 3, equal-range clause ok, witness found "
        f"after {res.tested} candidates",
        1.0,
        time.time() - start,
    )


def test_criterion_04_strong_iff_composition_law():
    start = time.time()
    fixtures = [
        fx.pointed_arrow_partial_action(),
        fx.pointed_arrow_global_action(),
        fx.stacked_involutions_action(),
        xf.nilpotent_edge_po_action(),
        xf.zero_ring_swap_action(),
    ]
    agree = all(is_strong(a) == satisfies_ps(a) for a in fixtures)
    stacked = fx.stacked_involutions_action()
    witness_ok = not is_strong(stacked) and is_unital(stacked)
    build_globalization(stacked)  # globalizable
    rejected = False
    try:
        build_minimal_globalization(stacked)
    except NotStrong:
        rejected = True
    from ogaction.actions import meets_compatible

    rng = random.Random(20260401)
    checked = 0
    corrected = 0
    while checked < 100:
        beta, coords = random_global_action(rng)
        assert validate_po_action(beta).ok and is_global(beta)
        restricted = standard_restriction(beta, random_ideal(rng, beta))
        agree = agree and is_strong(restricted) and satisfies_ps(restricted)
        checked += 1
        # general restrictions exercise the corrected form of the law:
        # the composition law is strength plus meet compatibility
        partial = general_restriction(
            beta, random_monotone_family(rng, beta, coords)
        )
        s, ps = is_strong(partial), satisfies_ps(partial)
        agree = agree and ps == (s and meets_compatible(partial))
        corrected += s and not ps
    record(
        4,
        agree and witness_ok and rejected and checked >= 100,
        f"{checked} standard restrictions strong with the composition law; "
        f"{corrected} strong general restrictions need the meet condition too; "
        "designated witness rejected by the minimal construction",
        30.0,
        time.time() - start,
    )


def test_criterion_05_restriction_and_meet_identities():
    start = time.time()
    strong_fixtures = [
        fx.pointed_arrow_partial_action(),
        fx.pointed_arrow_global_action(),
        xf.nilpotent_edge_po_action(),
        standard_restriction(
            fx.pointed_arrow_global_action(), xf.pointed_arrow_restriction_ideal()
        ),
        build_minimal_globalization(fx.pointed_arrow_partial_action()).global_action,
    ]
    rng = random.Random(5)
    for _ in range(10):
        beta, _ = random_global_action(rng)
        strong_fixtures.append(standard_restriction(beta, random_ideal(rng, beta)))
    ok = True
    for action in strong_fixtures:
        assert is_strong(action), action.name
        g0 = action.structure
        for g in g0.arrows():
            for e in g0.objects:
                if g0.le(e, g0.dom[g]):
                    restricted = g0.restriction(g, e)
                    lhs = action.ideal_of[restricted]
                    rhs = action.ideal_of[g].intersect(
                        action.ideal_of[g0.ran[restricted]]
                    )
                    ok = ok and lhs == rhs
        for e in g0.objects:
            for f in g0.objects:
                meet = g0.meet_objects(e, f)
                if meet is not None:
                    ok = ok and action.ideal_of[meet] == action.ideal_of[e].intersect(
                        action.ideal_of[f]
                    )
    record(
        5,
        ok,
        f"restriction and meet identities on {len(strong_fixtures)} strong actions",
        5.0,
        time.time() - start,
    )


def test_criterion_06_esn_roundtrips():
    start = time.time()
    ok = True
    for s in [fx.chain_semilattice(), xf.symmetric_monoid_i1(), fx.brandt_b2()]:
        back = esn_to_semigroup(esn_to_groupoid(s))
        ok = ok and back.mult == s.mult
    for g in [fx.pointed_arrow_groupoid(), fx.stacked_involutions_groupoid()]:
        ok = ok and esn_to_groupoid(esn_to_semigroup(g)) == g
    record(6, ok, "three semigroup and two groupoid roundtrips", 0.1, time.time() - start)


def test_criterion_07_semigroup_pipeline():
    start = time.time()
    result = globalize_inverse_semigroup_action(fx.brandt_action())
    clauses = result.checklist.clauses()
    rejected = False
    try:
        globalize_inverse_semigroup_action(fx.nilpotent_edge_action())
    except NotUnital:
        rejected = True
    record(
        7,
        result.checklist.ok and rejected,
        f"checklist {sorted(clauses)} all true; non-unital input rejected",
        1.0,
        time.time() - start,
    )


def test_criterion_08_morita_context():
    start = time.time()
    alpha = fx.pointed_arrow_partial_action()
    ok = True
    details = []
    for minimal in (False, True):
        gl = (
            build_minimal_globalization(alpha)
            if minimal
            else build_globalization(alpha)
        )
        rep = morita_context(alpha, gl)
        ok = ok and rep.ok
        details.append(
            f"{'minimal' if minimal else 'full'}: corner dim {rep.dims['corner']}"
        )
    record(8, ok, "; ".join(details), 5.0, time.time() - start)


def test_criterion_09_associativity_and_determinism():
    start = time.time()
    unital_fixtures = [
        fx.pointed_arrow_partial_action(),
        fx.pointed_arrow_global_action(),
        fx.stacked_involutions_action(),
        build_minimal_globalization(fx.pointed_arrow_partial_action()).global_action,
    ]
    ok = True
    for action in unital_fixtures:
        if is_unital(action):
            ok = ok and check_skew_associative(build_skew(action)).ok
    base = build_ordered_skew(build_skew(fx.pointed_arrow_partial_action()))
    rng = random.Random(99)
    for _ in range(3):
        perm = list(range(5))
        rng.shuffle(perm)
        moved = relabel_action(fx.pointed_arrow_partial_action(), perm)
        other = build_ordered_skew(build_skew(moved))
        ok = ok and other.quotient.dim == base.quotient.dim
        ok = ok and other.n_ideal.rank == base.n_ideal.rank
    record(
        9,
        ok,
        "unital associator scans empty; quotient dims stable under relabeling",
        5.0,
        time.time() - start,
    )


def test_criterion_10_uniqueness_under_relabeling():
    start = time.time()
    alpha = fx.pointed_arrow_partial_action()
    perm = [3, 0, 4, 2, 1]
    moved = relabel_action(alpha, perm)
    gl1 = build_minimal_globalization(alpha)
    gl2 = build_minimal_globalization(moved)
    back = relabel_action(gl2.global_action, [perm.index(i) for i in range(5)])
    res = search_equivalence(gl1.global_action, back)
    record(
        10,
        res.found,
        f"equivalence witness found after {res.tested} candidates",
        2.0,
        time.time() - start,
    )
