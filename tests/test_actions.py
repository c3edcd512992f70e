import dataclasses
import json
import random
import sys

import pytest

from ogaction import fixtures as fx
from ogaction import linalg
from ogaction.actions import (
    EquivalenceWitness,
    InvSgpAction,
    POAction,
    general_restriction,
    groupoid_action_to_semigroup_action,
    identity_witness,
    inv_action_is_global,
    inv_action_is_preunital,
    inv_action_is_unital,
    is_global,
    is_preunital,
    is_strong,
    is_unital,
    relabel_action,
    satisfies_ps,
    search_equivalence,
    semigroup_action_to_groupoid_action,
    standard_restriction,
    validate_inv_sgp_action,
    validate_po_action,
    verify_equivalence,
)
from ogaction.corpus import CORPUS, emit_fixture_corpus
from ogaction.errors import (
    BudgetExceeded,
    GroupoidMismatch,
    InvalidAction,
    NotAnIdeal,
    NotGlobal,
    NotMonotone,
    NotStrong,
)
from ogaction.globalize import build_minimal_globalization
from ogaction.groupoids import OrderedGroupoid
from ogaction.linalg import LinMap, Subspace
from ogaction.tasks import run_tasks
from ogaction.workspace import load_workspace

import extra_fixtures as xf
from generators import random_global_action, random_ideal, random_monotone_family


def idx(g):
    return {nm: i for i, nm in enumerate(g.names)}


def test_fixture_actions_validate():
    for action in [
        fx.pointed_arrow_global_action(),
        fx.pointed_arrow_partial_action(),
        fx.stacked_involutions_action(),
        xf.nilpotent_edge_po_action(),
        xf.zero_ring_swap_action(),
    ]:
        rep = validate_po_action(action)
        assert rep.ok, f"{action.name}: {rep}"


def test_sum_violation_is_reported():
    alpha = fx.pointed_arrow_partial_action()
    g = alpha.structure
    i = idx(g)
    small = Subspace.span(2, [[1, 0]], 5)
    ideals = list(alpha.ideal_of)
    maps = list(alpha.map_of)
    ideals[i["r_s"]] = small
    maps[i["r_s"]] = LinMap.identity(small)
    maps[i["s"]] = LinMap.from_images(small, small, [[1, 0]])
    maps[i["s_inv"]] = LinMap.from_images(small, small, [[1, 0]])
    broken = POAction(g, alpha.carrier, tuple(ideals), tuple(maps))
    rep = validate_po_action(broken)
    assert not rep.clause_ok("P1")


def test_nested_ideal_violation_is_reported():
    alpha = fx.pointed_arrow_partial_action()
    g = alpha.structure
    i = idx(g)
    other = Subspace.span(2, [[0, 1]], 5)
    ideals = list(alpha.ideal_of)
    maps = list(alpha.map_of)
    ideals[i["e_min"]] = other
    maps[i["e_min"]] = LinMap.identity(other)
    broken = POAction(g, alpha.carrier, tuple(ideals), tuple(maps))
    rep = validate_po_action(broken)
    assert not rep.ok
    assert not rep.clause_ok("PO")


def test_unitality_flags():
    alpha = fx.pointed_arrow_partial_action()
    assert is_preunital(alpha) and is_unital(alpha)
    i = idx(alpha.structure)
    assert alpha.unit_vector(i["s"]) == (1, 0)
    assert alpha.unit_vector(i["r_s"]) == (1, 1)
    stacked = fx.stacked_involutions_action()
    assert is_unital(stacked)
    nil = xf.nilpotent_edge_po_action()
    assert is_preunital(nil) and not is_unital(nil)
    assert not is_preunital(xf.zero_product_point())


def test_strongness_and_composition_law_on_fixtures():
    cases = [
        (fx.pointed_arrow_partial_action(), True),
        (fx.pointed_arrow_global_action(), True),
        (fx.stacked_involutions_action(), False),
        (xf.nilpotent_edge_po_action(), True),
    ]
    for action, expected in cases:
        assert is_strong(action) == expected, action.name
        assert satisfies_ps(action) == expected, action.name


def test_standard_restriction_reproduces_the_authored_action():
    beta = fx.pointed_arrow_global_action()
    alpha = standard_restriction(beta, xf.pointed_arrow_restriction_ideal())
    authored = fx.pointed_arrow_partial_action()
    assert alpha.carrier == authored.carrier
    assert alpha.ideal_of == authored.ideal_of
    assert alpha.map_of == authored.map_of
    assert alpha.inclusion is not None


def test_standard_restriction_to_full_carrier_is_the_action_itself():
    beta = fx.pointed_arrow_global_action()
    back = standard_restriction(beta, beta.carrier.space())
    assert back.carrier == beta.carrier
    assert back.ideal_of == beta.ideal_of
    assert back.map_of == beta.map_of


def test_standard_restriction_to_zero_is_the_zero_action():
    beta = fx.pointed_arrow_global_action()
    zero = standard_restriction(beta, Subspace.zero(3, 5))
    assert zero.carrier.dim == 0
    assert all(s.rank == 0 for s in zero.ideal_of)


def test_standard_restriction_requires_global_and_ideal():
    alpha = fx.pointed_arrow_partial_action()
    with pytest.raises(NotGlobal):
        standard_restriction(alpha, alpha.carrier.space())
    beta = fx.pointed_arrow_global_action()
    not_ideal = Subspace.span(3, [[1, 1, 0]], 5)
    with pytest.raises(NotAnIdeal):
        standard_restriction(beta, not_ideal)


def test_general_restriction_with_object_intersections_is_standard():
    beta = fx.pointed_arrow_global_action()
    ideal = xf.pointed_arrow_restriction_ideal()
    family = {e: ideal.intersect(beta.ideal_of[e]) for e in beta.structure.objects}
    via_family = general_restriction(beta, family)
    via_ideal = standard_restriction(beta, ideal)
    assert via_family.ideal_of == via_ideal.ideal_of
    assert via_family.map_of == via_ideal.map_of


def test_general_restriction_refuses_a_partial_action_a_missing_object_and_a_non_ideal():
    alpha = fx.pointed_arrow_partial_action()
    with pytest.raises(NotGlobal, match="^restriction needs a global ordered action$"):
        general_restriction(alpha, {e: alpha.ideal_of[e] for e in alpha.structure.objects})
    beta = fx.pointed_arrow_global_action()
    i = idx(beta.structure)
    family = {e: beta.ideal_of[e] for e in beta.structure.objects if e != i["e_min"]}
    with pytest.raises(NotAnIdeal, match="^family must assign one ideal per object$"):
        general_restriction(beta, family)
    family[i["e_min"]] = beta.ideal_of[i["e_min"]]
    # (0, 1, 1) times the idempotent (0, 1, 0) leaves its span
    family[i["r_s"]] = Subspace.span(3, [[0, 1, 1]], 5)
    with pytest.raises(NotAnIdeal, match="^family entry at r_s is not a two-sided ideal$"):
        general_restriction(beta, family)


def test_general_restriction_rejects_non_monotone_families():
    beta = fx.pointed_arrow_global_action()
    g = beta.structure
    i = idx(g)
    family = {
        i["r_s"]: Subspace.span(3, [[0, 0, 1]], 5),
        i["d_s"]: Subspace.span(3, [[0, 1, 0]], 5),
        i["e_min"]: Subspace.span(3, [[0, 1, 0]], 5),
    }
    # the bottom ideal is not inside the piece at the range object
    with pytest.raises(NotMonotone):
        general_restriction(beta, family)
    family[i["e_min"]] = Subspace.span(3, [[1, 0, 0]], 5)
    with pytest.raises(NotAnIdeal):
        # now it escapes its object ideal instead
        general_restriction(beta, family)


def test_identity_witness_verifies():
    alpha = fx.pointed_arrow_partial_action()
    assert verify_equivalence(alpha, alpha, identity_witness(alpha))


def test_equivalence_requires_a_common_groupoid():
    alpha = fx.pointed_arrow_partial_action()
    other = fx.stacked_involutions_action()
    with pytest.raises(GroupoidMismatch):
        verify_equivalence(alpha, other, identity_witness(alpha))


def test_search_finds_the_identity():
    alpha = fx.pointed_arrow_partial_action()
    res = search_equivalence(alpha, alpha)
    assert res.found and res.disproof is None


def test_search_disproves_on_dimension_mismatch():
    beta = fx.pointed_arrow_global_action()
    alpha = fx.pointed_arrow_partial_action()
    # same groupoid, carrier dims differ at every arrow ideal
    res = search_equivalence(beta, alpha)
    assert res.definitive_no and not res.found


def test_search_enumerates_matrices_on_a_ring_without_primitive_idempotents():
    """The dual numbers F_5[x]/x^2 have one idempotent, so their two basis
    vectors have no primitive idempotent partners and the search enumerates
    all 5^4 matrices at the one object; a budget below that refuses."""
    a = xf.nilpotent_edge_po_action()
    res = search_equivalence(a, a)
    assert res.found and res.disproof is None
    assert verify_equivalence(a, a, res.witness)
    with pytest.raises(BudgetExceeded, match="matrix enumeration at object one needs 625 nodes"):
        search_equivalence(a, a, budget=10)


def test_matrix_enumeration_eliminates_each_candidate_once(monkeypatch):
    """`is_ring_iso` tests invertibility itself, so the fallback does not
    test it first: 629 `rref` calls, against 1,109 when each of the 480
    invertible candidates (GL_2(F_5)) was eliminated twice."""
    a = xf.nilpotent_edge_po_action()
    a.require_valid()
    calls = []
    rref = linalg.rref

    def counted(rows, p):
        calls.append(len(rows))
        return rref(rows, p)

    monkeypatch.setattr(linalg, "rref", counted)
    assert search_equivalence(a, a).found
    assert len(calls) == 629


def test_search_exhausts_when_no_automorphism_commutes():
    """With t acting by -1 on the square-zero ideal instead of by 1, an
    automorphism x -> c x of the dual numbers would need c x = -c x, so
    each of the four enumerated candidates fails and the search ends
    without a witness or a disproof."""
    a = xf.nilpotent_edge_po_action()
    full, nil = a.ideal_of
    neg = LinMap(nil, nil, ((a.carrier.p - 1,),))
    c = POAction(a.structure, a.carrier, (full, nil), (a.map_of[0], neg), name="negated edge")
    assert validate_po_action(c).ok
    res = search_equivalence(a, c)
    assert not res.found and not res.definitive_no
    assert res.tested == 4


@pytest.mark.parametrize("make", [fx.brandt_action, fx.chain_semilattice_action])
def test_equivalence_on_a_semigroup_action_agrees_with_the_transferred_action(make):
    """The search and both checks read the action's index, so they run on a
    semigroup action and find what they find on the action moved to the
    derived groupoid."""
    a = make()
    moved = semigroup_action_to_groupoid_action(a)
    assert verify_equivalence(a, a, identity_witness(a))
    assert verify_equivalence(moved, moved, identity_witness(moved))
    res, res_moved = search_equivalence(a, a), search_equivalence(moved, moved)
    assert res.found and res_moved.found
    assert res.tested == res_moved.tested
    assert res.witness.maps == res_moved.witness.maps
    assert verify_equivalence(a, a, res.witness)


def test_witnesses_form_an_equivalence_relation():
    alpha = fx.pointed_arrow_partial_action()
    # conjugated copy: swap the two carrier blocks everywhere
    swap = [((0, 1), (1, 0))[i] for i in range(2)]
    carrier = alpha.carrier
    conj = LinMap.from_images(carrier.space(), carrier.space(), swap)
    ideals = tuple(conj.image_of(s) for s in alpha.ideal_of)
    maps = []
    for g in alpha.index.grades:
        dom = ideals[alpha.structure.inv[g]]
        images = []
        for v in dom.basis:
            back = conj.inverse().apply(v)
            images.append(conj.apply(alpha.map_of[g].apply(back)))
        maps.append(LinMap.from_images(dom, ideals[g], images))
    mirrored = POAction(alpha.structure, carrier, ideals, tuple(maps), name="mirrored")
    assert validate_po_action(mirrored).ok

    res = search_equivalence(alpha, mirrored)
    assert res.found
    maps = res.witness.maps
    inverse = EquivalenceWitness({e: m.inverse() for e, m in maps.items()})
    assert verify_equivalence(mirrored, alpha, inverse)
    res_back = search_equivalence(mirrored, alpha)
    assert res_back.found
    composed = EquivalenceWitness({e: m.then(res_back.witness.maps[e]) for e, m in maps.items()})
    assert verify_equivalence(alpha, alpha, composed)


def test_composition_law_is_strength_plus_meet_compatibility():
    # The corestriction condition alone does not grant the composition law:
    # a general restriction may keep content shared by two incomparable
    # objects while emptying their meet.  The law holds exactly when the
    # action is strong and object meets carry the ideal intersections.
    from ogaction.actions import meets_compatible

    rng = random.Random(2024)
    seen_non_strong = 0
    strong_without_law = []
    for _ in range(60):
        beta, coords = random_global_action(rng)
        assert validate_po_action(beta).ok and is_global(beta)
        restricted = standard_restriction(beta, random_ideal(rng, beta))
        assert is_strong(restricted) and satisfies_ps(restricted)
        family = random_monotone_family(rng, beta, coords)
        partial = general_restriction(beta, family)
        s, ps = is_strong(partial), satisfies_ps(partial)
        assert ps == (s and meets_compatible(partial))
        seen_non_strong += not s
        if s and not ps:
            strong_without_law.append(partial)
    assert seen_non_strong >= 1
    assert len(strong_without_law) >= 1
    # strength alone does not let the minimal globalization through
    for partial in strong_without_law:
        with pytest.raises(NotStrong, match="fails the composition law along pseudoproducts"):
            build_minimal_globalization(partial)


def test_inv_action_fixtures_validate():
    for action in [
        fx.brandt_action(),
        fx.chain_semilattice_action(),
        fx.nilpotent_edge_action(),
    ]:
        rep = validate_inv_sgp_action(action)
        assert rep.ok, f"{action.name}: {rep}"


def test_inv_action_flags():
    b = fx.brandt_action()
    assert inv_action_is_preunital(b) and inv_action_is_unital(b)
    assert not inv_action_is_global(b)
    triv = fx.chain_semilattice_action()
    assert inv_action_is_global(triv)
    nil = fx.nilpotent_edge_action()
    assert inv_action_is_preunital(nil) and not inv_action_is_unital(nil)


def test_overlap_law_violation_is_reported():
    # a well-formed family over the Brandt semigroup where the zero element
    # carries a nonzero ideal the moved overlaps cannot reach
    s = fx.brandt_b2()
    i = idx(s)
    from ogaction.algebras import diagonal_algebra

    carrier = diagonal_algebra(5, 4)
    plane12 = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]], 5)
    plane34 = Subspace.span(4, [[0, 0, 1, 0], [0, 0, 0, 1]], 5)
    line2 = Subspace.span(4, [[0, 1, 0, 0]], 5)
    ideals = [None] * 5
    maps = [None] * 5
    ideals[i["a"]] = plane12
    ideals[i["f1"]] = plane12
    ideals[i["a_inv"]] = plane34
    ideals[i["f2"]] = plane34
    ideals[i["z"]] = line2
    maps[i["a"]] = LinMap.from_images(plane34, plane12, [[1, 0, 0, 0], [0, 1, 0, 0]])
    maps[i["a_inv"]] = LinMap.from_images(
        plane12, plane34, [[0, 0, 1, 0], [0, 0, 0, 1]]
    )
    maps[i["f1"]] = LinMap.identity(plane12)
    maps[i["f2"]] = LinMap.identity(plane34)
    maps[i["z"]] = LinMap.identity(line2)
    broken = InvSgpAction(s, carrier, tuple(ideals), tuple(maps))
    rep = validate_inv_sgp_action(broken)
    assert not rep.clause_ok("P2'")


def test_semilattice_trivial_action_transfers():
    triv = fx.chain_semilattice_action()
    omega = semigroup_action_to_groupoid_action(triv)
    assert validate_po_action(omega).ok
    assert is_strong(omega)
    assert omega.ideal_of == triv.ideal_of


def test_brandt_action_transfers_to_a_strong_groupoid_action():
    b = fx.brandt_action()
    omega = semigroup_action_to_groupoid_action(b)
    assert is_strong(omega)
    assert omega.ideal_of == b.ideal_of
    assert omega.map_of == b.map_of


def test_transfer_back_requires_global_and_matching_semigroup():
    b = fx.brandt_action()
    omega = semigroup_action_to_groupoid_action(b)
    with pytest.raises(NotGlobal):
        groupoid_action_to_semigroup_action(omega, b.structure)
    triv = fx.chain_semilattice_action()
    omega2 = semigroup_action_to_groupoid_action(triv)
    with pytest.raises(GroupoidMismatch):
        groupoid_action_to_semigroup_action(omega2, b.structure)
    back = groupoid_action_to_semigroup_action(omega2, triv.structure)
    assert back.ideal_of == triv.ideal_of
    assert back.map_of == triv.map_of


def test_derived_identities_hold_on_valid_fixtures():
    for action in [
        fx.pointed_arrow_partial_action(),
        fx.stacked_involutions_action(),
    ]:
        g = action.structure
        for a in g.arrows():
            inv_map = action.map_of[a].inverse()
            other = action.map_of[g.inv[a]]
            assert inv_map.domain == other.domain
            assert inv_map.agrees_with(other, other.domain)
        for a in g.arrows():
            for b in g.arrows():
                if not g.composable(a, b):
                    continue
                ab = g.comp[(a, b)]
                inter = action.ideal_of[g.inv[a]].intersect(action.ideal_of[b])
                image = action.map_of[a].image_of(inter)
                assert image == action.ideal_of[a].intersect(action.ideal_of[ab])


def test_relabeled_action_still_validates():
    alpha = fx.pointed_arrow_partial_action()
    moved = relabel_action(alpha, [4, 2, 0, 1, 3])
    assert validate_po_action(moved).ok
    assert is_strong(moved) and is_unital(moved)


FIXTURE_ACTIONS = [
    fx.pointed_arrow_global_action,
    fx.pointed_arrow_partial_action,
    fx.stacked_involutions_action,
    xf.nilpotent_edge_po_action,
    xf.zero_ring_swap_action,
    xf.zero_product_point,
    fx.brandt_action,
    fx.chain_semilattice_action,
    fx.nilpotent_edge_action,
]


@pytest.mark.parametrize("make", [fx.pointed_arrow_partial_action, fx.brandt_action])
def test_a_family_shorter_than_the_index_is_refused(make):
    a = make()
    with pytest.raises(InvalidAction):
        POAction(a.structure, a.carrier, a.ideal_of[:-1], a.map_of[:-1])


def _broken_variants(a):
    """Two invalid copies of a: the last grade's map doubled (not a ring
    map unless its ideal squares to zero), and the first anchor's ideal
    and map emptied."""
    last = a.index.grades[-1]
    m = a.map_of[last]
    doubled = tuple(tuple(2 * x % m.p for x in row) for row in m.matrix)
    doubled = LinMap(m.domain, m.codomain, doubled)
    maps = a.map_of[:last] + (doubled,) + a.map_of[last + 1 :]
    yield dataclasses.replace(a, map_of=maps)
    e = a.index.anchors[0]
    zero = Subspace.zero(a.carrier.dim, a.carrier.p)
    ideals = a.ideal_of[:e] + (zero,) + a.ideal_of[e + 1 :]
    maps = a.map_of[:e] + (LinMap(zero, zero, ()),) + a.map_of[e + 1 :]
    yield dataclasses.replace(a, ideal_of=ideals, map_of=maps)


def _with(a, **changes):
    """A copy of a with the (ideal, map) at each named grade replaced;
    None keeps the old one."""
    idx = {nm: i for i, nm in enumerate(a.index.names)}
    ideals, maps = list(a.ideal_of), list(a.map_of)
    for nm, (ideal, m) in changes.items():
        if ideal is not None:
            ideals[idx[nm]] = ideal
        if m is not None:
            maps[idx[nm]] = m
    return dataclasses.replace(a, ideal_of=tuple(ideals), map_of=tuple(maps))


def _composite_law_cases():
    beta = fx.pointed_arrow_global_action()
    span12 = Subspace.span(3, [[1, 0, 0], [0, 1, 0]], 5)
    span2 = Subspace.span(3, [[0, 1, 0]], 5)
    b = fx.brandt_action()
    plane12 = b.ideal_of[b.index.names.index("f1")]
    differ = [f"composite and product map differ at ({g},{h})" for g, h in (
        ("s", "d_s"), ("s", "d_s"), ("s_inv", "s"), ("s_inv", "s"),
        ("d_s", "s_inv"), ("d_s", "s_inv"), ("d_s", "d_s"), ("d_s", "d_s"),
    )]
    return [
        # the map at d_s swaps its two blocks
        (_with(beta, d_s=(None, LinMap.from_images(span12, span12, [[0, 1, 0], [1, 0, 0]]))),
         "P3", differ),
        # the ideal at d_s shrunk below the one at s_inv
        (_with(beta, d_s=(span2, LinMap.identity(span2))),
         "P3", ["product map at (s_inv,s) undefined on the overlap"]),
        # the map at f1 swaps its two blocks
        (_with(b, f1=(None, LinMap.from_images(plane12, plane12, [[0, 1, 0], [1, 0, 0]]))),
         "P3'", [
             "composite and product map differ at (a,a_inv)",
             "composite at (a_inv,f1) leaves the domain",
             "composite and product map differ at (f1,a)",
             "composite and product map differ at (f1,f1)",
             "composite and product map differ at (f1,f1)",
         ]),
    ]


@pytest.mark.parametrize(
    "a, clause, messages", _composite_law_cases(), ids=["p3-differ", "p3-undefined", "p3-prime"]
)
def test_composite_law_issues_name_the_failing_step(a, clause, messages):
    """P3 and P3' share one check of alpha_s alpha_t = alpha_st on the
    overlap; each failing basis vector gives one message naming the step
    that fails, in pair order."""
    assert [i.message for i in a.validate().issues if i.clause == clause] == messages


def test_the_kept_report_equals_a_fresh_validation():
    rng = random.Random(11)
    valid = [make() for make in FIXTURE_ACTIONS]
    for _ in range(6):
        beta, coords = random_global_action(rng)
        valid += [
            beta,
            standard_restriction(beta, random_ideal(rng, beta)),
            general_restriction(beta, random_monotone_family(rng, beta, coords)),
        ]
    failing = {True: 0, False: 0}
    for a in valid + [b for a in valid for b in _broken_variants(a)]:
        kept = a.validate()
        assert a.validate() is kept
        on_groupoid = isinstance(a.structure, OrderedGroupoid)
        check = validate_po_action if on_groupoid else validate_inv_sgp_action
        fresh = check(dataclasses.replace(a))
        assert fresh is not kept
        assert kept.clauses() == fresh.clauses() and kept.issues == fresh.issues, a.name
        failing[on_groupoid] += not kept.ok
    assert failing[True] >= 30 and failing[False] >= 4


def test_actions_are_frozen():
    a = fx.pointed_arrow_partial_action()
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.ideal_of = a.ideal_of


def test_a_corpus_pass_validates_each_action_once(tmp_path, monkeypatch):
    import ogaction.actions as actions_module

    seen = []
    for original in (actions_module.validate_po_action, actions_module.validate_inv_sgp_action):

        def counting(a, _original=original):
            seen.append(a)
            return _original(a)

        # rebind every module-level copy, as `from .actions import ...` made them
        for name, module in list(sys.modules.items()):
            if name == "ogaction" or name.startswith("ogaction."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    for path in emit_fixture_corpus(tmp_path):
        reports = run_tasks(load_workspace(path))
        assert all(r.status == "pass" for r in reports), path.name
    assert seen
    repeats = [a.name for i, a in enumerate(seen) if any(a is b for b in seen[:i])]
    assert repeats == []


def test_unreduced_map_entries_are_stored_as_residues():
    """A map written with 6 for 1 over F_5 is the same map: P1 and INV
    compare maps by equality, and the action still validates."""
    alpha = fx.pointed_arrow_partial_action()
    e = idx(alpha.structure)["e_min"]
    m = alpha.map_of[e]
    shifted = LinMap(m.domain, m.codomain, tuple(tuple(x + 5 for x in row) for row in m.matrix))
    assert shifted.matrix == m.matrix and shifted == m
    maps = tuple(shifted if g == e else alpha.map_of[g] for g in alpha.index.grades)
    assert validate_po_action(dataclasses.replace(alpha, map_of=maps)).ok


def test_a_map_on_the_wrong_ideals_fails_iso_by_its_endpoints():
    alpha = fx.pointed_arrow_partial_action()
    s = idx(alpha.structure)["s"]
    maps = list(alpha.map_of)
    maps[s] = LinMap.identity(alpha.carrier.space())
    rep = validate_po_action(dataclasses.replace(alpha, map_of=tuple(maps)))
    assert "[ISO] map at s has wrong endpoints" in [str(issue) for issue in rep.issues]


def _pointed_arrow_run(tmp_path, tasks: list[dict]):
    doc = CORPUS["pointed_arrow.json"]()
    doc["tasks"] = tasks
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    return run_tasks(load_workspace(path))


def test_restrict_task_along_a_family_reports_the_general_restriction(tmp_path):
    """block_swap restricted along its own object ideals: the task reports
    the dims `general_restriction` gives on the same family."""
    beta = fx.pointed_arrow_global_action()
    g0 = beta.structure
    family = {g0.names[e]: [list(v) for v in beta.ideal_of[e].basis] for e in g0.objects}
    (rep,) = _pointed_arrow_run(
        tmp_path, [{"task": "restrict", "action": "block_swap", "family": family}]
    )
    assert rep.status == "pass", rep.summary()
    out = general_restriction(beta, {e: beta.ideal_of[e] for e in g0.objects})
    assert rep.data["dims"] == {g0.names[g]: out.ideal_of[g].rank for g in g0.arrows()}
    assert rep.data["carrier_dim"] == out.carrier.dim


def test_equivalence_task_reports_a_disproof(tmp_path):
    (rep,) = _pointed_arrow_run(
        tmp_path,
        [{"task": "equivalence", "left": "block_swap", "right": "restricted_swap",
          "expect": "disproved"}],
    )
    assert rep.status == "pass", rep.summary()
    assert rep.data == {
        "outcome": "disproved",
        "tested": 0,
        "disproof": "ideal at s has dimension 2 on one side, 1 on the other",
    }
