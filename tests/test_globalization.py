import random

import pytest

from ogaction import fixtures as fx
from ogaction.actions import (
    POAction,
    is_global,
    is_strong,
    is_unital,
    relabel_action,
    satisfies_ps,
    search_equivalence,
    standard_restriction,
    validate_po_action,
)
from ogaction.algebras import local_units_witness
from ogaction.errors import NotPreunital, NotStrong, NotUnital
from ogaction.globalize import (
    Globalization,
    as_globalization,
    build_globalization,
    build_minimal_globalization,
    globalize_inverse_semigroup_action,
    semigroup_checklist,
    verify_globalization,
)
from ogaction.linalg import LinMap, Subspace

from oracles import glob_restr_report, verify_semigroup_globalization


def idx(g):
    return {nm: i for i, nm in enumerate(g.names)}


def inclusion_globalization():
    """The original block swap as a globalization of its restriction."""
    beta = fx.pointed_arrow_global_action()
    ideal = fx.pointed_arrow_restriction_ideal()
    alpha = standard_restriction(beta, ideal)
    emb = {}
    for e in sorted(beta.structure.objects):
        dom = alpha.ideal_of[e]
        images = [ideal.from_coordinates(v) for v in dom.basis]
        emb[e] = LinMap.from_images(dom, beta.ideal_of[e], images)
    return alpha, as_globalization(alpha, beta, emb)


def test_full_construction_reproduces_expected_dimensions():
    alpha = fx.pointed_arrow_partial_action()
    gl = build_globalization(alpha)
    b = gl.global_action
    i = idx(b.structure)
    assert b.carrier.dim == 5
    assert b.ideal_of[i["s"]].rank == 3
    assert b.ideal_of[i["s_inv"]].rank == 3
    assert b.ideal_of[i["e_min"]].rank == 1
    assert verify_globalization(gl).ok
    assert is_global(b)


def test_minimal_construction_reproduces_expected_dimensions():
    alpha = fx.pointed_arrow_partial_action()
    gl = build_minimal_globalization(alpha)
    b = gl.global_action
    i = idx(b.structure)
    assert b.carrier.dim == 3
    assert b.ideal_of[i["s"]].rank == 2
    assert b.ideal_of[i["e_min"]].rank == 1
    rep = verify_globalization(gl)
    assert rep.ok
    assert "GLOB(iv')" in rep.checked
    assert satisfies_ps(b)


def test_minimal_pieces_are_never_larger_than_full_pieces():
    for alpha in [
        fx.pointed_arrow_partial_action(),
        fx.pointed_arrow_global_action(),
    ]:
        assert is_strong(alpha) and is_unital(alpha)
        full = build_globalization(alpha)
        minimal = build_minimal_globalization(alpha)
        for g in alpha.index.grades:
            assert (
                minimal.global_action.ideal_of[g].rank
                <= full.global_action.ideal_of[g].rank
            )


def test_original_action_is_also_a_globalization_via_inclusions():
    _, gl = inclusion_globalization()
    assert verify_globalization(gl).ok


def test_full_and_original_globalizations_are_not_equivalent():
    alpha = fx.pointed_arrow_partial_action()
    built = build_globalization(alpha).global_action
    original = fx.pointed_arrow_global_action()
    res = search_equivalence(original, built)
    assert res.definitive_no
    assert "dimension 2" in res.disproof and "3" in res.disproof


def test_minimal_globalization_is_equivalent_to_the_original():
    alpha = fx.pointed_arrow_partial_action()
    built = build_minimal_globalization(alpha).global_action
    original = fx.pointed_arrow_global_action()
    res = search_equivalence(original, built)
    assert res.found


def test_stacked_action_globalizes_but_not_minimally():
    stacked = fx.stacked_involutions_action()
    gl = build_globalization(stacked)
    assert verify_globalization(gl).ok
    with pytest.raises(NotStrong):
        build_minimal_globalization(stacked)


def test_globalizing_a_global_action_restricts_back_to_itself():
    beta = fx.pointed_arrow_global_action()
    gl = build_globalization(beta)
    assert verify_globalization(gl).ok
    minimal = build_minimal_globalization(beta)
    res = search_equivalence(beta, minimal.global_action)
    assert res.found


def test_non_unital_action_is_rejected():
    nil = fx.nilpotent_edge_po_action()
    with pytest.raises(NotUnital) as info:
        build_globalization(nil)
    assert info.value.arrow is not None


def test_corrupting_the_global_map_fails_the_intertwining_clause():
    alpha = fx.pointed_arrow_partial_action()
    gl = build_minimal_globalization(alpha)
    b = gl.global_action
    i = idx(b.structure)
    maps = list(b.map_of)
    twisted = tuple(
        tuple((2 * x) % 5 for x in row) for row in maps[i["s"]].matrix
    )
    maps[i["s"]] = LinMap(maps[i["s"]].domain, maps[i["s"]].codomain, twisted)
    broken = POAction(b.structure, b.carrier, b.ideal_of, tuple(maps))
    rep = verify_globalization(
        Globalization(alpha, broken, gl.embeddings, minimal=True)
    )
    assert not rep.clause_ok("GLOB(iii)")


def test_translation_maps_compose_and_restrict():
    alpha = fx.pointed_arrow_partial_action()
    g0 = alpha.structure
    for minimal in (False, True):
        gl = (
            build_minimal_globalization(alpha)
            if minimal
            else build_globalization(alpha)
        )
        gamma = gl.gamma
        for a in g0.arrows():
            for b in g0.arrows():
                if not g0.composable(a, b):
                    continue
                ab = g0.comp[(a, b)]
                for v in gamma[b].domain.basis:
                    assert gamma[ab].apply(v) == gamma[a].apply(gamma[b].apply(v))
        if not minimal:
            for a in g0.arrows():
                inv = g0.inv[a]
                for v in gamma[a].domain.basis:
                    assert gamma[inv].apply(gamma[a].apply(v)) == v
            for a in g0.arrows():
                for b in g0.arrows():
                    if a != b and g0.le(a, b):
                        for v in gamma[a].domain.basis:
                            assert gamma[b].apply(v) == gamma[a].apply(v)


def test_embeddings_fix_the_home_coordinate():
    # the embedded image of a carrier element, read at its own block of the
    # product ring, is the element itself: this is what makes it injective
    alpha = fx.pointed_arrow_partial_action()
    n = alpha.carrier.dim
    for minimal in (False, True):
        gl = (
            build_minimal_globalization(alpha)
            if minimal
            else build_globalization(alpha)
        )
        for e, m in gl.embeddings.items():
            for v in m.domain.basis:
                big = gl.ambient_inclusion.apply(m.apply(v))
                assert big[e * n : (e + 1) * n] == v


def test_globalized_carrier_has_local_units():
    alpha = fx.pointed_arrow_partial_action()
    gl = build_globalization(alpha)
    b = gl.global_action
    g0 = alpha.structure
    candidates = []
    for h in g0.arrows():
        e = g0.dom[h]
        unit = alpha.unit_vector(e)
        moved = b.map_of[h].apply(gl.embeddings[e].apply(unit))
        candidates.append(moved)
    assert local_units_witness(b.carrier, b.carrier.space(), candidates)


def test_two_relabeled_builds_are_equivalent():
    alpha = fx.pointed_arrow_partial_action()
    perm = [2, 4, 1, 0, 3]
    moved = relabel_action(alpha, perm)
    gl1 = build_minimal_globalization(alpha)
    gl2 = build_minimal_globalization(moved)
    back = relabel_action(gl2.global_action, [perm.index(i) for i in range(5)])
    res = search_equivalence(gl1.global_action, back)
    assert res.found


def test_semigroup_pipeline_on_brandt_fixture():
    b = fx.brandt_action()
    result = globalize_inverse_semigroup_action(b)
    assert result.report.ok
    assert result.inner.minimal
    i = {nm: k for k, nm in enumerate(b.structure.names)}
    dims = [result.action.ideal_of[i[nm]].rank for nm in b.structure.names]
    assert dims == [2, 2, 2, 2, 0]


def test_semigroup_pipeline_on_semilattice_is_stationary():
    triv = fx.chain_semilattice_action()
    result = globalize_inverse_semigroup_action(triv)
    assert result.report.ok
    assert result.action.carrier.dim == triv.carrier.dim


def test_semigroup_pipeline_rejects_preunital_but_not_unital():
    with pytest.raises(NotUnital):
        globalize_inverse_semigroup_action(fx.nilpotent_edge_action())


def test_randomized_restrictions_globalize_and_verify():
    from generators import random_global_action, random_ideal

    rng = random.Random(77)
    done = 0
    while done < 5:
        beta, _ = random_global_action(rng, max_dim=4)
        restricted = standard_restriction(beta, random_ideal(rng, beta))
        if not is_unital(restricted):
            continue
        gl = build_minimal_globalization(restricted)
        assert verify_globalization(gl).ok
        done += 1


def _perturbations(m, rng):
    """The embedding m with its matrix scaled, two rows swapped, a row
    zeroed, or one entry bumped; each changed variant once."""
    p = m.p
    rows = [list(r) for r in m.matrix]
    out = []
    if rows and rows[0]:
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        out.append([[(2 * x) % p for x in r] for r in rows])
        if len(rows) > 1:
            k = (i + 1) % len(rows)
            swapped = [list(r) for r in rows]
            swapped[i], swapped[k] = swapped[k], swapped[i]
            out.append(swapped)
        zeroed = [list(r) for r in rows]
        zeroed[i] = [0] * len(rows[i])
        out.append(zeroed)
        bumped = [list(r) for r in rows]
        bumped[i][j] = (bumped[i][j] + 1) % p
        out.append(bumped)
    return [
        LinMap(m.domain, m.codomain, tuple(map(tuple, q))) for q in out if q != rows
    ]


def _perturbed_embeddings(gl, rng):
    for e, m in sorted(gl.embeddings.items()):
        for bad in _perturbations(m, rng):
            yield {**gl.embeddings, e: bad}


def test_merged_checklist_clauses_match_the_retained_checks():
    """GLOB(restr) read as GLOB(ii) and GLOB(iii), and SGLOB(i)-(iv) read off
    the derived groupoid's checklist, agree with the separate loops they
    replace, on built globalizations and on perturbed embeddings."""
    from generators import random_global_action, random_ideal

    rng = random.Random(2024)
    alpha = fx.pointed_arrow_partial_action()
    globalizations = [
        build_globalization(alpha),
        build_minimal_globalization(alpha),
        inclusion_globalization()[1],
    ]
    while len(globalizations) < 7:
        beta, _ = random_global_action(rng, max_dim=4)
        restricted = standard_restriction(beta, random_ideal(rng, beta))
        if is_unital(restricted):
            globalizations.append(build_minimal_globalization(restricted))
    failing_restr = 0
    for gl in globalizations:
        for emb in [gl.embeddings, *_perturbed_embeddings(gl, rng)]:
            perturbed = as_globalization(gl.base, gl.global_action, emb, minimal=gl.minimal)
            oracle = glob_restr_report(perturbed).clauses()
            assert verify_globalization(perturbed).clauses()["GLOB(restr)"] == oracle["GLOB(restr)"]
            failing_restr += not oracle["GLOB(restr)"]

    failing_sglob = 0
    for a in [fx.brandt_action(), fx.chain_semilattice_action()]:
        result = globalize_inverse_semigroup_action(a)
        inner = result.inner
        assert result.report.clauses() == verify_semigroup_globalization(
            a, result.action, result.embeddings
        ).clauses()
        for emb in _perturbed_embeddings(inner, rng):
            perturbed = as_globalization(inner.base, inner.global_action, emb, minimal=True)
            merged = semigroup_checklist(verify_globalization(perturbed)).clauses()
            oracle = verify_semigroup_globalization(a, result.action, emb).clauses()
            assert merged == oracle
            failing_sglob += not all(oracle.values())
    assert failing_restr > 0 and failing_sglob > 0
