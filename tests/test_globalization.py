import inspect
import random

import pytest

from ogaction import fixtures as fx
from ogaction.actions import (
    Action,
    POAction,
    groupoid_action_to_semigroup_action,
    is_global,
    is_preunital,
    is_strong,
    is_unital,
    relabel_action,
    satisfies_ps,
    search_equivalence,
    semigroup_action_to_groupoid_action,
    standard_restriction,
    validate_po_action,
)
from ogaction.algebras import diagonal_algebra, local_units_witness
from ogaction.errors import (
    AmbientMismatch,
    NotPreunital,
    NotPseudoassociative,
    NotStrong,
    NotUnital,
    WorkbenchError,
)
from ogaction.globalize import (
    Globalization,
    as_globalization,
    build_globalization,
    build_minimal_globalization,
    globalize_inverse_semigroup_action,
    semigroup_checklist,
    verify_globalization,
)
from ogaction.groupoids import OrderedGroupoid
from ogaction.linalg import LinMap, Subspace
from ogaction.semigroups import InverseSemigroup

import extra_fixtures as xf
from oracles import (
    dense_globalization,
    globalization_scaffolding,
    glob_restr_report,
    verify_semigroup_globalization,
)


def idx(g):
    return {nm: i for i, nm in enumerate(g.names)}


def inclusion_globalization():
    """The original block swap as a globalization of its restriction."""
    beta = fx.pointed_arrow_global_action()
    ideal = xf.pointed_arrow_restriction_ideal()
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
    nil = xf.nilpotent_edge_po_action()
    with pytest.raises(NotUnital) as info:
        build_globalization(nil)
    assert info.value.arrow is not None


def unmet_pair_action():
    """The trivial action on F_5 of the objects-only groupoid on the poset
    e0, e1 < e2, e3: e2 and e3 have two maximal lower bounds and no meet."""
    names = ["e0", "e1", "e2", "e3"]
    order = [(low, high) for low in names[:2] for high in names[2:]]
    objects_only = [(e, e, e) for e in names]
    g = OrderedGroupoid.from_parts(names, names, {e: e for e in names}, objects_only, order)
    line = diagonal_algebra(5, 1, name="line")
    full = line.space()
    return Action(g, line, (full,) * 4, (LinMap.identity(full),) * 4, name="unmet pair")


def test_minimal_globalization_refuses_a_groupoid_that_is_not_pseudoassociative():
    """Valid, strong and with the composition law, so only the groupoid
    stops the minimal construction; the full one does not need it."""
    a = unmet_pair_action()
    assert a.validate().ok and is_strong(a) and satisfies_ps(a)
    assert not a.structure.is_pseudoassociative()
    with pytest.raises(NotPseudoassociative, match="needs a pseudoassociative groupoid"):
        build_minimal_globalization(a)
    assert verify_globalization(build_globalization(a)).ok


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


def test_an_embedding_on_the_wrong_domain_stops_the_checklist():
    """The `verify-globalization` task builds each embedding on its object
    ideal, so a wrong domain is supplied here directly."""
    alpha, gl = inclusion_globalization()
    b = gl.global_action
    e = idx(b.structure)["e_min"]
    emb = dict(gl.embeddings)
    emb[e] = LinMap(Subspace.zero(alpha.carrier.dim, alpha.carrier.p), b.ideal_of[e], ())
    rep = verify_globalization(as_globalization(alpha, b, emb))
    assert [str(issue) for issue in rep.issues] == [
        "[GLOB(mono)] embedding at e_min missing or with wrong domain"
    ]


def test_an_embedding_escaping_its_object_ideal_fails_mono_and_clause_i():
    """An image outside the object ideal is named by GLOB(mono), and the
    absorption test of GLOB(i) reports it as not contained."""
    alpha, gl = inclusion_globalization()
    b = gl.global_action
    e = idx(b.structure)["e_min"]
    emb = dict(gl.embeddings)
    m = gl.embeddings[e]
    emb[e] = LinMap.from_images(m.domain, b.carrier.space(), [[1, 0, 0]] * m.domain.rank)
    rep = verify_globalization(as_globalization(alpha, b, emb))
    issues = [str(issue) for issue in rep.issues]
    assert issues[:2] == [
        "[GLOB(mono)] embedding at e_min escapes the object ideal",
        "[GLOB(i)] embedded ideal at e_min is not inside its object ideal",
    ]
    assert rep.clause_ok("GLOB(valid)") and rep.clause_ok("GLOB(global)")


def test_translation_maps_compose_and_restrict():
    alpha = fx.pointed_arrow_partial_action()
    g0 = alpha.structure
    for minimal in (False, True):
        gl = (
            build_minimal_globalization(alpha)
            if minimal
            else build_globalization(alpha)
        )
        gamma = {g: m.as_linmap() for g, m in gl.gamma.items()}
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
                big = gl.global_action.inclusion.apply(m.apply(v))
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


@pytest.mark.parametrize("build", [build_globalization, build_minimal_globalization])
def test_constructions_close_one_piece_per_object(monkeypatch, build):
    """A piece depends only on its arrow's range object, so each
    construction generates one subring per object, not one per arrow."""
    import ogaction.globalize as globalize

    calls = []
    closure = globalize.subring_closure

    def counted(alg, parts):
        calls.append(alg.dim)
        return closure(alg, parts)

    monkeypatch.setattr(globalize, "subring_closure", counted)
    alpha = fx.pointed_arrow_partial_action()
    build(alpha)
    assert len(calls) == len(alpha.structure.objects) == 3


def test_semigroup_pipeline_on_brandt_fixture():
    b = fx.brandt_action()
    result = globalize_inverse_semigroup_action(b)
    assert result.checklist.ok
    assert result.minimal
    i = {nm: k for k, nm in enumerate(b.structure.names)}
    dims = [result.global_action.ideal_of[i[nm]].rank for nm in b.structure.names]
    assert dims == [2, 2, 2, 2, 0]


def test_semigroup_pipeline_on_semilattice_is_stationary():
    triv = fx.chain_semilattice_action()
    result = globalize_inverse_semigroup_action(triv)
    assert result.checklist.ok
    assert result.global_action.carrier.dim == triv.carrier.dim


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


def _issues(rep, clause):
    return [i.message for i in rep.issues if i.clause == clause]


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
        inner = build_minimal_globalization(semigroup_action_to_groupoid_action(a))
        assert result.checklist.clauses() == verify_semigroup_globalization(
            a, result.global_action, result.embeddings
        ).clauses()
        for emb in _perturbed_embeddings(inner, rng):
            perturbed = as_globalization(inner.base, inner.global_action, emb, minimal=True)
            merged = semigroup_checklist(verify_globalization(perturbed))
            oracle = verify_semigroup_globalization(a, result.global_action, emb)
            assert merged.clauses() == oracle.clauses()
            # GLOB(iii) keeps the retained loop's messages, in its order
            assert _issues(merged, "SGLOB(iii)") == _issues(oracle, "SGLOB(iii)")
            failing_sglob += not oracle.ok
    assert failing_restr > 0 and failing_sglob > 0


def _maps(family):
    return {k: (m.domain, m.codomain, m.matrix) for k, m in family.items()}


def _groupoid_actions():
    """Every fixture action over a groupoid, each semigroup fixture action
    over its derived groupoid, and restrictions of seeded random global
    actions to seeded random ideals."""
    from generators import random_global_action, random_ideal

    out = []
    for name in sorted(dir(fx)):
        fn = getattr(fx, name)
        if not inspect.isfunction(fn) or fn.__module__ != fx.__name__ or inspect.signature(fn).parameters:
            continue
        made = fn()
        if isinstance(made, Action):
            if isinstance(made.structure, InverseSemigroup):
                made = semigroup_action_to_groupoid_action(made)
            out.append((f"fx.{name}", made))
    rng = random.Random(31)
    for i in range(8):
        beta, _ = random_global_action(rng, max_dim=4)
        out.append((f"restricted{i}", standard_restriction(beta, random_ideal(rng, beta))))
    return out


def test_block_scaffolding_matches_the_elimination_oracle():
    """gamma, read through each block copy's on-demand `LinMap`, and the
    embeddings, written down from block indices, equal the elimination form
    (domain, codomain and matrix) on both builds of every groupoid action
    above that globalizes."""
    built = set()
    for label, a in _groupoid_actions():
        for build in (build_globalization, build_minimal_globalization):
            try:
                gl = build(a)
            except WorkbenchError:
                continue
            gamma, embeddings = globalization_scaffolding(gl)
            linmaps = {g: m.as_linmap() for g, m in gl.gamma.items()}
            assert _maps(linmaps) == _maps(gamma), (label, build.__name__)
            assert _maps(gl.embeddings) == _maps(embeddings), (label, build.__name__)
            built.add((label, gl.minimal))
    assert len(built) >= 20 and {m for _, m in built} == {False, True}


def _oracle_cases():
    """Every fixture action (a semigroup one also over its derived
    groupoid), seeded random global actions with a standard restriction of
    each, and a rebased copy of each of those, whose ideals are in general
    not coordinate subspaces."""
    from generators import fixture_builders, random_global_action, random_ideal, random_invertible, rebased_action

    cases = []
    for label, fn in fixture_builders():
        made = fn()
        if isinstance(made, Action):
            cases.append((label, made))
            if isinstance(made.structure, InverseSemigroup):
                cases.append((f"{label}@groupoid", semigroup_action_to_groupoid_action(made)))
    rng = random.Random(34)
    for i in range(6):
        beta, _ = random_global_action(rng, max_dim=4)
        cases += [(f"global{i}", beta), (f"global{i}|ideal", standard_restriction(beta, random_ideal(rng, beta)))]
    return cases + [
        (f"{label}~rebased", rebased_action(a, random_invertible(rng, a.carrier.dim, a.carrier.p)))
        for label, a in list(cases)
    ]


def _outcome(build, *args):
    try:
        return build(*args)
    except WorkbenchError as exc:
        return type(exc), str(exc)


def _same_build(gl, oracle):
    b, o = gl.global_action, oracle.global_action
    assert b.carrier.products == o.carrier.products
    assert (b.ideal_of, b.map_of, b.inclusion) == (o.ideal_of, o.map_of, o.inclusion)
    assert gl.embeddings == oracle.embeddings
    assert gl.checklist.issues == oracle.checklist.issues


def test_each_build_equals_the_dense_oracle_build():
    """Both constructions and the semigroup pipeline give the dense build's
    global action (carrier table, ideals, maps, inclusion), embeddings and
    checklist issues, or raise its error."""
    built = set()
    for label, a in _oracle_cases():
        if isinstance(a.structure, InverseSemigroup):
            result = _outcome(globalize_inverse_semigroup_action, a)
            if not is_preunital(a):
                assert result[0] is NotPreunital, label
                continue
            inner = _outcome(dense_globalization, semigroup_action_to_groupoid_action(a), True)
            if isinstance(inner, tuple):
                assert result == inner, label
                continue
            assert not isinstance(result, tuple), (label, result)
            oracle = Globalization(
                a,
                groupoid_action_to_semigroup_action(inner.global_action, a.structure),
                inner.embeddings,
                minimal=True,
                checklist=semigroup_checklist(inner.checklist),
            )
            _same_build(result, oracle)
            built.add((label, "semigroup"))
            continue
        for minimal, build in ((False, build_globalization), (True, build_minimal_globalization)):
            gl, oracle = _outcome(build, a), _outcome(dense_globalization, a, minimal)
            if isinstance(oracle, tuple):
                assert gl == oracle, (label, minimal)
                continue
            assert not isinstance(gl, tuple), (label, minimal, gl)
            _same_build(gl, oracle)
            built.add((label, minimal))
    kinds = {kind for _, kind in built}
    assert kinds == {False, True, "semigroup"} and len(built) >= 40, sorted(built)
    assert any(label.endswith("~rebased") for label, _ in built)


def test_block_copies_match_their_linmaps():
    """On random vectors and subspaces, a translation's `apply` and image
    equal its on-demand `LinMap`'s `apply` and `image_of(sub ∩ domain)`; a
    vector off the input blocks raises the same ValueError, one of the
    wrong length the same AmbientMismatch."""
    rng = random.Random(10)
    branches = set()
    for label, a in _groupoid_actions():
        for build in (build_globalization, build_minimal_globalization):
            try:
                gl = build(a)
            except WorkbenchError:
                continue
            for g, copy in gl.gamma.items():
                m = copy.as_linmap()
                dim, p, dom = copy.dim, copy.p, m.domain

                def inside():
                    return dom.from_coordinates([rng.randrange(p) for _ in range(dom.rank)])

                def anywhere():
                    return tuple(rng.randrange(p) for _ in range(dim))

                for _ in range(4):
                    v = inside()
                    assert copy.apply(v) == m.apply(v), (label, g)
                    lifted = tuple(x + p * rng.randrange(-2, 3) for x in v)
                    assert copy.apply(lifted) == m.apply(lifted), (label, g)
                    w = anywhere()
                    if dom.contains(w):
                        assert copy.apply(w) == m.apply(w)
                    else:
                        with pytest.raises(ValueError) as ours:
                            copy.apply(w)
                        with pytest.raises(ValueError) as theirs:
                            m.apply(w)
                        assert str(ours.value) == str(theirs.value)
                    rows = [rng.choice((inside, anywhere))() for _ in range(rng.randrange(4))]
                    sub = Subspace.span(dim, rows, p)
                    branches.add(dom.contains_subspace(sub))
                    assert copy.image_of(sub) == m.image_of(sub.intersect(dom)), (label, g)
                with pytest.raises(AmbientMismatch):
                    copy.apply((0,) * (dim + 1))
                with pytest.raises(AmbientMismatch):
                    m.apply((0,) * (dim + 1))
    assert branches == {False, True}
