import json
from dataclasses import replace

import pytest

from ogaction import fixtures as fx
from ogaction import globalize, skew
from ogaction.actions import (
    Action,
    is_unital,
    relabel_action,
    standard_restriction,
    validate_po_action,
)
from ogaction.algebras import Algebra, diagonal_algebra
from ogaction.corpus import CORPUS
from ogaction.errors import (
    InvalidAction,
    NotAGlobalization,
    NotAssociative,
    NotPreunital,
    NotUnital,
)
from ogaction.globalize import (
    as_globalization,
    build_globalization,
    build_minimal_globalization,
    globalize_inverse_semigroup_action,
    semigroup_checklist,
    verify_globalization,
)
from ogaction.groupoids import OrderedGroupoid
from ogaction.linalg import LinMap, Subspace
from ogaction.skew import (
    build_inv_sgp_skew,
    build_ordered_skew,
    build_skew,
    check_skew_associative,
    inv_sgp_morita,
    morita_context,
    skew_unit,
)

from ogaction.tasks import run_task
from ogaction.validation import ValidationReport
from ogaction.workspace import load_workspace

import extra_fixtures as xf
from oracles import naive_ideal_closure, naive_rank
from test_globalization import inclusion_globalization


def idx(names):
    return {nm: i for i, nm in enumerate(names)}


def _passed_as_valid(a, ideal_of=None, map_of=None):
    """A copy of a with some ideals or maps replaced and a passing report
    put in place, so that build_skew meets data validation would refuse."""
    b = Action(a.structure, a.carrier, ideal_of or a.ideal_of, map_of or a.map_of, name="forged")
    object.__setattr__(b, "_report", ValidationReport("forged", ()))
    return b


def test_build_skew_names_the_step_a_twisted_product_fails():
    a = fx.pointed_arrow_partial_action()
    i = idx(a.structure.names)
    zero = Subspace.zero(a.carrier.dim, a.carrier.p)
    maps = list(a.map_of)
    maps[i["s"]] = LinMap(zero, maps[i["s"]].codomain, ())
    with pytest.raises(InvalidAction, match=r"^twisted product at \(s,s_inv\) leaves its domain$"):
        build_skew(_passed_as_valid(a, map_of=maps))
    ideals = list(a.ideal_of)
    ideals[i["r_s"]] = zero
    with pytest.raises(InvalidAction, match=r"^twisted product at \(s,s_inv\) escapes grade r_s$"):
        build_skew(_passed_as_valid(a, ideal_of=ideals))


def test_skew_dimension_is_the_sum_of_ideal_dimensions():
    sk = build_skew(fx.pointed_arrow_partial_action())
    assert sk.algebra.dim == 6  # 1+1+2+1+1
    sk2 = build_skew(fx.brandt_action())
    assert sk2.algebra.dim == 5  # the zero grade contributes nothing
    assert 4 not in set(sk2.grading)  # no basis vector graded at the zero


def test_trivial_global_group_action_gives_the_group_algebra():
    g = OrderedGroupoid.from_parts(
        ["r0", "r1", "r2"],
        ["r0"],
        {"r0": "r0", "r1": "r2", "r2": "r1"},
        [
            ("r0", "r0", "r0"),
            ("r0", "r1", "r1"),
            ("r1", "r0", "r1"),
            ("r0", "r2", "r2"),
            ("r2", "r0", "r2"),
            ("r1", "r1", "r2"),
            ("r2", "r2", "r1"),
            ("r1", "r2", "r0"),
            ("r2", "r1", "r0"),
        ],
        [],
    )
    carrier = diagonal_algebra(5, 1)
    full = carrier.space()
    from ogaction.actions import POAction

    action = POAction(
        g,
        carrier,
        (full, full, full),
        tuple(LinMap.identity(full) for _ in range(3)),
    )
    sk = build_skew(action)
    assert sk.algebra.dim == 3
    # delta_g * delta_h = delta_{gh}
    for a in range(3):
        for b in range(3):
            expect = [0, 0, 0]
            expect[g.comp[(a, b)]] = 1
            assert sk.algebra.mul(
                sk.algebra.basis_vector(a), sk.algebra.basis_vector(b)
            ) == tuple(expect)


def test_grading_is_respected():
    sk = build_skew(fx.pointed_arrow_partial_action())
    alg = sk.algebra
    g0 = fx.pointed_arrow_groupoid()
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = alg.mul(alg.basis_vector(i), alg.basis_vector(j))
            gi, gj = sk.grading[i], sk.grading[j]
            if not g0.composable(gi, gj):
                assert prod == alg.zero()
                continue
            target = g0.comp[(gi, gj)]
            for k, c in enumerate(prod):
                if c:
                    assert sk.grading[k] == target


def test_unital_fixtures_have_associative_skew_rings():
    actions = [
        fx.pointed_arrow_partial_action(),
        fx.pointed_arrow_global_action(),
        fx.stacked_involutions_action(),
    ]
    for action in actions:
        assert is_unital(action)
        assert check_skew_associative(build_skew(action)).ok, action.name


def test_nonassociative_regression_fixture():
    action = xf.zero_ring_swap_action()
    assert validate_po_action(action).ok
    assert not is_unital(action)
    sk = build_skew(action)
    rep = check_skew_associative(sk)
    assert not rep.ok
    with pytest.raises(NotAssociative):
        build_ordered_skew(sk)


def test_the_skew_ring_keeps_its_associator_report(monkeypatch):
    """The ordered quotient reads the report the skew task computed; the
    kept report does not enter ring equality."""
    calls = []
    real = skew._associator_failures

    def counted(alg, limit=32):
        calls.append(alg)
        return real(alg, limit)

    monkeypatch.setattr(skew, "_associator_failures", counted)
    a = fx.pointed_arrow_partial_action()
    s = build_skew(a)
    rep = check_skew_associative(s)
    build_ordered_skew(s)
    assert check_skew_associative(s) is rep
    assert calls == [s.algebra]
    assert s == build_skew(a)


def test_trivially_ordered_actions_have_zero_identification_ideal():
    o = build_ordered_skew(build_skew(xf.nilpotent_edge_po_action()))
    assert o.n_ideal.rank == 0
    assert o.quotient.dim == o.skew.algebra.dim


def test_ordered_quotient_dimensions_against_the_fixpoint_oracle():
    for action, skew_dim, n_dim in [
        (fx.pointed_arrow_partial_action(), 6, 5),
        (fx.stacked_involutions_action(), 14, 14),
    ]:
        sk = build_skew(action)
        o = build_ordered_skew(sk)
        assert sk.algebra.dim == skew_dim
        assert o.n_ideal.rank == n_dim
        assert o.quotient.dim == skew_dim - n_dim
        view = action.index
        gens = []
        for g in view.grades:
            for h in view.grades:
                if g != h and view.le(g, h):
                    for v in action.ideal_of[g].basis:
                        lifted_g = sk.lift(g, v)
                        lifted_h = sk.lift(h, v)
                        gens.append(
                            tuple(
                                (x - y) % sk.algebra.p
                                for x, y in zip(lifted_g, lifted_h)
                            )
                        )
        basis_vectors = [sk.algebra.basis_vector(i) for i in range(sk.algebra.dim)]
        oracle = naive_ideal_closure(
            sk.algebra.mul, sk.algebra.dim, sk.algebra.p, gens, basis_vectors
        )
        assert naive_rank(oracle, sk.algebra.p) == n_dim


def test_quotient_dimension_is_stable_under_relabeling():
    alpha = fx.pointed_arrow_partial_action()
    base = build_ordered_skew(build_skew(alpha))
    for perm in [[1, 0, 3, 2, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]]:
        moved = relabel_action(alpha, perm)
        other = build_ordered_skew(build_skew(moved))
        assert other.skew.algebra.dim == base.skew.algebra.dim
        assert other.n_ideal.rank == base.n_ideal.rank
        assert other.quotient.dim == base.quotient.dim


def test_skew_unit_of_the_restricted_swap():
    """`skew_unit` computes the unit on request; neither ring carries one."""
    o = build_ordered_skew(build_skew(fx.pointed_arrow_partial_action()))
    unit = skew_unit(o)
    assert unit == (1,)
    assert o.skew.algebra.unit is None and o.quotient.unit is None


def test_skew_unit_of_a_preunital_non_unital_action():
    o = build_ordered_skew(build_skew(xf.nilpotent_edge_po_action()))
    unit = skew_unit(o)
    q = o.quotient
    for i in range(q.dim):
        b = q.basis_vector(i)
        assert q.mul(unit, b) == b and q.mul(b, unit) == b


def test_skew_unit_is_checked_on_both_sides():
    """The image of the anchor units, here b_0 of a dim-3 quotient, must be
    an identity on both sides: in a quotient replaced by a ring where b_0 is
    a unit on one side only, or on neither, `skew_unit` raises."""
    o = build_ordered_skew(build_skew(xf.nilpotent_edge_po_action()))
    assert skew_unit(o) == (1, 0, 0)
    zero = Algebra.from_products(o.quotient.p, 3, ({}, {}, {}))
    one_sided = [xf.first_row_algebra(o.quotient.p, 3, opposite) for opposite in (False, True)]
    for bent in (*one_sided, zero):
        with pytest.raises(InvalidAction, match="^anchor unit image is not an identity of the quotient$"):
            skew_unit(replace(o, quotient=bent))


def test_skew_unit_requires_preunital_anchors():
    o = build_ordered_skew(build_skew(xf.zero_product_point()))
    with pytest.raises(NotPreunital):
        skew_unit(o)


def test_morita_context_for_both_built_globalizations():
    alpha = fx.pointed_arrow_partial_action()
    expectations = {
        False: {"T": 8, "R": 1, "corner": 5, "T1R": 6, "1RT": 6, "copy_faithful": 0},
        True: {"T": 4, "R": 1, "corner": 1, "T1R": 2, "1RT": 2, "copy_faithful": 1},
    }
    for minimal, expect in expectations.items():
        gl = (
            build_minimal_globalization(alpha)
            if minimal
            else build_globalization(alpha)
        )
        rep = morita_context(alpha, gl)
        assert rep.ok, rep.clauses
        for key, value in expect.items():
            assert rep.dims[key] == value, (minimal, key, rep.dims)
        assert rep.dims["one_r_idempotent"] == 1


def test_morita_context_with_inclusion_embeddings_is_faithful():
    alpha, gl = inclusion_globalization()
    rep = morita_context(alpha, gl)
    assert rep.ok
    assert rep.dims["copy_faithful"] == 1
    assert rep.dims["R"] == rep.dims["corner"] == 1


def test_morita_context_of_a_global_action_with_itself():
    beta = fx.pointed_arrow_global_action()
    gl = as_globalization(
        beta,
        beta,
        {e: LinMap.identity(beta.ideal_of[e]) for e in beta.structure.objects},
    )
    rep = morita_context(beta, gl)
    assert rep.ok
    assert rep.dims["corner"] == rep.dims["T"]
    assert rep.dims["T1R"] == rep.dims["T"]
    assert rep.dims["copy_faithful"] == 1


def test_morita_requires_a_unital_base():
    nil = xf.nilpotent_edge_po_action()
    gl = as_globalization(
        nil,
        nil,
        {0: LinMap.identity(nil.ideal_of[0])},
    )
    with pytest.raises(NotUnital):
        morita_context(nil, gl)


def test_morita_rejects_a_broken_globalization():
    alpha = fx.pointed_arrow_partial_action()
    gl = build_minimal_globalization(alpha)
    from ogaction.globalize import Globalization

    bad_embeddings = {
        e: LinMap(m.domain, m.codomain, tuple(tuple((2 * x) % 5 for x in row) for row in m.matrix))
        for e, m in gl.embeddings.items()
    }
    broken = Globalization(alpha, gl.global_action, bad_embeddings, minimal=True)
    with pytest.raises(NotAGlobalization):
        morita_context(alpha, broken)


def test_both_morita_entry_points_refuse_a_globalization_of_another_action():
    """A globalization is refused by an action it was not built from: one
    over another groupoid, and the pipeline's own global action, which
    lives over the same semigroup as the base."""
    gl = build_globalization(fx.pointed_arrow_partial_action())
    result = globalize_inverse_semigroup_action(fx.brandt_action())
    for entry in (morita_context, inv_sgp_morita):
        with pytest.raises(NotAGlobalization, match="does not belong to this action"):
            entry(fx.stacked_involutions_action(), gl)
        with pytest.raises(NotAGlobalization, match="does not belong to this action"):
            entry(result.global_action, result)


def test_a_morita_task_runs_the_globalization_checklist_once(monkeypatch, tmp_path):
    """`morita_context` reads the checklist that the build ran on its
    globalization instead of running it again."""
    calls = []
    real = globalize.verify_globalization

    def counted(gl):
        calls.append(gl)
        return real(gl)

    monkeypatch.setattr(globalize, "verify_globalization", counted)
    monkeypatch.setattr(skew, "verify_globalization", counted)
    path = tmp_path / "pointed_arrow.json"
    path.write_text(json.dumps(CORPUS["pointed_arrow.json"]()))
    ws = load_workspace(path)
    [task] = [t for t in ws.tasks if t.get("id") == "morita"]
    assert run_task(ws, task).status == "pass"
    assert len(calls) == 1


def test_semilattice_skew_collapses_comparable_grades():
    o = build_inv_sgp_skew(fx.chain_semilattice_action())
    assert o.skew.algebra.dim == 4
    assert o.n_ideal.rank == 2
    assert o.quotient.dim == 2


def test_one_element_semigroup_skew_is_the_carrier():
    from ogaction.actions import InvSgpAction
    from ogaction.semigroups import InverseSemigroup

    s = InverseSemigroup(["e"], [[0]])
    carrier = diagonal_algebra(5, 2)
    action = InvSgpAction(
        s, carrier, (carrier.space(),), (LinMap.identity(carrier.space()),)
    )
    o = build_inv_sgp_skew(action)
    assert o.quotient.dim == 2
    assert o.quotient.table == carrier.table


def test_brandt_skew_and_pipeline_morita():
    b = fx.brandt_action()
    o = build_inv_sgp_skew(b)
    assert o.skew.algebra.dim == 5
    assert o.n_ideal.rank == 0
    result = globalize_inverse_semigroup_action(b)
    rep = inv_sgp_morita(b, result)
    assert rep.ok
    assert rep.dims["R"] == 5
    assert rep.dims["copy_faithful"] == 1


@pytest.mark.parametrize("make", [fx.brandt_action, fx.chain_semilattice_action])
def test_checklist_and_morita_read_the_semigroup_globalization(make):
    """The checklist walks the base action's index, so it reads the
    semigroup pipeline's result as it reads a groupoid one, and the
    checked Morita entry point agrees with the pipeline's."""
    a = make()
    result = globalize_inverse_semigroup_action(a)
    assert semigroup_checklist(verify_globalization(result)) == result.checklist
    checked, pipeline = morita_context(a, result), inv_sgp_morita(a, result)
    assert checked.clauses == pipeline.clauses
    assert checked.dims == pipeline.dims


def test_inv_skew_requires_unital():
    with pytest.raises(NotUnital):
        build_inv_sgp_skew(fx.nilpotent_edge_action())
