import pytest

from ogaction import fixtures as fx
from ogaction.actions import (
    is_unital,
    relabel_action,
    standard_restriction,
    validate_po_action,
)
from ogaction.algebras import diagonal_algebra
from ogaction.errors import NotAssociative, NotPreunital, NotUnital
from ogaction.globalize import (
    as_globalization,
    build_globalization,
    build_minimal_globalization,
    globalize_inverse_semigroup_action,
)
from ogaction.groupoids import OrderedGroupoid
from ogaction.linalg import LinMap
from ogaction.skew import (
    build_inv_sgp_skew,
    build_ordered_skew,
    build_skew,
    check_skew_associative,
    inv_sgp_morita,
    morita_context,
    skew_unit,
)

from oracles import naive_ideal_closure, naive_rank
from test_globalization import inclusion_globalization


def idx(names):
    return {nm: i for i, nm in enumerate(names)}


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
    action = fx.zero_ring_swap_action()
    assert validate_po_action(action).ok
    assert not is_unital(action)
    sk = build_skew(action)
    rep = check_skew_associative(sk)
    assert not rep.ok
    with pytest.raises(NotAssociative):
        build_ordered_skew(sk)


def test_trivially_ordered_actions_have_zero_identification_ideal():
    o = build_ordered_skew(build_skew(fx.nilpotent_edge_po_action()))
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
    o = build_ordered_skew(build_skew(fx.pointed_arrow_partial_action()))
    unit = skew_unit(o)
    assert unit == (1,)


def test_skew_unit_of_a_preunital_non_unital_action():
    o = build_ordered_skew(build_skew(fx.nilpotent_edge_po_action()))
    unit = skew_unit(o)
    q = o.quotient
    for i in range(q.dim):
        b = q.basis_vector(i)
        assert q.mul(unit, b) == b and q.mul(b, unit) == b


def test_skew_unit_requires_preunital_anchors():
    o = build_ordered_skew(build_skew(fx.zero_product_point()))
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
        assert rep.objects_finite


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
    nil = fx.nilpotent_edge_po_action()
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
    from ogaction.errors import NotAGlobalization
    from ogaction.globalize import Globalization

    bad_embeddings = {
        e: LinMap(m.domain, m.codomain, tuple(tuple((2 * x) % 5 for x in row) for row in m.matrix))
        for e, m in gl.embeddings.items()
    }
    broken = Globalization(alpha, gl.global_action, bad_embeddings, minimal=True)
    with pytest.raises(NotAGlobalization):
        morita_context(alpha, broken)


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


def test_inv_skew_requires_unital():
    with pytest.raises(NotUnital):
        build_inv_sgp_skew(fx.nilpotent_edge_action())
