import pytest

from ogaction import fixtures as fx
from ogaction.actions import POAction
from ogaction.errors import NotInductive
from ogaction.groupoids import OrderedGroupoid
from ogaction.linalg import LinMap
from ogaction.semigroups import (
    InverseSemigroup,
    PartialBijections,
    Premorphism,
    esn_to_groupoid,
    esn_to_semigroup,
    natural_order,
    validate_inverse_semigroup,
    verify_premorphism,
)


def idx(s):
    return {nm: i for i, nm in enumerate(s.names)}


def test_semilattice_is_valid():
    assert validate_inverse_semigroup(fx.chain_semilattice()).ok


def test_brandt_is_valid_against_exhaustive_checks():
    s = fx.brandt_b2()
    assert validate_inverse_semigroup(s).ok
    # independent scan: associativity, unique inverses, commuting idempotents
    n, m = s.n, s.mult
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert m[m[a][b]][c] == m[a][m[b][c]]
    for a in range(n):
        partners = [
            t for t in range(n) if m[m[a][t]][a] == a and m[m[t][a]][t] == t
        ]
        assert len(partners) == 1
    idem = [e for e in range(n) if m[e][e] == e]
    for e in idem:
        for f in idem:
            assert m[e][f] == m[f][e]


def test_left_zero_band_is_invalid():
    s = InverseSemigroup(["x", "y"], [[0, 0], [1, 1]])
    rep = validate_inverse_semigroup(s)
    assert not rep.ok
    assert not rep.clause_ok("IDEMPOTENTS")
    assert not rep.clause_ok("INVERSES")


def test_natural_order():
    s = fx.brandt_b2()
    i = idx(s)
    assert natural_order(s, i["z"], i["a"])
    assert not natural_order(s, i["a"], i["a_inv"])
    sl = fx.chain_semilattice()
    j = idx(sl)
    assert natural_order(sl, j["e"], j["one"])
    assert not natural_order(sl, j["one"], j["e"])


def test_esn_semilattice_to_groupoid():
    s = fx.chain_semilattice()
    g = esn_to_groupoid(s)
    assert g.objects == frozenset(range(2))
    j = idx(s)
    assert g.le(j["e"], j["one"])
    assert not g.le(j["one"], j["e"])


def test_esn_brandt_to_groupoid():
    s = fx.brandt_b2()
    g = esn_to_groupoid(s)
    i = idx(s)
    assert g.comp[(i["a"], i["a_inv"])] == i["f1"]
    assert (i["a"], i["a"]) not in g.comp  # domains do not match
    for x in g.arrows():
        assert g.le(i["z"], x)
    assert g.is_inductive()


def test_esn_symmetric_monoid_on_a_point():
    s = fx.symmetric_monoid_i1()
    g = esn_to_groupoid(s)
    assert len(g.objects) == 2
    assert g.le(1, 0) and not g.le(0, 1)


def test_esn_roundtrip_from_semigroups():
    for s in [fx.chain_semilattice(), fx.symmetric_monoid_i1(), fx.brandt_b2()]:
        back = esn_to_semigroup(esn_to_groupoid(s))
        assert back.mult == s.mult
        assert back.names == s.names


def test_esn_roundtrip_from_groupoids():
    for g in [fx.pointed_arrow_groupoid(), fx.stacked_involutions_groupoid()]:
        back = esn_to_groupoid(esn_to_semigroup(g))
        assert back == g


def test_esn_to_semigroup_matches_pseudoproduct_table():
    g = fx.pointed_arrow_groupoid()
    s = esn_to_semigroup(g)
    for a in g.arrows():
        for b in g.arrows():
            assert s.mult[a][b] == g.pseudoproduct(a, b)
    # natural order of the derived semigroup equals the groupoid order
    for a in g.arrows():
        for b in g.arrows():
            assert s.natural_le(a, b) == g.le(a, b)


def test_esn_to_semigroup_needs_meets():
    g = OrderedGroupoid.from_parts(
        ["u", "v"],
        ["u", "v"],
        {"u": "u", "v": "v"},
        [("u", "u", "u"), ("v", "v", "v")],
        [],
    )
    with pytest.raises(NotInductive):
        esn_to_semigroup(g)


def test_one_object_trivial_groupoid_gives_trivial_group():
    g = OrderedGroupoid.from_parts(["e"], ["e"], {"e": "e"}, [("e", "e", "e")], [])
    s = esn_to_semigroup(g)
    assert s.n == 1 and s.mult == ((0,),)


def test_homomorphism_is_a_premorphism():
    s = fx.brandt_b2()
    p = Premorphism(s, s, list(range(s.n)), kind="inverse-semigroup")
    assert verify_premorphism(p).ok


def test_constant_non_idempotent_map_fails_inverse_condition():
    s = fx.brandt_b2()
    i = idx(s)
    p = Premorphism(s, s, [i["a"]] * s.n, kind="inverse-semigroup")
    rep = verify_premorphism(p)
    assert not rep.clause_ok("PM(ii)")


def _partial_bijection_family(action: POAction):
    return [action.map_of[g] for g in action.index.grades]


def test_action_induces_semigroup_premorphism_into_partial_bijections():
    alpha = fx.pointed_arrow_partial_action()
    s = esn_to_semigroup(alpha.structure)
    maps = _partial_bijection_family(alpha)
    p = Premorphism(s, PartialBijections(alpha.carrier), maps, kind="inverse-semigroup")
    assert verify_premorphism(p).ok


def test_action_induces_inductive_premorphism_with_diagnostics():
    alpha = fx.pointed_arrow_partial_action()
    maps = _partial_bijection_family(alpha)
    p = Premorphism(
        alpha.structure, PartialBijections(alpha.carrier), maps, kind="inductive-groupoid"
    )
    rep = verify_premorphism(p)
    assert rep.ok
    assert "PM(dom)" in rep.checked and "PM(meet)" in rep.checked


def test_non_strong_action_fails_the_meet_diagnostic():
    stacked = fx.stacked_involutions_action()
    maps = _partial_bijection_family(stacked)
    p = Premorphism(
        stacked.structure, PartialBijections(stacked.carrier), maps, kind="inductive-groupoid"
    )
    rep = verify_premorphism(p)
    assert not rep.clause_ok("PM(meet)")


def test_scaled_map_fails_order_preservation():
    alpha = fx.pointed_arrow_partial_action()
    s = esn_to_semigroup(alpha.structure)
    maps = _partial_bijection_family(alpha)
    i = {nm: k for k, nm in enumerate(alpha.structure.names)}
    broken = list(maps)
    dom = broken[i["e_min"]].domain
    broken[i["e_min"]] = LinMap(dom, dom, ((2,),))
    p = Premorphism(s, PartialBijections(alpha.carrier), broken, kind="inverse-semigroup")
    rep = verify_premorphism(p)
    assert not rep.ok
