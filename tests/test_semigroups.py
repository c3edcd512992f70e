import weakref

import pytest

from ogaction import fixtures as fx
from ogaction.actions import POAction
from ogaction.errors import InvalidGroupoid, InvalidSemigroup, NotInductive
from ogaction.globalize import globalize_inverse_semigroup_action
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

from generators import symmetric_inverse_monoid


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


@pytest.mark.parametrize("mult", [[[0, 2], [1, 1]], [[0, -1], [1, 1]], [[5]]])
def test_table_entries_outside_the_elements_are_refused(mult):
    names = ["a", "b"][: len(mult)]
    with pytest.raises(InvalidSemigroup, match="entries must be element indices"):
        InverseSemigroup(names, mult)


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
    p = Premorphism(s, s, list(range(s.n)))
    assert verify_premorphism(p).ok


def test_constant_non_idempotent_map_fails_inverse_condition():
    s = fx.brandt_b2()
    i = idx(s)
    p = Premorphism(s, s, [i["a"]] * s.n)
    rep = verify_premorphism(p)
    assert not rep.clause_ok("PM(ii)")


@pytest.mark.parametrize("mapping", [[-1, -1], [2, 2]])
def test_premorphism_refuses_mapping_values_outside_the_target(mapping):
    """A value that does not index the target is refused, like a mapping
    of the wrong length: -1 used to be read from the end of the target's
    tables, and 2 raised a raw IndexError."""
    s = fx.chain_semilattice()
    with pytest.raises(InvalidSemigroup, match="target element indices"):
        verify_premorphism(Premorphism(s, s, mapping))


def _partial_bijection_family(action: POAction):
    return [action.map_of[g] for g in action.index.grades]


def test_action_induces_semigroup_premorphism_into_partial_bijections():
    alpha = fx.pointed_arrow_partial_action()
    s = esn_to_semigroup(alpha.structure)
    maps = _partial_bijection_family(alpha)
    p = Premorphism(s, PartialBijections(alpha.carrier), maps)
    assert verify_premorphism(p).ok


def test_action_induces_inductive_premorphism_with_diagnostics():
    alpha = fx.pointed_arrow_partial_action()
    maps = _partial_bijection_family(alpha)
    p = Premorphism(alpha.structure, PartialBijections(alpha.carrier), maps)
    rep = verify_premorphism(p)
    assert rep.ok
    assert "PM(dom)" in rep.checked and "PM(meet)" in rep.checked


def test_premorphism_refuses_a_source_groupoid_with_a_wrong_composite():
    """The source is validated before any pair is read, so s * s_inv
    pointing at d_s instead of r_s is refused, though every premorphism
    clause on the pairs would hold."""
    alpha = fx.pointed_arrow_partial_action()
    g = alpha.structure
    i = {nm: k for k, nm in enumerate(g.names)}
    comp = dict(g.comp)
    comp[(i["s"], i["s_inv"])] = i["d_s"]
    bad = OrderedGroupoid(g.names, g.objects, g.inv, comp, g.dom, g.ran, g.leq)
    p = Premorphism(bad, PartialBijections(alpha.carrier), _partial_bijection_family(alpha))
    with pytest.raises(InvalidGroupoid):
        verify_premorphism(p)


def test_non_strong_action_fails_the_meet_diagnostic():
    stacked = fx.stacked_involutions_action()
    maps = _partial_bijection_family(stacked)
    p = Premorphism(stacked.structure, PartialBijections(stacked.carrier), maps)
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
    p = Premorphism(s, PartialBijections(alpha.carrier), broken)
    rep = verify_premorphism(p)
    assert not rep.ok


# -- the round trip returns the structure it came from ----------------------


def _round_trip_semigroups():
    """The fixture and corpus semigroups and I_2..I_4, each fresh."""
    made = [fx.chain_semilattice(), fx.symmetric_monoid_i1(), fx.brandt_b2()]
    made += [fx.nilpotent_edge_semigroup()]
    return made + [symmetric_inverse_monoid(n) for n in (2, 3, 4)]


def _round_trip_groupoids():
    """The fixture and corpus groupoids and the ESN groupoids of I_2..I_4,
    whose source semigroups are gone."""
    made = [fx.pointed_arrow_groupoid(), fx.stacked_involutions_groupoid()]
    made += [fx.nilpotent_edge_po_action().structure]
    return made + [esn_to_groupoid(symmetric_inverse_monoid(n)) for n in (2, 3, 4)]


def _validated(monkeypatch, cls, method):
    """The structures whose `method` runs from here on, in call order."""
    seen = []
    check = getattr(cls, method)

    def counted(self):
        seen.append(self)
        return check(self)

    monkeypatch.setattr(cls, method, counted)
    return seen


def test_the_esn_round_trip_returns_the_input():
    for s in _round_trip_semigroups():
        assert esn_to_semigroup(esn_to_groupoid(s)) is s, s
    for g in _round_trip_groupoids():
        assert esn_to_groupoid(esn_to_semigroup(g)) is g, g


def test_the_esn_groupoid_is_kept_on_its_semigroup():
    for s in _round_trip_semigroups():
        g = esn_to_groupoid(s)
        assert esn_to_groupoid(s) is g
        assert g == esn_to_groupoid(InverseSemigroup(s.names, s.mult))


def _renumbered(n):
    """A permutation of range(n) that is no automorphism of I_3: every
    automorphism fixes the zero (the empty map, element 0), and this moves
    it."""
    return [(i + 1) % n for i in range(n)]


def test_a_recorded_semigroup_with_another_table_is_rebuilt_and_validated(monkeypatch):
    """The ESN groupoid of I_3 records I_3 renumbered under I_3's names: a
    valid table that differs from the pseudoproducts.  `esn_to_semigroup`
    returns a new semigroup equal to I_3 and validates it."""
    s = symmetric_inverse_monoid(3)
    g = esn_to_groupoid(s)
    other = InverseSemigroup(s.names, s.relabeled(_renumbered(s.n)).mult)
    assert other.is_valid() and other.mult != s.mult
    g._esn_source = weakref.ref(other)
    seen = _validated(monkeypatch, InverseSemigroup, "validate")
    back = esn_to_semigroup(g)
    assert back is not other and back is not s and back == s
    assert any(x is back for x in seen) and back.is_valid()


def test_a_recorded_groupoid_with_other_fields_is_rebuilt_and_validated(monkeypatch):
    """A semigroup from `esn_to_semigroup` that records the ESN groupoid of
    I_3 renumbered under its names (a valid groupoid with other fields)
    converts to a new groupoid equal to the ESN groupoid, validated."""
    s = symmetric_inverse_monoid(3)
    g = esn_to_groupoid(s)
    r = g.relabeled(_renumbered(g.n))
    other = OrderedGroupoid(g.names, r.objects, r.inv, r.comp, r.dom, r.ran, r.leq)
    assert other.is_valid() and other != g
    t = esn_to_semigroup(OrderedGroupoid(g.names, g.objects, g.inv, g.comp, g.dom, g.ran, g.leq))
    t._esn_source = other
    seen = _validated(monkeypatch, OrderedGroupoid, "validate_groupoid")
    back = esn_to_groupoid(t)
    assert back is not other and back is not g and back == g
    assert any(x is back for x in seen) and back.is_valid()


def test_the_inverse_pipeline_builds_one_esn_groupoid(monkeypatch):
    """Transporting the global action back compares with the ESN groupoid
    kept on the semigroup, not with a second one built for it."""
    built = []
    init = OrderedGroupoid.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    a = fx.brandt_action()
    monkeypatch.setattr(OrderedGroupoid, "__init__", counted)
    result = globalize_inverse_semigroup_action(a)
    assert result.checklist.ok
    assert len(built) == 1 and built[0] is esn_to_groupoid(a.structure)
