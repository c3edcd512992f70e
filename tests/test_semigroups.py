import itertools
import weakref

import pytest

from ogaction import fixtures as fx
from ogaction import validation
from ogaction.actions import POAction
from ogaction.errors import InvalidGroupoid, InvalidSemigroup, NotInductive
from ogaction.globalize import globalize_inverse_semigroup_action
from ogaction.groupoids import OrderedGroupoid
from ogaction.linalg import LinMap, Subspace
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

import extra_fixtures as xf
from generators import symmetric_inverse_monoid
import oracles


def idx(s):
    return {nm: i for i, nm in enumerate(s.names)}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_symmetric_inverse_monoid_matches_the_composed_tuples(n):
    """The generator's byte-translated rows equal the table built by forming
    and looking up each composite's image tuple."""
    fast, slow = symmetric_inverse_monoid(n), oracles.symmetric_inverse_monoid(n)
    assert fast.names == slow.names and fast.mult == slow.mult


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


def test_three_element_tables_get_the_oracles_report(monkeypatch):
    """INVERSES stops at the first partner only once ASSOC and IDEMPOTENTS
    pass: on every fifth magma of three elements, plain, and checked where
    the short cut is taken, the report is the full scan's, including the
    tables where one of them fails and an element has two or three
    partners."""
    names = ("a", "b", "c")
    reached = set()
    monkeypatch.setattr(validation, "CHECKED", False)
    for flat in itertools.islice(itertools.product(range(3), repeat=9), 0, None, 5):
        mult = [flat[:3], flat[3:6], flat[6:]]
        want = oracles.validate_semigroup(InverseSemigroup(names, mult))
        assert InverseSemigroup(names, mult).validate() == want, mult
        others = {i.clause for i in want.issues} - {"INVERSES"}
        if not others:  # the short cut is taken: checked mode runs the scan too
            monkeypatch.setattr(validation, "CHECKED", True)
            assert InverseSemigroup(names, mult).validate() == want, mult
            monkeypatch.setattr(validation, "CHECKED", False)
        elif any(i.clause == "INVERSES" and "has 0" not in i.message for i in want.issues):
            reached |= others
    assert reached == {"ASSOC", "IDEMPOTENTS"}


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
    s = xf.symmetric_monoid_i1()
    g = esn_to_groupoid(s)
    assert len(g.objects) == 2
    assert g.le(1, 0) and not g.le(0, 1)


def test_esn_roundtrip_from_semigroups():
    for s in [fx.chain_semilattice(), xf.symmetric_monoid_i1(), fx.brandt_b2()]:
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


def test_a_premorphism_into_a_semigroup_fails_products_and_order_by_name():
    """Sending the zero of B_2 to the lower idempotent of the chain and the
    rest to the top puts a product's image above the image of the product;
    swapping the chain's two idempotents reverses its order."""
    chain, b = fx.chain_semilattice(), fx.brandt_b2()
    mapping = [0] * b.n
    mapping[idx(b)["z"]] = idx(chain)["e"]
    rep = verify_premorphism(Premorphism(b, chain, mapping))
    assert [k for k, ok in rep.clauses().items() if not ok] == ["PM(i)"]
    assert str(rep.issues[0]) == "[PM(i)] image product of (a,a) not below image of product"
    rep = verify_premorphism(Premorphism(chain, chain, [1, 0]))
    assert [str(issue) for issue in rep.issues] == [
        "[PM(iii)] e below one but images one, e are unordered"
    ]


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
    made = [fx.chain_semilattice(), xf.symmetric_monoid_i1(), fx.brandt_b2()]
    made += [fx.nilpotent_edge_semigroup()]
    return made + [symmetric_inverse_monoid(n) for n in (2, 3, 4)]


def _round_trip_groupoids():
    """The fixture and corpus groupoids and the ESN groupoids of I_2..I_4,
    whose source semigroups are gone."""
    made = [fx.pointed_arrow_groupoid(), fx.stacked_involutions_groupoid()]
    made += [xf.nilpotent_edge_po_action().structure]
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
    """S(G(s)) is s itself.  G(S(g)) is built anew: it equals g and carries
    the reports the ESN theorem records, those of g."""
    for s in _round_trip_semigroups():
        assert esn_to_semigroup(esn_to_groupoid(s)) is s, s
    for g in _round_trip_groupoids():
        back = esn_to_groupoid(esn_to_semigroup(g))
        assert back == g, g
        assert (back._groupoid_report, back._order_report) == (g.validate_groupoid(), g.validate_order()), g
        assert back._groupoid_report.ok and back._order_report.ok and back._inductive, g


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
    returns a new semigroup equal to I_3.  In plain mode no validation runs
    on it: by the ESN theorem it carries a passed report, equal to the
    oracle's, and I_3's inverses.  Checked mode validates a rebuilt copy."""
    for checked in (False, True):
        monkeypatch.setattr(validation, "CHECKED", checked)
        s = symmetric_inverse_monoid(3)
        g = esn_to_groupoid(s)
        other = InverseSemigroup(s.names, s.relabeled(_renumbered(s.n)).mult)
        assert other.is_valid() and other.mult != s.mult
        g._esn_source = weakref.ref(other)
        seen = _validated(monkeypatch, InverseSemigroup, "validate")
        back = esn_to_semigroup(g)
        assert bool(seen) == checked and all(x is not back for x in seen)
        assert back is not other and back is not s and back == s
        assert back._report == oracles.validate_semigroup(back) and back._report.ok
        assert back._inverse == s._inverse
        monkeypatch.undo()


def test_the_groupoid_of_a_converted_semigroup_is_built_and_not_validated(monkeypatch):
    """A semigroup from `esn_to_semigroup` converts to a new groupoid equal
    to the ESN groupoid of I_3 it came from.  In plain mode no validation
    runs on it: by the ESN theorem it carries passed reports, equal to the
    oracle's, and is inductive.  Checked mode validates a rebuilt copy."""
    for checked in (False, True):
        monkeypatch.setattr(validation, "CHECKED", checked)
        s = symmetric_inverse_monoid(3)
        g = esn_to_groupoid(s)
        source = OrderedGroupoid(g.names, g.objects, g.inv, g.comp, g.dom, g.ran, g.leq)
        t = esn_to_semigroup(source)
        seen = _validated(monkeypatch, OrderedGroupoid, "validate_groupoid")
        back = esn_to_groupoid(t)
        assert bool(seen) == checked and all(x is not back for x in seen)
        assert back is not source and back is not g and back == g
        assert back._groupoid_report == oracles.validate_groupoid(back)
        assert back._order_report == oracles.validate_order(back)
        assert back.is_valid() and back.is_inductive()
        monkeypatch.undo()


def test_the_kept_esn_groupoid_converts_back_without_its_pseudoproducts(monkeypatch):
    """S(G(S)) = S: the groupoid that s keeps converts back to s with no
    pseudoproduct table formed.  A kept groupoid with one pseudoproduct
    changed is trusted in plain mode and refused in checked mode, which
    compares the pseudoproducts with s's table."""
    for checked in (False, True):
        monkeypatch.setattr(validation, "CHECKED", checked)
        s = symmetric_inverse_monoid(3)
        g = esn_to_groupoid(s)
        assert esn_to_semigroup(g) is s
        assert ("_pseudoproducts" in g.__dict__) == checked
        h = OrderedGroupoid(g.names, g.objects, g.inv, g.comp, g.dom, g.ran, g.leq)
        table = [list(row) for row in g._pseudoproducts]
        table[0][0] = 1
        h.__dict__["_pseudoproducts"] = tuple(map(tuple, table))
        h._esn_source, s._esn_groupoid = weakref.ref(s), h
        if checked:
            with pytest.raises(AssertionError, match=r"'ESN: S\(G\(S\)\) = S' disagrees"):
                esn_to_semigroup(h)
        else:
            assert esn_to_semigroup(h) is s
        monkeypatch.undo()


def test_the_inverse_pipeline_builds_one_esn_groupoid(monkeypatch):
    """Transporting the global action back compares with the ESN groupoid
    kept on the semigroup, not with a second one built for it."""
    # Checked mode builds a second groupoid on purpose, to compare it with
    # the kept one; the count is plain mode's.
    monkeypatch.setattr(validation, "CHECKED", False)
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


def test_an_image_domain_outside_its_domain_object_image_fails_pm_dom():
    """With the zero map at d_s, the image of s has a domain that escapes
    the image of its domain object."""
    alpha = fx.pointed_arrow_partial_action()
    maps = _partial_bijection_family(alpha)
    i = idx(alpha.structure)
    maps[i["d_s"]] = LinMap.identity(Subspace.zero(alpha.carrier.dim, alpha.carrier.p))
    p = Premorphism(alpha.structure, PartialBijections(alpha.carrier), maps)
    issues = [str(issue) for issue in verify_premorphism(p).issues]
    assert "[PM(dom)] domain of image of s escapes the domain object image" in issues
