import pytest

from ogaction import fixtures as fx
from ogaction.errors import InvalidGroupoid, NotBelowDomain, NotBelowRange
from ogaction.groupoids import OrderedGroupoid, validate_groupoid, validate_order


def one_arrow():
    return OrderedGroupoid.from_parts(
        ["e"], ["e"], {"e": "e"}, [("e", "e", "e")], []
    )


def two_points():
    # two isolated objects, no order between them
    return OrderedGroupoid.from_parts(
        ["u", "v"],
        ["u", "v"],
        {"u": "u", "v": "v"},
        [("u", "u", "u"), ("v", "v", "v")],
        [],
    )


def idx(g):
    return {nm: i for i, nm in enumerate(g.names)}


def test_one_arrow_is_valid():
    g = one_arrow()
    assert validate_groupoid(g).ok
    assert validate_order(g).ok


def test_pointed_arrow_fixture_is_valid():
    g = fx.pointed_arrow_groupoid()
    assert validate_groupoid(g).ok
    assert validate_order(g).ok


def test_corrupted_composition_is_reported():
    # route s * s_inv to the wrong object
    comp = [
        ("s", "s_inv", "d_s"),
        ("s_inv", "s", "d_s"),
        ("s", "d_s", "s"),
        ("r_s", "s", "s"),
        ("s_inv", "r_s", "s_inv"),
        ("d_s", "s_inv", "s_inv"),
        ("r_s", "r_s", "r_s"),
        ("d_s", "d_s", "d_s"),
        ("e_min", "e_min", "e_min"),
    ]
    g = OrderedGroupoid.from_parts(
        ["s", "s_inv", "r_s", "d_s", "e_min"],
        ["r_s", "d_s", "e_min"],
        {"s": "s_inv", "s_inv": "s", "r_s": "r_s", "d_s": "d_s", "e_min": "e_min"},
        comp,
        [],
    )
    rep = validate_groupoid(g)
    assert not rep.ok


def test_stacked_order_is_valid():
    g = fx.stacked_involutions_groupoid()
    assert validate_groupoid(g).ok
    assert validate_order(g).ok


def test_deleting_an_order_pair_breaks_product_monotonicity():
    names = ["s", "s_inv", "r_s", "d_s", "e_min"]
    comp = [
        ("s", "s_inv", "r_s"),
        ("s_inv", "s", "d_s"),
        ("s", "d_s", "s"),
        ("r_s", "s", "s"),
        ("s_inv", "r_s", "s_inv"),
        ("d_s", "s_inv", "s_inv"),
        ("r_s", "r_s", "r_s"),
        ("d_s", "d_s", "d_s"),
        ("e_min", "e_min", "e_min"),
    ]
    order = [("e_min", "s"), ("e_min", "s_inv"), ("e_min", "d_s")]
    g = OrderedGroupoid.from_parts(
        names,
        ["r_s", "d_s", "e_min"],
        {"s": "s_inv", "s_inv": "s", "r_s": "r_s", "d_s": "d_s", "e_min": "e_min"},
        comp,
        order,
    )
    assert validate_groupoid(g).ok
    rep = validate_order(g)
    assert not rep.clause_ok("OG2")


def test_restriction_and_corestriction():
    g = fx.pointed_arrow_groupoid()
    i = idx(g)
    assert g.restriction(i["s"], i["d_s"]) == i["s"]
    assert g.restriction(i["s"], i["e_min"]) == i["e_min"]
    assert g.corestriction(i["e_min"], i["s"]) == i["e_min"]
    with pytest.raises(NotBelowDomain):
        g.restriction(i["s"], i["r_s"])
    with pytest.raises(NotBelowRange):
        g.corestriction(i["d_s"], i["s"])


def test_corestriction_on_stacked_fixture():
    g = fx.stacked_involutions_groupoid()
    i = idx(g)
    assert g.corestriction(i["m0"], i["n1"]) == i["m1"]
    assert g.restriction(i["n1"], i["m0"]) == i["m1"]


def test_corestriction_is_inverse_of_restriction_of_the_inverse():
    for g in [fx.pointed_arrow_groupoid(), fx.stacked_involutions_groupoid()]:
        for a in g.arrows():
            for e in g.objects:
                if g.le(e, g.ran[a]):
                    lhs = g.corestriction(e, a)
                    rhs = g.inv[g.restriction(g.inv[a], e)]
                    assert lhs == rhs


def test_meets():
    g = fx.pointed_arrow_groupoid()
    i = idx(g)
    assert g.meet_objects(i["e_min"], i["e_min"]) == i["e_min"]
    assert g.meet_objects(i["r_s"], i["d_s"]) == i["e_min"]
    h = two_points()
    j = idx(h)
    assert h.meet_objects(j["u"], j["v"]) is None
    assert not h.is_inductive()


def test_pseudoproducts_extend_composition():
    g = fx.pointed_arrow_groupoid()
    i = idx(g)
    assert g.pseudoproduct(i["s"], i["s_inv"]) == i["r_s"]
    assert g.pseudoproduct(i["s"], i["e_min"]) == i["e_min"]
    for a in g.arrows():
        for b in g.arrows():
            if g.composable(a, b):
                assert g.pseudoproduct(a, b) == g.comp[(a, b)]


def test_pseudoproduct_on_stacked_fixture():
    g = fx.stacked_involutions_groupoid()
    i = idx(g)
    assert g.pseudoproduct(i["n1"], i["m1"]) == i["m0"]


def test_pseudoassociativity():
    assert one_arrow().is_pseudoassociative()
    assert fx.pointed_arrow_groupoid().is_pseudoassociative()
    assert fx.stacked_involutions_groupoid().is_pseudoassociative()
    assert fx.nilpotent_edge_po_action().structure.is_pseudoassociative()


def test_inductive_fixtures():
    assert fx.pointed_arrow_groupoid().is_inductive()
    assert fx.stacked_involutions_groupoid().is_inductive()


def test_inductive_implies_pseudoassociative_on_fixtures():
    for g in [
        one_arrow(),
        fx.pointed_arrow_groupoid(),
        fx.stacked_involutions_groupoid(),
    ]:
        if g.is_inductive():
            assert g.is_pseudoassociative()


def test_down_range_sets():
    g = fx.pointed_arrow_groupoid()
    i = idx(g)
    names = lambda xs: {g.names[x] for x in xs}
    assert names(g.down_range_set(i["s"])) == {"s", "r_s", "e_min"}
    assert names(g.down_range_set(i["e_min"])) == {"e_min"}
    assert names(g.down_range_set(i["s_inv"])) == {"s_inv", "d_s", "e_min"}
    for a in g.arrows():
        assert g.down_range_set(a) == g.down_range_set(g.ran[a])
    triv = fx.nilpotent_edge_po_action().structure
    for a in triv.arrows():
        assert set(triv.down_range_set(a)) == {
            h for h in triv.arrows() if triv.ran[h] == triv.ran[a]
        }


def test_pseudo_composable_sets():
    g = fx.pointed_arrow_groupoid()
    for a in g.arrows():
        assert g.pseudo_composable_set(a) == tuple(g.arrows())
    st = fx.stacked_involutions_groupoid()
    i = idx(st)
    assert st.pseudo_composable_set(i["n1"]) == tuple(st.arrows())
    triv = fx.nilpotent_edge_po_action().structure
    for a in triv.arrows():
        assert set(triv.pseudo_composable_set(a)) == {
            h for h in triv.arrows() if triv.ran[h] == triv.ran[a]
        }


def test_restriction_uniqueness_by_scan():
    g = fx.pointed_arrow_groupoid()
    for a in g.arrows():
        for e in g.objects:
            if g.le(e, g.dom[a]):
                below = [x for x in g.arrows() if g.le(x, a) and g.dom[x] == e]
                assert len(below) == 1
                assert below[0] == g.restriction(a, e)


def test_relabeling_preserves_validity():
    g = fx.pointed_arrow_groupoid()
    perm = [3, 0, 4, 2, 1]
    h = g.relabeled(perm)
    assert validate_groupoid(h).ok
    assert validate_order(h).ok
    assert h.names[perm[0]] == g.names[0]
    back = h.relabeled([perm.index(i) for i in range(5)])
    assert back == g


def test_unknown_arrow_name_raises():
    with pytest.raises(InvalidGroupoid):
        OrderedGroupoid.from_parts(
            ["e"], ["e"], {"e": "e"}, [("e", "e", "e")], [("e", "ghost")]
        )
