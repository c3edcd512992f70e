"""The ESN theorem in place of re-validating what the two conversions build.

`esn_to_groupoid` records the groupoid of a valid inverse semigroup as
valid and inductive, and `esn_to_semigroup` records the pseudoproduct
semigroup of a valid inductive groupoid as inverse, with no validation run
(Lawson, *Inverse Semigroups*, 1998, ch. 4).  These tests compare the
recorded reports with the retained scans of `tests/oracles.py` on the
inverse subsemigroups of I_3 and I_4 generated by a few random elements,
run the round trips and the inv_monoid workspaces once in checked mode,
and make the recorded order lie.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogaction import fixtures as fx
from ogaction import validation
from ogaction.cli import main
from ogaction.groupoids import OrderedGroupoid
from ogaction.semigroups import InverseSemigroup, esn_to_groupoid, esn_to_semigroup

import extra_fixtures as xf
import oracles
from generators import symmetric_inverse_monoid

ROOT = Path(__file__).resolve().parents[1]
MONOIDS = {n: symmetric_inverse_monoid(n) for n in (3, 4)}


def _inverse_subsemigroup(n, picks):
    """The inverse subsemigroup of I_n generated by the elements `picks`
    (indices mod |I_n|) and their inverses, renumbered in I_n's order."""
    big = MONOIDS[n]
    members = {x % big.n for x in picks}
    members |= {big.inverse(x) for x in members}
    while True:
        grown = members | {big.mult[s][t] for s in members for t in members}
        if grown == members:
            break
        members = grown
    keep = sorted(members)
    at = {x: i for i, x in enumerate(keep)}
    return InverseSemigroup([big.names[x] for x in keep], [[at[big.mult[s][t]] for t in keep] for s in keep])


def _groupoid_copy(g):
    return OrderedGroupoid(g.names, g.objects, g.inv, g.comp, g.dom, g.ran, g.leq)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((3, 4)), picks=st.lists(st.integers(0, 208), min_size=1, max_size=3))
def test_the_recorded_esn_reports_are_the_oracles(n, picks):
    """The groupoid of an inverse subsemigroup of I_3 or I_4 carries the
    oracle's groupoid and order reports and the oracle's inductiveness; the
    semigroup rebuilt from a copy of it carries the oracle's semigroup
    report and inverses.  No validation runs on either."""
    s = _inverse_subsemigroup(n, picks)
    assert s.is_valid()
    g = esn_to_groupoid(s)
    assert g._groupoid_report == oracles.validate_groupoid(g)
    assert g._order_report == oracles.validate_order(g)
    assert g.is_inductive() == all(
        oracles.meet_objects(g, e, f) is not None for e in g.objects for f in g.objects
    )
    back = esn_to_semigroup(_groupoid_copy(g))
    assert back is not s and back == s
    if s.n <= 40:  # the oracle's associativity scan is cubic
        assert back._report == oracles.validate_semigroup(back)
    assert back._inverse == tuple(s.inverse(x) for x in s.elements())


def test_the_subsemigroups_range_from_one_element_to_half_the_monoid():
    rng = random.Random(0)
    sizes = {_inverse_subsemigroup(4, rng.sample(range(209), rng.randint(1, 3))).n for _ in range(300)}
    assert min(sizes) == 1 and max(sizes) >= 100 and len(sizes) >= 40


def _round_trip_inputs():
    """Fresh fixture semigroups and groupoids and I_2..I_4."""
    semigroups = [fx.chain_semilattice(), xf.symmetric_monoid_i1(), fx.brandt_b2()]
    semigroups += [fx.nilpotent_edge_semigroup()] + [symmetric_inverse_monoid(n) for n in (2, 3, 4)]
    groupoids = [fx.pointed_arrow_groupoid(), fx.stacked_involutions_groupoid()]
    return semigroups, groupoids + [xf.nilpotent_edge_po_action().structure]


def _reports(structure):
    if isinstance(structure, InverseSemigroup):
        return [structure.validate(), structure._inverse]
    return [structure.validate_groupoid(), structure.validate_order(), structure.is_inductive()]


def _round_trips():
    """Each input, its conversion and the conversion back, with reports."""
    semigroups, groupoids = _round_trip_inputs()
    out = []
    for s in semigroups:
        g = esn_to_groupoid(s)
        out.append((s == esn_to_semigroup(_groupoid_copy(g)), _reports(g), _reports(esn_to_semigroup(g))))
    for g in groupoids:
        s = esn_to_semigroup(g)
        copy = InverseSemigroup(s.names, s.mult)
        out.append((g == esn_to_groupoid(copy), _reports(s), _reports(esn_to_groupoid(s))))
    return out


def test_the_round_trips_in_checked_mode_give_the_plain_reports(monkeypatch):
    """Checked mode validates a rebuilt copy beside every conversion and
    every returned recorded structure; the reports are the plain ones."""
    monkeypatch.setattr(validation, "CHECKED", False)
    plain = _round_trips()
    monkeypatch.setattr(validation, "CHECKED", True)
    assert _round_trips() == plain
    assert all(same for same, _, _ in plain)


def _inv_monoid_files(tmp):
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.write_workload("inv_monoid", 1, tmp)


def test_the_inv_monoid_workspaces_in_checked_mode_give_the_plain_reports(tmp_path, capsys, monkeypatch):
    """I_2..I_4 with their natural actions: ESN round trips, the listed
    canonical bases and the inverse pipeline, plain and checked."""
    files = _inv_monoid_files(tmp_path)
    assert [p.name for p in files] == ["inv_i2.json", "inv_i3.json", "inv_i4.json"]
    for path in files:
        monkeypatch.setattr(validation, "CHECKED", False)
        plain = main(["run", str(path), "--json"]), capsys.readouterr()
        checked = main(["run", str(path), "--json", "--checked"]), capsys.readouterr()
        assert validation.CHECKED and checked == plain, path.name
        assert plain[0] == 0 and all(r["status"] == "pass" for r in json.loads(plain[1].out))


def _reversed_down_sets(monkeypatch):
    """The natural order read backwards: each element's up-set in place of
    its down-set, so the ESN groupoid is built with >= for <=."""
    real = InverseSemigroup._down_sets

    def up_sets(self):
        below = real(self)
        return tuple(frozenset(t for t in self.elements() if s in below[t]) for s in self.elements())

    monkeypatch.setattr(InverseSemigroup, "_down_sets", up_sets)


@pytest.mark.parametrize("checked", (False, True))
def test_a_reversed_esn_order_is_believed_in_plain_mode_and_raises_in_checked_mode(monkeypatch, checked):
    """Built from >=, the ESN groupoid of I_3 fails the order axioms; plain
    mode records it as valid, and checked mode raises naming the theorem."""
    monkeypatch.setattr(validation, "CHECKED", checked)
    _reversed_down_sets(monkeypatch)
    s = symmetric_inverse_monoid(3)
    if checked:
        with pytest.raises(AssertionError, match="short cut 'ESN: the groupoid is inductive'"):
            esn_to_groupoid(s)
    else:
        g = esn_to_groupoid(s)
        assert g.validate_order().ok and not oracles.validate_order(g).ok
