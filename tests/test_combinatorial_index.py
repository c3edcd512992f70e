"""The indexed combinatorial layer against the plain scans it replaced.

`OrderedGroupoid` reads its groupoid and order checks, restrictions,
meets and pseudoproducts from each arrow's partners, `comp` and its
up-/down-set tables, and keeps its pseudoproduct table once valid, each
entry read from the meets, the arrows below each arrow and `comp`;
`InverseSemigroup` keeps its natural order as down-sets.  One Light
certificate (`light_certificate`) on square tables decides ASSOC on the
multiplication table and pseudoassociativity on the sentinel-extended
pseudoproduct table; CAT associativity is the loop over composable
triples; and the ESN conversions read the same tables.
`tests/oracles.py` keeps the scans over all arrows and elements as they
were.  Both sides must give the same clauses, the same issues in the
same order, the same values and the same exceptions, on valid structures
and on copies with one order entry flipped, one product swapped, removed,
moved or copied to a pair that does not compose, or one inverse broken,
and on groupoids and semigroups with one adjoined element that is their
only bad middle factor.
"""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ogaction import fixtures as fx
from ogaction.actions import Action
from ogaction.errors import InvalidGroupoid, NotInductive
from ogaction.groupoids import OrderedGroupoid, _closure, light_certificate
from ogaction.semigroups import GradedIndex, InverseSemigroup, esn_to_groupoid, esn_to_semigroup
from ogaction.validation import ValidationReport

from generators import fixture_builders, random_global_action, symmetric_inverse_monoid

# The retained is_pseudoassociative scan costs about 3 n^3 unindexed
# pseudoproducts; above this many arrows it is left out.
PSEUDOASSOC_MAX_ARROWS = 16


def outcome(fn, *args):
    """What a call gives: a report's clauses and issues, a value, or the
    type and message of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared with the oracle's, never swallowed
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(value, ValidationReport):
        return ("report", value.subject, value.clauses(), [(i.clause, i.message) for i in value.issues])
    return ("value", value)


def _fixture_structures():
    """Every groupoid and semigroup the fixture builders build, directly or
    under one of their actions."""
    found = []
    for label, fn in fixture_builders():
        made = fn()
        if isinstance(made, Action):
            made = made.structure
        if isinstance(made, (OrderedGroupoid, InverseSemigroup)):
            found.append((label, made))
    return found


def _base_structures():
    named = _fixture_structures()
    rng = random.Random(5)
    for i in range(8):
        beta, _ = random_global_action(rng, max_dim=5)
        named.append((f"generated{i}", beta.structure))
    for n in (2, 3):
        named.append((f"I_{n}", symmetric_inverse_monoid(n)))
    for label, s in list(named):
        if isinstance(s, InverseSemigroup) and s.is_valid():
            named.append((f"esn({label})", esn_to_groupoid(s)))
    for label, g in list(named):
        if isinstance(g, OrderedGroupoid) and not label.startswith("esn("):
            try:
                named.append((f"esn({label})", esn_to_semigroup(g)))
            except NotInductive:
                pass
    distinct = {}
    for label, x in named:
        distinct.setdefault(x, label)
    return [(label, x) for x, label in distinct.items()]


def _groupoid_copy(g, inv=None, comp=None, leq=None):
    """A fresh groupoid (no cached tables) with some fields replaced."""
    return OrderedGroupoid(
        g.names,
        g.objects,
        g.inv if inv is None else inv,
        g.comp if comp is None else comp,
        g.dom,
        g.ran,
        g.leq if leq is None else leq,
    )


def _composes_to_arrows(g):
    """Every composable pair has a composite in `comp`, and it is an arrow."""
    arrows = range(g.n)
    return all(g.comp.get((a, b)) in arrows for a in arrows for b in arrows if g.dom[a] == g.ran[b])


def _groupoid_perturbations(label, g, rng):
    out = []
    cells = [(a, a) for a in rng.sample(range(g.n), min(2, g.n))]
    cells += [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(3)]
    for a, b in cells:
        leq = [list(row) for row in g.leq]
        leq[a][b] = not leq[a][b]
        out.append((f"{label}: leq[{a}][{b}] flipped", _groupoid_copy(g, leq=leq)))
    keys = list(g.comp)
    for _ in range(2):
        x, y = rng.sample(keys, 2) if len(keys) > 1 else (keys[0], keys[0])
        comp = dict(g.comp)
        comp[x], comp[y] = comp[y], comp[x]
        if comp != g.comp:
            out.append((f"{label}: products {x}, {y} swapped", _groupoid_copy(g, comp=comp)))
    if len(keys) > 1:
        comp = dict(g.comp)
        del comp[x]
        out.append((f"{label}: product {x} removed", _groupoid_copy(g, comp=comp)))
    if g.n > 1:
        a = rng.randrange(g.n)
        inv = list(g.inv)
        inv[a] = (inv[a] + 1) % g.n
        out.append((f"{label}: inverse of {a} broken", _groupoid_copy(g, inv=inv)))
    # As many products as composable pairs, one of them on a pair that
    # does not compose: "defined iff composable" fails with the count intact.
    loose = [(a, b) for a in range(g.n) for b in range(g.n) if g.dom[a] != g.ran[b]]
    if loose:
        comp = dict(g.comp)
        comp[loose[0]] = comp.pop(keys[-1])
        out.append((f"{label}: product {keys[-1]} moved to {loose[0]}", _groupoid_copy(g, comp=comp)))
        # Every composable pair kept, and one more product on a pair that
        # does not compose: a stray key beside every composite.
        comp = {**g.comp, loose[0]: g.comp[keys[-1]]}
        out.append((f"{label}: product {keys[-1]} copied to {loose[0]}", _groupoid_copy(g, comp=comp)))
    return out


def _semigroup_perturbations(label, s, rng):
    out = []
    n = s.n
    for _ in range(2):
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        mult = [list(row) for row in s.mult]
        mult[a][b], mult[c][d] = mult[c][d], mult[a][b]
        if mult != [list(row) for row in s.mult]:
            out.append((f"{label}: products ({a},{b}), ({c},{d}) swapped", InverseSemigroup(s.names, mult)))
    if s.is_valid() and n > 1:
        a = rng.randrange(n)
        mult = [list(row) for row in s.mult]
        # a * a^-1 moved to the next element
        mult[a][s.inverse(a)] = (mult[a][s.inverse(a)] + 1) % n
        out.append((f"{label}: inverse of {a} broken", InverseSemigroup(s.names, mult)))
    return out


def _all_cases():
    rng = random.Random(17)
    groupoids, semigroups = [], []
    for label, x in _base_structures():
        if isinstance(x, OrderedGroupoid):
            groupoids += [(label, x)] + _groupoid_perturbations(label, x, rng)
        else:
            semigroups += [(label, x)] + _semigroup_perturbations(label, x, rng)
    return groupoids, semigroups


GROUPOIDS, SEMIGROUPS = _all_cases()
# Each base groupoid with its first composite set past the end and to -1:
# CAT fails, and OG2 must skip those composites rather than index the order
# by them.  Kept apart from GROUPOIDS, whose relabeling tests need arrows.
OUTSIDE = [
    (f"{label}: product {next(iter(g.comp))} set to {bad}",
     _groupoid_copy(g, comp={**g.comp, next(iter(g.comp)): bad}))
    for label, g in _base_structures() if isinstance(g, OrderedGroupoid)
    for bad in (g.n, -1)
]


def _groupoid_outcomes(g, impl):
    """Every compared call on g, through the library (impl None) or the oracle."""

    def call(name, *args):
        if impl is None:
            return outcome(getattr(g, name), *args)
        return outcome(getattr(impl, name), g, *args)

    arrows = range(g.n)
    out = {"validate_groupoid": call("validate_groupoid"), "validate_order": call("validate_order")}
    for a in arrows:
        for b in arrows:
            out[("restriction", a, b)] = call("restriction", a, b)
            out[("corestriction", b, a)] = call("corestriction", b, a)
            out[("meet_objects", a, b)] = call("meet_objects", a, b)
            out[("pseudoproduct", a, b)] = call("pseudoproduct", a, b)
    if g.n <= PSEUDOASSOC_MAX_ARROWS:
        out["is_pseudoassociative"] = call("is_pseudoassociative")
    return out


@pytest.mark.parametrize("label,g", GROUPOIDS + OUTSIDE, ids=[label for label, _ in GROUPOIDS + OUTSIDE])
def test_indexed_groupoid_matches_the_retained_scans(label, g):
    fresh = _groupoid_copy(g)
    assert _groupoid_outcomes(fresh, None) == _groupoid_outcomes(g, oracles)
    # A second pass reads the kept tables and the meet memo.
    assert _groupoid_outcomes(fresh, None) == _groupoid_outcomes(g, oracles)


def test_tabulated_pseudoassociativity_matches_the_scan_above_the_oracle_size():
    """Up to PSEUDOASSOC_MAX_ARROWS the oracle comparison above covers it;
    the larger cases are compared with the library's own retained scan."""
    large = [(label, g) for label, g in GROUPOIDS if g.n > PSEUDOASSOC_MAX_ARROWS]
    assert large
    for label, g in large:
        got = outcome(_groupoid_copy(g).is_pseudoassociative)
        assert got == outcome(g._scan_pseudoassociative), label


@pytest.mark.parametrize("label,s", SEMIGROUPS, ids=[label for label, _ in SEMIGROUPS])
def test_indexed_semigroup_matches_the_retained_scans(label, s):
    fresh = InverseSemigroup(s.names, s.mult)
    assert outcome(fresh.validate) == outcome(oracles.validate_semigroup, s)
    assert fresh.idempotents() == oracles.idempotents(s)
    pairs = [(a, b) for a in range(s.n) for b in range(s.n)]
    lib = [outcome(fresh.natural_le, a, b) for a, b in pairs]
    assert lib == [outcome(oracles.natural_le, s, a, b) for a, b in pairs]
    if fresh.is_valid():
        # Lawson: s <= t iff s = t s^-1 s, the same order from the inverses
        m = fresh.mult
        assert lib == [("value", a == m[b][m[fresh.inverse(a)][a]]) for a, b in pairs]
        g = esn_to_groupoid(fresh)
        assert [list(row) for row in g.leq] == [
            [oracles.natural_le(s, a, b) for b in range(s.n)] for a in range(s.n)
        ]


def _bad_middles(mult):
    """The b with (ab)c != a(bc) for some a, c."""
    n = len(mult)
    return {
        b
        for a in range(n)
        for b in range(n)
        if list(mult[mult[a][b]]) != [mult[a][mult[b][c]] for c in range(n)]
    }


def _one_bad_middle_cases():
    """Each valid semigroup S with one element x adjoined: x multiplies
    like some y of S except that x*x is moved off y*y.  Every product lies
    in S, which is a proper sub-closure, and a triple can only break with
    x in the middle, so the ASSOC certificate must check x itself."""
    cases = []
    for label, s in _base_structures():
        if not (isinstance(s, InverseSemigroup) and s.is_valid()):
            continue
        n = s.n
        for y in range(n):
            mult = [list(row) + [row[y]] for row in s.mult]
            mult.append(list(s.mult[y]) + [(s.mult[y][y] + 1) % n])
            names = s.names + (f"copy_of_{s.names[y]}",)
            cases.append((f"{label} + copy of {y}", InverseSemigroup(names, mult)))
    return cases


ONE_BAD_MIDDLE = _one_bad_middle_cases()


def test_assoc_certificate_matches_the_scan_when_one_middle_factor_breaks():
    broken = 0
    for label, s in ONE_BAD_MIDDLE:
        bad = _bad_middles(s.mult)
        assert bad <= {s.n - 1}, label
        broken += bool(bad)
        fresh = InverseSemigroup(s.names, s.mult)
        assert outcome(fresh.validate) == outcome(oracles.validate_semigroup, s), label
    assert broken >= 20


def _with_sentinel(rows):
    """A partial table (None for "undefined") with an absorbing sentinel
    n adjoined."""
    n = len(rows)
    return [[n if x is None else x for x in row] + [n] for row in rows] + [[n] * (n + 1)]


def _adjoin_bad_copy(table, y):
    """table with an element x adjoined that multiplies like y, except that
    x*x moves off y*y: to the sentinel (the last element) when y*y is
    defined, else to y.  Every product lies in the old elements, so they
    form a proper sub-closure, and a triple can only break with x in the
    middle."""
    sentinel = len(table) - 1
    xx = sentinel if table[y][y] != sentinel else y
    out = [list(row) + [row[y]] for row in table]
    out.append(list(table[y]) + [xx])
    return out


def test_light_certificate_on_partial_tables_with_one_bad_middle_factor():
    """On the composite and pseudoproduct tables of every valid groupoid,
    each with an absorbing sentinel for "undefined" and one element
    adjoined by `_adjoin_bad_copy`, the certificate is True exactly when
    the table is associative."""
    broken = partial = 0
    for label, g in GROUPOIDS:
        fresh = _groupoid_copy(g)
        if not fresh.is_valid():
            continue
        arrows = range(fresh.n)
        composites = [[fresh.comp.get((a, b)) for b in arrows] for a in arrows]
        for rows in (composites, fresh._pseudoproducts):
            table = _with_sentinel(rows)
            assert light_certificate(table), label
            for y in arrows:
                bad_table = _adjoin_bad_copy(table, y)
                bad = _bad_middles(bad_table)
                assert bad <= {len(table)}, (label, y)
                assert light_certificate(bad_table) == (not bad), (label, y)
                broken += bool(bad)
                partial += table[y][y] == len(table) - 1
    assert broken >= 100 and partial >= 20


def _one_object_groupoid(label, mult):
    """A finite group (identity 0) as a groupoid with one object."""
    n = len(mult)
    inv = [next(b for b in range(n) if mult[a][b] == 0) for a in range(n)]
    comp = {(a, b): mult[a][b] for a in range(n) for b in range(n)}
    leq = [[a == b for b in range(n)] for a in range(n)]
    names = [f"{label}{a}" for a in range(n)]
    return OrderedGroupoid(names, [0], inv, comp, [0] * n, [0] * n, leq)


def _groups():
    """Z_2..Z_5 and S_3 as one-object groupoids."""
    out = []
    for m in range(2, 6):
        table = [[(a + b) % m for b in range(m)] for a in range(m)]
        out.append((f"Z_{m}", _one_object_groupoid("z", table)))
    perms = sorted(permutations(range(3)))
    mult = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    out.append(("S_3", _one_object_groupoid("s", mult)))
    return out


def _adjoin_bad_loop(g, e):
    """g with a loop x at the object e adjoined, where e is the only object
    of its component and its vertex group G_e has at least two arrows:
    x*a = a*x = x for every a in G_e, x*x = e, and x is its own inverse.
    Products are defined exactly on the composable pairs, with the right
    endpoints and identities, so the certificate runs.  The old arrows form
    a proper sub-closure, and a triple fails only with x in the middle:
    (ax)x = e but a(xx) = a for a != e."""
    x = g.n
    comp = dict(g.comp)
    for a in range(g.n):
        if g.ran[a] == e:
            comp[(x, a)] = comp[(a, x)] = x
    comp[(x, x)] = e
    leq = [list(row) + [False] for row in g.leq] + [[False] * g.n + [True]]
    names = g.names + (f"bad_loop_at_{g.names[e]}",)
    return OrderedGroupoid(names, g.objects, g.inv + (x,), comp, g.dom + (e,), g.ran + (e,), leq)


GROUPS = _groups()


def _cat_one_bad_middle_cases():
    """The CAT analogue of ONE_BAD_MIDDLE: every valid groupoid of the
    cases, and each group above, with `_adjoin_bad_loop` at each object
    that is alone in its component under a vertex group of two or more
    arrows."""
    cases = []
    for label, g in _base_structures() + GROUPS:
        if not (isinstance(g, OrderedGroupoid) and _groupoid_copy(g).is_valid()):
            continue
        for e in sorted(g.objects):
            loops = [a for a in range(g.n) if g.ran[a] == e]
            if len(loops) > 1 and all(g.dom[a] == e for a in loops):
                cases.append((f"{label} + bad loop at {g.names[e]}", _adjoin_bad_loop(g, e)))
    return cases


CAT_ONE_BAD_MIDDLE = _cat_one_bad_middle_cases()


@pytest.mark.parametrize(
    "label,g",
    GROUPOIDS + CAT_ONE_BAD_MIDDLE,
    ids=[label for label, _ in GROUPOIDS + CAT_ONE_BAD_MIDDLE],
)
def test_cat_issues_and_exceptions_match_the_oracle(label, g):
    """The groupoid report, CAT issues in order included, or the exception
    raised, equals the oracle's on every case and on a relabeled copy."""
    assert outcome(_groupoid_copy(g).validate_groupoid) == outcome(oracles.validate_groupoid, g)
    perm = list(range(g.n))
    random.Random(label).shuffle(perm)
    moved = g.relabeled(perm)
    there = outcome(moved.validate_groupoid)
    assert there == outcome(oracles.validate_groupoid, moved)
    # The generators follow element order; the clause verdicts must not.
    here = outcome(_groupoid_copy(g).validate_groupoid)
    assert there[:3] == here[:3] if here[0] == "report" else there[:2] == here[:2]


@pytest.mark.parametrize("label", ["key -1", "key n", "value n", "value -1", "value n, extra key"])
def test_comp_entries_outside_the_arrows_fail_cat(label):
    """The pointed arrow with comp entries not inside the arrows: a negative
    key (read as the last arrow by indexing), a key past the end, a
    composite past the end, a negative composite, and a composite past the
    end beside an extra in-range key, so that comp has one entry per
    composable pair.  Each such entry is a CAT issue of its own, the first
    of the report, and the whole report (no exception) equals the oracle's."""
    g = fx.pointed_arrow_groupoid()
    n, s, r_s = g.n, g.names.index("s"), g.names.index("r_s")
    extra = {
        "key -1": {(-1, -1): n - 1},
        "key n": {(n, n): 0},
        "value n": {(r_s, s): n},
        "value -1": {(r_s, s): -1},
        "value n, extra key": {(r_s, s): n, (s, s): r_s},
    }[label]
    bad = _groupoid_copy(g, comp={**g.comp, **extra})
    got = outcome(bad.validate_groupoid)
    assert got == outcome(oracles.validate_groupoid, bad)
    assert got[0] == "report" and not got[2]["CAT"]
    outside = [m for c, m in got[3] if "outside the arrows" in m]
    assert outside == [
        f"product ({k[0]}, {k[1]}) -> {v} has an index outside the arrows"
        for k, v in extra.items()
        if not all(0 <= x < n for x in (*k, v))
    ]
    assert got[3][0] == ("CAT", outside[0])
    if label == "value n, extra key":
        assert ("CAT", "product s*s defined iff domains match fails") in got[3]
    assert not bad.is_valid()


@pytest.mark.parametrize("value", ["n", "-1"])
def test_order_check_skips_composites_outside_the_arrows(value):
    """`validate_order` called without `validate_groupoid` on the pointed
    arrow whose composite r_s*s is not an arrow returns a report, not an
    IndexError (n) or a read of the last arrow's order row (-1): OG2 skips
    the quadruples that read that composite, every other one passes as on
    the valid groupoid, and the groupoid stays invalid through CAT."""
    g = fx.pointed_arrow_groupoid()
    n, s, r_s = g.n, g.names.index("s"), g.names.index("r_s")
    bad = _groupoid_copy(g, comp={**g.comp, (r_s, s): {"n": n, "-1": -1}[value]})
    got = outcome(bad.validate_order)
    assert got[0] == "report"
    assert got == outcome(_groupoid_copy(g).validate_order)
    assert not bad.is_valid() and not bad.validate_groupoid().clause_ok("CAT")


def test_order_check_skips_missing_composites():
    """`validate_order` called without `validate_groupoid` on the pointed
    arrow with the composable pair (r_s, s) missing from comp returns the
    valid groupoid's report, not a KeyError: OG2 skips the quadruples that
    read the missing composite, and CAT reports it."""
    g = fx.pointed_arrow_groupoid()
    s, r_s = g.names.index("s"), g.names.index("r_s")
    bad = _groupoid_copy(g, comp={k: v for k, v in g.comp.items() if k != (r_s, s)})
    assert g.composable(r_s, s) and (r_s, s) not in bad.comp
    got = outcome(bad.validate_order)
    assert got[0] == "report"
    assert got == outcome(_groupoid_copy(g).validate_order)
    assert got == outcome(oracles.validate_order, bad)
    assert not bad.is_valid() and not bad.validate_groupoid().clause_ok("CAT")


def test_is_inductive_matches_the_meets_of_the_oracle():
    """The kept meet table gives the per-pair answers of the oracle on
    every case, valid or not."""
    inductive = 0
    for label, g in GROUPOIDS:
        objs = sorted(g.objects)
        meets = (oracles.meet_objects(g, e, f) for e in objs for f in objs)
        want = outcome(lambda: all(m is not None for m in meets))
        assert outcome(_groupoid_copy(g).is_inductive) == want, label
        inductive += want == ("value", True)
    assert 0 < inductive < len(GROUPOIDS)


def test_esn_to_semigroup_reads_the_meet_table(monkeypatch):
    """`is_inductive` and the pseudoproduct table read the kept meets: a
    fresh ESN groupoid of I_4 goes back to I_4 without a `meet_objects`
    call (512 when both asked it per pair of objects)."""
    calls = []
    meet = OrderedGroupoid.meet_objects

    def counted(self, e, f):
        calls.append((e, f))
        return meet(self, e, f)

    s = symmetric_inverse_monoid(4)
    g = _groupoid_copy(esn_to_groupoid(s))
    monkeypatch.setattr(OrderedGroupoid, "meet_objects", counted)
    assert esn_to_semigroup(g) == s
    assert calls == []


@pytest.mark.parametrize(
    "table",
    [[], [[0]], [[0, 2], [1, 1]], [[0, -1], [1, 1]], [[0, 1, 3], [1, 1, 1], [2, 1, 0]], [[0, 1], [1]]],
)
def test_light_certificate_proves_nothing_below_two_rows_or_out_of_range(table):
    assert light_certificate(table) is False


def test_light_certificate_accepts_an_associative_table_of_lists():
    # max on {0, 1, 2}: a semilattice
    assert light_certificate([[max(a, b) for b in range(3)] for a in range(3)])
    assert not light_certificate([[(a - b) % 3 for b in range(3)] for a in range(3)])


def test_kept_pseudoproduct_table_equals_the_per_call_pseudoproduct():
    valid = with_none = 0
    for label, g in GROUPOIDS:
        fresh = _groupoid_copy(g)
        if not fresh.is_valid():
            with pytest.raises(InvalidGroupoid):
                fresh._pseudoproducts
            continue
        arrows = range(g.n)
        per_call = _groupoid_copy(g)
        want = tuple(tuple(per_call.pseudoproduct(a, b) for b in arrows) for a in arrows)
        assert fresh._pseudoproducts == want, label
        valid += 1
        with_none += any(None in row for row in want)
    assert valid >= 15 and with_none >= 3


def test_tabulated_esn_to_semigroup_matches_the_pseudoproduct_loop():
    converted = 0
    for label, g in GROUPOIDS:
        got = outcome(esn_to_semigroup, _groupoid_copy(g))
        want = outcome(oracles.esn_to_semigroup, _groupoid_copy(g))
        assert got == want, label
        converted += got[0] == "value"
    assert converted >= 10


def test_esn_to_groupoid_matches_the_pair_scan():
    converted = 0
    for label, s in SEMIGROUPS + ONE_BAD_MIDDLE:
        got = outcome(esn_to_groupoid, InverseSemigroup(s.names, s.mult))
        want = outcome(oracles.esn_to_groupoid, InverseSemigroup(s.names, s.mult))
        assert got == want, label
        if got[0] == "value":
            # equality ignores the insertion order of comp, which issue
            # lists and the kept tables follow
            assert list(got[1].comp.items()) == list(want[1].comp.items()), label
            converted += 1
    assert converted >= 10


def test_index_walks_match_the_pair_scans():
    """`products()` and `order_pairs()` against the n^2 filter scans they
    replaced, in the same order, on every valid structure of the cases:
    the fixtures, the generated groupoids, I_2, I_3, their ESN images and
    the perturbed copies that stay valid."""
    walked = []
    for label, x in GROUPOIDS + SEMIGROUPS:
        fresh = _groupoid_copy(x) if isinstance(x, OrderedGroupoid) else InverseSemigroup(x.names, x.mult)
        if not fresh.is_valid():
            continue
        index = GradedIndex(fresh)
        assert list(index.products()) == oracles.index_products(fresh), label
        assert list(index.order_pairs()) == oracles.index_order_pairs(fresh), label
        walked.append(label)
    assert {label for label, _ in _base_structures()} <= set(walked)
    assert "esn(I_3)" in walked


@pytest.mark.parametrize("label,g", GROUPOIDS, ids=[label for label, _ in GROUPOIDS])
def test_composite_table_matches_comp(label, g):
    """On every case and on a relabeled copy: partners are the arrows with
    range dom g, ascending.  On a valid copy `products()`, which reads
    comp along the partners, is the pair scan, and on the copy the order
    report is the oracle's."""
    perm = list(range(g.n))
    random.Random(label).shuffle(perm)
    moved = g.relabeled(perm)
    for x in (_groupoid_copy(g), moved):
        arrows = range(x.n)
        assert x._partners == tuple(tuple(b for b in arrows if x.ran[b] == x.dom[a]) for a in arrows)
        if x.is_valid():
            assert list(GradedIndex(x).products()) == oracles.index_products(x), label
    assert outcome(moved.validate_order) == outcome(oracles.validate_order, moved), label


def test_some_cases_with_rows_fail_og2_or_have_a_key_that_does_not_compose():
    """Some case whose composable pairs all compose to arrows fails OG2, so
    the comparisons with the oracle cover OG2's issue list where no
    quadruple is skipped, not only where a composite is missing; and some
    cases have every composite and a key that does not compose, so the
    "defined iff composable" pass meets a stray key beside a complete
    composite table."""
    failing = []
    for label, g in GROUPOIDS:
        fresh = _groupoid_copy(g)
        if _composes_to_arrows(fresh) and not fresh.validate_order().clause_ok("OG2"):
            failing.append(label)
    assert len(failing) >= 3
    extra = [label for label, g in GROUPOIDS if "copied to" in label and _composes_to_arrows(g)]
    assert len(extra) >= 10


def test_pseudo_composable_set_is_read_from_the_pseudoproduct_table():
    """The h whose range meets the domain of inv(g), as the per-arrow scan
    over object meets found them, on both valid fixture groupoids, the
    ESN groupoids of I_2, I_3 and I_4, and every valid case (some of the
    generated ones are not inductive)."""
    cases = [fx.pointed_arrow_groupoid(), fx.stacked_involutions_groupoid()]
    cases += [esn_to_groupoid(symmetric_inverse_monoid(n)) for n in (2, 3, 4)]
    cases += [x for x in (_groupoid_copy(g) for _, g in GROUPOIDS) if x.is_valid()]
    for g in cases:
        meets = {(e, f): oracles.meet_objects(g, e, f) for e in g.objects for f in g.objects}
        for a in g.arrows():
            d = g.dom[g.inv[a]]
            want = tuple(h for h in g.arrows() if meets[(d, g.ran[h])] is not None)
            assert g.pseudo_composable_set(a) == want, (g, a)
    assert sum(len(w) < g.n for g in cases for w in map(g.pseudo_composable_set, g.arrows())) > 0


def test_every_checked_clause_fails_on_some_case():
    """The comparisons above meet a failing report for each of these
    clauses, so they cover the issue lists of every check."""
    failing = set()
    for _, g in GROUPOIDS:
        fresh = _groupoid_copy(g)
        for rep in (outcome(fresh.validate_groupoid), outcome(fresh.validate_order)):
            if rep[0] == "report":
                failing |= {clause for clause, ok in rep[2].items() if not ok}
    for _, s in SEMIGROUPS:
        rep = outcome(InverseSemigroup(s.names, s.mult).validate)
        failing |= {clause for clause, ok in rep[2].items() if not ok}
    assert {"CAT", "ORD", "OG1", "OG2", "OG3", "OG3*", "ASSOC", "INVERSES"} <= failing
    assert len(GROUPOIDS) >= 100 and len(SEMIGROUPS) >= 20


def test_the_compared_calls_raise_on_some_perturbed_copies():
    """Restriction, corestriction and pseudoproduct each raise on some copy,
    so the comparison above covers their exceptions; the order check
    returns a report on every copy, missing composites included."""
    kinds = set()
    for _, g in GROUPOIDS:
        if g.n > PSEUDOASSOC_MAX_ARROWS:
            continue
        for key, result in _groupoid_outcomes(_groupoid_copy(g), None).items():
            if result[0] == "raised":
                kinds.add((key[0] if isinstance(key, tuple) else key, result[1]))
    assert ("restriction", "NotBelowDomain") in kinds
    assert ("corestriction", "NotBelowRange") in kinds
    assert ("pseudoproduct", "InvalidGroupoid") in kinds
    assert not any(name == "validate_order" for name, _ in kinds)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_warshall_closure_matches_the_fixpoint_loop(data):
    """The order closure against the loop it replaced, on drawn relations
    (cycles and repeated pairs included)."""
    n = data.draw(st.integers(1, 12))
    arrow = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(arrow, arrow), max_size=3 * n))
    assert _closure(n, pairs) == oracles.order_closure(n, pairs)
