"""Skew rings and quotients built from sparse entries, against the dense loops.

`build_skew` forms each twisted product alpha_g(alpha_{g^-1}(u) v) from the
carrier's constants, the ideals' entries and the maps' image entries, and
`quotient` reads each constant as a residual; `tests/oracles.py` keeps both
as the pair-at-a-time loops with `mul`.  The library must give the same
`products`, dict order included, the same projection matrix and the same
`InvalidAction` messages on: every fixture action, the generated glob and
matrix rungs, a global action of a globalization, relabeled copies, and
copies moved along an invertible P, whose ideals are in general not
coordinate subspaces (so `Subspace.split_entries` eliminates).  Quotients
are taken by the order ideal N (zero on the rungs) and by the ideal closure
of random vectors.
"""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogaction import fixtures as fx
from ogaction.actions import Action
from ogaction.algebras import Algebra, ideal_closure, quotient
from ogaction.errors import InvalidAction
from ogaction.globalize import build_minimal_globalization
from ogaction.linalg import Subspace
from ogaction.skew import build_ordered_skew, build_skew, check_skew_associative
from ogaction.validation import ValidationReport
from ogaction.workspace import dump_workspace_doc, load_workspace

import extra_fixtures as xf
import oracles
from generators import rebased_action

ROOT = Path(__file__).resolve().parents[1]


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _rung_actions(tmp):
    """The seed-1 glob rungs and the M_3 and M_4 matrix rungs."""
    gen, out = _gen(), []
    for workload, names in (("glob_ladder", None), ("matrix_carrier", ("matrix_m3.json", "matrix_m4.json"))):
        for name, doc in gen.workload_docs(workload, 1).items():
            if names is None or name in names:
                path = tmp / name
                dump_workspace_doc(doc, path)
                out.extend((name, a) for a in load_workspace(path).actions.values())
    return out


FIXTURES = (
    fx.pointed_arrow_global_action,
    fx.pointed_arrow_partial_action,
    fx.stacked_involutions_action,
    fx.brandt_action,
    fx.chain_semilattice_action,
    fx.nilpotent_edge_action,
    xf.nilpotent_edge_po_action,
    xf.zero_product_point,
    xf.zero_ring_swap_action,
)


@pytest.fixture(scope="module")
def actions(tmp_path_factory):
    out = [(make.__name__, make()) for make in FIXTURES]
    out += _rung_actions(tmp_path_factory.mktemp("rungs"))
    glob_m2 = next(a for name, a in out if name == "glob_m2.json")
    out.append(("glob_m2 minimal global", build_minimal_globalization(glob_m2).global_action))
    return [(name, a) for name, a in out if a.validate().ok]


def _items(products):
    """Products with every dict as its list of items, so order counts."""
    return [[(j, list(kc.items())) for j, kc in row.items()] for row in products]


def _invertible(n, p, rng):
    while True:
        rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)]
        if Subspace.span(n, rows, p).rank == n:
            return rows


def relabeled(a, perm):
    """a over its structure with grades renumbered by perm."""
    back = sorted(range(a.structure.n), key=perm.__getitem__)
    return Action(
        a.structure.relabeled(perm), a.carrier, [a.ideal_of[i] for i in back], [a.map_of[i] for i in back]
    )


def _shuffled(alg, rng):
    """alg with the items of every product dict in a random order."""

    def mixed(d):
        items = list(d.items())
        rng.shuffle(items)
        return dict(items)

    products = tuple(mixed({j: mixed(kc) for j, kc in row.items()}) for row in alg.products)
    return Algebra.from_products(alg.p, alg.dim, products, check=False)


def _assert_quotient_matches(alg, ideal, rng):
    """The quotient of alg, and of alg with its dicts shuffled, equals the
    dense loop's, dict order included."""
    products, projection = oracles.quotient_constants(alg, ideal)
    for a in (alg, _shuffled(alg, rng)):
        q, proj = quotient(a, ideal)
        assert _items(q.products) == _items(products)
        assert proj.matrix == projection


def test_skew_rings_and_quotients_match_the_dense_loops(actions):
    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=st.integers(0, 10**6), move=st.sampled_from(("plain", "relabel", "rebase")), seed=st.integers(0, 2**32 - 1))
    def check(case, move, seed):
        rng = random.Random(seed)
        name, a = actions[case % len(actions)]
        if move == "relabel":
            perm = list(range(a.structure.n))
            rng.shuffle(perm)
            a = relabeled(a, perm)
        elif move == "rebase":
            if a.carrier.dim > 5:
                return
            a = rebased_action(a, _invertible(a.carrier.dim, a.carrier.p, rng))
        assert a.validate().ok, name
        s = build_skew(a)
        assert _items(s.algebra.products) == _items(oracles.skew_products(a)), (name, move)
        seen.add((move, any(d._free is None for d in a.ideal_of)))
        if not check_skew_associative(s).ok:
            return
        o = build_ordered_skew(s)
        _assert_quotient_matches(s.algebra, o.n_ideal, rng)
        seen.add(("order N", o.n_ideal.rank > 0))
        n, p = s.algebra.dim, s.algebra.p
        if n > 14:
            return
        gens = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        ideal = ideal_closure(s.algebra, gens)
        _assert_quotient_matches(s.algebra, ideal, rng)
        seen.add(("N", ideal.rank > 0, ideal._free is None))

    check()
    # Every move ran, rebasing gave ideals that are not coordinate subspaces,
    # and quotients were taken by N = 0, by a non-zero order ideal and by a
    # non-coordinate N.
    assert {("plain", False), ("relabel", False), ("rebase", True)} <= seen
    assert {("N", True, True), ("order N", True), ("order N", False)} <= seen


def _smaller(sub, rng):
    """A line in sub when its rank is at least 2 (in general not a
    coordinate subspace after a rebase), else the zero subspace."""
    if sub.rank < 2:
        return Subspace.zero(sub.dim, sub.p)
    while True:
        v = sub.from_coordinates([rng.randrange(sub.p) for _ in range(sub.rank)])
        if any(v):
            return Subspace.span(sub.dim, [v], sub.p)


def test_rebased_skew_rings_fail_where_the_dense_loop_fails(actions):
    """Forged copies of each rebased action with one ideal, or one map's
    domain, cut down to a line or to zero: `build_skew` raises the loop's
    first message, or gives its products when nothing fails."""
    rng = random.Random(5)
    raised = set()
    for name, a in actions:
        if a.carrier.dim > 9 or not a.carrier.dim:
            continue
        b = rebased_action(a, _invertible(a.carrier.dim, a.carrier.p, rng))
        for g in range(b.structure.n):
            ideals, maps = list(b.ideal_of), list(b.map_of)
            if rng.random() < 0.5:
                cut = _smaller(maps[g].domain, rng)
                maps[g] = maps[g].restrict(cut)
            else:
                cut = ideals[g] = _smaller(ideals[g], rng)
            forged = Action(b.structure, b.carrier, ideals, maps, name="forged")
            object.__setattr__(forged, "_report", ValidationReport("forged", ()))
            try:
                expected = oracles.skew_products(forged)
            except InvalidAction as e:
                with pytest.raises(InvalidAction) as got:
                    build_skew(forged)
                assert str(got.value) == str(e), name
                raised.add(("domain" if str(e).endswith("leaves its domain") else "grade", cut._free is None))
            else:
                assert _items(build_skew(forged).algebra.products) == _items(expected), name
    assert {("domain", True), ("grade", True), ("domain", False), ("grade", False)} <= raised


def test_split_entries_reads_coordinates_and_residual():
    """On random subspaces, coordinates and residual equal the dense kernel's."""
    rng = random.Random(11)
    for _ in range(300):
        p, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 7)
        sub = Subspace.span(n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))], p)
        if rng.random() < 0.5 and sub.rank:
            v = sub.from_coordinates([rng.randrange(p) for _ in range(sub.rank)])
        else:
            v = tuple(rng.randrange(p) for _ in range(n))
        y = {j: c for j, c in enumerate(v) if c}
        items = list(y.items())
        rng.shuffle(items)
        coords, rest = sub.split_entries(dict(items))
        residual = oracles.reduce(sub, v)
        assert rest == {j: c for j, c in enumerate(residual) if c}
        assert [k for k, _ in coords] == sorted(k for k, _ in coords)
        if not rest:
            assert tuple(dict(coords).get(k, 0) for k in range(sub.rank)) == oracles.coordinates_of(sub, v)
