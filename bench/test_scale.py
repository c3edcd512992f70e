"""A library-level size ladder, timed with pytest-benchmark.

    python -m pytest bench --benchmark-only -q

Each case times one call on a fresh structure (built in the untimed setup,
so no kept table or report carries over between rounds) and checks what
the call gave:

- the ESN round trip on I_5 (1,546 elements): validation, the inductive
  groupoid and back;
- the glob rung m = 5 of `perfbench/gen.py` (the pair groupoid on five
  objects), every task of its workspace through `cli.main`, and
  `build_minimal_globalization` alone on its action (ambient dim 125,
  carrier dim 10), each translation a block copy applied by reindexing,
  and `morita_context` alone on that globalization (T of dim 50): R and T
  built, every span read from `basis_products`, and three clauses taken
  from the unit lemmas;
- the associativity check of the M_5 skew ring under a 5-cycle (dim 125),
  which Light's middle-slot certificate decides, and of the same ring on
  the basis b_0 + b_1, b_1, b_2, ...: an isomorphic copy that is not
  monomial, so the chain scan runs over every triple;
- `build_skew` on the M_5 rung and on its action moved to the carrier basis
  b_0 + b_1, b_1, b_2, ... (the maps gain entries), and the quotient of the
  dim-125 skew ring by N = 0;
- `validate_groupoid` and `validate_order` on the ESN groupoid of I_4 (209
  arrows), the largest groupoid a CI step validates: each clause is one
  pass, CAT associativity the loop over its composable triples and OG2 a
  read of `comp` per quadruple;
- the pseudoproduct table of the same groupoid, which only checked mode
  forms at this size: each entry one read of the meets, the arrows below
  each arrow and `comp`;
- `validate_inv_sgp_action` on the natural action of I_4 on F_p^4 (the
  seed-1 `inv_i4` workspace of `perfbench/gen.py`, 43,681 products): P2'
  and P3' read one memo entry per distinct meet, image and map value;
- `build_ordered_skew` on the skew ring of I_3's natural action on F_p^3
  (the seed-1 `inv_i3` workspace, dim 63, built in the setup): the
  associator scan and the ideal closure of the order generators, which
  reads one `basis_products` call per basis row, and the quotient;
- the `inv-pipeline` task with `with_morita` on I_4's natural action (the
  seed-1 `inv_i4` workspace with its task replaced), through `cli.main`,
  one round, its report pinned by a SHA-256: the ideal closure of the
  dim-544 skew ring stops on the span of its generators, so the task ends
  in a report within the CI step's time;
- four failing inputs that price the fallbacks: a non-associative table
  (the scan over all triples), the skew ring with one product given a
  second term (not monomial; the chain scan stops at its 32nd failing
  triple), an action that breaks P2, and a groupoid that fails OG2.

Not part of the tier-1 suite, whose `testpaths` is `tests/`.
"""

from __future__ import annotations

import hashlib
import random
import sys
from itertools import count
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from generators import rebased_action, symmetric_inverse_monoid  # noqa: E402
from oracles import skew_products  # noqa: E402
from ogaction.actions import validate_inv_sgp_action, validate_po_action  # noqa: E402
from ogaction.algebras import Algebra, _associator_failures, _nonzero_products, quotient  # noqa: E402
from ogaction.cli import main  # noqa: E402
from ogaction.globalize import build_minimal_globalization  # noqa: E402
from ogaction.groupoids import OrderedGroupoid  # noqa: E402
from ogaction.linalg import Subspace  # noqa: E402
from ogaction.semigroups import InverseSemigroup, esn_to_groupoid, esn_to_semigroup  # noqa: E402
from ogaction.skew import build_ordered_skew, build_skew, morita_context  # noqa: E402
from ogaction.workspace import dump_workspace_doc, load_workspace  # noqa: E402


@pytest.fixture(scope="module")
def i5():
    return symmetric_inverse_monoid(5)


@pytest.fixture(scope="module")
def i4():
    return symmetric_inverse_monoid(4)


@pytest.fixture(scope="module")
def i4_groupoid(i4):
    return esn_to_groupoid(i4)


def _glob_rung_m5(directory: Path, broken: bool = False) -> Path:
    """The m = 5 rung (kept coordinates (3, 2), seed 1); `broken` empties
    the ideal and map at the first object, which breaks P2."""
    doc = gen.glob_rung(random.Random(1), 5, (3, 2))
    if broken:
        action = doc["actions"]["restricted"]
        action["ideals"]["g0_0"] = action["maps"]["g0_0"] = []
    path = directory / ("glob_m5_broken.json" if broken else "glob_m5.json")
    dump_workspace_doc(doc, path)
    return path


@pytest.fixture(scope="module")
def m5_path(tmp_path_factory):
    """The matrix_carrier rung n = 5 (M_5 under conjugation by a 5-cycle,
    seed 1), written the way `_glob_rung_m5` writes its input."""
    path = tmp_path_factory.mktemp("m5") / "matrix_m5.json"
    dump_workspace_doc(gen.matrix_rung(random.Random(1), 5, 5), path)
    return path


@pytest.fixture(scope="module")
def m5_skew(m5_path):
    """The skew ring of the M_5 rung (dim 125)."""
    return build_skew(load_workspace(m5_path).actions["conj"]).algebra


# M_5 on the basis b_0 + b_1, b_1, b_2, ...: the carrier is not monomial, and
# every conjugation map gains entries.
SHIFT = [tuple(int(k == i or (i, k) == (0, 1)) for k in range(25)) for i in range(25)]


def _validated_m5(path, rebase=False):
    a = load_workspace(path).actions["conj"]
    a = rebased_action(a, SHIFT) if rebase else a
    assert a.validate().ok
    return (a,), {}


def _copy(alg, products):
    return ((Algebra.from_products(alg.p, alg.dim, products, check=False),), {})


def test_esn_round_trip_i5(benchmark, i5):
    def round_trip(s):
        s.require_valid()
        return s, esn_to_semigroup(esn_to_groupoid(s))

    fresh = lambda: ((InverseSemigroup(i5.names, i5.mult),), {})  # noqa: E731
    s, back = benchmark.pedantic(round_trip, setup=fresh, rounds=3)
    assert back is s


def test_glob_rung_m5(benchmark, tmp_path):
    path = _glob_rung_m5(tmp_path)
    outs = (tmp_path / f"out{i}" for i in count())
    rc = benchmark.pedantic(
        lambda out: main(["run", str(path), "--out", str(out)]),
        setup=lambda: ((next(outs),), {}),
        rounds=5,
    )
    assert rc == 0


def test_build_minimal_globalization_m5(benchmark, tmp_path):
    """The minimal globalization alone, on the m = 5 rung's action (25
    arrows, carrier dim 5): each round loads the action afresh and
    validates it in the setup, so the timing holds the strength and
    composition-law gates, the 25 block-copy translations, the piece
    closures, the cut-out and the checklist, with no report kept from an
    earlier round."""
    path = _glob_rung_m5(tmp_path)

    def fresh():
        a = load_workspace(path).actions["restricted"]
        a.require_valid()
        return (a,), {}

    gl = benchmark.pedantic(build_minimal_globalization, setup=fresh, rounds=10)
    assert (gl.ambient.dim, gl.global_action.carrier.dim) == (125, 10) and gl.checklist.ok


def test_morita_context_m5(benchmark, tmp_path):
    """The Morita check alone on the m = 5 rung's minimal globalization:
    each round loads the action and builds the globalization in the setup,
    so the timing holds R, T, the spans and the unit check, with nothing
    kept from an earlier round."""
    path = _glob_rung_m5(tmp_path)

    def fresh():
        a = load_workspace(path).actions["restricted"]
        return (a, build_minimal_globalization(a)), {}

    rep = benchmark.pedantic(morita_context, setup=fresh, rounds=10)
    assert rep.ok and rep.dims == {
        "T": 50, "R": 13, "embedded_copy": 13, "corner": 13, "T1R": 25, "1RT": 25, "T1RT": 50,
        "one_r_idempotent": 1, "copy_faithful": 1,
    }


def _fresh_copy(g):
    """Setup for one round: a copy of g with no kept table or report."""
    return lambda: ((OrderedGroupoid(g.names, g.objects, g.inv, g.comp, g.dom, g.ran, g.leq),), {})


def test_validate_groupoid_i4(benchmark, i4_groupoid):
    rep = benchmark.pedantic(OrderedGroupoid.validate_groupoid, setup=_fresh_copy(i4_groupoid), rounds=10)
    assert i4_groupoid.n == 209 and rep.ok


def test_validate_order_i4(benchmark, i4_groupoid):
    rep = benchmark.pedantic(OrderedGroupoid.validate_order, setup=_fresh_copy(i4_groupoid), rounds=10)
    assert i4_groupoid.n == 209 and rep.ok


def test_pseudoproducts_i4(benchmark, i4, i4_groupoid):
    """The pseudoproduct table of a fresh ESN groupoid of I_4, whose reports
    the ESN theorem records, so the timing holds the meets, the arrows below
    each arrow and the 43,681 entries, and no validation."""

    def fresh():
        s = InverseSemigroup(i4.names, i4.mult)
        s.require_valid()
        return (esn_to_groupoid(s),), {}

    table = benchmark.pedantic(lambda g: g._pseudoproducts, setup=fresh, rounds=10)
    arrows = i4_groupoid.arrows()
    assert table == tuple(tuple(i4_groupoid.pseudoproduct(a, b) for b in arrows) for a in arrows)


@pytest.fixture(scope="module")
def i4_inv_path(tmp_path_factory):
    """The inv_monoid rung n = 4 (I_4 acting on F_p^4, seed 1)."""
    path = tmp_path_factory.mktemp("i4") / "inv_i4.json"
    dump_workspace_doc(gen.workload_docs("inv_monoid", 1)["inv_i4.json"], path)
    return path


def test_validate_inv_action_i4(benchmark, i4_inv_path):
    def fresh():
        a = load_workspace(i4_inv_path).inv_actions["natural"]
        a.index  # validates I_4 outside the timing
        return (a,), {}

    rep = benchmark.pedantic(validate_inv_sgp_action, setup=fresh, rounds=5)
    assert rep.ok and rep.checked == ("IDEAL'", "ISO'", "P1'", "P2'", "P3'")


def test_ordered_skew_i3(benchmark, tmp_path):
    """N is spanned by the differences of each lifted ideal vector along the
    natural order: rank 54, so the quotient has dim 9."""
    path = tmp_path / "inv_i3.json"
    dump_workspace_doc(gen.workload_docs("inv_monoid", 1)["inv_i3.json"], path)
    a = load_workspace(path).inv_actions["natural"]
    o = benchmark.pedantic(build_ordered_skew, setup=lambda: ((build_skew(a),), {}), rounds=5)
    assert o.skew.algebra.dim == 63 and (o.n_ideal.rank, o.quotient.dim) == (54, 9)
    assert set(range(63)) - set(o.n_ideal.pivots) == {45, 52, 53, 54, 56, 59, 60, 61, 62}


# The report of `test_inv_pipeline_i4`, as `cli.main` writes it.
INV_PIPELINE_I4_SHA256 = "3a5c81bb92ebfd901928f97ee75c8b318dad0af7bf547b1be801cedd3c2accdc"


def test_inv_pipeline_i4(benchmark, tmp_path):
    """The seed-1 `inv_i4` workspace with its task replaced by `inv-pipeline`
    with `with_morita`, through `cli.main`, one round: the load, the
    semigroup globalization and its checklist, and the Morita check, which
    builds R from the dim-544 skew ring, whose N (rank 528) is the span of
    its 1,680 order generators and absorbs at once."""
    doc = gen.workload_docs("inv_monoid", 1)["inv_i4.json"]
    doc["tasks"] = [{"id": "inv-pipeline", "task": "inv-pipeline", "inv_action": "natural", "with_morita": True}]
    path = tmp_path / "inv_i4_pipeline.json"
    dump_workspace_doc(doc, path)
    out = tmp_path / "out"
    rc = benchmark.pedantic(lambda: main(["run", str(path), "--out", str(out)]), rounds=1)
    report = (out / "inv-pipeline.json").read_bytes()
    assert rc == 0 and hashlib.sha256(report).hexdigest() == INV_PIPELINE_I4_SHA256


def test_non_associative_table(benchmark):
    """I_3 with the square of its zero (the empty map) moved off the zero:
    Light's test fails and ASSOC is decided by the scan over all triples."""
    s = symmetric_inverse_monoid(3)
    mult = [list(row) for row in s.mult]
    mult[0][0] = 1
    fresh = lambda: ((InverseSemigroup(s.names, mult),), {})  # noqa: E731
    rep = benchmark.pedantic(InverseSemigroup.validate, setup=fresh, rounds=10)
    assert not rep.clause_ok("ASSOC")


def test_skew_ring_m5_certificate(benchmark, m5_skew):
    bad = benchmark.pedantic(
        _associator_failures, setup=lambda: _copy(m5_skew, m5_skew.products), rounds=10
    )
    assert m5_skew.dim == 125 and bad == []


def test_skew_ring_m5_rebased(benchmark, m5_skew):
    n, p = m5_skew.dim, m5_skew.p
    basis = [tuple(int(k == i or (i, k) == (0, 1)) for k in range(n)) for i in range(n)]
    products = tuple(
        _nonzero_products((v[0], (v[1] - v[0]) % p, *v[2:]) for v in (m5_skew.mul(u, w) for w in basis))
        for u in basis
    )
    assert any(len(kc) > 1 for row in products for kc in row.values())
    bad = benchmark.pedantic(_associator_failures, setup=lambda: _copy(m5_skew, products), rounds=3)
    assert bad == []


def test_build_skew_m5(benchmark, m5_path, m5_skew):
    """Every twisted product is one matrix unit: 5 x 5 grade pairs times the
    125 non-zero products of matrix units."""
    s = benchmark.pedantic(build_skew, setup=lambda: _validated_m5(m5_path), rounds=5)
    assert s.algebra.products == m5_skew.products
    assert sum(len(row) for row in m5_skew.products) == 3125


def test_build_skew_m5_rebased(benchmark, m5_path):
    s = benchmark.pedantic(build_skew, setup=lambda: _validated_m5(m5_path, rebase=True), rounds=3)
    assert s.algebra.dim == 125 and s.algebra.products == skew_products(s.source)


def test_quotient_m5_by_zero(benchmark, m5_skew):
    """The quotient of the dim-125 skew ring by N = 0, as the ordered skew
    ring of the M_5 rung takes it: the ring itself and the identity map."""
    zero = Subspace.zero(m5_skew.dim, m5_skew.p)
    q, proj = benchmark.pedantic(
        quotient, setup=lambda: ((_copy(m5_skew, m5_skew.products)[0][0], zero), {}), rounds=5
    )
    assert q.products == m5_skew.products
    assert proj.matrix == Subspace.full(m5_skew.dim, m5_skew.p).basis


def test_skew_ring_m5_one_product_with_two_terms(benchmark, m5_skew):
    """b_0 b_j gains a second term at the next index."""
    rows = [dict(row) for row in m5_skew.products]
    j, kc = next(iter(rows[0].items()))
    (k, c), = kc.items()
    rows[0][j] = {k: c, (k + 1) % m5_skew.dim: 1}
    bad = benchmark.pedantic(_associator_failures, setup=lambda: _copy(m5_skew, tuple(rows)), rounds=3)
    assert bad


def test_action_breaking_p2(benchmark, tmp_path):
    path = _glob_rung_m5(tmp_path, broken=True)
    fresh = lambda: ((load_workspace(path).actions["restricted"],), {})  # noqa: E731
    rep = benchmark.pedantic(validate_po_action, setup=fresh, rounds=10)
    assert not rep.clause_ok("P2")


def test_groupoid_failing_og2(benchmark, i4_groupoid):
    """The ESN groupoid of I_4 without its first strict order pair: only
    OG2 fails, so every other order check runs to the end."""
    g = i4_groupoid
    leq = [list(row) for row in g.leq]
    leq[0][next(b for b in g.arrows() if b and leq[0][b])] = False
    fresh = lambda: ((OrderedGroupoid(g.names, g.objects, g.inv, g.comp, g.dom, g.ran, leq),), {})  # noqa: E731
    rep = benchmark.pedantic(OrderedGroupoid.validate_order, setup=fresh, rounds=10)
    assert rep.clauses() == {"ORD": True, "OG1": True, "OG2": False, "OG3": True, "OG3*": True}
