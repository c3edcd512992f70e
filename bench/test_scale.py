"""A library-level size ladder, timed with pytest-benchmark.

    python -m pytest bench --benchmark-only -q

Each case times one call on a fresh structure (built in the untimed setup,
so no kept table or report carries over between rounds) and checks what
the call gave:

- the ESN round trip on I_5 (1,546 elements): validation, the inductive
  groupoid and back;
- the glob rung m = 5 of `perfbench/gen.py` (the pair groupoid on five
  objects), every task of its workspace through `cli.main`;
- three failing inputs that price the fallbacks: a non-associative table
  (the scan over all triples), an action that breaks P2, and a groupoid
  that fails OG2.

Not part of the tier-1 suite, whose `testpaths` is `tests/`.
"""

from __future__ import annotations

import random
import sys
from itertools import count
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from generators import symmetric_inverse_monoid  # noqa: E402
from ogaction.actions import validate_po_action  # noqa: E402
from ogaction.cli import main  # noqa: E402
from ogaction.groupoids import OrderedGroupoid  # noqa: E402
from ogaction.semigroups import InverseSemigroup, esn_to_groupoid, esn_to_semigroup  # noqa: E402
from ogaction.workspace import dump_workspace_doc, load_workspace  # noqa: E402


@pytest.fixture(scope="module")
def i5():
    return symmetric_inverse_monoid(5)


@pytest.fixture(scope="module")
def i4_groupoid():
    return esn_to_groupoid(symmetric_inverse_monoid(4))


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


def test_non_associative_table(benchmark):
    """I_3 with the square of its zero (the empty map) moved off the zero:
    Light's test fails and ASSOC is decided by the scan over all triples."""
    s = symmetric_inverse_monoid(3)
    mult = [list(row) for row in s.mult]
    mult[0][0] = 1
    fresh = lambda: ((InverseSemigroup(s.names, mult),), {})  # noqa: E731
    rep = benchmark.pedantic(InverseSemigroup.validate, setup=fresh, rounds=10)
    assert not rep.clause_ok("ASSOC")


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
