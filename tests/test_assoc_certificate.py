"""Light's middle-slot certificate in `algebras._associator_failures`.

On every table the issue list equals the dense oracle's prefix, whether the
certificate proves the table associative or the chain scan runs: monomial
tables that are associative (matrix units, contracted semigroup algebras of
subsemigroups of I_3, the skew rings and ordered quotients of the fixture
actions), each with one constant changed or one product moved to another
index, and tables that are not monomial (M_2 after a change of basis, or a
monomial table with one product given a second term).  Every basis is
rescaled by random units first, so the constants are not all 1.
"""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogaction import algebras
from ogaction import fixtures as fx
from ogaction.algebras import Algebra, _associator_failures
from ogaction.linalg import Subspace, express
from ogaction.skew import build_ordered_skew, build_skew, check_skew_associative
from ogaction.workspace import dump_workspace_doc, load_workspace

import extra_fixtures as xf
from generators import symmetric_inverse_monoid
from oracles import naive_assoc_failures

ROOT = Path(__file__).resolve().parents[1]
PRIMES = (2, 3, 5, 7)


def _matrix_units(n):
    """M_n on the matrix units, E_ab at index a*n + b, as (i, j, k, c) terms."""
    return [(a * n + b, b * n + d, a * n + d, 1) for a in range(n) for b in range(n) for d in range(n)]


def _contracted_semigroup(rng):
    """The contracted algebra of the subsemigroup of I_3 generated by the
    empty map and up to two random elements: one basis vector per non-zero
    element, b_s b_t = b_st, or 0 when st is the empty map (index 0)."""
    i3 = symmetric_inverse_monoid(3)
    members = {0, *rng.sample(range(1, len(i3.names)), rng.randint(1, 2))}
    while True:
        grown = members | {i3.mult[s][t] for s in members for t in members}
        if grown == members:
            break
        members = grown
    nonzero = sorted(members - {0})
    at = {s: i for i, s in enumerate(nonzero)}
    return [
        (at[s], at[t], at[i3.mult[s][t]], 1)
        for s in nonzero
        for t in nonzero
        if i3.mult[s][t] != 0
    ]


def _terms_of(alg):
    return [(i, j, k, c) for i, row in enumerate(alg.products) for j, kc in row.items() for k, c in kc.items()]


def _fixture_rings():
    """(p, dim, terms) of every fixture skew ring and ordered quotient."""
    out = []
    for make in (
        fx.pointed_arrow_global_action,
        fx.pointed_arrow_partial_action,
        fx.stacked_involutions_action,
        fx.brandt_action,
        fx.chain_semilattice_action,
        fx.nilpotent_edge_action,
        xf.nilpotent_edge_po_action,
        xf.zero_product_point,
    ):
        s = build_skew(make())
        assert check_skew_associative(s).ok
        for alg in (s.algebra, build_ordered_skew(s).quotient):
            if alg.dim:
                out.append((alg.p, alg.dim, _terms_of(alg)))
    return out


FIXTURE_RINGS = _fixture_rings()


def _table(dim, terms, p):
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in terms:
        table[i][j][k] = (table[i][j][k] + c) % p
    return table


def _rescaled(terms, dim, p, rng):
    """The same algebra on the basis lam_i b_i: lam_i lam_j c / lam_k at (i, j, k)."""
    lam = [rng.randrange(1, p) for _ in range(dim)]
    return [(i, j, k, lam[i] * lam[j] * c * pow(lam[k], -1, p) % p) for i, j, k, c in terms]


def _rebased_m2(p, rng):
    """M_2 on a random basis u_i = sum_a P[i][a] E_a, as a dense table."""
    m2 = Algebra(p, 4, _table(4, _matrix_units(2), p))
    while True:
        rows = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(4)]
        if Subspace.span(4, rows, p).rank == 4:
            break
    return [[list(express(rows, m2.mul(u, v), p)) for v in rows] for u in rows]


def _changed(terms, dim, p, rng, change):
    """terms with one constant changed, one product moved to another index,
    or one product given a second term."""
    terms = list(terms)
    if not terms:
        return terms
    at = rng.randrange(len(terms))
    i, j, k, c = terms[at]
    if change == "constant" and p > 2:
        terms[at] = (i, j, k, rng.choice([x for x in range(1, p) if x != c]))
    elif change == "move" and dim > 1:
        terms[at] = (i, j, rng.choice([x for x in range(dim) if x != k]), c)
    elif change == "two terms" and dim > 1:
        terms.append((i, j, rng.choice([x for x in range(dim) if x != k]), rng.randrange(1, p)))
    return terms


FAMILIES = ("matrix units", "semigroup", "fixture ring", "rebased M_2")
CHANGES = ("none", "constant", "move", "two terms")


def _verdicts(monkeypatch):
    """The certificate's answers, one per `_associator_failures` call from now on."""
    verdicts = []
    certificate = algebras._middle_slot_certificate
    monkeypatch.setattr(
        algebras,
        "_middle_slot_certificate",
        lambda *args: verdicts.append(certificate(*args)) or verdicts[-1],
    )
    return verdicts


def _no_scan(*args):
    raise AssertionError("the chain scan ran")


def test_certificate_and_scan_give_the_oracle_issue_list(monkeypatch):
    verdicts = _verdicts(monkeypatch)
    seen = set()

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(
        family=st.sampled_from(FAMILIES),
        change=st.sampled_from(CHANGES),
        p=st.sampled_from(PRIMES),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(family, change, p, seed):
        rng = random.Random(seed)
        if family == "rebased M_2":
            table = _rebased_m2(p, rng)
            dim = 4
            terms = [
                (i, j, k, c) for i in range(dim) for j in range(dim) for k, c in enumerate(table[i][j]) if c
            ]
        else:
            if family == "matrix units":
                n = rng.randint(1, 3)
                dim, terms = n * n, _matrix_units(n)
            elif family == "semigroup":
                terms = _contracted_semigroup(rng)
                dim = 1 + max(max(i, j, k) for i, j, k, _ in terms) if terms else 1
            else:
                p, dim, terms = rng.choice(FIXTURE_RINGS)
            terms = _rescaled(terms, dim, p, rng)
        terms = _changed(terms, dim, p, rng, change)
        table = _table(dim, terms, p)
        alg = Algebra(p, dim, table, check=False)
        expected = naive_assoc_failures(table, p)
        for limit in (1, 32):
            assert _associator_failures(alg, limit) == expected[:limit], (family, change)
        monomial = all(len(kc) == 1 for row in alg.products for kc in row.values())
        seen.add((monomial, bool(expected), verdicts[-1]))

    check()
    # Proved by the certificate, refuted by it, and not monomial, both
    # associative and not.
    assert {(True, False, True), (True, True, False), (False, False, False), (False, True, False)} <= seen


def test_matrix_carrier_rings_are_decided_without_the_scan(monkeypatch, tmp_path):
    """The carrier and skew ring of each seed-1 matrix_carrier rung (M_n(F_p)
    under conjugation by an n-cycle, n = 3, 4, 5), and the ordered
    quotients up to n = 4."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for name, doc in gen.workload_docs("matrix_carrier", 1).items():
        path = tmp_path / name
        dump_workspace_doc(doc, path)
        a = load_workspace(path).actions["conj"]
        s = build_skew(a)
        monkeypatch.setattr(algebras, "_reduced", _no_scan)
        rings = [a.carrier, s.algebra]
        if s.algebra.dim <= 64:
            assert check_skew_associative(s).ok
            rings.append(build_ordered_skew(s).quotient)
        for alg in rings:
            assert _associator_failures(alg) == [], (name, alg.dim)
        monkeypatch.undo()


def test_a_table_whose_generators_are_every_index_goes_to_the_scan(monkeypatch):
    """F_p^n: each b_i is idempotent, so the greedy set is every index and
    the certificate gives way to the scan."""
    alg = algebras.diagonal_algebra(5, 4)
    verdicts = _verdicts(monkeypatch)
    assert _associator_failures(alg) == []
    assert verdicts == [False]


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_rescaled_matrix_units_are_decided_without_the_scan(monkeypatch, n, p):
    """M_n(F_p) on the basis lam_i E_i: its constants are not all 1, and the
    two bracketings agree only mod p."""
    terms = _rescaled(_matrix_units(n), n * n, p, random.Random(n + p))
    assert any(c != 1 for *_, c in terms)
    alg = Algebra(p, n * n, _table(n * n, terms, p), check=False)
    monkeypatch.setattr(algebras, "_reduced", _no_scan)
    assert _associator_failures(alg) == []


@pytest.mark.parametrize("n", [2, 3])
def test_one_constant_off_in_matrix_units_is_found(n):
    """E_00 E_01 = 2 E_01 in M_n(F_5): every issue is the oracle's."""
    terms = [(i, j, k, 2 if (i, j) == (0, 1) else c) for i, j, k, c in _matrix_units(n)]
    table = _table(n * n, terms, 5)
    alg = Algebra(5, n * n, table, check=False)
    assert _associator_failures(alg, n**6) == naive_assoc_failures(table, 5) != []


@pytest.mark.parametrize("extra", [(1, 0), (0, 1)])
def test_a_failure_on_one_bracketing_only_is_found(extra):
    """b0 b0 = b1, and b1 b0 = b1 or b0 b1 = b1: in every failing triple one
    bracketing is zero, the left one or the right one."""
    table = _table(2, [(0, 0, 1, 1), (*extra, 1, 1)], 5)
    alg = Algebra(5, 2, table, check=False)
    assert _associator_failures(alg, 8) == naive_assoc_failures(table, 5) != []
