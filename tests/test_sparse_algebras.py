"""The sparse structure constants against the dense reference.

`Algebra` keeps only the non-zero products and runs its associator scan
along chains of them; `oracles.naive_assoc_failures` multiplies dense basis
vectors for every triple.  The two must agree on every ring the library
derives as well as on random tables, associative or not.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogaction import fixtures as fx
from ogaction.actions import (
    general_restriction,
    is_strong,
    is_unital,
    standard_restriction,
)
from ogaction.algebras import (
    Algebra,
    _associator_failures,
    diagonal_algebra,
    ideal_closure,
    product_ring,
    quotient,
    subalgebra_on,
)
from ogaction.errors import InvalidAlgebra
from ogaction.globalize import (
    build_globalization,
    build_minimal_globalization,
    globalize_inverse_semigroup_action,
)
from ogaction.groupoids import OrderedGroupoid
from ogaction.skew import (
    build_ordered_skew,
    build_skew,
    check_skew_associative,
    inv_sgp_morita,
    morita_context,
)
from ogaction.workspace import algebra_to_json

import extra_fixtures as xf
from generators import random_global_action, random_ideal, random_monotone_family
from oracles import naive_assoc_failures, naive_mul

# The dense oracle costs about dim**5 steps: 0.5 s at dim 24.
ORACLE_MAX_DIM = 24


def _build_everything(a):
    """Every ring the library derives from one action: skew ring, ordered
    quotient, both globalizations (product ring and subalgebra) and the
    Morita context's rings."""
    if not a.validate().ok:
        return
    s = build_skew(a)
    if check_skew_associative(s).ok:
        build_ordered_skew(s)
    if not is_unital(a):
        return
    if isinstance(a.structure, OrderedGroupoid):
        morita_context(a, build_globalization(a))
        if is_strong(a):
            morita_context(a, build_minimal_globalization(a))
    else:
        inv_sgp_morita(a, globalize_inverse_semigroup_action(a))


def _algebras_built(monkeypatch):
    """Every algebra constructed by the fixtures, by random actions from
    `generators` with a standard and a general restriction of each, and by
    everything built from those actions, including those refused as
    non-associative."""
    built = []
    setup = Algebra._setup

    def recording(self, *args, **kwargs):
        built.append(self)
        setup(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "_setup", recording)
    actions = [
        fx.pointed_arrow_global_action(),
        fx.pointed_arrow_partial_action(),
        fx.stacked_involutions_action(),
        xf.nilpotent_edge_po_action(),
        xf.zero_ring_swap_action(),
        xf.zero_product_point(),
        fx.brandt_action(),
        fx.chain_semilattice_action(),
        fx.nilpotent_edge_action(),
    ]
    rng = random.Random(11)
    for _ in range(8):
        beta, coords = random_global_action(rng, max_dim=4)
        actions += [
            beta,
            standard_restriction(beta, random_ideal(rng, beta)),
            general_restriction(beta, random_monotone_family(rng, beta, coords)),
        ]
    for a in actions:
        _build_everything(a)
    for alg in (fx.dual_numbers(), xf.multiplier_twist_algebra(), xf.matrix_units_f2()):
        quotient(alg, ideal_closure(alg, [alg.basis_vector(alg.dim - 1)]))
        product_ring(alg, 3)
    # Rings derived from non-associative ones, refused at construction.
    skew = build_skew(xf.zero_ring_swap_action()).algebra
    bent = Algebra(5, 2, [[(0, 1), (0, 0)], [(1, 0), (0, 0)]], check=False, name="bent")
    for derive in (lambda: product_ring(bent, 3), lambda: subalgebra_on(skew, skew.space())):
        with pytest.raises(InvalidAlgebra):
            derive()
    monkeypatch.undo()
    return [alg for alg in built if hasattr(alg, "products")]


def test_sparse_scan_matches_the_dense_oracle_on_every_algebra_built(monkeypatch):
    algebras = _algebras_built(monkeypatch)
    distinct = {(alg.name, alg): alg for alg in algebras}.values()
    checked = [alg for alg in distinct if alg.dim <= ORACLE_MAX_DIM]
    failing = 0
    for alg in checked:
        expected = naive_assoc_failures(alg.table, alg.p)
        assert _associator_failures(alg) == expected[:32], alg
        failing += bool(expected)
    kinds = {
        "skew ring": lambda n: n == "skew ring",
        "product ring": lambda n: "^" in n,
        "quotient": lambda n: n.endswith("/ideal"),
        "subalgebra": lambda n: n.endswith("::globalized-carrier") or "|" in n,
    }
    counts = {kind: sum(1 for alg in checked if is_kind(alg.name)) for kind, is_kind in kinds.items()}
    assert min(counts.values()) >= 10 and failing >= 4, (counts, failing)


PRIMES = (2, 3, 5, 7, 2**31 - 1)


def _random_table(rng, n, p, density):
    return [
        [
            [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_sparse_scan_and_product_match_the_oracle_on_random_tables():
    outcomes = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 6),
        p=st.sampled_from(PRIMES),
        density=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, p, density, seed):
        rng = random.Random(seed)
        table = _random_table(rng, n, p, density)
        alg = Algebra(p, n, table, check=False)
        expected = naive_assoc_failures(table, p)
        assert _associator_failures(alg) == expected[:32]
        assert _associator_failures(alg, limit=n**3) == expected
        for _ in range(3):
            x = tuple(rng.randrange(p) for _ in range(n))
            y = tuple(rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n))
            assert alg.mul(x, y) == naive_mul(table, p, x, y)
        outcomes.append(bool(expected))

    check()
    assert any(outcomes) and not all(outcomes)


def test_one_algebra_one_identity():
    """Built from a dense table or from sparse products, an algebra is the
    same value: equal, equally hashed, with the same table and JSON."""
    derived = [
        product_ring(xf.matrix_units_f2(), 3),
        diagonal_algebra(7, 4),
        build_skew(fx.pointed_arrow_partial_action()).algebra,
    ]
    for sparse in derived:
        dense = Algebra(sparse.p, sparse.dim, sparse.table, unit=sparse.unit, check=False)
        assert dense == sparse and hash(dense) == hash(sparse)
        assert dense.table == sparse.table
        assert algebra_to_json(dense) == algebra_to_json(sparse)
    # Unreduced entries and the insertion order of the products do not matter.
    alg = fx.dual_numbers()
    shifted = [[[c + alg.p for c in entry] for entry in row] for row in alg.table]
    reordered = Algebra.from_products(
        alg.p,
        alg.dim,
        tuple(dict(reversed(row.items())) for row in alg.products),
        unit=alg.unit,
    )
    for twin in (Algebra(alg.p, alg.dim, shifted, unit=alg.unit), reordered):
        assert twin == alg and hash(twin) == hash(alg) and twin.table == alg.table


def test_importing_the_cli_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, ogaction.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    modules = json.loads(out)
    assert "ogaction.cli" in modules and "numpy" not in modules
