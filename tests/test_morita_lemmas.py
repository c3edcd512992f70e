"""The Morita report read from `basis_products` and the unit lemmas equals
the report formed by dense products.

`skew._morita_core` reads every span from `basis_products` and, when
1_R 1_R = 1_R and the global action's anchor units are a two-sided unit of
T, takes MOR(surj), MOR(unital) and MOR(idem) from the lemmas instead of
their spans.  `oracles.morita_core` keeps the report as the library formed
it before: both rings built afresh and every span one dense `mul` per pair.
Here the two are compared, clause by clause in dict order and dim by dim,
on every Morita context of the corpus, the glob rungs m = 2..5, seeded
random restrictions of global actions and their rebased copies, the two
semigroup pipelines and two forged quotients T: one whose anchor unit
image is a unit on the left only, and one whose square T T is smaller than
T.  Each call's route (lemmas or spans) is read off the names `skew` hands
to `short_cut`.
"""

import random
import sys
from pathlib import Path

import pytest

from ogaction import fixtures as fx
from ogaction import skew
from ogaction.actions import is_unital, standard_restriction
from ogaction.algebras import Algebra
from ogaction.corpus import CORPUS
from ogaction.globalize import (
    build_globalization,
    build_minimal_globalization,
    globalize_inverse_semigroup_action,
)
from ogaction.linalg import LinMap
from ogaction.tasks import run_tasks
from ogaction.workspace import dump_workspace_doc, load_workspace

from generators import random_global_action, random_ideal, random_invertible, rebased_action
from oracles import morita_core

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the generator never imports ogaction)

LEMMA_CLAUSES = ("MOR(surj)", "MOR(unital)", "MOR(idem)")


def _routes(monkeypatch) -> list[str]:
    """'lemmas' or 'spans' per Morita call, by whether MOR(unital) was given
    a fast answer."""
    routes = []
    real = skew.short_cut

    def noted(name, fast, full):
        if name.startswith("MOR(unital)"):
            routes.append("spans" if fast is None else "lemmas")
        return real(name, fast, full)

    monkeypatch.setattr(skew, "short_cut", noted)
    return routes


def _same_as_oracle(a, gl, r_ring=None):
    rep = skew.morita_context(a, gl, r_ring)
    want = morita_core(a, gl)
    assert list(rep.clauses.items()) == list(want.clauses.items())
    assert list(rep.dims.items()) == list(want.dims.items())
    return rep


def _loaded(tmp_path, name, doc):
    path = tmp_path / name
    dump_workspace_doc(doc, path)
    return load_workspace(path)


def test_every_corpus_morita_context_matches_the_oracle(monkeypatch, tmp_path):
    """Each Morita call of a full corpus run, with the ring R the run kept."""
    routes = _routes(monkeypatch)
    seen = []

    def compared(a, gl, r_ring=None):
        seen.append(a.name)
        return _same_as_oracle(a, gl, r_ring)

    monkeypatch.setattr("ogaction.tasks.morita_context", compared)
    for name, make in CORPUS.items():
        reports = run_tasks(_loaded(tmp_path, name, make()))
        assert all(r.status != "error" for r in reports), name
    assert seen == ["restricted_swap", "restricted_swap", "block_swap_b2"]
    assert routes == ["lemmas"] * 3


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_glob_rungs_match_the_oracle(monkeypatch, tmp_path, m):
    """Both globalizations of the glob rungs m = 2..5 (seed 1; m = 5 keeps
    coordinates (3, 2), as the size ladder builds it)."""
    if m == 5:
        doc = gen.glob_rung(random.Random(1), 5, (3, 2))
    else:
        doc = gen.workload_docs("glob_ladder", 1)[f"glob_m{m}.json"]
    a = _loaded(tmp_path, f"glob_m{m}.json", doc).actions["restricted"]
    routes = _routes(monkeypatch)
    for build in (build_globalization, build_minimal_globalization):
        rep = _same_as_oracle(a, build(a))
        assert rep.ok and rep.dims["T"] == 2 * m * m
    assert routes == ["lemmas", "lemmas"]


def test_random_restrictions_and_rebased_copies_match_the_oracle(monkeypatch):
    """Seeded standard restrictions of random global actions, each also
    moved to a random basis of the carrier, under both constructions; a
    global action is its own globalization, so `build_minimal_globalization`
    on it is compared too."""
    rng = random.Random(35)
    routes = _routes(monkeypatch)
    done = 0
    while done < 8:
        beta, _ = random_global_action(rng, max_dim=4)
        restricted = standard_restriction(beta, random_ideal(rng, beta))
        if not is_unital(restricted):
            continue
        n, p = restricted.carrier.dim, restricted.carrier.p
        for a in (beta, restricted, rebased_action(restricted, random_invertible(rng, n, p))):
            assert a.validate().ok
            for build in (build_globalization, build_minimal_globalization):
                _same_as_oracle(a, build(a))
        done += 1
    assert len(routes) == 48 and set(routes) == {"lemmas"}


def test_semigroup_pipelines_take_one_route_each(monkeypatch, tmp_path):
    """brandt_b2's pipeline takes the lemmas; inv_i2's, whose 1_R sums the
    units of comparable idempotents and is not idempotent, takes the spans."""
    brandt = _loaded(tmp_path, "brandt_b2.json", CORPUS["brandt_b2.json"]()).inv_actions["block_swap_b2"]
    inv_i2 = _loaded(tmp_path, "inv_i2.json", gen.workload_docs("inv_monoid", 1)["inv_i2.json"])
    routes = _routes(monkeypatch)
    reports = [
        _same_as_oracle(a, globalize_inverse_semigroup_action(a))
        for a in (brandt, inv_i2.inv_actions["natural"])
    ]
    assert routes == ["lemmas", "spans"]
    assert [r.dims["one_r_idempotent"] for r in reports] == [1, 0]


def _forged(o: skew.OrderedSkewRing, left_unit: bool) -> skew.OrderedSkewRing:
    """o with its quotient T replaced by T + M, M a copy of T with M M = 0
    and M T = 0.  T M is T's product moved into M when `left_unit`, so the
    anchor unit image is a unit on the left only; otherwise T M = 0, so the
    image is no unit and T T misses M.  Both are associative."""
    q, n = o.quotient, o.quotient.dim
    products = [dict(row) for row in q.products] + [{} for _ in range(n)]
    if left_unit:
        for i, row in enumerate(q.products):
            products[i].update({n + j: {n + k: c for k, c in kc.items()} for j, kc in row.items()})
    big = Algebra.from_products(q.p, 2 * n, tuple(products), check=True, name="forged T")
    proj = LinMap(o.projection.domain, big.space(), tuple(row + (0,) * n for row in o.projection.matrix))
    return skew.OrderedSkewRing(o.skew, o.n_ideal, big, proj)


@pytest.mark.parametrize("left_unit", [True, False], ids=["left-unit", "no-unit"])
def test_a_forged_T_without_a_two_sided_unit_takes_the_spans(monkeypatch, left_unit):
    """Both forged rings keep 1_R idempotent, so only the unit check sends
    them to the spans.  On the ring without a unit the lemmas would be
    wrong: MOR(idem) fails there."""
    a = fx.pointed_arrow_partial_action()
    gl = build_minimal_globalization(a)
    real = skew.build_ordered_skew

    def forging(s):
        o = real(s)
        return _forged(o, left_unit) if s.source is gl.global_action else o

    monkeypatch.setattr(skew, "build_ordered_skew", forging)
    t_ring = forging(skew.build_skew(gl.global_action))
    assert skew._unit_of(t_ring) is None
    routes = _routes(monkeypatch)
    rep = _same_as_oracle(a, gl)
    assert routes == ["spans"]
    assert rep.dims["one_r_idempotent"] == 1 and rep.dims["T"] == t_ring.quotient.dim
    assert rep.clauses["MOR(idem)"] is left_unit
    assert not left_unit or all(rep.clauses[c] for c in LEMMA_CLAUSES)
