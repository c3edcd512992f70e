"""Checked mode, and the short cuts it checks again.

Five checks take a short cut that a lemma justifies: the full space's
product table is the algebra's own, a declared unit that UNIT checked is
the full space's identity, `is_ideal` reads a closed outer subspace's
table, P3 on a full overlap is the matrix identity M_t M_s = M_st, and IMG
on a whole domain is the map's codomain.  Under `OGACTION_CHECKED=1` (or
`workbench run --checked`) each also runs the check it skips and raises
when the two answers differ.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogaction import actions, algebras, validation
from ogaction.algebras import Algebra, SubringIdentity, identity_of, is_ideal
from ogaction.cli import main
from ogaction.corpus import emit_fixture_corpus
from ogaction.linalg import LinMap, Subspace
from ogaction.tasks import run_tasks
from ogaction.workspace import load_workspace

import oracles
from generators import fixture_builders

ROOT = Path(__file__).resolve().parents[1]


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


# -- P3 on a full overlap against the per-vector loop ----------------------


def _subspace(rng, n, p, rank):
    """A random subspace of F_p^n of rank at most `rank`."""
    return Subspace.span(n, [[rng.randrange(p) for _ in range(n)] for _ in range(rank)], p)


def _map(rng, dom, cod):
    return LinMap(dom, cod, tuple(tuple(rng.randrange(dom.p) for _ in range(cod.rank)) for _ in range(dom.rank)))


def _product(left, right, width, p):
    return tuple(
        tuple(sum(x * right[k][j] for k, x in enumerate(row)) % p for j in range(width))
        for row in left
    )


def _moved(rng, m):
    """m with one matrix entry moved by one, or m itself on an empty matrix."""
    if not m.matrix or not m.matrix[0]:
        return m
    rows = [list(row) for row in m.matrix]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = (rows[i][j] + 1) % m.p
    return LinMap(m.domain, m.codomain, tuple(map(tuple, rows)))


def _other(rng, sub):
    """A subspace of sub's rank other than sub, when one is drawn."""
    for _ in range(8):
        cand = _subspace(rng, sub.dim, sub.p, sub.rank)
        if cand.rank == sub.rank and cand != sub:
            return cand
    return sub


# Each shape keeps alpha_t defined on the overlap, as the validators do.
SHAPES = (
    "full",  # overlap = dom t = dom st, cod t = dom s, cod s = cod st
    "smaller overlap",  # a proper subspace of dom t
    "other product domain",  # dom st != dom t
    "inner ends differ",  # cod t != dom s, of the same rank
    "outer ends differ",  # cod s != cod st, of the same rank
)


def _draw(shape, seed, moved):
    """Three maps s, t, st with M_st = M_t M_s in coordinates, one matrix
    entry moved in the map `moved` (or none), and an overlap, of `shape`."""
    rng = random.Random(seed)
    p, n = rng.choice((2, 3, 5)), rng.randint(2, 5)
    dom_t = _subspace(rng, n, p, rng.randint(1, n))
    mid = _subspace(rng, n, p, rng.randint(1, n))
    cod = _subspace(rng, n, p, rng.randint(1, n))
    mt, ms = _map(rng, dom_t, mid), _map(rng, mid, cod)
    dom_st, cod_t, cod_st, overlap = dom_t, mid, cod, dom_t
    if shape == "smaller overlap":
        overlap = Subspace.span(n, dom_t.basis[: rng.randrange(max(dom_t.rank, 1))], p)
    elif shape == "other product domain":
        dom_st = _other(rng, dom_t)
    elif shape == "inner ends differ":
        cod_t = _other(rng, mid)
    elif shape == "outer ends differ":
        cod_st = _other(rng, cod)
    maps = {
        "t": LinMap(dom_t, cod_t, mt.matrix),
        "s": ms,
        "st": LinMap(dom_st, cod_st, _product(mt.matrix, ms.matrix, cod.rank, p)),
    }
    if moved in maps:
        maps[moved] = _moved(rng, maps[moved])
    a = SimpleNamespace(index=SimpleNamespace(names=("s", "t", "st")), map_of=(maps["s"], maps["t"], maps["st"]))
    return a, overlap


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), moved=st.sampled_from(("none", "t", "s", "st")))
def test_p3_matrix_path_gives_the_loops_messages(shape, seed, moved):
    """M_t M_s = M_st with one entry of one matrix moved (or none): the
    library's messages are the per-vector loop's, in order."""
    a, overlap = _draw(shape, seed, moved)
    assert actions._composite_failures(a, 0, 1, 2, overlap) == oracles.composite_failures(a, 0, 1, 2, overlap)


def test_the_p3_draws_reach_both_answers():
    """A full overlap gives empty and non-empty issue lists, and each other
    shape gives non-empty ones with no entry moved, where the matrices alone
    would agree."""
    seen = set()
    for shape in SHAPES:
        for seed in range(40):
            for moved in ("none", "st"):
                a, overlap = _draw(shape, seed, moved)
                seen.add((shape, moved, bool(oracles.composite_failures(a, 0, 1, 2, overlap))))
    assert {("full", "none", False), ("full", "st", True)} <= seen
    assert ("full", "none", True) not in seen
    for shape in SHAPES[2:]:
        assert (shape, "none", True) in seen, shape


# -- the declared unit --------------------------------------------------------


def _unital_algebras():
    out = []
    for _, make in fixture_builders():
        x = make()
        alg = x if isinstance(x, Algebra) else getattr(x, "carrier", None)
        if isinstance(alg, Algebra) and alg.unit is not None and alg not in out:
            out.append(alg)
    return out


@pytest.mark.parametrize("alg", _unital_algebras(), ids=lambda alg: alg.name or "algebra")
def test_a_checked_unit_is_the_full_spaces_identity(alg):
    """On a fresh checked copy the declared unit answers with no system
    solved; the pair scan finds the same identity, and an unchecked copy
    solves for it."""
    expected = oracles.identity_of(alg, alg.space())
    checked = Algebra.from_products(alg.p, alg.dim, alg.products, unit=alg.unit)
    unchecked = Algebra.from_products(alg.p, alg.dim, alg.products, unit=alg.unit, check=False)
    assert checked._checked_unit == expected and unchecked._checked_unit is None
    assert identity_of(checked, checked.space()) == expected
    assert identity_of(unchecked, unchecked.space()) == expected


# -- checked mode -------------------------------------------------------------


def _workspace_files(tmp):
    """The fixture corpus and the seed-1 matrix_carrier and glob_ladder rungs."""
    gen = _gen()
    files = list(emit_fixture_corpus(tmp / "corpus"))
    for workload in ("matrix_carrier", "glob_ladder"):
        files += gen.write_workload(workload, 1, tmp / workload)
    return files


def test_checked_mode_gives_the_plain_reports(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(validation, "CHECKED", False)
    files = _workspace_files(tmp_path)
    assert len(files) == 11
    for path in files:
        plain = main(["run", str(path), "--json"]), capsys.readouterr()
        assert not validation.CHECKED
        checked = main(["run", str(path), "--json", "--checked"]), capsys.readouterr()
        assert validation.CHECKED
        monkeypatch.setattr(validation, "CHECKED", False)
        assert checked == plain, path.name
        assert plain[0] == 0 and plain[1].err == "", path.name
        assert all(r["status"] == "pass" for r in json.loads(plain[1].out))


def _lying_absorbs(monkeypatch):
    real = algebras._absorbs
    monkeypatch.setattr(algebras, "_absorbs", lambda *args: not real(*args))


def test_a_short_cut_with_a_wrong_answer_raises_in_checked_mode_only(monkeypatch):
    """`is_ideal`'s table read, made to lie, is believed in plain mode, and
    checked mode raises naming it; so does a declared unit that is not one."""
    _lying_absorbs(monkeypatch)
    make = dict(fixture_builders())["fx.dual_numbers"]
    for checked in (False, True):
        monkeypatch.setattr(validation, "CHECKED", checked)
        alg = make()
        block = Subspace.span(alg.dim, [alg.basis_vector(1)], alg.p)
        if checked:
            with pytest.raises(AssertionError, match="short cut 'ideal from the kept table'"):
                is_ideal(alg, block, alg.space())
        else:
            assert is_ideal(alg, block, alg.space()) != oracles.is_ideal(alg, block, alg.space())
    alg = make()
    alg._checked_unit = SubringIdentity(alg.zero(), True)
    with pytest.raises(AssertionError, match="short cut 'declared unit'"):
        identity_of(alg, alg.space())


def test_a_task_reports_the_short_cut_that_disagreed(tmp_path, monkeypatch):
    """Through the task runner, the disagreement is the task's error."""
    _lying_absorbs(monkeypatch)
    monkeypatch.setattr(validation, "CHECKED", True)
    (path,) = [p for p in emit_fixture_corpus(tmp_path) if p.name == "pointed_arrow.json"]
    errors = {r.error for r in run_tasks(load_workspace(path), None)}
    assert (
        "AssertionError: short cut 'ideal from the kept table' disagrees with its full check"
        in errors
    )


def test_the_switch_is_read_from_the_environment():
    code = "from ogaction import validation; print(validation.CHECKED)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for value, expected in (("1", "True"), ("0", "False"), (None, "False")):
        env.pop("OGACTION_CHECKED", None)
        if value is not None:
            env["OGACTION_CHECKED"] = value
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.strip() == expected
