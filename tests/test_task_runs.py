"""Tasks of one run share what they build, and one task's failure never ends
the run.

`globalize` and `morita` tasks of one workspace ask `tasks._glob_of` for
their globalization; it is built once per (action, minimal) and kept on the
workspace with the checklist its build ran.  A build that raises keeps
nothing.  MOR(compat) is read from the quotient's associator scan and
compared here with the triple loop kept in `tests/oracles.py`.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from ogaction import globalize
from ogaction.cli import main
from ogaction.corpus import CORPUS
from ogaction.linalg import Subspace, vec_add
from ogaction.skew import build_ordered_skew, build_skew
from ogaction.tasks import TASK_CATALOG, morita_context, run_task, run_tasks
from ogaction.workspace import Workspace, load_workspace

import extra_fixtures as xf
from oracles import morita_compat

ROOT = Path(__file__).resolve().parents[1]


def _glob_rungs() -> dict[str, dict]:
    """The glob_ladder rungs with a Morita task (m = 2, 3), seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    docs = gen.workload_docs("glob_ladder", 1)
    return {name: docs[name] for name in ("glob_m2.json", "glob_m3.json")}


def _write(tmp_path: Path, name: str, doc: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _count_builds(monkeypatch) -> list[bool]:
    calls = []
    real = globalize._build

    def counted(a, minimal):
        calls.append(minimal)
        return real(a, minimal)

    monkeypatch.setattr(globalize, "_build", counted)
    return calls


def _morita_ids(doc: dict) -> list[str]:
    return [
        t["id"]
        for t in doc["tasks"]
        if t["task"] == "morita" or (t["task"] == "inv-pipeline" and t.get("with_morita"))
    ]


def _loop_compat(a, gl) -> bool:
    """MOR(compat) by the triple loop over T 1_R and 1_R T, with T, 1_R and
    both modules formed afresh."""
    t = build_ordered_skew(build_skew(gl.global_action))
    q = t.quotient
    one_r = (0,) * q.dim
    for e in a.index.anchors:
        one_r = vec_add(one_r, t.project_lift(e, gl.embeddings[e].apply(a.unit_vector(e))), q.p)
    basis = [q.basis_vector(i) for i in range(q.dim)]
    right = Subspace.span(q.dim, [q.mul(x, one_r) for x in basis], q.p)
    left = Subspace.span(q.dim, [q.mul(one_r, x) for x in basis], q.p)
    return morita_compat(q, left.basis, right.basis)


def test_mor_compat_and_dims_match_the_triple_loop_on_every_run_morita_check(
    monkeypatch, tmp_path
):
    """Every Morita check of the corpus and of the glob rungs m = 2, 3: the
    clause equals the loop's value, and each report of a full run equals
    the report of the task run alone with the loop for the clause and a
    globalization built afresh."""
    docs = {name: make() for name, make in CORPUS.items()}
    docs.update(_glob_rungs())
    compared = []

    def both(a, gl, r_ring=None):
        rep = morita_context(a, gl, r_ring)
        assert rep.clauses["MOR(compat)"] == _loop_compat(a, gl)
        compared.append(rep.clauses["MOR(compat)"])
        return rep

    def loop(a, gl, r_ring=None):
        rep = morita_context(a, gl, r_ring)
        return dataclasses.replace(rep, clauses={**rep.clauses, "MOR(compat)": _loop_compat(a, gl)})

    checked = 0
    for name, doc in docs.items():
        path = _write(tmp_path, name, doc)
        monkeypatch.setattr("ogaction.tasks.morita_context", both)
        full = {r.task_id: r.to_dict() for r in run_tasks(load_workspace(path))}
        monkeypatch.setattr("ogaction.tasks.morita_context", loop)
        for tid in _morita_ids(doc):
            ws = load_workspace(path)
            [task] = [t for t in ws.tasks if t["id"] == tid]
            assert run_task(ws, task).to_dict() == full[tid], (name, tid)
            checked += 1
    # pointed_arrow (full and minimal), brandt_b2's pipeline, glob m = 2, 3
    assert checked == 5
    assert compared == [True] * 5


@pytest.mark.parametrize(
    "name, builds", [("pointed_arrow.json", [False, True]), ("glob_m3.json", [False, True])]
)
def test_a_run_builds_each_globalization_once(monkeypatch, tmp_path, name, builds):
    """pointed_arrow has globalize and morita tasks in both flavours; glob_m3
    has both globalize tasks and a minimal morita task."""
    doc = CORPUS[name]() if name in CORPUS else _glob_rungs()[name]
    path = _write(tmp_path, name, doc)
    calls = _count_builds(monkeypatch)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == builds


def test_each_run_builds_afresh(monkeypatch, tmp_path, capsys):
    path = _write(tmp_path, "pointed_arrow.json", CORPUS["pointed_arrow.json"]())
    calls = _count_builds(monkeypatch)
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert calls == [False, True, False, True]


def test_a_full_run_reports_what_each_task_reports_alone(tmp_path, capsys):
    docs = {name: make() for name, make in CORPUS.items()}
    docs.update(_glob_rungs())
    for name, doc in docs.items():
        path = _write(tmp_path, name, doc)
        full = tmp_path / "full" / name
        main(["run", str(path), "--out", str(full)])
        for t in doc["tasks"]:
            tid = t.get("id", t["task"])
            alone = tmp_path / "alone" / name / tid
            main(["run", str(path), "--task", tid, "--out", str(alone)])
            report = f"{tid}.json"
            assert (alone / report).read_bytes() == (full / report).read_bytes(), (name, tid)
    capsys.readouterr()


def test_a_failed_build_is_not_kept_and_each_task_reports_it(monkeypatch, tmp_path):
    """The stacked involutions action is not strong: every task asking for
    its minimal globalization runs the build again and reports NotStrong."""
    doc = CORPUS["stacked_involutions.json"]()
    tasks = [t for t in doc["tasks"] if t["id"] != "globalize-minimal"]
    common = {"action": "stacked_action", "minimal": True}
    tasks += [
        {"id": "globalize-minimal", "task": "globalize", **common},
        {"id": "morita-minimal", "task": "morita", **common},
        {"id": "morita-minimal-expected", "task": "morita", "expect_error": "NotStrong", **common},
    ]
    doc["tasks"] = tasks
    ws = load_workspace(_write(tmp_path, "stacked.json", doc))
    calls = _count_builds(monkeypatch)
    reports = {r.task_id: r for r in run_tasks(ws)}
    glob_err = reports["globalize-minimal"]
    assert glob_err.status == "error" and glob_err.error.startswith("NotStrong: ")
    assert reports["morita-minimal"].to_dict() == {**glob_err.to_dict(), "id": "morita-minimal",
                                                   "task": "morita"}
    expected = reports["morita-minimal-expected"]
    assert expected.status == "pass" and expected.clauses == {"EXPECTED-ERROR": True}
    assert calls.count(True) == 3
    assert set(ws.globalizations) == {("stacked_action", False)}


def test_an_untyped_exception_becomes_the_task_error(monkeypatch, tmp_path, capsys):
    """The last-resort guard: the task reports the exception's type and
    message, the other tasks still run, and the exit code is 1."""

    def boom(ws, t):
        return 1 // 0

    desc, _ = TASK_CATALOG["strong-check"]
    monkeypatch.setitem(TASK_CATALOG, "strong-check", (desc, boom))
    doc = CORPUS["pointed_arrow.json"]()
    doc["tasks"].append(
        {"id": "strong-expected", "task": "strong-check", "action": "restricted_swap",
         "expect_error": "ZeroDivisionError"}
    )
    path = _write(tmp_path, "pointed_arrow.json", doc)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())["results"]
    # expect_error names typed errors only; an untyped one stays an error
    assert {tid for tid, status in summary.items() if status != "pass"} == {
        "strong-check", "strong-expected"
    }
    for tid in ("strong-check", "strong-expected"):
        report = json.loads((out / f"{tid}.json").read_text())
        assert report["status"] == "error"
        assert report["error"] == "ZeroDivisionError: integer division or modulo by zero"
    assert len(summary) == len(doc["tasks"])


def _skew_report(ws, subject: dict, ordered) -> dict:
    t = {"id": "skew", "task": "skew", **subject}
    if ordered is not None:
        t["ordered"] = ordered
    return run_task(ws, t).to_dict()


def _skew_outcome(status, clauses, data, error=None) -> dict:
    return {"id": "skew", "task": "skew", "status": status, "clauses": clauses,
            "data": data, "error": error}


NOT_UNITAL = "NotUnital: ideal at t has no central idempotent identity"


@pytest.mark.parametrize(
    "doc, name, ordered, status, clauses, data, error",
    [
        # A semigroup skew task is ordered by default and reports no unit.
        ("brandt_b2.json", "block_swap_b2", None, "pass", {"ASSOC": True},
         {"skew_dim": 5, "n_dim": 0, "quotient_dim": 5}, None),
        ("brandt_b2.json", "block_swap_b2", False, "pass", {"ASSOC": True},
         {"skew_dim": 5}, None),
        ("brandt_b2.json", "block_swap_b2", True, "pass", {"ASSOC": True},
         {"skew_dim": 5, "n_dim": 0, "quotient_dim": 5}, None),
        ("semilattice.json", "trivial_chain", None, "pass", {"ASSOC": True},
         {"skew_dim": 4, "n_dim": 2, "quotient_dim": 2}, None),
        ("semilattice.json", "trivial_chain", False, "pass", {"ASSOC": True},
         {"skew_dim": 4}, None),
        ("semilattice.json", "trivial_chain", True, "pass", {"ASSOC": True},
         {"skew_dim": 4, "n_dim": 2, "quotient_dim": 2}, None),
        # The ordered quotient has a unital gate; the bare skew ring has none.
        ("nilpotent_edge.json", "square_zero_edge", None, "error", {}, {}, NOT_UNITAL),
        ("nilpotent_edge.json", "square_zero_edge", False, "pass", {"ASSOC": True},
         {"skew_dim": 3}, None),
        ("nilpotent_edge.json", "square_zero_edge", True, "error", {}, {}, NOT_UNITAL),
    ],
)
def test_skew_task_reports_on_inverse_semigroup_actions(
    tmp_path, doc, name, ordered, status, clauses, data, error
):
    ws = load_workspace(_write(tmp_path, doc, CORPUS[doc]()))
    got = _skew_report(ws, {"inv_action": name}, ordered)
    assert got == _skew_outcome(status, clauses, data, error)


@pytest.mark.parametrize("ordered", [None, False, True])
def test_skew_task_on_a_non_associative_skew_ring_reports_assoc_false(ordered):
    """No quotient is attempted: the skew ring's dimension is the only data."""
    ws = Workspace(actions={"swap": xf.zero_ring_swap_action()})
    got = _skew_report(ws, {"action": "swap"}, ordered)
    assert got == _skew_outcome("fail", {"ASSOC": False}, {"skew_dim": 5})
