"""Tests of the benchmark itself: generator, output check and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def workdir():
    path = run.WORK / f"tests-{id(object())}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _shape(doc: dict) -> dict:
    """Sizes that must not depend on the seed."""
    shape = {
        "dims": sorted(a["dim"] for a in doc["algebras"].values()),
        "tasks": [(t["id"], t["task"]) for t in doc["tasks"]],
    }
    for kind in ("actions", "inv_actions"):
        for a in doc.get(kind, {}).values():
            shape[kind] = sorted(len(rows) for rows in a["ideals"].values())
    shape["arrows"] = sorted(len(g["arrows"]) for g in doc.get("groupoids", {}).values())
    shape["elements"] = sorted(len(s["elements"]) for s in doc.get("semigroups", {}).values())
    return shape


@pytest.mark.parametrize("workload", gen.GENERATED)
def test_same_seed_gives_identical_files(workload, workdir):
    first = gen.write_workload(workload, 7, workdir / "a")
    second = gen.write_workload(workload, 7, workdir / "b")
    assert [f.name for f in first] == [f.name for f in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("workload", gen.GENERATED)
def test_other_seed_changes_bytes_not_sizes(workload):
    one = gen.workload_docs(workload, 1)
    two = gen.workload_docs(workload, 2)
    assert list(one) == list(two)
    assert json.dumps(one, sort_keys=True) != json.dumps(two, sort_keys=True)
    for name in one:
        assert _shape(one[name]) == _shape(two[name])


def test_rung_sizes_are_the_stated_ones():
    glob = gen.workload_docs("glob_ladder", 3)
    # carrier dims 3, 5, 5 give product-ring ambients 4*3, 9*5, 16*5
    assert [(len(d["groupoids"]["pair"]["arrows"]), d["algebras"]["kept"]["dim"])
            for d in glob.values()] == [(4, 3), (9, 5), (16, 5)]
    inv = gen.workload_docs("inv_monoid", 3)
    assert [len(d["semigroups"]["monoid"]["elements"]) for d in inv.values()] == [7, 34, 209]
    mat = gen.workload_docs("matrix_carrier", 3)
    assert [d["algebras"]["matrices"]["dim"] for d in mat.values()] == [9, 16, 25]


def test_generator_does_not_import_the_library():
    source = (HERE / "gen.py").read_text()
    assert "import ogaction" not in source and "from ogaction" not in source


@pytest.mark.parametrize("seed", [run.REFERENCE_SEED, 2])
@pytest.mark.parametrize("workload", gen.GENERATED)
def test_every_generated_task_passes(workload, seed, workdir):
    from ogaction.tasks import run_tasks
    from ogaction.workspace import load_workspace

    for path in gen.write_workload(workload, seed, workdir):
        reports = run_tasks(load_workspace(path))
        assert reports and all(r.status == "pass" for r in reports), [
            r.to_dict() for r in reports if r.status != "pass"
        ]


# -- output check ------------------------------------------------------------


def _result(rows_per_pass):
    passes = [{"files": rows, "wall": 1.0} for rows in rows_per_pass]
    return {"warm": passes[0], "passes": passes[1:]}


def _row(rc=0, error=None, status="pass", digest="d1"):
    return {"file": "/x/w.json", "seconds": 0.1, "rc": rc, "error": error,
            "reports": {"t.json": [digest, status, 10], "summary.json": ["s", None, 5]}}


def test_check_passes_identical_reports():
    ids = {"/x/w.json": ["t"]}
    assert run.check(_result([[_row()], [_row()]]), ids, None)[:2] == (2, 0)


@pytest.mark.parametrize("bad", [
    _row(rc=1, status="fail"),
    _row(rc=2),
    _row(rc=None, error="Traceback"),
    _row(digest="other"),
    _row(rc=1),
])
def test_check_counts_every_mismatch_as_failed(bad):
    ids = {"/x/w.json": ["t"]}
    attempted, failed, messages = run.check(_result([[_row()], [bad]]), ids, None)
    assert (attempted, failed) == (2, 1) and messages


def test_check_compares_with_reference():
    ids = {"/x/w.json": ["t"]}
    good = {"w.json/t.json": "d1", "w.json/summary.json": "s"}
    assert run.check(_result([[_row()]]), ids, good)[1] == 0
    assert run.check(_result([[_row()]]), ids, dict(good, **{"w.json/t.json": "d0"}))[1] == 1
    assert run.check(_result([[_row()]]), ids, dict(good, **{"w.json/u.json": "d2"}))[1] == 1


# -- tracer ------------------------------------------------------------------


class Boom(Exception):
    pass


def _target(x, fail=False):
    if fail:
        raise Boom(x)
    return [x]


@pytest.mark.parametrize("mode", [
    {"name": "demo.call"},
    {"name": None},
    {"leaf": True, "count": "demo.calls"},
])
def test_wrapper_returns_and_raises_what_the_function_does(mode):
    tracer = Tracer()
    wrapped = tracer.wrap(_target, layer="demo", **mode)
    marker = object()
    assert wrapped(marker)[0] is marker
    with pytest.raises(Boom) as info:
        wrapped(marker, fail=True)
    assert info.value.args[0] is marker
    assert tracer.stack == []
    if not mode.get("leaf"):
        assert [s[0] for s in tracer.spans] == [mode["name"] or "demo"] * 2


def test_layer_wrapper_records_only_boundary_crossings():
    tracer = Tracer()
    inner = tracer.wrap(lambda: 1, layer="a")
    outer_same = tracer.wrap(lambda: inner(), layer="a")
    outer_other = tracer.wrap(lambda: inner(), layer="b")
    outer_same()
    outer_other()
    assert [(s[0], s[3]) for s in tracer.spans] == [("a", -1), ("b", -1), ("a", 1)]


def test_traced_reports_equal_untraced_and_uninstall_restores(workdir):
    import ogaction.cli as cli
    import ogaction.globalize as globalize
    import ogaction.linalg as linalg
    from ogaction.actions import validate_po_action

    originals = (cli.main, linalg.rref, linalg.Subspace.__dict__["span"], validate_po_action)
    cli.main(["fixtures", str(workdir / "corpus")])
    files = [str(f) for f in sorted((workdir / "corpus").glob("*.json"))]
    plain = worker.run_pass(cli, files, workdir / "out")
    tracer = Tracer()
    tracer.install()
    try:
        assert globalize.validate_po_action is not validate_po_action
        assert globalize.validate_po_action is sys.modules["ogaction.actions"].validate_po_action
        traced = worker.run_pass(cli, files, workdir / "out")
    finally:
        tracer.uninstall()
    assert (cli.main, linalg.rref, linalg.Subspace.__dict__["span"],
            globalize.validate_po_action) == originals
    assert [r["reports"] for r in traced["files"]] == [r["reports"] for r in plain["files"]]
    assert all(r["rc"] == 0 for r in traced["files"])

    names = {s[0] for s in tracer.spans}
    assert {"cli", "workspace.load", "actions.validate", "globalize.verify"} <= names
    per = tracer.per_pass()[0]
    self_total = sum(v for k, v in per.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(per["root.s"], rel=1e-6)

    metrics = worker.traced_metrics(tracer, [plain], [traced], 1.0, 1.0)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert {m["name"]: m["unit"] for m in declared} == {k: run._unit(k) for k in metrics}
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["tasks.failed"] == 0 and metrics["linalg.rref.calls"] > 0


# -- host-speed scaling ------------------------------------------------------


def test_speed_sampler_samples_only_while_active():
    import signal
    import time

    sampler = worker.SpeedSampler()
    assert sampler.scale() is None
    with sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(i * i for i in range(100))
    taken = len(sampler.samples)
    assert taken >= 2 and sampler.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    time.sleep(0.12)
    assert len(sampler.samples) == taken
    assert sampler.scale(taken) is None


def test_end_to_end_scales_each_time_by_its_own_samples():
    def row(name, seconds, scale):
        return {"file": name, "seconds": seconds, "scale": scale}

    passes = [
        {"files": [row("a", 1.0, 0.5), row("b", 2.0, 0.25)], "scale": 0.5},
        {"files": [row("a", 1.0, None), row("b", 2.0, None)], "scale": None},
    ]
    result = {"passes": passes, "setup": [0.2, 0.4, 0.3], "scale": 2.0,
              "speed_samples": 10, "peak_rss_mb": 40.0}
    metrics, _ = run.end_to_end(result, [Path("a"), Path("b")])
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert metrics["pass_s"]["value"] == pytest.approx((1.5 + 6.0) / 2)
    assert metrics["top_rung_s"]["value"] == pytest.approx((0.5 + 4.0) / 2)
