import hashlib
import json
from pathlib import Path

import pytest

from ogaction import fixtures as fx
from ogaction.cli import main
from ogaction.corpus import CORPUS, emit_fixture_corpus
from ogaction.errors import WorkspaceError
from ogaction.tasks import TASK_CATALOG, run_task, run_tasks
from ogaction.workspace import (
    Workspace,
    action_from_json,
    action_to_json,
    algebra_from_json,
    algebra_to_json,
    groupoid_from_json,
    groupoid_to_json,
    inv_action_from_json,
    inv_action_to_json,
    load_workspace,
    semigroup_from_json,
    semigroup_to_json,
)


def test_algebra_roundtrip():
    alg = fx.matrix_units_f2()
    doc = algebra_to_json(alg)
    back = algebra_from_json(doc, "m")
    assert back == alg


def test_groupoid_roundtrip():
    for g in [fx.pointed_arrow_groupoid(), fx.stacked_involutions_groupoid()]:
        assert groupoid_from_json(groupoid_to_json(g), "g") == g


def test_semigroup_roundtrip():
    for s in [fx.brandt_b2(), fx.chain_semilattice()]:
        assert semigroup_from_json(semigroup_to_json(s), "s") == s


def test_action_roundtrip():
    beta = fx.pointed_arrow_global_action()
    ws = Workspace(
        algebras={"B": beta.carrier}, groupoids={"G": beta.structure}
    )
    doc = action_to_json(beta, "G", "B")
    back = action_from_json(doc, ws, "beta")
    assert back.ideal_of == beta.ideal_of
    assert back.map_of == beta.map_of
    assert back.carrier == beta.carrier


def test_inv_action_roundtrip():
    b = fx.brandt_action()
    ws = Workspace(
        algebras={"A": b.carrier}, semigroups={"S": b.structure}
    )
    doc = inv_action_to_json(b, "S", "A")
    back = inv_action_from_json(doc, ws, "b")
    assert back.ideal_of == b.ideal_of
    assert back.map_of == b.map_of


def test_workspace_load_detects_dangling_references(tmp_path):
    doc = {
        "actions": {
            "a": {"groupoid": "ghost", "algebra": "ghost", "ideals": {}, "maps": {}}
        }
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(WorkspaceError):
        load_workspace(path)


def test_workspace_load_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(WorkspaceError) as info:
        load_workspace(path)
    assert "line 1" in str(info.value)


def test_duplicate_task_ids_rejected(tmp_path):
    doc = {"tasks": [{"task": "esn"}, {"task": "esn"}]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(WorkspaceError):
        load_workspace(path)


def test_corpus_files_roundtrip_and_pass(tmp_path):
    paths = emit_fixture_corpus(tmp_path)
    assert {p.name for p in paths} == set(CORPUS)
    for path in paths:
        ws = load_workspace(path)
        reports = run_tasks(ws, None)
        assert reports, path.name
        bad = [r for r in reports if r.status != "pass"]
        assert not bad, (path.name, [r.summary() for r in bad])


def test_corpus_emission_is_deterministic(tmp_path):
    first = {p.name: p.read_bytes() for p in emit_fixture_corpus(tmp_path / "a")}
    second = {p.name: p.read_bytes() for p in emit_fixture_corpus(tmp_path / "b")}
    assert first == second


def test_reports_are_deterministic(tmp_path):
    emit_fixture_corpus(tmp_path)
    ws = load_workspace(tmp_path / "pointed_arrow.json")
    one = [json.dumps(r.to_dict(), sort_keys=True) for r in run_tasks(ws, ["strong-check"])]
    ws2 = load_workspace(tmp_path / "pointed_arrow.json")
    two = [json.dumps(r.to_dict(), sort_keys=True) for r in run_tasks(ws2, ["strong-check"])]
    assert one == two


def test_unknown_task_kind_reports_error():
    ws = Workspace(tasks=[{"task": "no-such-kind"}])
    rep = run_task(ws, ws.tasks[0])
    assert rep.status == "error"


def test_expected_error_flow():
    ws = Workspace(
        inv_actions={"nil": fx.nilpotent_edge_action()},
        tasks=[
            {
                "id": "reject",
                "task": "inv-pipeline",
                "inv_action": "nil",
                "expect_error": "NotUnital",
            },
            {
                "id": "wrong-expectation",
                "task": "validate-action",
                "inv_action": "nil",
                "expect_error": "NotUnital",
            },
        ],
    )
    reports = run_tasks(ws, None)
    by_id = {r.task_id: r for r in reports}
    assert by_id["reject"].status == "pass"
    assert by_id["wrong-expectation"].status == "fail"


def test_catalog_covers_the_documented_tasks():
    expected = {
        "validate-groupoid",
        "validate-action",
        "restrict",
        "strong-check",
        "globalize",
        "verify-globalization",
        "equivalence",
        "skew",
        "morita",
        "esn",
        "inv-pipeline",
    }
    assert set(TASK_CATALOG) == expected


def test_verify_globalization_task_with_supplied_embeddings(tmp_path):
    # the original global action plus inclusion embeddings, via the file path
    beta = fx.pointed_arrow_global_action()
    alpha = fx.pointed_arrow_partial_action()
    ideal = fx.pointed_arrow_restriction_ideal()
    embeddings = {}
    for e in sorted(beta.structure.objects):
        rows = []
        for v in alpha.ideal_of[e].basis:
            big = ideal.from_coordinates(v)
            rows.append(list(beta.ideal_of[e].coordinates_of(big)))
        embeddings[beta.structure.names[e]] = rows
    doc = {
        "algebras": {
            "B": algebra_to_json(beta.carrier),
            "A": algebra_to_json(alpha.carrier),
        },
        "groupoids": {"G": groupoid_to_json(beta.structure)},
        "actions": {
            "beta": action_to_json(beta, "G", "B"),
            "alpha": action_to_json(alpha, "G", "A"),
        },
        "tasks": [
            {
                "id": "check",
                "task": "verify-globalization",
                "action": "alpha",
                "global": "beta",
                "embeddings": embeddings,
            }
        ],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    ws = load_workspace(path)
    (rep,) = run_tasks(ws, None)
    assert rep.status == "pass", rep.summary()


def test_cli_end_to_end(tmp_path, capsys):
    assert main(["fixtures", str(tmp_path / "fx")]) == 0
    capsys.readouterr()
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "globalize" in out and "morita" in out
    code = main(
        [
            "run",
            str(tmp_path / "fx" / "semilattice.json"),
            "--out",
            str(tmp_path / "reports"),
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["status"] == "pass" for entry in payload)
    written = sorted(p.name for p in (tmp_path / "reports").iterdir())
    assert "summary.json" in written
    assert any(name.startswith("esn") for name in written)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()
    # a failing clause yields exit 1
    doc = {
        "algebras": {"A": algebra_to_json(fx.dual_numbers())},
        "semigroups": {
            "S": semigroup_to_json(fx.nilpotent_edge_semigroup())
        },
        "inv_actions": {
            "nil": inv_action_to_json(fx.nilpotent_edge_action(), "S", "A")
        },
        "tasks": [
            {
                "id": "should-fail",
                "task": "validate-action",
                "inv_action": "nil",
                "expect_error": "NotUnital",
            }
        ],
    }
    good = tmp_path / "w.json"
    good.write_text(json.dumps(doc))
    assert main(["run", str(good)]) == 1
    capsys.readouterr()


def _task_entry(doc, tid):
    (entry,) = [t for t in doc["tasks"] if t["id"] == tid]
    return entry


@pytest.mark.parametrize(
    "corrupt, code, bad_task, needle",
    [
        (lambda doc: _task_entry(doc, "validate-global").pop("action"),
         1, "validate-global", "'action'"),
        (lambda doc: _task_entry(doc, "equivalence-self").update(budget="abc"),
         1, "equivalence-self", "budget"),
        (lambda doc: doc["algebras"]["two_block"].update(p=4), 2, None, "not prime"),
        (lambda doc: doc["algebras"]["two_block"].update(structure=5), 2, None, "two_block"),
        (lambda doc: doc["tasks"].append(5), 2, None, "task entry 5"),
        (lambda doc: _task_entry(doc, "esn").update(task=5), 2, None, "must be strings"),
        (lambda doc: _task_entry(doc, "esn").update(id=7), 2, None, "must be strings"),
        (lambda doc: _task_entry(doc, "restrict").update(family=5), 1, "restrict", "'family'"),
        (lambda doc: _task_entry(doc, "restrict").update(family={"r_s": 5}),
         1, "restrict", "'family'"),
        (lambda doc: _task_entry(doc, "restrict").update(ideal=5), 1, "restrict", "'ideal'"),
        (lambda doc: _task_entry(doc, "strong-check").update(
            {"task": "verify-globalization", "global": "block_swap", "embeddings": 5}),
         1, "strong-check", "'embeddings'"),
        (lambda doc: _task_entry(doc, "strong-check").update(
            {"task": "verify-globalization", "global": "block_swap", "embeddings": {"r_s": 5}}),
         1, "strong-check", "'embeddings'"),
        (lambda doc: _task_entry(doc, "validate-global").update(action=["x"]),
         1, "validate-global", "'action'"),
    ],
    ids=[
        "task-without-action", "budget-not-integer", "modulus-not-prime", "structure-not-a-list",
        "task-entry-not-an-object", "task-kind-not-a-string", "task-id-not-a-string",
        "family-not-an-object", "family-row-not-a-list", "ideal-not-a-list",
        "embeddings-not-an-object", "embedding-not-a-matrix", "action-name-not-a-string",
    ],
)
def test_malformed_input_ends_in_a_task_error_or_exit_2(
    tmp_path, capsys, corrupt, code, bad_task, needle
):
    (path,) = [p for p in emit_fixture_corpus(tmp_path / "fx") if p.name == "pointed_arrow.json"]
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    assert main(["run", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if bad_task is None:
        # refused at load time with a typed error, before any task runs
        assert needle in err and not out.exists()
        return
    # the broken task reports an error naming it; every other task still runs
    results = json.loads((out / "summary.json").read_text())["results"]
    assert len(results) == len(doc["tasks"])
    assert {tid for tid, status in results.items() if status != "pass"} == {bad_task}
    report = json.loads((out / f"{bad_task}.json").read_text())
    assert report["status"] == "error"
    assert needle in report["error"] and bad_task in report["error"]


def test_corpus_reports_match_the_benchmark_reference_digests(tmp_path, capsys):
    """Byte-identical reports on the fixture corpus, checked against the
    digests the benchmark compares every pass with."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text())["workloads"]["corpus"]
    digests = {}
    for path in emit_fixture_corpus(tmp_path / "fx"):
        out = tmp_path / "reports" / path.name
        assert main(["run", str(path), "--out", str(out)]) == 0
        for report in out.iterdir():
            digests[f"{path.name}/{report.name}"] = hashlib.sha256(report.read_bytes()).hexdigest()
    capsys.readouterr()
    assert len(digests) == 32
    assert digests == expected
