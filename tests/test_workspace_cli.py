import hashlib
import json
import re
from pathlib import Path

import pytest

from ogaction import fixtures as fx
from ogaction.cli import main
from ogaction.corpus import CORPUS, emit_fixture_corpus
from ogaction.errors import WorkspaceError
from ogaction.linalg import Subspace
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


@pytest.mark.parametrize("tid", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b", "summary"])
def test_a_task_id_that_cannot_name_a_report_file_is_rejected(tmp_path, capsys, tid):
    """`run --out` writes <id>.json: an id that is a path, leaves the
    directory or is the summary's name is a load error naming the id, and
    nothing is written inside or outside --out."""
    doc = CORPUS["semilattice.json"]()
    doc["tasks"][1]["id"] = tid
    run = tmp_path / "run"
    run.mkdir()
    path = run / "semilattice.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(WorkspaceError, match=f"task id {re.escape(repr(tid))}"):
        load_workspace(path)
    assert main(["run", str(path), "--out", str(run / "out")]) == 2
    assert repr(tid) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["run", "semilattice.json"]


def test_an_id_that_only_resembles_a_rejected_one_is_kept(tmp_path):
    doc = CORPUS["semilattice.json"]()
    doc["tasks"][1]["id"] = "summary..json"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == ["inv-pipeline.json", "summary..json.json", "summary.json",
                       "validate-action.json"]


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
        (lambda doc: doc.update(algebras=5), 2, None, "'algebras'"),
        (lambda doc: doc["actions"].update(block_swap=5), 2, None, "'block_swap'"),
        (lambda doc: doc["actions"]["block_swap"]["ideals"].update(s=5), 2, None, "'ideals'"),
        (lambda doc: doc["actions"]["block_swap"].update(maps=5), 2, None, "'maps'"),
        (lambda doc: doc["algebras"]["two_block"]["structure"].__setitem__(0, 5),
         2, None, "two_block"),
        (lambda doc: doc["actions"]["block_swap"].update(groupoid={"x": 1}),
         2, None, "'groupoid' must be a string"),
        (lambda doc: doc["actions"]["block_swap"].update(algebra=["three_block"]),
         2, None, "'algebra' must be a string"),
        (lambda doc: doc.update(inv_actions={"bad": {"semigroup": {"x": 1}, "algebra": "two_block"}}),
         2, None, "'semigroup' must be a string"),
        (lambda doc: doc.update(semigroups={"S": semigroup_to_json(fx.symmetric_monoid_i1())},
                                inv_actions={"bad": {"semigroup": "S", "algebra": 5}}),
         2, None, "'algebra' must be a string"),
    ],
    ids=[
        "task-without-action", "budget-not-integer", "modulus-not-prime", "structure-not-a-list",
        "task-entry-not-an-object", "task-kind-not-a-string", "task-id-not-a-string",
        "family-not-an-object", "family-row-not-a-list", "ideal-not-a-list",
        "embeddings-not-an-object", "embedding-not-a-matrix", "action-name-not-a-string",
        "algebras-not-an-object", "action-entry-not-an-object", "ideal-not-a-matrix",
        "maps-not-an-object", "structure-row-not-a-list", "groupoid-reference-not-a-string",
        "algebra-reference-not-a-string", "semigroup-reference-not-a-string",
        "inverse-action-algebra-reference-not-a-string",
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


def test_a_map_with_contradicting_images_on_dependent_listed_rows_is_refused(tmp_path, capsys):
    """`block_swap`'s ideal at s_inv listed on the dependent rows e1, e2, e1,
    with its map at s sending the two copies of e1 to different images:
    the map kept one of them and `validate-global` reported ISO false.  It
    is a load error (exit 2) that names the map and the ideal."""
    (path,) = [p for p in emit_fixture_corpus(tmp_path / "fx") if p.name == "pointed_arrow.json"]
    doc = json.loads(path.read_text())
    action = doc["actions"]["block_swap"]
    action["ideals"]["s_inv"] = [[1, 0, 0], [0, 1, 0], [1, 0, 0]]
    action["maps"]["s"] = [[0, 1], [1, 0], [1, 0]]
    action["maps"]["s_inv"] = [[0, 1, 0], [1, 0, 0]]
    path.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (
        "action 'block_swap': map at 's' gives contradicting images on the dependent "
        "listed rows of the ideal at 's_inv'"
    ) in err
    assert not out.exists()
    # The same dependent rows with agreeing images load and pass.
    action["maps"]["s"] = [[0, 1], [1, 0], [0, 1]]
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, tid, key, value",
    [
        ("pointed_arrow.json", "globalize-minimal", "minimal", "false"),
        ("pointed_arrow.json", "morita", "minimal", None),
        ("pointed_arrow.json", "skew-ordered", "ordered", 1),
        ("brandt_b2.json", "inv-pipeline", "with_morita", "true"),
    ],
)
def test_a_task_flag_that_is_not_a_boolean_fails_its_task(tmp_path, capsys, name, tid, key, value):
    """`"minimal": "false"` was read by truthiness and built the minimal
    globalization.  Each flag must be a JSON boolean; any other value fails
    its task with an error naming the field, and every other task passes."""
    (path,) = [p for p in emit_fixture_corpus(tmp_path / "fx") if p.name == name]
    doc = json.loads(path.read_text())
    _task_entry(doc, tid)[key] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    assert main(["run", str(path), "--out", str(out)]) == 1
    capsys.readouterr()
    results = json.loads((out / "summary.json").read_text())["results"]
    assert {t for t, status in results.items() if status != "pass"} == {tid}
    report = json.loads((out / f"{tid}.json").read_text())
    assert report["status"] == "error"
    assert report["error"] == f"WorkspaceError: task {tid!r}: field {key!r} must be true or false"


def test_strong_check_on_a_groupoid_missing_a_composite_reports_the_groupoid_error(
    tmp_path, capsys
):
    """The composition law reads pseudoproducts, so the groupoid is
    validated first: a missing composite ends in an InvalidGroupoid report
    (exit 1), not a KeyError traceback."""
    (path,) = [p for p in emit_fixture_corpus(tmp_path / "fx") if p.name == "pointed_arrow.json"]
    doc = json.loads(path.read_text())
    doc["groupoids"]["pointed_arrow"]["comp"].remove(["d_s", "s_inv", "s_inv"])
    doc["tasks"] = [_task_entry(doc, "strong-check")]
    path.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    assert main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "strong-check.json").read_text())
    assert report["status"] == "error"
    assert report["error"].startswith("InvalidGroupoid: groupoid: ")
    assert "[CAT] product d_s*s_inv defined iff domains match fails" in report["error"]
    assert "Traceback" not in capsys.readouterr().err


def _set_restricted_swap(arrow, ideal, matrix=None):
    """A corruption of the corpus action `restricted_swap`: the ideal at
    one arrow replaced, and its map too when a matrix is given."""
    def corrupt(doc):
        action = doc["actions"]["restricted_swap"]
        action["ideals"][arrow] = ideal
        if matrix is not None:
            action["maps"][arrow] = matrix
    return corrupt


@pytest.mark.parametrize(
    "corrupt, task, error",
    [
        (lambda doc: doc["actions"]["block_swap"]["maps"]["d_s"][1].__setitem__(0, 1),
         "restrict", "InvalidAction: cannot restrict an invalid action:\nblock_swap: "),
        (lambda doc: doc["groupoids"]["pointed_arrow"]["comp"].__setitem__(0, ["d_s", "d_s", "s"]),
         "equivalence-self", "InvalidGroupoid: groupoid: "),
        (lambda doc: doc["groupoids"]["pointed_arrow"]["comp"].remove(["d_s", "s_inv", "s_inv"]),
         "equivalence-self", "InvalidGroupoid: groupoid: "),
        (_set_restricted_swap("r_s", [[1, 0]], [[1]]), "strong-check",
         "InvalidAction: strength needs a valid action:\nrestricted_swap: 1 violation(s)\n  [P1] "),
        (_set_restricted_swap("e_min", [[0, 1]]), "strong-check",
         "InvalidAction: strength needs a valid action:\nrestricted_swap: 3 violation(s)\n  [PO] "),
    ],
    ids=[
        "restrict-non-iso-map", "equivalence-moved-composite", "equivalence-missing-composite",
        "strong-check-fails-p1", "strong-check-fails-po",
    ],
)
def test_restriction_and_equivalence_validate_their_actions_first(
    tmp_path, capsys, corrupt, task, error
):
    """An invalid action ends `restrict`, `equivalence` and `strong-check`
    in a report naming the failed validation (exit 1): not a ValueError or
    KeyError traceback, and not a pass over a structure that is not a
    groupoid or an action that fails its axioms."""
    (path,) = [p for p in emit_fixture_corpus(tmp_path / "fx") if p.name == "pointed_arrow.json"]
    doc = json.loads(path.read_text())
    corrupt(doc)
    doc["tasks"] = [_task_entry(doc, task)]
    path.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    assert main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / f"{task}.json").read_text())
    assert report["status"] == "error"
    assert report["error"].startswith(error)
    assert "Traceback" not in capsys.readouterr().err


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


def test_equal_listed_ideals_are_spanned_once(tmp_path):
    """Every ideal of the corpus actions equals the span of its listed rows
    taken alone, and equal listed rows give one shared subspace (9 grades
    repeat an earlier grade's rows)."""
    repeats = 0
    for path in emit_fixture_corpus(tmp_path):
        doc, ws = json.loads(path.read_text()), load_workspace(path)
        for section, table in (("actions", ws.actions), ("inv_actions", ws.inv_actions)):
            for name, a in table.items():
                listed, first = doc[section][name]["ideals"], {}
                for grade, ideal in zip(a.structure.names, a.ideal_of):
                    rows = listed[grade]
                    assert ideal == Subspace.span(a.carrier.dim, rows, a.carrier.p)
                    repeats += json.dumps(rows) in first
                    assert first.setdefault(json.dumps(rows), ideal) is ideal
    assert repeats == 9
