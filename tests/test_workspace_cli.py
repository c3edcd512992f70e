import hashlib
import json
import re
from pathlib import Path

import pytest

from ogaction import fixtures as fx
from ogaction.actions import InvSgpAction
from ogaction.algebras import Algebra
from ogaction.cli import main
from ogaction.corpus import CORPUS, emit_fixture_corpus
from ogaction.errors import WorkspaceError
from ogaction.linalg import LinMap, Subspace
from ogaction.semigroups import InverseSemigroup
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

import extra_fixtures as xf
from test_globalization import unmet_pair_action


def test_algebra_roundtrip():
    alg = xf.matrix_units_f2()
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


def _supplied_globalization_doc() -> dict:
    """The original block swap as a supplied globalization of its
    restriction, with inclusion embeddings."""
    beta = fx.pointed_arrow_global_action()
    alpha = fx.pointed_arrow_partial_action()
    ideal = xf.pointed_arrow_restriction_ideal()
    embeddings = {}
    for e in sorted(beta.structure.objects):
        rows = []
        for v in alpha.ideal_of[e].basis:
            big = ideal.from_coordinates(v)
            rows.append(list(beta.ideal_of[e].coordinates_of(big)))
        embeddings[beta.structure.names[e]] = rows
    return {
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


def test_verify_globalization_task_with_supplied_embeddings(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(_supplied_globalization_doc()))
    ws = load_workspace(path)
    (rep,) = run_tasks(ws, None)
    assert rep.status == "pass", rep.summary()


def _over_another_groupoid(doc):
    """The global action replaced by the stacked involutions, which live
    over another groupoid; no embedding is listed."""
    other = fx.stacked_involutions_action()
    doc["algebras"]["C"] = algebra_to_json(other.carrier)
    doc["groupoids"]["H"] = groupoid_to_json(other.structure)
    doc["actions"]["other"] = action_to_json(other, "H", "C")
    doc["tasks"][0].update({"global": "other", "embeddings": {}})


@pytest.mark.parametrize(
    "corrupt, clause",
    [
        (_over_another_groupoid, "GLOB(valid)"),
        (lambda doc: doc["tasks"][0]["embeddings"].pop("e_min"), "GLOB(mono)"),
    ],
)
def test_verify_globalization_task_stops_at_a_structural_failure(tmp_path, corrupt, clause):
    """A global action over another groupoid, or an object without an
    embedding, fails its clause alone: the checklist stops there."""
    doc = _supplied_globalization_doc()
    corrupt(doc)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    (rep,) = run_tasks(load_workspace(path), None)
    assert rep.status == "fail"
    assert [k for k, ok in rep.clauses.items() if not ok] == [clause]


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
        (lambda doc: doc.update(semigroups={"S": semigroup_to_json(xf.symmetric_monoid_i1())},
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


def _run_doc(tmp_path, doc):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    return run_tasks(load_workspace(path), None)


def test_verify_globalization_refuses_an_embedding_at_an_arrow_that_is_not_an_object(tmp_path):
    """`s` is an arrow of the groupoid but not an object, so it names no
    embedding; listing one refuses the task instead of passing unread."""
    doc = _supplied_globalization_doc()
    doc["tasks"][0]["embeddings"]["s"] = [[1, 0]]
    (rep,) = _run_doc(tmp_path, doc)
    assert (rep.status, rep.error) == ("error", "WorkspaceError: unknown object 's' in embeddings")


def test_verify_globalization_reads_embedding_entries_mod_p(tmp_path):
    """Over F_5 an embedding that lists 6 for 1 is the same embedding."""
    doc = _supplied_globalization_doc()
    (reduced,) = _run_doc(tmp_path, doc)
    listed = doc["tasks"][0]["embeddings"]
    for key, rows in listed.items():
        listed[key] = [[6 if x == 1 else x for x in row] for row in rows]
    assert 6 in listed["e_min"][0]
    (unreduced,) = _run_doc(tmp_path, doc)
    assert unreduced.to_dict() == reduced.to_dict()
    assert reduced.status == "pass"


def test_verify_globalization_of_a_partial_action_by_itself_fails_glob_global(tmp_path):
    """restricted_swap is not global, so as its own globalization (identity
    embeddings) it fails GLOB(global)."""
    alpha = fx.pointed_arrow_partial_action()
    g0 = alpha.structure
    doc = _supplied_globalization_doc()
    doc["tasks"][0].update(
        {
            "global": "alpha",
            "embeddings": {
                g0.names[e]: [[int(i == j) for j in range(alpha.ideal_of[e].rank)]
                              for i in range(alpha.ideal_of[e].rank)]
                for e in g0.objects
            },
        }
    )
    (rep,) = _run_doc(tmp_path, doc)
    assert rep.status == "fail"
    assert rep.clauses["GLOB(global)"] is False and rep.clauses["GLOB(valid)"] is True


def test_inv_pipeline_refuses_an_action_that_is_not_preunital(tmp_path):
    """The one-element semigroup acting trivially on the line with zero
    product: a valid action whose idempotent's ideal has no identity."""
    line = Algebra.from_products(5, 1, ({},), name="zero line")
    one = InverseSemigroup(["e"], [[0]])
    a = InvSgpAction(one, line, (line.space(),), (LinMap.identity(line.space()),))
    assert a.validate().ok
    doc = {
        "algebras": {"zero_line": algebra_to_json(line)},
        "semigroups": {"one": semigroup_to_json(one)},
        "inv_actions": {"trivial": inv_action_to_json(a, "one", "zero_line")},
        "tasks": [{"id": "pipeline", "task": "inv-pipeline", "inv_action": "trivial"}],
    }
    (rep,) = _run_doc(tmp_path, doc)
    assert rep.status == "error"
    assert rep.error == "NotPreunital: pipeline needs unital idempotent ideals"


def test_a_load_error_and_an_unreadable_file_both_exit_2_with_the_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 1, column 2: ")
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_verify_globalization_over_another_groupoid_reads_no_embedding(tmp_path):
    """An embedding listed against a global action over another groupoid was
    built on that action's ideals at this groupoid's indices, which ran past
    its arrows (IndexError).  The checklist stops at GLOB(valid) before it
    reads an embedding, so the listed one changes nothing."""
    doc = _supplied_globalization_doc()
    _over_another_groupoid(doc)
    (bare,) = _run_doc(tmp_path, doc)
    doc["tasks"][0]["embeddings"] = {"e_min": [[1]]}
    (listed,) = _run_doc(tmp_path, doc)
    assert listed.to_dict() == bare.to_dict()
    assert bare.status == "fail" and bare.clauses["GLOB(valid)"] is False


def test_a_minimal_globalize_task_refuses_a_groupoid_that_is_not_pseudoassociative(tmp_path):
    a = unmet_pair_action()
    doc = {
        "algebras": {"line": algebra_to_json(a.carrier)},
        "groupoids": {"G": groupoid_to_json(a.structure)},
        "actions": {"unmet": action_to_json(a, "G", "line")},
        "tasks": [
            {"id": "full", "task": "globalize", "action": "unmet"},
            {"id": "minimal", "task": "globalize", "action": "unmet", "minimal": True,
             "expect_error": "NotPseudoassociative"},
        ],
    }
    full, minimal = _run_doc(tmp_path, doc)
    assert full.status == "pass", full.summary()
    assert (minimal.status, minimal.data) == ("pass", {"raised": "NotPseudoassociative"})


def _drop(container, key):
    del container[key]


def _put(container, key, value):
    container[key] = value


def _swap_part(doc, part):
    return doc["actions"]["block_swap"][part]


PA, B2 = "pointed_arrow.json", "brandt_b2.json"


@pytest.mark.parametrize(
    "name, corrupt, args, task, message",
    [
        # refused at load time, or by the task selector: exit 2 with the message
        (PA, lambda doc: [doc], [], None, "{path}: top level must be an object"),
        (PA, lambda doc: doc.update(tasks={}), [], None, "{path}: tasks must be a list"),
        (PA, lambda doc: _drop(doc["algebras"]["two_block"], "dim"), [], None,
         "algebra 'two_block': missing field 'dim'"),
        (PA, lambda doc: _drop(doc["groupoids"]["pointed_arrow"], "order"), [], None,
         "groupoid 'pointed_arrow': missing field 'order'"),
        (B2, lambda doc: doc["semigroups"]["brandt_b2"].update(mult=5), [], None,
         "semigroup 'brandt_b2': 'mult' must be a list"),
        (PA, lambda doc: doc["algebras"]["two_block"].update(structure=5), [], None,
         "algebra 'two_block': 'structure' must be a list"),
        (PA, lambda doc: _swap_part(doc, "ideals").update(x=[[1, 0, 0]]), [], None,
         "action 'block_swap': unknown arrow 'x'"),
        (PA, lambda doc: _drop(_swap_part(doc, "ideals"), "s"), [], None,
         "action 'block_swap': missing ideal for 's'"),
        (PA, lambda doc: _drop(_swap_part(doc, "maps"), "s"), [], None,
         "action 'block_swap': missing map for 's'"),
        (PA, lambda doc: _drop(_swap_part(doc, "maps")["s"], -1), [], None,
         "action 'block_swap': map at 's' must have one row per listed basis vector "
         "of the ideal at 's_inv'"),
        (PA, lambda doc: _swap_part(doc, "maps")["s"][0].append(0), [], None,
         "action 'block_swap': map at 's' has a row of wrong width"),
        # a JSON float, string or bool where the format says integer
        (PA, lambda doc: doc["algebras"]["two_block"].update(p=5.9), [], None,
         "algebra 'two_block': field 'p': 5.9 is not an integer"),
        (PA, lambda doc: doc["algebras"]["two_block"].update(p="5"), [], None,
         "algebra 'two_block': field 'p': '5' is not an integer"),
        (PA, lambda doc: doc["algebras"]["two_block"].update(dim="2"), [], None,
         "algebra 'two_block': field 'dim': '2' is not an integer"),
        (PA, lambda doc: doc["algebras"]["two_block"].update(p=None), [], None,
         "algebra 'two_block': field 'p': None is not an integer"),
        (PA, lambda doc: doc["algebras"]["two_block"].update(dim=None), [], None,
         "algebra 'two_block': field 'dim': None is not an integer"),
        (PA, lambda doc: _put(doc["algebras"]["two_block"]["structure"][1][1], 1, 1.2), [], None,
         "algebra 'two_block': field 'structure': 1.2 is not an integer"),
        (PA, lambda doc: _put(doc["algebras"]["two_block"]["unit"], 0, True), [], None,
         "algebra 'two_block': field 'unit': True is not an integer"),
        # a unit of the wrong length, refused by the UNIT check's product
        (PA, lambda doc: _drop(doc["algebras"]["two_block"]["unit"], -1), [], None,
         "element length differs from algebra dimension"),
        (PA, lambda doc: doc["algebras"]["two_block"]["unit"].append(0), [], None,
         "element length differs from algebra dimension"),
        (PA, lambda doc: _put(_swap_part(doc, "ideals")["s"][0], 1, 1.7), [], None,
         "action 'block_swap': 'ideals' at 's': 1.7 is not an integer"),
        (PA, lambda doc: _put(_swap_part(doc, "maps")["s"][0], 1, "1"), [], None,
         "action 'block_swap': 'maps' at 's': '1' is not an integer"),
        (PA, lambda doc: _put(_swap_part(doc, "maps")["s"][0], 1, True), [], None,
         "action 'block_swap': 'maps' at 's': True is not an integer"),
        (PA, lambda doc: None, ["--task", "nope"], None,
         "task selector 'nope' matches nothing in this workspace"),
        # refused by one task: exit 1, and that task's report names the cause
        (PA, lambda doc: _task_entry(doc, "validate-global").update(action="nope"),
         [], "validate-global", "unknown action 'nope'"),
        (B2, lambda doc: _task_entry(doc, "validate-action").update(inv_action="nope"),
         [], "validate-action", "unknown inverse-semigroup action 'nope'"),
        (PA, lambda doc: _task_entry(doc, "validate-groupoid").update(groupoid="nope"),
         [], "validate-groupoid", "unknown groupoid 'nope'"),
        (PA, lambda doc: _task_entry(doc, "restrict").update(family={"nope": []}),
         [], "restrict", "unknown object 'nope' in family"),
        (PA, lambda doc: _task_entry(doc, "restrict").update(family={"s": [[1, 0, 0]]}),
         [], "restrict", "unknown object 's' in family"),
        (PA, lambda doc: _task_entry(doc, "strong-check").update(
            {"task": "verify-globalization", "global": "block_swap", "embeddings": {"nope": []}}),
         [], "strong-check", "unknown object 'nope' in embeddings"),
        (PA, lambda doc: _put(_task_entry(doc, "restrict")["ideal"][0], 1, 1.9),
         [], "restrict", "task 'restrict': field 'ideal': 1.9 is not an integer"),
        (B2, lambda doc: _task_entry(doc, "esn").update(semigroup="nope"),
         [], "esn", "unknown semigroup 'nope'"),
        (PA, lambda doc: _task_entry(doc, "esn").update(groupoid="nope"),
         [], "esn", "unknown groupoid 'nope'"),
    ],
    ids=[
        "top-level-not-an-object", "tasks-not-a-list", "algebra-without-dim",
        "groupoid-without-order", "semigroup-table-not-a-list", "algebra-table-not-a-list",
        "ideal-at-unknown-arrow",
        "missing-ideal", "missing-map", "map-row-count", "map-row-width",
        "float-modulus", "string-modulus", "string-dim", "null-modulus", "null-dim",
        "float-structure-entry",
        "bool-unit-entry", "unit-one-entry-short", "unit-one-entry-long", "float-ideal-entry", "string-map-entry", "bool-map-entry",
        "selector-matches-nothing", "unknown-action", "unknown-inverse-action",
        "unknown-groupoid", "unknown-family-object", "family-key-not-an-object",
        "unknown-embedding-object", "float-restrict-ideal-entry",
        "unknown-esn-semigroup", "unknown-esn-groupoid",
    ],
)
def test_each_loader_and_task_refusal_names_its_cause(
    tmp_path, capsys, name, corrupt, args, task, message
):
    (path,) = [p for p in emit_fixture_corpus(tmp_path / "fx") if p.name == name]
    doc = json.loads(path.read_text())
    edited = corrupt(doc)
    path.write_text(json.dumps(doc if edited is None else edited))
    out = tmp_path / "reports"
    code = main(["run", str(path), "--out", str(out), *args])
    err = capsys.readouterr().err
    if task is None:
        assert (code, err) == (2, f"error: {message.format(path=path)}\n")
        assert not out.exists()
        return
    assert (code, err) == (1, "")
    results = json.loads((out / "summary.json").read_text())["results"]
    assert {t for t, status in results.items() if status != "pass"} == {task}
    report = json.loads((out / f"{task}.json").read_text())
    assert (report["status"], report["error"]) == ("error", f"WorkspaceError: {message}")
