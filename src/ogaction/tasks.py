"""Task dispatch: each task names a subject in the workspace, runs one
construction or verification, and yields a report with a fixed set of
per-clause booleans and a numeric payload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .actions import (
    general_restriction,
    is_global,
    is_preunital,
    is_strong,
    is_unital,
    satisfies_ps,
    search_equivalence,
    standard_restriction,
)
from .errors import WorkbenchError, WorkspaceError
from .globalize import (
    as_globalization,
    build_globalization,
    build_minimal_globalization,
    globalize_inverse_semigroup_action,
    verify_globalization,
)
from .linalg import LinMap, Subspace
from .semigroups import esn_to_groupoid, esn_to_semigroup
from .skew import (
    build_inv_sgp_skew,
    build_ordered_skew,
    build_skew,
    check_skew_associative,
    morita_context,
    skew_unit,
)
from .workspace import Workspace, _integers


@dataclass
class TaskReport:
    task_id: str
    kind: str
    status: str  # pass | fail | error
    clauses: dict[str, bool] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.task_id,
            "task": self.kind,
            "status": self.status,
            "clauses": dict(sorted(self.clauses.items())),
            "data": self.data,
            "error": self.error,
        }

    def summary(self) -> str:
        head = f"[{self.status}] {self.task_id}"
        if self.error:
            return f"{head}: {self.error}"
        bad = [k for k, v in sorted(self.clauses.items()) if not v]
        if bad:
            return f"{head}: failing clauses: {', '.join(bad)}"
        return head


def _task_error(t: dict, message: str) -> WorkspaceError:
    return WorkspaceError(f"task {t.get('id', t.get('task'))!r}: {message}")


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object", bool: "true or false"}


def _required(t: dict, key: str, kind: type = str) -> Any:
    """A field the task cannot run without; its absence, or a value of
    another JSON type, fails this task only."""
    if key not in t:
        raise _task_error(t, f"missing field {key!r}")
    if not isinstance(t[key], kind):
        raise _task_error(t, f"field {key!r} must be {_JSON_TYPES[kind]}")
    return t[key]


def _flag(t: dict, key: str, default: bool = False) -> bool:
    """An optional boolean option; a value of another JSON type fails
    this task only."""
    return _required(t, key, bool) if key in t else default


def _rows(t: dict, key: str, rows: Any) -> tuple[tuple[int, ...], ...]:
    """An integer matrix read from field `key`; a malformed one fails this task only."""
    try:
        return tuple(map(tuple, _integers(rows)))
    except TypeError as exc:
        raise _task_error(t, f"field {key!r}: {exc}")


def _dims_by_name(names, ideals) -> dict[str, int]:
    return {names[i]: ideals[i].rank for i in range(len(names))}


def _task_validate_groupoid(ws: Workspace, t: dict) -> tuple[dict, dict]:
    g = ws.groupoids.get(_required(t, "groupoid"))
    if g is None:
        raise WorkspaceError(f"unknown groupoid {t.get('groupoid')!r}")
    rep1 = g.validate_groupoid()
    clauses = dict(rep1.clauses())
    data: dict[str, Any] = {"arrows": g.n, "objects": len(g.objects)}
    if rep1.ok:
        rep2 = g.validate_order()
        clauses.update(rep2.clauses())
        if rep2.ok:
            data["inductive"] = g.is_inductive()
            data["pseudoassociative"] = g.is_pseudoassociative()
    return clauses, data


def _task_validate_action(ws: Workspace, t: dict) -> tuple[dict, dict]:
    on_groupoid = "inv_action" not in t
    if on_groupoid:
        a = ws.action(_required(t, "action"))
    else:
        a = ws.inv_action(_required(t, "inv_action"))
    rep = a.validate()
    data = {
        "dims": _dims_by_name(a.index.names, a.ideal_of),
        "preunital": is_preunital(a),
        "unital": is_unital(a),
        "global": is_global(a),
    }
    if on_groupoid and rep.ok:
        data["strong"] = is_strong(a)
    return rep.clauses(), data


def _task_restrict(ws: Workspace, t: dict) -> tuple[dict, dict]:
    beta = ws.action(_required(t, "action"))
    alg = beta.carrier
    if "family" in t:
        family = {}
        index = {beta.structure.names[e]: e for e in beta.structure.objects}
        for key, rows in _required(t, "family", dict).items():
            if key not in index:
                raise WorkspaceError(f"unknown object {key!r} in family")
            family[index[key]] = Subspace.span(alg.dim, _rows(t, "family", rows), alg.p)
        out = general_restriction(beta, family)
    else:
        ideal = Subspace.span(alg.dim, _rows(t, "ideal", _required(t, "ideal", list)), alg.p)
        out = standard_restriction(beta, ideal)
    data = {
        "dims": _dims_by_name(out.structure.names, out.ideal_of),
        "carrier_dim": out.carrier.dim,
        "strong": is_strong(out),
    }
    return {"RESTRICT": True}, data


def _task_strong_check(ws: Workspace, t: dict) -> tuple[dict, dict]:
    a = ws.action(_required(t, "action"))
    strong = is_strong(a)
    ps = satisfies_ps(a)
    return {"PS": strong == ps}, {"strong": strong, "composition_law": ps}


def _glob_of(ws: Workspace, t: dict):
    """The task's action and its (minimal) globalization, built on the first
    request of the run and kept on the workspace with the checklist its
    build ran.  A build that raises keeps nothing, so each task asking for
    it raises again."""
    name = _required(t, "action")
    a = ws.action(name)
    key = (name, _flag(t, "minimal"))
    if key not in ws.globalizations:
        build = build_minimal_globalization if key[1] else build_globalization
        ws.globalizations[key] = build(a)
    return a, ws.globalizations[key]


def _task_globalize(ws: Workspace, t: dict) -> tuple[dict, dict]:
    _, gl = _glob_of(ws, t)
    b = gl.global_action
    data = {
        "dims": _dims_by_name(b.structure.names, b.ideal_of),
        "carrier_dim": b.carrier.dim,
        "minimal": gl.minimal,
        "embedding_dims": {
            b.structure.names[e]: m.domain.rank for e, m in sorted(gl.embeddings.items())
        },
    }
    # _build ran the checklist on this globalization and raised if it failed
    return gl.checklist.clauses(), data


def _task_verify_globalization(ws: Workspace, t: dict) -> tuple[dict, dict]:
    a = ws.action(_required(t, "action"))
    b = ws.action(_required(t, "global"))
    index = {a.structure.names[e]: e for e in a.structure.objects}
    embeddings = {}
    listed = _required(t, "embeddings", dict) if "embeddings" in t else {}
    for key, matrix in listed.items():
        if key not in index:
            raise WorkspaceError(f"unknown object {key!r} in embeddings")
        e, rows = index[key], _rows(t, "embeddings", matrix)
        # Over another groupoid the checklist stops at GLOB(valid) and reads no embedding.
        if b.structure == a.structure:
            embeddings[e] = LinMap(a.ideal_of[e], b.ideal_of[e], rows)
    gl = as_globalization(a, b, embeddings, minimal=_flag(t, "minimal"))
    rep = verify_globalization(gl)
    return rep.clauses(), {"carrier_dim": b.carrier.dim}


def _task_equivalence(ws: Workspace, t: dict) -> tuple[dict, dict]:
    left = ws.action(_required(t, "left"))
    right = ws.action(_required(t, "right"))
    budget = t.get("budget", 200_000)
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise _task_error(t, f"budget {budget!r} is not an integer")
    result = search_equivalence(left, right, budget=budget)
    outcome = "found" if result.found else ("disproved" if result.definitive_no else "exhausted")
    data = {"outcome": outcome, "tested": result.tested}
    if result.disproof:
        data["disproof"] = result.disproof
    expected = t.get("expect")
    clause = outcome == expected if expected else True
    return {"EQUIV": clause}, data


def _task_skew(ws: Workspace, t: dict) -> tuple[dict, dict]:
    if "inv_action" in t:
        a = ws.inv_action(_required(t, "inv_action"))
        if _flag(t, "ordered", True):
            # Ordered by default, behind the unital gate; a non-associative
            # skew ring raises NotAssociative, and no unit is reported.
            o = build_inv_sgp_skew(a)
            s_dim, n_dim, q_dim = o.skew.algebra.dim, o.n_ideal.rank, o.quotient.dim
            return {"ASSOC": True}, {"skew_dim": s_dim, "n_dim": n_dim, "quotient_dim": q_dim}
    else:
        a = ws.action(_required(t, "action"))
    s = build_skew(a)
    rep = check_skew_associative(s)
    data: dict[str, Any] = {"skew_dim": s.algebra.dim}
    if _flag(t, "ordered") and rep.ok:
        o = ws.ordered_skews[t["action"]] = build_ordered_skew(s)
        data["n_dim"] = o.n_ideal.rank
        data["quotient_dim"] = o.quotient.dim
        if is_preunital(a):
            data["unit"] = list(skew_unit(o))
    return rep.clauses(), data


def _task_morita(ws: Workspace, t: dict) -> tuple[dict, dict]:
    a, gl = _glob_of(ws, t)
    rep = morita_context(a, gl, ws.ordered_skews.get(t["action"]))
    # Every groupoid and semigroup here has finitely many objects.
    return dict(rep.clauses), {"dims": rep.dims, "objects_finite": True}


def _task_esn(ws: Workspace, t: dict) -> tuple[dict, dict]:
    if "semigroup" in t:
        s = ws.semigroups.get(_required(t, "semigroup"))
        if s is None:
            raise WorkspaceError(f"unknown semigroup {t['semigroup']!r}")
        g = esn_to_groupoid(s)
        back = esn_to_semigroup(g)
        data = {"arrows": g.n, "objects": len(g.objects)}
        return {"ROUNDTRIP": back == s}, data
    name = _required(t, "groupoid")
    g = ws.groupoids.get(name)
    if g is None:
        raise WorkspaceError(f"unknown groupoid {name!r}")
    s = esn_to_semigroup(g)
    back = esn_to_groupoid(s)
    return {"ROUNDTRIP": back == g}, {"elements": s.n}


def _task_inv_pipeline(ws: Workspace, t: dict) -> tuple[dict, dict]:
    a = ws.inv_action(_required(t, "inv_action"))
    result = globalize_inverse_semigroup_action(a)
    clauses = dict(result.checklist.clauses())
    b = result.global_action
    data: dict[str, Any] = {
        "dims": _dims_by_name(b.structure.names, b.ideal_of),
        "carrier_dim": b.carrier.dim,
    }
    if _flag(t, "with_morita"):
        rep = morita_context(a, result)
        clauses.update(rep.clauses)
        data["morita_dims"] = rep.dims
    return clauses, data


TASK_CATALOG: dict[str, tuple[str, Callable[[Workspace, dict], tuple[dict, dict]]]] = {
    "validate-groupoid": ("check category, inverse, and order axioms", _task_validate_groupoid),
    "validate-action": ("check the partial-action axioms", _task_validate_action),
    "restrict": ("restrict a global action to an ideal or a monotone family", _task_restrict),
    "strong-check": ("compare strength with the composition law", _task_strong_check),
    "globalize": ("build a globalization (option: minimal) and verify it", _task_globalize),
    "verify-globalization": ("verify a supplied global action and embeddings", _task_verify_globalization),
    "equivalence": ("search for an equivalence witness between two actions", _task_equivalence),
    "skew": ("build the skew ring (option: ordered quotient)", _task_skew),
    "morita": ("verify the corner identities against a built globalization", _task_morita),
    "esn": ("convert semigroup <-> groupoid and check the roundtrip", _task_esn),
    "inv-pipeline": ("globalize an inverse-semigroup action end to end", _task_inv_pipeline),
}


def run_task(ws: Workspace, t: dict) -> TaskReport:
    kind = t["task"]
    tid = t.get("id", kind)
    if kind not in TASK_CATALOG:
        return TaskReport(tid, kind, "error", error=f"unknown task kind {kind!r}")
    handler = TASK_CATALOG[kind][1]
    expect_error = t.get("expect_error")
    try:
        clauses, data = handler(ws, t)
    except Exception as exc:
        # Any failure is this task's error, never a traceback that ends the
        # run; expect_error accepts typed workbench errors only.
        if isinstance(exc, WorkbenchError) and type(exc).__name__ == expect_error:
            return TaskReport(
                tid, kind, "pass", {"EXPECTED-ERROR": True}, {"raised": expect_error},
                error=None,
            )
        return TaskReport(tid, kind, "error", error=f"{type(exc).__name__}: {exc}")
    if expect_error:
        return TaskReport(
            tid, kind, "fail", {"EXPECTED-ERROR": False}, {},
            error=f"expected {expect_error} but the task succeeded",
        )
    status = "pass" if all(clauses.values()) else "fail"
    return TaskReport(tid, kind, status, clauses, data)


def run_tasks(ws: Workspace, selectors: list[str] | None = None) -> list[TaskReport]:
    chosen = []
    for t in ws.tasks:
        tid = t.get("id", t["task"])
        if not selectors or tid in selectors or t["task"] in selectors:
            chosen.append(t)
    if selectors:
        known = {t.get("id", t["task"]) for t in ws.tasks} | {t["task"] for t in ws.tasks}
        for sel in selectors:
            if sel not in known:
                raise WorkspaceError(f"task selector {sel!r} matches nothing in this workspace")
    return [run_task(ws, t) for t in chosen]
