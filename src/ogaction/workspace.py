"""Workspace files: named algebras, groupoids, semigroups, and actions in
one JSON document, with the tasks to run against them.

All integers are JSON integers, read mod p.  Ideal bases are row matrices
over the carrier; action maps are matrices acting on the listed ideal bases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any

from .actions import Action
from .algebras import Algebra
from .errors import WorkspaceError
from .globalize import Globalization
from .groupoids import OrderedGroupoid
from .linalg import LinMap, Subspace, combine, split_rows
from .semigroups import InverseSemigroup
from .skew import OrderedSkewRing
from .validation import short_cut


@dataclass
class Workspace:
    algebras: dict[str, Algebra] = field(default_factory=dict)
    groupoids: dict[str, OrderedGroupoid] = field(default_factory=dict)
    semigroups: dict[str, InverseSemigroup] = field(default_factory=dict)
    actions: dict[str, Action] = field(default_factory=dict)
    inv_actions: dict[str, Action] = field(default_factory=dict)
    tasks: list[dict[str, Any]] = field(default_factory=list)
    # Globalizations, by (action name, minimal), and ordered skew rings, by
    # action name, built by this workspace's tasks; freed with the workspace.
    globalizations: dict[tuple[str, bool], Globalization] = field(default_factory=dict)
    ordered_skews: dict[str, OrderedSkewRing] = field(default_factory=dict)

    def action(self, name: str) -> Action:
        try:
            return self.actions[name]
        except KeyError:
            raise WorkspaceError(f"unknown action {name!r}")

    def inv_action(self, name: str) -> Action:
        try:
            return self.inv_actions[name]
        except KeyError:
            raise WorkspaceError(f"unknown inverse-semigroup action {name!r}")


# -- serialization ---------------------------------------------------------


def algebra_to_json(alg: Algebra) -> dict:
    return {
        "p": alg.p,
        "dim": alg.dim,
        "structure": [[list(entry) for entry in row] for row in alg.table],
        "unit": list(alg.unit) if alg.unit is not None else None,
    }


def _integers(value: Any) -> Any:
    """value (None, a number or nested lists) once every number in it is a
    JSON integer; a float, string, bool or null, which int() would truncate,
    parse or refuse, raises TypeError.  Shapes are the callers' to check."""
    level = [] if value is None else [value]
    while kinds := set(map(type, level)):
        if not kinds <= {int, list}:
            bad = next(x for x in level if type(x) not in (int, list))
            raise TypeError(f"{bad!r} is not an integer")
        level = list(chain.from_iterable(x for x in level if type(x) is list)) if list in kinds else []
    return value


def algebra_from_json(doc: dict, name: str) -> Algebra:
    if not isinstance(doc.get("structure", []), list):
        raise WorkspaceError(f"algebra {name!r}: 'structure' must be a list")
    for key in ("p", "dim", "structure", "unit"):
        try:
            # A listed p or dim is read in a list, so a null one is refused too.
            _integers([doc[key]] if key in ("p", "dim") and key in doc else doc.get(key))
        except TypeError as exc:
            raise WorkspaceError(f"algebra {name!r}: field {key!r}: {exc}")
    try:
        return Algebra(
            doc["p"], doc["dim"], doc["structure"], unit=doc.get("unit"), name=name
        )
    except KeyError as exc:
        raise WorkspaceError(f"algebra {name!r}: missing field {exc}")
    except (ValueError, TypeError) as exc:
        raise WorkspaceError(f"algebra {name!r}: {exc}")


def groupoid_to_json(g: OrderedGroupoid) -> dict:
    nm = g.names
    return {
        "arrows": list(nm),
        "objects": [nm[e] for e in sorted(g.objects)],
        "inv": {nm[a]: nm[g.inv[a]] for a in g.arrows()},
        "comp": sorted(
            [nm[a], nm[b], nm[c]] for (a, b), c in g.comp.items()
        ),
        "order": sorted(
            [nm[a], nm[b]]
            for a in g.arrows()
            for b in g.arrows()
            if a != b and g.leq[a][b]
        ),
    }


def groupoid_from_json(doc: dict, name: str) -> OrderedGroupoid:
    from .errors import InvalidGroupoid

    try:
        return OrderedGroupoid.from_parts(
            doc["arrows"],
            doc["objects"],
            doc["inv"],
            [tuple(t) for t in doc["comp"]],
            [tuple(t) for t in doc["order"]],
        )
    except KeyError as exc:
        raise WorkspaceError(f"groupoid {name!r}: missing field {exc}")
    except (InvalidGroupoid, ValueError, TypeError) as exc:
        raise WorkspaceError(f"groupoid {name!r}: {exc}")


def semigroup_to_json(s: InverseSemigroup) -> dict:
    nm = s.names
    return {
        "elements": list(nm),
        "mult": [[nm[x] for x in row] for row in s.mult],
    }


def semigroup_from_json(doc: dict, name: str) -> InverseSemigroup:
    if not isinstance(doc.get("mult", []), list):
        raise WorkspaceError(f"semigroup {name!r}: 'mult' must be a list")
    try:
        names = doc["elements"]
        index = {n: i for i, n in enumerate(names)}
        mult = [[index[x] for x in row] for row in doc["mult"]]
        return InverseSemigroup(names, mult)
    except KeyError as exc:
        raise WorkspaceError(f"semigroup {name!r}: unknown element or field {exc}")
    except (ValueError, TypeError) as exc:
        raise WorkspaceError(f"semigroup {name!r}: {exc}")


def _maps_to_json(names, ideal_of, map_of) -> dict:
    return {
        "ideals": {names[i]: [list(v) for v in ideal_of[i].basis] for i in range(len(names))},
        "maps": {names[i]: [list(r) for r in map_of[i].matrix] for i in range(len(names))},
    }


def action_to_json(a: Action, groupoid_name: str, algebra_name: str) -> dict:
    doc = {"groupoid": groupoid_name, "algebra": algebra_name}
    doc.update(_maps_to_json(a.structure.names, a.ideal_of, a.map_of))
    return doc


def inv_action_to_json(a: Action, semigroup_name: str, algebra_name: str) -> dict:
    doc = {"semigroup": semigroup_name, "algebra": algebra_name}
    doc.update(_maps_to_json(a.structure.names, a.ideal_of, a.map_of))
    return doc


def _matrices(doc: dict, key: str, where: str) -> dict[str, tuple[tuple[int, ...], ...]]:
    """The integer matrices under `key`, one per grade name."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise WorkspaceError(f"{where}: {key!r} must be an object")
    out = {}
    for n, rows in section.items():
        try:
            out[n] = tuple(map(tuple, _integers(rows)))
        except TypeError as exc:
            raise WorkspaceError(f"{where}: {key!r} at {n!r}: {exc}")
    return out


def _parse_family(
    doc: dict, names, inv, carrier: Algebra, where: str
) -> tuple[tuple[Subspace, ...], tuple[LinMap, ...]]:
    ideals_doc = _matrices(doc, "ideals", where)
    maps_doc = _matrices(doc, "maps", where)
    index = {n: i for i, n in enumerate(names)}
    for key in list(ideals_doc) + list(maps_doc):
        if key not in index:
            raise WorkspaceError(f"{where}: unknown arrow {key!r}")
    listed: list[tuple[tuple[int, ...], ...]] = []
    spans: dict[tuple[tuple[int, ...], ...], Subspace] = {}  # one per distinct listed rows
    for n in names:
        rows = ideals_doc.get(n)
        if rows is None:
            raise WorkspaceError(f"{where}: missing ideal for {n!r}")
        listed.append(rows)
        if rows not in spans:
            spans[rows] = Subspace.span(carrier.dim, rows, carrier.p)
    ideals = [spans[rows] for rows in listed]
    maps: list[LinMap] = []
    for i, n in enumerate(names):
        matrix = maps_doc.get(n)
        if matrix is None:
            raise WorkspaceError(f"{where}: missing map for {n!r}")
        src = inv(i)
        src_rows = listed[src]
        if len(matrix) != len(src_rows):
            raise WorkspaceError(
                f"{where}: map at {n!r} must have one row per listed basis vector "
                f"of the ideal at {names[src]!r}"
            )
        dst_rows = listed[i]

        def by_images() -> LinMap:
            listed_images = []
            for row in matrix:
                if len(row) != len(dst_rows):
                    raise WorkspaceError(f"{where}: map at {n!r} has a row of wrong width")
                listed_images.append(combine(row, dst_rows, carrier.dim, carrier.p))
            # Each listed image lies in the span of dst_rows, the ideal at n; the map
            # is well defined unless a dependency among src_rows has a non-zero image.
            _, images, trailing = split_rows(carrier.dim, src_rows, listed_images, carrier.p)
            if trailing:
                raise WorkspaceError(
                    f"{where}: map at {n!r} gives contradicting images on the dependent "
                    f"listed rows of the ideal at {names[src]!r}"
                )
            return LinMap.from_images(ideals[src], ideals[i], images)

        # Rows listed as the RREF bases are independent, so no dependency has
        # an image, and the listed coefficients are the map's coordinates.
        canonical = src_rows == ideals[src].basis and dst_rows == ideals[i].basis
        fits = canonical and all(len(row) == len(dst_rows) for row in matrix)
        fast = LinMap(ideals[src], ideals[i], matrix) if fits else None
        maps.append(short_cut("listed RREF bases", fast, by_images))
    return tuple(ideals), tuple(maps)


def _reference(doc: dict, key: str, table: dict, where: str):
    """The workspace entry that doc[key] names."""
    if key in doc and not isinstance(doc[key], str):
        raise WorkspaceError(f"{where}: {key!r} must be a string naming a {key}")
    try:
        return table[doc[key]]
    except KeyError as exc:
        raise WorkspaceError(f"{where}: dangling reference {exc}")


def action_from_json(doc: dict, ws: Workspace, name: str) -> Action:
    where = f"action {name!r}"
    g = _reference(doc, "groupoid", ws.groupoids, where)
    alg = _reference(doc, "algebra", ws.algebras, where)
    ideals, maps = _parse_family(doc, g.names, lambda i: g.inv[i], alg, where)
    return Action(g, alg, ideals, maps, name=name)


def inv_action_from_json(doc: dict, ws: Workspace, name: str) -> Action:
    where = f"inverse action {name!r}"
    s = _reference(doc, "semigroup", ws.semigroups, where)
    alg = _reference(doc, "algebra", ws.algebras, where)
    s.require_valid()
    ideals, maps = _parse_family(doc, s.names, s.inverse, alg, where)
    return Action(s, alg, ideals, maps, name=name)


def _entries(doc: dict, key: str, path: Path) -> list[tuple[str, dict]]:
    """The named objects of one section, in name order."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise WorkspaceError(f"{path}: {key!r} must be an object")
    for name, sub in section.items():
        if not isinstance(sub, dict):
            raise WorkspaceError(f"{path}: {key} entry {name!r} must be an object")
    return sorted(section.items())


def load_workspace(path: str | Path) -> Workspace:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise WorkspaceError(f"{path}: top level must be an object")
    ws = Workspace()
    for name, sub in _entries(doc, "algebras", path):
        ws.algebras[name] = algebra_from_json(sub, name)
    for name, sub in _entries(doc, "groupoids", path):
        ws.groupoids[name] = groupoid_from_json(sub, name)
    for name, sub in _entries(doc, "semigroups", path):
        ws.semigroups[name] = semigroup_from_json(sub, name)
    for name, sub in _entries(doc, "actions", path):
        ws.actions[name] = action_from_json(sub, ws, name)
    for name, sub in _entries(doc, "inv_actions", path):
        ws.inv_actions[name] = inv_action_from_json(sub, ws, name)
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise WorkspaceError(f"{path}: tasks must be a list")
    seen = set()
    for t in tasks:
        if not isinstance(t, dict) or "task" not in t:
            raise WorkspaceError(f"{path}: task entry {t!r} is not an object with a 'task' kind")
        if not all(isinstance(t.get(key, ""), str) for key in ("task", "id")):
            raise WorkspaceError(f"{path}: task entry {t!r}: 'task' and 'id' must be strings")
        tid = t.get("id", t["task"])
        # `run --out` writes each report to <id>.json next to summary.json.
        if tid in ("", ".", "..", "summary") or any(c in tid for c in "/\\\0"):
            raise WorkspaceError(f"{path}: task id {tid!r} cannot name a report file")
        if tid in seen:
            raise WorkspaceError(f"{path}: duplicate task id {tid!r}")
        seen.add(tid)
    ws.tasks = tasks
    return ws


def dump_workspace_doc(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
