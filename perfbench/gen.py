"""Seeded workspace generator for the benchmark workloads.

Pure Python on purpose: it does not import ``ogaction``, so a change to the
library cannot change the inputs it is measured on.  Every rung has a fixed
size; the seed only relabels (which objects, coordinates, cycle points and
element order) and picks the prime, so two seeds give isomorphic problems of
the same cost with different bytes.

    python3 perfbench/gen.py WORKLOAD SEED DIR
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

PRIMES = (3, 5, 7)

# glob_ladder rungs: (objects m, coordinates kept per block position).  The
# carrier of the global action is F_p^(2m), two coordinates per object; the
# partial action keeps sum(kept) of them, so the ambient product ring of a
# globalization has dimension m^2 * sum(kept): 12, 45 and 80.
GLOB_RUNGS = ((2, (2, 1)), (3, (3, 2)), (4, (3, 2)))
GLOB_TASKS_SMALL = (
    ("validate-groupoid", {}),
    ("validate-action", {}),
    ("strong-check", {}),
    ("globalize", {}),
    ("globalize-minimal", {"task": "globalize", "minimal": True}),
    ("skew-ordered", {"task": "skew", "ordered": True}),
    ("morita-minimal", {"task": "morita", "minimal": True}),
)
GLOB_TASKS_TOP = (
    ("validate-action", {}),
    ("globalize-minimal", {"task": "globalize", "minimal": True}),
)

# inv_monoid rungs: symmetric inverse monoid I_n (7, 34 and 209 elements).
INV_RUNGS = (2, 3, 4)
INV_TASKS = {
    2: ("validate-action", "esn", "inv-pipeline"),
    3: ("validate-action", "esn"),
    4: ("esn",),
}

# matrix_carrier rungs: (n, k) for M_n(F_p) under conjugation by a k-cycle.
MATRIX_RUNGS = ((3, 3), (4, 4), (5, 5))
MATRIX_TASKS = {
    3: ("validate-action", "skew", "skew-ordered"),
    4: ("validate-action", "skew"),
    5: ("validate-action",),
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _diagonal_algebra(p: int, n: int) -> dict:
    structure = [
        [[1 if i == j == k else 0 for k in range(n)] for j in range(n)] for i in range(n)
    ]
    return {"p": p, "dim": n, "structure": structure, "unit": [1] * n}


def _unit_rows(coords: list[int], dim: int) -> list[list[int]]:
    return [[1 if c == col else 0 for col in range(dim)] for c in coords]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# -- glob_ladder ----------------------------------------------------------


def _pair_groupoid(m: int) -> dict:
    def nm(i, j):
        return f"g{i}_{j}"

    arrows = [nm(i, j) for i in range(m) for j in range(m)]
    return {
        "arrows": arrows,
        "objects": [nm(i, i) for i in range(m)],
        "inv": {nm(i, j): nm(j, i) for i in range(m) for j in range(m)},
        "comp": sorted(
            [nm(i, j), nm(j, k), nm(i, k)] for i in range(m) for j in range(m) for k in range(m)
        ),
        "order": [],
    }


def glob_rung(rng: random.Random, m: int, kept: tuple[int, ...]) -> dict:
    """Standard restriction of the block-swapping global action of the pair
    groupoid on m objects (block 2) to a coordinate ideal.

    Block position b keeps the coordinates of kept[b] objects; the seed picks
    which objects, which block position is which, the carrier's coordinate
    order and p.
    """
    p = rng.choice(PRIMES)
    positions = list(range(len(kept)))
    rng.shuffle(positions)
    members = {}  # block position -> objects whose coordinate is kept
    for b, size in zip(positions, kept):
        members[b] = set(rng.sample(range(m), size))
    coords = [(i, b) for b in sorted(members) for i in sorted(members[b])]
    rng.shuffle(coords)
    dim = len(coords)
    index = {c: k for k, c in enumerate(coords)}

    groupoid = _pair_groupoid(m)
    ideals, maps = {}, {}
    for i in range(m):
        for j in range(m):
            # alpha_(i,j) moves coordinate (j, b) to (i, b) where both are kept.
            shared = [b for b in sorted(members) if i in members[b] and j in members[b]]
            ideals[f"g{i}_{j}"] = _unit_rows([index[(i, b)] for b in shared], dim)
            maps[f"g{i}_{j}"] = _identity(len(shared))
    tasks = GLOB_TASKS_TOP if m == 4 else GLOB_TASKS_SMALL
    task_docs = []
    for tid, extra in tasks:
        doc = {"id": tid, "task": extra.get("task", tid)}
        doc.update({k: v for k, v in extra.items() if k != "task"})
        if doc["task"] == "validate-groupoid":
            doc["groupoid"] = "pair"
        else:
            doc["action"] = "restricted"
        task_docs.append(doc)
    return {
        "algebras": {"kept": _diagonal_algebra(p, dim)},
        "groupoids": {"pair": groupoid},
        "actions": {
            "restricted": {"groupoid": "pair", "algebra": "kept", "ideals": ideals, "maps": maps}
        },
        "tasks": task_docs,
    }


# -- inv_monoid ----------------------------------------------------------


def _partial_bijections(n: int) -> list[tuple]:
    """All partial injections of range(n) as image tuples (None = undefined)."""
    out = []
    for size in range(n + 1):
        for dom in itertools.combinations(range(n), size):
            for img in itertools.permutations(range(n), size):
                f = [None] * n
                for x, y in zip(dom, img):
                    f[x] = y
                out.append(tuple(f))
    return out


def _pb_name(f: tuple) -> str:
    return "s" + "".join("_" if y is None else str(y) for y in f)


def _pb_compose(s: tuple, t: tuple) -> tuple:
    """s*t: apply t first, then s."""
    return tuple(None if y is None else s[y] for y in t)


def inv_rung(rng: random.Random, n: int) -> dict:
    """I_n with its natural partial action on F_p^n: alpha_s sends e_x to
    e_s(x) for x in dom s; the seed shuffles element order and picks p."""
    p = rng.choice(PRIMES)
    elems = _partial_bijections(n)
    rng.shuffle(elems)
    names = [_pb_name(f) for f in elems]
    mult = [[_pb_name(_pb_compose(s, t)) for t in elems] for s in elems]
    ideals, maps = {}, {}
    for f, name in zip(elems, names):
        dom = [x for x in range(n) if f[x] is not None]
        ran = sorted(f[x] for x in dom)
        ideals[name] = _unit_rows(ran, n)
        maps[name] = [[1 if f[x] == r else 0 for r in ran] for x in dom]
    tasks = []
    for kind in INV_TASKS[n]:
        if kind == "esn":
            tasks.append({"id": kind, "task": kind, "semigroup": "monoid"})
        elif kind == "inv-pipeline":
            tasks.append(
                {"id": kind, "task": kind, "inv_action": "natural", "with_morita": True}
            )
        else:
            tasks.append({"id": kind, "task": kind, "inv_action": "natural"})
    return {
        "algebras": {"coords": _diagonal_algebra(p, n)},
        "semigroups": {"monoid": {"elements": names, "mult": mult}},
        "inv_actions": {
            "natural": {"semigroup": "monoid", "algebra": "coords", "ideals": ideals, "maps": maps}
        },
        "tasks": tasks,
    }


# -- matrix_carrier --------------------------------------------------------


def _matrix_algebra(p: int, n: int) -> dict:
    """M_n(F_p) on the matrix units, E_ab at index a*n + b."""
    dim = n * n
    structure = []
    for a, b in itertools.product(range(n), repeat=2):
        row = []
        for c, d in itertools.product(range(n), repeat=2):
            entry = [0] * dim
            if b == c:
                entry[a * n + d] = 1
            row.append(entry)
        structure.append(row)
    unit = [1 if a == b else 0 for a, b in itertools.product(range(n), repeat=2)]
    return {"p": p, "dim": dim, "structure": structure, "unit": unit}


def matrix_rung(rng: random.Random, n: int, k: int) -> dict:
    """C_k acting on M_n(F_p) by conjugation with a k-cycle permutation
    matrix; the seed picks the cycle and p."""
    p = rng.choice(PRIMES)
    points = rng.sample(range(n), k)
    perm = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    dim = n * n
    names = [f"c{i}" for i in range(k)]
    ideals, maps = {}, {}
    for i, name in enumerate(names):
        power = list(range(n))
        for _ in range(i):
            power = [perm[x] for x in power]
        # P^i E_ab P^-i = E_(pi^i a)(pi^i b); rows follow the listed basis.
        matrix = []
        for a, b in itertools.product(range(n), repeat=2):
            target = power[a] * n + power[b]
            matrix.append([1 if col == target else 0 for col in range(dim)])
        ideals[name] = _identity(dim)
        maps[name] = matrix
    groupoid = {
        "arrows": names,
        "objects": [names[0]],
        "inv": {names[i]: names[(-i) % k] for i in range(k)},
        "comp": sorted([names[i], names[j], names[(i + j) % k]] for i in range(k) for j in range(k)),
        "order": [],
    }
    tasks = []
    for kind in MATRIX_TASKS[n]:
        doc = {"id": kind, "task": "skew" if kind.startswith("skew") else kind, "action": "conj"}
        if kind == "skew-ordered":
            doc["ordered"] = True
        tasks.append(doc)
    return {
        "algebras": {"matrices": _matrix_algebra(p, n)},
        "groupoids": {"cycle": groupoid},
        "actions": {
            "conj": {"groupoid": "cycle", "algebra": "matrices", "ideals": ideals, "maps": maps}
        },
        "tasks": tasks,
    }


# -- entry points ----------------------------------------------------------


def workload_docs(workload: str, seed: int) -> dict[str, dict]:
    """File name -> workspace document, smallest rung first."""
    rng = _rng(workload, seed)
    if workload == "glob_ladder":
        return {f"glob_m{m}.json": glob_rung(rng, m, kept) for m, kept in GLOB_RUNGS}
    if workload == "inv_monoid":
        return {f"inv_i{n}.json": inv_rung(rng, n) for n in INV_RUNGS}
    if workload == "matrix_carrier":
        return {f"matrix_m{n}.json": matrix_rung(rng, n, k) for n, k in MATRIX_RUNGS}
    raise ValueError(f"no generated workload named {workload!r}")


GENERATED = ("glob_ladder", "inv_monoid", "matrix_carrier")


def write_workload(workload: str, seed: int, directory: str | Path) -> list[Path]:
    """Write the workload's workspace files into directory; returns the paths
    in rung order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in workload_docs(workload, seed).items():
        path = directory / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    for path in write_workload(sys.argv[1], int(sys.argv[2]), sys.argv[3]):
        print(path)
