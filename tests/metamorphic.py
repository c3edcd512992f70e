"""Relabelings of workspace documents, which must not change a report.

    relabel(doc, seed) -> a relabeled copy of doc

Pure Python over the JSON documents, like `perfbench/gen.py`: it does not
import the library, so a fault there cannot hide in the transform.  In
the copy, each groupoid's `arrows`, `comp`, `objects` and `order` lists are
shuffled, and each semigroup's `elements` are permuted together with the
rows and the columns of its `mult`.  Names stay, so every other reference
in the document still resolves and each structure is the same structure
with its elements listed in another order.  Only the order in which the
library meets the elements changes: the order its greedy generators, its
sorted keys and its index walks follow.  A semigroup whose table is not
square over its elements is left as it is.
"""

import copy
import random

GROUPOID_LISTS = ("arrows", "comp", "objects", "order")


def _shuffled(items: list, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def relabel_groupoid(entry: dict, rng: random.Random) -> dict:
    out = dict(entry)
    for key in GROUPOID_LISTS:
        if isinstance(out.get(key), list):
            out[key] = _shuffled(out[key], rng)
    return out


def relabel_semigroup(entry: dict, rng: random.Random) -> dict:
    elements, mult = entry.get("elements"), entry.get("mult")
    square = (
        isinstance(elements, list)
        and isinstance(mult, list)
        and len(mult) == len(elements)
        and all(isinstance(row, list) and len(row) == len(elements) for row in mult)
    )
    if not square:
        return dict(entry)
    order = _shuffled(range(len(elements)), rng)
    return dict(
        entry,
        elements=[elements[i] for i in order],
        mult=[[mult[i][j] for j in order] for i in order],
    )


def relabel(doc: dict, seed: int) -> dict:
    """A copy of doc with every groupoid and semigroup relabeled, drawn
    from random.Random(seed) in sorted-name order."""
    rng = random.Random(seed)
    doc = copy.deepcopy(doc)
    for section, relabel_one in (("groupoids", relabel_groupoid), ("semigroups", relabel_semigroup)):
        entries = doc.get(section)
        if not isinstance(entries, dict):
            continue
        for name in sorted(entries):
            if isinstance(entries[name], dict):
                entries[name] = relabel_one(entries[name], rng)
    return doc
