"""Leaf mutations of the fixture-corpus workspace documents.

A leaf is an integer (booleans excepted) or a string that names an arrow
of one of the document's groupoids or an element of one of its
semigroups.  Its mutations move the integer to each other residue modulo
5, or swap the name for each other name of its structure.  Shared by the
committed fuzzer (`test_corpus_fuzz.py`) and the exhaustive single-leaf
sweep (`corpus_sweep.py`); both require that every mutant ends in a report
or a typed error (exit 0, 1 or 2), never in a raw traceback.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from ogaction.cli import main
from ogaction.corpus import CORPUS

NAMES = sorted(CORPUS)


def corpus_doc(name: str) -> dict:
    """The document as `emit_fixture_corpus` writes it."""
    return json.loads(json.dumps(CORPUS[name](), sort_keys=True))


def _other_names(doc: dict) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for section, key in (("groupoids", "arrows"), ("semigroups", "elements")):
        for entry in doc.get(section, {}).values():
            names = entry[key]
            for nm in names:
                out.setdefault(nm, [other for other in names if other != nm])
    return out


def leaf_mutations(doc: dict) -> list[tuple[tuple, object]]:
    """(path, new value) for every mutation of every leaf of doc, leaves in
    sorted-key order."""
    swaps = _other_names(doc)
    out: list[tuple[tuple, object]] = []

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], path + (key,))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, path + (i,))
        elif isinstance(node, int) and not isinstance(node, bool):
            out.extend((path, (node + k) % 5) for k in range(1, 5))
        elif isinstance(node, str):
            out.extend((path, other) for other in swaps.get(node, ()))

    walk(doc, ())
    return out


def run_mutant(path: Path, doc: dict, *flags: str) -> tuple[int, str, str]:
    """Write doc to path and run `workbench run` on it with flags: the exit
    code, stdout and stderr."""
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def mutate(doc: dict, mutations) -> dict:
    """A copy of doc with each (path, value) written in."""
    doc = copy.deepcopy(doc)
    for path, value in mutations:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc
