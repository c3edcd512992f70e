"""The same structures listed in another order give the same answers.

The fast paths depend on element order: the greedy generators of the
associativity certificates, the sorted composite keys and the index walks.
The oracle tests compare them with the plain scans on the same input; these
compare each input with a relabeled copy of itself (`metamorphic.py` for
workspace documents, `relabeled(perm)` for library structures).

- Every fixture-corpus file gives byte-identical `run --json` output
  after relabeling.
- A relabeled mutant keeps each report's status, clause verdicts and error
  type.  Issue lists follow element order, so their messages may differ.
- Every groupoid and semigroup of the combinatorial-index cases keeps its
  clause verdicts, and a groupoid its `is_pseudoassociative` value or the
  type of what it raised.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metamorphic import relabel
from mutants import NAMES, corpus_doc, leaf_mutations, mutate, run_mutant
from ogaction.validation import ValidationReport
from test_combinatorial_index import (
    GROUPOIDS,
    ONE_BAD_MIDDLE,
    PSEUDOASSOC_MAX_ARROWS,
    SEMIGROUPS,
    _groupoid_copy,
)

DOCS = {name: corpus_doc(name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_relabeled_corpus_files_give_byte_identical_reports(name, tmp_path):
    path = tmp_path / "relabeled.json"
    want = run_mutant(path, DOCS[name], "--json")
    assert want[0] == 0

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        assert run_mutant(path, relabel(DOCS[name], seed), "--json") == want

    check()


def _verdicts(stdout: str):
    """Per report: id, status, clause verdicts and the error's type."""
    return [
        (r["id"], r["status"], r["clauses"], r["error"] and r["error"].split(":")[0])
        for r in json.loads(stdout)
    ]


def _swapped_mult_entries(doc):
    """Per semigroup: the first two distinct entries of its table swapped."""
    out = []
    for sname, entry in sorted(doc.get("semigroups", {}).items()):
        cells = [(i, j) for i in range(len(entry["mult"])) for j in range(len(entry["mult"]))]
        (i, j) = cells[0]
        for k, l in cells[1:]:
            if entry["mult"][k][l] != entry["mult"][i][j]:
                out.append([
                    (("semigroups", sname, "mult", i, j), entry["mult"][k][l]),
                    (("semigroups", sname, "mult", k, l), entry["mult"][i][j]),
                ])
                break
    return out


def _mutant_cases():
    cases = []
    for name in NAMES:
        doc = DOCS[name]
        rng = random.Random(name)
        drawn = [[m] for m in rng.sample(leaf_mutations(doc), 12)]
        cases += [(name, muts) for muts in drawn + _swapped_mult_entries(doc)]
    return cases


MUTANTS = _mutant_cases()


def test_relabeled_mutants_keep_status_clauses_and_error_type(tmp_path):
    path = tmp_path / "mutant.json"
    failing = 0
    for i, (name, mutations) in enumerate(MUTANTS):
        doc = mutate(DOCS[name], mutations)
        code, out, _ = run_mutant(path, doc, "--json")
        failing += code == 1
        for seed in (i, i + len(MUTANTS)):
            again, out_again, _ = run_mutant(path, relabel(doc, seed), "--json")
            assert again == code, (name, mutations, seed)
            if code != 2:  # exit 2 is a load error, with no reports
                assert _verdicts(out_again) == _verdicts(out), (name, mutations, seed)
    assert failing >= 20


def _verdict(fn):
    try:
        value = fn()
    except Exception as exc:  # compared across the relabeling, never swallowed
        return ("raised", type(exc).__name__)
    if isinstance(value, ValidationReport):
        return ("report", value.clauses())
    return ("value", value)


def _permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


@pytest.mark.parametrize("label,g", GROUPOIDS, ids=[label for label, _ in GROUPOIDS])
def test_relabeled_groupoids_keep_their_verdicts(label, g):
    rng = random.Random(label)
    fresh = _groupoid_copy(g)
    moved = g.relabeled(_permutation(g.n, rng))
    checks = ["validate_groupoid", "validate_order"]
    if g.n <= PSEUDOASSOC_MAX_ARROWS or fresh.is_valid():
        checks.append("is_pseudoassociative")
    for check in checks:
        assert _verdict(getattr(moved, check)) == _verdict(getattr(fresh, check)), check


@pytest.mark.parametrize(
    "label,s", SEMIGROUPS + ONE_BAD_MIDDLE, ids=[label for label, _ in SEMIGROUPS + ONE_BAD_MIDDLE]
)
def test_relabeled_semigroups_keep_their_verdicts(label, s):
    moved = s.relabeled(_permutation(s.n, random.Random(label)))
    assert _verdict(moved.validate) == _verdict(s.validate)
