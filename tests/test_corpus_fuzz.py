"""Mutated corpus documents end in a report or a typed error.

Derandomized draws of one or two leaf mutations (`mutants.py`) of the
fixture-corpus workspaces, each run through `workbench run`: the exit code
must be 0, 1 or 2, and nothing may raise.  `corpus_sweep.py` runs every
single-leaf mutant the same way, outside the suite.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutants import NAMES, corpus_doc, leaf_mutations, mutate, run_mutant

DOCS = {name: corpus_doc(name) for name in NAMES}
MUTATIONS = {name: leaf_mutations(doc) for name, doc in DOCS.items()}

mutants = st.sampled_from(NAMES).flatmap(
    lambda name: st.tuples(
        st.just(name), st.lists(st.sampled_from(MUTATIONS[name]), min_size=1, max_size=2)
    )
)


def test_mutated_corpus_documents_never_raise(tmp_path):
    path = tmp_path / "mutant.json"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutants)
    # a map that is no longer a ring isomorphism, read by `restrict`
    @example(("pointed_arrow.json", [(("actions", "block_swap", "maps", "d_s", 1, 0), 1)]))
    # the composite d_s*d_s moved to s, read by `equivalence`
    @example(("pointed_arrow.json", [(("groupoids", "pointed_arrow", "comp", 0, 2), "s")]))
    def check(mutant):
        name, mutations = mutant
        code, _, _ = run_mutant(path, mutate(DOCS[name], mutations))
        assert code in (0, 1, 2)

    check()
