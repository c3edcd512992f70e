"""Every single-leaf mutant of the fixture corpus through the CLI.

    PYTHONPATH=src python tests/corpus_sweep.py

Writes each mutant of `mutants.leaf_mutations` to a temporary workspace
file and runs `workbench run` on it in-process.  A mutant escapes when the
run raises or returns anything but 0, 1 or 2; the script prints each
escape with its traceback, then a count and the wall time, and exits 1 if
any mutant escaped.  A guard kept outside the test suite: the suite's
fuzzer draws a few hundred single- and two-leaf mutants from the same
list.
"""

import sys
import tempfile
import time
import traceback
from pathlib import Path

from mutants import NAMES, corpus_doc, leaf_mutations, mutate, run_mutant


def sweep() -> int:
    start = time.perf_counter()
    total = escapes = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        for name in NAMES:
            doc = corpus_doc(name)
            for leaf, value in leaf_mutations(doc):
                total += 1
                try:
                    code = run_mutant(path, mutate(doc, [(leaf, value)]))
                    escaped = code not in (0, 1, 2)
                    detail = f"exit {code}"
                except Exception:
                    escaped = True
                    detail = traceback.format_exc()
                if escaped:
                    escapes += 1
                    print(f"{name} {list(leaf)} -> {value!r}: {detail}")
    print(f"{total} single-leaf mutants, {escapes} escaped, {time.perf_counter() - start:.1f} s")
    return 1 if escapes else 0


if __name__ == "__main__":
    sys.exit(sweep())
