"""Every single-leaf mutant of the fixture corpus through the CLI.

    PYTHONPATH=src python tests/corpus_sweep.py

Writes each mutant of `mutants.leaf_mutations` to a temporary workspace
file and runs `workbench run --json` on it in-process.  A mutant escapes
when the run raises or returns anything but 0, 1 or 2; the script prints
each escape with its traceback, then a count and the wall time, and exits
1 if any mutant escaped.  Its last line is one SHA-256 over every
mutant's exit code (or the type and message of what it raised), stdout
and stderr, with the temporary path written as `mutant.json`: two
checkouts give byte-identical output on every mutant exactly when they
print the same digest.  The script also exits 1 when the digest is not
`EXPECTED`, so a change to any mutant's report fails it; the value was the
same under Python 3.10 and 3.11.  A guard kept outside the test suite: the
suite's fuzzer draws a few hundred single- and two-leaf mutants from the
same list.
"""

import hashlib
import sys
import tempfile
import time
import traceback
from pathlib import Path

from mutants import NAMES, corpus_doc, leaf_mutations, mutate, run_mutant

EXPECTED = "8239dbbe2a7302c8ae66e67d7e73d6c7c280a1fc0dd792da832233ea7bb515ed"


def sweep() -> int:
    start = time.perf_counter()
    total = escapes = 0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        for name in NAMES:
            doc = corpus_doc(name)
            for leaf, value in leaf_mutations(doc):
                total += 1
                try:
                    code, out, err = run_mutant(path, mutate(doc, [(leaf, value)]), "--json")
                    escaped = code not in (0, 1, 2)
                    outcome = detail = f"exit {code}"
                except Exception as exc:
                    out = err = ""
                    escaped = True
                    outcome = f"raised {type(exc).__name__}: {exc}"
                    detail = traceback.format_exc()
                if escaped:
                    escapes += 1
                    print(f"{name} {list(leaf)} -> {value!r}: {detail}")
                for part in (outcome, out, err):
                    digest.update(part.replace(str(path), "mutant.json").encode() + b"\0")
    print(f"{total} single-leaf mutants, {escapes} escaped, {time.perf_counter() - start:.1f} s")
    print(f"sha256 over exit codes, stdout and stderr: {digest.hexdigest()}")
    if digest.hexdigest() != EXPECTED:
        print(f"digest differs from the expected {EXPECTED}")
        return 1
    return 1 if escapes else 0


if __name__ == "__main__":
    sys.exit(sweep())
