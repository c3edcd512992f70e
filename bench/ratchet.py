"""The exact-counter ratchet: no traced counter may rise.

    python3 bench/ratchet.py

Runs ``perfbench/run.py --workload W --seed 1 --seconds 3 --trace 1`` on
each of the four workloads and compares every ``*.calls`` counter and every
dimension metric of the run (values per pass, exact) with
``bench/counters.json``.  It exits 1 when a workload's reports are not
correct, when a counter rose above the file's value, or when a counter of
the file is missing from the run; each counter that fell is named, and the
file should then be rewritten with the lower value.  The file's
``src_lines`` pins the line count of ``src/ogaction/*.py`` (as ``wc -l``
counts it) in the same way, so the library's line budget can only fall.
Diagnostics go to stderr; the measured counters go to stdout in the file's
format, so

    python3 bench/ratchet.py > counters.new && mv counters.new bench/counters.json

records a run that passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = ROOT / "bench" / "counters.json"
SRC = ROOT / "src" / "ogaction"
WORKLOADS = ("corpus", "glob_ladder", "inv_monoid", "matrix_carrier")


def traced_run(workload: str) -> dict:
    """The last JSON line of one traced seed-1 run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "3", "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=str(ROOT)).stdout
    return json.loads(out.strip().splitlines()[-1])


def counters_of(result: dict) -> dict:
    """Every call counter and dimension of a run, integral values as int."""
    out = {}
    for name, metric in sorted(result["metrics"].items()):
        if name.endswith(".calls") or metric["unit"] == "dim":
            value = metric["value"]
            out[name] = int(value) if value == int(value) else value
    return out


def src_lines() -> int:
    """Newlines in the library's modules, the total `wc -l` prints."""
    return sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))


def main() -> int:
    pinned = json.loads(COUNTERS.read_text())
    measured, failures = {}, []
    for workload in WORKLOADS:
        result = traced_run(workload)
        if result["correct"] is not True:
            failures.append(f"{workload}: reports are not correct")
        got = measured[workload] = counters_of(result)
        for name, bound in pinned.get(workload, {}).items():
            if name not in got:
                failures.append(f"{workload}: {name} is missing from the run")
            elif got[name] > bound:
                failures.append(f"{workload}: {name} rose from {bound} to {got[name]}")
            elif got[name] < bound:
                print(f"{workload}: {name} fell from {bound} to {got[name]}", file=sys.stderr)
        for name in sorted(set(got) - set(pinned.get(workload, {}))):
            print(f"{workload}: {name} = {got[name]} is not in {COUNTERS.name}", file=sys.stderr)
    lines = measured["src_lines"] = src_lines()
    bound = pinned.get("src_lines")
    if bound is None:
        failures.append(f"src_lines is missing from {COUNTERS.name}")
    elif lines > bound:
        failures.append(f"src/ogaction/*.py grew from {bound} to {lines} lines")
    elif lines < bound:
        print(f"src/ogaction/*.py fell from {bound} to {lines} lines", file=sys.stderr)
    print(json.dumps(measured, indent=2))
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
