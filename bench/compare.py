"""Alternating parent/change pairs of the benchmark, written as one bench record.

    python3 bench/compare.py --parent REV [--change REV] --run WORKLOAD:SEED ...
        [--pairs 10] [--seconds 6] [--claim WORKLOAD:METRIC] [--note TEXT]
        --out BENCH_<n>.json

Each revision's ``src`` is extracted with ``git archive <rev> src | tar -x``
into its own directory under a fresh temporary directory (``TMPDIR`` sets
where), beside the ``perfbench`` of the change revision, so both trees are
measured by the same harness.  For every ``--run`` the script makes
``--pairs`` pairs of ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs, one per tree, the parent first in even pairs and the
change first in odd ones.
The record holds, per run and per end-to-end metric of ``BENCHMARK.json``,
the median and quartiles of each side and the number of pairs each side
won (ties count for neither).  It also holds, per workload, one traced run
at seed 1 on each tree (``--trace 1``) and the exact difference of every
counter and dimension.  Timings are in the harness's reference-host seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def extract(rev: str, harness: str, tree: Path) -> str:
    """`src` of rev and `perfbench` of harness under tree; returns rev's sha."""
    tree.mkdir(parents=True)
    for what, at in (("src", rev), ("perfbench", harness)):
        archive = git("archive", at, what)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return git("rev-parse", rev).decode().strip()


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last JSON line that perfbench/run.py prints."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=str(tree)).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def compare_run(trees: dict, workload: str, seed: int, pairs: int, seconds: float,
                metrics: dict[str, str]) -> dict:
    values = {side: {m: [] for m in metrics} for side in trees}
    totals = {key: {side: 0 for side in trees} for key in ("failed", "attempted")}
    correct = True
    wins = {m: {"change": 0, "parent": 0} for m in metrics}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: bench(trees[side], workload, seed, seconds, 0) for side in order}
        for side, result in got.items():
            correct &= result["correct"] is True
            for key in totals:
                totals[key][side] += result[key]
            for m in metrics:
                values[side][m].append(result["metrics"][m]["value"])
        for m, better in metrics.items():
            a, b = values["parent"][m][-1], values["change"][m][-1]
            if a != b:
                change_better = b < a if better == "lower" else b > a
                wins[m]["change" if change_better else "parent"] += 1
        print(f"  {workload} seed {seed} pair {k + 1}/{pairs}: " + ", ".join(
            f"{m} {values['parent'][m][-1]:.4g} -> {values['change'][m][-1]:.4g}" for m in metrics
        ), file=sys.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "correct": correct,
        **totals,
        "metrics": {
            m: {
                "parent": spread(values["parent"][m]),
                "change": spread(values["change"][m]),
                "change_wins": wins[m]["change"],
                "parent_wins": wins[m]["parent"],
            }
            for m in metrics
        },
    }


def counters(trees: dict, workloads: list[str], seconds: float) -> dict:
    """Per workload, every counter and dimension of one traced run per tree."""
    out = {}
    for workload in workloads:
        got = {side: bench(tree, workload, 1, seconds, 1) for side, tree in trees.items()}
        names = sorted(
            k for k, v in got["parent"]["metrics"].items()
            if v["unit"] in ("count", "dim", "B") and k in got["change"]["metrics"]
        )
        out[workload] = {}
        for k in names:
            a, b = got["parent"]["metrics"][k]["value"], got["change"]["metrics"][k]["value"]
            out[workload][k] = {"parent": a, "change": b, "diff": b - a}
    return out


def pair_arg(text: str) -> tuple[str, str]:
    left, sep, right = text.partition(":")
    if not (sep and left and right):
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    return left, right


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", default="HEAD", help="revision measured as the change")
    parser.add_argument("--run", type=pair_arg, action="append", required=True,
                        metavar="WORKLOAD:SEED", help="one compared run; repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--claim", type=pair_arg, metavar="WORKLOAD:METRIC")
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        shas = {side: extract(rev, args.change, trees[side])
                for side, rev in (("parent", args.parent), ("change", args.change))}
        record = {
            "change": args.note,
            "parent": shas["parent"],
            "change_rev": shas["change"],
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                       f"--trace 0, alternating parent/change (parent first in even pairs), "
                       f"by bench/compare.py",
            "hardware": f"{os.cpu_count()}-CPU {platform.machine()} host, "
                        f"times scaled by the harness's speed probe",
        }
        if args.claim:
            workload, metric = args.claim
            record["claim"] = {"workload": workload, "metric": metric, "better": metrics[metric]}
        record["runs"] = [
            compare_run(trees, workload, int(seed), args.pairs, args.seconds, metrics)
            for workload, seed in args.run
        ]
        workloads = list(dict.fromkeys(workload for workload, _ in args.run))
        record["counters_command"] = (
            "python3 perfbench/run.py --workload W --seed 1 --seconds 3 --trace 1 on each "
            "tree; values are per pass and exact"
        )
        record["counters"] = counters(trees, workloads, 3.0)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
