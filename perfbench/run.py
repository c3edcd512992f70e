"""Benchmark for ``workbench run``: seeded workspaces through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program measured is the checkout's
``src/ogaction``.  Set-up writes the workload's files (the fixture corpus
via ``workbench fixtures``, or the seeded generator in ``gen.py``).  One
worker process (``worker.py``) then runs every file through
``ogaction.cli.main(["run", FILE, "--out", DIR])``, one file at a time, pass
after pass, for the given seconds; the first pass is discarded.  Every
report is checked: status ``pass``, exit code 0, no escaped traceback, bytes
identical across passes, and for the reference seed equal to the digests in
``reference.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it print the same figures for a reader, with sample counts.

    python3 perfbench/run.py --record-reference

rewrites ``reference.json`` from the current program (reference seed only).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1

sys.path.insert(0, str(HERE))
import gen  # noqa: E402  (the generator never imports ogaction)

WORKLOADS = ("corpus",) + gen.GENERATED
WORKER_TIMEOUT = 160  # seconds; a run must end within 180


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def make_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Workspace files of the workload, in rung order (largest last)."""
    if workload == "corpus":
        subprocess.run(
            [sys.executable, "-m", "ogaction.cli", "fixtures", str(directory)],
            env=_env(), check=True, stdout=subprocess.DEVNULL, timeout=60,
        )
        files = sorted(directory.glob("*.json"))
        return sorted(files, key=lambda f: f.stat().st_size)
    return gen.write_workload(workload, seed, directory)


def run_worker(files: list[Path], work: Path, seconds: float, trace: bool, trace_path: Path) -> dict:
    spec = {
        "src": str(SRC),
        "files": [str(f) for f in files],
        "out": str(work / "out"),
        "seconds": seconds,
        "trace": trace,
        "trace_path": str(trace_path),
        "result": str(work / "result.json"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        env=_env(), cwd=str(work), stdout=subprocess.DEVNULL,
    )
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    return json.loads((work / "result.json").read_text())


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference digests that apply to this run: corpus at every seed, the
    generated workloads at the reference seed only."""
    if workload != "corpus" and seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


def check(result: dict, task_ids: dict[str, list[str]], reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every pass, the discarded one too.

    A task fails when its report is missing or not ``pass``, when its file's
    CLI call escaped with a traceback or exited non-zero for another reason
    than a failing task, or when its report bytes differ from the first
    pass or from the reference digests.
    """
    passes = [result["warm"]] + result["passes"]
    first = {row["file"]: row["reports"] for row in result["warm"]["files"]}
    attempted = failed = 0
    messages: list[str] = []
    for n, p in enumerate(passes):
        for row in p["files"]:
            name = Path(row["file"]).name
            ids = task_ids[row["file"]]
            attempted += len(ids)
            reports = row["reports"]
            if row["error"] is not None or row["rc"] not in (0, 1):
                failed += len(ids)
                messages.append(f"pass {n} {name}: exit {row['rc']}\n{row['error'] or ''}")
                continue
            bad_file = False
            for report in sorted(reports):
                digest = reports[report][0]
                key = f"{name}/{report}"
                if digest != first[row["file"]].get(report, [None])[0]:
                    bad_file = True
                    messages.append(f"pass {n} {key}: bytes differ from the first pass")
                if reference is not None and reference.get(key) != digest:
                    bad_file = True
                    messages.append(f"pass {n} {key}: bytes differ from reference.json")
            if reference is not None:
                expected = {k.split("/", 1)[1] for k in reference if k.split("/", 1)[0] == name}
                if expected != set(reports):
                    bad_file = True
                    messages.append(f"pass {n} {name}: report files differ from reference.json")
            statuses = [reports.get(f"{tid}.json", [None, None])[1] for tid in ids]
            file_failed = sum(1 for s in statuses if s != "pass")
            if bad_file or (row["rc"] == 1 and file_failed == 0) or (row["rc"] == 0 and file_failed):
                file_failed = len(ids)
            if file_failed:
                messages.append(f"pass {n} {name}: {file_failed} failed task(s), exit {row['rc']}")
            failed += file_failed
    return attempted, failed, messages


def end_to_end(result: dict, files: list[Path]) -> tuple[dict, dict]:
    """Timings in reference-host seconds: each time is scaled by the host
    speed sampled while it ran (see worker.SpeedSampler); a file too short
    to be sampled takes its pass's scale, and setup_s takes the run's."""
    passes, setup, run_scale = result["passes"], result["setup"], result["scale"]
    top = str(files[-1])
    pass_times, top_times, raw_pass, raw_top = [], [], [], []
    for p in passes:
        seconds = sum(r["seconds"] for r in p["files"])
        raw_pass.append(seconds)
        pass_times.append(seconds * (p["scale"] or run_scale))
        for r in p["files"]:
            if r["file"] == top:
                raw_top.append(r["seconds"])
                top_times.append(r["seconds"] * (r["scale"] or p["scale"] or run_scale))
    metrics = {
        "setup_s": {"value": statistics.median(setup) * run_scale, "unit": "s"},
        "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
        "top_rung_s": {"value": statistics.median(top_times), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters importing ogaction.cli, "
                   f"raw {statistics.median(setup):.4g} s",
        "pass_s": f"median of {len(pass_times)} passes after 1 discarded, "
                  f"raw {statistics.median(raw_pass):.4g} s, run host scale {run_scale:.4g} "
                  f"from {result['speed_samples']} speed samples",
        "top_rung_s": f"{files[-1].name}, median of {len(top_times)} passes, "
                      f"raw {statistics.median(raw_top):.4g} s",
        "peak_rss_mb": "worker peak resident memory over the run",
    }
    return metrics, notes


def task_ids_of(files: list[Path]) -> dict[str, list[str]]:
    ids = {}
    for f in files:
        doc = json.loads(f.read_text())
        ids[str(f)] = [t.get("id", t["task"]) for t in doc.get("tasks", [])]
    return ids


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    (work / "inputs").mkdir(parents=True)
    try:
        files = make_inputs(workload, seed, work / "inputs")
        ids = task_ids_of(files)
        trace_path = WORK / f"trace-{workload}.jsonl"
        result = run_worker(files, work, seconds, trace, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, messages = check(result, ids, load_reference(workload, seed))
    for msg in messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    tasks = sum(len(v) for v in ids.values())
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {len(files)} files, "
          f"{tasks} tasks per pass, {len(result['passes'])} measured passes + 1 discarded")
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(result["layers"].items())}
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        for k, m in metrics.items():
            print(f"  {k:38s} {m['value']:.6g} {m['unit']}")
    else:
        metrics, notes = end_to_end(result, files)
        for k, m in metrics.items():
            print(f"  {k:12s} {m['value']:.6g} {m['unit']}  ({notes[k]})")
    print(f"  {'failed_frac':12s} {failed / attempted:.6g} ratio  ({failed} of {attempted} tasks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("_frac") or metric == "trace.coverage":
        return "ratio"
    if metric.endswith("dim"):
        return "dim"
    return "count"


def record_reference() -> int:
    """Write the report digests of one pass per workload at the reference
    seed into reference.json."""
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in WORKLOADS:
        work = WORK / f"reference-{workload}-{os.getpid()}"
        (work / "inputs").mkdir(parents=True)
        try:
            files = make_inputs(workload, REFERENCE_SEED, work / "inputs")
            ids = task_ids_of(files)
            result = run_worker(files, work, 0, False, work / "unused.jsonl")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted, failed, messages = check(result, ids, None)
        if failed:
            print("\n".join(messages), file=sys.stderr)
            return 1
        out["workloads"][workload] = {
            f"{Path(row['file']).name}/{name}": rep[0]
            for row in result["warm"]["files"]
            for name, rep in sorted(row["reports"].items())
        }
        print(f"{workload}: {len(out['workloads'][workload])} reports")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ogaction" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'ogaction'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
