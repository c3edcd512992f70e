"""Benchmark worker: one process, one thread, one file at a time.

    python3 perfbench/worker.py SPEC.json

SPEC names the workspace files (in rung order), a scratch directory for
reports, the seconds to measure, whether to trace, and where to write the
result.  Every file goes through ``ogaction.cli.main(["run", FILE, "--out",
DIR])``; the next file starts when the previous call returns.  The first
pass is discarded from timing.  Between passes, an untraced run also times
fresh interpreters importing ``ogaction.cli`` (``setup_s``), spread over the
run so that they sample the same host conditions as the passes.  Standard
output of the CLI goes wherever this process's standard output goes.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer

MIN_PASSES = 2  # measured passes in an untraced run, however long they take
SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s, spread over the run
SAMPLE_EVERY = 0.05  # seconds between host speed samples
REFERENCE_PROBE_S = 0.001  # speed_probe time on the reference host
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ogaction.cli; "
    "print(repr(time.perf_counter() - t))"
)


def import_seconds(src: str) -> float:
    """Seconds for a fresh interpreter to import ogaction.cli, timed inside it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def speed_probe() -> float:
    """Seconds for a fixed, benchmark-owned piece of pure-Python work of
    about 1 ms: twelve Gaussian eliminations of a 12 x 12 matrix over F_101."""
    p = 101
    rows = [[(i * 37 + j * j * 11 + 5) % p for j in range(12)] for i in range(12)]
    start = time.perf_counter()
    for _ in range(12):
        work = [r[:] for r in rows]
        for col in range(12):
            inv = pow(work[col][col] or 1, -1, p)
            work[col] = [(inv * x) % p for x in work[col]]
            for r in range(12):
                if r != col and work[r][col]:
                    c = work[r][col]
                    work[r] = [(x - c * y) % p for x, y in zip(work[r], work[col])]
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the host's speed while passes run.

    On a shared 2-vCPU virtual machine the vCPU alternates between fast and
    slow phases (up to 1.8x apart, lasting from a fraction of a second to
    minutes), which moved whole runs by 20-30%.  Every SAMPLE_EVERY seconds of wall time a SIGALRM
    handler times `speed_probe`; the mean over a run estimates how much the
    host slowed that interval, and timings are scaled by `scale()` over
    the samples taken while they ran.
    The handler runs between bytecodes of the main thread and touches
    nothing but its own list; it costs about 2% of every pass it samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def scale(self, first: int = 0, last: int | None = None) -> float | None:
        """Factor that turns wall time into reference-host seconds:
        REFERENCE_PROBE_S over the mean of samples[first:last]; None when
        no sample fell in that range."""
        chosen = self.samples[first:last]
        return REFERENCE_PROBE_S / statistics.mean(chosen) if chosen else None

    def _tick(self, signum, frame) -> None:
        self.samples.append(speed_probe())

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _clear(directory: Path) -> None:
    if directory.is_dir():
        for f in directory.iterdir():
            f.unlink()


def run_pass(cli, files: list[str], out_root: Path, sampler: SpeedSampler | None = None) -> dict:
    """Run every file once.  Returns per-file wall time, exit code, escaped
    traceback, report digests/statuses and host-speed scale, plus the pass's
    loop wall time and scale (None where the sampler took no sample)."""
    rows = []
    samples = sampler.samples if sampler is not None else []
    pass_first = len(samples)
    loop_start = time.perf_counter()
    for path in files:
        out = out_root / Path(path).stem
        _clear(out)
        error = None
        first = len(samples)
        start = time.perf_counter()
        try:
            rc = cli.main(["run", path, "--out", str(out)])
        except (Exception, SystemExit):  # a traceback escaping the CLI is a failure
            rc = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        scale = sampler.scale(first, len(samples)) if sampler is not None else None
        reports = {}
        if out.is_dir():
            for f in sorted(out.iterdir()):
                data = f.read_bytes()
                status = None
                if f.name != "summary.json":
                    try:
                        status = json.loads(data).get("status")
                    except ValueError:
                        status = "unreadable"
                reports[f.name] = [hashlib.sha256(data).hexdigest(), status, len(data)]
        rows.append({"file": path, "seconds": elapsed, "rc": rc, "error": error,
                     "reports": reports, "scale": scale})
    return {"files": rows, "wall": time.perf_counter() - loop_start,
            "scale": sampler.scale(pass_first) if sampler is not None else None}


def passes_for(cli, files, out_root, seconds: float, minimum: int, sampler: SpeedSampler,
               discard_first: bool, tracer=None, probe_src: str | None = None,
               ) -> tuple[list[dict], list[float]]:
    """Run passes until `seconds` have elapsed and at least `minimum` passes
    ran, sampling the host's speed during every pass that is not discarded.
    With probe_src, also time SETUP_SAMPLES import probes, spread evenly over
    the same window and run between passes, never during one."""
    passes: list[dict] = []
    probes: list[float] = []

    def probes_due(elapsed: float) -> bool:
        return probe_src is not None and len(probes) < SETUP_SAMPLES and (
            elapsed >= len(probes) * seconds / SETUP_SAMPLES
        )

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) < minimum:
        while probes_due(time.perf_counter() - start):
            probes.append(import_seconds(probe_src))
        if tracer is not None:
            tracer.pass_id = len(passes)
        if passes or not discard_first:
            with sampler:
                passes.append(run_pass(cli, files, out_root, sampler))
        else:
            passes.append(run_pass(cli, files, out_root))
    while probe_src is not None and len(probes) < SETUP_SAMPLES:
        probes.append(import_seconds(probe_src))
    return passes, probes


def _pass_seconds(p: dict) -> float:
    return sum(r["seconds"] for r in p["files"])


def traced_metrics(tracer, untraced: list[dict], traced: list[dict],
                   scale_untraced: float, scale_traced: float) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass sums, times
    scaled like the end-to-end ones; counters per pass; maxima over the run."""
    n = len(traced)
    per = tracer.per_pass()
    rows = [per.get(i, {}) for i in range(n)]

    def med(key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in rows) * scale_traced

    c, mx = tracer.counters, tracer.maxima
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = med(f"{layer}.self_s")
    for key in ("algebras.assoc", "algebras.closure", "groupoids.validate_order",
                "semigroups.esn", "actions.validate", "actions.strong", "globalize.build",
                "globalize.verify", "skew.build", "skew.assoc", "skew.ordered",
                "skew.morita", "workspace.load"):
        out[f"{key}.s"] = med(f"{key}.s")
    for kind in tracer.task_kinds:
        out[f"tasks.{kind}.s"] = med(f"tasks.{kind}.s")
    for key in ("linalg.rref.calls", "linalg.rref.rows", "linalg.contains.calls",
                "algebras.assoc.calls",
                "algebras.mul.calls", "groupoids.pseudoproduct.calls",
                "groupoids.meet_objects.calls", "groupoids.restriction.calls",
                "semigroups.validate.calls", "semigroups.natural_le.calls",
                "actions.validate.calls", "actions.equivalence.tested",
                "globalize.verify.calls", "skew.build.calls", "workspace.bytes",
                "tasks.failed"):
        out[key] = c[key] / n
    for key in ("linalg.max_dim", "algebras.assoc.max_dim", "globalize.ambient_dim",
                "skew.max_dim"):
        out[key] = float(mx[key])
    out["algebras.assoc.derived_frac"] = (
        c["algebras.assoc.derived"] / c["algebras.assoc.calls"] if c["algebras.assoc.calls"] else 0.0
    )
    out["actions.validate.repeat_frac"] = (
        c["actions.validate.repeats"] / c["actions.validate.calls"]
        if c["actions.validate.calls"] else 0.0
    )
    out["cli.report_bytes"] = statistics.median(
        sum(rep[2] for row in p["files"] for rep in row["reports"].values()) for p in traced
    )
    out["trace.coverage"] = statistics.median(
        r.get("root.s", 0.0) / p["wall"] for r, p in zip(rows, traced)
    )
    out["trace.overhead_frac"] = (
        statistics.median(_pass_seconds(p) for p in traced) * scale_traced
        / (statistics.median(_pass_seconds(p) for p in untraced) * scale_untraced)
        - 1.0
    )
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from ogaction import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: ogaction was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    files = spec["files"]
    out_root = Path(spec["out"])
    seconds = float(spec["seconds"])
    if spec["trace"]:
        # The first pass, discarded, opens the untraced half.
        plain, timed = SpeedSampler(), SpeedSampler()
        untraced, _ = passes_for(cli, files, out_root, seconds / 2, 2, plain, True)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = passes_for(cli, files, out_root, seconds / 2, 1, timed, False, tracer)
        finally:
            tracer.uninstall()
        tracer.write_jsonl(spec["trace_path"])
        if plain.scale() is None or timed.scale() is None:
            raise RuntimeError("no host speed samples: passes shorter than the sample period")
        layers = traced_metrics(tracer, untraced[1:], traced, plain.scale(), timed.scale())
        result = {"warm": untraced[0], "passes": untraced[1:] + traced, "layers": layers}
    else:
        # The first pass is discarded; it runs inside the timed window.
        sampler = SpeedSampler()
        passes, probes = passes_for(cli, files, out_root, seconds, MIN_PASSES + 1, sampler,
                                    True, probe_src=str(src))
        result = {"warm": passes[0], "passes": passes[1:], "setup": probes,
                  "scale": sampler.scale(), "speed_samples": len(sampler.samples)}
        if result["scale"] is None:
            raise RuntimeError("no host speed samples: passes shorter than the sample period")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
