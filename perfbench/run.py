"""Benchmark of the prs pipeline, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-separable --seed 1 --seconds 30 --trace 0
    python3 perfbench/smoke.py   # the harness itself, at tiny sizes

Workloads (see BENCHMARK.json for why each exists): grid-separable,
grid-overlap, table-large. The package is imported from ``src/`` of the
checkout; nothing is installed.

With ``--trace 0`` the run sets up its inputs several times (the median
is ``setup_s``), then calls the workload in a closed loop for
``--seconds`` and reports the median call as ``wall_s``. Both times are
rescaled to a reference machine speed measured by a probe kernel around
each interval (see speed.py: the shared machines this runs on change
speed 2-3x within minutes), except calls on the thread pool, whose speed
the single-threaded probe does not track; the raw medians are printed as
notes. It also reports the process's
peak resident memory, the grid's mean accuracy (1.0 on table-large,
which trains no classifier) and ``passed_ratio``, the share of calls
whose outputs passed every check (1 - failed_ratio; a metric that is
normally 0 cannot carry a relative bound).

With ``--trace 1`` it times untraced calls, then traced calls, and
reports per-layer metrics from the spans (see tracer.py): layer times are
CPU-busy seconds per workload call. On grid-overlap it also times traced
calls on one thread for ``evaluation.speedup_2t``, which is 0 on the
single-threaded workloads. The spans are written to
``perfbench/_work/trace-<workload>.jsonl``.

Human-readable lines go to standard output first, with the machine and
provenance; the last line is one JSON object with the keys correct,
attempted, failed and metrics. Timings on a shared machine drift between
hours, so compare only runs made on one machine at about the same time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy
import speed
from tracer import Tracer, summarise
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
MIN_CALLS = 2  # untraced calls per run, so that wall_s is a median


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(workload, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes(seed),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Run:
    """Accumulates the calls of one benchmark run and their checks."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.calls: list[tuple[str | None, bool]] = []  # (digest, passed)
        self.problems: list[str] = []
        self.accuracy: float | None = None

    def call(self, threads=None, tracer=None) -> tuple[float, float]:
        """One workload call, timed and checked; returns its wall time,
        raw and rescaled to the reference machine speed."""
        workload, state = self.workload, self.state
        # The probe runs on one thread; a call on the pool also waits on
        # interpreter-lock hand-offs between CPUs that the probe cannot
        # see (over ten seeds, rescaled pooled calls spread 0.32 against
        # 0.07-0.18 raw), so those are reported raw.
        pooled = (threads or workload.threads) > 1
        before = None if pooled else speed.probe()
        start = time.perf_counter()
        error = None
        try:
            if tracer is None:
                output = workload.call(state, threads)
            else:
                output = tracer.call(lambda: workload.call(state, threads))
        except Exception as exc:  # a failing call is counted, not fatal
            error = f"call raised {exc!r}"
        wall = time.perf_counter() - start
        timing = (wall, wall if pooled else speed.rescale(wall, before, speed.probe()))
        if error is None:
            try:
                result = workload.check(state, output)
            except Exception as exc:  # a malformed output fails its check
                error = f"check raised {exc!r}"
        if error is not None:
            self.calls.append((None, False))
            self.problems.append(error)
            return timing
        self.calls.append((result.digest, not result.problems))
        self.problems.extend(result.problems)
        self.accuracy = result.mean_accuracy
        return timing

    def loop(self, seconds: float, min_calls: int, threads=None, tracer=None):
        """Closed loop for about ``seconds``: start a call only if a call
        of the mean length so far still ends in time, but make at least
        ``min_calls``. Returns the (raw, rescaled) wall time of each call."""
        timings = []
        start = time.perf_counter()
        while len(timings) < min_calls or (
            time.perf_counter() - start + statistics.fmean(t[0] for t in timings) <= seconds
        ):
            timings.append(self.call(threads, tracer))
        return timings

    def finish(self) -> None:
        """Every call of a run computes the same report: a call whose
        digest differs from the most common one has failed."""
        digests = [d for d, _ in self.calls if d is not None]
        if not digests:
            return
        common = Counter(digests).most_common(1)[0][0]
        if len(set(digests)) > 1:
            self.problems.append(f"report digest differs between calls: {sorted(set(digests))}")
        self.calls = [(d, ok and d == common) for d, ok in self.calls]

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.calls if not ok)

    @property
    def digests(self) -> list[str]:
        return sorted({d for d, _ in self.calls if d is not None})


def setup(workload, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times, each in a fresh directory (files are
    removed with the run's work directory, not between timed set-ups);
    returns the (raw, rescaled) time of each and the state of the last."""
    timings = []
    state = None
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup{k}"
        target.mkdir(parents=True)
        before = speed.probe()
        start = time.perf_counter()
        state = workload.setup(seed, target)
        raw = time.perf_counter() - start
        timings.append((raw, speed.rescale(raw, before, speed.probe())))
    return timings, state


def median(timings, rescaled: bool = True) -> float:
    return statistics.median(t[1] if rescaled else t[0] for t in timings)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """One benchmark run; returns (run, {metric: (value, unit)}, notes).

    Times in metrics are rescaled to the reference machine speed (see
    speed.py); the notes carry the raw ones.
    """
    setups, state = setup(workload, seed, workdir)
    run = Run(workload, state)
    notes = {"setup_s_raw": median(setups, rescaled=False)}
    if not trace:
        walls = run.loop(seconds, MIN_CALLS)
        run.finish()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok = (run.attempted - run.failed) / run.attempted
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(walls), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            # table-large trains no classifier; its accuracy is reported as 1.0
            "mean_accuracy": (1.0 if run.accuracy is None else run.accuracy, "ratio"),
            "passed_ratio": (ok, "ratio"),
        }
        notes["wall_s_raw"] = median(walls, rescaled=False)
        notes["calls"] = len(walls)
    else:
        pooled = workload.threads > 1
        share = seconds / (3.0 if pooled else 2.0)
        untraced = run.loop(share, 1)
        tracer = Tracer(state["prs"])
        tracer.install()
        try:
            traced = run.loop(share, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = summarise(tracer.spans, [t[0] for t in traced])
        speedup = 0.0  # only the pooled workload runs on more than one thread
        if pooled:
            serial = Tracer(state["prs"])
            serial.install()
            try:
                one = run.loop(share, 1, threads=1, tracer=serial)
            finally:
                serial.uninstall()
            speedup = median(one, rescaled=False) / median(traced, rescaled=False)
        run.finish()
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{workload.name}.jsonl"
        tracer.write_jsonl(trace_path)
        metrics["evaluation.speedup_2t"] = (speedup, "ratio")
        metrics["trace.wall_s"] = (median(traced, rescaled=False), "s")
        metrics["trace.overhead_ratio"] = (median(traced) / median(untraced) - 1.0, "ratio")
        notes["trace_file"] = str(trace_path.relative_to(ROOT))
        notes["calls"] = {"untraced": len(untraced), "traced": len(traced)}
    notes["failed_ratio"] = run.failed / run.attempted
    notes["digest"] = run.digests
    return run, metrics, notes


def main(argv=None, workloads=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prs" / "__init__.py").is_file():
        print(f"error: no prs package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if workloads is None else workloads
    workload = workloads.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    try:
        run, metrics, notes = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for key, value in notes.items():
        print(f"# {key} {json.dumps(value)}")
    for problem in run.problems[:20]:
        print(f"# FAILED CHECK {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
