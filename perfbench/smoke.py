"""Smoke test of the benchmark harness at minimal sizes.

Run from the root of a source checkout (takes well under a minute):

    python3 perfbench/smoke.py

It checks that a run prints every metric BENCHMARK.json names, with its
unit, both untraced and traced, on tiny versions of every workload; that
a report with an accuracy that is not k/n_test counts as a failed call;
and that the benchmark exits non-zero, printing no result, where the
package source is missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass

import run
import workloads as wl

TINY = {
    "grid-separable": wl.GridWorkload(
        "grid-separable", wl.synthetic_dataset, n_per_class=6, length=64, reps=2, threads=1
    ),
    "grid-overlap": wl.GridWorkload(
        "grid-overlap", wl.overlap_dataset, n_per_class=6, length=64, reps=2, threads=2,
        fixed_seed=1,
    ),
    "table-large": wl.TableWorkload("table-large", n_per_class=6, length=64),
}


@dataclass(frozen=True)
class CorruptedGrid(wl.GridWorkload):
    """Bumps one accuracy off the k/n_test lattice after each call."""

    def call(self, state, threads=None):
        report = super().call(state, threads)
        report["cells"][0]["accuracies"][0] += 1e-3
        return report


def bench(name: str, trace: int, table) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
            workloads=table,
        )
    assert code == 0, f"{name} trace={trace} exited {code}"
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics_printed(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in TINY:
            lines, result = bench(name, trace, TINY)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, lines)
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == set(wanted), (
                name,
                sorted(set(result["metrics"]) ^ set(wanted)),
            )
            printed = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 3 and parts[0] in wanted:
                    printed[parts[0]] = parts[2]
            for metric, unit in wanted.items():
                assert printed.get(metric) == unit, (name, metric, printed.get(metric), unit)
                assert result["metrics"][metric]["unit"] == unit, (name, metric)
                value = result["metrics"][metric]["value"]
                assert isinstance(value, (int, float)), (name, metric, value)
            print(f"smoke: {name} trace={trace}: {len(wanted)} metrics printed with units")


def check_corrupted_report_fails() -> None:
    table = {"grid-separable": CorruptedGrid(**TINY["grid-separable"].__dict__)}
    lines, result = bench("grid-separable", 0, table)
    assert not result["correct"], lines
    assert result["failed"] == result["attempted"] >= 1, result
    assert result["metrics"]["passed_ratio"]["value"] == 0.0, result
    assert any("is not k/" in line for line in lines), lines
    print("smoke: a report with an accuracy that is not k/n_test counts as failed")


def check_fails_without_source() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "grid-separable",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("smoke: without the package source the benchmark exits non-zero, printing no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics_printed(spec)
    check_corrupted_report_fails()
    check_fails_without_source()
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
