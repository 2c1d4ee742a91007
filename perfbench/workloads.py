"""The benchmark's workloads: how each builds its inputs, runs, and is checked.

Every workload is a closed-loop batch job driven from one process: the
next call starts when the previous one has returned. Inputs are built in
set-up; a call is the part a researcher waits for (``prs evaluate`` for
the grids, ``prs correlate`` for the table).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RATE = 0.6
RF_MAX = 154.0  # area of the full soil grid's bounding box


def import_prs():
    """Import the package afresh, so that set-up time includes its import."""
    for name in [m for m in sys.modules if m == "prs" or m.startswith("prs.")]:
        del sys.modules[name]
    return importlib.import_module("prs")


def synthetic_dataset(prs, n_per_class: int, length: int, seed: int):
    """The package's own two-class generator; its classes are separable."""
    return prs.generate_synthetic(n_per_class, length, seed)


def overlap_dataset(prs, n_per_class: int, length: int, seed: int):
    """Two classes that overlap: P is unit noise plus a 10 Hz tone of
    amplitude 0.3, N is unit noise scaled by 1.15; 1000 Hz sampling."""
    rng = np.random.default_rng(seed)
    rate = 1000.0
    tone = 0.3 * np.sin(2.0 * np.pi * 10.0 * np.arange(length) / rate)
    segments = [
        prs.SignalSegment(f"P{i:03d}", "P", rate, rng.standard_normal(length) + tone)
        for i in range(n_per_class)
    ]
    segments += [
        prs.SignalSegment(f"N{i:03d}", "N", rate, 1.15 * rng.standard_normal(length))
        for i in range(n_per_class)
    ]
    return prs.LabeledDataset(name=f"overlap-seed{seed}", segments=tuple(segments))


def n_test_rows(labels, rate: float) -> int:
    """Held-out rows of one stratified split, by the documented rule
    n_train = round(rate * n_c) clamped to [1, n_c - 1] per class."""
    total = 0
    for name in set(labels):
        n_c = sum(1 for v in labels if v == name)
        total += n_c - min(max(round(rate * n_c), 1), n_c - 1)
    return total


def check_prs_rows(rows) -> list[str]:
    """NF finite and >= 0; RF within [0, RF_MAX]."""
    rows = np.asarray(rows, dtype=np.float64)
    problems = []
    if rows.ndim != 2 or rows.shape[1] != 2:
        return [f"NF/RF array has shape {rows.shape}"]
    nf, rf = rows[:, 0], rows[:, 1]
    if not np.all(np.isfinite(nf)) or np.any(nf < 0):
        problems.append("NF not finite and >= 0")
    if not np.all(np.isfinite(rf)) or np.any(rf < 0) or np.any(rf > RF_MAX):
        problems.append(f"RF outside [0, {RF_MAX}]")
    return problems


def check_grid_report(report, prs, reps: int, n_test: int) -> list[str]:
    """Every cell of the classifier x variant grid is present once, with
    one accuracy per rep, each exactly k / n_test."""
    problems = []
    expected = {(k, v, RATE) for k in prs.CLASSIFIER_KINDS for v in prs.VARIANTS}
    seen = [(c["classifier"], c["variant"], c["rate"]) for c in report["cells"]]
    if sorted(seen) != sorted(expected):
        problems.append(f"grid cells {sorted(set(seen) ^ expected)} missing or extra")
    for cell in report["cells"]:
        accs = cell["accuracies"]
        where = f"{cell['classifier']}/{cell['variant']}"
        if len(accs) != reps:
            problems.append(f"{where}: {len(accs)} accuracies for {reps} reps")
        for acc in accs:
            k = round(acc * n_test)
            if not (0 <= k <= n_test and acc == k / n_test):
                problems.append(f"{where}: accuracy {acc!r} is not k/{n_test}")
                break
        if accs and abs(cell["mean_accuracy"] - float(np.mean(accs))) > 1e-12:
            problems.append(f"{where}: mean_accuracy is not the mean of its reps")
    return problems


def check_correlation(corr, n: int) -> list[str]:
    problems = []
    corr = np.asarray(corr)
    if corr.shape != (n, n):
        return [f"correlation matrix has shape {corr.shape}"]
    if not np.all(np.isfinite(corr)):
        problems.append("correlation matrix not finite")
    if np.max(np.abs(corr - corr.T)) > 1e-12:
        problems.append("correlation matrix not symmetric")
    if not np.all(np.diag(corr) == 1.0):
        problems.append("correlation diagonal is not 1")
    if np.any(corr < -1.0) or np.any(corr > 1.0):
        problems.append("correlation outside [-1, 1]")
    return problems


def digest_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class CallOutput:
    """What one workload call produced, reduced to what the run reports."""

    problems: list[str]
    digest: str
    mean_accuracy: float | None


@dataclass(frozen=True)
class GridWorkload:
    """run_experiment over the 4 classifiers x 5 variants at rate 0.6,
    with per-fold feature preparation."""

    name: str
    dataset: Callable  # (prs, n_per_class, length, seed) -> LabeledDataset
    n_per_class: int
    length: int
    reps: int
    threads: int
    fixed_seed: int | None = None  # inputs that do not follow --seed

    def sizes(self, seed: int) -> dict:
        return {
            "segments": 2 * self.n_per_class,
            "samples_per_segment": self.length,
            "reps": self.reps,
            "threads": self.threads,
            "classifiers": 4,
            "variants": 5,
            "data_seed": self._seed(seed),
        }

    def _seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    def setup(self, seed: int, workdir: Path) -> dict:
        prs = import_prs()
        data_seed = self._seed(seed)
        dataset = self.dataset(prs, self.n_per_class, self.length, data_seed)
        state = {
            "prs": prs,
            "dataset": dataset,
            "seed": data_seed,
            "n_test": n_test_rows(dataset.labels, RATE),
            "prs_problems": [],
        }
        # NF/RF never reach the report, so check them where they are made.
        original = prs.evaluation.prs_features

        def checked_prs_features(*args, **kwargs):
            rows = original(*args, **kwargs)
            state["prs_problems"].extend(check_prs_rows(rows))
            return rows

        prs.evaluation.prs_features = checked_prs_features
        warm = self.dataset(prs, 6, min(self.length, 128), data_seed)
        prs.run_experiment(
            warm, variants=("BASE", "PRS"), rates=(RATE,), reps=self.threads,
            seed=data_seed, threads=self.threads,
        )
        return state

    def call(self, state: dict, threads: int | None = None):
        return state["prs"].run_experiment(
            state["dataset"],
            rates=(RATE,),
            reps=self.reps,
            seed=state["seed"],
            threads=threads or self.threads,
        )

    def check(self, state: dict, report) -> CallOutput:
        problems = check_grid_report(report, state["prs"], self.reps, state["n_test"])
        problems += state["prs_problems"]
        state["prs_problems"].clear()
        accs = [c["mean_accuracy"] for c in report["cells"]]
        return CallOutput(
            problems=problems,
            digest=digest_json(report),
            mean_accuracy=float(np.mean(accs)) if accs else None,
        )


@dataclass(frozen=True)
class TableWorkload:
    """The ``prs correlate`` path: load_dataset -> build_feature_table ->
    correlation_matrix over a dataset written to disk in set-up."""

    name: str
    n_per_class: int
    length: int
    threads: int = 1

    def sizes(self, seed: int) -> dict:
        return {
            "segments": 2 * self.n_per_class,
            "samples_per_segment": self.length,
            "data_seed": seed,
        }

    def setup(self, seed: int, workdir: Path) -> dict:
        prs = import_prs()
        dataset = prs.generate_synthetic(self.n_per_class, self.length, seed)
        manifest = prs.write_dataset(dataset, workdir / "data")
        warm = prs.write_dataset(prs.generate_synthetic(3, 64, seed), workdir / "warm")
        table, _ = prs.build_feature_table(prs.load_dataset(warm), seed=seed)
        prs.correlation_matrix(table)
        shutil.rmtree(workdir / "warm")
        return {"prs": prs, "manifest": manifest, "seed": seed}

    def call(self, state: dict, threads: int | None = None):
        prs = state["prs"]
        dataset = prs.load_dataset(state["manifest"])
        table, names = prs.build_feature_table(dataset, seed=state["seed"])
        corr, _ = prs.correlation_matrix(table)
        return dataset, table, names, corr

    def check(self, state: dict, output) -> CallOutput:
        dataset, table, names, corr = output
        prs = state["prs"]
        problems = []
        m = 2 * self.n_per_class
        if len(dataset.segments) != m:
            problems.append(f"loaded {len(dataset.segments)} of {m} segments")
        if tuple(names) != tuple(prs.evaluation.TABLE_NAMES):
            problems.append(f"table columns {names}")
        if table.shape != (m, len(prs.evaluation.TABLE_NAMES)):
            problems.append(f"table has shape {table.shape}")
        elif not np.all(np.isfinite(table)):
            problems.append("feature table not finite")
        else:
            nf = list(names).index("NF")
            problems += check_prs_rows(table[:, nf : nf + 2])
        problems += check_correlation(corr, len(names))
        digest = hashlib.sha256(
            np.ascontiguousarray(table).tobytes() + np.ascontiguousarray(corr).tobytes()
        ).hexdigest()[:16]
        return CallOutput(problems=problems, digest=digest, mean_accuracy=None)


# Sizes were chosen so that one call takes a few seconds on a 2-core
# machine and the work per call does not depend on the seed (see
# BENCHMARK.json for why each workload exists).
WORKLOADS = {
    "grid-separable": GridWorkload(
        "grid-separable", synthetic_dataset, n_per_class=40, length=2000, reps=3, threads=1
    ),
    # SVM effort differs 2-3x between overlap datasets and between splits,
    # so a seed-dependent dataset would swamp any regression bound; the
    # overlap inputs are fixed.
    "grid-overlap": GridWorkload(
        "grid-overlap", overlap_dataset, n_per_class=40, length=64, reps=2, threads=2,
        fixed_seed=1,
    ),
    "table-large": TableWorkload("table-large", n_per_class=1000, length=512),
}
