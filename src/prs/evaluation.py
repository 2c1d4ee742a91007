"""Repeated-split accuracy experiments and feature correlation reports.

A run crosses classifiers x feature variants x training rates over many
repetitions. ``draw_splits`` draws every split of a run: each repetition
draws one stratified split per rate from ``rep_rng(seed, rep)``, shared
by all variants and classifiers, so the variants are compared paired.
``evaluate_splits`` takes a dataset and its splits to one int64 array
of (tp, tn, fp, fn) counts indexed (split, classifier, variant). A
variant is a set of columns of the 16-column table of ``TABLE_NAMES``,
and ``assemble_variant`` is the one place that selects them.
Feature preparation (normalization bounds, gain ranking, column order)
is fitted on each training fold only unless global_prep is set, which
fits it once on the whole dataset for protocol-replication runs. Every
split's features are prepared first; then each classifier is fitted
once over all of them and scores its test matrices as one group, so
that every kind fits the problems of every rep, rate and variant in
stacks of equal shape (see ``classifiers``). ``run_experiment`` builds
its report from one accuracy array, ``accuracy(counts)``, and ``prs
classify`` is its rep 0 with one classifier, variant and rate. One
``pipeline.PipelineConfig`` carries the feature settings (thresholds,
soil, growth, median mode) of a run, so a PRS ablation is a config.

Reports are plain dicts ready for json.dump; an infinite ANOVA F value
is serialized as the string "inf".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .base_features import FEATURE_NAMES
from .classifiers import CLASSIFIER_KINDS, decision_group, train_group
# not called here: the benchmark tracer (perfbench/tracer.py) wraps evaluation.train
from .classifiers import train  # noqa: F401
from .dataset import LabeledDataset
from .errors import PrsError, check_integer
from .feature_prep import MIN_SAMPLES, apply_bounds, column_bounds
from .pipeline import (
    PRS_NAMES,
    PipelineConfig,
    extract_base_matrix,
    extract_spectral_matrix,
    fit_prep,
    prs_features,
)
from .spectral import SPECTRAL_NAMES

# The raw feature table: the 12 base columns, NF, RF, MaxPSD, MedPSD.
TABLE_NAMES = tuple(FEATURE_NAMES) + PRS_NAMES + SPECTRAL_NAMES

# Each variant's columns of the table: the 12 base columns, then its extras.
_VARIANT_COLUMNS = {
    variant: list(range(len(FEATURE_NAMES))) + [TABLE_NAMES.index(n) for n in extras]
    for variant, extras in (
        ("BASE", ()),
        ("BASE_NF", ("NF",)),
        ("BASE_RF", ("RF",)),
        ("PRS", ("NF", "RF")),
        ("COMPARISON", ("MaxPSD", "MedPSD")),
    )
}
VARIANTS = tuple(_VARIANT_COLUMNS)


def confusion_counts(truth, pred) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) of two boolean arrays that mark the second class."""
    truth = np.asarray(truth, dtype=bool).ravel()
    pred = np.asarray(pred, dtype=bool).ravel()
    if truth.size != pred.size:
        raise ValueError("prediction count does not match label count")
    tp = int(np.count_nonzero(truth & pred))
    fn = int(np.count_nonzero(truth)) - tp
    fp = int(np.count_nonzero(pred)) - tp
    return tp, truth.size - tp - fn - fp, fp, fn


def accuracy(counts) -> np.ndarray:
    """(tp + tn) / total of each (tp, tn, fp, fn) entry on the last axis."""
    counts = np.asarray(counts)
    return (counts[..., 0] + counts[..., 1]) / counts.sum(axis=-1)


@dataclass(frozen=True)
class AnovaResult:
    """One-way ANOVA over k groups: F = MS_between / MS_within."""

    f: float
    df_between: int
    df_within: int
    ss_between: float
    ss_within: float

    @property
    def infinite(self) -> bool:
        return math.isinf(self.f)


def anova_oneway(groups) -> AnovaResult:
    """F statistic across groups; zero within-variance yields F = 0 when
    the group means agree and F = inf when they differ."""
    arrays = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if len(arrays) < 2:
        raise ValueError("ANOVA needs at least 2 groups")
    if any(a.size < 1 for a in arrays):
        raise ValueError("ANOVA groups must be non-empty")
    n_total = sum(a.size for a in arrays)
    k = len(arrays)
    if n_total <= k:
        raise ValueError("ANOVA needs more observations than groups")
    grand = sum(float(np.sum(a)) for a in arrays) / n_total
    ss_between = sum(a.size * (float(np.mean(a)) - grand) ** 2 for a in arrays)
    ss_within = sum(float(np.sum((a - np.mean(a)) ** 2)) for a in arrays)
    df_between = k - 1
    df_within = n_total - k
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        f = 0.0 if ss_between == 0.0 else math.inf
    else:
        f = (ss_between / df_between) / ms_within
    return AnovaResult(
        f=f,
        df_between=df_between,
        df_within=df_within,
        ss_between=ss_between,
        ss_within=ss_within,
    )


def stratified_split(labels, class_names, rate: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split: n_train = round(rate * n_c) clamped to [1, n_c - 1].
    Returns ascending (train_idx, test_idx). The rate must pass
    ``check_rates``."""
    check_rates((rate,))
    labels = np.asarray(labels, dtype=str)
    train, test = [], []
    for name in class_names:
        idx = np.flatnonzero(labels == name)
        if idx.size < 2:
            raise ValueError(f"class {name!r} needs at least 2 segments to split")
        n_train = min(max(round(rate * idx.size), 1), idx.size - 1)
        perm = rng.permutation(idx.size)
        train.append(idx[perm[:n_train]])
        test.append(idx[perm[n_train:]])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def assemble_variant(variant: str, table: np.ndarray) -> np.ndarray:
    """One variant's columns of an (m, 16) table of ``TABLE_NAMES``, in
    row-major order. Raise ValueError on an unknown variant."""
    if variant not in _VARIANT_COLUMNS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    # a column selection comes out F-ordered; the classifiers' products
    # round as on the contiguous matrices
    return np.ascontiguousarray(table[:, _VARIANT_COLUMNS[variant]])


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Generator that draws the splits of repetition ``rep`` of ``seed``."""
    return np.random.default_rng([seed, rep])


def check_rates(rates) -> tuple[float, ...]:
    """The training rates of one run as floats. Raise ValueError unless
    there is at least one, no two are equal, and each is in (0, 1), which
    rules out NaN and the infinities too."""
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ValueError("rates must not be empty")
    if len(set(rates)) != len(rates):
        raise ValueError("rates must be unique within one run")
    for rate in rates:
        if not 0.0 < rate < 1.0:
            raise ValueError(f"training rate must be in (0, 1), got {rate}")
    return rates


def check_grid(classifiers, variants, rates) -> tuple[tuple, tuple, tuple]:
    """The classifier kinds, variants and rates of one run's grid. Raise
    ValueError unless the kinds and variants are non-empty, unique and
    known, and the rates pass ``check_rates``."""
    kinds = tuple(classifiers)
    for kind in kinds:
        train_group(kind, [], [])  # raises on an unknown one
    variants = tuple(variants)
    for name, values in (("classifier kinds", kinds), ("variants", variants)):
        if not values:
            raise ValueError(f"{name} must not be empty")
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must be unique within one run")
    for variant in variants:
        assemble_variant(variant, np.array([TABLE_NAMES]))  # raises on an unknown one
    return kinds, variants, check_rates(rates)


def draw_splits(dataset: LabeledDataset, rates, reps: int, seed: int) -> list:
    """The (train_idx, test_idx) splits of a run, rep-major: entry
    ``rep * len(rates) + r`` is drawn at ``rates[r]`` from
    ``rep_rng(seed, rep)``, which draws each rep's rates in order. The
    rates must pass ``check_rates``, and the seed must be an integer >= 0."""
    rates = check_rates(rates)
    check_integer("seed", seed, 0)
    labels, class_names = np.array(dataset.labels), dataset.class_names
    splits = []
    for rep in range(reps):
        rng = rep_rng(seed, rep)
        splits += [stratified_split(labels, class_names, rate, rng) for rate in rates]
    return splits


def evaluate_splits(
    dataset: LabeledDataset,
    splits,
    kinds,
    variants,
    global_prep: bool = False,
    config: PipelineConfig = PipelineConfig(),
) -> tuple[np.ndarray, list]:
    """Train and score every classifier kind on every variant of each split.

    ``kinds`` are names from ``CLASSIFIER_KINDS``; each fits its model at
    the fixed settings of ``classifiers``. ``splits`` holds (train_idx,
    test_idx) pairs of rows of ``dataset``. Only the columns the variants
    use are computed. Feature preparation is fitted on each training fold
    (a fold under ``MIN_SAMPLES`` rows raises ``PrsError`` before any
    feature work), and NF/RF of every
    split's rows, each under its own fold's artifacts, come from one
    ``prs_features`` call; under ``global_prep`` it is fitted once on all
    rows. Each split's 16-column table is min-max scaled once by its
    training rows, and ``assemble_variant`` selects each variant's
    columns from it (scaling works column by column, so this equals
    scaling the variant's own columns). Each classifier then makes one
    ``train_group`` fit and one ``decision_group`` call over every
    split's variants, which stack the problems of equal shape; a score
    >= 0 marks the second class.

    Returns ``(counts, diagnostics)``, indexed by position, not by name:
    ``counts[s, k, v]`` is the int64 (tp, tn, fp, fn) of ``kinds[k]`` on
    ``variants[v]`` of ``splits[s]``, and ``diagnostics[s][k][v]`` that
    model's ``diagnostics`` dict.
    """
    # the names of the columns the variants select; raises on an unknown one
    names = np.array([TABLE_NAMES])
    used = {name for v in variants for name in assemble_variant(v, names)[0]}
    counts = np.zeros((len(splits), len(kinds), len(variants), 4), dtype=np.int64)
    if not splits:
        return counts, []
    needs_prs = not used.isdisjoint(PRS_NAMES)
    smallest = min(len(train_idx) for train_idx, _ in splits)
    if needs_prs and not global_prep and smallest < MIN_SAMPLES:
        raise PrsError(
            f"the smallest training fold holds {smallest} rows, but per-fold "
            f"feature preparation needs at least {MIN_SAMPLES}; the smallest class "
            f"has {min(map(dataset.labels.count, dataset.class_names))} segments"
        )
    labels = np.array(dataset.labels)
    second = labels == dataset.class_names[1]
    base = extract_base_matrix(dataset, config.thresholds)
    rows = np.concatenate([np.concatenate(split) for split in splits])
    spectral_rows = (
        extract_spectral_matrix(dataset, config.median_mode)[rows]
        if not used.isdisjoint(SPECTRAL_NAMES)
        else np.zeros((len(rows), 2))
    )
    if not needs_prs:
        prs_rows = np.zeros((len(rows), 2))
    elif global_prep:
        prs_rows = prs_features(base, fit_prep(base, labels), config)[rows]
    else:
        runs = [
            (fit_prep(base[train_idx], labels[train_idx]), len(train_idx) + len(test_idx))
            for train_idx, test_idx in splits
        ]
        prs_rows = prs_features(base[rows], runs, config)
    table = np.column_stack([base[rows], prs_rows, spectral_rows])
    x_train, y_train, x_test, truths = [], [], [], []
    start = 0
    for train_idx, test_idx in splits:
        middle = start + len(train_idx)
        stop = middle + len(test_idx)
        bounds = column_bounds(table[start:middle])
        scaled_train = apply_bounds(table[start:middle], bounds)
        scaled_test = apply_bounds(table[middle:stop], bounds)
        start = stop
        y_fold, truth = labels[train_idx], second[test_idx]
        for variant in variants:
            x_train.append(assemble_variant(variant, scaled_train))
            y_train.append(y_fold)
            x_test.append(assemble_variant(variant, scaled_test))
            truths.append(truth)
    diagnostics = [[[None] * len(variants) for _ in kinds] for _ in splits]
    for k, kind in enumerate(kinds):
        models = train_group(kind, x_train, y_train)
        scores = decision_group(models, x_test)
        for n, (model, score, truth) in enumerate(zip(models, scores, truths)):
            s, v = divmod(n, len(variants))
            counts[s, k, v] = confusion_counts(truth, score >= 0.0)
            diagnostics[s][k][v] = model.diagnostics
    return counts, diagnostics


def run_experiment(
    dataset: LabeledDataset,
    classifiers=CLASSIFIER_KINDS,
    variants=VARIANTS,
    rates=(0.6,),
    reps: int = 100,
    seed: int = 0,
    threads: int = 1,
    global_prep: bool = False,
    config: PipelineConfig = PipelineConfig(),
) -> dict:
    """Full accuracy grid; returns a JSON-ready report dict.

    The report is a pure function of the run configuration. Classifier
    kinds, variants and rates must pass ``check_grid``, and ``reps`` and
    ``threads`` must be integers >= 1. The report names each classifier
    by its kind alone, since a kind fits at fixed settings. Every rep's
    splits are drawn and their features prepared first; then each
    classifier is fitted once over all of them, so SVM_POLY takes as
    many lockstep steps as its slowest dual needs, not that many per rep.
    The cells, ANOVA rows and difference rows read slices of one
    accuracy array indexed (classifier, variant, rate, rep). ``threads``
    changes nothing: it stays only because the benchmark harness in
    ``perfbench/`` passes it, and goes when that harness drops it.
    """
    for name, value in (("reps", reps), ("threads", threads)):
        check_integer(name, value, 1)
    kinds, variants, rates = check_grid(classifiers, variants, rates)
    splits = draw_splits(dataset, rates, reps, seed)
    counts, _ = evaluate_splits(dataset, splits, kinds, variants, global_prep, config)
    # counts[rep * len(rates) + r] holds the split of rep at rates[r]; in
    # acc[k, v, r, rep] each (classifier, variant, rate) slice is contiguous
    by_split = accuracy(counts).reshape(reps, len(rates), len(kinds), len(variants))
    acc = np.ascontiguousarray(by_split.transpose(2, 3, 1, 0))

    cells = []
    for k, v, r in np.ndindex(acc.shape[:3]):
        accs = acc[k, v, r]
        cells.append(
            {
                "classifier": kinds[k],
                "variant": variants[v],
                "rate": rates[r],
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs, ddof=1)) if reps > 1 else 0.0,
                "accuracies": accs.tolist(),
            }
        )

    baseline = "BASE" if "BASE" in variants else variants[0]
    anova_rows = []
    diff_rows = []
    for k, r in np.ndindex(len(kinds), len(rates)):
        # row v holds variant v's per-rep accuracies
        groups = acc[k, :, r]
        if len(variants) >= 2 and reps >= 2:
            result = anova_oneway(groups)
            anova_rows.append(
                {
                    "classifier": kinds[k],
                    "rate": rates[r],
                    "f": "inf" if result.infinite else float(result.f),
                    "df_between": result.df_between,
                    "df_within": result.df_within,
                    "infinite": result.infinite,
                }
            )
        base_mean = float(np.mean(groups[variants.index(baseline)]))
        for variant, accs in zip(variants, groups):
            if variant == baseline:
                continue
            diff_rows.append(
                {
                    "classifier": kinds[k],
                    "rate": rates[r],
                    "variant": variant,
                    "mean_diff_vs_baseline": float(np.mean(accs) - base_mean),
                }
            )

    return {
        "dataset": dataset.name,
        "classes": list(dataset.class_names),
        "n_segments": len(dataset.segments),
        "seed": seed,
        "rates": list(rates),
        "reps": reps,
        "classifiers": list(kinds),
        "variants": list(variants),
        "baseline_variant": baseline,
        "global_prep": global_prep,
        "median_mode": config.median_mode,
        "thresholds": asdict(config.thresholds),
        "soil": asdict(config.soil),
        "growth": asdict(config.growth),
        "cells": cells,
        "anova": anova_rows,
        "pairwise_diffs": diff_rows,
    }


# -- correlation report -----------------------------------------------------


def build_feature_table(
    dataset: LabeledDataset,
    seed: int | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> tuple[np.ndarray, tuple[str, ...]]:
    """(m, 16) raw feature table over the whole dataset: the 12 base
    columns, NF, RF, MaxPSD, MedPSD.

    ``seed`` is accepted for existing callers and ignored: the table is
    a deterministic function of the dataset and the config.
    """
    base = extract_base_matrix(dataset, config.thresholds)
    artifacts = fit_prep(base, dataset.labels)
    prs_rows = prs_features(base, artifacts, config)
    spectral_rows = extract_spectral_matrix(dataset, config.median_mode)
    table = np.column_stack([base, prs_rows, spectral_rows])
    return table, TABLE_NAMES


def correlation_matrix(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlations between columns.

    Returns (corr, constant_mask). A constant column has no defined
    correlation; its off-diagonal entries are set to 0 and flagged.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError("need a 2D table with at least 3 rows")
    centered = x - np.mean(x, axis=0)
    norms = np.sqrt(np.sum(centered**2, axis=0))
    constant = norms == 0.0
    safe = np.where(constant, 1.0, norms)
    unit = centered / safe
    corr = unit.T @ unit
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0), constant
