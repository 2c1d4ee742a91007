"""Repeated-split accuracy experiments and feature correlation reports.

A run crosses classifiers x feature variants x training rates over many
repetitions. Every repetition draws one stratified split per rate (seeded
as seed XOR rep_index) and reuses it across all variants and classifiers,
so the comparison between variants is paired. Feature preparation
(normalization bounds, gain ranking, soil bounds) is fitted on the
training fold only unless global_prep is set, which fits it once on the
whole dataset and is meant for protocol-replication runs.

Reports are plain dicts ready for json.dump; an infinite ANOVA F value
is serialized as the string "inf".
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .base_features import FEATURE_NAMES, ThresholdConfig
from .classifiers import CLASSIFIER_KINDS, ClassifierSpec, train
from .dataset import LabeledDataset
from .errors import PrsError
from .feature_prep import MIN_SAMPLES, apply_bounds, column_bounds
from .growth import GrowthConfig
from .pipeline import (
    PRS_NAMES,
    SPECTRAL_NAMES,
    extract_base_matrix,
    extract_spectral_matrix,
    fit_prep,
    prs_features,
)
from .soil import SoilConfig
from .spectral import MEDIAN_PSD

VARIANTS = ("BASE", "BASE_NF", "BASE_RF", "PRS", "COMPARISON")

# Extra columns appended to the 12 raw base columns, per variant.
_VARIANT_EXTRAS = {
    "BASE": (),
    "BASE_NF": ("NF",),
    "BASE_RF": ("RF",),
    "PRS": ("NF", "RF"),
    "COMPARISON": ("MaxPSD", "MedPSD"),
}

DEFAULT_CLASSIFIERS = CLASSIFIER_KINDS


@dataclass(frozen=True)
class ConfusionCounts:
    """2x2 confusion table; the second class plays the positive role."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ValueError("empty confusion table")
        return (self.tp + self.tn) / self.total


def confusion_counts(y_true, y_pred, classes: tuple[str, str]) -> ConfusionCounts:
    truth = [str(v) for v in np.asarray(y_true).ravel()]
    pred = [str(v) for v in np.asarray(y_pred).ravel()]
    if len(truth) != len(pred):
        raise ValueError("prediction count does not match label count")
    positive = classes[1]
    tp = tn = fp = fn = 0
    for t, p in zip(truth, pred):
        if t == positive:
            if p == positive:
                tp += 1
            else:
                fn += 1
        else:
            if p == positive:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


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


def _n_train(n_class: int, rate: float) -> int:
    """Training rows drawn from a class of n_class segments:
    round(rate * n_class) clamped to [1, n_class - 1]."""
    if not (0.0 < rate < 1.0):
        raise ValueError(f"training rate must be in (0, 1), got {rate}")
    return min(max(round(rate * n_class), 1), n_class - 1)


def stratified_split(labels, class_names, rate: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split: n_train = round(rate * n_c) clamped to [1, n_c - 1].
    Returns ascending (train_idx, test_idx)."""
    labels = [str(v) for v in labels]
    train, test = [], []
    for name in class_names:
        idx = np.array([i for i, v in enumerate(labels) if v == name])
        if idx.size < 2:
            raise ValueError(f"class {name!r} needs at least 2 segments to split")
        n_train = _n_train(idx.size, rate)
        perm = rng.permutation(idx.size)
        train.extend(idx[perm[:n_train]].tolist())
        test.extend(idx[perm[n_train:]].tolist())
    return np.sort(np.array(train)), np.sort(np.array(test))


def _extra_columns(names, prs_rows, spectral_rows):
    sources = {
        "NF": prs_rows[:, 0],
        "RF": prs_rows[:, 1],
        "MaxPSD": spectral_rows[:, 0],
        "MedPSD": spectral_rows[:, 1],
    }
    return [sources[name] for name in names]


def assemble_variant(
    variant: str, base_rows: np.ndarray, prs_rows, spectral_rows
) -> np.ndarray:
    """Raw feature matrix for one variant: base columns plus its extras."""
    if variant not in _VARIANT_EXTRAS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    extras = _extra_columns(_VARIANT_EXTRAS[variant], prs_rows, spectral_rows)
    if not extras:
        return base_rows.copy()
    return np.column_stack([base_rows] + extras)


def _resolve_classifiers(classifiers) -> list[ClassifierSpec]:
    specs = []
    for entry in classifiers:
        if isinstance(entry, ClassifierSpec):
            specs.append(entry)
        else:
            specs.append(ClassifierSpec(kind=str(entry)))
    kinds = [s.kind for s in specs]
    if len(set(kinds)) != len(kinds):
        raise ValueError("classifier kinds must be unique within one run")
    return specs


def run_experiment(
    dataset: LabeledDataset,
    classifiers=DEFAULT_CLASSIFIERS,
    variants=VARIANTS,
    rates=(0.6,),
    reps: int = 100,
    seed: int = 0,
    threads: int = 1,
    global_prep: bool = False,
    thresholds: ThresholdConfig = ThresholdConfig(),
    soil_config: SoilConfig = SoilConfig(),
    growth_config: GrowthConfig = GrowthConfig(),
    median_mode: str = MEDIAN_PSD,
) -> dict:
    """Full accuracy grid; returns a JSON-ready report dict.

    The report is a pure function of the run configuration: thread count
    changes scheduling only, never results.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    specs = _resolve_classifiers(classifiers)
    variants = tuple(variants)
    rates = tuple(float(r) for r in rates)
    needs_prs = any(_needs(variants, n) for n in PRS_NAMES)
    needs_spectral = any(_needs(variants, n) for n in SPECTRAL_NAMES)
    if needs_prs and not global_prep:
        _check_prep_folds(dataset, rates)

    base = extract_base_matrix(dataset, thresholds)
    labels = np.array(base.labels)
    class_names = dataset.class_names
    spectral_rows = (
        extract_spectral_matrix(dataset, median_mode)
        if needs_spectral
        else np.zeros((len(labels), 2))
    )
    global_artifacts = None
    global_prs = None
    if global_prep and needs_prs:
        global_artifacts = fit_prep(base.values, labels, seed=seed)
        global_prs = prs_features(base.values, global_artifacts, soil_config, growth_config)

    def run_rep(rep_index: int) -> dict:
        rep_seed = seed ^ rep_index
        rng = np.random.default_rng(rep_seed)
        out = {}
        for rate in rates:
            train_idx, test_idx = stratified_split(labels, class_names, rate, rng)
            if needs_prs:
                if global_prep:
                    prs_train = global_prs[train_idx]
                    prs_test = global_prs[test_idx]
                else:
                    artifacts = fit_prep(
                        base.values[train_idx],
                        labels[train_idx],
                        seed=rep_seed,
                    )
                    prs_train = prs_features(
                        base.values[train_idx], artifacts, soil_config, growth_config
                    )
                    prs_test = prs_features(
                        base.values[test_idx], artifacts, soil_config, growth_config
                    )
            else:
                prs_train = np.zeros((len(train_idx), 2))
                prs_test = np.zeros((len(test_idx), 2))
            for variant in variants:
                raw_train = assemble_variant(
                    variant, base.values[train_idx], prs_train, spectral_rows[train_idx]
                )
                raw_test = assemble_variant(
                    variant, base.values[test_idx], prs_test, spectral_rows[test_idx]
                )
                bounds = column_bounds(raw_train)
                x_train = apply_bounds(raw_train, bounds)
                x_test = apply_bounds(raw_test, bounds)
                for spec in specs:
                    model = train(spec, x_train, labels[train_idx])
                    counts = confusion_counts(
                        labels[test_idx], model.predict(x_test), model.classes
                    )
                    out[(spec.kind, variant, rate)] = counts.accuracy
        return out

    if threads == 1:
        rep_results = [run_rep(r) for r in range(reps)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rep_results = list(pool.map(run_rep, range(reps)))

    cells = []
    acc_lists: dict[tuple[str, str, float], list[float]] = {}
    for spec in specs:
        for variant in variants:
            for rate in rates:
                key = (spec.kind, variant, rate)
                accs = [rep_results[r][key] for r in range(reps)]
                acc_lists[key] = accs
                arr = np.array(accs)
                cells.append(
                    {
                        "classifier": spec.kind,
                        "variant": variant,
                        "rate": rate,
                        "mean_accuracy": float(np.mean(arr)),
                        "std_accuracy": float(np.std(arr, ddof=1)) if reps > 1 else 0.0,
                        "accuracies": [float(a) for a in accs],
                    }
                )

    baseline = "BASE" if "BASE" in variants else variants[0]
    anova_rows = []
    diff_rows = []
    for spec in specs:
        for rate in rates:
            # each ANOVA group is one variant's per-rep accuracies
            if len(variants) >= 2 and reps >= 2:
                result = anova_oneway(
                    [acc_lists[(spec.kind, v, rate)] for v in variants]
                )
                anova_rows.append(
                    {
                        "classifier": spec.kind,
                        "rate": rate,
                        "f": "inf" if result.infinite else float(result.f),
                        "df_between": result.df_between,
                        "df_within": result.df_within,
                        "infinite": result.infinite,
                    }
                )
            base_mean = float(np.mean(acc_lists[(spec.kind, baseline, rate)]))
            for variant in variants:
                if variant == baseline:
                    continue
                diff_rows.append(
                    {
                        "classifier": spec.kind,
                        "rate": rate,
                        "variant": variant,
                        "mean_diff_vs_baseline": float(
                            np.mean(acc_lists[(spec.kind, variant, rate)]) - base_mean
                        ),
                    }
                )

    return {
        "dataset": dataset.name,
        "classes": list(class_names),
        "n_segments": len(dataset.segments),
        "seed": seed,
        "rates": list(rates),
        "reps": reps,
        "classifiers": [s.kind for s in specs],
        "classifier_params": {s.kind: asdict(s) for s in specs},
        "variants": list(variants),
        "baseline_variant": baseline,
        "global_prep": global_prep,
        "median_mode": median_mode,
        "thresholds": asdict(thresholds),
        "soil": asdict(soil_config),
        "growth": {
            "days": growth_config.days,
            "division_limit": growth_config.division_limit,
            "radicle": [list(cell) for cell in growth_config.radicle],
            "occupy_zero": growth_config.occupy_zero,
        },
        "cells": cells,
        "anova": anova_rows,
        "pairwise_diffs": diff_rows,
    }


def _check_prep_folds(dataset: LabeledDataset, rates) -> None:
    """Fail before any work when a training fold is too small for
    per-fold feature preparation."""
    sizes = [dataset.labels.count(name) for name in dataset.class_names]
    for rate in rates:
        rows = sum(_n_train(n, rate) for n in sizes)
        if rows < MIN_SAMPLES:
            raise PrsError(
                f"training folds at rate {rate} hold {rows} rows, but per-fold "
                f"feature preparation needs at least {MIN_SAMPLES}; the smallest "
                f"class has {min(sizes)} segments"
            )


def _needs(variants, column_name: str) -> bool:
    return any(column_name in _VARIANT_EXTRAS.get(v, ()) for v in variants)


# -- correlation report -----------------------------------------------------

TABLE_NAMES = tuple(FEATURE_NAMES) + PRS_NAMES + SPECTRAL_NAMES


def build_feature_table(
    dataset: LabeledDataset,
    seed: int,
    thresholds: ThresholdConfig = ThresholdConfig(),
    soil_config: SoilConfig = SoilConfig(),
    growth_config: GrowthConfig = GrowthConfig(),
    median_mode: str = MEDIAN_PSD,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """(m, 16) raw feature table over the whole dataset: the 12 base
    columns, NF, RF, MaxPSD, MedPSD.

    The feature ranking is exact and no longer uses ``seed``; the
    keyword stays for existing callers.
    """
    base = extract_base_matrix(dataset, thresholds)
    artifacts = fit_prep(base.values, base.labels, seed=seed)
    prs_rows = prs_features(base.values, artifacts, soil_config, growth_config)
    spectral_rows = extract_spectral_matrix(dataset, median_mode)
    table = np.column_stack([base.values, prs_rows, spectral_rows])
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
