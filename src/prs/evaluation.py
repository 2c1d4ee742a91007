"""Repeated-split accuracy experiments and feature correlation reports.

A run crosses classifiers x feature variants x training rates over many
repetitions. Every repetition draws one stratified split per rate from
``rep_rng(seed, rep)`` and reuses it across all variants and classifiers,
so the comparison between variants is paired. ``evaluate_splits`` is the
one split evaluator: feature preparation (normalization bounds, gain
ranking, soil bounds) is fitted on each training fold only unless
global_prep is set, which fits it once on the whole dataset and is
meant for protocol-replication runs. ``run_experiment`` draws and
prepares every rep's splits first, then fits each classifier once over
all of them and predicts its test matrices as one group, so that every
kind fits and scores the problems of every rep, rate and variant in
stacks of equal shape (SVM_POLY steps its duals in lockstep loops whose
kernel memory the classifiers module bounds by a byte budget, as the
duals of a run grow with reps). ``prs classify`` is rep 0 of
``run_experiment`` with one classifier, variant and rate. One
``pipeline.PipelineConfig`` carries the feature settings (thresholds,
soil, growth, median mode) of a run, so a PRS ablation is a config.

Reports are plain dicts ready for json.dump; an infinite ANOVA F value
is serialized as the string "inf".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .base_features import FEATURE_NAMES
from .classifiers import CLASSIFIER_KINDS, ClassifierSpec, predict_group, train_group
# not called here: the benchmark tracer (perfbench/tracer.py) wraps evaluation.train
from .classifiers import train  # noqa: F401
from .dataset import LabeledDataset
from .errors import PrsError, check_integer
from .feature_prep import MIN_SAMPLES, apply_bounds, column_bounds
from .pipeline import (
    PRS_NAMES,
    SPECTRAL_NAMES,
    PipelineConfig,
    extract_base_matrix,
    extract_spectral_matrix,
    fit_prep,
    prs_features,
)

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
    truth = np.asarray(y_true).ravel().astype(str) == classes[1]
    pred = np.asarray(y_pred).ravel().astype(str) == classes[1]
    if truth.size != pred.size:
        raise ValueError("prediction count does not match label count")
    tp = int(np.count_nonzero(truth & pred))
    fn = int(np.count_nonzero(truth)) - tp
    fp = int(np.count_nonzero(pred)) - tp
    return ConfusionCounts(tp=tp, tn=truth.size - tp - fn - fp, fp=fp, fn=fn)


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


def _needs(variants, column_names) -> bool:
    return any(
        name in _VARIANT_EXTRAS.get(v, ()) for v in variants for name in column_names
    )


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


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Generator that draws the splits of repetition ``rep``."""
    return np.random.default_rng(seed ^ rep)


@dataclass(frozen=True)
class SplitInputs:
    """Per-segment rows that every split of one dataset draws from.

    spectral is all zeros when no variant has MaxPSD/MedPSD; global_prs
    holds NF/RF fitted on the whole dataset under global prep, else None
    and NF/RF are fitted per training fold with ``config``.
    """

    base: np.ndarray
    labels: np.ndarray
    spectral: np.ndarray
    global_prs: np.ndarray | None
    config: PipelineConfig


def split_inputs(
    dataset: LabeledDataset,
    variants,
    rates,
    global_prep: bool = False,
    config: PipelineConfig = PipelineConfig(),
) -> SplitInputs:
    """Rows for ``evaluate_splits`` over ``variants``; computes only the
    columns those variants use. Raises ``PrsError`` before any feature
    work when per-fold prep would get too few rows at one of ``rates``."""
    needs_prs = _needs(variants, PRS_NAMES)
    if needs_prs and not global_prep:
        _check_prep_folds(dataset, rates)
    base = extract_base_matrix(dataset, config.thresholds)
    labels = np.array(dataset.labels)
    spectral = (
        extract_spectral_matrix(dataset, config.median_mode)
        if _needs(variants, SPECTRAL_NAMES)
        else np.zeros((len(labels), 2))
    )
    global_prs = None
    if global_prep and needs_prs:
        artifacts = fit_prep(base, labels)
        global_prs = prs_features(base, artifacts, config)
    return SplitInputs(base, labels, spectral, global_prs, config)


class SplitResult(NamedTuple):
    counts: ConfusionCounts
    diagnostics: dict


def evaluate_splits(
    inputs: SplitInputs, splits, specs, variants
) -> list[dict[tuple[str, str], SplitResult]]:
    """Train and score every classifier on every variant of each split.

    ``splits`` is a sequence of (train_idx, test_idx) pairs and
    ``inputs`` comes from ``split_inputs`` for the same variants. NF/RF
    are the global-prep rows when ``inputs`` has them, else fitted on
    each training fold and computed by one ``prs_features`` call over the
    split's training and test rows; each variant is scaled by its
    training columns' bounds. Every split's variants are assembled and
    scaled first; then each classifier makes one ``train_group`` fit
    over all of them and one ``predict_group`` call over their test
    matrices, which stack the problems of equal shape. One dict per
    split, keyed by (classifier kind, variant).
    """
    base, labels, spectral = inputs.base, inputs.labels, inputs.spectral
    x_train, y_train, tests = [], [], []
    for train_idx, test_idx in splits:
        y_fold, y_test = labels[train_idx], labels[test_idx]
        if not _needs(variants, PRS_NAMES):
            prs_train = np.zeros((len(train_idx), 2))
            prs_test = np.zeros((len(test_idx), 2))
        elif inputs.global_prs is not None:
            prs_train = inputs.global_prs[train_idx]
            prs_test = inputs.global_prs[test_idx]
        else:
            # one call for both parts: they share the artifacts
            artifacts = fit_prep(base[train_idx], y_fold)
            rows = np.concatenate([train_idx, test_idx])
            prs_rows = prs_features(base[rows], artifacts, inputs.config)
            prs_train, prs_test = np.split(prs_rows, [len(train_idx)])
        for variant in variants:
            raw_train = assemble_variant(
                variant, base[train_idx], prs_train, spectral[train_idx]
            )
            raw_test = assemble_variant(
                variant, base[test_idx], prs_test, spectral[test_idx]
            )
            bounds = column_bounds(raw_train)
            x_train.append(apply_bounds(raw_train, bounds))
            y_train.append(y_fold)
            tests.append((variant, apply_bounds(raw_test, bounds), y_test))
    results = [{} for _ in splits]
    for spec in specs:
        models = train_group(spec, x_train, y_train)
        predictions = predict_group(models, [x for _, x, _ in tests])
        for n, (model, y_pred, (variant, _, y_test)) in enumerate(
            zip(models, predictions, tests)
        ):
            counts = confusion_counts(y_test, y_pred, model.classes)
            results[n // len(variants)][(spec.kind, variant)] = SplitResult(
                counts, model.diagnostics
            )
    return results


def run_experiment(
    dataset: LabeledDataset,
    classifiers=DEFAULT_CLASSIFIERS,
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
    kinds, variants and rates must each be unique, and ``reps`` and
    ``threads`` integers >= 1. Every rep's splits are drawn and their
    features prepared first; then each classifier is fitted once over
    all of them, so SVM_POLY takes as many lockstep steps as its slowest
    dual needs, not that many per rep. ``threads`` is kept as the worker
    count of a later process-sharded run, but changes nothing today.
    """
    for name, value in (("reps", reps), ("threads", threads)):
        check_integer(name, value)
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    specs = [
        c if isinstance(c, ClassifierSpec) else ClassifierSpec(kind=str(c))
        for c in classifiers
    ]
    variants = tuple(variants)
    rates = tuple(float(r) for r in rates)
    for name, values in (
        ("classifier kinds", [s.kind for s in specs]),
        ("variants", variants),
        ("rates", rates),
    ):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must be unique within one run")
    class_names = dataset.class_names
    inputs = split_inputs(dataset, variants, rates, global_prep, config)

    splits = []
    for rep in range(reps):
        rng = rep_rng(seed, rep)
        splits += [
            stratified_split(inputs.labels, class_names, rate, rng) for rate in rates
        ]
    results = evaluate_splits(inputs, splits, specs, variants)
    # results[rep * len(rates) + r] is the split of rep at rates[r]
    rep_results = [{} for _ in range(reps)]
    for n, split_results in enumerate(results):
        rep, r = divmod(n, len(rates))
        for (kind, variant), result in split_results.items():
            rep_results[rep][(kind, variant, rates[r])] = result.counts.accuracy

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
        "median_mode": config.median_mode,
        "thresholds": asdict(config.thresholds),
        "soil": asdict(config.soil),
        "growth": asdict(config.growth),
        "cells": cells,
        "anova": anova_rows,
        "pairwise_diffs": diff_rows,
    }


# -- correlation report -----------------------------------------------------

TABLE_NAMES = tuple(FEATURE_NAMES) + PRS_NAMES + SPECTRAL_NAMES


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
