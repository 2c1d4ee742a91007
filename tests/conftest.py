from types import SimpleNamespace

import numpy as np
import pytest

from prs.dataset import LabeledDataset, SignalSegment, generate_synthetic
from prs.evaluation import (
    VARIANTS,
    assemble_variant,
    rep_rng,
    split_inputs,
    stratified_split,
)
from prs.feature_prep import apply_bounds, column_bounds
from prs.pipeline import fit_prep, prs_features


def make_segment(id, label, samples, fs=1000.0):
    return SignalSegment(
        id=id, label=label, sampling_rate=fs, samples=np.asarray(samples, dtype=np.float64)
    )


@pytest.fixture
def tiny_dataset():
    """4 segments, 2 per class, minimum-length signals."""
    rng = np.random.default_rng(11)
    segs = [
        make_segment("a1", "A", rng.normal(size=32)),
        make_segment("a2", "A", rng.normal(size=32)),
        make_segment("b1", "B", 3.0 + rng.normal(size=32)),
        make_segment("b2", "B", 3.0 + rng.normal(size=32)),
    ]
    return LabeledDataset(name="tiny", segments=tuple(segs))


@pytest.fixture(scope="session")
def small_synth():
    """Deterministic 12-segment synthetic dataset shared across tests."""
    return generate_synthetic(n_per_class=6, length=256, seed=3)


@pytest.fixture(scope="session")
def overlap_split():
    """Rep 0 of a seed-1 run at rate 0.6 on two overlapping classes
    (40 segments each, 64 samples at 1 kHz: unit noise plus a 10 Hz tone
    of amplitude 0.3 against unit noise scaled by 1.15), with the scaled
    train/test matrices of all five variants built as evaluate_split
    builds them."""
    rng = np.random.default_rng(1)
    tone = 0.3 * np.sin(2.0 * np.pi * 10.0 * np.arange(64) / 1000.0)
    segs = [make_segment(f"P{i}", "P", rng.standard_normal(64) + tone) for i in range(40)]
    segs += [make_segment(f"N{i}", "N", 1.15 * rng.standard_normal(64)) for i in range(40)]
    dataset = LabeledDataset(name="overlap", segments=tuple(segs))
    inputs = split_inputs(dataset, VARIANTS, (0.6,))
    train_idx, test_idx = stratified_split(
        inputs.labels, dataset.class_names, 0.6, rep_rng(1, 0)
    )
    base, spectral = inputs.base, inputs.spectral
    y_train = inputs.labels[train_idx]
    artifacts = fit_prep(base[train_idx], y_train)
    prs_train = prs_features(base[train_idx], artifacts, inputs.config)
    prs_test = prs_features(base[test_idx], artifacts, inputs.config)
    x_train, x_test = [], []
    for variant in VARIANTS:
        raw_train = assemble_variant(variant, base[train_idx], prs_train, spectral[train_idx])
        raw_test = assemble_variant(variant, base[test_idx], prs_test, spectral[test_idx])
        bounds = column_bounds(raw_train)
        x_train.append(apply_bounds(raw_train, bounds))
        x_test.append(apply_bounds(raw_test, bounds))
    return SimpleNamespace(
        inputs=inputs,
        train_idx=train_idx,
        test_idx=test_idx,
        x_train=x_train,
        x_test=x_test,
        y_train=y_train,
        y_test=inputs.labels[test_idx],
    )


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines after the test run."""
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)
