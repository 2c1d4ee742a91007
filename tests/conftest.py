import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import prs
from prs import dataset as dataset_module
from prs.dataset import LabeledDataset, SignalSegment, generate_synthetic
from prs.evaluation import VARIANTS, assemble_variant, draw_splits
from prs.feature_prep import _two_means_thresholds, apply_bounds, column_bounds
from prs.pipeline import (
    PipelineConfig,
    extract_base_matrix,
    extract_spectral_matrix,
    fit_prep,
    prs_features,
)


def make_segment(id, label, samples, fs=1000.0):
    return SignalSegment(
        id=id, label=label, sampling_rate=fs, samples=np.asarray(samples, dtype=np.float64)
    )


def exact_split(values):
    """Set index in {1, 2} of each value: set 1 is at or below the exact
    2-means threshold of ``feature_prep._two_means_thresholds``."""
    v = np.asarray(values, dtype=np.float64)
    return np.where(v <= _two_means_thresholds(np.sort(v)[:, None])[0], 1, 2)


def split_sse(values, assignment):
    """Within-set sum of squares of a split into sets 1 and 2."""
    v = np.asarray(values, dtype=np.float64)
    sets = [v[assignment == s] for s in (1, 2)]
    return sum(float(np.sum((x - x.mean()) ** 2)) for x in sets)


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
def overlap_dataset():
    """Two overlapping classes, 40 segments each of 64 samples at 1 kHz:
    unit noise plus a 10 Hz tone of amplitude 0.3 against unit noise
    scaled by 1.15."""
    rng = np.random.default_rng(1)
    tone = 0.3 * np.sin(2.0 * np.pi * 10.0 * np.arange(64) / 1000.0)
    segs = [make_segment(f"P{i}", "P", rng.standard_normal(64) + tone) for i in range(40)]
    segs += [make_segment(f"N{i}", "N", 1.15 * rng.standard_normal(64)) for i in range(40)]
    return LabeledDataset(name="overlap", segments=tuple(segs))


def dataset_rows(dataset, config=PipelineConfig()):
    """The base and spectral rows of every segment and the labels, as
    evaluate_splits computes them, with the config they were made under."""
    return SimpleNamespace(
        base=extract_base_matrix(dataset, config.thresholds),
        spectral=extract_spectral_matrix(dataset, config.median_mode),
        labels=np.array(dataset.labels),
        config=config,
    )


def scaled_variants(inputs, train_idx, test_idx, global_prs=None):
    """Scaled train/test matrices of all five variants of one split,
    built from the public functions as evaluate_splits builds them;
    ``inputs`` comes from ``dataset_rows``. NF/RF are fitted on the
    training fold, or taken from ``global_prs`` (NF/RF of every row)."""
    base, spectral = inputs.base, inputs.spectral
    if global_prs is None:
        artifacts = fit_prep(base[train_idx], inputs.labels[train_idx])
        prs_train = prs_features(base[train_idx], artifacts, inputs.config)
        prs_test = prs_features(base[test_idx], artifacts, inputs.config)
    else:
        prs_train, prs_test = global_prs[train_idx], global_prs[test_idx]
    table_train = np.column_stack([base[train_idx], prs_train, spectral[train_idx]])
    table_test = np.column_stack([base[test_idx], prs_test, spectral[test_idx]])
    x_train, x_test = [], []
    for variant in VARIANTS:
        # assembled before it is scaled: evaluate_splits scales the whole table
        raw_train = assemble_variant(variant, table_train)
        raw_test = assemble_variant(variant, table_test)
        bounds = column_bounds(raw_train)
        x_train.append(apply_bounds(raw_train, bounds))
        x_test.append(apply_bounds(raw_test, bounds))
    return x_train, x_test


@pytest.fixture(scope="session")
def overlap_split(overlap_dataset):
    """Rep 0 of a seed-1 run at rate 0.6 on the overlap dataset, with
    the scaled train/test matrices of all five variants."""
    inputs = dataset_rows(overlap_dataset)
    [(train_idx, test_idx)] = draw_splits(overlap_dataset, (0.6,), 1, 1)
    x_train, x_test = scaled_variants(inputs, train_idx, test_idx)
    return SimpleNamespace(
        dataset=overlap_dataset,
        inputs=inputs,
        train_idx=train_idx,
        test_idx=test_idx,
        x_train=x_train,
        x_test=x_test,
        y_train=inputs.labels[train_idx],
        y_test=inputs.labels[test_idx],
    )


@pytest.fixture(scope="session")
def overlap_reps(overlap_dataset):
    """Reps 0-2 of a seed-1 run at rates 0.5 and 0.7 on the overlap
    dataset: the splits in run order (rep-major) and, for every split
    and variant in that order, the scaled training matrix and labels."""
    rates = (0.5, 0.7)
    inputs = dataset_rows(overlap_dataset)
    splits = draw_splits(overlap_dataset, rates, 3, 1)
    x_train, y_train = [], []
    for split in splits:
        x_train += scaled_variants(inputs, *split)[0]
        y_train += [inputs.labels[split[0]]] * len(VARIANTS)
    return SimpleNamespace(
        dataset=overlap_dataset,
        inputs=inputs,
        rates=rates,
        splits=splits,
        x_train=x_train,
        y_train=y_train,
    )


@pytest.fixture
def parent_writes(monkeypatch):
    """The id of each segment whose signal file ``write_dataset`` writes,
    or tries to, in this process, in order; a forked child's are not
    counted."""
    ids = []
    write_file = dataset_module._write_signal_file

    def counting_write_file(path, samples):
        ids.append(path.stem)
        write_file(path, samples)

    monkeypatch.setattr(dataset_module, "_write_signal_file", counting_write_file)
    return ids


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a ``multiprocessing`` child running, as
    ``load_dataset`` or ``write_dataset`` would if a child outlived them.
    Such a child is stopped, so that it fails no later test."""
    yield
    if "multiprocessing" not in sys.modules:  # nothing forked: import nothing
        return
    children = sys.modules["multiprocessing"].active_children()
    for child in children:
        child.terminate()
        child.join()
    if children:
        pytest.fail(f"left running: {children}")


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


def run_cli(argv, **env):
    """``python -m prs.cli *argv`` in a child process, with ``env`` added
    to its environment; returns the completed process, output as text."""
    src = str(Path(prs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "prs.cli", *argv],
        env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
