"""End-to-end wiring: segments -> base features -> soil -> root features.

``extract_base_matrix`` and ``extract_spectral_matrix`` group segments by
length (and sampling rate) and run the array-at-a-time kernels of
``base_features`` and ``spectral`` on row blocks, scattering the rows back
in dataset order, as plain arrays.

The stateful part of the chain (normalization bounds, information-gain
ranking, column order) is fitted once on training rows and labels by
``fit_prep`` and captured in PrepArtifacts; any row, training or
held-out, can then be pushed through the same frozen transform. On the
training rows it maps a live column onto exactly [0, 1] and a constant
one to 0, so the soil bins every column on [0, 1]. Held-out rows may
land outside [0, 1], which the soil binning clamps.

``PipelineConfig`` holds the settings of the feature pipeline: the
base-feature thresholds, soil depth and fill, growth, and the MedPSD
mode. The growth grid is the soil grid (``soil.depth`` rows by one
column per base feature), so the config rejects a radicle outside it.

``prs_features`` bins, grows and takes hull areas array-at-a-time, with
each nutrient grid summed exactly from cached column responses
(``soil.nutrient_grids``) instead of convolved. Binning is the only
step that reads the artifacts; the kernels then take bins alone, in
blocks of rows. So one call can take runs of rows binned under
different artifacts: ``evaluate_splits`` sends every split's training
and test rows, each split under its own fold's artifacts, through one
kernel pass per run. The one-row chain of the CLI ``soil-dump`` and
``grow`` commands (``soil.build_discrete_soil`` -> ``soil.convolve_soil``
-> ``growth.grow`` -> ``growth.extract_prs``) passes plain arrays and
runs the same binning, growth and hull kernels on a one-row block. The
per-row loops both are tested against, bit for bit, live in
``tests/reference.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .base_features import (
    N_BASE_FEATURES,
    ThresholdConfig,
    base_feature_rows,
    compute_base_features,
    degenerate_rows,
)
from .dataset import LabeledDataset, SignalSegment
from .feature_prep import (
    MIN_SAMPLES,
    apply_bounds,
    center_out_positions,
    column_bounds,
    rank_features,
)
from .growth import GrowthConfig, check_radicle, grow_batch, hull_areas
from .soil import SoilConfig, bin_indices, nutrient_grids
from .spectral import MEDIAN_MODES, MEDIAN_PSD, compute_spectral, spectral_rows
# The one-row chain is not called here; its names stay module attributes
# because perfbench/tracer.py wraps them on prs.pipeline by name.
from .growth import extract_prs, grow  # noqa: F401
from .soil import build_discrete_soil, convolve_soil  # noqa: F401

PRS_NAMES = ("NF", "RF")

# Rows per block of the growth and hull kernels in prs_features. On a
# 2000-row table (2-vCPU Xeon, timed back to back) blocks of 64, 128,
# 256 and 512 rows took 17.0, 13.4, 10.6 and 11.1 us per row. A call's
# tracemalloc peak grows with the block: 0.96 MB at 64 rows and 1.7-1.9
# MB at 256 on that table (~0.5 MB of it is binning the whole table
# first), and 1.35 MB for the one call of a 3-rep grid-separable run.
_PRS_BLOCK = 256

# Samples per block in extract_base_matrix / extract_spectral_matrix
# (16 rows of 512, 4 of 2000). Blocks four times larger ran no faster per
# row and raised the peak resident memory of a 2000 x 512 table by ~5%.
# With one block buffer per group, 16384 ran no faster either: 5
# alternated 8-s grid-separable runs read wall_s medians 0.01985 s at
# 8192 and 0.01995 s at 16384 (faster in 2/5), peak_rss_mb 47.6 and 47.7
# (2-vCPU Xeon).
_SEGMENT_BLOCK_SAMPLES = 8192


@dataclass(frozen=True)
class PipelineConfig:
    """The settings of the feature pipeline, one frozen value per run."""

    thresholds: ThresholdConfig = ThresholdConfig()
    soil: SoilConfig = SoilConfig()
    growth: GrowthConfig = GrowthConfig()
    median_mode: str = MEDIAN_PSD

    def __post_init__(self):
        if self.median_mode not in MEDIAN_MODES:
            raise ValueError(
                f"median_mode must be one of {MEDIAN_MODES}, got {self.median_mode!r}"
            )
        check_radicle(self.growth.radicle, (self.soil.depth, N_BASE_FEATURES))


@dataclass(frozen=True)
class PrepArtifacts:
    """Frozen train-fold state for the feature transform.

    feature_bounds  per-column (min, max) of the raw base features
    gains           information gain per raw column, in base-feature order
    order           column permutation applied after normalization
    """

    feature_bounds: np.ndarray
    gains: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        n = len(self.gains)
        if self.feature_bounds.shape != (n, 2):
            raise ValueError("bounds arrays must be shaped (n_features, 2)")
        if sorted(self.order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of the columns")


def fit_prep(base_values: np.ndarray, labels) -> PrepArtifacts:
    """Fit normalization, ranking, and ordering on training rows.

    Deterministic: the ranking split is exact, so no seed is involved.
    """
    values = np.asarray(base_values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("feature matrix must be 2D")
    m, n = values.shape
    if m < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {m}")
    if len(labels) != m:
        raise ValueError(f"{m} rows but {len(labels)} labels")
    if np.isnan(values).any():
        raise ValueError("feature matrix contains NaN")
    bounds = column_bounds(values)
    norm = apply_bounds(values, bounds)
    gains = rank_features(norm, labels)
    # the gain ranks go center-out; ties break toward the lower column
    order = np.empty(n, dtype=np.int64)
    order[list(center_out_positions(n))] = np.argsort(-gains, kind="stable")
    return PrepArtifacts(feature_bounds=bounds, gains=gains, order=order)


def transform_rows(base_values: np.ndarray, artifacts: PrepArtifacts) -> np.ndarray:
    """Normalize raw base rows with fitted bounds, then reorder columns."""
    values = np.asarray(base_values, dtype=np.float64)
    return apply_bounds(values, artifacts.feature_bounds)[:, artifacts.order]


def prs_features(
    base_values: np.ndarray,
    artifacts: PrepArtifacts | Sequence[tuple[PrepArtifacts, int]],
    config: PipelineConfig = PipelineConfig(),
) -> np.ndarray:
    """(m, 2) array of [NF, RF] rows for a raw (m, n_features) base matrix.

    ``artifacts`` is one ``PrepArtifacts`` for every row, or a sequence
    of (PrepArtifacts, n_rows) runs that cover the rows in order, so that
    the rows of many training folds go through the kernels together. Row
    s equals, bit for bit, ``extract_prs(grow(convolve_soil(
    build_discrete_soil(...))))`` of row s alone under its run's
    artifacts.
    """
    values = np.asarray(base_values, dtype=np.float64)
    runs = [(artifacts, len(values))] if isinstance(artifacts, PrepArtifacts) else artifacts
    for prep, _ in runs:
        if values.ndim != 2 or values.shape[1] != len(prep.order):
            raise ValueError(
                f"expected an (m, {len(prep.order)}) base-feature "
                f"matrix, got shape {values.shape}"
            )
    counts = [n_rows for _, n_rows in runs]
    if min(counts, default=0) < 0:
        raise ValueError(f"artifact run row counts must be >= 0, got {counts}")
    if sum(counts) != len(values):
        raise ValueError(
            f"the artifact runs cover {sum(counts)} rows, but the base "
            f"matrix has {len(values)}"
        )
    bins = np.empty(values.shape, dtype=np.int64)
    start = 0
    for prep, n_rows in runs:
        rows = slice(start, start + n_rows)
        bins[rows] = bin_indices(transform_rows(values[rows], prep), config.soil.depth)
        start += n_rows
    out = np.empty((len(values), 2))
    for start in range(0, len(values), _PRS_BLOCK):
        block = bins[start : start + _PRS_BLOCK]
        absorbed, occupancy, _ = grow_batch(
            nutrient_grids(block, config.soil), config.growth
        )
        out[start : start + len(block), 0] = absorbed
        out[start : start + len(block), 1] = hull_areas(occupancy)
    return out


def _segment_blocks(segments: tuple[SignalSegment, ...]):
    """Yield (row indices, (k, n) samples, sampling rate) for blocks of
    segments sharing length and rate, each about _SEGMENT_BLOCK_SAMPLES
    samples and at least one row; indices are in dataset order.

    A group's blocks are copied into one buffer, which the next block
    overwrites: consume each block before asking for the next, as both
    callers do. Copying the 20 blocks of 80 x 2000 samples row by row took
    ~100 us on a 2-vCPU Xeon, against ~190 us for a fresh ``np.stack``.
    """
    groups: dict[tuple[int, float], list[int]] = {}
    for idx, seg in enumerate(segments):
        groups.setdefault((len(seg), seg.sampling_rate), []).append(idx)
    for (length, rate), rows in groups.items():
        step = max(1, _SEGMENT_BLOCK_SAMPLES // length)
        buffer = np.empty((min(step, len(rows)), length))
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            block = buffer[: len(chunk)]
            for j, i in enumerate(chunk):
                block[j] = segments[i].samples
            yield chunk, block, rate


def extract_base_matrix(
    dataset: LabeledDataset,
    thresholds: ThresholdConfig = ThresholdConfig(),
    centered_var: bool = False,
) -> np.ndarray:
    """Raw (m, 12) base-feature matrix, one row per segment.

    Raises the error ``compute_base_features`` raises for the first
    constant, underflowing or overflowing segment in dataset order.
    """
    values = np.empty((len(dataset.segments), N_BASE_FEATURES))
    for rows, samples, _ in _segment_blocks(dataset.segments):
        values[rows] = base_feature_rows(samples, thresholds, centered_var)
    bad = np.flatnonzero(degenerate_rows(values))
    if bad.size:
        # the one-row path raises the error that names the segment
        compute_base_features(dataset.segments[bad[0]], thresholds, centered_var)
    return values


def extract_spectral_matrix(
    dataset: LabeledDataset, median_mode: str = MEDIAN_PSD
) -> np.ndarray:
    """(m, 2) array of [MaxPSD, MedPSD], one row per segment.

    Raises DegenerateDataError naming the first segment, in dataset order,
    whose spectrum overflows float64.
    """
    out = np.empty((len(dataset.segments), 2))
    for rows, samples, rate in _segment_blocks(dataset.segments):
        out[rows] = spectral_rows(samples, rate, median_mode)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        # the one-row path raises the error that names the segment
        compute_spectral(dataset.segments[bad[0]], median_mode)
    return out
