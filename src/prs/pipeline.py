"""End-to-end wiring: segments -> base features -> soil -> root features.

``extract_base_matrix`` and ``extract_spectral_matrix`` group segments by
length (and sampling rate) and run the array-at-a-time kernels of
``base_features`` and ``spectral`` on row blocks, scattering the rows back
in dataset order, as plain arrays.

The stateful part of the chain (normalization bounds, information-gain
ranking, column order, soil binning bounds) is fitted once on training
rows and labels by ``fit_prep`` and captured in PrepArtifacts; any row,
training or held-out, can then be pushed through the same frozen
transform. Held-out rows may land outside the fitted bounds, which the
soil binning clamps.

``PipelineConfig`` holds the settings of the feature pipeline: the
base-feature thresholds, soil depth and fill, growth, and the MedPSD
mode. The growth grid is the soil grid (``soil.depth`` rows by one
column per base feature), so the config rejects a radicle outside it.

``prs_features`` is the production path: it bins, grows and takes hull
areas array-at-a-time over blocks of rows, with each nutrient grid summed
exactly from cached column responses (``soil.nutrient_grids``) instead
of convolved. The per-row chain
(``soil_for_row`` -> ``nutrients_for_row`` -> ``prs_pair_for_row``) is
its bit-for-bit reference and backs the CLI ``soil-dump`` and ``grow``
commands, including the growth day log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_features import (
    N_BASE_FEATURES,
    ThresholdConfig,
    base_feature_rows,
    compute_base_features,
)
from .dataset import LabeledDataset, SignalSegment
from .feature_prep import (
    MIN_SAMPLES,
    apply_bounds,
    center_out_positions,
    column_bounds,
    rank_features,
)
from .growth import (
    GrowthConfig,
    PRSFeaturePair,
    check_radicle,
    extract_prs,
    grow,
    grow_batch,
    hull_areas,
)
from .soil import (
    DiscreteSoil,
    NutrientMatrix,
    SoilConfig,
    bin_indices,
    build_discrete_soil,
    convolve_soil,
    nutrient_grids,
)
from .spectral import MEDIAN_MODES, MEDIAN_PSD, spectral_rows
# compute_spectral is not called here; it stays a module attribute because
# perfbench/tracer.py wraps prs.pipeline.compute_spectral by name.
from .spectral import compute_spectral  # noqa: F401

PRS_NAMES = ("NF", "RF")
SPECTRAL_NAMES = ("MaxPSD", "MedPSD")

# Rows per array-at-a-time block in prs_features. Blocks of 128 or 256
# rows run ~20-30% faster per row on a 2000-row table, but a call's
# tracemalloc peak grows with the block: 0.42 MB at 64 rows, 0.77 MB at
# 128 and 1.5 MB at 256.
_PRS_BLOCK = 64

# Samples per block in extract_base_matrix / extract_spectral_matrix
# (16 rows of 512). Blocks four times larger ran no faster per row and
# raised the peak resident memory of a 2000 x 512 table by ~5%.
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
    soil_bounds     per-column (min, max) of the sorted normalized
                    training matrix, used for soil binning
    """

    feature_bounds: np.ndarray
    gains: np.ndarray
    order: np.ndarray
    soil_bounds: np.ndarray

    def __post_init__(self):
        n = len(self.gains)
        if self.feature_bounds.shape != (n, 2) or self.soil_bounds.shape != (n, 2):
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
    return PrepArtifacts(
        feature_bounds=bounds,
        gains=gains,
        order=order,
        soil_bounds=column_bounds(norm[:, order]),
    )


def transform_rows(base_values: np.ndarray, artifacts: PrepArtifacts) -> np.ndarray:
    """Normalize raw base rows with fitted bounds, then reorder columns."""
    values = np.asarray(base_values, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
    return apply_bounds(values, artifacts.feature_bounds)[:, artifacts.order]


def soil_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: SoilConfig = SoilConfig(),
) -> DiscreteSoil:
    """Discrete soil grid for one raw base-feature row."""
    sorted_row = transform_rows(base_row, artifacts)[0]
    return build_discrete_soil(sorted_row, artifacts.soil_bounds, config)


def nutrients_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: SoilConfig = SoilConfig(),
) -> NutrientMatrix:
    return convolve_soil(soil_for_row(base_row, artifacts, config))


def prs_pair_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: PipelineConfig = PipelineConfig(),
) -> PRSFeaturePair:
    """NF and RF for one raw base-feature row."""
    nutrients = nutrients_for_row(base_row, artifacts, config.soil)
    return extract_prs(grow(nutrients, config.growth))


def prs_features(
    base_values: np.ndarray,
    artifacts: PrepArtifacts,
    config: PipelineConfig = PipelineConfig(),
) -> np.ndarray:
    """(m, 2) array of [NF, RF] rows for a raw (m, n_features) base matrix.

    Equal, bit for bit, to ``prs_pair_for_row`` applied to each row.
    """
    values = np.asarray(base_values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(artifacts.order):
        raise ValueError(
            f"expected an (m, {len(artifacts.order)}) base-feature "
            f"matrix, got shape {values.shape}"
        )
    out = np.empty((values.shape[0], 2))
    for start in range(0, values.shape[0], _PRS_BLOCK):
        block = transform_rows(values[start : start + _PRS_BLOCK], artifacts)
        bins = bin_indices(block, artifacts.soil_bounds, config.soil.depth)
        absorbed, occupancy = grow_batch(nutrient_grids(bins, config.soil), config.growth)
        out[start : start + len(block), 0] = absorbed
        out[start : start + len(block), 1] = hull_areas(occupancy)
    return out


def _segment_blocks(segments: tuple[SignalSegment, ...]):
    """Yield (row indices, (k, n) samples, sampling rate) for blocks of
    segments sharing length and rate, each about _SEGMENT_BLOCK_SAMPLES
    samples and at least one row; indices are in dataset order."""
    groups: dict[tuple[int, float], list[int]] = {}
    for idx, seg in enumerate(segments):
        groups.setdefault((len(seg), seg.sampling_rate), []).append(idx)
    for (length, rate), rows in groups.items():
        step = max(1, _SEGMENT_BLOCK_SAMPLES // length)
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            yield chunk, np.stack([segments[i].samples for i in chunk]), rate


def extract_base_matrix(
    dataset: LabeledDataset,
    thresholds: ThresholdConfig = ThresholdConfig(),
    centered_var: bool = False,
) -> np.ndarray:
    """Raw (m, 12) base-feature matrix, one row per segment.

    Raises the error ``compute_base_features`` raises for the first
    constant or overflowing segment in dataset order.
    """
    values = np.empty((len(dataset.segments), N_BASE_FEATURES))
    for rows, samples, _ in _segment_blocks(dataset.segments):
        values[rows] = base_feature_rows(samples, thresholds, centered_var)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        # the one-row path raises the error that names the segment
        compute_base_features(dataset.segments[bad[0]], thresholds, centered_var)
    return values


def extract_spectral_matrix(
    dataset: LabeledDataset, median_mode: str = MEDIAN_PSD
) -> np.ndarray:
    """(m, 2) array of [MaxPSD, MedPSD], one row per segment."""
    out = np.empty((len(dataset.segments), 2))
    for rows, samples, rate in _segment_blocks(dataset.segments):
        out[rows] = spectral_rows(samples, rate, median_mode)
    return out
