"""Feature matrix preparation: normalization, gain scoring, center-out sort.

The importance score of a feature column is the information gain of the
class labels given a two-set split of the column. The split comes from a
seeded 1D 2-means (best of 25 restarts by within-cluster SSE). Columns
are then permuted so the highest-gain feature sits at the center of the
soil grid and importance decreases outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError

KMEANS_RESTARTS = 25
MIN_SAMPLES = 4  # rows a FeatureMatrix (and so fit_prep) needs
_MAX_LLOYD_ITER = 100


@dataclass(frozen=True)
class FeatureMatrix:
    """m samples x n named feature columns with per-row binary labels."""

    values: np.ndarray
    names: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("feature matrix must be 2D")
        m, n = values.shape
        if m < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples, got {m}")
        if len(self.names) != n:
            raise ValueError(f"{n} columns but {len(self.names)} names")
        if len(self.labels) != m:
            raise ValueError(f"{m} rows but {len(self.labels)} labels")
        if np.isnan(values).any():
            raise ValueError("feature matrix contains NaN")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class NormalizedFeatureMatrix:
    """Min-max normalized matrix plus the original per-column (min, max)."""

    values: np.ndarray
    names: tuple[str, ...]
    labels: tuple[str, ...]
    bounds: np.ndarray  # (n, 2) original column (min, max)
    degenerate: tuple[bool, ...]  # columns with max == min, forced to 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class SplitResult:
    """Binary split of one column: per-row set index in {1, 2}."""

    assignment: np.ndarray  # int, values 1 or 2
    centers: tuple[float, float]  # centers[0] < centers[1]
    sse: float


@dataclass(frozen=True)
class SortedFeatureMatrix:
    """Normalized matrix with columns permuted center-out by gain."""

    values: np.ndarray  # columns already permuted
    names: tuple[str, ...]  # permuted names
    labels: tuple[str, ...]
    bounds: np.ndarray  # (n, 2) bounds of the *permuted* columns
    order: tuple[int, ...]  # order[pos] = original column index
    gains: np.ndarray  # gains of the *original* columns


def column_bounds(values: np.ndarray) -> np.ndarray:
    """Per-column (min, max) as an (n, 2) array."""
    return np.stack([values.min(axis=0), values.max(axis=0)], axis=1)


def apply_bounds(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Min-max scale columns with the given bounds; degenerate columns -> 0.

    Values outside the bounds (e.g. test samples scaled with train-fold
    bounds) map outside [0, 1]; downstream binning clamps them.
    """
    lo = bounds[:, 0]
    span = bounds[:, 1] - bounds[:, 0]
    out = np.zeros_like(values, dtype=np.float64)
    ok = span > 0
    out[:, ok] = (values[:, ok] - lo[ok]) / span[ok]
    return out


def minmax_normalize(matrix: FeatureMatrix) -> NormalizedFeatureMatrix:
    """Scale each column to [0, 1]; constant columns become all-zero."""
    bounds = column_bounds(matrix.values)
    degenerate = tuple(bool(b[1] == b[0]) for b in bounds)
    return NormalizedFeatureMatrix(
        values=apply_bounds(matrix.values, bounds),
        names=matrix.names,
        labels=matrix.labels,
        bounds=bounds,
        degenerate=degenerate,
    )


def kmeans_binary_split(
    values, restarts: int = KMEANS_RESTARTS, seed: int = 0
) -> SplitResult:
    """Best-of-restarts Lloyd 2-means on a 1D column.

    Each restart initializes the two centers by drawing uniformly without
    replacement from the distinct data values. Assignment ties go to the
    first center. Deterministic for a fixed seed.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    distinct = np.unique(v)
    if distinct.size < 2:
        raise DegenerateDataError("all values identical: no valid binary split")

    rng = np.random.default_rng(seed)
    best_sse = math.inf
    best_assign = None
    best_centers = None
    for _ in range(restarts):
        centers = rng.choice(distinct, size=2, replace=False)
        for _ in range(_MAX_LLOYD_ITER):
            # tie (equidistant point) -> first center
            assign = (np.abs(v - centers[1]) < np.abs(v - centers[0])).astype(np.int64)
            new_centers = centers.copy()
            for c in (0, 1):
                members = v[assign == c]
                if members.size:
                    new_centers[c] = members.mean()
            if np.array_equal(new_centers, centers):
                break
            centers = new_centers
        assign = (np.abs(v - centers[1]) < np.abs(v - centers[0])).astype(np.int64)
        if 0 < int(assign.sum()) < v.size:
            sse = float(np.sum((v - centers[assign]) ** 2))
            if sse < best_sse:
                best_sse = sse
                best_assign = assign
                best_centers = centers

    if best_assign is None:
        raise DegenerateDataError("2-means failed to produce two non-empty sets")

    lo, hi = (0, 1) if best_centers[0] < best_centers[1] else (1, 0)
    assignment = np.where(best_assign == lo, 1, 2)
    return SplitResult(
        assignment=assignment,
        centers=(float(best_centers[lo]), float(best_centers[hi])),
        sse=best_sse,
    )


def entropy(labels: Sequence) -> float:
    """Shannon entropy of a label multiset in bits, with 0*log0 := 0."""
    labels = list(labels)
    if not labels:
        raise ValueError("entropy of an empty label set is undefined")
    total = len(labels)
    h = 0.0
    for lab in set(labels):
        p = labels.count(lab) / total
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def information_gain(
    column,
    labels: Sequence,
    split: SplitResult | None = None,
    restarts: int = KMEANS_RESTARTS,
    seed: int = 0,
) -> float:
    """Entropy reduction of the labels given a binary split of the column.

    When ``split`` is omitted it is computed by ``kmeans_binary_split``.
    """
    labels = list(labels)
    if split is None:
        split = kmeans_binary_split(column, restarts=restarts, seed=seed)
    if len(split.assignment) != len(labels):
        raise ValueError(
            f"split covers {len(split.assignment)} rows, have {len(labels)} labels"
        )
    total = len(labels)
    expected = 0.0
    for s in (1, 2):
        subset = [lab for lab, a in zip(labels, split.assignment) if a == s]
        if subset:
            expected += len(subset) / total * entropy(subset)
    return entropy(labels) - expected


def column_seeds(seed: int, n_cols: int) -> np.ndarray:
    """Stable per-column child seeds so parallel and serial runs agree."""
    return np.random.SeedSequence(seed).generate_state(n_cols)


def rank_features(
    norm: NormalizedFeatureMatrix, seed: int, restarts: int = KMEANS_RESTARTS
) -> np.ndarray:
    """Information gain per normalized column; degenerate columns score 0."""
    m, n = norm.shape
    seeds = column_seeds(seed, n)
    gains = np.zeros(n, dtype=np.float64)
    for j in range(n):
        if norm.degenerate[j]:
            continue
        gains[j] = information_gain(
            norm.values[:, j], norm.labels, restarts=restarts, seed=int(seeds[j])
        )
    return gains


def center_out_positions(n: int) -> tuple[int, ...]:
    """0-based column positions by decreasing gain rank: center, then
    alternating right-first outward. For n=12 this is the 1-based sequence
    6, 7, 5, 8, 4, 9, 3, 10, 2, 11, 1, 12."""
    center = (n - 1) // 2
    positions = [center]
    for r in range(1, n):
        offset = (r + 1) // 2
        positions.append(center + offset if r % 2 == 1 else center - offset)
    return tuple(positions)


def sort_center_out(
    norm: NormalizedFeatureMatrix, gains: np.ndarray
) -> SortedFeatureMatrix:
    """Permute columns so gain decreases from the center outward.

    Gain ties break toward the lower original column index.
    """
    gains = np.asarray(gains, dtype=np.float64)
    n = norm.shape[1]
    if gains.shape != (n,):
        raise ValueError(f"expected {n} gains, got {gains.shape}")
    ranked = sorted(range(n), key=lambda j: (-gains[j], j))
    positions = center_out_positions(n)
    order = [0] * n
    for rank, col in enumerate(ranked):
        order[positions[rank]] = col
    order = tuple(order)
    return SortedFeatureMatrix(
        values=norm.values[:, order],
        names=tuple(norm.names[j] for j in order),
        labels=norm.labels,
        bounds=norm.bounds[list(order)],
        order=order,
        gains=gains,
    )
