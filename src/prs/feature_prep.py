"""Feature preparation on plain (m, n) arrays: min-max scaling, gain
scoring, center-out ordering; ``pipeline.fit_prep`` chains them.

The importance score of a feature column is the information gain of the
class labels given a two-set split of the column. The split is the exact
1D 2-means (the threshold with the least within-cluster SSE, found by one
prefix-sum scan over the sorted columns, all columns at once), so the
ranking is deterministic and needs no seed. Columns are then permuted so the highest-gain feature
sits at the center of the soil grid and importance decreases outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError

MIN_SAMPLES = 4  # training rows fit_prep needs


@dataclass(frozen=True)
class SplitResult:
    """Binary split of one column: per-row set index in {1, 2}."""

    assignment: np.ndarray  # int, values 1 or 2
    centers: tuple[float, float]  # centers[0] < centers[1]
    sse: float


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


def _two_means_thresholds(s: np.ndarray) -> np.ndarray:
    """Threshold of the exact 1D 2-means split of each column of an
    (m, k) block, sorted along axis 0, whose columns each hold at least
    two distinct values.

    An optimal 1D 2-means partition is contiguous in sorted order, so
    every cut between distinct sorted values is scored from prefix sums,
    taken for all columns in one pass. Minimizing the within-cluster
    SSE is maximizing the between-cluster sum (m*L_c - c*T)^2 /
    (m*c*(m-c)) over the c smallest values with sum L_c (T is the
    total), which avoids the cancellation of S2 - S1^2/c. Ties go to the
    first (lowest) cut; the threshold is the largest value of set 1.
    """
    if not np.isfinite(s).all():
        raise ValueError("2-means needs finite values")
    # Power-of-two scaling is exact and keeps the squares finite for any
    # span; shifting by the minimum keeps a large offset out of the sums.
    exponent = np.frexp(np.maximum(-s[0], s[-1]))[1]
    prefix = np.ldexp(s, -exponent)
    prefix -= np.ldexp(s[0], -exponent)
    np.cumsum(prefix, axis=0, out=prefix)
    m = float(s.shape[0])
    c = np.arange(1.0, m)  # size of set 1 at the cut after row c - 1
    # (m * L_c - c * T)^2 / (m * c * (m - c)), in place over the prefix
    # sums but the last (T), one column at a time: a block-sized
    # temporary (argmax along axis 0 makes one too) would be most of
    # rank_features' memory on a large table
    cuts = np.empty(s.shape[1], dtype=np.intp)
    for j, (between, total) in enumerate(zip(prefix[:-1].T, prefix[-1])):
        between *= m
        between -= c * total
        between *= between
        between /= m * c * (m - c)
        between[s[1:, j] <= s[:-1, j]] = -np.inf  # no cut between equal values
        cuts[j] = between.argmax()
    return s[cuts, np.arange(s.shape[1])]


def kmeans_binary_split(values) -> SplitResult:
    """Exact 1D 2-means: the threshold split with the least within-cluster SSE.

    The k = 2 case of Ckmeans.1d.dp (Wang & Song 2011, The R Journal 3(2)),
    scored as in ``_two_means_thresholds``. Set 1 is v <= threshold.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(v).all():
        raise ValueError("2-means needs finite values")
    if v.size < 2 or v.min() == v.max():
        raise DegenerateDataError("all values identical: no valid binary split")
    threshold = _two_means_thresholds(np.sort(v)[:, None])[0]

    assignment = np.where(v <= threshold, 1, 2)
    centers = np.array([v[assignment == 1].mean(), v[assignment == 2].mean()])
    return SplitResult(
        assignment=assignment,
        centers=(float(centers[0]), float(centers[1])),
        sse=float(np.sum((v - centers[assignment - 1]) ** 2)),
    )


def _label_codes(labels: Sequence) -> np.ndarray:
    """Each label's class index, classes numbered by first appearance."""
    index: dict = {}
    codes = np.array(
        [index.setdefault(lab, len(index)) for lab in labels], dtype=np.intp
    )
    if not codes.size:
        raise ValueError("entropy of an empty label set is undefined")
    return codes


def _entropy_of_counts(counts, total: int) -> float:
    """Entropy in bits of class counts summing to total, terms in class order."""
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def _split_gain(codes: np.ndarray, assignment: np.ndarray) -> float:
    """Information gain of integer-coded labels given split sets 1 and 2."""
    n_classes = int(codes.max()) + 1
    # row s - 1 of per_set holds the class counts of set s
    per_set = np.bincount(
        codes + n_classes * (assignment - 1), minlength=2 * n_classes
    ).reshape(2, n_classes)
    return _gain_of_counts(per_set.tolist(), codes.size)


def _gain_of_counts(per_set, total: int) -> float:
    """Information gain of the labels from the class counts of each set."""
    expected = 0.0
    for counts in per_set:
        size = sum(counts)
        if size:
            expected += size / total * _entropy_of_counts(counts, size)
    class_counts = [a + b for a, b in zip(*per_set)]
    return _entropy_of_counts(class_counts, total) - expected


def entropy(labels: Sequence) -> float:
    """Shannon entropy of a label multiset in bits, with 0*log0 := 0."""
    codes = _label_codes(labels)
    return _entropy_of_counts(np.bincount(codes).tolist(), codes.size)


def information_gain(
    column, labels: Sequence, split: SplitResult | None = None
) -> float:
    """Entropy reduction of the labels given a binary split of the column.

    When ``split`` is omitted it is computed by ``kmeans_binary_split``.
    """
    codes = _label_codes(labels)
    if split is None:
        split = kmeans_binary_split(column)
    if len(split.assignment) != codes.size:
        raise ValueError(
            f"split covers {len(split.assignment)} rows, have {codes.size} labels"
        )
    return _split_gain(codes, np.asarray(split.assignment))


def rank_features(norm: np.ndarray, labels: Sequence) -> np.ndarray:
    """Information gain per min-max normalized column. A column that is
    constant (so was constant before scaling) scores 0."""
    codes = _label_codes(labels)
    bounds = column_bounds(norm)
    live = np.flatnonzero(bounds[:, 0] != bounds[:, 1])
    gains = np.zeros(norm.shape[1])
    if not live.size:
        return gains
    block = norm[:, live]
    block.sort(axis=0)  # the copy, in place
    thresholds = _two_means_thresholds(block)
    del block
    n_classes = int(codes.max()) + 1
    # counts[c, s, l]: rows of class l in set s + 1 of live column c
    cells = (norm[:, live] > thresholds).astype(np.intp)
    cells += np.arange(0, 2 * live.size, 2)
    cells *= n_classes
    cells += codes[:, None]
    counts = np.bincount(
        cells.ravel("K"), minlength=live.size * 2 * n_classes
    ).reshape(live.size, 2, n_classes)
    for j, per_set in zip(live, counts.tolist()):
        gains[j] = _gain_of_counts(per_set, codes.size)
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
