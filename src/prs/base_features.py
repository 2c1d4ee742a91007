"""The 12 time-domain base features of signal segments.

Canonical feature order: STD, VAR, RMS, SKW, KURT, MAV, ZC, SSC, WAMP,
SSI, NLE, WL. ``base_feature_rows`` computes all 12 for a block of
equal-length segments at once, one reduction along the sample axis per
sum; it is the one implementation, and ``compute_base_features`` is that
kernel on a one-row block, whose error names a constant or overflowing
segment. The standalone one-segment function of each feature lives in
``tests/reference.py``; the kernel equals them bit for bit
(``tests/test_features_batch_oracle.py``).

SKW and KURT share ``dev2 = dev * dev`` of the centered samples: the
third and fourth central moments are the means of ``dev2 * dev`` and
``dev2 * dev2``, over ``m2 * sqrt(m2)`` and ``m2 * m2``. Multiply and
sqrt are correctly rounded IEEE 754 operations, so the block kernel and
the one-segment references agree by construction on any numpy, where an
array ``pow`` need not round like a scalar one; a multiply also costs a
small fraction of a ``pow``.

Note on VAR: the variance here is the *uncentered* second moment with a
1/(N-1) factor, sum(x^2)/(N-1). That is deliberate (it is what the
definition this package implements prescribes); pass ``centered=True``
for the conventional sample variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SignalSegment
from .errors import DegenerateDataError

FEATURE_NAMES = (
    "STD",
    "VAR",
    "RMS",
    "SKW",
    "KURT",
    "MAV",
    "ZC",
    "SSC",
    "WAMP",
    "SSI",
    "NLE",
    "WL",
)

N_BASE_FEATURES = len(FEATURE_NAMES)

# Default thresholds for ZC/SSC/WAMP are this fraction of the segment's
# peak absolute amplitude, keeping the counts scale-robust.
RELATIVE_THRESHOLD = 0.01


@dataclass(frozen=True)
class ThresholdConfig:
    """Thresholds for the counting features. ``None`` means relative default.

    A ``None`` entry resolves to ``RELATIVE_THRESHOLD * max|x|`` of the
    segment being scored.
    """

    zc_threshold: float | None = None
    ssc_threshold: float | None = None
    wamp_threshold: float | None = None

    def __post_init__(self):
        for name in ("zc_threshold", "ssc_threshold", "wamp_threshold"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")

    def resolve(self, samples: np.ndarray):
        """(zc, ssc, wamp) thresholds for a (k, n) block of segments.

        An explicit threshold is returned as given; a ``None`` entry
        becomes a (k, 1) column of per-row relative defaults.
        """
        default = RELATIVE_THRESHOLD * np.max(np.abs(samples), axis=1, keepdims=True)
        return (
            default if self.zc_threshold is None else self.zc_threshold,
            default if self.ssc_threshold is None else self.ssc_threshold,
            default if self.wamp_threshold is None else self.wamp_threshold,
        )


def base_feature_rows(
    samples,
    thresholds: ThresholdConfig = ThresholdConfig(),
    centered_var: bool = False,
) -> np.ndarray:
    """(k, 12) features, in canonical order, of a (k, n) block of segments.

    Every value equals, bit for bit, the one-segment reference of the
    same feature applied to that row. A constant row (STD 0) has NaN SKW and
    KURT; ``compute_base_features`` and ``extract_base_matrix`` reject it
    by name.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 3:
        raise ValueError(
            f"expected a (k, n >= 3) block of samples, got shape {x.shape}"
        )
    n = x.shape[1]
    zc_thr, ssc_thr, wamp_thr = thresholds.resolve(x)

    # A constant row divides 0 by 0 and a huge one overflows; the callers
    # name such a segment, so numpy need not warn first.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dev = x - x.mean(axis=1, keepdims=True)
        dev2 = dev * dev
        dev_sq_sum = np.sum(dev2, axis=1)
        m2 = dev_sq_sum / n
        # products and sqrt only (module docstring)
        skw = np.mean(dev2 * dev, axis=1) / (m2 * np.sqrt(m2))
        kurt = np.mean(dev2 * dev2, axis=1) / (m2 * m2)
        sq = x**2
        sq_sum = np.sum(sq, axis=1)
        a, b = x[:, :-1], x[:, 1:]
        jump = np.abs(b - a)
        mid = x[:, 1:-1]
        columns = (
            np.sqrt(m2),
            (dev_sq_sum if centered_var else sq_sum) / (n - 1),
            np.sqrt(sq_sum / n),
            skw,
            kurt,
            np.mean(np.abs(x), axis=1),
            np.sum((a * b < 0) & (jump >= zc_thr), axis=1),
            np.sum((mid - x[:, :-2]) * (mid - x[:, 2:]) >= ssc_thr, axis=1),
            np.sum(jump >= wamp_thr, axis=1),
            sq_sum,
            np.sum(sq[:, 1:-1] - x[:, :-2] * x[:, 2:], axis=1) / (n - 2),
            np.sum(jump, axis=1),
        )
    return np.column_stack(columns)


def compute_base_features(
    segment: SignalSegment,
    thresholds: ThresholdConfig = ThresholdConfig(),
    centered_var: bool = False,
) -> np.ndarray:
    """The (12,) time-domain features of one segment, in canonical order.

    Raises DegenerateDataError naming the segment when it is constant
    (SKW/KURT undefined) or when a feature overflows float64.
    """
    values = base_feature_rows(segment.samples[None, :], thresholds, centered_var)[0]
    if values[0] == 0.0:
        raise DegenerateDataError(
            f"segment {segment.id!r} is constant: SKW, KURT undefined"
        )
    overflowed = [FEATURE_NAMES[j] for j in np.flatnonzero(~np.isfinite(values))]
    if overflowed:
        raise DegenerateDataError(
            f"segment {segment.id!r} overflows float64 in {', '.join(overflowed)}"
        )
    return values
