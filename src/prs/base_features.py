"""The 12 time-domain base features of signal segments.

Canonical feature order: STD, VAR, RMS, SKW, KURT, MAV, ZC, SSC, WAMP,
SSI, NLE, WL. ``base_feature_rows`` computes all 12 for a block of
equal-length segments at once, one reduction along the sample axis per
sum; it is the one production implementation, and
``compute_base_features`` is that kernel applied to one segment, whose
name it gives in the error for a constant or overflowing segment. Each
feature is also exposed as a standalone one-segment function so formulas
can be tested in isolation; the kernel equals them bit for bit
(``tests/test_features_batch_oracle.py``).

SKW and KURT share ``dev2 = dev * dev`` of the centered samples: the
third and fourth central moments are the means of ``dev2 * dev`` and
``dev2 * dev2``, over ``m2 * sqrt(m2)`` and ``m2 * m2``. Multiply and
sqrt are correctly rounded IEEE 754 operations, so the block kernel and
``skewness``/``kurtosis`` agree by construction on any numpy, where an
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


def signal_std(x) -> float:
    """Population standard deviation (centered, 1/N)."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.mean((x - x.mean()) ** 2)))


def signal_variance(x, centered: bool = False) -> float:
    """Uncentered second moment sum(x^2)/(N-1); centered form on request."""
    x = np.asarray(x, dtype=np.float64)
    if centered:
        return float(np.sum((x - x.mean()) ** 2) / (x.size - 1))
    return float(np.sum(x**2) / (x.size - 1))


def rms(x) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.mean(x**2)))


def skewness(x) -> float:
    """Population skewness m3 / m2^(3/2); undefined for a constant signal."""
    x = np.asarray(x, dtype=np.float64)
    dev = x - x.mean()
    dev2 = dev * dev
    m2 = np.mean(dev2)
    if m2 == 0.0:
        raise DegenerateDataError("SKW undefined for a constant segment")
    return float(np.mean(dev2 * dev) / (m2 * np.sqrt(m2)))


def kurtosis(x) -> float:
    """Population kurtosis m4 / m2^2 (not excess); >= 1 for any signal."""
    x = np.asarray(x, dtype=np.float64)
    dev = x - x.mean()
    dev2 = dev * dev
    m2 = np.mean(dev2)
    if m2 == 0.0:
        raise DegenerateDataError("KURT undefined for a constant segment")
    return float(np.mean(dev2 * dev2) / (m2 * m2))


def mav(x) -> float:
    """Mean absolute value."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.mean(np.abs(x)))


def zero_crossings(x, threshold: float) -> int:
    """Count sign changes between adjacent samples with |step| >= threshold."""
    x = np.asarray(x, dtype=np.float64)
    a, b = x[:-1], x[1:]
    return int(np.sum((a * b < 0) & (np.abs(a - b) >= threshold)))


def slope_sign_changes(x, threshold: float) -> int:
    """Count interior samples whose two slopes turn: product >= threshold."""
    x = np.asarray(x, dtype=np.float64)
    mid = x[1:-1]
    return int(np.sum((mid - x[:-2]) * (mid - x[2:]) >= threshold))


def willison_amplitude(x, threshold: float) -> int:
    """Count adjacent-sample amplitude jumps of at least the threshold."""
    x = np.asarray(x, dtype=np.float64)
    return int(np.sum(np.abs(x[:-1] - x[1:]) >= threshold))


def simple_square_integral(x) -> float:
    """Total energy sum(|x|^2)."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(np.abs(x) ** 2))


def nonlinear_energy(x) -> float:
    """Mean Teager-style energy (x_i^2 - x_{i-1} x_{i+1}) over interior samples."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(x[1:-1] ** 2 - x[:-2] * x[2:]) / (x.size - 2))


def waveform_length(x) -> float:
    """Cumulative absolute first difference."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(np.abs(np.diff(x))))


def base_feature_rows(
    samples,
    thresholds: ThresholdConfig = ThresholdConfig(),
    centered_var: bool = False,
) -> np.ndarray:
    """(k, 12) features, in canonical order, of a (k, n) block of segments.

    Every value equals, bit for bit, the standalone function of the same
    feature applied to that row. A constant row (STD 0) has NaN SKW and
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
        # products and sqrt only, as in skewness/kurtosis (module docstring)
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
