"""The 12 time-domain base features of signal segments.

Canonical feature order: STD, VAR, RMS, SKW, KURT, MAV, ZC, SSC, WAMP,
SSI, NLE, WL. ``base_feature_rows`` computes all 12 for a block of
equal-length segments at once, one reduction along the sample axis per
sum; it is the one implementation, and ``compute_base_features`` is that
kernel on a one-row block, whose error names a constant, underflowing or
overflowing segment. The standalone one-segment function of each feature
lives in ``tests/reference.py``; the kernel equals them bit for bit
(``tests/test_features_batch_oracle.py``).

The kernel runs the references' arithmetic, operation for operation,
into one (k, 12) result and three (k, n) work arrays (``out=``), so a
block's float temporaries are allocated once, not per operation.
``|x|`` serves both the relative thresholds and MAV, ``sqrt(m2)`` both
STD and SKW, and ``x.sum(axis=1) / n`` is what ``np.mean`` computes.

SKW and KURT share ``dev2 = dev * dev`` of the centered samples: the
third and fourth central moments are the means of ``dev2 * dev`` and
``dev2 * dev2``, over ``m2 * sqrt(m2)`` and ``m2 * m2``. Multiply and
sqrt are correctly rounded IEEE 754 operations, so the block kernel and
the one-segment references agree by construction on any numpy, where an
array ``pow`` need not round like a scalar one; a multiply also costs a
small fraction of a ``pow``.

SSC counts interior samples with ``(mid - prev) * (mid - next) >= thr``.
With the signed steps ``d = x[1:] - x[:-1]`` that product is
``d[:-1] * -d[1:]``: ``mid - next`` is the step ``next - mid`` negated,
and negation is exact. A correctly rounded product of a negated factor is
the negated product, so the test is ``d[:-1] * d[1:] <= -thr`` bit for bit,
and the steps also give ZC's, WAMP's and WL's ``|step|``.

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

    def resolve(self, peak: np.ndarray):
        """(zc, ssc, wamp) thresholds for a block whose rows peak at ``peak``.

        ``peak`` is the (k, 1) column of each row's max|x|. An explicit
        threshold is returned as given; a ``None`` entry becomes the (k, 1)
        column of per-row relative defaults.
        """
        default = RELATIVE_THRESHOLD * peak
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
    same feature applied to that row. A constant row has WL 0, and STD 0
    with NaN SKW and KURT when its mean rounds to its value;
    ``compute_base_features`` and ``extract_base_matrix`` reject it by name.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 3:
        raise ValueError(
            f"expected a (k, n >= 3) block of samples, got shape {x.shape}"
        )
    k, n = x.shape
    out = np.empty((k, N_BASE_FEATURES))
    # three flat work arrays; view() gives a contiguous (k, m) array of one,
    # so every row reduction sums the same contiguous run as the references.
    # A work array is overwritten only after its last reader has run.
    work = np.empty((3, k * n))

    def view(i, m):
        return work[i, : k * m].reshape(k, m)

    w0, w1, w2 = view(0, n), view(1, n), view(2, n)
    ax = np.abs(x, out=w0)
    zc_thr, ssc_thr, wamp_thr = thresholds.resolve(ax.max(axis=1, keepdims=True))
    out[:, 5] = ax.sum(axis=1) / n

    # A constant row divides 0 by 0 and a huge one overflows; the callers
    # name such a segment, so numpy need not warn first.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dev = np.subtract(x, x.sum(axis=1, keepdims=True) / n, out=w0)
        dev2 = np.multiply(dev, dev, out=w1)
        dev_sq_sum = dev2.sum(axis=1)
        m2 = dev_sq_sum / n
        root = np.sqrt(m2)
        out[:, 0] = root
        # products and sqrt only (module docstring)
        out[:, 3] = np.multiply(dev2, dev, out=w2).sum(axis=1) / n / (m2 * root)
        out[:, 4] = np.multiply(dev2, dev2, out=w2).sum(axis=1) / n / (m2 * m2)
        sq = np.multiply(x, x, out=w0)
        sq_sum = sq.sum(axis=1)
        out[:, 1] = (dev_sq_sum if centered_var else sq_sum) / (n - 1)
        out[:, 2] = np.sqrt(sq_sum / n)
        out[:, 9] = sq_sum
        inner = np.multiply(x[:, :-2], x[:, 2:], out=view(1, n - 2))
        out[:, 10] = np.subtract(sq[:, 1:-1], inner, out=inner).sum(axis=1) / (n - 2)
        # signed steps; SSC's slope product is -(d[:, :-1] * d[:, 1:]) exactly
        d = np.subtract(x[:, 1:], x[:, :-1], out=view(0, n - 1))
        turn = np.multiply(d[:, :-1], d[:, 1:], out=view(1, n - 2))
        out[:, 7] = np.sum(turn <= -ssc_thr, axis=1)
        cross = np.multiply(x[:, :-1], x[:, 1:], out=view(2, n - 1)) < 0
        jump = np.abs(d, out=d)
        out[:, 6] = np.sum(cross & (jump >= zc_thr), axis=1)
        out[:, 8] = np.sum(jump >= wamp_thr, axis=1)
        out[:, 11] = jump.sum(axis=1)
    return out


def degenerate_rows(values: np.ndarray) -> np.ndarray:
    """Mask of the rows of a (k, 12) feature block that
    ``compute_base_features`` rejects: a feature is not finite, or WL, the
    sum of |steps|, is 0, which holds exactly when every sample is equal.
    A constant row's mean need not round to its value, so its SKW and KURT
    can be finite."""
    return ~np.isfinite(values).all(axis=1) | (values[:, 11] == 0.0)


def compute_base_features(
    segment: SignalSegment,
    thresholds: ThresholdConfig = ThresholdConfig(),
    centered_var: bool = False,
) -> np.ndarray:
    """The (12,) time-domain features of one segment, in canonical order.

    Raises DegenerateDataError naming the segment when every sample is
    equal (SKW/KURT undefined), when the denominator of SKW or KURT
    underflows to 0, or when a feature overflows float64.
    """
    x = segment.samples
    values = base_feature_rows(x[None, :], thresholds, centered_var)[0]
    if not degenerate_rows(values[None, :])[0]:
        return values
    if values[11] == 0.0:
        raise DegenerateDataError(
            f"segment {segment.id!r} is constant: SKW, KURT undefined"
        )
    # the kernel's m2 of this row, bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        dev = x - x.sum() / x.size
        m2 = np.sum(dev * dev) / x.size
        denominators = {"SKW": m2 * np.sqrt(m2), "KURT": m2 * m2}
    underflowed = [name for name, den in denominators.items() if den == 0.0]
    if underflowed:
        raise DegenerateDataError(
            f"segment {segment.id!r} underflows float64 in {', '.join(underflowed)}"
            " (their denominator rounds to 0)"
        )
    overflowed = [FEATURE_NAMES[j] for j in np.flatnonzero(~np.isfinite(values))]
    raise DegenerateDataError(
        f"segment {segment.id!r} overflows float64 in {', '.join(overflowed)}"
    )
