"""Frequency-domain features: peak and median of the power spectrum.

The power spectral density is the two-sided estimate PSD[k] = |X[k]|^2 / (N * fs),
whose sum times the bin width fs/N equals the mean signal power exactly.
Feature extraction looks only at positive-frequency bins (DC excluded):
MaxPSD is the largest density there, MedPSD the median density. An
alternative median mode reports the frequency that splits the positive
band's power in half instead of the median density.

``spectral_rows`` computes both for a block of equal-length segments with
one FFT along the sample axis; ``compute_spectral`` is that kernel on a
one-row block, and returns its (2,) row. The one-segment spectrum,
positive band and median frequency the kernel is tested against, bit for
bit, live in ``tests/reference.py``.

In the ``psd`` mode one sort of each row's band gives both values:
MaxPSD is its last entry, and MedPSD its middle entry, or ``(a + b) / 2.0``
of the two middle entries of an even band. Those are the values
``np.max`` and ``np.median`` return (``np.median`` averages the two
middle entries with ``np.mean``, the same add and divide). A band holding
NaN, from an FFT that overflowed, sorts it last; both values are then NaN,
as ``np.max`` and ``np.median`` give, and
``pipeline.extract_spectral_matrix`` names the segment. In the
``frequency`` mode MedPSD is NaN when the band's total power is not
finite, as after such an FFT or from huge finite bins. Sorting a
(4, 1000) band took 19 us on a 2-vCPU Xeon, ``np.median`` 78 us and its
``np.partition`` alone 42 us.
"""

from __future__ import annotations

import numpy as np

from .dataset import SignalSegment

MEDIAN_PSD = "psd"
MEDIAN_FREQUENCY = "frequency"
MEDIAN_MODES = (MEDIAN_PSD, MEDIAN_FREQUENCY)


def spectral_rows(
    samples, sampling_rate: float, median_mode: str = MEDIAN_PSD
) -> np.ndarray:
    """(k, 2) [MaxPSD, MedPSD] of a (k, n) block sampled at one rate.

    MaxPSD is the largest density of the positive band (bins 1..n//2);
    MedPSD is its median density, or in the ``frequency`` mode the lowest
    frequency at which the band's cumulative power reaches half its
    total, or NaN when that total is not finite. An all-zero row yields
    (0, 0).
    """
    if median_mode not in MEDIAN_MODES:
        raise ValueError(
            f"median_mode must be one of {MEDIAN_MODES}, got {median_mode!r}"
        )
    if not 0 < sampling_rate < np.inf:
        raise ValueError(
            f"sampling_rate must be finite and positive, got {sampling_rate}"
        )
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(
            f"expected a (k, n >= 2) block of samples, got shape {x.shape}"
        )
    n = x.shape[1]
    hi = n // 2
    # A huge row overflows to inf or NaN here; the callers name such a
    # segment, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        band = np.fft.fft(x, axis=1)[:, 1 : hi + 1]
        psd = (band.real**2 + band.imag**2) / (n * sampling_rate)
    out = np.empty((len(x), 2))
    if median_mode == MEDIAN_PSD:
        # np.max and np.median of each row, from one sort (module docstring)
        ordered = np.sort(psd, axis=1)
        out[:, 0] = ordered[:, -1]
        half = hi // 2
        if hi % 2:
            out[:, 1] = ordered[:, half]
        else:
            out[:, 1] = (ordered[:, half - 1] + ordered[:, half]) / 2.0
        # a NaN bin (an FFT that overflowed) sorts last; np.median gives NaN
        out[np.isnan(out[:, 0]), 1] = np.nan
        return out
    out[:, 0] = np.max(psd, axis=1)
    freqs = np.abs(np.fft.fftfreq(n, d=1.0 / sampling_rate)[1 : hi + 1])
    # A band whose power sums past float64 has no half-power frequency:
    # its MedPSD is NaN, which the callers report, so numpy need not warn.
    with np.errstate(over="ignore"):
        total = np.sum(psd, axis=1)
        # searchsorted(cumulative, half) on each row: cumulative never
        # falls, so the insertion point is the count of entries below half
        below = np.cumsum(psd, axis=1) < (0.5 * total)[:, None]
    k = np.minimum(np.sum(below, axis=1), hi - 1)
    out[:, 1] = np.where(total == 0.0, 0.0, freqs[k])
    out[~np.isfinite(total), 1] = np.nan
    return out


def compute_spectral(
    segment: SignalSegment, median_mode: str = MEDIAN_PSD
) -> np.ndarray:
    """The (2,) [MaxPSD, MedPSD] row of one segment; all-zero input yields
    (0, 0)."""
    x = segment.samples[None, :]
    return spectral_rows(x, segment.sampling_rate, median_mode)[0]
