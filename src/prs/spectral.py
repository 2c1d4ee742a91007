"""Frequency-domain features: peak and median of the power spectrum.

The periodogram is the two-sided estimate PSD[k] = |X[k]|^2 / (N * fs),
whose sum times the bin width fs/N equals the mean signal power exactly.
Feature extraction looks only at positive-frequency bins (DC excluded):
MaxPSD is the largest density there, MedPSD the median density. An
alternative median mode reports the frequency that splits the positive
band's power in half instead of the median density.

``spectral_rows`` computes both for a block of equal-length segments with
one FFT along the sample axis; ``compute_spectral`` is that kernel on a
single row. ``periodogram``, ``positive_band`` and ``median_frequency``
stay as the one-segment reference the kernel is tested against, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SignalSegment

MEDIAN_PSD = "psd"
MEDIAN_FREQUENCY = "frequency"
MEDIAN_MODES = (MEDIAN_PSD, MEDIAN_FREQUENCY)


@dataclass(frozen=True)
class SpectralPair:
    """MaxPSD and MedPSD values for one segment."""

    max_psd: float
    med_psd: float


def periodogram(samples, sampling_rate: float):
    """Two-sided periodogram: (freqs, psd), both length N, fftfreq order."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("empty signal")
    if sampling_rate <= 0:
        raise ValueError(f"sampling_rate must be positive, got {sampling_rate}")
    spectrum = np.fft.fft(x)
    psd = (spectrum.real**2 + spectrum.imag**2) / (n * sampling_rate)
    freqs = np.fft.fftfreq(n, d=1.0 / sampling_rate)
    return freqs, psd


def positive_band(samples, sampling_rate: float):
    """Positive-frequency bins 1..N//2 of the periodogram (DC dropped,
    Nyquist kept for even N)."""
    freqs, psd = periodogram(samples, sampling_rate)
    n = len(psd)
    hi = n // 2
    if hi < 1:
        raise ValueError("signal too short for a positive-frequency band")
    idx = np.arange(1, hi + 1)
    return np.abs(freqs[idx]), psd[idx]


def median_frequency(samples, sampling_rate: float) -> float:
    """Lowest positive frequency at which cumulative power reaches half
    of the positive band's total. 0 for an all-zero signal."""
    freqs, psd = positive_band(samples, sampling_rate)
    total = float(np.sum(psd))
    if total == 0.0:
        return 0.0
    cumulative = np.cumsum(psd)
    k = int(np.searchsorted(cumulative, 0.5 * total))
    return float(freqs[min(k, len(freqs) - 1)])


def spectral_rows(
    samples, sampling_rate: float, median_mode: str = MEDIAN_PSD
) -> np.ndarray:
    """(k, 2) [MaxPSD, MedPSD] of a (k, n) block sampled at one rate.

    Equal, bit for bit, to ``positive_band`` and ``median_frequency``
    applied to each row; an all-zero row yields (0, 0).
    """
    if median_mode not in MEDIAN_MODES:
        raise ValueError(
            f"median_mode must be one of {MEDIAN_MODES}, got {median_mode!r}"
        )
    if sampling_rate <= 0:
        raise ValueError(f"sampling_rate must be positive, got {sampling_rate}")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(
            f"expected a (k, n >= 2) block of samples, got shape {x.shape}"
        )
    n = x.shape[1]
    hi = n // 2
    band = np.fft.fft(x, axis=1)[:, 1 : hi + 1]
    psd = (band.real**2 + band.imag**2) / (n * sampling_rate)
    out = np.empty((len(x), 2))
    out[:, 0] = np.max(psd, axis=1)
    if median_mode == MEDIAN_PSD:
        out[:, 1] = np.median(psd, axis=1)
        return out
    freqs = np.abs(np.fft.fftfreq(n, d=1.0 / sampling_rate)[1 : hi + 1])
    total = np.sum(psd, axis=1)
    # searchsorted(cumulative, half) on each row: cumulative never falls,
    # so the insertion point is the count of entries below half
    below = np.cumsum(psd, axis=1) < (0.5 * total)[:, None]
    k = np.minimum(np.sum(below, axis=1), hi - 1)
    out[:, 1] = np.where(total == 0.0, 0.0, freqs[k])
    return out


def compute_spectral(segment: SignalSegment, median_mode: str = MEDIAN_PSD) -> SpectralPair:
    """MaxPSD and MedPSD for one segment; all-zero input yields (0, 0)."""
    max_psd, med = spectral_rows(
        segment.samples[None, :], segment.sampling_rate, median_mode
    )[0]
    return SpectralPair(max_psd=float(max_psd), med_psd=float(med))
