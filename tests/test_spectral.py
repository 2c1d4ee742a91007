"""Periodogram construction and the two frequency-domain features.

The periodogram and positive-band checks test the one-segment references
in ``reference``; the feature cases run ``compute_spectral``.
"""

import numpy as np
import pytest

from prs.errors import DegenerateDataError
from prs.spectral import MEDIAN_FREQUENCY, MEDIAN_PSD, compute_spectral, spectral_rows

from conftest import make_segment
from reference import periodogram, positive_band


def median_frequency(x, fs):
    """MedPSD in the frequency mode: the half-power frequency."""
    return compute_spectral(make_segment("f", "A", x, fs), MEDIAN_FREQUENCY)[1]


def tone(bin_index, n=1024, fs=1000.0, amplitude=1.0):
    t = np.arange(n)
    return amplitude * np.sin(2 * np.pi * bin_index * t / n), fs


def test_zero_signal_yields_zero_pair():
    seg = make_segment("z", "A", np.zeros(64))
    for mode in (MEDIAN_PSD, MEDIAN_FREQUENCY):
        pair = compute_spectral(seg, median_mode=mode)
        assert pair.tolist() == [0.0, 0.0]


def test_pure_tone_peaks_at_its_bin():
    k0 = 37
    x, fs = tone(k0)
    freqs, psd = positive_band(x, fs)
    peak = int(np.argmax(psd))
    assert peak == k0 - 1  # band starts at bin 1
    assert freqs[peak] == pytest.approx(k0 * fs / len(x))
    assert psd[peak] / np.median(psd) >= 100.0


def test_parseval_identity():
    rng = np.random.default_rng(9)
    for n in (64, 127, 1024):
        x = rng.normal(size=n)
        fs = 500.0
        _, psd = periodogram(x, fs)
        total_power = float(np.sum(psd)) * fs / n
        mean_power = float(np.mean(x**2))
        assert abs(total_power - mean_power) <= 1e-9 * mean_power


def test_dc_component_is_excluded():
    x, fs = tone(37)
    base = compute_spectral(make_segment("a", "A", x, fs))
    shifted = compute_spectral(make_segment("b", "A", x + 100.0, fs))
    assert shifted[0] == pytest.approx(base[0], rel=1e-9)


def test_nyquist_bin_is_included_for_even_length():
    x = np.array([1.0, -1.0] * 16)  # all power at fs/2
    freqs, psd = positive_band(x, 1000.0)
    assert freqs[-1] == 500.0
    assert int(np.argmax(psd)) == len(psd) - 1


def test_psd_scales_quadratically_with_amplitude():
    x, fs = tone(10, amplitude=1.0)
    y, _ = tone(10, amplitude=3.0)
    a = compute_spectral(make_segment("a", "A", x, fs))
    b = compute_spectral(make_segment("b", "A", y, fs))
    assert b[0] == pytest.approx(9.0 * a[0], rel=1e-9)


def test_median_frequency_of_pure_tone_is_the_tone():
    k0 = 50
    x, fs = tone(k0)
    assert median_frequency(x, fs) == pytest.approx(k0 * fs / len(x))


def test_median_frequency_two_tone_split():
    n, fs = 1024, 1000.0
    t = np.arange(n)
    weak = np.sin(2 * np.pi * 10 * t / n)
    strong = 2.0 * np.sin(2 * np.pi * 100 * t / n)
    # the strong tone holds 4/5 of the power, so the half-power point
    # is its frequency; alone, the weak tone is its own half-power point
    assert median_frequency(weak + strong, fs) == pytest.approx(100 * fs / n)
    assert median_frequency(weak, fs) == pytest.approx(10 * fs / n)


def test_median_mode_selects_the_statistic():
    x, fs = tone(25)
    seg = make_segment("m", "A", x, fs)
    by_psd = compute_spectral(seg, median_mode=MEDIAN_PSD)
    by_freq = compute_spectral(seg, median_mode=MEDIAN_FREQUENCY)
    assert by_psd[0] == by_freq[0]
    assert by_freq[1] == pytest.approx(25 * fs / len(x))
    assert by_psd[1] != by_freq[1]


@pytest.mark.parametrize(
    "rate, scale, mode, columns",
    [
        (1000.0, 1e160, MEDIAN_PSD, "MaxPSD, MedPSD"),
        (1000.0, 1e160, MEDIAN_FREQUENCY, "MaxPSD, MedPSD"),
        # every bin is finite, but the band's total is not
        (0.001, 1e152, MEDIAN_FREQUENCY, "MedPSD"),
    ],
)
def test_compute_spectral_names_an_overflowing_segment(rate, scale, mode, columns):
    x = scale * np.random.default_rng(4).standard_normal(64)
    with pytest.raises(DegenerateDataError) as err:
        compute_spectral(make_segment("big", "A", x, rate), mode)
    assert str(err.value) == f"segment 'big' overflows float64 in {columns}"


def test_compute_spectral_rejects_unknown_mode():
    seg = make_segment("m", "A", np.zeros(32))
    with pytest.raises(ValueError, match="median_mode"):
        compute_spectral(seg, median_mode="mean")


@pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
def test_spectral_rows_rejects_a_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(ValueError, match="sampling_rate must be finite and positive"):
        spectral_rows(np.ones((1, 8)), rate)


def test_spectral_rows_rejects_a_block_of_one_sample_segments():
    with pytest.raises(ValueError) as err:
        spectral_rows(np.ones((2, 1)), 1000.0, MEDIAN_PSD)
    assert str(err.value) == "expected a (k, n >= 2) block of samples, got shape (2, 1)"


def test_periodogram_validation():
    with pytest.raises(ValueError, match="empty"):
        periodogram(np.array([]), 100.0)
    with pytest.raises(ValueError, match="sampling_rate"):
        periodogram(np.ones(8), 0.0)


def test_periodogram_is_nonnegative_and_symmetric_for_real_input():
    rng = np.random.default_rng(4)
    x = rng.normal(size=128)
    _, psd = periodogram(x, 1000.0)
    assert np.all(psd >= 0.0)
    # real input: bin k and bin N-k carry equal density
    assert np.allclose(psd[1:64], psd[:64:-1], rtol=1e-9, atol=1e-15)
