"""Batched base and spectral features against the one-segment functions.

``extract_base_matrix`` and ``extract_spectral_matrix`` group segments by
length, run ``base_feature_rows`` / ``spectral_rows`` on row blocks and
scatter the rows back. The reference here is the standalone functions of
``reference`` (``skewness``, ``zero_crossings``, ``positive_band``, ...)
applied to one segment at a time. Every comparison is exact (np.array_equal).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prs.base_features import (
    RELATIVE_THRESHOLD,
    ThresholdConfig,
    base_feature_rows,
    compute_base_features,
)
from prs.dataset import LabeledDataset, generate_synthetic
from prs.errors import DegenerateDataError
from prs.pipeline import (
    _SEGMENT_BLOCK_SAMPLES,
    extract_base_matrix,
    extract_spectral_matrix,
)
from prs.spectral import MEDIAN_FREQUENCY, MEDIAN_MODES, MEDIAN_PSD, spectral_rows

from conftest import make_segment
from reference import (
    kurtosis,
    mav,
    median_frequency,
    nonlinear_energy,
    positive_band,
    rms,
    signal_std,
    signal_variance,
    simple_square_integral,
    skewness,
    slope_sign_changes,
    waveform_length,
    willison_amplitude,
    zero_crossings,
)


def standalone_base(x, thresholds=ThresholdConfig(), centered_var=False):
    default = RELATIVE_THRESHOLD * float(np.max(np.abs(x)))

    def pick(value):
        return default if value is None else value

    return [
        signal_std(x),
        signal_variance(x, centered=centered_var),
        rms(x),
        skewness(x),
        kurtosis(x),
        mav(x),
        zero_crossings(x, pick(thresholds.zc_threshold)),
        slope_sign_changes(x, pick(thresholds.ssc_threshold)),
        willison_amplitude(x, pick(thresholds.wamp_threshold)),
        simple_square_integral(x),
        nonlinear_energy(x),
        waveform_length(x),
    ]


def standalone_spectral(x, fs, median_mode):
    _, psd = positive_band(x, fs)
    if median_mode == MEDIAN_PSD:
        return [np.max(psd), np.median(psd)]
    return [np.max(psd), median_frequency(x, fs)]


def assert_dataset_matches(dataset, thresholds=ThresholdConfig(), centered_var=False):
    got = extract_base_matrix(dataset, thresholds, centered_var)
    want = [standalone_base(s.samples, thresholds, centered_var) for s in dataset.segments]
    assert np.array_equal(got, np.array(want, dtype=np.float64))
    for mode in MEDIAN_MODES:
        got = extract_spectral_matrix(dataset, mode)
        want = [
            standalone_spectral(s.samples, s.sampling_rate, mode)
            for s in dataset.segments
        ]
        assert np.array_equal(got, np.array(want, dtype=np.float64))


def dataset_of(samples):
    """Alternating labels, ids in dataset order."""
    segments = [
        make_segment(f"s{i:03d}", "AB"[i % 2], x) for i, x in enumerate(samples)
    ]
    return LabeledDataset(name="blocks", segments=tuple(segments))


@pytest.mark.parametrize(
    "n_per_class, length",
    [(1000, 512), (40, 2000), (40, 64)],
    ids=["table-large", "grid-2000", "grid-64"],
)
def test_benchmark_shapes(n_per_class, length):
    assert_dataset_matches(generate_synthetic(n_per_class, length, seed=1))


def test_mixed_lengths_scatter_back_in_dataset_order():
    rng = np.random.default_rng(5)
    lengths = [64, 333, 64, 2000, 17, 333, 64, 512, 17, 2000, 333, 512] * 3
    data = [rng.normal(size=n) * rng.uniform(0.1, 10) for n in lengths]
    assert_dataset_matches(dataset_of(data))


def test_mixed_sampling_rates_are_blocked_apart():
    rng = np.random.default_rng(6)
    segments = [
        make_segment(f"s{i}", "AB"[i % 2], rng.normal(size=100), fs=fs)
        for i, fs in enumerate([1000.0, 250.0, 1000.0, 250.0, 999.5, 1000.0])
    ]
    assert_dataset_matches(LabeledDataset(name="rates", segments=tuple(segments)))


@pytest.mark.parametrize("length", [512, 333])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_block_boundary_sizes(length, offset):
    rows = _SEGMENT_BLOCK_SAMPLES // length + offset
    rng = np.random.default_rng(rows)
    assert_dataset_matches(dataset_of(rng.normal(size=(rows, length))))


def test_interleaved_lengths_each_end_in_a_short_block():
    # 4-row blocks of 2000 and of 2001 samples, 4 + 4 + 1 rows per length;
    # the blocks of a length share one buffer
    assert _SEGMENT_BLOCK_SAMPLES // 2000 == _SEGMENT_BLOCK_SAMPLES // 2001 == 4
    rng = np.random.default_rng(10)
    data = [rng.normal(size=2000 + i % 2) * rng.uniform(0.1, 10) for i in range(18)]
    assert_dataset_matches(dataset_of(data))


def test_overflowing_spectrum_matches_reference():
    # the FFT of +-1e308 overflows to inf and NaN bins; np.max and
    # np.median of such a row are NaN
    x = np.vstack([np.tile([1e308, -1e308], 32), np.arange(64.0)])
    with np.errstate(all="ignore"):
        got = spectral_rows(x, 1000.0)
        want = [standalone_spectral(row, 1000.0, MEDIAN_PSD) for row in x]
    assert np.isnan(got[0]).all()
    assert np.array_equal(got, np.array(want), equal_nan=True)


def test_overflowing_band_total_gives_nan_median_frequency():
    # at 0.001 Hz the first row's bins are finite but sum past float64;
    # its MedPSD is NaN, with no numpy warning, and the finite row below
    # keeps the reference bits
    x = generate_synthetic(2, 64, seed=3).segments[1].samples * np.array([[1e152], [1e2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectral_rows(x, 0.001, MEDIAN_FREQUENCY)
    assert np.isfinite(got[0, 0]) and np.isnan(got[0, 1])
    with np.errstate(over="ignore"):
        want = [standalone_spectral(row, 0.001, MEDIAN_FREQUENCY) for row in x]
    assert np.array_equal(got, np.array(want), equal_nan=True)


@pytest.mark.parametrize("length", [16, 17, 18, 19, 64, 65, 512, 513])
def test_single_row_kernels(length):
    x = np.random.default_rng(length).normal(size=length) * 3.0 + 1.0
    got = base_feature_rows(x[None, :])
    assert got.shape == (1, 12)
    assert np.array_equal(got[0], standalone_base(x))
    for mode in MEDIAN_MODES:
        got = spectral_rows(x[None, :], 1000.0, mode)
        assert np.array_equal(got[0], standalone_spectral(x, 1000.0, mode))


@pytest.mark.parametrize(
    "thresholds",
    [
        ThresholdConfig(0.0, 0.0, 0.0),
        ThresholdConfig(0.5, None, 2.0),
        ThresholdConfig(None, 0.0, None),
        ThresholdConfig(1e9, 1e9, 1e9),
    ],
)
@pytest.mark.parametrize("centered_var", [False, True])
def test_explicit_thresholds_and_centered_variance(thresholds, centered_var):
    rng = np.random.default_rng(9)
    data = [np.round(rng.normal(size=n), 1) for n in [64, 65] * 10]
    assert_dataset_matches(dataset_of(data), thresholds, centered_var)


def test_all_zero_row_gives_zero_spectrum():
    x = np.zeros((3, 64))
    x[1] = np.random.default_rng(0).normal(size=64)
    for mode in MEDIAN_MODES:
        got = spectral_rows(x, 1000.0, mode)
        assert np.array_equal(got[[0, 2]], np.zeros((2, 2)))
        assert np.array_equal(got[1], standalone_spectral(x[1], 1000.0, mode))


def test_constant_segment_error_names_first_in_dataset_order():
    rng = np.random.default_rng(3)
    data = [rng.normal(size=n) for n in [64, 128, 64, 128, 64, 128]]
    # s001 (length 128) is the first constant segment; s004 (length 64)
    # sits in the group that is blocked first
    data[1] = np.full(128, 2.0)
    data[4] = np.full(64, -1.0)
    with pytest.raises(DegenerateDataError, match="'s001' is constant: SKW, KURT"):
        extract_base_matrix(dataset_of(data))


def test_overflowing_segment_error_names_first_in_dataset_order():
    rng = np.random.default_rng(4)
    data = [rng.normal(size=n) for n in [64, 128, 64, 128]]
    # s001 (length 128) overflows in every squared sum; s002 (length 64)
    # sits in the group that is blocked first
    data[1] = 1e160 * data[1]
    data[2] = 1e160 * data[2]
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateDataError, match="'s001' overflows float64 in STD"):
            extract_base_matrix(dataset_of(data))
        with pytest.raises(DegenerateDataError, match="'s002' overflows"):
            compute_base_features(dataset_of(data).segments[2])


@pytest.mark.parametrize(
    "scale, columns",
    [
        (1e-83, "KURT"),
        (1e-140, "SKW, KURT"),
        (1e-155, "SKW, KURT"),
        (1e-160, "SKW, KURT"),
        (1e-200, "SKW, KURT"),
        (1e-300, "SKW, KURT"),
    ],
)
def test_tiny_segment_error_names_underflow(scale, columns):
    # m2 * sqrt(m2) or m2 * m2 rounds to 0; at 1e-200 and below m2 itself does
    rng = np.random.default_rng(7)
    data = [rng.normal(size=n) for n in [64, 128, 64, 128]]
    data[1] = scale * data[1]
    data[2] = scale * data[2]
    want = f"underflows float64 in {columns} \\(their denominator rounds to 0\\)$"
    with pytest.raises(DegenerateDataError, match=f"'s001' {want}"):
        extract_base_matrix(dataset_of(data))
    with pytest.raises(DegenerateDataError, match=f"'s002' {want}"):
        compute_base_features(dataset_of(data).segments[2])


def test_constant_segment_whose_mean_is_inexact_is_constant():
    # 2000 x 0.1 sums to a mean that is not 0.1, so m2 > 0 and SKW, KURT
    # are finite; WL 0 still marks the row
    data = list(np.random.default_rng(8).normal(size=(4, 2000)))
    data[1] = np.full(2000, 0.1)
    assert np.full(2000, 0.1).mean() != 0.1
    with pytest.raises(DegenerateDataError, match="'s001' is constant: SKW, KURT"):
        extract_base_matrix(dataset_of(data))
    with pytest.raises(DegenerateDataError, match="'s001' is constant: SKW, KURT"):
        compute_base_features(dataset_of(data).segments[1])


def test_constant_row_is_marked_by_zero_std():
    x = np.vstack([np.full(32, 7.0), np.arange(32.0)])
    with np.errstate(all="raise"):
        got = base_feature_rows(x)
    assert got[0, 0] == 0.0 and np.isnan(got[0, 3]) and np.isnan(got[0, 4])
    assert np.array_equal(got[1], standalone_base(x[1]))


def test_spectral_rows_rejects_unknown_mode():
    with pytest.raises(ValueError, match="median_mode"):
        spectral_rows(np.ones((2, 16)), 1000.0, "mean")


def _block(k, n, quantized, exponent):
    """A (k, n) block of floats, or of small integers whose steps are often
    0 and whose PSD bins tie, times 10**exponent."""
    if quantized:
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    return arrays(np.float64, (k, n), elements=elements).map(
        lambda x: x * 10.0**exponent
    )


# n from 3 to 41 gives positive bands of 1 to 20 bins, odd and even
small_blocks = st.tuples(
    st.integers(1, 5), st.integers(3, 41), st.booleans(), st.integers(-150, 150)
).flatmap(lambda args: _block(*args))


@settings(max_examples=150, deadline=None)
@given(small_blocks, st.sampled_from([MEDIAN_PSD, MEDIAN_FREQUENCY]))
def test_kernels_match_standalone_functions(block, mode):
    with np.errstate(all="ignore"):
        got = base_feature_rows(block)
    for row, x in zip(got, block):
        if np.mean((x - x.mean()) ** 2) == 0.0:
            assert row[0] == 0.0
            continue
        # tiny amplitudes underflow m2**1.5 to 0 and huge ones overflow:
        # both sides give NaN or inf
        with np.errstate(all="ignore"):
            want = standalone_base(x)
        assert np.array_equal(row, want, equal_nan=True)
    with np.errstate(all="ignore"):
        got = spectral_rows(block, 1000.0, mode)
        want = [standalone_spectral(x, 1000.0, mode) for x in block]
    assert np.array_equal(got, np.array(want), equal_nan=True)
