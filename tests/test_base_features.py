"""Oracle checks for the 12 time-domain features.

The oracles are deliberately plain Python loops over the defining sums,
written independently of the vectorized implementations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prs.base_features import (
    FEATURE_NAMES,
    RELATIVE_THRESHOLD,
    ThresholdConfig,
    compute_base_features,
    kurtosis,
    mav,
    nonlinear_energy,
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
from prs.errors import DegenerateDataError

from conftest import make_segment

# -- loop oracles ------------------------------------------------------------


def oracle_std(x):
    mean = sum(x) / len(x)
    return math.sqrt(sum((v - mean) ** 2 for v in x) / len(x))


def oracle_var_uncentered(x):
    return sum(v * v for v in x) / (len(x) - 1)


def oracle_rms(x):
    return math.sqrt(sum(v * v for v in x) / len(x))


def oracle_skw(x):
    mean = sum(x) / len(x)
    m2 = sum((v - mean) ** 2 for v in x) / len(x)
    m3 = sum((v - mean) ** 3 for v in x) / len(x)
    return m3 / m2**1.5


def oracle_kurt(x):
    mean = sum(x) / len(x)
    m2 = sum((v - mean) ** 2 for v in x) / len(x)
    m4 = sum((v - mean) ** 4 for v in x) / len(x)
    return m4 / m2**2


def oracle_mav(x):
    return sum(abs(v) for v in x) / len(x)


def oracle_zc(x, thr):
    count = 0
    for a, b in zip(x, x[1:]):
        if a * b < 0 and abs(a - b) >= thr:
            count += 1
    return count


def oracle_ssc(x, thr):
    count = 0
    for i in range(1, len(x) - 1):
        if (x[i] - x[i - 1]) * (x[i] - x[i + 1]) >= thr:
            count += 1
    return count


def oracle_wamp(x, thr):
    return sum(1 for a, b in zip(x, x[1:]) if abs(a - b) >= thr)


def oracle_ssi(x):
    return sum(v * v for v in x)


def oracle_nle(x):
    total = sum(x[i] ** 2 - x[i - 1] * x[i + 1] for i in range(1, len(x) - 1))
    return total / (len(x) - 2)


def oracle_wl(x):
    return sum(abs(b - a) for a, b in zip(x, x[1:]))


def test_all_features_match_loop_oracles():
    rng = np.random.default_rng(42)
    for _ in range(30):
        x = rng.normal(scale=rng.uniform(0.1, 10), size=rng.integers(16, 200))
        lst = x.tolist()
        thr = RELATIVE_THRESHOLD * max(abs(v) for v in lst)
        pairs = [
            (signal_std(x), oracle_std(lst)),
            (signal_variance(x), oracle_var_uncentered(lst)),
            (rms(x), oracle_rms(lst)),
            (skewness(x), oracle_skw(lst)),
            (kurtosis(x), oracle_kurt(lst)),
            (mav(x), oracle_mav(lst)),
            (zero_crossings(x, thr), oracle_zc(lst, thr)),
            (slope_sign_changes(x, thr), oracle_ssc(lst, thr)),
            (willison_amplitude(x, thr), oracle_wamp(lst, thr)),
            (simple_square_integral(x), oracle_ssi(lst)),
            (nonlinear_energy(x), oracle_nle(lst)),
            (waveform_length(x), oracle_wl(lst)),
        ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


# -- stated example values ---------------------------------------------------


def test_constant_segment_identities():
    x = np.full(16, 5.0)
    assert signal_std(x) == 0.0
    assert mav(x) == 5.0
    assert waveform_length(x) == 0.0


def test_rms_of_3_4():
    assert rms([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)


def test_alternating_signal_zc_and_wl():
    x = np.array([1.0, -1.0] * 8)
    assert zero_crossings(x, 0.5) == 15
    assert waveform_length(x) == pytest.approx(30.0)


def test_wamp_small_example():
    assert willison_amplitude([0.0, 1.0, 0.0, 1.0], 0.5) == 3


def test_variance_is_uncentered_by_default():
    x = np.ones(4)
    assert signal_variance(x) == pytest.approx(4.0 / 3.0)
    assert signal_variance(x, centered=True) == 0.0


def test_skew_kurt_undefined_on_constant():
    x = np.zeros(16)
    with pytest.raises(DegenerateDataError):
        skewness(x)
    with pytest.raises(DegenerateDataError):
        kurtosis(x)


def test_compute_base_features_names_constant_feature_in_error():
    seg = make_segment("c", "A", np.full(16, 2.0))
    with pytest.raises(DegenerateDataError, match="SKW|KURT"):
        compute_base_features(seg)


# -- vector assembly ---------------------------------------------------------


def test_feature_vector_matches_standalone_functions(tiny_dataset):
    seg = tiny_dataset.segments[0]
    row = compute_base_features(seg)
    assert isinstance(row, np.ndarray)
    assert row.shape == (len(FEATURE_NAMES),) == (12,)
    x = seg.samples
    thr = RELATIVE_THRESHOLD * float(np.max(np.abs(x)))
    expected = [
        signal_std(x),
        signal_variance(x),
        rms(x),
        skewness(x),
        kurtosis(x),
        mav(x),
        float(zero_crossings(x, thr)),
        float(slope_sign_changes(x, thr)),
        float(willison_amplitude(x, thr)),
        simple_square_integral(x),
        nonlinear_energy(x),
        waveform_length(x),
    ]
    assert np.allclose(row, expected, rtol=0, atol=0)
    assert row[FEATURE_NAMES.index("RMS")] == rms(x)


def test_threshold_overrides_apply(tiny_dataset):
    seg = tiny_dataset.segments[0]
    loose = compute_base_features(seg, ThresholdConfig(0.0, 0.0, 0.0))
    tight = compute_base_features(seg, ThresholdConfig(1e9, 1e9, 1e9))
    zc_i = FEATURE_NAMES.index("ZC")
    wamp_i = FEATURE_NAMES.index("WAMP")
    assert loose[zc_i] >= tight[zc_i]
    assert tight[wamp_i] == 0.0


def test_threshold_config_rejects_negative():
    with pytest.raises(ValueError):
        ThresholdConfig(zc_threshold=-0.1)


# -- properties --------------------------------------------------------------

finite_signals = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=16,
    max_size=64,
).filter(lambda xs: max(xs) - min(xs) > 1e-9)


@settings(max_examples=50, deadline=None)
@given(finite_signals, st.floats(min_value=0.1, max_value=100.0))
def test_scale_properties(xs, c):
    x = np.array(xs)
    assert mav(c * x) == pytest.approx(c * mav(x), rel=1e-9, abs=1e-12)
    assert signal_std(c * x) == pytest.approx(c * signal_std(x), rel=1e-9, abs=1e-9)
    assert waveform_length(c * x) == pytest.approx(
        c * waveform_length(x), rel=1e-9, abs=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_counting_features_invariant_under_relative_threshold_scaling(xs):
    # counting features use a threshold proportional to max|x|, so a pure
    # rescale must not change the counts (up to >= boundary ties, excluded
    # by the exact power-of-two factor)
    x = np.array(xs)
    c = 4.0
    thr = RELATIVE_THRESHOLD * float(np.max(np.abs(x)))
    assert zero_crossings(c * x, c * thr) == zero_crossings(x, thr)
    assert willison_amplitude(c * x, c * thr) == willison_amplitude(x, thr)


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_kurtosis_at_least_one(xs):
    assert kurtosis(np.array(xs)) >= 1.0 - 1e-12


def test_nle_positive_on_noise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert nonlinear_energy(rng.normal(size=128)) > 0.0
