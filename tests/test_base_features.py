"""Oracle checks for the 12 time-domain features.

The oracles are deliberately plain Python loops over the defining sums,
written independently of the vectorized implementations. The features
under test come from ``base_feature_rows`` on a one-row block; one test
also pins ``compute_base_features`` to the standalone one-segment
references of ``reference``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prs.base_features import (
    FEATURE_NAMES,
    RELATIVE_THRESHOLD,
    ThresholdConfig,
    base_feature_rows,
    compute_base_features,
)
from prs.errors import DegenerateDataError

import reference
from conftest import make_segment


def feature(name, x, thresholds=ThresholdConfig(), centered_var=False):
    """One feature of one segment: ``base_feature_rows`` on a one-row block."""
    x = np.asarray(x, dtype=np.float64)[None, :]
    return base_feature_rows(x, thresholds, centered_var)[0, FEATURE_NAMES.index(name)]


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
        # the default thresholds are the relative ones
        row = base_feature_rows(x[None, :])[0]
        oracles = [
            oracle_std(lst),
            oracle_var_uncentered(lst),
            oracle_rms(lst),
            oracle_skw(lst),
            oracle_kurt(lst),
            oracle_mav(lst),
            oracle_zc(lst, thr),
            oracle_ssc(lst, thr),
            oracle_wamp(lst, thr),
            oracle_ssi(lst),
            oracle_nle(lst),
            oracle_wl(lst),
        ]
        for got, want in zip(row, oracles):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def exact_skw_kurt(x):
    """SKW and KURT of the float samples in exact rational arithmetic:
    only the final square root and the conversions to float round."""
    xs = [Fraction(v) for v in x]
    n = len(xs)
    mean = sum(xs) / n
    dev2 = [(v - mean) ** 2 for v in xs]
    m2 = sum(dev2) / n
    m3 = sum(d2 * (v - mean) for d2, v in zip(dev2, xs)) / n
    m4 = sum(d2 * d2 for d2 in dev2) / n
    skw = math.copysign(math.sqrt(m3 * m3 / (m2 * m2 * m2)), m3)
    return skw, float(m4 / (m2 * m2))


def test_kernel_skw_kurt_match_exact_rational_moments():
    # skewed rows (|SKW| well above 0, so rel is meaningful) over six
    # decades of amplitude, with offsets of up to 100 amplitudes: moments
    # taken from uncentered sums lose more than 1e-12 to cancellation here
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(16, 2001))
        amplitude = 10.0 ** rng.uniform(-3, 3)
        sign = rng.choice([-1.0, 1.0])
        offset = rng.uniform(-100, 100)
        x = amplitude * (sign * rng.standard_exponential(n) + offset)
        skw, kurt = exact_skw_kurt(x.tolist())
        got = base_feature_rows(x[None, :])[0]
        assert got[3] == pytest.approx(skw, rel=1e-12, abs=0)
        assert got[4] == pytest.approx(kurt, rel=1e-12, abs=0)


# -- stated example values ---------------------------------------------------


def test_constant_segment_identities():
    x = np.full(16, 5.0)
    assert feature("STD", x) == 0.0
    assert feature("MAV", x) == 5.0
    assert feature("WL", x) == 0.0


def test_rms_of_3_4():
    # the kernel needs 3 samples; 3, 4, 3, 4 has the mean square of 3, 4
    assert feature("RMS", [3.0, 4.0, 3.0, 4.0]) == pytest.approx(
        math.sqrt(12.5), abs=1e-12
    )


def test_alternating_signal_zc_and_wl():
    x = np.array([1.0, -1.0] * 8)
    assert feature("ZC", x, ThresholdConfig(zc_threshold=0.5)) == 15
    assert feature("WL", x) == pytest.approx(30.0)


def test_wamp_small_example():
    x = [0.0, 1.0, 0.0, 1.0]
    assert feature("WAMP", x, ThresholdConfig(wamp_threshold=0.5)) == 3


def test_variance_is_uncentered_by_default():
    x = np.ones(4)
    assert feature("VAR", x) == pytest.approx(4.0 / 3.0)
    assert feature("VAR", x, centered_var=True) == 0.0


def test_skew_kurt_undefined_on_constant():
    x = np.zeros(16)
    assert np.isnan(feature("SKW", x)) and np.isnan(feature("KURT", x))
    with pytest.raises(DegenerateDataError, match="SKW, KURT undefined"):
        compute_base_features(make_segment("z", "A", x))


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
        reference.signal_std(x),
        reference.signal_variance(x),
        reference.rms(x),
        reference.skewness(x),
        reference.kurtosis(x),
        reference.mav(x),
        float(reference.zero_crossings(x, thr)),
        float(reference.slope_sign_changes(x, thr)),
        float(reference.willison_amplitude(x, thr)),
        reference.simple_square_integral(x),
        reference.nonlinear_energy(x),
        reference.waveform_length(x),
    ]
    assert np.allclose(row, expected, rtol=0, atol=0)
    assert row[FEATURE_NAMES.index("RMS")] == reference.rms(x)


def test_threshold_overrides_apply(tiny_dataset):
    seg = tiny_dataset.segments[0]
    loose = compute_base_features(seg, ThresholdConfig(0.0, 0.0, 0.0))
    tight = compute_base_features(seg, ThresholdConfig(1e9, 1e9, 1e9))
    zc_i = FEATURE_NAMES.index("ZC")
    wamp_i = FEATURE_NAMES.index("WAMP")
    assert loose[zc_i] >= tight[zc_i]
    assert tight[wamp_i] == 0.0


@pytest.mark.parametrize("shape", [(2, 2), (5,)])
def test_base_feature_rows_rejects_a_block_that_is_no_segments(shape):
    with pytest.raises(ValueError) as err:
        base_feature_rows(np.ones(shape))
    message = f"expected a (k, n >= 3) block of samples, got shape {shape}"
    assert str(err.value) == message


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
    assert feature("MAV", c * x) == pytest.approx(
        c * feature("MAV", x), rel=1e-9, abs=1e-12
    )
    assert feature("STD", c * x) == pytest.approx(
        c * feature("STD", x), rel=1e-9, abs=1e-9
    )
    assert feature("WL", c * x) == pytest.approx(c * feature("WL", x), rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_counting_features_invariant_under_relative_threshold_scaling(xs):
    # counting features use a threshold proportional to max|x|, so a pure
    # rescale must not change the counts (up to >= boundary ties, excluded
    # by the exact power-of-two factor)
    x = np.array(xs)
    c = 4.0
    thr = RELATIVE_THRESHOLD * float(np.max(np.abs(x)))
    for name in ("ZC", "WAMP"):
        at = ThresholdConfig(thr, thr, thr)
        scaled = ThresholdConfig(c * thr, c * thr, c * thr)
        assert feature(name, c * x, scaled) == feature(name, x, at)


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_kurtosis_at_least_one(xs):
    assert feature("KURT", xs) >= 1.0 - 1e-12


def test_nle_positive_on_noise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert feature("NLE", rng.normal(size=128)) > 0.0
