"""Binning, soil stacking, and the two nutrient redistribution passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prs.soil import (
    KERNEL_DEEP,
    KERNEL_SHALLOW,
    SOIL_DEPTH,
    SOIL_WIDTH,
    SoilConfig,
    bin_indices,
    build_discrete_soil,
    convolve_soil,
    correlate3,
)


def one_bin(value, k):
    """The bin of one normalized value: ``bin_indices`` on a one-element
    block."""
    return int(bin_indices([[value]], k)[0, 0])


def oracle_correlate(grid, kernel):
    """Direct nested-loop stencil with explicit zero padding semantics."""
    rows, cols = grid.shape
    out = np.zeros_like(grid, dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            s = 0.0
            for u in range(3):
                for v in range(3):
                    r, c = i + u - 1, j + v - 1
                    if 0 <= r < rows and 0 <= c < cols:
                        s += kernel[u, v] * grid[r, c]
            out[i, j] = s
    return out


# -- binning -----------------------------------------------------------------


def test_bin_index_examples():
    assert one_bin(0.0, 15) == 1
    assert one_bin(1.0, 15) == 15
    assert one_bin(0.5, 15) == 8
    assert one_bin(1.0 / 3.0, 3) == 2


def test_bin_index_clamps_out_of_range():
    assert one_bin(-2.0, 15) == 1
    assert one_bin(3.0, 15) == 15


def test_bin_index_of_a_constant_column():
    # apply_bounds writes 0 into a column whose training values are equal
    assert one_bin(0.0, 15) == 1
    assert one_bin(-0.0, 15) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
def test_a_value_with_no_finite_bin_is_rejected(value):
    with pytest.raises(ValueError, match="no finite bin"):
        bin_indices([[0.5, value]], 15)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
    st.integers(min_value=1, max_value=40),
)
def test_bin_index_always_in_range(value, k):
    assert 1 <= one_bin(value, k) <= k


def test_bin_index_monotone_in_value():
    values = np.linspace(-0.5, 1.5, 101)
    bins = [one_bin(v, 15) for v in values]
    assert bins == sorted(bins)


# -- soil construction -------------------------------------------------------


def test_zero_row_gives_single_surface_layer():
    soil = build_discrete_soil(np.zeros(SOIL_WIDTH))
    assert soil.shape == (SOIL_DEPTH, SOIL_WIDTH)
    assert np.array_equal(soil[0], np.ones(SOIL_WIDTH))
    assert not soil[1:].any()


def test_half_value_column_fills_eight_rows():
    row = np.zeros(SOIL_WIDTH)
    row[5] = 0.5  # column 6, 1-based
    soil = build_discrete_soil(row)
    assert soil[:8, 5].tolist() == [1.0] * 8
    assert not soil[8:, 5].any()


def test_onehot_mode_places_single_cell():
    row = np.zeros(SOIL_WIDTH)
    row[5] = 0.5
    soil = build_discrete_soil(row, SoilConfig(fill_mode="onehot"))
    assert soil[:, 5].sum() == 1.0
    assert soil[7, 5] == 1.0


def test_stacked_columns_never_have_gaps():
    rng = np.random.default_rng(3)
    for _ in range(20):
        soil = build_discrete_soil(rng.uniform(size=SOIL_WIDTH))
        for j in range(SOIL_WIDTH):
            col = soil[:, j]
            # non-increasing down the column: ones then zeros
            assert np.all(np.diff(col) <= 0)
            assert col[0] == 1.0


def test_soil_config_validation():
    with pytest.raises(ValueError, match="fill_mode"):
        SoilConfig(fill_mode="diagonal")
    with pytest.raises(ValueError, match="depth"):
        SoilConfig(depth=0)
    for depth in (9.5, True, "9"):
        with pytest.raises(ValueError, match="depth must be an integer"):
            SoilConfig(depth=depth)
    assert SoilConfig(depth=np.int64(9)).depth == 9


# -- kernel passes -----------------------------------------------------------


def test_kernel_values():
    assert np.array_equal(
        KERNEL_SHALLOW, 0.5 * np.array([[1, 1, 1], [0, 1, 0], [0.5, 0.5, 0.5]])
    )
    assert np.array_equal(
        KERNEL_DEEP, 0.5 * np.array([[0.5, 0.5, 0.5], [0, 1, 0], [1, 1, 1]])
    )


def test_kernels_are_read_only():
    with pytest.raises(ValueError):
        KERNEL_SHALLOW[0, 0] = 9.0
    with pytest.raises(ValueError):
        KERNEL_DEEP[2, 2] = 9.0


def test_correlate3_matches_nested_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        grid = rng.uniform(size=(SOIL_DEPTH, SOIL_WIDTH))
        for kernel in (KERNEL_SHALLOW, KERNEL_DEEP):
            got = correlate3(grid, kernel)
            assert np.max(np.abs(got - oracle_correlate(grid, kernel))) <= 1e-12


def test_sequential_passes_match_oracle():
    rng = np.random.default_rng(13)
    grid = (rng.uniform(size=(SOIL_DEPTH, SOIL_WIDTH)) > 0.5).astype(np.float64)
    want = oracle_correlate(oracle_correlate(grid, KERNEL_SHALLOW), KERNEL_DEEP)
    assert np.max(np.abs(convolve_soil(grid) - want)) <= 1e-12


def test_impulse_response_is_mirrored_kernel():
    grid = np.zeros((SOIL_DEPTH, SOIL_WIDTH))
    grid[7, 5] = 1.0
    out = correlate3(grid, KERNEL_SHALLOW)
    assert np.array_equal(out[6:9, 4:7], KERNEL_SHALLOW[::-1, ::-1])
    assert out[7, 5] == 0.5


def test_all_ones_interior_level_after_first_pass():
    out = correlate3(np.ones((SOIL_DEPTH, SOIL_WIDTH)), KERNEL_SHALLOW)
    assert np.all(out[1:-1, 1:-1] == 2.75)


def test_passes_are_linear():
    rng = np.random.default_rng(14)
    x = rng.uniform(size=(6, 5))
    y = rng.uniform(size=(6, 5))
    combo = convolve_soil(2.0 * x + 3.0 * y)
    parts = 2.0 * convolve_soil(x) + 3.0 * convolve_soil(y)
    assert np.allclose(combo, parts, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        np.float64,
        (SOIL_DEPTH, SOIL_WIDTH),
        elements=st.floats(min_value=0.0, max_value=10.0),
    )
)
def test_nonnegative_input_gives_nonnegative_output(grid):
    assert np.all(convolve_soil(grid) >= 0.0)


def test_monotone_in_the_input():
    rng = np.random.default_rng(15)
    x = rng.uniform(size=(SOIL_DEPTH, SOIL_WIDTH))
    y = x + rng.uniform(size=x.shape)  # y >= x everywhere
    assert np.all(convolve_soil(y) >= convolve_soil(x))


def test_convolve_soil_takes_a_grid_or_a_stack():
    rng = np.random.default_rng(16)
    soils = [
        build_discrete_soil(rng.uniform(size=SOIL_WIDTH), SoilConfig(fill_mode=mode))
        for mode in ("stacked", "onehot")
    ]
    assert all(soil.dtype == np.float64 for soil in soils)
    stacked = convolve_soil(np.stack(soils))
    assert stacked.shape == (2, SOIL_DEPTH, SOIL_WIDTH)
    for soil, nutrients in zip(soils, stacked):
        assert np.array_equal(convolve_soil(soil), nutrients)
