"""The block paths of the PRS stage against their per-row references.

``nutrient_grids`` sums cached column responses instead of building and
convolving each soil; ``grow_batch`` keeps its candidate offers across
days and lets a grid with no candidate left pick a sentinel;
``hull_areas`` works only on the rows the block occupies. The references
are the scalar soil fill, the division loop and the monotone-chain hull
in ``reference``. Every comparison here is exact.
"""

import numpy as np
import pytest

from prs import soil
from prs.growth import GrowthConfig, grow_batch, hull_areas
from prs.soil import (
    FILL_MODES,
    SoilConfig,
    bin_indices,
    build_discrete_soil,
    column_responses,
    convolve_soil,
    nutrient_grids,
)

import reference


@pytest.fixture(scope="module")
def normalized_rows():
    """40 normalized rows of 12 columns and the reference's per-column
    bounds. Column 4 is constant, so apply_bounds made it all 0, and its
    reference bounds are (0, 0); half of the rows lie outside [0, 1], so
    their bins clamp."""
    rng = np.random.default_rng(14)
    rows = rng.uniform(0.0, 1.0, size=(40, 12))
    rows[20:] = rng.uniform(-1.5, 2.5, size=(20, 12))
    rows[:, 4] = 0.0
    outside = (rows < 0.0) | (rows > 1.0)
    assert outside[20:].any(axis=1).all() and not outside[:20].any()
    bounds = np.tile([0.0, 1.0], (12, 1))
    bounds[4] = 0.0
    return rows, bounds


@pytest.mark.parametrize("fill_mode", FILL_MODES)
@pytest.mark.parametrize("depth", range(1, 21))
def test_nutrient_grids_equal_the_per_row_soil(normalized_rows, depth, fill_mode):
    rows, bounds = normalized_rows
    config = SoilConfig(depth=depth, fill_mode=fill_mode)
    bins = bin_indices(rows, depth)
    grids = nutrient_grids(bins, config)
    assert grids.shape == (len(rows), depth, 12) and grids.dtype == np.float64
    for row, grid in zip(rows, grids):
        discrete = reference.build_discrete_soil(row, bounds, config)
        assert np.array_equal(build_discrete_soil(row, config), discrete)
        assert np.array_equal(grid, convolve_soil(discrete))


def test_column_responses_are_built_once_and_read_only():
    table = column_responses(9, "onehot", 12)
    assert column_responses(9, "onehot", 12) is table
    assert table.shape == (12, 9, 9, 12) and not table.flags.writeable


@pytest.fixture
def fresh_table_cache():
    column_responses.cache_clear()
    yield
    column_responses.cache_clear()


@pytest.mark.parametrize(
    "kernel",
    [
        # 0.5 * 0.3 is not a whole number of sixteenths
        0.5 * np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.3, 0.3, 0.3]]),
        # on the grid, but a cell can sum past 255 sixteenths
        8.0 * np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.5]]),
        # on the grid, but negative
        -0.5 * np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.5]]),
    ],
    ids=["off-grid", "too-large", "negative"],
)
def test_table_build_rejects_a_kernel_off_the_sixteenths(
    monkeypatch, fresh_table_cache, kernel
):
    monkeypatch.setattr(soil, "KERNEL_SHALLOW", kernel)
    with pytest.raises(ValueError, match="sixteenths"):
        column_responses(15, "stacked", 12)


def grow_matches_per_row(grids, config):
    """Grow the block and each grid alone; returns the reference states
    and the block's picks."""
    absorbed, occupancy, picks = grow_batch(grids, config)
    states = [reference.grow(grid, config) for grid in grids]
    for s, state in enumerate(states):
        assert absorbed[s] == state.absorbed
        assert np.array_equal(occupancy[s], state.occupancy == 1)
    return states, picks


def test_rows_that_run_out_mid_day_pick_the_sentinel():
    # Barren cells are never candidates here. Grid 0 has three fertile
    # cells next to the radicle and one below them, so it grows 3 cells
    # on day 1 and 1 on day 2, then runs out; grid 1 runs out on day 1;
    # grids 2 and 3 keep growing 3 cells a day in the same block.
    rng = np.random.default_rng(3)
    grids = np.zeros((4, 6, 7))
    grids[0, 0, 2:5] = [1.0, 0.5, 0.25]  # radicle (1, 4) is cell (0, 3)
    grids[0, 1:3, 3] = [2.0, 0.75]
    grids[1, 1, 3] = 1.5
    grids[2:] = rng.choice([0.25, 0.5, 1.0, 2.0, 3.0], size=(2, 6, 7))
    config = GrowthConfig(days=6, division_limit=3, radicle=((1, 4),), occupy_zero=False)
    states, picks = grow_matches_per_row(grids, config)
    assert [len(day) for day in states[0].day_log] == [3, 1]
    assert [len(day) for day in states[1].day_log] == [1]
    for state in states[2:]:
        assert [len(day) for day in state.day_log] == [3] * 6
    # the picks hold each day's cells in pick order as the flat index
    # (row - 1) * 7 + col, and the sentinel 0 from the step a grid runs
    # out: grid 0 takes (2, 4), (1, 3), (1, 5), then (3, 4)
    assert picks.shape == (4, 6, 3)
    assert picks[0, :2].tolist() == [[11, 3, 5], [18, 0, 0]]
    assert picks[1, 0].tolist() == [11, 0, 0]
    assert not picks[:2, 2:].any() and picks[2:].all()


@pytest.mark.parametrize("division_limit", [1, 3])
def test_growth_that_fills_the_grid_stops_with_the_rest_of_the_block(division_limit):
    # a 3x3 grid fills after 8 picks; growing for many more days must not
    # change anything, nor keep a grid that has run out growing
    rng = np.random.default_rng(9)
    grids = rng.choice([0.0, 0.5, 1.0, 1.5], size=(5, 3, 3))
    fill_days = -(-8 // division_limit)
    for days in (fill_days - 1, fill_days, fill_days + 1, 1000):
        config = GrowthConfig(days=days, division_limit=division_limit, radicle=((2, 2),))
        states, _ = grow_matches_per_row(grids, config)
        assert all(state.occupancy.all() == (days >= fill_days) for state in states)


def test_hull_areas_of_two_radicles_with_a_gap_between_their_rows():
    # One day from a surface and a deep radicle: the occupied rows are
    # 1-2 and 11-15, with rows 3-10 empty in every grid of the block.
    rng = np.random.default_rng(21)
    grids = rng.choice([0.0, 0.5, 1.0, 2.0], size=(6, 15, 12))
    config = GrowthConfig(days=1, division_limit=4, radicle=((1, 3), (14, 9)))
    absorbed, occupancy, _ = grow_batch(grids, config)
    occupied_rows = np.flatnonzero(occupancy.any(axis=(0, 2)))
    assert occupied_rows.min() == 0 and occupied_rows.max() >= 13
    assert not occupancy[:, 2:12].any()
    got = hull_areas(occupancy)
    for grid, area, grid_occupancy in zip(grids, got, occupancy):
        assert area == reference.hull_oracle(grid_occupancy)
        assert area == reference.extract_prs(reference.grow(grid, config))[1]
    assert (got > 0).all()


def test_hull_areas_do_not_depend_on_the_rows_other_grids_occupy():
    rng = np.random.default_rng(5)
    stack = rng.uniform(size=(30, 15, 12)) < 0.08
    stack[:10, :6] = False  # the first ten grids start below row 6
    stack[10:20, 9:] = False  # the next ten end above row 10
    stack[20] = False  # an empty grid
    together = hull_areas(stack)
    alone = np.array([hull_areas(grid[None])[0] for grid in stack])
    assert np.array_equal(together, alone)
    assert np.array_equal(together, [reference.hull_oracle(grid) for grid in stack])
    assert hull_areas(np.zeros((3, 15, 12), dtype=bool)).tolist() == [0.0] * 3
