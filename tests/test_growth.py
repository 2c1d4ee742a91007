"""Daily root division, absorption accounting, and the hull-area feature.

The growth and RF cases run the package's ``grow`` and ``extract_prs``
(``grow_batch`` and ``hull_areas`` on a one-grid block); the absorption
and hull formula checks test the per-row references in ``reference``.
"""

from collections import deque

import numpy as np
import pytest

from prs.growth import (
    DEFAULT_RADICLE,
    GrowthConfig,
    RootState,
    extract_prs,
    grow,
    grow_batch,
)
from prs.soil import SOIL_DEPTH, SOIL_WIDTH

from reference import absorption_rate, convex_hull, occupied_cells, polygon_area

RF_MAX = (SOIL_WIDTH - 1) * (SOIL_DEPTH - 1)  # hull of every cell center


def fan_area(vertices):
    """Triangulate a convex polygon from its first vertex."""
    if len(vertices) < 3:
        return 0.0
    x0, y0 = vertices[0]
    total = 0.0
    for (x1, y1), (x2, y2) in zip(vertices[1:], vertices[2:]):
        total += 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    return abs(total)


def is_connected_to_radicle(occupancy, radicle):
    seeds = [(r - 1, c - 1) for r, c in radicle]
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if (
                0 <= ni < occupancy.shape[0]
                and 0 <= nj < occupancy.shape[1]
                and occupancy[ni, nj]
                and (ni, nj) not in seen
            ):
                seen.add((ni, nj))
                queue.append((ni, nj))
    return len(seen) == int(occupancy.sum())


def nutrients_from(array):
    return np.asarray(array, dtype=np.float64)


def zero_nutrients():
    return nutrients_from(np.zeros((SOIL_DEPTH, SOIL_WIDTH)))


# -- absorption --------------------------------------------------------------


def test_absorption_rate_values():
    assert absorption_rate(0.0) == 0.0
    assert absorption_rate(1.0) == pytest.approx(0.99)
    assert absorption_rate(3.0) == pytest.approx(3.0 / 4.0 + 0.49)


def test_absorption_rate_bounded_and_monotone():
    values = np.linspace(0.001, 50, 500)
    rates = [absorption_rate(v) for v in values]
    assert all(0.49 < r < 1.49 for r in rates)
    assert rates == sorted(rates)


# -- growth loop -------------------------------------------------------------


def test_zero_days_keeps_only_radicle():
    state = grow(zero_nutrients(), GrowthConfig(days=0))
    assert occupied_cells(state) == [DEFAULT_RADICLE[0]]
    assert state.absorbed == 0.0
    assert state.day_log == []


def test_one_day_on_barren_soil():
    state = grow(zero_nutrients(), GrowthConfig(days=1, division_limit=2))
    # three zero-valued candidates around (1, 6); ties resolve by (row, col)
    assert state.day_log == [[(1, 5), (1, 7)]]
    assert state.absorbed == 0.0
    assert sorted(occupied_cells(state)) == [(1, 5), (1, 6), (1, 7)]


def test_single_nutrient_cell_is_taken_first():
    grid = np.zeros((SOIL_DEPTH, SOIL_WIDTH))
    grid[1, 5] = 1.0  # cell (2, 6), directly below the radicle
    state = grow(nutrients_from(grid), GrowthConfig(days=1, division_limit=1))
    assert state.day_log == [[(2, 6)]]
    assert state.absorbed == pytest.approx(0.99)


def test_barren_cells_skipped_when_occupy_zero_off():
    state = grow(
        zero_nutrients(), GrowthConfig(days=5, division_limit=2, occupy_zero=False)
    )
    assert occupied_cells(state) == [DEFAULT_RADICLE[0]]
    assert state.day_log == []


def test_value_then_position_tie_break():
    grid = np.zeros((SOIL_DEPTH, SOIL_WIDTH))
    grid[0, 4] = 0.5  # (1, 5)
    grid[0, 6] = 0.5  # (1, 7)
    grid[1, 5] = 0.8  # (2, 6)
    state = grow(nutrients_from(grid), GrowthConfig(days=1, division_limit=2))
    # highest value first, then the earlier (row, col) among the 0.5 tie
    assert state.day_log == [[(2, 6), (1, 5)]]


def test_daily_limit_and_duplicate_candidates():
    grid = np.ones((SOIL_DEPTH, SOIL_WIDTH))
    config = GrowthConfig(days=4, division_limit=3)
    state = grow(nutrients_from(grid), config)
    assert all(len(day) <= 3 for day in state.day_log)
    cells = [cell for day in state.day_log for cell in day]
    assert len(cells) == len(set(cells))
    assert int(state.occupancy.sum()) == 1 + len(cells)


def test_growth_stops_when_grid_is_full():
    grid = np.ones((2, 2))
    config = GrowthConfig(days=50, division_limit=4, radicle=((1, 1),))
    state = grow(nutrients_from(grid), config)
    assert int(state.occupancy.sum()) == 4
    assert len(state.day_log) < 50


def test_picks_per_day_are_capped_at_the_cell_count():
    # a 3 x 4 grid has 12 cells, so no day picks more than 12: a larger
    # limit adds only sentinel picks, which absorb +0.0; a 9 x 12 grid
    # under a limit of 10**8 makes 108 picks a day, not 10**8
    for rows, cols, limit in ((3, 4, 50), (9, 12, 10**8)):
        rng = np.random.default_rng(5)
        grids = rng.uniform(-1.0, 1.0, size=(3, rows, cols))
        grids[0, 1, :] = 0.0
        radicle = ((2, 2),)
        wide = GrowthConfig(days=4, division_limit=limit, radicle=radicle)
        capped = GrowthConfig(days=4, division_limit=rows * cols, radicle=radicle)
        absorbed, occupancy, picks = grow_batch(grids, wide)
        want_absorbed, want_occupancy, want_picks = grow_batch(grids, capped)
        assert picks.shape == (3, 4, rows * cols)
        assert absorbed.tobytes() == want_absorbed.tobytes()
        assert np.array_equal(occupancy, want_occupancy)
        assert np.array_equal(picks, want_picks)
        assert grow(grids[0], wide).day_log == grow(grids[0], capped).day_log


def test_growth_invariants_on_random_grids():
    rng = np.random.default_rng(77)
    for trial in range(10):
        grid = rng.uniform(0, 4, size=(SOIL_DEPTH, SOIL_WIDTH))
        grid[rng.uniform(size=grid.shape) < 0.3] = 0.0
        nutrients = nutrients_from(grid)
        config = GrowthConfig(days=10, division_limit=2)
        state = grow(nutrients, config)
        assert is_connected_to_radicle(state.occupancy, config.radicle)
        assert all(len(day) <= config.division_limit for day in state.day_log)
        # absorption never decreases as days accumulate
        previous = 0.0
        for days in range(11):
            partial = grow(nutrients, GrowthConfig(days=days, division_limit=2))
            assert partial.absorbed >= previous - 1e-15
            previous = partial.absorbed
        assert 0.0 <= extract_prs(state)[1] <= RF_MAX


def test_growth_is_deterministic():
    rng = np.random.default_rng(5)
    nutrients = nutrients_from(rng.uniform(size=(SOIL_DEPTH, SOIL_WIDTH)))
    a = grow(nutrients)
    b = grow(nutrients)
    assert np.array_equal(a.occupancy, b.occupancy)
    assert a.absorbed == b.absorbed
    assert a.day_log == b.day_log


def test_grow_returns_the_row_types():
    # int 0/1 occupancy, a Python float total and 1-based int cells, as
    # the CLI report and the frames print them
    state = grow(zero_nutrients(), GrowthConfig(days=3))
    assert state.occupancy.dtype == np.int64
    assert set(np.unique(state.occupancy).tolist()) == {0, 1}
    assert type(state.absorbed) is float
    assert all(type(v) is int for day in state.day_log for cell in day for v in cell)


def test_config_validation():
    with pytest.raises(ValueError, match="days"):
        GrowthConfig(days=-1)
    with pytest.raises(ValueError, match="division_limit"):
        GrowthConfig(division_limit=0)
    with pytest.raises(ValueError, match="radicle"):
        GrowthConfig(radicle=())
    # counts must be integers: a bool or a float is not silently truncated
    for kwargs in (
        {"days": 2.5},
        {"days": True},
        {"division_limit": 1.5},
        {"division_limit": True},
    ):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GrowthConfig(**kwargs)
    for cell in ((1.7, 6.2), (True, 6), (1, 6.0)):
        with pytest.raises(ValueError, match="radicle (row|column) must be an integer"):
            GrowthConfig(radicle=(cell,))
    config = GrowthConfig(days=np.int64(3), radicle=((np.int64(2), 5),))
    assert config.radicle == ((2, 5),) and type(config.radicle[0][0]) is int
    # the grid shape comes from the grids, so grow checks the radicle
    for cell in ((0, 6), (1, 13)):
        config = GrowthConfig(radicle=(cell,))
        with pytest.raises(ValueError, match="outside"):
            grow(zero_nutrients(), config)
        with pytest.raises(ValueError, match="outside"):
            grow_batch(np.zeros((1, SOIL_DEPTH, SOIL_WIDTH)), config)


def test_grid_shape_mismatch():
    with pytest.raises(ValueError, match="grid"):
        grow(nutrients_from(np.zeros((3, 3))))
    with pytest.raises(ValueError) as err:
        grow_batch(np.zeros((SOIL_DEPTH, SOIL_WIDTH)))
    assert str(err.value) == (
        f"nutrient grids are ({SOIL_DEPTH}, {SOIL_WIDTH}), expected (m, rows, cols)"
    )


# -- polygon area and hull ---------------------------------------------------


def test_polygon_area_examples():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert polygon_area(square) == 1.0
    triangle = [(0, 0), (4, 0), (0, 3)]
    assert polygon_area(triangle) == 6.0
    assert polygon_area([(0, 0), (5, 5)]) == 0.0
    assert polygon_area([]) == 0.0


def test_polygon_area_orientation_free():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert polygon_area(square) == polygon_area(square[::-1])


def test_hull_of_square_with_interior_points():
    points = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0), (0.5, 0.7)]
    hull = convex_hull(points)
    assert set(hull) == {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}
    assert polygon_area(hull) == 4.0


def test_hull_collinear_input():
    hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert hull == [(0.0, 0.0), (3.0, 3.0)]
    assert polygon_area(hull) == 0.0


def test_hull_counterclockwise_and_matches_fan_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        points = rng.uniform(-5, 5, size=(rng.integers(3, 40), 2))
        hull = convex_hull(points)
        for i in range(len(hull)):
            o, a, b = hull[i - 2], hull[i - 1], hull[i]
            turn = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert turn > 0.0  # strict left turns: CCW, no collinear runs
        assert polygon_area(hull) == pytest.approx(fan_area(hull), abs=1e-9)


def test_extract_prs_square_of_cells():
    occupancy = np.zeros((SOIL_DEPTH, SOIL_WIDTH), dtype=np.int64)
    for r, c in [(1, 1), (1, 3), (3, 1), (3, 3)]:
        occupancy[r - 1, c - 1] = 1
    row = extract_prs(RootState(occupancy=occupancy, absorbed=2.5))
    assert row.tolist() == [2.5, 4.0]  # [NF, RF]


def test_extract_prs_collinear_cells():
    occupancy = np.zeros((SOIL_DEPTH, SOIL_WIDTH), dtype=np.int64)
    for c in (1, 2, 3):
        occupancy[0, c - 1] = 1
    assert extract_prs(RootState(occupancy=occupancy, absorbed=0.0))[1] == 0.0
