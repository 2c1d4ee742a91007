"""Batched NF/RF against the per-row reference chain, compared bit for bit.

``prs_features`` bins, grows and takes hull areas over blocks of rows;
``reference.prs_pair_for_row`` (scalar binning -> convolve_soil -> the
division loop -> monotone-chain hull) does the same one row at a time.
The package's one-grid ``grow`` must also give the loop's day log. Every
comparison here is exact (np.array_equal), never approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prs import growth
from prs.dataset import generate_synthetic
from prs.growth import GrowthConfig, grow_batch, hull_areas
from prs.pipeline import (
    _PRS_BLOCK,
    PipelineConfig,
    extract_base_matrix,
    fit_prep,
    prs_features,
    transform_rows,
)
from prs.soil import (
    SOIL_DEPTH,
    SOIL_WIDTH,
    SoilConfig,
    bin_indices,
    nutrient_grids,
)

import reference


def per_row(values, artifacts, config=PipelineConfig()):
    out = np.empty((len(values), 2))
    for idx, row in enumerate(values):
        out[idx] = reference.prs_pair_for_row(row, artifacts, config)
    return out


def assert_batch_matches_rows(values, artifacts, config=PipelineConfig()):
    got = prs_features(values, artifacts, config)
    want = per_row(values, artifacts, config)
    assert got.shape == (len(values), 2)
    assert np.array_equal(got, want)


def assert_growth_matches(grids, config):
    absorbed, occupancy, _ = grow_batch(grids, config)
    for s, grid in enumerate(grids):
        state = reference.grow(grid, config)
        assert absorbed[s] == state.absorbed
        assert np.array_equal(occupancy[s], state.occupancy == 1)
        assert hull_areas(occupancy[s : s + 1])[0] == reference.extract_prs(state)[1]
        # the one-grid grow reads its day log from the batch's picks
        one = growth.grow(grid, config)
        assert one.day_log == state.day_log
        assert one.absorbed == state.absorbed
        assert np.array_equal(one.occupancy, state.occupancy)
        assert np.array_equal(growth.extract_prs(one), reference.extract_prs(state))


def hull_oracle(occupancy):
    points = [(c + 1, r + 1) for r, c in np.argwhere(occupancy)]
    return reference.polygon_area(reference.convex_hull(points))


@pytest.fixture(scope="module")
def reference_rows():
    dataset = generate_synthetic(40, 2000, seed=1)
    base = extract_base_matrix(dataset)
    labels = np.array(dataset.labels)
    return base, labels, fit_prep(base, labels)


def test_reference_set_matches_per_row(reference_rows):
    base, _, artifacts = reference_rows
    assert_batch_matches_rows(base, artifacts)


def test_held_out_rows_outside_fitted_bounds(reference_rows):
    base, labels, _ = reference_rows
    train = np.arange(0, len(base), 2)
    artifacts = fit_prep(base[train], labels[train])
    lo, hi = artifacts.feature_bounds[:, 0], artifacts.feature_bounds[:, 1]
    rng = np.random.default_rng(7)
    # two thirds of the draws fall outside the fitted bounds, so bins clamp
    wide = lo + (hi - lo) * rng.uniform(-1.0, 2.0, size=(120, len(lo)))
    assert ((wide < lo) | (wide > hi)).any(axis=1).all()
    assert_batch_matches_rows(np.vstack([base, wide]), artifacts)


@pytest.mark.parametrize("m", [1, _PRS_BLOCK - 1, _PRS_BLOCK, _PRS_BLOCK + 1])
def test_block_boundary_sizes(reference_rows, m):
    base, _, artifacts = reference_rows
    rng = np.random.default_rng(m)
    rows = base[rng.integers(0, len(base), size=m)]
    rows = rows * rng.uniform(0.9, 1.1, size=rows.shape)
    assert_batch_matches_rows(rows, artifacts)


def test_constant_column_gives_degenerate_bounds(reference_rows):
    base, labels, _ = reference_rows
    values = base.copy()
    values[:, 4] = 2.5
    artifacts = fit_prep(values, labels)
    assert (artifacts.soil_bounds[:, 0] == artifacts.soil_bounds[:, 1]).any()
    held_out = values[:10].copy()
    held_out[:, 4] = [-1.0, 0.0, 2.5, 9.0, 1e6, -1e6, 2.5, 3.0, 2.0, 2.5]
    assert_batch_matches_rows(np.vstack([values, held_out]), artifacts)


@pytest.mark.parametrize(
    "depth, fill_mode",
    [(SOIL_DEPTH, "onehot"), (9, "stacked"), (9, "onehot"), (22, "stacked")],
)
def test_fill_mode_and_depth(reference_rows, depth, fill_mode):
    base, _, artifacts = reference_rows
    radicle = ((1, 6), (depth, 1))
    assert_batch_matches_rows(
        base,
        artifacts,
        PipelineConfig(
            soil=SoilConfig(depth=depth, fill_mode=fill_mode),
            growth=GrowthConfig(radicle=radicle, division_limit=3),
        ),
    )


def test_shallow_soil_with_default_growth(reference_rows):
    # the growth grid takes its depth from the soil, so no growth setting
    # has to repeat it
    base, _, artifacts = reference_rows
    config = PipelineConfig(soil=SoilConfig(depth=9))
    assert_batch_matches_rows(base, artifacts, config)


@pytest.mark.parametrize("cell", [(10, 1), (1, 13)])
def test_config_rejects_radicle_outside_the_soil(cell):
    with pytest.raises(ValueError, match="outside"):
        PipelineConfig(soil=SoilConfig(depth=9), growth=GrowthConfig(radicle=(cell,)))


def test_criterion_04_grids():
    # the grids, zero mask and division limits of acceptance criterion 04
    rng = np.random.default_rng(404)
    grids, limits = [], []
    for trial in range(100):
        grid = rng.uniform(0.0, 4.0, size=(15, 12))
        grid[rng.uniform(size=grid.shape) < 0.3] = 0.0
        grids.append(grid)
        limits.append(1 + trial % 3)
    grids = np.array(grids)
    limits = np.array(limits)
    for limit in (1, 2, 3):
        for days in (0, 4, 10):
            for occupy_zero in (True, False):
                config = GrowthConfig(
                    days=days, division_limit=limit, occupy_zero=occupy_zero
                )
                assert_growth_matches(grids[limits == limit], config)


def test_days_that_outlast_a_full_grid(reference_rows):
    # a 2 x 12 soil fills long before 40 days: the day log stops short
    base, _, artifacts = reference_rows
    config = PipelineConfig(
        soil=SoilConfig(depth=2), growth=GrowthConfig(days=40, division_limit=2)
    )
    assert_batch_matches_rows(base, artifacts, config)
    bins = bin_indices(transform_rows(base[:20], artifacts), artifacts.soil_bounds, 2)
    grids = nutrient_grids(bins, config.soil)
    assert_growth_matches(grids, config.growth)
    days_run = [len(growth.grow(grid, config.growth).day_log) for grid in grids]
    assert max(days_run) < 40


cells = st.tuples(st.integers(1, SOIL_DEPTH), st.integers(1, SOIL_WIDTH))


@settings(max_examples=120, deadline=None)
@given(
    grids=arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.just(SOIL_DEPTH), st.just(SOIL_WIDTH)),
        elements=st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0]),
    ),
    division_limit=st.integers(1, 4),
    days=st.integers(0, 24),
    occupy_zero=st.booleans(),
    radicle=st.lists(cells, min_size=1, max_size=4),
)
def test_quantized_grids_match_per_row_growth(
    grids, division_limit, days, occupy_zero, radicle
):
    config = GrowthConfig(
        days=days,
        division_limit=division_limit,
        occupy_zero=occupy_zero,
        radicle=tuple(radicle),
    )
    assert_growth_matches(grids, config)


@settings(max_examples=150, deadline=None)
@given(
    occupancy=arrays(
        bool,
        st.tuples(st.integers(1, 8), st.integers(1, SOIL_WIDTH)),
        elements=st.booleans(),
    ),
)
def test_hull_area_matches_polygon_oracle(occupancy):
    assert hull_areas(occupancy[None])[0] == hull_oracle(occupancy)


def test_hull_area_on_random_and_collinear_occupancies():
    rng = np.random.default_rng(11)
    stack = [
        rng.uniform(size=(SOIL_DEPTH, SOIL_WIDTH)) < p
        for p in (0.02, 0.05, 0.1, 0.3, 0.9)
        for _ in range(40)
    ]
    lines = []
    # (start row, start col, row step, col step) of each collinear set
    steps = [
        (0, 0, 1, 1),
        (3, 2, 0, 1),
        (0, 5, 1, 0),
        (1, 1, 2, 1),
        (14, 0, -1, 2),
        (2, 10, 3, -2),
    ]
    for r0, c0, dr, dc in steps:
        grid = np.zeros((SOIL_DEPTH, SOIL_WIDTH), dtype=bool)
        r, c = r0, c0
        while 0 <= r < SOIL_DEPTH and 0 <= c < SOIL_WIDTH:
            grid[r, c] = True
            r, c = r + dr, c + dc
        lines.append(grid)
    single = np.zeros((SOIL_DEPTH, SOIL_WIDTH), dtype=bool)
    single[7, 3] = True
    empty = np.zeros_like(single)
    full = np.ones_like(single)
    stack = np.array(stack + lines + [single, empty, full])
    got = hull_areas(stack)
    want = np.array([hull_oracle(grid) for grid in stack])
    assert np.array_equal(got, want)
    assert np.all(got[len(stack) - len(lines) - 3 : -1] == 0.0)
    assert got[-1] == (SOIL_DEPTH - 1) * (SOIL_WIDTH - 1)
