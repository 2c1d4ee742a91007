"""Fitted prep artifacts and the base-row -> soil -> root feature chain."""

import re

import numpy as np
import pytest

from prs.pipeline import (
    PrepArtifacts,
    extract_base_matrix,
    extract_spectral_matrix,
    fit_prep,
    nutrients_for_row,
    prs_features,
    soil_for_row,
    transform_rows,
)
from prs.soil import SOIL_DEPTH, SOIL_WIDTH


@pytest.fixture(scope="module")
def fitted(small_synth):
    base = extract_base_matrix(small_synth)
    return base, fit_prep(base, small_synth.labels)


def test_fit_prep_shapes_and_permutation(fitted):
    base, artifacts = fitted
    assert artifacts.feature_bounds.tolist() == [
        [lo, hi] for lo, hi in zip(base.min(axis=0), base.max(axis=0))
    ]
    assert artifacts.feature_bounds.shape == (12, 2)
    assert artifacts.soil_bounds.shape == (12, 2)
    assert sorted(artifacts.order.tolist()) == list(range(12))
    assert artifacts.gains.shape == (12,)
    assert np.all(artifacts.gains >= 0.0)


def test_best_column_lands_at_grid_center(fitted):
    _, artifacts = fitted
    ranked = sorted(range(12), key=lambda j: (-artifacts.gains[j], j))
    assert artifacts.order[5] == ranked[0]
    assert artifacts.order[6] == ranked[1]


def test_transform_keeps_training_rows_in_unit_box(fitted):
    base, artifacts = fitted
    transformed = transform_rows(base, artifacts)
    assert transformed.shape == base.shape
    assert transformed.min() >= 0.0
    assert transformed.max() <= 1.0


def test_transform_accepts_single_row(fitted):
    base, artifacts = fitted
    one = transform_rows(base[3], artifacts)
    assert one.shape == (1, 12)
    assert np.array_equal(one[0], transform_rows(base, artifacts)[3])


def test_soil_and_nutrients_for_row(fitted):
    base, artifacts = fitted
    soil = soil_for_row(base[0], artifacts)
    assert soil.grid.shape == (SOIL_DEPTH, SOIL_WIDTH)
    assert set(np.unique(soil.grid)) <= {0.0, 1.0}
    nutrients = nutrients_for_row(base[0], artifacts)
    assert nutrients.grid.shape == soil.grid.shape
    assert np.all(nutrients.grid >= 0.0)


def test_prs_features_shape_and_determinism(fitted):
    base, artifacts = fitted
    a = prs_features(base, artifacts)
    b = prs_features(base, artifacts)
    assert a.shape == (len(base), 2)
    assert np.array_equal(a, b)
    assert np.all(a[:, 0] >= 0.0)  # NF accumulates non-negative terms
    assert np.all((a[:, 1] >= 0.0) & (a[:, 1] <= 154.0))


def test_prs_features_rejects_bad_shapes_by_name(fitted):
    base, artifacts = fitted
    for bad in (base[0], base[:, :11], base[None]):
        with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape}")):
            prs_features(bad, artifacts)
    assert prs_features(np.zeros((0, 12)), artifacts).shape == (0, 2)


def test_prs_features_takes_runs_of_artifacts(fitted):
    base, artifacts = fitted
    other = fit_prep(base[::-1][:8], np.array(["A", "B"] * 4))
    stacked = prs_features(base, [(artifacts, 5), (other, 0), (other, len(base) - 5)])
    assert np.array_equal(stacked[:5], prs_features(base[:5], artifacts))
    assert np.array_equal(stacked[5:], prs_features(base[5:], other))


@pytest.mark.parametrize("counts", [(5, 6), (5, 8), (13,), ()])
def test_prs_features_rejects_runs_that_do_not_cover_the_rows(fitted, counts):
    base, artifacts = fitted
    assert len(base) == 12
    runs = [(artifacts, n) for n in counts]
    message = f"the artifact runs cover {sum(counts)} rows, but the base matrix has 12"
    with pytest.raises(ValueError, match=re.escape(message)):
        prs_features(base, runs)
    with pytest.raises(ValueError, match=re.escape("counts must be >= 0, got [13, -1]")):
        prs_features(base, [(artifacts, 13), (artifacts, -1)])


def test_prep_artifacts_validation():
    with pytest.raises(ValueError, match="permutation"):
        PrepArtifacts(
            feature_bounds=np.zeros((2, 2)),
            gains=np.zeros(2),
            order=np.array([0, 0]),
            soil_bounds=np.zeros((2, 2)),
        )
    with pytest.raises(ValueError, match="bounds"):
        PrepArtifacts(
            feature_bounds=np.zeros((3, 2)),
            gains=np.zeros(2),
            order=np.array([0, 1]),
            soil_bounds=np.zeros((2, 2)),
        )


def test_extract_base_matrix_row_per_segment(small_synth):
    base = extract_base_matrix(small_synth)
    assert isinstance(base, np.ndarray)
    assert base.shape == (len(small_synth.segments), 12)
    assert base.dtype == np.float64


def test_extract_spectral_matrix_row_per_segment(small_synth):
    values = extract_spectral_matrix(small_synth)
    assert values.shape == (len(small_synth.segments), 2)
    assert np.all(values >= 0.0)
    # the noisier class should not collapse to zeros
    assert values[:, 0].max() > 0.0
