"""Fitted prep artifacts and the base-row -> soil -> root feature chain."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prs.dataset import LabeledDataset, SignalSegment, generate_synthetic
from prs.feature_prep import MIN_SAMPLES, apply_bounds, column_bounds
from prs import pipeline
from prs.pipeline import (
    PrepArtifacts,
    extract_base_matrix,
    extract_spectral_matrix,
    fit_prep,
    prs_features,
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
    one = transform_rows(base[3:4], artifacts)
    assert one.shape == (1, 12)
    assert np.array_equal(one[0], transform_rows(base, artifacts)[3])


def test_one_row_chain_matches_prs_features(fitted):
    """The one-row names that stay on ``prs.pipeline`` pass plain arrays,
    and chain to the row ``prs_features`` gives."""
    base, artifacts = fitted
    sorted_row = transform_rows(base[:1], artifacts)[0]
    soil = pipeline.build_discrete_soil(sorted_row, artifacts.soil_bounds)
    assert soil.shape == (SOIL_DEPTH, SOIL_WIDTH)
    assert set(np.unique(soil)) <= {0.0, 1.0}
    nutrients = pipeline.convolve_soil(soil)
    assert nutrients.shape == soil.shape
    assert np.all(nutrients >= 0.0)
    row = pipeline.extract_prs(pipeline.grow(nutrients))
    assert np.array_equal(row, prs_features(base[:1], artifacts)[0])


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
        )
    with pytest.raises(ValueError, match="bounds"):
        PrepArtifacts(
            feature_bounds=np.zeros((3, 2)),
            gains=np.zeros(2),
            order=np.array([0, 1]),
        )


@st.composite
def prep_blocks(draw):
    """Raw training blocks whose columns are constant, quantized (ties) or
    spread, scaled by 1e-300 to 1e300 around a shift; a tiny scale on a
    nonzero shift rounds to a constant column as well."""
    m = draw(st.integers(MIN_SAMPLES, 24))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        scale = 10.0 ** draw(st.integers(-300, 300))
        shift = draw(st.sampled_from([0.0, 1.0, -7.5, 1e10]))
        kind = draw(st.sampled_from(["constant", "quantized", "spread"]))
        if kind == "constant":
            steps = [draw(st.integers(-3, 3))] * m
        elif kind == "quantized":
            steps = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        else:
            steps = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
        columns.append(shift + scale * np.array(steps, dtype=np.float64))
    return np.column_stack(columns)


@settings(max_examples=200, deadline=None)
@given(prep_blocks())
def test_soil_bounds_equal_the_bounds_of_the_scaled_ordered_block(values):
    # the bounds as fit_prep once fitted them, from the scaled training rows
    artifacts = fit_prep(values, [("A", "B")[i % 2] for i in range(len(values))])
    scaled = apply_bounds(values, column_bounds(values))
    want = column_bounds(scaled[:, artifacts.order])
    got = artifacts.soil_bounds
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("name", ["tone-5x128", "tone-40x2000", "overlap"])
def test_reversing_every_segment_leaves_the_feature_rows(name, request):
    """Every base column and MaxPSD/MedPSD is a whole-segment statistic
    that ignores time order, so reversing each segment's samples leaves
    the rows unchanged up to rounding. The match is not bit for bit: the
    sums behind the means, moments, absolute differences and FFT run
    over the samples in the other order, which rounds otherwise. So each
    column is compared within 1e-12 of its largest magnitude (measured:
    at most 4e-15 of it on these datasets)."""
    dataset = {
        "tone-5x128": lambda: generate_synthetic(5, 128, 1),
        "tone-40x2000": lambda: generate_synthetic(40, 2000, 1),
        "overlap": lambda: request.getfixturevalue("overlap_dataset"),
    }[name]()
    reversed_segments = tuple(
        SignalSegment(s.id, s.label, s.sampling_rate, s.samples[::-1])
        for s in dataset.segments
    )
    backwards = LabeledDataset(name=dataset.name, segments=reversed_segments)
    for extract in (extract_base_matrix, extract_spectral_matrix):
        rows, reversed_rows = extract(dataset), extract(backwards)
        scale = np.max(np.abs(rows), axis=0)
        assert np.all(np.abs(reversed_rows - rows) <= 1e-12 * scale)
