"""Normalization, 2-means splitting, information gain, center-out sort."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prs.errors import DegenerateDataError
from prs.feature_prep import (
    FeatureMatrix,
    SplitResult,
    apply_bounds,
    center_out_positions,
    column_bounds,
    entropy,
    information_gain,
    kmeans_binary_split,
    minmax_normalize,
    rank_features,
    sort_center_out,
)

# -- oracles -----------------------------------------------------------------


def oracle_entropy(labels):
    counts = Counter(labels)
    total = len(labels)
    return -sum(c / total * math.log2(c / total) for c in counts.values())


def oracle_gain(labels, assignment):
    total = len(labels)
    h = oracle_entropy(labels)
    for s in (1, 2):
        subset = [lab for lab, a in zip(labels, assignment) if a == s]
        if subset:
            h -= len(subset) / total * oracle_entropy(subset)
    return h


def oracle_best_threshold_sse(values):
    """Global 1D 2-means optimum by scanning every threshold split."""
    v = sorted(values)
    best = math.inf
    for i in range(1, len(v)):
        left, right = v[:i], v[i:]
        ml = sum(left) / len(left)
        mr = sum(right) / len(right)
        sse = sum((x - ml) ** 2 for x in left) + sum((x - mr) ** 2 for x in right)
        best = min(best, sse)
    return best


# -- min-max normalization ---------------------------------------------------


def make_matrix(values, labels=None):
    values = np.asarray(values, dtype=np.float64)
    if labels is None:
        labels = tuple("A" if i % 2 == 0 else "B" for i in range(values.shape[0]))
    names = tuple(f"f{j}" for j in range(values.shape[1]))
    return FeatureMatrix(values=values, names=names, labels=tuple(labels))


def test_minmax_examples():
    fm = make_matrix([[0.0, 7.0], [5.0, 7.0], [10.0, 7.0], [2.5, 7.0]])
    norm = minmax_normalize(fm)
    assert norm.values[:, 0].tolist() == [0.0, 0.5, 1.0, 0.25]
    assert norm.values[:, 1].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert norm.degenerate == (False, True)
    assert norm.bounds.tolist() == [[0.0, 10.0], [7.0, 7.0]]


def test_apply_bounds_maps_outside_unit_interval_for_new_data():
    bounds = np.array([[0.0, 10.0]])
    out = apply_bounds(np.array([[-5.0], [15.0]]), bounds)
    assert out[0, 0] == -0.5
    assert out[1, 0] == 1.5


def test_minmax_idempotent():
    rng = np.random.default_rng(5)
    fm = make_matrix(rng.normal(size=(8, 3)))
    once = minmax_normalize(fm)
    twice = minmax_normalize(
        FeatureMatrix(values=once.values, names=fm.names, labels=fm.labels)
    )
    assert np.allclose(once.values, twice.values, atol=1e-15)


def test_matrix_validation():
    with pytest.raises(ValueError, match="at least 4"):
        make_matrix([[1.0], [2.0]])
    with pytest.raises(ValueError, match="NaN"):
        make_matrix([[1.0], [2.0], [math.nan], [4.0]])
    with pytest.raises(ValueError, match="names"):
        FeatureMatrix(
            values=np.zeros((4, 2)), names=("a",), labels=("A", "B", "A", "B")
        )


# -- 2-means split -----------------------------------------------------------


def test_kmeans_clear_gap():
    split = kmeans_binary_split([0.0, 0.1, 0.9, 1.0])
    assert split.assignment.tolist() == [1, 1, 2, 2]
    assert split.centers == (0.05, 0.95)
    assert split.sse == pytest.approx(0.01, abs=1e-15)


def test_kmeans_two_points_zero_sse():
    split = kmeans_binary_split([0.0, 1.0])
    assert split.sse == 0.0
    assert split.assignment.tolist() == [1, 2]


def test_kmeans_constant_column_rejected():
    with pytest.raises(DegenerateDataError, match="identical"):
        kmeans_binary_split([3.0, 3.0, 3.0, 3.0])


def test_kmeans_finds_global_optimum_on_small_columns():
    rng = np.random.default_rng(17)
    for _ in range(25):
        v = np.round(rng.uniform(0, 1, size=rng.integers(4, 10)), 2)
        if np.unique(v).size < 2:
            continue
        split = kmeans_binary_split(v)
        assert split.sse == pytest.approx(
            oracle_best_threshold_sse(v.tolist()), abs=1e-12
        )


def test_kmeans_deterministic():
    v = np.random.default_rng(2).normal(size=40)
    a = kmeans_binary_split(v)
    b = kmeans_binary_split(v)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.centers == b.centers and a.sse == b.sse


def test_kmeans_centers_ordered_and_sets_nonempty():
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = rng.normal(size=30)
        split = kmeans_binary_split(v)
        assert split.centers[0] < split.centers[1]
        assert {1, 2} == set(np.unique(split.assignment))
        # set 1 belongs to the lower center
        assert v[split.assignment == 1].mean() == pytest.approx(split.centers[0])


# -- entropy and information gain --------------------------------------------


def test_entropy_examples():
    assert entropy(["C1"] * 8 + ["C2"] * 8) == 1.0
    assert entropy(["C1"] * 16) == 0.0
    assert entropy(["C1"] * 4 + ["C2"] * 12) == pytest.approx(0.811278, abs=1e-6)


def test_entropy_empty_rejected():
    with pytest.raises(ValueError):
        entropy([])


def test_gain_worked_example():
    labels = ["C1", "C1", "C1", "C2", "C2", "C2"]
    split = SplitResult(
        assignment=np.array([1, 1, 2, 2, 2, 2]), centers=(0.0, 1.0), sse=0.0
    )
    gain = information_gain([0.0] * 6, labels, split=split)
    assert gain == pytest.approx(1.0 - (2 / 6) * 0.0 - (4 / 6) * 0.811278, abs=1e-6)
    assert gain == pytest.approx(0.459148, abs=1e-6)


def test_gain_matches_oracle_on_all_patterns_of_small_column():
    # every binary labeling of 6 rows against a fixed clear split
    split = SplitResult(
        assignment=np.array([1, 1, 1, 2, 2, 2]), centers=(0.0, 1.0), sse=0.0
    )
    col = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    for bits in product("12", repeat=6):
        labels = [f"C{b}" for b in bits]
        got = information_gain(col, labels, split=split)
        assert got == pytest.approx(oracle_gain(labels, split.assignment), abs=1e-12)


def test_gain_length_mismatch():
    split = SplitResult(assignment=np.array([1, 2]), centers=(0.0, 1.0), sse=0.0)
    with pytest.raises(ValueError, match="labels"):
        information_gain([0.0, 1.0], ["A"], split=split)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(["C1", "C2"]), min_size=2, max_size=24),
    st.integers(min_value=0, max_value=2**24 - 1),
)
def test_gain_bounds_property(labels, pattern):
    n = len(labels)
    assignment = np.array([1 + ((pattern >> i) & 1) for i in range(n)])
    split = SplitResult(assignment=assignment, centers=(0.0, 1.0), sse=0.0)
    gain = information_gain([0.0] * n, labels, split=split)
    assert -1e-12 <= gain <= entropy(labels) + 1e-12


# -- ranking and center-out sort ---------------------------------------------


def test_rank_features_scores_degenerate_columns_zero():
    values = np.array(
        [
            [0.0, 7.0],
            [0.1, 7.0],
            [0.9, 7.0],
            [1.0, 7.0],
        ]
    )
    fm = FeatureMatrix(values=values, names=("g", "c"), labels=("A", "A", "B", "B"))
    gains = rank_features(minmax_normalize(fm))
    assert gains[0] == pytest.approx(1.0)
    assert gains[1] == 0.0


def test_center_out_positions_n12():
    assert center_out_positions(12) == (5, 6, 4, 7, 3, 8, 2, 9, 1, 10, 0, 11)


def test_sort_places_top_three_columns():
    # strictly decreasing gains: original col j has rank j
    rng = np.random.default_rng(0)
    fm = make_matrix(rng.uniform(size=(6, 12)))
    norm = minmax_normalize(fm)
    gains = np.linspace(1.0, 0.1, 12)
    sorted_fm = sort_center_out(norm, gains)
    # highest gain at 1-based position 6, next at 7, third at 5
    assert sorted_fm.order[5] == 0
    assert sorted_fm.order[6] == 1
    assert sorted_fm.order[4] == 2
    assert sorted_fm.names[5] == "f0"


def test_sort_tie_breaks_toward_lower_index():
    rng = np.random.default_rng(1)
    fm = make_matrix(rng.uniform(size=(4, 12)))
    norm = minmax_normalize(fm)
    sorted_fm = sort_center_out(norm, np.zeros(12))
    positions = center_out_positions(12)
    for rank, pos in enumerate(positions):
        assert sorted_fm.order[pos] == rank


def test_sort_permutes_values_names_and_bounds_consistently():
    rng = np.random.default_rng(4)
    fm = make_matrix(rng.uniform(1, 3, size=(5, 7)))
    norm = minmax_normalize(fm)
    gains = rng.uniform(size=7)
    sorted_fm = sort_center_out(norm, gains)
    assert sorted(sorted_fm.order) == list(range(7))
    for pos, col in enumerate(sorted_fm.order):
        assert sorted_fm.names[pos] == norm.names[col]
        assert np.array_equal(sorted_fm.values[:, pos], norm.values[:, col])
        assert np.array_equal(sorted_fm.bounds[pos], norm.bounds[col])


def test_sort_rejects_wrong_gain_count():
    fm = make_matrix(np.random.default_rng(0).uniform(size=(4, 3)))
    with pytest.raises(ValueError):
        sort_center_out(minmax_normalize(fm), np.zeros(5))


def test_column_bounds_shape():
    b = column_bounds(np.array([[1.0, -2.0], [3.0, -5.0]]))
    assert b.tolist() == [[1.0, 3.0], [-5.0, -2.0]]
