"""Normalization, 2-means splitting, information gain, center-out sort.

``rank_features`` is the one split-and-gain path. Its split is checked
through ``_two_means_thresholds``, its gain on 0.0/1.0 columns whose
exact split is a given set assignment. The normalization and the sort
are checked through ``fit_prep``, which chains them on plain arrays; the
sort tests fix the gains by replacing ``prs.pipeline.rank_features``,
the name ``fit_prep`` calls.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prs.feature_prep import (
    MIN_SAMPLES,
    _two_means_thresholds,
    apply_bounds,
    center_out_positions,
    column_bounds,
    rank_features,
)
from prs.pipeline import fit_prep, transform_rows

from conftest import exact_split, split_sse
from reference import list_scan_gain, oracle_entropy

# -- oracles -----------------------------------------------------------------


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


def gain_of_assignment(labels, assignment):
    """``rank_features`` on the 0.0/1.0 column whose exact split is the
    assignment (a one-set assignment is a constant column: gain 0)."""
    column = np.asarray(assignment, dtype=np.float64) - 1.0
    return rank_features(column[:, None], labels)[0]


# -- min-max normalization ---------------------------------------------------


def alternating_labels(m):
    return tuple("A" if i % 2 == 0 else "B" for i in range(m))


def minmax(values):
    return apply_bounds(values, column_bounds(values))


def test_minmax_examples():
    values = np.array([[0.0, 7.0], [5.0, 7.0], [10.0, 7.0], [2.5, 7.0]])
    norm = minmax(values)
    assert norm[:, 0].tolist() == [0.0, 0.5, 1.0, 0.25]
    assert norm[:, 1].tolist() == [0.0, 0.0, 0.0, 0.0]
    artifacts = fit_prep(values, alternating_labels(4))
    assert artifacts.feature_bounds.tolist() == [[0.0, 10.0], [7.0, 7.0]]
    # the constant column is degenerate: gain 0, scaled to all 0
    assert artifacts.gains[1] == 0.0
    pos = artifacts.order.tolist().index(1)
    assert transform_rows(values, artifacts)[:, pos].tolist() == [0.0] * 4


def test_apply_bounds_maps_outside_unit_interval_for_new_data():
    bounds = np.array([[0.0, 10.0]])
    out = apply_bounds(np.array([[-5.0], [15.0]]), bounds)
    assert out[0, 0] == -0.5
    assert out[1, 0] == 1.5


def test_minmax_idempotent():
    rng = np.random.default_rng(5)
    once = minmax(rng.normal(size=(8, 3)))
    twice = minmax(once)
    assert np.allclose(once, twice, atol=1e-15)
    # fitted on normalized rows, the transform changes nothing
    artifacts = fit_prep(once, alternating_labels(8))
    assert np.allclose(
        transform_rows(once, artifacts), once[:, artifacts.order], atol=1e-15
    )


def test_matrix_validation():
    labels = alternating_labels(4)
    with pytest.raises(ValueError, match="at least 4"):
        fit_prep([[1.0], [2.0]], labels[:2])
    with pytest.raises(ValueError, match="NaN"):
        fit_prep([[1.0], [2.0], [math.nan], [4.0]], labels)
    with pytest.raises(ValueError, match="4 rows but 3 labels"):
        fit_prep(np.zeros((4, 2)), labels[:3])
    with pytest.raises(ValueError, match="2D"):
        fit_prep(np.zeros(4), labels)


# -- 2-means split -----------------------------------------------------------


def test_kmeans_clear_gap():
    v = np.array([0.0, 0.1, 0.9, 1.0])
    assert _two_means_thresholds(np.sort(v)[:, None]).tolist() == [0.1]
    assignment = exact_split(v)
    assert assignment.tolist() == [1, 1, 2, 2]
    assert (v[assignment == 1].mean(), v[assignment == 2].mean()) == (0.05, 0.95)
    assert split_sse(v, assignment) == pytest.approx(0.01, abs=1e-15)


def test_kmeans_two_points_zero_sse():
    assignment = exact_split([0.0, 1.0])
    assert assignment.tolist() == [1, 2]
    assert split_sse([0.0, 1.0], assignment) == 0.0


def test_kmeans_finds_global_optimum_on_small_columns():
    rng = np.random.default_rng(17)
    for _ in range(25):
        v = np.round(rng.uniform(0, 1, size=rng.integers(4, 10)), 2)
        if np.unique(v).size < 2:
            continue
        assert split_sse(v, exact_split(v)) == pytest.approx(
            oracle_best_threshold_sse(v.tolist()), abs=1e-12
        )


def test_kmeans_deterministic():
    block = np.random.default_rng(2).normal(size=(40, 3))
    labels = ["A", "B"] * 20
    a = rank_features(block, labels)
    b = rank_features(block, labels)
    assert a.tobytes() == b.tobytes()
    ordered = np.sort(block, axis=0)
    assert np.array_equal(_two_means_thresholds(ordered), _two_means_thresholds(ordered))


def test_kmeans_centers_ordered_and_sets_nonempty():
    rng = np.random.default_rng(8)
    block = np.sort(rng.normal(size=(30, 10)), axis=0)
    for v, threshold in zip(block.T, _two_means_thresholds(block)):
        # set 1 (<= threshold) and set 2 are both non-empty, set 1 below
        assert v[0] <= threshold < v[-1]
        assert v[v <= threshold].mean() < v[v > threshold].mean()


# -- entropy and information gain --------------------------------------------


def test_entropy_examples():
    # a split that separates the classes gains the whole label entropy
    assert gain_of_assignment(["C1"] * 8 + ["C2"] * 8, [1] * 8 + [2] * 8) == 1.0
    assert gain_of_assignment(["C1"] * 16, [1] * 8 + [2] * 8) == 0.0
    gain = gain_of_assignment(["C1"] * 4 + ["C2"] * 12, [1] * 4 + [2] * 12)
    assert gain == pytest.approx(0.811278, abs=1e-6)


def test_entropy_empty_rejected():
    with pytest.raises(ValueError, match="at least one label"):
        rank_features(np.zeros((0, 2)), [])


@pytest.mark.parametrize("n_labels", [1, 3, 5])
def test_rank_features_needs_one_label_per_row(n_labels):
    # one label code broadcast over four rows once gave a gain of -8.0
    labels = ["A", "B", "A", "B", "A"][:n_labels]
    with pytest.raises(ValueError, match=f"4 rows but {n_labels} labels"):
        rank_features(np.array([[0.0], [1.0], [0.5], [0.2]]), labels)


def test_gain_worked_example():
    labels = ["C1", "C1", "C1", "C2", "C2", "C2"]
    gain = gain_of_assignment(labels, [1, 1, 2, 2, 2, 2])
    assert gain == pytest.approx(1.0 - (2 / 6) * 0.0 - (4 / 6) * 0.811278, abs=1e-6)
    assert gain == pytest.approx(0.459148, abs=1e-6)


def test_gain_matches_oracle_on_all_patterns_of_small_column():
    # every binary labeling of 6 rows against a fixed clear split
    assignment = [1, 1, 1, 2, 2, 2]
    for bits in product("12", repeat=6):
        labels = [f"C{b}" for b in bits]
        got = gain_of_assignment(labels, assignment)
        assert got == pytest.approx(oracle_gain(labels, assignment), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(["C1", "C2"]), min_size=2, max_size=24),
    st.integers(min_value=0, max_value=2**24 - 1),
)
def test_gain_bounds_property(labels, pattern):
    assignment = [1 + ((pattern >> i) & 1) for i in range(len(labels))]
    gain = gain_of_assignment(labels, assignment)
    assert -1e-12 <= gain <= oracle_entropy(labels) + 1e-12
    assert gain == list_scan_gain(labels, assignment)


def test_gains_equal_list_scan_oracle_on_random_folds():
    # bit for bit, so counting by class codes moves no report; few distinct
    # values give tied rows, and some folds have single-class sets
    rng = np.random.default_rng(20)
    for _ in range(200):
        m = int(rng.integers(MIN_SAMPLES, 121))
        values = rng.integers(0, int(rng.integers(2, 6)), size=(m, 12)).astype(float)
        labels = ["P" if u else "N" for u in rng.random(m) < rng.uniform(0.1, 0.9)]
        norm = minmax(values)
        gains = rank_features(norm, labels)
        for j in range(12):
            if norm[:, j].min() == norm[:, j].max():
                assert gains[j] == 0.0
                continue
            assert gains[j] == list_scan_gain(labels, exact_split(norm[:, j]))


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
    gains = rank_features(minmax(values), ("A", "A", "B", "B"))
    assert gains[0] == pytest.approx(1.0)
    assert gains[1] == 0.0


def test_center_out_positions_n12():
    assert center_out_positions(12) == (5, 6, 4, 7, 3, 8, 2, 9, 1, 10, 0, 11)


def fit_with_gains(monkeypatch, values, gains):
    """fit_prep with the ranking replaced by fixed gains."""
    monkeypatch.setattr("prs.pipeline.rank_features", lambda norm, labels: gains)
    return fit_prep(values, alternating_labels(len(values)))


def test_sort_places_top_three_columns(monkeypatch):
    # strictly decreasing gains: original col j has rank j
    values = np.random.default_rng(0).uniform(size=(6, 12))
    artifacts = fit_with_gains(monkeypatch, values, np.linspace(1.0, 0.1, 12))
    # highest gain at 1-based position 6, next at 7, third at 5
    assert artifacts.order[5] == 0
    assert artifacts.order[6] == 1
    assert artifacts.order[4] == 2
    assert np.array_equal(transform_rows(values, artifacts)[:, 5], minmax(values)[:, 0])


def test_sort_tie_breaks_toward_lower_index():
    # twelve rescaled copies of one column: every gain is the same
    column = np.array([0.0, 0.2, 0.9, 1.0])
    values = np.outer(column, np.arange(1.0, 13.0)) + np.arange(12.0)
    artifacts = fit_prep(values, ("A", "A", "B", "B"))
    assert len(set(artifacts.gains.tolist())) == 1
    for rank, pos in enumerate(center_out_positions(12)):
        assert artifacts.order[pos] == rank


def test_sort_permutes_values_and_bounds_consistently(monkeypatch):
    rng = np.random.default_rng(4)
    values = rng.uniform(1, 3, size=(5, 7))
    values[:, 2] = 2.0  # a degenerate column, so the bounds differ
    artifacts = fit_with_gains(monkeypatch, values, rng.uniform(size=7))
    norm = minmax(values)
    norm_bounds = column_bounds(norm)
    sorted_values = transform_rows(values, artifacts)
    assert sorted(artifacts.order.tolist()) == list(range(7))
    for pos, col in enumerate(artifacts.order):
        assert np.array_equal(sorted_values[:, pos], norm[:, col])
        assert np.array_equal(column_bounds(sorted_values)[pos], norm_bounds[col])


def test_column_bounds_shape():
    b = column_bounds(np.array([[1.0, -2.0], [3.0, -5.0]]))
    assert b.tolist() == [[1.0, 3.0], [-5.0, -2.0]]
