"""The exact 1D 2-means split against a brute-force scan and a frozen Lloyd.

``kmeans_binary_split`` scores every cut of the sorted column from prefix
sums. Two references check it:

* a brute-force scan in exact rational arithmetic over every cut between
  distinct values (the optimum of 1D 2-means is a threshold split);
* a frozen copy of the ranking split it replaced: Lloyd 2-means, best of
  25 seeded restarts by within-cluster SSE, one child seed per column.
  The exact split may never be worse, and where the SSEs agree the two
  must assign every row to the same set.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prs.dataset import generate_synthetic
from prs.errors import DegenerateDataError
from prs.evaluation import stratified_split
from prs.feature_prep import (
    apply_bounds,
    column_bounds,
    information_gain,
    kmeans_binary_split,
    rank_features,
)
from prs.pipeline import extract_base_matrix

# -- frozen reference: best-of-restarts Lloyd -------------------------------

_RESTARTS = 25
_MAX_LLOYD_ITER = 100


def reference_lloyd_split(values, seed, restarts=_RESTARTS):
    """Returns (assignment in {1, 2}, sse) of the best restart."""
    v = np.asarray(values, dtype=np.float64).ravel()
    distinct = np.unique(v)
    rng = np.random.default_rng(seed)
    best_sse = math.inf
    best_assign = None
    best_centers = None
    for _ in range(restarts):
        centers = rng.choice(distinct, size=2, replace=False)
        for _ in range(_MAX_LLOYD_ITER):
            # tie (equidistant point) -> first center
            assign = (np.abs(v - centers[1]) < np.abs(v - centers[0])).astype(np.int64)
            new_centers = centers.copy()
            for c in (0, 1):
                members = v[assign == c]
                if members.size:
                    new_centers[c] = members.mean()
            if np.array_equal(new_centers, centers):
                break
            centers = new_centers
        assign = (np.abs(v - centers[1]) < np.abs(v - centers[0])).astype(np.int64)
        if 0 < int(assign.sum()) < v.size:
            sse = float(np.sum((v - centers[assign]) ** 2))
            if sse < best_sse:
                best_sse = sse
                best_assign = assign
                best_centers = centers
    lo = 0 if best_centers[0] < best_centers[1] else 1
    return np.where(best_assign == lo, 1, 2), best_sse


def reference_column_seeds(seed, n_cols):
    return np.random.SeedSequence(seed).generate_state(n_cols)


# -- brute force in exact arithmetic ----------------------------------------


def exact_sse(values, assignment):
    total = Fraction(0)
    for side in (1, 2):
        members = [Fraction(float(x)) for x, a in zip(values, assignment) if a == side]
        mean = sum(members) / len(members)
        total += sum((x - mean) ** 2 for x in members)
    return total


def brute_force_split(values):
    """(assignment of the first optimal cut, its exact SSE, exact total SS)."""
    v = [float(x) for x in values]
    distinct = sorted(set(v))
    best = None
    for threshold in distinct[:-1]:
        assignment = [1 if x <= threshold else 2 for x in v]
        sse = exact_sse(v, assignment)
        if best is None or sse < best[1]:
            best = (assignment, sse)
    exact = [Fraction(x) for x in v]
    mean = sum(exact) / len(exact)
    return best[0], best[1], sum((x - mean) ** 2 for x in exact)


def check_split_shape(values, split):
    v = np.asarray(values, dtype=np.float64)
    low, high = v[split.assignment == 1], v[split.assignment == 2]
    assert low.size and high.size
    assert low.max() < high.min()  # a threshold split, set 1 below
    assert split.centers == (float(low.mean()), float(high.mean()))
    assert split.centers[0] < split.centers[1]


# -- the reference workload's training folds --------------------------------


@pytest.fixture(scope="module")
def reference_folds():
    """Normalized training folds of the reference dataset with their
    labels; reps 10 and 11 are two of the folds where the restarts missed
    the optimum."""
    dataset = generate_synthetic(40, 2000, seed=1)
    base = extract_base_matrix(dataset)
    labels = np.array(dataset.labels)
    folds = []
    for rep in range(12):
        train_idx, _ = stratified_split(
            labels, dataset.class_names, 0.6, np.random.default_rng(rep)
        )
        train = base[train_idx]
        norm = apply_bounds(train, column_bounds(train))
        folds.append((rep, norm, tuple(labels[train_idx])))
    return folds


def test_exact_split_never_worse_than_restarts_on_reference_folds(reference_folds):
    n_columns = n_better = 0
    for rep, norm, _ in reference_folds:
        seeds = reference_column_seeds(rep, norm.shape[1])
        for j in range(norm.shape[1]):
            column = norm[:, j]
            exact = kmeans_binary_split(column)
            lloyd_assignment, lloyd_sse = reference_lloyd_split(column, int(seeds[j]))
            assert exact.sse <= lloyd_sse + 1e-12, (rep, j)
            if abs(exact.sse - lloyd_sse) <= 1e-12:
                assert np.array_equal(exact.assignment, lloyd_assignment), (rep, j)
            else:
                n_better += 1
            n_columns += 1
    assert n_columns == 144
    assert n_better >= 2  # reps 10 and 11 each have one such column


def test_rank_features_is_the_gain_of_the_exact_split(reference_folds):
    for _, norm, labels in reference_folds[:3]:
        gains = rank_features(norm, labels)
        for j in range(norm.shape[1]):
            split = kmeans_binary_split(norm[:, j])
            assert gains[j] == information_gain(norm[:, j], labels, split)


# -- brute force over awkward columns ---------------------------------------


def quantized_columns():
    """Small integers times a power of two: every score is a ratio of exact
    integers, so the float scan must find exactly the first optimal cut."""
    return st.tuples(
        st.lists(st.integers(-8, 8), min_size=2, max_size=30),
        st.integers(-6, 6),
    ).map(lambda t: [math.ldexp(float(x), t[1]) for x in t[0]])


def awkward_columns():
    # up to 1e300, so that the side means of 24 values stay finite
    finite = st.floats(min_value=-1e300, max_value=1e300, width=64)
    special = st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300]
    )
    pool = st.lists(st.one_of(finite, special), min_size=1, max_size=4)
    # duplicates: each column draws from a small pool of values
    return pool.flatmap(
        lambda values: st.lists(st.sampled_from(values), min_size=2, max_size=24)
    )


@settings(max_examples=300, deadline=None)
@given(quantized_columns())
def test_first_optimal_cut_on_tie_heavy_quantized_columns(column):
    if len(set(column)) < 2:
        with pytest.raises(DegenerateDataError):
            kmeans_binary_split(column)
        return
    split = kmeans_binary_split(column)
    want, _, _ = brute_force_split(column)
    assert split.assignment.tolist() == want
    check_split_shape(column, split)


# The SSE of a column spanning 1e300 is beyond float range and overflows.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(awkward_columns())
def test_optimal_sse_on_duplicate_zero_and_extreme_columns(column):
    if len(set(column)) < 2:  # -0.0 == 0.0
        with pytest.raises(DegenerateDataError):
            kmeans_binary_split(column)
        return
    split = kmeans_binary_split(column)
    _, best, total = brute_force_split(column)
    got = exact_sse(column, split.assignment)
    assert got >= best
    assert got - best <= Fraction(1, 10**12) * total
    check_split_shape(column, split)


def test_two_point_columns():
    for pair in ([0.0, 1.0], [1.0, 0.0], [-1e300, 1e300], [5e-324, 0.0], [-0.0, 1.0]):
        split = kmeans_binary_split(pair)
        assert split.sse == 0.0
        low = int(np.argmin(pair))
        assert split.assignment[low] == 1 and split.assignment[1 - low] == 2


def test_signed_zeros_are_one_value():
    split = kmeans_binary_split([-0.0, 0.0, 0.0, -0.0, 1.0, 1.0])
    assert split.assignment.tolist() == [1, 1, 1, 1, 2, 2]
    with pytest.raises(DegenerateDataError):
        kmeans_binary_split([0.0, -0.0, 0.0])


def test_exact_tie_takes_the_first_cut():
    # Both cuts of [0, 0.5, 1] leave SSE 0.125: {0 | 0.5, 1} and
    # {0, 0.5 | 1}. The scan keeps the first, so 0.5 joins the upper set.
    split = kmeans_binary_split([0.0, 0.5, 1.0])
    assert split.assignment.tolist() == [1, 2, 2]
    assert split.centers == (0.0, 0.75)
    assert split.sse == 0.125
    # the order of the rows does not matter
    assert kmeans_binary_split([1.0, 0.0, 0.5]).assignment.tolist() == [2, 1, 2]


def test_non_finite_column_rejected():
    for bad in ([0.0, math.nan, 1.0], [0.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            kmeans_binary_split(bad)
