"""The four classifiers: exact small cases, invariances, diagnostics."""

import itertools
import warnings

import numpy as np
import pytest

import reference
from prs import classifiers
from prs.classifiers import (
    CLASSIFIER_KINDS,
    TrainedModel,
    _encode_labels,
    _poly_kernel,
    _svm_fit,
    decision_group,
    train,
    train_group,
)
from prs.errors import DegenerateDataError

XOR_X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
XOR_Y = ["P", "N", "N", "P"]


def separated_gaussians(m=100, f=2, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    half = m // 2
    a = rng.normal(size=(half, f))
    b = rng.normal(size=(m - half, f)) + gap
    X = np.vstack([a, b])
    y = ["A"] * half + ["B"] * (m - half)
    return X, y


# -- shared behavior ----------------------------------------------------------


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_separable_1d_column_fits_perfectly(kind):
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    y = ["A", "A", "B", "B"]
    model = train(kind, X, y)
    assert np.mean(model.predict(X) == np.asarray(y, str)) == 1.0
    assert model.classes == ("A", "B")
    assert model.n_features == 1


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_single_class_rejected(kind):
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="single class"):
        train(kind, X, ["A"] * 4)


def test_three_classes_rejected():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError, match="exactly 2"):
        train("LR", X, ["A", "B", "C"])


def test_label_row_count_mismatch():
    with pytest.raises(ValueError, match="labels"):
        train("LR", np.zeros((4, 1)), ["A", "B"])


def test_one_dimensional_features_rejected():
    with pytest.raises(ValueError) as err:
        train("LR", np.zeros(4), ["A", "A", "B", "B"])
    assert str(err.value) == "feature matrix must be 2D, got 1D"


def test_nonfinite_features_rejected():
    X = np.array([[0.0], [np.inf], [1.0], [2.0]])
    with pytest.raises(ValueError, match="finite"):
        train("LDA", X, ["A", "A", "B", "B"])


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_feature_width_mismatch_at_predict(kind):
    X, y = separated_gaussians(m=20)
    model = train(kind, X, y)
    with pytest.raises(ValueError, match="expected shape"):
        model.predict(np.zeros((3, 5)))
    with pytest.raises(ValueError, match="expected shape"):
        decision_group([model], [np.zeros(2)])[0]
    for matrices in ([], [X, X]):
        with pytest.raises(ValueError) as err:
            decision_group([model], matrices)
        assert str(err.value) == f"1 models but {len(matrices)} feature matrices"


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_training_is_deterministic(kind):
    X, y = separated_gaussians(m=30, seed=3)
    a = train(kind, X, y)
    b = train(kind, X, y)
    assert a.diagnostics == b.diagnostics
    for key, value in a.params.items():
        other = b.params[key]
        if isinstance(value, list):
            assert all(np.array_equal(u, v) for u, v in zip(value, other))
        elif isinstance(value, np.ndarray):
            assert np.array_equal(value, other)
        else:
            assert value == other


def test_score_tie_goes_to_second_class():
    # zero weights score every row 0.0, which must read as the B side
    model = TrainedModel(
        kind="LR",
        classes=("C1", "C2"),
        n_features=1,
        params={"weights": np.zeros(2)},
    )
    assert model.predict(np.array([[3.7]])).tolist() == ["C2"]


def test_unknown_kind_rejected():
    X, y = separated_gaussians(m=8)
    for kind in ("TREE", "lr", None):
        with pytest.raises(ValueError) as err:
            train_group(kind, [X], [y])
        assert str(err.value) == f"kind must be one of {CLASSIFIER_KINDS}, got {kind!r}"


# -- logistic regression ------------------------------------------------------


def test_lr_loss_never_exceeds_chance_loss():
    X, y = separated_gaussians(m=60, gap=3.0, seed=1)
    model = train("LR", X, y)
    assert model.diagnostics["final_loss"] <= np.log(2.0) + 1e-12
    assert model.diagnostics["n_iter"] >= 1


def test_lr_stops_at_max_iter(monkeypatch):
    monkeypatch.setattr(classifiers, "_LR_MAX_ITER", 1)
    X, y = separated_gaussians(m=60, gap=3.0, seed=1)
    model = train("LR", X, y)
    assert model.diagnostics["n_iter"] == 1
    assert not model.diagnostics["converged"]


def test_lr_converges_on_separable_data():
    # no maximum-likelihood fit exists here; the l2 penalty makes one
    X, y = separated_gaussians(gap=6.0)
    model = train("LR", X, y)
    assert model.diagnostics["converged"]
    assert model.diagnostics["n_iter"] < classifiers._LR_MAX_ITER
    assert np.mean(model.predict(X) == np.asarray(y, str)) == 1.0
    # gradient of mean log-loss + _LR_L2/2 |w|^2 (intercept free), computed
    # here independently of the library's Newton loop
    w, b = model.params["weights"][:-1], model.params["weights"][-1]
    target = np.array([1.0 if label == "B" else 0.0 for label in y])
    prob = 1.0 / (1.0 + np.exp(-(X @ w + b)))
    residual = prob - target
    grad = np.append(X.T @ residual / len(y) + classifiers._LR_L2 * w, np.mean(residual))
    assert np.linalg.norm(grad) <= classifiers._LR_TOL


def test_lr_probability_one_half_boundary():
    # symmetric two-point data puts the fitted boundary at the midpoint
    X = np.array([[-1.0], [1.0]])
    model = train("LR", X, ["A", "B"])
    assert decision_group([model], [np.array([[0.0]])])[0][0] == pytest.approx(
        0.0, abs=1e-6
    )
    assert model.predict(np.array([[0.0]])).tolist() == ["B"]


# -- XOR: kernel beats linear -------------------------------------------------


def brute_force_best_linear_accuracy(X, y_signed, grid):
    best = 0.0
    for w1, w2, b in itertools.product(grid, repeat=3):
        scores = X[:, 0] * w1 + X[:, 1] * w2 + b
        pred = np.where(scores >= 0, 1.0, -1.0)
        best = max(best, float(np.mean(pred == y_signed)))
    return best


def quadratic_svm(monkeypatch):
    """Fit and score SVM_POLY with the kernel (x.z + 1)^2 and C = 10."""
    monkeypatch.setattr(classifiers, "_SVM_DEGREE", 2)
    monkeypatch.setattr(classifiers, "_SVM_COEF0", 1.0)
    monkeypatch.setattr(classifiers, "_SVM_C", 10.0)


def test_xor_polynomial_kernel_vs_linear_rule(monkeypatch):
    y_signed = np.array([1.0, -1.0, -1.0, 1.0])  # P = +1
    grid = np.linspace(-2.0, 2.0, 17)
    assert brute_force_best_linear_accuracy(XOR_X, y_signed, grid) == 0.75

    quadratic_svm(monkeypatch)
    svm = train("SVM_POLY", XOR_X, XOR_Y)
    assert np.mean(svm.predict(XOR_X) == np.asarray(XOR_Y, str)) == 1.0

    lr = train("LR", XOR_X, XOR_Y)
    assert np.mean(lr.predict(XOR_X) == np.asarray(XOR_Y, str)) <= 0.75


# -- Gaussian discriminants ---------------------------------------------------


@pytest.mark.parametrize("kind", ["LDA", "QDA"])
def test_gaussian_predictions_affine_invariant(kind, monkeypatch):
    X, y = separated_gaussians(m=40, f=3, gap=5.0, seed=7)
    rng = np.random.default_rng(8)
    A = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)  # well-conditioned
    shift = rng.normal(size=3)
    monkeypatch.setattr(classifiers, "_RIDGE_SCALE", 0.0)  # no ridge
    base = train(kind, X, y).predict(X)
    mapped = train(kind, X @ A + shift, y).predict(X @ A + shift)
    assert base.tolist() == mapped.tolist()


def test_gaussian_ridge_escalates_on_singular_covariance(monkeypatch):
    # second column is constant, so the covariance is rank-deficient
    X = np.array([[0.0, 1.0], [0.1, 1.0], [5.0, 1.0], [5.1, 1.0]])
    y = ["A", "A", "B", "B"]
    monkeypatch.setattr(classifiers, "_RIDGE_SCALE", 0.0)  # a ridge only by escalation
    model = train("QDA", X, y)
    assert np.mean(model.predict(X) == np.asarray(y, str)) == 1.0
    assert all(eps > 0.0 for eps in model.diagnostics["ridge"])


def test_gaussian_ridge_gives_up_after_24_escalations(monkeypatch):
    # two equal columns of magnitude 1e150: each class's covariance is
    # singular, and a ridge of at most 1e10 is lost in its 1e300 entries;
    # the pooled covariance of LDA rounds to positive definite unpadded
    x = np.random.default_rng(0).standard_normal((10, 1)) * 1e150
    X, y = np.hstack([x, x]), ["A"] * 5 + ["B"] * 5
    monkeypatch.setattr(classifiers, "_RIDGE_SCALE", 0.0)  # a ridge only by escalation
    with pytest.raises(DegenerateDataError) as err:
        train("QDA", X, y)
    assert str(err.value) == "covariance matrix is not positive definite"
    lda = train("LDA", X, y)
    assert lda.diagnostics["ridge"] == [0.0, 0.0]


def test_gaussian_unbalanced_priors_shift_the_boundary():
    # same geometry, 3:1 class weights: the midpoint flips toward A
    X = np.array([[-1.0], [-1.2], [-0.8], [1.0]])
    model = train("LDA", X, ["A", "A", "A", "B"])
    midpoint = np.array([[-0.025]])  # between the class means
    assert model.predict(midpoint).tolist() == ["A"]


# -- polynomial-kernel SVM ----------------------------------------------------


def svm_dual_from_params(model):
    coef = model.params["dual_coef"]
    sv = model.params["support_vectors"]
    k = (sv @ sv.T + classifiers._SVM_COEF0) ** classifiers._SVM_DEGREE
    return float(np.sum(np.abs(coef)) - 0.5 * coef @ k @ coef)


def test_svm_diagnostics_consistent_with_stored_model(monkeypatch):
    X, y = separated_gaussians(m=40, gap=4.0, seed=11)
    monkeypatch.setattr(classifiers, "_SVM_DEGREE", 2)
    model = train("SVM_POLY", X, y)
    diag = model.diagnostics
    assert diag["kkt_residual"] <= 1e-6
    assert 1 <= diag["n_support"] <= len(y)
    assert diag["dual_objective"] == pytest.approx(
        svm_dual_from_params(model), abs=1e-9
    )
    # the keys the benchmark tracer reads, and how the fit ended
    assert set(diag) == {
        "dual_objective", "kkt_residual", "n_support", "n_updates", "exact_finish",
    }
    assert type(diag["exact_finish"]) is bool
    assert 1 <= diag["n_updates"] <= classifiers._SVM_UPDATES_PER_ROW * len(y)


def test_svm_fit_with_no_support_vector_scores_every_row_at_its_bias(monkeypatch):
    # all duals at 0: the model keeps no rows, and its kernel sum is empty
    X, y = separated_gaussians(m=12, gap=4.0, seed=5)
    monkeypatch.setattr(classifiers, "_SVM_DEGREE", 2)
    classes, signed = _encode_labels(y)
    K = _poly_kernel(X, X, classifiers._SVM_DEGREE, classifiers._SVM_COEF0)
    params, diag = _svm_fit(
        X, K, signed, np.zeros(len(y)), -0.25, -0.5, 0, False, classifiers._SVM_C
    )
    assert params["support_vectors"].shape == (0, X.shape[1])
    assert params["dual_coef"].shape == (0,)
    assert params["bias"] == -0.375
    assert diag["n_support"] == 0
    model = TrainedModel("SVM_POLY", classes, X.shape[1], params, diag)
    rows = np.vstack([X, 100.0 * X])
    [scores] = decision_group([model], [rows])
    assert np.array_equal(scores, np.full(len(rows), -0.375))
    assert (model.predict(rows) == classes[0]).all()


def test_svm_xor_support_geometry(monkeypatch):
    quadratic_svm(monkeypatch)
    model = train("SVM_POLY", XOR_X, XOR_Y)
    # the four corners are all essential
    assert model.diagnostics["n_support"] == 4
    assert model.diagnostics["kkt_residual"] <= 1e-9
    margins = decision_group([model], [XOR_X])[0] * np.array([1.0, -1.0, -1.0, 1.0])
    assert np.all(margins >= 1.0 - 1e-9)


def test_svm_alpha_stays_in_box():
    X, y = separated_gaussians(m=30, gap=1.0, seed=13)  # overlapping classes
    model = train("SVM_POLY", X, y)
    assert np.all(np.abs(model.params["dual_coef"]) <= classifiers._SVM_C + 1e-12)


def test_svm_rows_equal_across_classes_reach_the_box_corner(monkeypatch):
    # every pair has zero curvature; the optimum puts all alpha at C
    X = np.ones((6, 2))
    monkeypatch.setattr(classifiers, "_SVM_DEGREE", 2)
    model = train("SVM_POLY", X, ["A", "B"] * 3)
    assert model.diagnostics["dual_objective"] == 6.0
    assert model.diagnostics["kkt_residual"] <= 1e-8


def test_svm_rejects_a_kernel_that_overflows():
    # (x.z + 1)^3 of features near 1e120 exceeds float64: the fit used to
    # run to the update cap and return a NaN bias and dual objective; the
    # error is the only report, with no numpy warning before it
    X, y = separated_gaussians(m=20, f=3, seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateDataError, match="kernel overflows float64"):
            train("SVM_POLY", X * 1e120, y)
    assert caught == []
    assert np.isfinite(train("SVM_POLY", X * 1e30, y).params["bias"])


def test_svm_predict_rejects_a_kernel_that_overflows():
    # held-out rows near 1e120 overflow (x.z + 1)^3 at predict time, where
    # the scores would be NaN; the error is the only report, with no
    # numpy warning before it
    X, y = separated_gaussians(m=20, f=3, seed=2)
    model = train("SVM_POLY", X, y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateDataError, match="kernel overflows float64"):
            model.predict(X[:4] * 1e120)
    assert caught == []
    assert np.isfinite(decision_group([model], [X[:4] * 1e30])[0]).all()


@pytest.mark.parametrize("kind", ["LDA", "QDA"])
def test_gaussian_predict_rejects_a_distance_that_overflows(kind):
    # a held-out row near 1e160 squares past float64 in the Mahalanobis
    # distance, where the scores would be NaN; the error is the only
    # report, with no numpy warning before it
    X, y = separated_gaussians(m=20, f=3, seed=2)
    model = train(kind, X, y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateDataError, match="distance of a row overflows"):
            model.predict(X[:4] * 1e160)
    assert caught == []
    assert np.isfinite(decision_group([model], [X[:4] * 1e100])[0]).all()


# -- group fits ---------------------------------------------------------------


def _bits(value):
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    array = np.asarray(value)
    return type(value), array.dtype, array.shape, array.tobytes()


def assert_same_model(got, want):
    assert (got.classes, got.n_features) == (want.classes, want.n_features)
    assert got.params.keys() == want.params.keys()
    for key, value in want.params.items():
        assert _bits(got.params[key]) == _bits(value), key
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        assert _bits(got.diagnostics[key]) == _bits(value), key


def assert_group_equals_train(kind, matrices, labels):
    models = train_group(kind, matrices, labels)
    assert len(models) == len(matrices)
    for X, y, got in zip(matrices, labels, models):
        assert_same_model(got, train(kind, X, y))
    return models


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_group_fit_equals_train_on_the_variants_of_an_overlap_split(kind, overlap_split):
    x_train = overlap_split.x_train
    models = assert_group_equals_train(
        kind, x_train, [overlap_split.y_train] * len(x_train)
    )
    if kind == "SVM_POLY":
        # no point is free at update 0, so the exact finish is first tried
        # at the m-th update, and there it ends every variant's fit
        m = len(overlap_split.y_train)
        for model in models:
            assert model.diagnostics["exact_finish"], model.diagnostics
            assert model.diagnostics["n_updates"] == m, model.diagnostics


def test_group_fit_when_one_problem_hits_the_update_cap(monkeypatch):
    rng = np.random.default_rng(17)
    half = 15
    y = ["A"] * half + ["B"] * half
    shift = np.r_[np.zeros(half), np.ones(half)][:, None]
    separated = rng.normal(size=(2 * half, 2)) + 6.0 * shift
    overlapping = rng.normal(size=(2 * half, 2)) + 0.5 * shift
    wide = np.hstack([separated, rng.normal(size=(2 * half, 3))])
    monkeypatch.setattr(classifiers, "_SVM_UPDATES_PER_ROW", 3)
    monkeypatch.setattr(classifiers, "_SVM_C", 10.0)
    models = assert_group_equals_train(
        "SVM_POLY", [separated, overlapping, wide], [y] * 3
    )
    updates = [model.diagnostics["n_updates"] for model in models]
    cap = 3 * len(y)
    assert updates[1] == cap
    assert updates[0] < cap and updates[2] < cap


def test_group_fit_rejects_a_matrix_whose_rows_do_not_match_its_labels(overlap_split):
    X, y = overlap_split.x_train[0], overlap_split.y_train
    for kind in CLASSIFIER_KINDS:
        with pytest.raises(ValueError, match="rows but"):
            train_group(kind, [X, X[:-1]], [y, y])
        with pytest.raises(ValueError, match="2 feature matrices but 1 label"):
            train_group(kind, [X, X], [y])


def shuffled_run_problems(overlap_reps):
    """The 30 training problems of three reps at two rates, in run
    order, each with its rows in its own order, so that no two problems
    of one row count share their label vector."""
    rng = np.random.default_rng(5)
    matrices, labels = [], []
    for X, y in zip(overlap_reps.x_train, overlap_reps.y_train):
        order = rng.permutation(len(y))
        matrices.append(X[order])
        labels.append(y[order])
    return matrices, labels


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_group_fit_equals_train_across_the_reps_and_rates_of_a_run(kind, overlap_reps):
    matrices, labels = shuffled_run_problems(overlap_reps)
    # two row counts, interleaved: one rate's five variants, then the other's
    assert [len(y) for y in labels[:10]] == [40] * 5 + [56] * 5
    assert len({tuple(y) for y in labels}) == len(labels)
    models = assert_group_equals_train(kind, matrices, labels)
    if kind == "SVM_POLY":
        # the 56-row problems leave their lockstep block at different steps
        updates = {m.diagnostics["n_updates"] for m, y in zip(models, labels) if len(y) == 56}
        assert len(updates) >= 2, updates


@pytest.mark.parametrize("problems_per_block", [1, 2])
def test_svm_group_fit_does_not_depend_on_the_block_budget(
    problems_per_block, overlap_reps, monkeypatch
):
    matrices, labels = shuffled_run_problems(overlap_reps)
    # equal to train on each problem, as the test above checks
    whole = train_group("SVM_POLY", matrices, labels)
    blocks = []
    solve = classifiers._solve_svm_block

    def recording_solve(block_matrices, block_signs):
        blocks.append([len(s) for s in block_signs])
        return solve(block_matrices, block_signs)

    # the kernel and curvature of one or two 40-row problems (and one 56-row)
    budget = problems_per_block * 16 * 40 * 40
    monkeypatch.setattr(classifiers, "_SVM_BLOCK_BYTES", budget)
    monkeypatch.setattr(classifiers, "_solve_svm_block", recording_solve)
    for got, want in zip(train_group("SVM_POLY", matrices, labels), whole, strict=True):
        assert_same_model(got, want)
    assert sorted(map(tuple, blocks)) == sorted(
        [(40,) * problems_per_block] * (15 // problems_per_block)
        + [(40,)] * (15 % problems_per_block)
        + [(56,)] * 15
    )


# -- stacked fits and scores against the one-problem references --------------


def assert_stack_equals_reference(kind, matrices, labels):
    """train_group and decision_group equal the reference fit and scores
    of each problem on its own, bit for bit."""
    models = train_group(kind, matrices, labels)
    wanted = [reference.train_model(kind, X, y) for X, y in zip(matrices, labels)]
    for got, want in zip(models, wanted, strict=True):
        assert_same_model(got, want)
    # each model scores its own rows and, reversed, those of its neighbour
    # (copied: numpy's @ on a reversed view leaves BLAS and sums otherwise)
    tests = [X[::-1].copy() for X in matrices[1:] + matrices[:1]]
    same_width = [X.shape[1] == T.shape[1] for X, T in zip(matrices, tests)]
    tests = [T if ok else X for X, T, ok in zip(matrices, tests, same_width)]
    for inputs in (matrices, tests):
        scores = decision_group(models, inputs)
        for got, want, X in zip(scores, wanted, inputs, strict=True):
            assert _bits(got) == _bits(reference.decision_function(want, X))
    for model, want, X in zip(models, wanted, tests, strict=True):
        got, scores = model.predict(X), reference.decision_function(want, X)
        assert got.tolist() == np.where(scores >= 0.0, *want.classes[::-1]).tolist()
    return models


def recording(monkeypatch, name):
    """Wrap np.linalg.<name>; the list it returns gets the batch shape
    of every stacked call that raised LinAlgError."""
    original = getattr(np.linalg, name)
    raised = []

    def wrapped(a, *args, **kwargs):
        try:
            return original(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            if np.ndim(a) == 3:
                raised.append(np.shape(a)[:1])
            raise

    monkeypatch.setattr(np.linalg, name, wrapped)
    return raised


@pytest.mark.parametrize("kind", ["LR", "LDA", "QDA"])
def test_stacked_fit_equals_the_reference_across_a_run(kind, overlap_reps):
    matrices, labels = shuffled_run_problems(overlap_reps)
    shapes = {X.shape for X in matrices}
    assert {m for m, _ in shapes} == {40, 56} and {f for _, f in shapes} == {12, 13, 14}
    assert_stack_equals_reference(kind, matrices, labels)


def lr_problem(scale, seed=0, shift=5.0, m=20, f=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, f)) * scale
    X[m // 2 :, 0] += shift * scale
    return X, np.array(["A"] * (m // 2) + ["B"] * (m - m // 2))


def test_stacked_lr_with_a_problem_at_its_cap_next_to_converged_ones(monkeypatch):
    monkeypatch.setattr(classifiers, "_LR_MAX_ITER", 2)
    X, y = lr_problem(1.0)
    # both classes hold the same rows: the gradient vanishes at w = 0
    twin = np.vstack([X[:10], X[:10]])
    matrices, labels = [X, twin, 2.0 * twin], [y, y, y]
    models = assert_stack_equals_reference("LR", matrices, labels)
    diagnostics = [model.diagnostics for model in models]
    assert [d["n_iter"] for d in diagnostics] == [2, 0, 0]
    assert [d["converged"] for d in diagnostics] == [False, True, True]


def test_stacked_lr_where_problems_stop_at_no_decrease_and_a_singular_hessian(
    monkeypatch,
):
    # a vanishing penalty and a zero tolerance: on separable rows the first
    # problem's sigmoids saturate until its gradient is exactly 0, the
    # second's line search halves its step 40 times without a decrease,
    # and the third's Hessian turns singular; the fourth's classes overlap,
    # so it stops at a step that leaves its objective unchanged; the fifth
    # halves many steps, and the 1e-4 sufficient-decrease test decides
    # between some step and its half
    monkeypatch.setattr(classifiers, "_LR_TOL", 0.0)
    monkeypatch.setattr(classifiers, "_LR_L2", 1e-300)
    problems = [
        lr_problem(10.0, 2),
        lr_problem(10.0, 1),
        lr_problem(100.0, 1),
        lr_problem(1.0, 2, shift=0.5),
        lr_problem(1.0, 10, shift=2.0),
    ]
    raised = recording(monkeypatch, "solve")
    models = assert_stack_equals_reference(
        "LR", [X for X, _ in problems], [y for _, y in problems]
    )
    assert raised, "no stacked solve fell back to one problem at a time"
    diagnostics = [model.diagnostics for model in models]
    assert [d["converged"] for d in diagnostics] == [True] + [False] * 4
    iters = [d["n_iter"] for d in diagnostics]
    assert len(set(iters)) == 5 and max(iters) < classifiers._LR_MAX_ITER, iters


def test_stacked_gaussian_escalates_one_singular_covariance(monkeypatch):
    rng = np.random.default_rng(3)
    y = np.array(["A"] * 5 + ["B"] * 5)
    shift = 4.0 * (y == "B")
    matrices = [rng.normal(size=(10, 3)) + shift[:, None] for _ in range(3)]
    # a duplicated column whose class scatter, 16, and covariance, 4, are
    # exact: the unpadded covariance has an exactly zero Cholesky pivot
    duplicated = np.tile([2.0, -2.0, 2.0, -2.0, 0.0], 2) + shift
    matrices[1][:, 0] = matrices[1][:, 2] = duplicated
    for kind in ("LDA", "QDA"):
        monkeypatch.setattr(classifiers, "_RIDGE_SCALE", 0.0)  # no ridge
        raised = recording(monkeypatch, "cholesky")
        models = assert_stack_equals_reference(kind, matrices, [y] * 3)
        # one stack: a pooled covariance per problem for LDA, two for QDA
        assert raised == [(3 if kind == "LDA" else 6,)]
        ridges = [model.diagnostics["ridge"] for model in models]
        assert ridges[0] == ridges[2] == [0.0, 0.0], ridges
        assert all(eps > 0.0 for eps in ridges[1]), ridges
        monkeypatch.undo()


@pytest.mark.parametrize("kind", ["LDA", "QDA"])
def test_stacked_gaussian_with_two_class_counts_of_one_shape(kind):
    rng = np.random.default_rng(4)
    even = np.array(["A"] * 12 + ["B"] * 12)
    uneven = np.array(["A"] * 9 + ["B"] * 15)
    matrices = [rng.normal(size=(24, 4)) for _ in range(4)]
    labels = [even, uneven, even[::-1], np.where(uneven[::-1] == "A", "B", "A")]
    models = assert_stack_equals_reference(kind, matrices, labels)
    counts = [model.diagnostics["class_counts"] for model in models]
    assert counts == [[12, 12], [9, 15], [12, 12], [15, 9]]


@pytest.mark.parametrize(
    "y",
    [
        ["b", "a", "b", "a"],
        ["beta", "Alpha", "beta", "Alpha"],
        [3, 10, 3, 10],
        [2.5, -1.0, 2.5, 2.5],
        np.array([1.0, 2.0, 1.0]),
        ["Émile", "émile", "Émile", "émile"],
        ["Zoë", "zoë", "zoë"],
        np.array([["x", "Y"], ["Y", "x"]]),
    ],
)
def test_label_encoding_matches_the_per_label_reference(y):
    classes, signed = _encode_labels(y)
    want_classes, want_signed = reference.encode_labels(y)
    assert classes == want_classes
    assert classes == tuple(sorted(set(str(v) for v in np.asarray(y).ravel())))
    assert all(type(c) is str for c in classes)
    assert _bits(signed) == _bits(want_signed)


@pytest.mark.parametrize(
    "y, message",
    [
        (["a", "a"], "single class"),
        (["a", "B", "b"], "exactly 2 classes, got 3"),
        ([], "exactly 2 classes, got 0"),
    ],
)
def test_label_encoding_keeps_its_errors(y, message):
    with pytest.raises(ValueError, match=message):
        _encode_labels(y)
    with pytest.raises(ValueError, match=message):
        reference.encode_labels(y)
