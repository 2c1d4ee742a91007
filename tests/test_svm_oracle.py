"""SVM_POLY training against two frozen references.

The first is the original per-candidate SMO loop (Platt's first-choice
heuristic): it recomputes the error vector before every i and tries
partners j one at a time through the scalar pair update, in sweeps over
the rows until a sweep changes nothing. The library solves the same
dual by second-order working-set selection, so its floats differ; it
must reach the reference's dual objective (to 1e-10 relative) with a
KKT residual of at most 1e-8.

The second is the library's own WSS2 loop as it was first written, with
boolean masks and np.where in each update, plus the exact finish: at
every m-th update it calls the library's ``_exact_finish`` and stops
with its result if it returns one. The library's loop does the same
float operations with fewer numpy calls, so every fit must match it bit
for bit: parameters and diagnostics alike. Without the finish the
reference is plain WSS2, which each accepted finish must match or beat:
its solutions are checked here on their own (inside the box, on the
equality constraint, an independently computed gap below _SVM_STOP, a
dual objective at least plain WSS2's), and so are its rejections.

A problem's options set the library's SVM constants for its test:
``degree``, ``coef0`` and ``penalty`` replace _SVM_DEGREE, _SVM_COEF0
and _SVM_C, and ``updates_per_row`` replaces _SVM_UPDATES_PER_ROW. Both
references read the same constants at call time.
"""

import warnings

import numpy as np
import pytest

from prs import classifiers
from prs.classifiers import (
    _SVM_STOP,
    _SVM_TAU,
    _exact_finish,
    _kkt_violation,
    _pair_update,
    _poly_kernel,
    train,
)

_ALPHA_EPS = 1e-12  # Platt's tolerance on a dual coefficient at a bound
_PLATT_MAX_SWEEPS = 2000


def reference_smo_step(i, j, alpha, signed, K, E, C):
    if signed[i] != signed[j]:
        lo = max(0.0, alpha[j] - alpha[i])
        hi = min(C, C + alpha[j] - alpha[i])
    else:
        lo = max(0.0, alpha[i] + alpha[j] - C)
        hi = min(C, alpha[i] + alpha[j])
    if hi - lo < _ALPHA_EPS:
        return None
    eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
    if eta <= 1e-15:
        return None
    aj = alpha[j] + signed[j] * (E[i] - E[j]) / eta
    aj = min(max(aj, lo), hi)
    if abs(aj - alpha[j]) < 1e-12:
        return None
    ai = alpha[i] + signed[i] * signed[j] * (alpha[j] - aj)
    bi = -(E[i] + signed[i] * (ai - alpha[i]) * K[i, i]
           + signed[j] * (aj - alpha[j]) * K[i, j])
    bj = -(E[j] + signed[i] * (ai - alpha[i]) * K[i, j]
           + signed[j] * (aj - alpha[j]) * K[j, j])
    if _ALPHA_EPS < ai < C - _ALPHA_EPS:
        db = bi
    elif _ALPHA_EPS < aj < C - _ALPHA_EPS:
        db = bj
    else:
        db = 0.5 * (bi + bj)
    return ai, aj, db


def reference_dual_objective(X, signed):
    """The dual objective that Platt's SMO loop reaches."""
    m = X.shape[0]
    K = _poly_kernel(X, X, classifiers._SVM_DEGREE, classifiers._SVM_COEF0)
    alpha = np.zeros(m)
    b = 0.0
    C = classifiers._SVM_C

    def errors():
        return (alpha * signed) @ K + b - signed

    for _ in range(_PLATT_MAX_SWEEPS):
        changed = False
        for i in range(m):
            E = errors()
            margin = signed[i] * (E[i] + signed[i])
            violates = (
                (alpha[i] < C - _ALPHA_EPS and margin < 1.0 - 1e-10)
                or (alpha[i] > _ALPHA_EPS and margin > 1.0 + 1e-10)
            )
            if not violates:
                continue
            order = np.argsort(-np.abs(E - E[i]), kind="stable")
            for j in order:
                if j == i:
                    continue
                step = reference_smo_step(i, int(j), alpha, signed, K, E, C)
                if step is None:
                    continue
                alpha[i], alpha[int(j)] = step[0], step[1]
                b += step[2]
                changed = True
                break
        if not changed:
            break
    return float(np.sum(alpha) - 0.5 * (alpha * signed) @ K @ (alpha * signed))


def wss2_reference_train_svm(X, signed, finish=_exact_finish):
    """Solve the dual by SMO with second-order working-set selection
    (WSS2 of Fan, Chen & Lin 2005, as in LIBSVM).

    yg = y * G is the dual gradient G = Q alpha - 1 times the labels,
    i.e. the bias-free errors K (alpha * y) - y; each pair update moves
    it by two kernel rows. The fit stops once the maximal violating pair
    is closer than _SVM_STOP, or after _SVM_UPDATES_PER_ROW * m pair
    updates, or at an m-th update
    where finish(K, signed, alpha, C) returns a result (alpha, g_max,
    g_min); finish=None is plain WSS2. The kernel, C and the cap are the
    library's constants, read at call time.
    """
    m = X.shape[0]
    K = _poly_kernel(X, X, classifiers._SVM_DEGREE, classifiers._SVM_COEF0)
    diag_k = np.diag(K)
    C = classifiers._SVM_C
    alpha = np.zeros(m)
    yg = -signed
    # I_up: alpha may move along +y; I_low: alpha may move along -y
    up = signed > 0
    low = ~up
    cap = classifiers._SVM_UPDATES_PER_ROW * m
    n_updates = 0
    exact = False
    while True:
        # i maximises -y G over I_up; the gap closes against min over I_low
        score = -yg
        up_score = np.where(up, score, -np.inf)
        i = int(np.argmax(up_score))
        g_max = float(up_score[i])
        g_min = float(np.min(np.where(low, score, np.inf)))
        if g_max - g_min < _SVM_STOP or n_updates == cap:
            break
        if finish is not None and n_updates % m == 0:
            finished = finish(K, signed, alpha.copy(), C)
            if finished is not None:
                alpha, g_max, g_min = finished
                exact = True
                break
        # j maximises b^2 / a over the I_low points that violate with i
        b = g_max - score
        a = np.maximum(diag_k[i] + diag_k - 2.0 * K[i], _SVM_TAU)
        j = int(np.argmax(np.where(low & (b > 0.0), b * b / a, -1.0)))
        old_i, old_j = float(alpha[i]), float(alpha[j])
        alpha[i], alpha[j] = _pair_update(
            old_i, old_j, float(signed[i] * yg[i]), float(signed[j] * yg[j]),
            signed[i] != signed[j], float(a[j]), C,
        )
        yg += (signed[i] * (alpha[i] - old_i)) * K[i]
        yg += (signed[j] * (alpha[j] - old_j)) * K[j]
        for t in (i, j):
            up[t] = alpha[t] < C if signed[t] > 0 else alpha[t] > 0.0
            low[t] = alpha[t] > 0.0 if signed[t] > 0 else alpha[t] < C
        n_updates += 1

    b = 0.5 * (g_max + g_min)
    margins = signed * ((alpha * signed) @ K + b)
    violations = _kkt_violation(alpha, margins, C)
    support = alpha > 0.0
    params = {
        "support_vectors": X[support],
        "dual_coef": (alpha * signed)[support],
        "bias": b,
    }
    dual = float(np.sum(alpha) - 0.5 * (alpha * signed) @ K @ (alpha * signed))
    diag = {
        "dual_objective": dual,
        "kkt_residual": float(np.max(violations)),
        "n_support": int(np.sum(support)),
        "n_updates": n_updates,
        "exact_finish": exact,
    }
    return params, diag


# -- problems -------------------------------------------------------------------


def overlapping(m, f, gap, seed):
    rng = np.random.default_rng(seed)
    half = m // 2
    X = np.vstack([rng.normal(size=(half, f)), rng.normal(size=(m - half, f)) + gap])
    return X, ["A"] * half + ["B"] * (m - half)


def xor(noise, seed):
    rng = np.random.default_rng(seed)
    corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    X = np.repeat(corners, 4, axis=0) + noise * rng.normal(size=(16, 2))
    return X, ["P"] * 4 + ["N"] * 8 + ["P"] * 4


def scaled(problem):
    """Each column min-max scaled to [0, 1], as the grid scales features."""
    X, y = problem
    lo, hi = X.min(axis=0), X.max(axis=0)
    return (X - lo) / (hi - lo), y


def duplicated(seed, cross_class):
    """Rows repeated within a class, and optionally across classes; each
    repeated pair has zero curvature eta = K_ii + K_jj - 2 K_ij."""
    X, y = overlapping(16, 2, 1.0, seed)
    X = np.vstack([X, X[:4], X[10:12]])
    y = y + y[:4] + (["A", "A"] if cross_class else y[10:12])
    return X, y


PROBLEMS = {
    "overlap-d3-C1": (overlapping(30, 2, 1.0, 0), dict(degree=3, penalty=1.0)),
    "overlap-d3-C0.1": (overlapping(30, 2, 1.0, 1), dict(degree=3, penalty=0.1)),
    "overlap-d3-C10": (overlapping(30, 2, 1.0, 2), dict(degree=3, penalty=10.0)),
    "overlap-d1-C1": (overlapping(40, 3, 0.5, 3), dict(degree=1, penalty=1.0)),
    "overlap-d2-C1": (overlapping(40, 3, 0.5, 4), dict(degree=2, penalty=1.0)),
    "overlap-d2-C100": (overlapping(24, 2, 0.8, 5), dict(degree=2, penalty=100.0)),
    "overlap-d4-C1": (overlapping(24, 4, 0.8, 6), dict(degree=4, penalty=1.0)),
    "overlap-d3-coef0": (overlapping(30, 2, 1.0, 7), dict(degree=3, coef0=0.0)),
    "overlap-wide": (overlapping(48, 14, 0.3, 8), dict(degree=3, penalty=1.0)),
    # the benchmark grid's shape: 48 rows of 14 scaled columns, where plain
    # WSS2 takes 1339 updates and the exact finish ends the fit at 432
    "grid-overlap-shaped": (scaled(overlapping(48, 14, 0.3, 18)), dict(degree=3, penalty=1.0)),
    "overlap-odd-m": (overlapping(17, 2, 1.5, 9), dict(degree=2, penalty=1.0)),
    "separated": (overlapping(30, 2, 6.0, 10), dict(degree=3, penalty=1.0)),
    "xor-corners-d2": ((np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
                        ["P", "N", "N", "P"]), dict(degree=2, penalty=10.0)),
    "xor-noisy-d2": (xor(0.3, 11), dict(degree=2, penalty=10.0)),
    "xor-noisy-d3-C1": (xor(0.5, 12), dict(degree=3, penalty=1.0)),
    "xor-noisy-d1": (xor(0.3, 13), dict(degree=1, penalty=1.0)),
    "duplicates-within": (duplicated(14, cross_class=False), dict(degree=3, penalty=1.0)),
    "duplicates-across": (duplicated(15, cross_class=True), dict(degree=3, penalty=1.0)),
    "duplicates-across-d2-C10": (duplicated(16, cross_class=True), dict(degree=2, penalty=10.0)),
    "all-rows-equal": ((np.ones((6, 2)), ["A", "B"] * 3), dict(degree=2, penalty=1.0)),
    "sweep-cap": (overlapping(30, 2, 0.5, 17), dict(degree=3, penalty=10.0, updates_per_row=3)),
}


# the library constant that each option of a problem replaces
_CONSTANTS = {
    "degree": "_SVM_DEGREE",
    "coef0": "_SVM_COEF0",
    "penalty": "_SVM_C",
    "updates_per_row": "_SVM_UPDATES_PER_ROW",
}


def svm_spec(monkeypatch, **options):
    """Set the library's SVM constants to a problem's options for the
    rest of the test; an option not given keeps its constant."""
    for name, value in options.items():
        monkeypatch.setattr(classifiers, _CONSTANTS[name], value)


@pytest.mark.parametrize("name", sorted(set(PROBLEMS) - {"sweep-cap"}))
def test_svm_reaches_reference_optimum(name, monkeypatch):
    (X, y), options = PROBLEMS[name]
    X = np.asarray(X, dtype=np.float64)
    svm_spec(monkeypatch, **options)
    model = train("SVM_POLY", X, y)
    signed = np.where(np.array(y) == model.classes[1], 1.0, -1.0)
    ref = reference_dual_objective(X, signed)
    got = model.diagnostics
    assert got["dual_objective"] >= ref - 1e-10 * max(1.0, abs(ref))
    assert got["kkt_residual"] <= 1e-8


def test_svm_sweep_cap_bounds_updates(monkeypatch):
    (X, y), options = PROBLEMS["sweep-cap"]
    assert options["updates_per_row"] == 3
    svm_spec(monkeypatch, **options)
    model = train("SVM_POLY", X, y)
    assert model.diagnostics["n_updates"] == 3 * len(y)


def test_duplicate_rows_give_zero_eta():
    (X, y), options = PROBLEMS["duplicates-across"]
    K = _poly_kernel(X, X, options["degree"], 1.0)
    eta = np.diag(K)[:, None] + np.diag(K)[None, :] - 2.0 * K
    off_diagonal = ~np.eye(len(y), dtype=bool)
    assert np.any((eta <= 1e-15) & off_diagonal)


def random_problem(seed):
    """A seeded problem from the family m 6-70, 1-14 features, class gap
    0-1, degree 1-4, C 0.01-30 (log-uniform), capped at 200 m pair
    updates on m rows so that some fits stop there."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 71))
    f = int(rng.integers(1, 15))
    X, y = overlapping(m, f, float(rng.uniform(0.0, 1.0)), seed)
    options = dict(
        degree=int(rng.integers(1, 5)),
        penalty=float(10.0 ** rng.uniform(-2.0, np.log10(30.0))),
        updates_per_row=200,
    )
    return (X, y), options


def _bits(value):
    array = np.asarray(value)
    return type(value), array.dtype, array.shape, array.tobytes()


def assert_matches_wss2_reference(X, y, options, monkeypatch, finish=_exact_finish):
    X = np.asarray(X, dtype=np.float64)
    svm_spec(monkeypatch, **options)
    model = train("SVM_POLY", X, y)
    signed = np.where(np.array(y) == model.classes[1], 1.0, -1.0)
    params, diag = wss2_reference_train_svm(X, signed, finish)
    assert model.params.keys() == params.keys()
    for key, value in params.items():
        assert _bits(model.params[key]) == _bits(value), key
    assert model.diagnostics.keys() == diag.keys()
    for key, value in diag.items():
        assert _bits(model.diagnostics[key]) == _bits(value), key
    return diag


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_svm_bit_identical_to_wss2_reference(name, monkeypatch):
    (X, y), options = PROBLEMS[name]
    assert_matches_wss2_reference(X, y, options, monkeypatch)


def test_svm_bit_identical_to_wss2_reference_on_random_family(monkeypatch):
    capped = 0
    for seed in range(100):
        (X, y), options = random_problem(seed)
        diag = assert_matches_wss2_reference(X, y, options, monkeypatch)
        capped += diag["n_updates"] == options["updates_per_row"] * len(y)
    assert capped > 0  # the family reaches the update cap


# -- the exact finish on its own ------------------------------------------------


def check_accepted_finish(X, y, options, monkeypatch):
    """Check the finish that ends the WSS2 reference's fit, if one does,
    against the iterate it started from and against plain WSS2; returns
    whether a finish was accepted."""
    X = np.asarray(X, dtype=np.float64)
    svm_spec(monkeypatch, **options)
    signed = np.where(np.array(y) == sorted(set(y))[1], 1.0, -1.0)
    accepted = []

    def recording(K, y, alpha, C):
        finished = _exact_finish(K, y, alpha.copy(), C)
        if finished is not None:
            accepted.append((K, alpha, finished[0]))
        return finished

    _, diag = wss2_reference_train_svm(X, signed, recording)
    assert diag["exact_finish"] == bool(accepted)
    if not accepted:
        return False
    (K, start, alpha), = accepted
    m, C = len(signed), classifiers._SVM_C
    assert diag["n_updates"] % m == 0
    # the free points stay strictly inside the box, the bounded ones stay put
    free = (start > 0.0) & (start < C)
    assert np.all((alpha[free] > 0.0) & (alpha[free] < C))
    assert np.all(alpha[start >= C] == C) and np.all(alpha[start <= 0.0] == 0.0)
    assert abs(signed @ alpha) <= 1e-12 * C * m
    # the maximal violating pair of -y * (Q alpha - 1), from Q itself
    Q = np.outer(signed, signed) * K
    score = -signed * (Q @ alpha - 1.0)
    in_up = ((signed > 0) & (alpha < C)) | ((signed < 0) & (alpha > 0.0))
    in_low = ((signed > 0) & (alpha > 0.0)) | ((signed < 0) & (alpha < C))
    assert score[in_up].max() - score[in_low].min() < _SVM_STOP
    dual = alpha.sum() - 0.5 * alpha @ Q @ alpha
    _, plain = wss2_reference_train_svm(X, signed, finish=None)
    ref = plain["dual_objective"]
    assert dual >= ref - 1e-12 * max(1.0, abs(ref))
    return True


# these stop on the gap before their m-th update, reach the cap, or (with
# rows equal across classes) never get a nonsingular reduced system
NO_FINISH = {
    "all-rows-equal", "duplicates-across", "separated", "sweep-cap",
    "xor-corners-d2", "xor-noisy-d1",
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_exact_finish_solves_the_reduced_kkt_system(name, monkeypatch):
    (X, y), options = PROBLEMS[name]
    assert check_accepted_finish(X, y, options, monkeypatch) == (name not in NO_FINISH)


def test_exact_finish_solves_the_reduced_kkt_system_on_random_family(monkeypatch):
    accepted = 0
    for seed in range(100):
        (X, y), options = random_problem(seed)
        accepted += check_accepted_finish(X, y, options, monkeypatch)
    assert accepted >= 80  # 90 of the 100 do


def test_an_active_set_already_tried_is_not_tried_again(monkeypatch):
    # a finish depends on nothing but the active set, so the library skips
    # the attempts on an unchanged one that the reference repeats; the fit
    # still matches the reference bit for bit
    (X, y), options = random_problem(44)  # reaches its cap of 200 m updates
    attempts = {"library": [], "reference": []}

    def counting(side):
        def finish(K, signed, alpha, C):
            attempts[side].append(((alpha > 0.0) & (alpha < C), alpha >= C))
            return _exact_finish(K, signed, alpha, C)
        return finish

    monkeypatch.setattr(classifiers, "_exact_finish", counting("library"))
    diag = assert_matches_wss2_reference(
        X, y, options, monkeypatch, counting("reference")
    )
    assert diag["n_updates"] == 200 * len(y) and not diag["exact_finish"]
    library, reference = attempts["library"], attempts["reference"]
    assert len(reference) == 200 and 1 < len(library) < 50
    for (free, at_c), (next_free, next_at_c) in zip(library, library[1:]):
        assert (free != next_free).any() or (at_c != next_at_c).any()


def recording_solves(monkeypatch):
    """Record each np.linalg.solve call: its right-hand side length and
    its solution, or None where it raised LinAlgError."""
    solves = []
    solve = np.linalg.solve

    def recording(a, b):
        try:
            x = solve(a, b)
        except np.linalg.LinAlgError:
            solves.append((len(b), None))
            raise
        solves.append((len(b), x))
        return x

    monkeypatch.setattr(np.linalg, "solve", recording)
    return solves


def test_exact_finish_rejects_a_singular_reduced_system(monkeypatch):
    # equal rows of both classes, both free, make two rows of the
    # reduced system negatives of each other
    (X, y), options = PROBLEMS["duplicates-across"]
    solves = recording_solves(monkeypatch)
    diag = assert_matches_wss2_reference(X, y, options, monkeypatch, finish=None)
    assert not diag["exact_finish"]
    assert any(x is None for _, x in solves)


def test_exact_finish_rejects_a_solution_outside_the_box(monkeypatch):
    (X, y), options = PROBLEMS["overlap-d3-C1"]
    X = np.asarray(X, dtype=np.float64)
    K = _poly_kernel(X, X, options["degree"], 1.0)
    signed = np.where(np.array(y) == "B", 1.0, -1.0)
    C = options["penalty"]
    # every point free at C / 2: the reduced system is the whole dual's
    solves = recording_solves(monkeypatch)
    assert _exact_finish(K, signed, np.full(len(y), 0.5 * C), C) is None
    (n, x), = solves
    assert n == len(y) + 1 and not np.all((x[:-1] > 0.0) & (x[:-1] < C))
    # the fit that reaches its update cap rejects every finish for that reason
    solves.clear()
    (X, y), options = PROBLEMS["sweep-cap"]
    diag = assert_matches_wss2_reference(X, y, options, monkeypatch, finish=None)
    assert not diag["exact_finish"]
    assert solves and all(
        not np.all((x[: n - 1] > 0.0) & (x[: n - 1] < options["penalty"]))
        for n, x in solves
    )


def test_exact_finish_rejects_a_product_that_is_not_finite():
    # K_FC (C y_C) of the two points at C overflows float64: the finish is
    # rejected, and without a numpy warning
    K = np.full((3, 3), 1e308)
    alpha = np.array([1.0, 1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _exact_finish(K, np.array([1.0, 1.0, -1.0]), alpha, 1.0) is None
