"""Four binary classifiers, each trained from scratch on numpy only.

A classifier is its kind, one of ``CLASSIFIER_KINDS``; each kind fits
one model, at fixed settings that are module constants:

LR        logistic regression minimising mean log-loss plus
          _LR_L2 / 2 * |w|^2 over the weights w (the intercept is not
          penalised; _LR_L2 = 1e-2 keeps the minimum finite on separable
          folds), fitted by damped Newton steps (IRLS).
LDA       Gaussian discriminant with a pooled covariance matrix.
QDA       Gaussian discriminant with per-class covariance matrices.
          Both pad each covariance diagonal by _RIDGE_SCALE * trace / f
          on f features (_RIDGE_SCALE = 1e-6).
SVM_POLY  soft-margin SVM with the kernel (x.z + _SVM_COEF0) **
          _SVM_DEGREE and the box 0 <= alpha <= _SVM_C (_SVM_COEF0 =
          1.0, _SVM_DEGREE = 3, _SVM_C = 1.0), trained by SMO with
          second-order working-set selection (WSS2, Fan, Chen & Lin
          2005, as in LIBSVM): each step updates the maximal violator i
          and the partner j that most decreases the dual's quadratic
          model, and the fit stops once the maximal violating pair is
          closer than _SVM_STOP = 1e-9. SMO finds the active set (which
          duals are free, at 0 and at C) long before it closes that
          gap, so at every m-th update on m rows the fit also solves
          the dual exactly on the current active set (solution
          polishing, as in OSQP, Stellato et al. 2020) and ends there
          if that solution stays inside the box and passes the same
          gap test (diagnostics ``exact_finish``). A rejected attempt
          leaves SMO's iterate as it was, and is not repeated while
          the active set stays the same. Badly scaled problems with a
          large C can still reach the cap of _SVM_UPDATES_PER_ROW * m =
          2000 m pair updates.

``train_group`` fits one kind on many problems (a run passes the
variants of all its reps' splits, each with its own labels; ``train`` is
a group of one), and each kind fits the problems that share a shape as
one stack of numpy calls:

- LR groups by row count and width. Each damped Newton step runs once
  on the stack (stacked margins, gradients and Hessians, one stacked
  ``solve``), and each problem halves its own step in the line search.
  A problem stops once its gradient norm is at most _LR_TOL = 1e-8,
  after _LR_MAX_ITER = 100 steps, or when its line search finds no
  decrease, which a singular Hessian's 0 direction never finds.
- LDA and QDA group by row count, width and class counts. A stable
  argsort of the signs gathers each problem's rows by class; the means,
  covariances, ridges and Cholesky factors are stacked, and a stack
  whose Cholesky fails escalates the ridge of each problem on its own.
- SVM_POLY groups by row count. One SMO loop steps the duals of every
  unfinished problem of a block in lockstep: it picks i, j and the gap
  of each by argmin/argmax over a (problems, m) block, with the index
  sets I_up/I_low kept as offsets (0 or an infinity) on the signed
  gradient, then makes each problem's scalar pair update. A block holds
  the (m, m) kernel and curvature of each of its problems, so it takes
  at most _SVM_BLOCK_BYTES of them and the problems beyond start
  another block (at 1200 rows one problem needs 23 MB).

A problem leaves its stack when its own fit stops, so a stack takes as
many steps as its slowest problem, and each problem's floats are those
of a fit on its own. ``decision_group`` scores models the same way,
over matrices of equal shape: one stacked ``@`` per LR group, and one
stacked ``solve`` against the Cholesky factors of both classes per
LDA/QDA group; SVM_POLY models score one at a time.
``TrainedModel.predict`` is a group of one.

Labels are arbitrary strings; the two classes are ordered lexically and
score ties resolve to the second class. Trained models report fit
diagnostics (iterations and convergence, losses, dual objective, KKT
residual, pair updates, whether an SVM fit ended on an exact finish). A
polynomial kernel that overflows float64, at fit or at predict, raises
DegenerateDataError, and so does an LDA/QDA distance that overflows at
predict (a test row far outside the training rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DegenerateDataError

CLASSIFIER_KINDS = ("LR", "LDA", "QDA", "SVM_POLY")

_LR_L2 = 1e-2  # LR's penalty on the squared weights (not the intercept)
_LR_MAX_ITER = 100  # LR takes at most this many Newton steps
_LR_TOL = 1e-8  # LR stops once its gradient norm is at most this
_RIDGE_SCALE = 1e-6  # LDA/QDA pad a covariance diagonal by this * trace / f
_SVM_DEGREE = 3  # SVM kernel (x.z + _SVM_COEF0) ** _SVM_DEGREE
_SVM_COEF0 = 1.0
_SVM_C = 1.0  # SVM box constraint 0 <= alpha <= _SVM_C
_SVM_STOP = 1e-9  # SVM stops once the maximal violating pair is this close
_SVM_UPDATES_PER_ROW = 2000  # SVM on m rows takes at most this * m pair updates
_SVM_TAU = 1e-12  # floor on a pair's curvature (zero for equal kernel rows)
_SVM_BLOCK_BYTES = 1 << 25  # kernel + curvature of one lockstep block (32 MiB)


@dataclass
class TrainedModel:
    """A fitted classifier: class pair, learned parameters, diagnostics."""

    kind: str
    classes: tuple[str, str]
    n_features: int
    params: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def predict(self, X) -> np.ndarray:
        """Predicted labels; a score >= 0 means the second class."""
        scores = decision_group([self], [X])[0]
        return np.where(scores >= 0.0, self.classes[1], self.classes[0])


def _groups(keys) -> list[list[int]]:
    """Indices of equal keys, each group and its members in input order."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _matvec(A, v):
    """A[k] @ v[k] for every k of a (p, m, n) and a (p, n) stack."""
    return (A @ v[:, :, None])[:, :, 0]


def _dots(a, b):
    """a[k] @ b[k] for every row k of two (p, n) stacks."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def decision_group(models, matrices) -> list[np.ndarray]:
    """Raw scores of models[k] on matrices[k]; >= 0 means the second class.

    Models of one kind score each group of equally shaped matrices
    together: one stacked ``@`` for LR, one stacked ``solve`` against
    the Cholesky factors of both classes of every model for LDA and QDA,
    and one kernel per model for SVM_POLY. Each model's scores equal
    those of a call on its own.
    """
    models = list(models)
    matrices = [np.asarray(X, dtype=np.float64) for X in matrices]
    if len(models) != len(matrices):
        raise ValueError(f"{len(models)} models but {len(matrices)} feature matrices")
    for model, X in zip(models, matrices):
        if X.ndim != 2 or X.shape[1] != model.n_features:
            raise ValueError(
                f"expected shape (m, {model.n_features}), got {X.shape}"
            )
    scores = [None] * len(models)
    for group in _groups((m.kind, X.shape) for m, X in zip(models, matrices)):
        score = _SCORES[models[group[0]].kind]
        stacked = score([models[k] for k in group], [matrices[k] for k in group])
        for k, row in zip(group, stacked):
            scores[k] = row
    return scores


def _encode_labels(y) -> tuple[tuple[str, str], np.ndarray]:
    """The two classes in sorted order, and -1.0/+1.0 for each label."""
    labels = np.asarray(y).ravel().astype(str, copy=False)
    classes = sorted(set(labels.tolist()))
    if len(classes) == 1:
        raise ValueError("training data contains a single class")
    if len(classes) != 2:
        raise ValueError(
            f"training data must contain exactly 2 classes, got {len(classes)}"
        )
    return (classes[0], classes[1]), np.where(labels == classes[1], 1.0, -1.0)


def _group_key(kind, X, signed):
    """Problems with equal keys fit as one stack: LR by row count and
    width, LDA and QDA also by class counts, SVM_POLY by row count
    alone (its duals see the rows only through their kernel)."""
    if kind == "SVM_POLY":
        return len(signed)
    if kind == "LR":
        return X.shape
    return X.shape + (int(np.count_nonzero(signed < 0)),)


def _check_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"feature matrix must be 2D, got {X.ndim}D")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains non-finite values")
    return X


def train(kind: str, X, y) -> TrainedModel:
    """Fit the classifier of this kind on (X, y)."""
    return train_group(kind, [X], [y])[0]


def train_group(kind: str, matrices, labels) -> list[TrainedModel]:
    """Fit the classifier of this kind on each feature matrix against its
    own label vector. Raise ValueError unless kind is one of
    ``CLASSIFIER_KINDS``.

    ``labels[k]`` holds one label per row of ``matrices[k]``; the
    problems may differ in rows, labels and columns, e.g. the variants
    of every rep's split at several rates. Each kind fits every group of
    problems with equal keys (see ``_group_key``) in one loop of stacked
    numpy calls. Model k equals ``train(kind, matrices[k], labels[k])``
    bit for bit.
    """
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"kind must be one of {CLASSIFIER_KINDS}, got {kind!r}")
    matrices = [_check_matrix(X) for X in matrices]
    labels = list(labels)
    if len(labels) != len(matrices):
        raise ValueError(
            f"{len(matrices)} feature matrices but {len(labels)} label vectors"
        )
    # the variants of one split pass one label vector: encode it once
    by_vector = {}
    for y in labels:
        if id(y) not in by_vector:
            by_vector[id(y)] = _encode_labels(y)
    encoded = [by_vector[id(y)] for y in labels]
    for X, (_, signed) in zip(matrices, encoded):
        if X.shape[0] != len(signed):
            raise ValueError(f"{X.shape[0]} rows but {len(signed)} labels")
    signs = [signed for _, signed in encoded]
    fit = _FITS[kind]
    fits = [None] * len(matrices)
    for group in _groups(_group_key(kind, X, s) for X, s in zip(matrices, signs)):
        group_signs = np.stack([signs[k] for k in group])
        stacked = fit([matrices[k] for k in group], group_signs)
        for k, one in zip(group, stacked):
            fits[k] = one
    return [
        TrainedModel(
            kind=kind,
            classes=classes,
            n_features=X.shape[1],
            params=params,
            diagnostics=diag,
        )
        for X, (classes, _), (params, diag) in zip(matrices, encoded, fits)
    ]


# -- logistic regression ----------------------------------------------------


def _logistic_objectives(margins, w, penalty):
    """Mean log-loss plus 0.5 * sum(penalty * w^2) of each stacked
    problem; penalty is l2 for each weight and 0 for the intercept.
    (A sum over the m rows divided by m is np.mean, bit for bit.)"""
    m = margins.shape[1]
    return np.logaddexp(0.0, -margins).sum(axis=1) / m + _dots(0.5 * w, penalty * w)


def _fit_logistic(matrices, signed):
    """Damped Newton (IRLS) fits of p problems with equal (m, f) shapes.

    Every unfinished problem takes each Newton step at once: stacked
    margins, gradients and (p, f + 1, f + 1) Hessians, one stacked
    solve, and a line search in which each problem halves its own step.
    A problem leaves the stack once its gradient norm is <= _LR_TOL,
    after _LR_MAX_ITER steps, or when its line search finds no decrease,
    as on a singular Hessian; the problems still in the stack have all
    taken the same number of steps. Each problem's floats are those of a fit on
    its own.
    """
    X = np.stack(matrices)
    p, m, f = X.shape
    Xb = np.concatenate([X, np.ones((p, m, 1))], axis=2)
    penalty = np.full(f + 1, _LR_L2)
    penalty[-1] = 0.0
    penalty_matrix = np.diag(penalty)
    w = np.zeros((p, f + 1))
    margins = signed * _matvec(Xb, w)
    loss = _logistic_objectives(margins, w, penalty)
    live = np.arange(p)  # input position of each problem in the stack
    fits = [None] * p
    n_iter = 0

    def leave(go, *rows):
        """Record the fits of the problems not in go; keep the rest."""
        if go.all():
            return rows
        done = ~go
        for k, wk, lk, gk in zip(
            live[done], w[done], loss[done].tolist(), grad_norm[done].tolist()
        ):
            fits[k] = (
                {"weights": wk},
                {
                    "n_iter": n_iter,
                    "final_loss": lk,  # the penalised objective
                    "grad_norm": gk,
                    "converged": gk <= _LR_TOL,
                },
            )
        return [a[go] for a in rows]

    while len(live):
        sig = 0.5 * (1.0 + np.tanh(-0.5 * margins))  # sigmoid(-margins), stable
        grad = -_matvec(Xb.transpose(0, 2, 1), signed * sig) / m + penalty * w
        grad_norm = np.sqrt(_dots(grad, grad))
        go = ~((grad_norm <= _LR_TOL) | (n_iter >= _LR_MAX_ITER))
        live, w, loss, grad_norm, Xb, signed, sig, grad = leave(
            go, live, w, loss, grad_norm, Xb, signed, sig, grad
        )
        if not len(live):
            break
        weighted = Xb.transpose(0, 2, 1) * (sig * (1.0 - sig))[:, None, :]
        hess = weighted @ Xb / m + penalty_matrix
        direction = _newton_directions(hess, grad)
        trial, margins, trial_loss = _line_search(
            w, loss, direction, _dots(grad, direction), Xb, signed, penalty
        )
        go = trial_loss < loss  # else no decrease at float precision, or a 0 step
        live, w, loss, grad_norm, Xb, signed, trial, margins, trial_loss = leave(
            go, live, w, loss, grad_norm, Xb, signed, trial, margins, trial_loss
        )
        w, loss = trial, trial_loss
        n_iter += 1
    return fits


def _newton_directions(hess, grad):
    """-hess[k]^-1 grad[k] of each stacked problem, or 0 where hess[k] is
    singular (its curvature underflowed)."""
    try:
        return -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass  # one Hessian or more is singular: solve them one at a time
    direction = np.zeros_like(grad)
    for k in range(len(grad)):
        try:
            direction[k] = -np.linalg.solve(hess[k], grad[k][:, None])[:, 0]
        except np.linalg.LinAlgError:
            pass  # direction[k] stays 0
    return direction


def _line_search(w, loss, direction, slope, Xb, signed, penalty):
    """Damping: each problem halves its Newton step, from 1, until its
    objective decreases by at least 1e-4 * step * slope, at most 40
    times. Returns each problem's last trial point, its margins and its
    objective."""
    step = np.ones(len(w))
    trial, margins = np.empty_like(w), np.empty_like(signed)
    trial_loss = np.empty_like(loss)
    rows = np.arange(len(w))  # the problems still halving their step
    for _ in range(40):
        at = rows if len(rows) < len(w) else slice(None)  # no copies at first
        trial[at] = w[at] + step[at, None] * direction[at]
        margins[at] = signed[at] * _matvec(Xb[at], trial[at])
        trial_loss[at] = _logistic_objectives(margins[at], trial[at], penalty)
        enough = trial_loss[at] <= loss[at] + 1e-4 * step[at] * slope[at]
        rows = rows[~enough]
        if not len(rows):
            break
        step[rows] *= 0.5
    return trial, margins, trial_loss


def _logistic_scores(models, matrices):
    """LR scores of p models on p matrices of equal shape, stacked."""
    w = np.stack([model.params["weights"] for model in models])
    return _matvec(np.stack(matrices), w[:, :-1]) + w[:, -1:]


# -- Gaussian discriminants -------------------------------------------------


def _fit_gaussian(matrices, signed, pooled):
    """LDA or QDA fits of p problems with equal (m, f) shapes and class
    counts.

    A stable argsort of the signs gathers each problem's rows by class,
    negatives first and each class in row order. The class means and
    scatter matrices are stacked over the problems, and the covariances
    (one pooled per problem for LDA, two for QDA) take their ridges and
    Cholesky factors in one stack. Each problem's floats are those of a
    fit on its own.
    """
    X = np.stack(matrices)
    p, m, f = X.shape
    order = np.argsort(signed, axis=1, kind="stable")
    rows = X[np.arange(p)[:, None], order]
    n_neg = int(np.count_nonzero(signed[0] < 0))
    counts = [n_neg, m - n_neg]
    by_class = [rows[:, :n_neg], rows[:, n_neg:]]
    # a sum over the rows divided by their count is np.mean, bit for bit
    means = [x.sum(axis=1) / n for x, n in zip(by_class, counts)]
    centered = [x - mu[:, None, :] for x, mu in zip(by_class, means)]
    scatter = [c.transpose(0, 2, 1) @ c for c in centered]
    if pooled:
        covs = (scatter[0] + scatter[1]) / max(m - 2, 1)
    else:
        covs = np.stack(
            [scatter[c] / max(counts[c] - 1, 1) for c in range(2)], axis=1
        ).reshape(2 * p, f, f)
    traces = np.trace(covs, axis1=1, axis2=2).tolist()
    eps = [_RIDGE_SCALE * trace / f for trace in traces]
    chols, used_eps = _regularized_cholesky(covs, eps)
    # contiguous, as the np.diag of one factor: log takes the same loop
    diagonals = np.diagonal(chols, axis1=1, axis2=2).copy()
    log_dets = (2.0 * np.sum(np.log(diagonals), axis=1)).tolist()
    # covariance j of problem k is row k * per + j; LDA's serves both classes
    per = len(covs) // p
    log_priors = [np.log(counts[c] / m) for c in range(2)]
    return [
        (
            {
                "means": [means[0][k], means[1][k]],
                "chol": [chols[k * per], chols[k * per + per - 1]],
                "log_det": [log_dets[k * per], log_dets[k * per + per - 1]],
                "log_priors": list(log_priors),
            },
            {
                "ridge": [used_eps[k * per], used_eps[k * per + per - 1]],
                "class_counts": list(counts),
            },
        )
        for k in range(p)
    ]


def _regularized_cholesky(covs, eps):
    """Cholesky factors of covs[k] + eps[k] I over a (p, f, f) stack,
    with each ridge floored at 0, and the ridges used.

    When a padded matrix is not positive definite, its problem escalates
    its own ridge tenfold (from at least 1e-12), 24 tries at most.
    """
    eye = np.eye(covs.shape[-1])
    used = [max(e, 0.0) for e in eps]
    try:
        return np.linalg.cholesky(covs + np.array(used)[:, None, None] * eye), used
    except np.linalg.LinAlgError:
        pass  # one matrix or more needs a larger ridge
    chols = np.empty_like(covs)
    for k, cov in enumerate(covs):
        for _ in range(24):
            try:
                chols[k] = np.linalg.cholesky(cov + used[k] * eye)
                break
            except np.linalg.LinAlgError:
                used[k] = max(used[k] * 10.0, 1e-12)
        else:
            raise DegenerateDataError("covariance matrix is not positive definite")
    return chols, used


def _gaussian_scores(models, matrices):
    """LDA/QDA scores of p models on p matrices of equal shape: one
    stacked solve covers both classes of every model."""
    X = np.stack(matrices)
    params = [model.params for model in models]
    means = np.array([P["means"] for P in params])  # (p, 2, f)
    chols = np.array([P["chol"] for P in params])  # (p, 2, f, f)
    log_dets = np.array([P["log_det"] for P in params])[:, :, None]
    log_priors = np.array([P["log_priors"] for P in params])[:, :, None]
    diff = X[:, None] - means[:, :, None, :]  # (p, 2, n, f)
    z = np.linalg.solve(chols, diff.transpose(0, 1, 3, 2))
    with np.errstate(over="ignore"):  # raised below, without a warning first
        quad = np.sum(z * z, axis=2)  # (p, 2, n)
    if not np.isfinite(quad).all():
        raise DegenerateDataError("the LDA/QDA distance of a row overflows float64")
    delta = -0.5 * log_dets - 0.5 * quad + log_priors
    return delta[:, 1] - delta[:, 0]


# -- polynomial-kernel SVM --------------------------------------------------


def _svm_scores(models, matrices):
    """SVM scores of p models on p matrices, one kernel per model."""
    scores = []
    for model, x in zip(models, matrices):
        sv = model.params["support_vectors"]
        coef = model.params["dual_coef"]  # alpha_i * y_i, support rows only
        k = _poly_kernel(x, sv, _SVM_DEGREE, _SVM_COEF0)
        scores.append(k @ coef + model.params["bias"])
    return scores


def _poly_kernel(A, B, degree, coef0):
    """(A B^T + coef0)^degree; DegenerateDataError where it overflows."""
    with np.errstate(over="ignore"):  # raised below, without a warning first
        k = (A @ B.T + coef0) ** degree
    if not np.isfinite(k).all():
        raise DegenerateDataError("the polynomial kernel overflows float64")
    return k


def _kkt_violation(alpha, margins, penalty):
    """Per-point KKT violation for the dual: how far y_i f(x_i) strays
    from the side its alpha requires."""
    v = np.zeros_like(alpha)
    at_zero = alpha <= 0.0
    at_c = alpha >= penalty
    free = ~(at_zero | at_c)
    v[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    v[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    v[free] = np.abs(margins[free] - 1.0)
    return v


def _fit_svm(matrices, signed):
    """Solve the duals of p problems with m rows each by SMO, in
    lockstep blocks taken in input order; each block holds at most
    _SVM_BLOCK_BYTES of kernel and curvature (16 m^2 bytes per problem,
    and at least one problem)."""
    m = signed.shape[1]
    size = max(1, _SVM_BLOCK_BYTES // (16 * m * m))
    return [
        fit
        for at in range(0, len(matrices), size)
        for fit in _solve_svm_block(matrices[at : at + size], signed[at : at + size])
    ]


def _solve_svm_block(matrices, signed):
    """Solve the duals of p problems with m rows each, labelled by the
    -1/+1 rows of the (p, m) array signed, by SMO with second-order
    working-set selection (WSS2 of Fan, Chen & Lin 2005, as in LIBSVM).

    The problems run in lockstep: each step makes one pair update in
    every problem still in the block, and a problem leaves the block
    once its maximal violating pair is closer than _SVM_STOP, after
    _SVM_UPDATES_PER_ROW * m pair updates, or at an m-th update where
    ``_exact_finish`` accepts the exact solution on its active set
    (tried after the gap and cap tests, unless the problem's last
    attempt was on the same active set). Block row k holds yg = y * G
    of problem block[k], the dual gradient G = Q alpha - 1 times the
    labels, i.e. the bias-free errors K (alpha * y) - y; each pair update
    moves it by two kernel rows. The kernel and curvature stacks stay in
    place, so the block's memory is theirs plus O(p m). Each problem
    does the float operations of a fit on its own. A kernel that
    overflows raises DegenerateDataError before the loop.
    """
    p, m = signed.shape
    K, curv = np.empty((p, m, m)), np.empty((p, m, m))
    for k, X in enumerate(matrices):
        K[k] = _poly_kernel(X, X, _SVM_DEGREE, _SVM_COEF0)
        # curvature K_ii + K_tt - 2 K_it of every pair, floored below
        diag = K[k].diagonal()
        np.add(diag[:, None], diag, out=curv[k])
        curv[k] -= 2.0 * K[k]
    np.maximum(curv, _SVM_TAU, out=curv)
    k_rows, curv_rows = K.reshape(p * m, m), curv.reshape(p * m, m)
    C = _SVM_C
    ys = signed.tolist()
    alphas = [[0.0] * m for _ in range(p)]
    yg = -signed
    # I_up (alpha may move along +y) and I_low (along -y) as offsets that
    # yg - offset sends to +inf outside I_up and to -inf outside I_low;
    # subtracting 0.0 keeps the sign of a zero, so yg[i] passes unchanged
    up_off = np.where(signed > 0, 0.0, -np.inf)
    low_off = np.where(signed > 0, np.inf, 0.0)
    block = list(range(p))
    # (g_max, g_min, n_updates, exact_finish) where each problem stopped
    ends = [None] * p
    # the active set of each problem's last exact-finish attempt, as its
    # I_up/I_low offsets; an attempt depends on nothing else, so it is not
    # repeated on an equal one
    tried = [None] * p
    cap = _SVM_UPDATES_PER_ROW * m
    n_updates = 0
    while block:
        # row t of block problem k is element k * m + t of the flat yg and
        # offsets, and that plus shift[k] is its row in k_rows and curv_rows
        q = len(block)
        starts = np.arange(0, q * m, m)
        shift = np.array(block) * m - starts
        pair_shift = np.concatenate((shift, shift))
        block_alphas = [alphas[k] for k in block]
        block_ys = [ys[k] for k in block]
        up_flat, low_flat = up_off.reshape(-1), low_off.reshape(-1)
        finishes = [None] * q
        while True:
            # i maximises -y G over I_up, at g_max = -up_i; the gap closes
            # against min over I_low, g_min = -low_l, so g_max - g_min and
            # g_max + yg are low_l - up_i and yg - up_i
            up_yg = yg - up_off
            t_i = up_yg.argmin(axis=1)
            i = starts + t_i
            up_i = up_yg.take(i)
            low_yg = yg - low_off
            low_l = low_yg.take(starts + low_yg.argmax(axis=1))
            gaps = (low_l - up_i).tolist()
            if n_updates >= cap or min(gaps) < _SVM_STOP:
                break
            if n_updates % m == 0:
                for r, (k, alpha) in enumerate(zip(block, block_alphas)):
                    active = up_off[r].tobytes() + low_off[r].tobytes()
                    if active != tried[k]:
                        tried[k] = active
                        finishes[r] = _exact_finish(K[k], signed[k], np.array(alpha), C)
                if any(finish is not None for finish in finishes):
                    break
            # j maximises b^2 / a over the I_low points that violate with i
            # (b > 0); the gap >= _SVM_STOP guarantees one exists, so zeroing
            # b <= 0 instead of excluding it selects the same j
            a = curv_rows.take(i + shift, axis=0)
            b = yg - up_i[:, None]
            np.maximum(b, 0.0, out=b)
            b *= b
            b /= a
            b -= low_off
            t_j = b.argmax(axis=1)
            j = starts + t_j
            pair = np.concatenate((i, j))
            yg_pair = yg.take(pair).tolist()
            steps, ups, lows = [0.0] * (2 * q), [0.0] * (2 * q), [0.0] * (2 * q)
            for k, (alpha, y, ti, tj, a_ij) in enumerate(
                zip(
                    block_alphas, block_ys, t_i.tolist(), t_j.tolist(),
                    a.take(j).tolist(),
                )
            ):
                y_i, y_j = y[ti], y[tj]
                old_i, old_j = alpha[ti], alpha[tj]
                new_i, new_j = alpha[ti], alpha[tj] = _pair_update(
                    old_i, old_j, y_i * yg_pair[k], y_j * yg_pair[q + k],
                    y_i != y_j, a_ij, C,
                )
                steps[k], steps[q + k] = y_i * (new_i - old_i), y_j * (new_j - old_j)
                ups[k], lows[k] = _offsets(new_i, y_i, C)
                ups[q + k], lows[q + k] = _offsets(new_j, y_j, C)
            moves = np.array(steps)[:, None] * k_rows.take(pair + pair_shift, axis=0)
            yg += moves[:q]
            yg += moves[q:]
            up_flat[pair] = ups
            low_flat[pair] = lows
            n_updates += 1
        for k, up, low, gap, finish in zip(
            block, up_i.tolist(), low_l.tolist(), gaps, finishes
        ):
            if finish is not None:
                alphas[k], g_max, g_min = finish
                ends[k] = (g_max, g_min, n_updates, True)
            elif n_updates >= cap or gap < _SVM_STOP:
                ends[k] = (-up, -low, n_updates, False)
        stopped = [ends[k] is not None for k in block]
        block = [k for k, stop in zip(block, stopped) if not stop]
        keep = np.logical_not(stopped)
        yg, up_off, low_off = yg[keep], up_off[keep], low_off[keep]
    return [
        _svm_fit(X, K[k], signed[k], np.array(alphas[k]), *ends[k], C)
        for k, X in enumerate(matrices)
    ]


def _exact_finish(K, signed, alpha, C):
    """The dual solved exactly on the active set of the iterate alpha, or
    None if alpha has no free point or that solution is rejected.

    The points with 0 < alpha < C are free (F) and those at C stay
    there; (alpha_F, b) solves the (|F| + 1)^2 KKT system
    [[Q_FF, y_F], [y_F^T, 0]] [alpha_F; b] = [1 - y_F (K_FC C y_C);
    -C sum(y_C)] with Q = y y^T * K. The solution is accepted only if
    every alpha_F lies strictly inside (0, C) and its maximal violating
    pair, from a fresh yg = K (alpha * y) - y, is closer than _SVM_STOP.
    Returns the accepted alpha with its g_max and g_min.
    """
    free = (alpha > 0.0) & (alpha < C)
    if not free.any():
        return None
    at_c = alpha >= C
    y_f = signed[free]
    n = len(y_f)
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = K[np.ix_(free, free)] * y_f[:, None] * y_f
    system[:n, n] = system[n, :n] = y_f
    rhs = np.empty(n + 1)
    bound = C * signed[at_c]  # alpha * y of the points at C
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: rejected
        rhs[:n] = 1.0 - y_f * (K[np.ix_(free, at_c)] @ bound)
        rhs[n] = -bound.sum()
        try:
            alpha_f = np.linalg.solve(system, rhs)[:n]
        except np.linalg.LinAlgError:
            return None  # singular, e.g. equal rows of both classes are free
        if not (np.all(alpha_f > 0.0) and np.all(alpha_f < C)):
            return None  # the active set is wrong, or the solution is not finite
        alpha = np.where(at_c, C, 0.0)
        alpha[free] = alpha_f
        score = signed - K @ (alpha * signed)  # -yg
    positive = signed > 0
    up = np.where(positive, alpha < C, alpha > 0.0)
    low = np.where(positive, alpha > 0.0, alpha < C)
    g_max, g_min = float(score[up].max()), float(score[low].min())
    if not g_max - g_min < _SVM_STOP:
        return None  # not converged yet, or not finite
    return alpha, g_max, g_min


def _offsets(alpha, y, C):
    """I_up and I_low offsets of a point with coefficient alpha, label y."""
    below, above = alpha < C, alpha > 0.0
    if y > 0:
        return (0.0 if below else -np.inf), (0.0 if above else np.inf)
    return (0.0 if above else -np.inf), (0.0 if below else np.inf)


def _svm_fit(X, K, signed, alpha, g_max, g_min, n_updates, exact_finish, C):
    """Parameters and diagnostics of one solved dual; with no support
    vector the model scores every row at its bias."""
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
        "exact_finish": exact_finish,
    }
    return params, diag


def _pair_update(ai, aj, gi, gj, differ, a, C):
    """LIBSVM's analytic update of (alpha_i, alpha_j) along the equality
    constraint, given their gradients gi, gj and curvature a. A variable
    pushed out of [0, C] is set to that bound exactly, and its partner
    takes the rest of the conserved sum or difference."""
    if differ:
        delta = (-gi - gj) / a
        diff = ai - aj
        ai, aj = ai + delta, aj + delta
        if diff > 0.0:
            if aj < 0.0:
                ai, aj = diff, 0.0
            if ai > C:
                ai, aj = C, C - diff
        else:
            if ai < 0.0:
                ai, aj = 0.0, -diff
            if aj > C:
                ai, aj = C + diff, C
    else:
        delta = (gi - gj) / a
        total = ai + aj
        ai, aj = ai - delta, aj + delta
        if total > C:
            if ai > C:
                ai, aj = C, total - C
            if aj > C:
                ai, aj = total - C, C
        else:
            if aj < 0.0:
                ai, aj = total, 0.0
            if ai < 0.0:
                ai, aj = 0.0, total
    return ai, aj


_FITS = {
    "LR": _fit_logistic,
    "LDA": partial(_fit_gaussian, pooled=True),
    "QDA": partial(_fit_gaussian, pooled=False),
    "SVM_POLY": _fit_svm,
}
_SCORES = {
    "LR": _logistic_scores,
    "LDA": _gaussian_scores,
    "QDA": _gaussian_scores,
    "SVM_POLY": _svm_scores,
}
