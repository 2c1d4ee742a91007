"""Four binary classifiers, each trained from scratch on numpy only.

LR        L2-penalised logistic regression (intercept unpenalised),
          fitted by damped Newton steps (IRLS).
LDA       Gaussian discriminant with a pooled covariance matrix.
QDA       Gaussian discriminant with per-class covariance matrices.
SVM_POLY  soft-margin SVM with a polynomial kernel, trained by SMO with
          second-order working-set selection (WSS2, Fan, Chen & Lin
          2005, as in LIBSVM): each step updates the maximal violator i
          and the partner j that most decreases the dual's quadratic
          model, and the fit stops once the maximal violating pair is
          closer than _SVM_STOP = 1e-9. One loop solves, in lockstep,
          the duals of every problem of a ``train_group`` call with the
          same row count (``train`` is a group of one): a run passes the
          variants of all its reps' splits, each with its own labels.
          Each step picks i, j and the gap of every unfinished problem
          by argmin/argmax over a (problems, m) block, with the index
          sets I_up/I_low kept as offsets (0 or an infinity) on the
          signed gradient, then makes each problem's scalar pair update.
          The block's numpy calls are shared, so p problems cost little
          more per step than one, and the loop takes as many steps as
          its slowest problem; each problem's floats are those of a fit
          on its own, and a problem leaves the block when it stops. A
          block holds the (m, m) kernel and curvature of each of its
          problems, so it takes at most _SVM_BLOCK_BYTES of them and
          the problems beyond start another block (at 1200 rows one
          problem needs 23 MB).

Labels are arbitrary strings; the two classes are ordered lexically and
score ties resolve to the second class. Trained models report fit
diagnostics (iterations and convergence, losses, dual objective, KKT
residual). A polynomial kernel that overflows float64, at fit or at
predict, raises DegenerateDataError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, check_integer

CLASSIFIER_KINDS = ("LR", "LDA", "QDA", "SVM_POLY")

_ALPHA_EPS = 1e-12  # below this a dual coefficient counts as zero
_SVM_STOP = 1e-9  # SVM stops once the maximal violating pair is this close
_SVM_TAU = 1e-12  # floor on a pair's curvature (zero for equal kernel rows)
_SVM_BLOCK_BYTES = 1 << 25  # kernel + curvature of one lockstep block (32 MiB)


@dataclass(frozen=True)
class ClassifierSpec:
    """Which classifier to train, plus its hyperparameters.

    LR minimises mean log-loss + l2/2 * |w|^2 over the weights w (the
    intercept is not penalised), taking at most max_iter Newton steps
    and stopping once the gradient norm is <= tol; l2 > 0 keeps the
    minimum finite on separable folds. ridge pads the (pooled or
    per-class) covariance diagonal for LDA/QDA, with None meaning
    1e-6 * trace/n_features; degree/coef0/penalty shape the SVM kernel
    (x.z + coef0)^degree and its box constraint. The SVM takes at most
    max_sweeps * m pair updates on m training rows and reports
    n_sweeps = ceil(n_updates / m).
    """

    kind: str
    l2: float = 1e-2
    max_iter: int = 100
    tol: float = 1e-8
    ridge: float | None = None
    degree: int = 3
    coef0: float = 1.0
    penalty: float = 1.0
    max_sweeps: int = 2000

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(
                f"kind must be one of {CLASSIFIER_KINDS}, got {self.kind!r}"
            )
        if not self.l2 > 0:
            raise ValueError("l2 must be positive")
        for name in ("max_iter", "degree", "max_sweeps"):
            check_integer(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.ridge is not None and not 0 <= self.ridge < math.inf:
            raise ValueError("ridge must be None or finite and >= 0")
        if not 0 < self.penalty < math.inf:
            raise ValueError("penalty must be finite and positive")
        if not (math.isfinite(self.coef0) and math.isfinite(self.tol)):
            raise ValueError("coef0 and tol must be finite")


@dataclass
class TrainedModel:
    """A fitted classifier: class pair, learned parameters, diagnostics."""

    spec: ClassifierSpec
    classes: tuple[str, str]
    n_features: int
    params: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def decision_function(self, X) -> np.ndarray:
        """Raw scores; >= 0 means the second class."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected shape (m, {self.n_features}), got {X.shape}"
            )
        kind = self.spec.kind
        if kind == "LR":
            w = self.params["weights"]
            return X @ w[:-1] + w[-1]
        if kind in ("LDA", "QDA"):
            return self._gaussian_scores(X)
        return self._svm_scores(X)

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return np.where(scores >= 0.0, self.classes[1], self.classes[0])

    def _gaussian_scores(self, X: np.ndarray) -> np.ndarray:
        delta = []
        for c in range(2):
            mu = self.params["means"][c]
            chol = self.params["chol"][c]
            log_det = self.params["log_det"][c]
            diff = (X - mu).T
            z = np.linalg.solve(chol, diff)
            quad = np.sum(z * z, axis=0)
            delta.append(-0.5 * log_det - 0.5 * quad + self.params["log_priors"][c])
        return delta[1] - delta[0]

    def _svm_scores(self, X: np.ndarray) -> np.ndarray:
        sv = self.params["support_vectors"]
        coef = self.params["dual_coef"]  # alpha_i * y_i, support rows only
        k = _poly_kernel(X, sv, self.spec.degree, self.spec.coef0)
        return k @ coef + self.params["bias"]


def _encode_labels(y) -> tuple[tuple[str, str], np.ndarray]:
    labels = [str(v) for v in np.asarray(y).ravel()]
    classes = sorted(set(labels))
    if len(classes) == 1:
        raise ValueError("training data contains a single class")
    if len(classes) != 2:
        raise ValueError(
            f"training data must contain exactly 2 classes, got {len(classes)}"
        )
    signed = np.array([1.0 if v == classes[1] else -1.0 for v in labels])
    return (classes[0], classes[1]), signed


def _check_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"feature matrix must be 2D, got {X.ndim}D")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix contains non-finite values")
    return X


def train(spec: ClassifierSpec, X, y) -> TrainedModel:
    """Fit the classifier named by spec on (X, y)."""
    return train_group(spec, [X], [y])[0]


def train_group(spec: ClassifierSpec, matrices, labels) -> list[TrainedModel]:
    """Fit spec on each feature matrix against its own label vector.

    ``labels[k]`` holds one label per row of ``matrices[k]``; the
    problems may differ in rows, labels and columns, e.g. the variants
    of every rep's split at several rates. SVM_POLY solves the duals of
    the problems with equal row counts in one lockstep loop, in blocks
    of at most _SVM_BLOCK_BYTES of kernel and curvature; the other kinds
    fit one matrix at a time. Model k equals
    ``train(spec, matrices[k], labels[k])`` bit for bit.
    """
    matrices = [_check_matrix(X) for X in matrices]
    labels = list(labels)
    if len(labels) != len(matrices):
        raise ValueError(
            f"{len(matrices)} feature matrices but {len(labels)} label vectors"
        )
    encoded = [_encode_labels(y) for y in labels]
    for X, (_, signed) in zip(matrices, encoded):
        if X.shape[0] != len(signed):
            raise ValueError(f"{X.shape[0]} rows but {len(signed)} labels")
    signs = [signed for _, signed in encoded]
    if spec.kind == "SVM_POLY":
        fits = _train_svm(spec, matrices, signs)
    else:
        fit = _train_logistic if spec.kind == "LR" else _train_gaussian
        fits = [fit(spec, X, signed) for X, signed in zip(matrices, signs)]
    return [
        TrainedModel(
            spec=spec,
            classes=classes,
            n_features=X.shape[1],
            params=params,
            diagnostics=diag,
        )
        for X, (classes, _), (params, diag) in zip(matrices, encoded, fits)
    ]


# -- logistic regression ----------------------------------------------------


def _logistic_objective(w, Xb, signed, penalty):
    """Mean log-loss plus 0.5 * sum(penalty * w^2); penalty is l2 for
    each weight and 0 for the intercept."""
    margins = signed * (Xb @ w)
    return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * w @ (penalty * w))


def _train_logistic(spec, X, signed):
    m = X.shape[0]
    Xb = np.hstack([X, np.ones((m, 1))])
    penalty = np.full(Xb.shape[1], spec.l2)
    penalty[-1] = 0.0
    w = np.zeros(Xb.shape[1])
    loss = _logistic_objective(w, Xb, signed, penalty)
    n_iter = 0
    while True:
        margins = signed * (Xb @ w)
        sig = 0.5 * (1.0 + np.tanh(-0.5 * margins))  # sigmoid(-margins), stable
        grad = -(Xb.T @ (signed * sig)) / m + penalty * w
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= spec.tol or n_iter >= spec.max_iter:
            break
        hess = (Xb.T * (sig * (1.0 - sig))) @ Xb / m + np.diag(penalty)
        try:
            direction = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break  # curvature underflowed; keep the last iterate
        # damping: halve the Newton step until the objective decreases enough
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(40):
            trial = w + step * direction
            trial_loss = _logistic_objective(trial, Xb, signed, penalty)
            if trial_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        if not trial_loss < loss:
            break  # no further decrease at float precision
        w, loss = trial, trial_loss
        n_iter += 1
    return (
        {"weights": w},
        {
            "n_iter": n_iter,
            "final_loss": loss,  # the penalised objective
            "grad_norm": grad_norm,
            "converged": grad_norm <= spec.tol,
        },
    )


# -- Gaussian discriminants -------------------------------------------------


def _regularized_cholesky(cov, eps, n_features):
    attempt = max(eps, 0.0)
    for _ in range(24):
        try:
            chol = np.linalg.cholesky(cov + attempt * np.eye(n_features))
            return chol, attempt
        except np.linalg.LinAlgError:
            attempt = max(attempt * 10.0, 1e-12)
    raise DegenerateDataError("covariance matrix is not positive definite")


def _train_gaussian(spec, X, signed):
    m, f = X.shape
    masks = [signed < 0, signed > 0]
    counts = [int(np.sum(mask)) for mask in masks]
    means = [X[mask].mean(axis=0) for mask in masks]
    centered = [X[mask] - means[c] for c, mask in enumerate(masks)]
    if spec.kind == "LDA":
        pooled = sum(c.T @ c for c in centered) / max(m - 2, 1)
        covs = [pooled, pooled]
    else:
        covs = [
            centered[c].T @ centered[c] / max(counts[c] - 1, 1) for c in range(2)
        ]
    chols, log_dets, used_eps = [], [], []
    for cov in covs:
        eps = spec.ridge
        if eps is None:
            eps = 1e-6 * float(np.trace(cov)) / f
        chol, eps = _regularized_cholesky(cov, eps, f)
        chols.append(chol)
        log_dets.append(2.0 * float(np.sum(np.log(np.diag(chol)))))
        used_eps.append(eps)
    params = {
        "means": means,
        "chol": chols,
        "log_det": log_dets,
        "log_priors": [np.log(counts[c] / m) for c in range(2)],
    }
    return params, {"ridge": used_eps, "class_counts": counts}


# -- polynomial-kernel SVM --------------------------------------------------


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
    at_zero = alpha <= _ALPHA_EPS
    at_c = alpha >= penalty - _ALPHA_EPS
    free = ~(at_zero | at_c)
    v[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    v[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    v[free] = np.abs(margins[free] - 1.0)
    return v


def _train_svm(spec, matrices, signs):
    """Solve the dual of each (matrix, signed labels) problem by SMO.

    Problems with equal row counts m share lockstep blocks, in input
    order; each block holds at most _SVM_BLOCK_BYTES of kernel and
    curvature (16 m^2 bytes per problem, and at least one problem).
    """
    by_rows: dict[int, list[int]] = {}
    for k, signed in enumerate(signs):
        by_rows.setdefault(len(signed), []).append(k)
    fits = [None] * len(matrices)
    for m, problems in by_rows.items():
        size = max(1, _SVM_BLOCK_BYTES // (16 * m * m))
        for at in range(0, len(problems), size):
            block = problems[at : at + size]
            solved = _solve_svm_block(
                spec, [matrices[k] for k in block], [signs[k] for k in block]
            )
            for k, fit in zip(block, solved):
                fits[k] = fit
    return fits


def _solve_svm_block(spec, matrices, signs):
    """Solve the duals of p problems with m rows each by SMO with
    second-order working-set selection (WSS2 of Fan, Chen & Lin 2005,
    as in LIBSVM).

    The problems run in lockstep: each step makes one pair update in
    every problem still in the block, and a problem leaves the block
    once its maximal violating pair is closer than _SVM_STOP, or after
    max_sweeps * m pair updates. Block row k holds yg = y * G of problem
    block[k], the dual gradient G = Q alpha - 1 times the labels, i.e.
    the bias-free errors K (alpha * y) - y; each pair update moves it by
    two kernel rows. The kernel and curvature stacks stay in place, so
    the block's memory is theirs plus O(p m). Each problem does the
    float operations of a fit on its own. A kernel that overflows raises
    DegenerateDataError before the loop.
    """
    p, m = len(matrices), len(signs[0])
    K, curv = np.empty((p, m, m)), np.empty((p, m, m))
    for k, X in enumerate(matrices):
        K[k] = _poly_kernel(X, X, spec.degree, spec.coef0)
        # curvature K_ii + K_tt - 2 K_it of every pair, floored below
        diag = K[k].diagonal()
        np.add(diag[:, None], diag, out=curv[k])
        curv[k] -= 2.0 * K[k]
    np.maximum(curv, _SVM_TAU, out=curv)
    k_rows, curv_rows = K.reshape(p * m, m), curv.reshape(p * m, m)
    C = spec.penalty
    ys = [signed.tolist() for signed in signs]
    alphas = [[0.0] * m for _ in range(p)]
    signed_rows = np.stack(signs)
    yg = -signed_rows
    # I_up (alpha may move along +y) and I_low (along -y) as offsets that
    # yg - offset sends to +inf outside I_up and to -inf outside I_low;
    # subtracting 0.0 keeps the sign of a zero, so yg[i] passes unchanged
    up_off = np.where(signed_rows > 0, 0.0, -np.inf)
    low_off = np.where(signed_rows > 0, np.inf, 0.0)
    block = list(range(p))
    ends = [None] * p  # (g_max, g_min, n_updates) where each problem stopped
    cap = spec.max_sweeps * m
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
        stopped = [n_updates >= cap or gap < _SVM_STOP for gap in gaps]
        for k, up, low, stop in zip(block, up_i.tolist(), low_l.tolist(), stopped):
            if stop:
                ends[k] = (-up, -low, n_updates)
        block = [k for k, stop in zip(block, stopped) if not stop]
        keep = np.logical_not(stopped)
        yg, up_off, low_off = yg[keep], up_off[keep], low_off[keep]
    return [
        _svm_fit(X, K[k], signs[k], np.array(alphas[k]), *ends[k], C)
        for k, X in enumerate(matrices)
    ]


def _offsets(alpha, y, C):
    """I_up and I_low offsets of a point with coefficient alpha, label y."""
    below, above = alpha < C, alpha > 0.0
    if y > 0:
        return (0.0 if below else -np.inf), (0.0 if above else np.inf)
    return (0.0 if above else -np.inf), (0.0 if below else np.inf)


def _svm_fit(X, K, signed, alpha, g_max, g_min, n_updates, C):
    """Parameters and diagnostics of one solved dual."""
    m = X.shape[0]
    b = 0.5 * (g_max + g_min)
    margins = signed * ((alpha * signed) @ K + b)
    violations = _kkt_violation(alpha, margins, C)
    support = alpha > _ALPHA_EPS
    if not np.any(support):
        support = np.zeros(m, dtype=bool)
        support[0] = True  # degenerate fit; keep predict() well-defined
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
        "n_sweeps": -(-n_updates // m),
        "n_updates": n_updates,
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

