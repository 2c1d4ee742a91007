"""Four binary classifiers, each trained from scratch on numpy only.

LR        L2-penalised logistic regression (intercept unpenalised),
          fitted by damped Newton steps (IRLS).
LDA       Gaussian discriminant with a pooled covariance matrix.
QDA       Gaussian discriminant with per-class covariance matrices.
SVM_POLY  soft-margin SVM with a polynomial kernel, trained by pairwise
          dual coordinate ascent (SMO) with deterministic pair choice;
          each partner search screens all candidates in one array pass.

Labels are arbitrary strings; the two classes are ordered lexically and
score ties resolve to the second class. Trained models report fit
diagnostics (iterations and convergence, losses, dual objective, KKT
residual).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError

CLASSIFIER_KINDS = ("LR", "LDA", "QDA", "SVM_POLY")

_ALPHA_EPS = 1e-12  # below this a dual coefficient counts as zero


@dataclass(frozen=True)
class ClassifierSpec:
    """Which classifier to train, plus its hyperparameters.

    LR minimises mean log-loss + l2/2 * |w|^2 over the weights w (the
    intercept is not penalised), taking at most max_iter Newton steps
    and stopping once the gradient norm is <= tol; l2 > 0 keeps the
    minimum finite on separable folds. ridge pads the (pooled or
    per-class) covariance diagonal for LDA/QDA, with None meaning
    1e-6 * trace/n_features; degree/coef0/penalty shape the SVM kernel
    (x.z + coef0)^degree and its box constraint.
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
        if self.max_iter < 1 or self.max_sweeps < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.ridge is not None and self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")


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
    X = _check_matrix(X)
    classes, signed = _encode_labels(y)
    if len(signed) != X.shape[0]:
        raise ValueError(
            f"{X.shape[0]} rows but {len(signed)} labels"
        )
    if spec.kind == "LR":
        params, diag = _train_logistic(spec, X, signed)
    elif spec.kind in ("LDA", "QDA"):
        params, diag = _train_gaussian(spec, X, signed)
    else:
        params, diag = _train_svm(spec, X, signed)
    return TrainedModel(
        spec=spec,
        classes=classes,
        n_features=X.shape[1],
        params=params,
        diagnostics=diag,
    )


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
        if grad_norm <= spec.tol or n_iter == spec.max_iter:
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
    return (A @ B.T + coef0) ** degree


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


def _train_svm(spec, X, signed):
    m = X.shape[0]
    K = _poly_kernel(X, X, spec.degree, spec.coef0)
    alpha = np.zeros(m)
    b = 0.0
    C = spec.penalty
    n_updates = 0
    sweeps = 0

    # eta[i, j] = K[i, i] + K[j, j] - 2 K[i, j], the pair's curvature. A
    # pair with eta <= 1e-15 is never updated; its eta becomes 1.0 so the
    # partner screen never divides by zero.
    diag_k = np.diag(K)
    eta = diag_k[:, None] + diag_k[None, :] - 2.0 * K
    curved = eta > 1e-15
    eta = np.where(curved, eta, 1.0)

    def errors():
        return (alpha * signed) @ K + b - signed

    E = errors()  # alpha and b move only on an accepted step
    for sweeps in range(1, spec.max_sweeps + 1):
        changed = False
        for i in range(m):
            margin = signed[i] * (E[i] + signed[i])
            violates = (
                (alpha[i] < C - _ALPHA_EPS and margin < 1.0 - 1e-10)
                or (alpha[i] > _ALPHA_EPS and margin > 1.0 + 1e-10)
            )
            if not violates:
                continue
            # second choice: the usable j with the largest |E_i - E_j|,
            # ties to the lowest index (the first maximum)
            usable = _smo_partners(i, alpha, signed, eta[i], curved[i], E, C)
            j = int(np.argmax(np.where(usable, np.abs(E - E[i]), -1.0)))
            if not usable[j]:
                continue
            alpha[i], alpha[j], db = _smo_step(i, j, alpha, signed, K, E, C)
            b += db
            E = errors()
            changed = True
            n_updates += 1
        if not changed:
            break

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
        "n_sweeps": sweeps,
        "n_updates": n_updates,
    }
    return params, diag


def _smo_partners(i, alpha, signed, eta_i, curved_i, E, C):
    """Mask of the j that _smo_step(i, j, ...) would not reject.

    Repeats its three rejection tests (box width, eta, step size) over
    every j at once, with the same float operations in the same order,
    so the mask agrees with the scalar step exactly. eta_i is row i of
    the pair curvatures, with 1.0 wherever curved_i (eta > 1e-15) fails.
    """
    a_i = alpha[i]
    differ = signed != signed[i]
    both = a_i + alpha
    lo = np.maximum(0.0, np.where(differ, alpha - a_i, both - C))
    hi = np.minimum(C, np.where(differ, C + alpha - a_i, both))
    usable = (hi - lo >= _ALPHA_EPS) & curved_i
    usable[i] = False
    aj = np.minimum(np.maximum(alpha + signed * (E[i] - E) / eta_i, lo), hi)
    usable &= np.abs(aj - alpha) >= 1e-12
    return usable


def _smo_step(i, j, alpha, signed, K, E, C):
    """One analytic pair update; returns (a_i, a_j, delta_b) or None."""
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
    # bias shift chosen so a box-interior point lands exactly on its margin
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


def accuracy(model: TrainedModel, X, y) -> float:
    """Fraction of rows whose predicted label matches y."""
    predictions = model.predict(X)
    truth = np.array([str(v) for v in np.asarray(y).ravel()])
    if len(truth) != len(predictions):
        raise ValueError("label count does not match row count")
    return float(np.mean(predictions == truth))
