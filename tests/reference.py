"""Per-row references of the block kernels, kept as test oracles.

The package computes every feature array-at-a-time: ``base_feature_rows``,
``spectral_rows``, ``bin_indices``, ``nutrient_grids``, ``grow_batch`` and
``hull_areas``. The functions here are the one-sample definitions those
kernels are tested against, bit for bit:

- the 12 base features, one segment at a time;
- the periodogram, its positive band and the median frequency;
- scalar soil binning and the per-column soil fill;
- the daily division loop of root growth, with its day log;
- Andrew's monotone-chain hull and the shoelace area, and the two joined
  as the hull area of a grid's occupied cells;
- the whole per-row chain, ``prs_pair_for_row``, on plain arrays: a
  soil and a nutrient grid are (depth, n) float64 arrays, and NF and RF
  come back as one (2,) row;
- the entropy of a label list and the information gain of a two-set
  split, which ``feature_prep.rank_features`` takes from class counts;
- the one-problem fits and scores of LR, LDA and QDA, and the per-label
  encoding of a label vector, which ``classifiers.train_group`` and
  ``classifiers.decision_group`` run over stacks of problems;
- the reader that opens a signal file again and parses it one line at a
  time, which ``dataset._read_signal_file`` is tested against.

They are plain loops and scalar code, deliberately independent of the
kernels they check; nothing in ``src/prs`` imports them.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import numpy as np

from prs import classifiers
from prs.classifiers import TrainedModel
from prs.errors import DatasetError, DegenerateDataError
from prs.growth import _NEIGHBOR_STEPS, GrowthConfig, RootState, check_radicle
from prs.pipeline import PipelineConfig, PrepArtifacts, transform_rows
from prs.soil import SOIL_DEPTH, SoilConfig, convolve_soil

# -- base features -------------------------------------------------------------


def signal_std(x) -> float:
    """Population standard deviation (centered, 1/N)."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.mean((x - x.mean()) ** 2)))


def signal_variance(x, centered: bool = False) -> float:
    """Uncentered second moment sum(x^2)/(N-1); centered form on request."""
    x = np.asarray(x, dtype=np.float64)
    if centered:
        return float(np.sum((x - x.mean()) ** 2) / (x.size - 1))
    return float(np.sum(x**2) / (x.size - 1))


def rms(x) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.mean(x**2)))


def skewness(x) -> float:
    """Population skewness m3 / m2^(3/2); undefined for a constant signal."""
    x = np.asarray(x, dtype=np.float64)
    dev = x - x.mean()
    dev2 = dev * dev
    m2 = np.mean(dev2)
    if m2 == 0.0:
        raise DegenerateDataError("SKW undefined for a constant segment")
    return float(np.mean(dev2 * dev) / (m2 * np.sqrt(m2)))


def kurtosis(x) -> float:
    """Population kurtosis m4 / m2^2 (not excess); >= 1 for any signal."""
    x = np.asarray(x, dtype=np.float64)
    dev = x - x.mean()
    dev2 = dev * dev
    m2 = np.mean(dev2)
    if m2 == 0.0:
        raise DegenerateDataError("KURT undefined for a constant segment")
    return float(np.mean(dev2 * dev2) / (m2 * m2))


def mav(x) -> float:
    """Mean absolute value."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.mean(np.abs(x)))


def zero_crossings(x, threshold: float) -> int:
    """Count sign changes between adjacent samples with |step| >= threshold."""
    x = np.asarray(x, dtype=np.float64)
    a, b = x[:-1], x[1:]
    return int(np.sum((a * b < 0) & (np.abs(a - b) >= threshold)))


def slope_sign_changes(x, threshold: float) -> int:
    """Count interior samples whose two slopes turn: product >= threshold."""
    x = np.asarray(x, dtype=np.float64)
    mid = x[1:-1]
    return int(np.sum((mid - x[:-2]) * (mid - x[2:]) >= threshold))


def willison_amplitude(x, threshold: float) -> int:
    """Count adjacent-sample amplitude jumps of at least the threshold."""
    x = np.asarray(x, dtype=np.float64)
    return int(np.sum(np.abs(x[:-1] - x[1:]) >= threshold))


def simple_square_integral(x) -> float:
    """Total energy sum(|x|^2)."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(np.abs(x) ** 2))


def nonlinear_energy(x) -> float:
    """Mean Teager-style energy (x_i^2 - x_{i-1} x_{i+1}) over interior samples."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(x[1:-1] ** 2 - x[:-2] * x[2:]) / (x.size - 2))


def waveform_length(x) -> float:
    """Cumulative absolute first difference."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(np.abs(np.diff(x))))


# -- spectrum ------------------------------------------------------------------


def periodogram(samples, sampling_rate: float):
    """Two-sided periodogram: (freqs, psd), both length N, fftfreq order."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("empty signal")
    if sampling_rate <= 0:
        raise ValueError(f"sampling_rate must be positive, got {sampling_rate}")
    spectrum = np.fft.fft(x)
    psd = (spectrum.real**2 + spectrum.imag**2) / (n * sampling_rate)
    freqs = np.fft.fftfreq(n, d=1.0 / sampling_rate)
    return freqs, psd


def positive_band(samples, sampling_rate: float):
    """Positive-frequency bins 1..N//2 of the periodogram (DC dropped,
    Nyquist kept for even N)."""
    freqs, psd = periodogram(samples, sampling_rate)
    n = len(psd)
    hi = n // 2
    if hi < 1:
        raise ValueError("signal too short for a positive-frequency band")
    idx = np.arange(1, hi + 1)
    return np.abs(freqs[idx]), psd[idx]


def median_frequency(samples, sampling_rate: float) -> float:
    """Lowest positive frequency at which cumulative power reaches half
    of the positive band's total. 0 for an all-zero signal, NaN when the
    total is not finite."""
    freqs, psd = positive_band(samples, sampling_rate)
    total = float(np.sum(psd))
    if total == 0.0:
        return 0.0
    if not math.isfinite(total):
        return math.nan
    cumulative = np.cumsum(psd)
    k = int(np.searchsorted(cumulative, 0.5 * total))
    return float(freqs[min(k, len(freqs) - 1)])


# -- soil ----------------------------------------------------------------------


def bin_index(value: float, col_min: float, col_max: float, k: int = SOIL_DEPTH) -> int:
    """Equal-width bin of ``value`` in [col_min, col_max], clamped to [1, k].

    Degenerate bounds (col_max == col_min) give bin 1. Values outside the
    bounds (test samples scaled with train-fold bounds) clamp to the
    nearest end bin.
    """
    if col_max <= col_min:
        return 1
    delta = (col_max - col_min) / k
    b = int(np.floor((value - col_min) / delta)) + 1
    return min(max(b, 1), k)


def build_discrete_soil(
    sorted_row, bounds, config: SoilConfig = SoilConfig()
) -> np.ndarray:
    """Stack one sample's sorted feature row into a binary depth grid.

    ``bounds`` is an (n, 2) array of per-sorted-column (min, max) taken
    over the whole (training) dataset.
    """
    row = np.asarray(sorted_row, dtype=np.float64).ravel()
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.shape != (row.size, 2):
        raise ValueError(f"expected bounds shape {(row.size, 2)}, got {bounds.shape}")
    grid = np.zeros((config.depth, row.size))
    for j, value in enumerate(row):
        b = bin_index(value, bounds[j, 0], bounds[j, 1], k=config.depth)
        if config.fill_mode == "stacked":
            grid[:b, j] = 1.0
        else:
            grid[b - 1, j] = 1.0
    return grid


# -- growth and hull -----------------------------------------------------------


def occupied_cells(state: RootState) -> list[tuple[int, int]]:
    """Occupied (row, col) cells, 1-based, in row-major order."""
    return [(int(r) + 1, int(c) + 1) for r, c in np.argwhere(state.occupancy == 1)]


def absorption_rate(value: float) -> float:
    """Per-cell absorption: 0 for barren cells, else v/(1+|v|) + 0.49."""
    if value == 0.0:
        return 0.0
    return value / (1.0 + abs(value)) + 0.49


def grow(nutrients, config: GrowthConfig = GrowthConfig()) -> RootState:
    """Run the daily division loop over a (rows, cols) nutrient grid;
    deterministic for identical inputs.

    Candidate ties (equal nutrient value) break by (row, col) ascending.
    Stops early when no division candidates remain.
    """
    grid = np.asarray(nutrients, dtype=np.float64)
    rows, cols = grid.shape
    check_radicle(config.radicle, grid.shape)
    occupancy = np.zeros(grid.shape, dtype=np.int64)
    occupied = []
    for r, c in config.radicle:
        if not occupancy[r - 1, c - 1]:
            occupancy[r - 1, c - 1] = 1
            occupied.append((r - 1, c - 1))

    absorbed = 0.0
    day_log: list[list[tuple[int, int]]] = []
    for _ in range(config.days):
        candidates: dict[tuple[int, int], float] = {}
        for i, j in occupied:
            for di, dj in _NEIGHBOR_STEPS:
                ni, nj = i + di, j + dj
                if not (0 <= ni < rows and 0 <= nj < cols):
                    continue
                if occupancy[ni, nj] or (ni, nj) in candidates:
                    continue
                value = float(grid[ni, nj])
                if value == 0.0 and not config.occupy_zero:
                    continue
                candidates[(ni, nj)] = value
        if not candidates:
            break
        ranked = sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0]))
        new_cells = []
        for (ni, nj), value in ranked[: config.division_limit]:
            occupancy[ni, nj] = 1
            occupied.append((ni, nj))
            absorbed += absorption_rate(value)
            new_cells.append((ni + 1, nj + 1))
        day_log.append(new_cells)

    return RootState(occupancy=occupancy, absorbed=absorbed, day_log=day_log)


def polygon_area(vertices) -> float:
    """Shoelace area of a closed polygon given its vertices in traversal
    order; orientation does not matter. Fewer than 3 vertices -> 0."""
    pts = np.asarray(vertices, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 3:
        return 0.0
    p = pts[:, 0]
    q = pts[:, 1]
    return 0.5 * abs(float(np.sum(p * np.roll(q, -1) - np.roll(p, -1) * q)))


def convex_hull(points) -> list[tuple[float, float]]:
    """Andrew's monotone chain; returns hull vertices in CCW order.

    Collinear boundary points are dropped, so a fully collinear input
    yields just its two extreme points.
    """
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_oracle(occupancy) -> float:
    """Convex hull area of the occupied cells of a grid, each cell (row,
    col) the point (col, row), counted from 1."""
    points = [(c + 1, r + 1) for r, c in np.argwhere(occupancy)]
    return polygon_area(convex_hull(points))


def extract_prs(state: RootState) -> np.ndarray:
    """The [NF, RF] row: NF = accumulated absorption; RF = convex-hull
    area of the root, ``hull_oracle`` of its occupancy. The hull of fewer
    than 3 non-collinear cells has area 0.
    """
    return np.array([state.absorbed, hull_oracle(state.occupancy == 1)])


# -- the per-row chain ---------------------------------------------------------


def soil_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: SoilConfig = SoilConfig(),
) -> np.ndarray:
    """Discrete soil grid for one raw base-feature row.

    The bins run over the bounds of the scaled, ordered training block:
    (0, 1) for a column whose training values spread, (0, 0) for a
    constant one.
    """
    sorted_row = transform_rows(base_row[None, :], artifacts)[0]
    lo, hi = artifacts.feature_bounds[artifacts.order].T
    bounds = np.stack([np.zeros(len(lo)), (hi > lo).astype(np.float64)], axis=1)
    return build_discrete_soil(sorted_row, bounds, config)


def nutrients_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: SoilConfig = SoilConfig(),
) -> np.ndarray:
    return convolve_soil(soil_for_row(base_row, artifacts, config))


def prs_pair_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: PipelineConfig = PipelineConfig(),
) -> np.ndarray:
    """The [NF, RF] row of one raw base-feature row."""
    nutrients = nutrients_for_row(base_row, artifacts, config.soil)
    return extract_prs(grow(nutrients, config.growth))


# -- information gain ----------------------------------------------------------


def oracle_entropy(labels) -> float:
    """Shannon entropy of a label list in bits, from a Counter."""
    total = len(labels)
    return -sum(c / total * math.log2(c / total) for c in Counter(labels).values())


def list_scan_gain(labels, assignment) -> float:
    """Information gain of the labels given set indices in {1, 2}, in the
    float order of a list scan: the weighted set entropies are summed,
    then taken from the total entropy."""
    total = len(labels)
    expected = 0.0
    for s in (1, 2):
        subset = [lab for lab, a in zip(labels, assignment) if a == s]
        if subset:
            expected += len(subset) / total * oracle_entropy(subset)
    return oracle_entropy(labels) - expected


# -- classifiers: one problem at a time ----------------------------------------


def encode_labels(y) -> tuple[tuple[str, str], np.ndarray]:
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


def logistic_objective(w, Xb, signed, penalty):
    """Mean log-loss plus 0.5 * sum(penalty * w^2); penalty is l2 for
    each weight and 0 for the intercept."""
    margins = signed * (Xb @ w)
    return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * w @ (penalty * w))


def train_logistic(spec, X, signed):
    m = X.shape[0]
    Xb = np.hstack([X, np.ones((m, 1))])
    penalty = np.full(Xb.shape[1], spec.l2)
    penalty[-1] = 0.0
    w = np.zeros(Xb.shape[1])
    loss = logistic_objective(w, Xb, signed, penalty)
    n_iter = 0
    while True:
        margins = signed * (Xb @ w)
        sig = 0.5 * (1.0 + np.tanh(-0.5 * margins))  # sigmoid(-margins), stable
        grad = -(Xb.T @ (signed * sig)) / m + penalty * w
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= classifiers._LR_TOL or n_iter >= classifiers._LR_MAX_ITER:
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
            trial_loss = logistic_objective(trial, Xb, signed, penalty)
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
            "converged": grad_norm <= classifiers._LR_TOL,
        },
    )


def regularized_cholesky(cov, eps, n_features):
    attempt = max(eps, 0.0)
    for _ in range(24):
        try:
            chol = np.linalg.cholesky(cov + attempt * np.eye(n_features))
            return chol, attempt
        except np.linalg.LinAlgError:
            attempt = max(attempt * 10.0, 1e-12)
    raise DegenerateDataError("covariance matrix is not positive definite")


def train_gaussian(spec, X, signed):
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
        chol, eps = regularized_cholesky(cov, eps, f)
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


def gaussian_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    delta = []
    for c in range(2):
        mu = model.params["means"][c]
        chol = model.params["chol"][c]
        log_det = model.params["log_det"][c]
        diff = (X - mu).T
        z = np.linalg.solve(chol, diff)
        quad = np.sum(z * z, axis=0)
        delta.append(-0.5 * log_det - 0.5 * quad + model.params["log_priors"][c])
    return delta[1] - delta[0]


def train_model(spec, X, y) -> TrainedModel:
    """LR, LDA or QDA fitted on (X, y) alone, as a TrainedModel."""
    X = np.asarray(X, dtype=np.float64)
    classes, signed = encode_labels(y)
    fit = train_logistic if spec.kind == "LR" else train_gaussian
    params, diagnostics = fit(spec, X, signed)
    return TrainedModel(spec, classes, X.shape[1], params, diagnostics)


def decision_function(model: TrainedModel, X) -> np.ndarray:
    """Raw LR, LDA or QDA scores of one model; >= 0 means the second class."""
    X = np.asarray(X, dtype=np.float64)
    if model.spec.kind == "LR":
        w = model.params["weights"]
        return X @ w[:-1] + w[-1]
    return gaussian_scores(model, X)


# -- signal files --------------------------------------------------------------


def read_signal_lines(path: Path) -> np.ndarray:
    """One line at a time: blank lines are skipped, and the first line
    that is not a number is reported by its line number."""
    values = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: non-numeric sample {text!r}"
                ) from None
    return np.asarray(values, dtype=np.float64)
