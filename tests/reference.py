"""Per-row references of the block kernels, kept as test oracles.

The package computes every feature array-at-a-time: ``base_feature_rows``,
``spectral_rows``, ``bin_indices``, ``nutrient_grids``, ``grow_batch`` and
``hull_areas``. The functions here are the one-sample definitions those
kernels are tested against, bit for bit:

- the 12 base features, one segment at a time;
- the periodogram, its positive band and the median frequency;
- scalar soil binning and the per-column soil fill;
- the daily division loop of root growth, with its day log;
- Andrew's monotone-chain hull and the shoelace area;
- the whole per-row chain, ``prs_pair_for_row``.

They are plain loops and scalar code, deliberately independent of the
kernels they check; nothing in ``src/prs`` imports them.
"""

from __future__ import annotations

import numpy as np

from prs.errors import DegenerateDataError
from prs.growth import (
    _NEIGHBOR_STEPS,
    GrowthConfig,
    PRSFeaturePair,
    RootState,
    check_radicle,
)
from prs.pipeline import PipelineConfig, PrepArtifacts, transform_rows
from prs.soil import (
    SOIL_DEPTH,
    DiscreteSoil,
    NutrientMatrix,
    SoilConfig,
    convolve_soil,
)

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
    of the positive band's total. 0 for an all-zero signal."""
    freqs, psd = positive_band(samples, sampling_rate)
    total = float(np.sum(psd))
    if total == 0.0:
        return 0.0
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
) -> DiscreteSoil:
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
    return DiscreteSoil(grid=grid)


# -- growth and hull -----------------------------------------------------------


def occupied_cells(state: RootState) -> list[tuple[int, int]]:
    """Occupied (row, col) cells, 1-based, in row-major order."""
    return [(int(r) + 1, int(c) + 1) for r, c in np.argwhere(state.occupancy == 1)]


def absorption_rate(value: float) -> float:
    """Per-cell absorption: 0 for barren cells, else v/(1+|v|) + 0.49."""
    if value == 0.0:
        return 0.0
    return value / (1.0 + abs(value)) + 0.49


def grow(nutrients: NutrientMatrix, config: GrowthConfig = GrowthConfig()) -> RootState:
    """Run the daily division loop; deterministic for identical inputs.

    Candidate ties (equal nutrient value) break by (row, col) ascending.
    Stops early when no division candidates remain.
    """
    grid = nutrients.grid
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


def extract_prs(state: RootState) -> PRSFeaturePair:
    """NF = accumulated absorption; RF = convex-hull area of the root.

    Cell (row, col) maps to the plane point (col, row); the hull of fewer
    than 3 non-collinear cells has area 0.
    """
    points = [(c, r) for r, c in occupied_cells(state)]
    hull = convex_hull(points)
    return PRSFeaturePair(nf=state.absorbed, rf=polygon_area(hull))


# -- the per-row chain ---------------------------------------------------------


def soil_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: SoilConfig = SoilConfig(),
) -> DiscreteSoil:
    """Discrete soil grid for one raw base-feature row."""
    sorted_row = transform_rows(base_row, artifacts)[0]
    return build_discrete_soil(sorted_row, artifacts.soil_bounds, config)


def nutrients_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: SoilConfig = SoilConfig(),
) -> NutrientMatrix:
    return convolve_soil(soil_for_row(base_row, artifacts, config))


def prs_pair_for_row(
    base_row: np.ndarray,
    artifacts: PrepArtifacts,
    config: PipelineConfig = PipelineConfig(),
) -> PRSFeaturePair:
    """NF and RF for one raw base-feature row."""
    nutrients = nutrients_for_row(base_row, artifacts, config.soil)
    return extract_prs(grow(nutrients, config.growth))
