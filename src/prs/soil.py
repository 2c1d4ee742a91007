"""Digital soil: binning one sorted feature row into a 15x12 nutrient grid.

Each sorted feature value is discretized into one of k=15 equal-width
bins and stacked as unit nutrients from the surface (row 1) downward, so
nutrient density is highest in the shallow layers and non-increasing
with depth. Two 3x3 kernel passes (zero padding 1, applied as
correlation) then redistribute the nutrients horizontally: the first
kernel pushes mass from the shallow side, the second from the deep side.

``build_discrete_soil`` and ``convolve_soil`` are the per-row reference.
The block path, ``nutrient_grids``, builds no soil: both kernel passes
are linear, so a nutrient grid is the sum of the responses of its
one-column soils, which ``column_responses`` tables once per (depth,
fill mode, width). Soil values are 0 or 1 and kernel weights multiples
of 1/4, so every response is a whole number of sixteenths, and a grid
sums them exactly in small integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_integer

SOIL_DEPTH = 15  # k: number of bins = number of soil rows
SOIL_WIDTH = 12  # number of sorted feature columns

# Row 0 of each kernel acts on the cell above (shallower), row 2 below.
KERNEL_SHALLOW = 0.5 * np.array(
    [[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.5]]
)
KERNEL_DEEP = 0.5 * np.array(
    [[0.5, 0.5, 0.5], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
)
KERNEL_SHALLOW.flags.writeable = False
KERNEL_DEEP.flags.writeable = False

FILL_MODES = ("stacked", "onehot")


@dataclass(frozen=True)
class SoilConfig:
    """How a scalar feature value becomes a soil column.

    ``stacked`` (default) puts ones in rows 1..b; ``onehot`` puts a single
    one at row b. b is the value's equal-width bin index.
    """

    depth: int = SOIL_DEPTH
    fill_mode: str = "stacked"

    def __post_init__(self):
        check_integer("depth", self.depth)
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.fill_mode not in FILL_MODES:
            raise ValueError(
                f"fill_mode must be one of {FILL_MODES}, got {self.fill_mode!r}"
            )


@dataclass(frozen=True)
class DiscreteSoil:
    """Binary 15x12 grid; row 1 (index 0) is the surface."""

    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        if grid.ndim != 2:
            raise ValueError("soil grid must be 2D")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class NutrientMatrix:
    """Non-negative 15x12 grid of reconstituted nutrient values."""

    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        if grid.ndim != 2:
            raise ValueError("nutrient grid must be 2D")
        if not np.all(np.isfinite(grid)):
            raise ValueError("nutrient grid contains non-finite values")
        if (grid < 0).any():
            raise ValueError("nutrient grid contains negative values")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)


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


def bin_indices(values, bounds, k: int = SOIL_DEPTH) -> np.ndarray:
    """``bin_index`` over an (m, n) block with per-column (n, 2) bounds.

    Uses the same float operations as ``bin_index``, so the bins agree
    element for element. Raises ValueError where a non-degenerate column
    holds a value that has no finite bin (NaN, or an overflow to inf).
    """
    values = np.asarray(values, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.float64)
    lo, hi = bounds[:, 0], bounds[:, 1]
    spread = ~(hi <= lo)
    delta = np.where(spread, (hi - lo) / k, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.floor((values - lo) / delta)
    if not np.isfinite(scaled[:, spread]).all():
        raise ValueError("soil binning got a value with no finite bin")
    scaled[:, ~spread] = 0.0
    return np.clip(scaled + 1.0, 1, k).astype(np.int64)


def correlate3(grid: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """One 3x3 stencil pass over the last two axes: zero-pad by 1,
    correlate (no kernel flip). Leading axes index independent grids."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape[-2:]
    padded = np.zeros(grid.shape[:-2] + (h + 2, w + 2))
    padded[..., 1:-1, 1:-1] = grid
    out = np.zeros_like(grid)
    for u in range(3):
        for v in range(3):
            if kernel[u, v] != 0.0:
                out += kernel[u, v] * padded[..., u : u + h, v : v + w]
    return out


def convolve_grid(grid: np.ndarray, kernels=(KERNEL_SHALLOW, KERNEL_DEEP)) -> np.ndarray:
    """Sequential kernel passes over a real-valued grid, or over a stack
    of grids on the last two axes."""
    out = np.asarray(grid, dtype=np.float64)
    for kernel in kernels:
        out = correlate3(out, kernel)
    return out


def convolve_soil(soil: DiscreteSoil) -> NutrientMatrix:
    """Reconstitute nutrients: shallow-side pass then deep-side pass."""
    return NutrientMatrix(grid=convolve_grid(soil.grid))


@lru_cache(maxsize=None)
def column_responses(depth: int, fill_mode: str, width: int) -> np.ndarray:
    """Read-only (width, depth, depth, width) uint8 table: entry [j, b - 1]
    is 16 times ``convolve_grid`` of the soil whose only filled column is
    j, at bin b. Raises ValueError unless every entry is a whole number
    and one bin per column sums to at most 255 in every cell, so that
    ``nutrient_grids`` adds them without rounding or overflow."""
    fill = np.arange(depth)[None, :] <= np.arange(depth)[:, None]  # [b - 1, row]
    if fill_mode == "onehot":
        fill = np.eye(depth, dtype=bool)
    table = np.empty((width, depth, depth, width), dtype=np.uint8)
    worst = np.zeros((depth, width))  # largest sum one bin per column reaches
    for start in range(0, width, 4):  # stacks of 4 columns stay in cache
        cols = np.arange(start, min(start + 4, width))
        soils = np.zeros((len(cols), depth, depth, width))
        soils[np.arange(len(cols)), :, :, cols] = fill
        sixteenths = 16.0 * convolve_grid(soils, (KERNEL_SHALLOW, KERNEL_DEEP))
        if (sixteenths != np.round(sixteenths)).any() or sixteenths.min() < 0.0:
            raise ValueError("a column response is not a whole number of sixteenths")
        worst += sixteenths.max(axis=1).sum(axis=0)
        table[cols] = sixteenths
    if worst.max() > 255.0:
        raise ValueError("column responses can sum past 255 sixteenths")
    table.flags.writeable = False
    return table


def nutrient_grids(bins, config: SoilConfig = SoilConfig()) -> np.ndarray:
    """(m, depth, n) nutrient grids for an (m, n) block of 1-based bins;
    slice s equals ``convolve_soil(build_discrete_soil(...)).grid`` of the
    row whose bins are ``bins[s]``. The columns' responses are added one
    column at a time, in whole sixteenths."""
    m, n = np.shape(bins)
    sums = np.zeros((m, config.depth, n), dtype=np.uint8)
    for j, responses in enumerate(column_responses(config.depth, config.fill_mode, n)):
        sums += responses[bins[:, j] - 1]
    return np.multiply(sums, 1.0 / 16.0, dtype=np.float64)
