"""Digital soil: binning one sorted feature row into a 15x12 nutrient grid.

Each sorted feature value is discretized into one of k=15 equal-width
bins and stacked as unit nutrients from the surface (row 1) downward, so
nutrient density is highest in the shallow layers and non-increasing
with depth. Two 3x3 kernel passes (zero padding 1, applied as
correlation) then redistribute the nutrients horizontally: the first
kernel pushes mass from the shallow side, the second from the deep side.

Soils and nutrient grids are plain float64 arrays, (depth, n) with row 1
(index 0) at the surface. ``bin_indices`` is the one binning
implementation; ``build_discrete_soil`` fills one row's soil from its
bins on a one-row block, and ``convolve_soil`` runs the two passes on a
grid or a stack of grids, for the CLI ``soil-dump`` and ``grow``
commands. The block path, ``nutrient_grids``, builds no soil: both
kernel passes are linear, so a nutrient grid is the sum of the responses
of its one-column soils, which ``column_responses`` tables once per
(depth, fill mode, width), filling each soil column by the same rule as
``build_discrete_soil``. Soil values are 0 or 1 and kernel weights
multiples of 1/4, so every response is a whole number of sixteenths, and
a grid sums them exactly in small integers. The scalar binning and
per-column soil fill they are tested against live in
``tests/reference.py``.
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
        check_integer("depth", self.depth, 1)
        if self.fill_mode not in FILL_MODES:
            raise ValueError(
                f"fill_mode must be one of {FILL_MODES}, got {self.fill_mode!r}"
            )


def build_discrete_soil(sorted_row, bounds, config: SoilConfig = SoilConfig()) -> np.ndarray:
    """Binary (depth, n) float64 soil of one sample's sorted feature row.

    ``bounds`` is an (n, 2) array of per-sorted-column (min, max) taken
    over the whole (training) dataset.
    """
    row = np.asarray(sorted_row, dtype=np.float64).ravel()
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.shape != (row.size, 2):
        raise ValueError(f"expected bounds shape {(row.size, 2)}, got {bounds.shape}")
    bins = bin_indices(row[None, :], bounds, config.depth)[0]
    return _fill(bins, config.depth, config.fill_mode).astype(np.float64)


def _fill(bins, depth: int, fill_mode: str) -> np.ndarray:
    """Boolean (depth, n) soil of n columns at 1-based ``bins``: stacked
    fills rows 1..b of each column, onehot row b only."""
    depths = np.arange(1, depth + 1)[:, None]
    return depths <= bins if fill_mode == "stacked" else depths == bins


def bin_indices(values, bounds, k: int = SOIL_DEPTH) -> np.ndarray:
    """Equal-width bins of an (m, n) block in per-column (n, 2) bounds,
    clamped to [1, k].

    A column with degenerate bounds (max <= min) gives bin 1. Values
    outside the bounds (held-out rows scaled with train-fold bounds) clamp
    to the nearest end bin. Raises ValueError where a non-degenerate
    column holds a value that has no finite bin (NaN, or an overflow to
    inf).
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


def convolve_soil(grid) -> np.ndarray:
    """Reconstitute nutrients: the shallow-side pass, then the deep-side
    pass, over one grid or a stack of grids on the last two axes."""
    return correlate3(correlate3(grid, KERNEL_SHALLOW), KERNEL_DEEP)


@lru_cache(maxsize=None)
def column_responses(depth: int, fill_mode: str, width: int) -> np.ndarray:
    """Read-only (width, depth, depth, width) uint8 table: entry [j, b - 1]
    is 16 times ``convolve_soil`` of the soil whose only filled column is
    j, at bin b. Raises ValueError unless every entry is a whole number
    and one bin per column sums to at most 255 in every cell, so that
    ``nutrient_grids`` adds them without rounding or overflow."""
    fill = _fill(np.arange(1, depth + 1), depth, fill_mode).T  # [b - 1, row]
    table = np.empty((width, depth, depth, width), dtype=np.uint8)
    worst = np.zeros((depth, width))  # largest sum one bin per column reaches
    for start in range(0, width, 4):  # stacks of 4 columns stay in cache
        cols = np.arange(start, min(start + 4, width))
        soils = np.zeros((len(cols), depth, depth, width))
        soils[np.arange(len(cols)), :, :, cols] = fill
        sixteenths = 16.0 * convolve_soil(soils)
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
    slice s equals ``convolve_soil(build_discrete_soil(...))`` of the
    row whose bins are ``bins[s]``. The columns' responses are added one
    column at a time, in whole sixteenths."""
    m, n = np.shape(bins)
    sums = np.zeros((m, config.depth, n), dtype=np.uint8)
    for j, responses in enumerate(column_responses(config.depth, config.fill_mode, n)):
        sums += responses[bins[:, j] - 1]
    return np.multiply(sums, 1.0 / 16.0, dtype=np.float64)
