"""Root growth through the nutrient grid, and the two features it yields.

Starting from the radicle, the root spreads day by day: every occupied
cell offers its free 4-neighbors as division candidates, the candidates
are ranked globally by nutrient value, and the best few (up to the daily
division limit) are occupied. Each newly occupied cell with nutrient
value v contributes v/(1+|v|) + 0.49 to the absorption total (0 when
v = 0). The run yields NF (total absorption) and RF (area of the convex
polygon spanned by the occupied cell centers).

Cell coordinates in configs and logs are 1-based (row, col) with row 1
at the surface; the occupancy array uses normal 0-based indexing. The
grid shape comes from the nutrient grids, not from ``GrowthConfig``:
``grow`` and ``grow_batch`` reject a radicle cell outside the grids they
are given, and ``pipeline.PipelineConfig`` checks it against the soil.

``grow_batch`` and ``hull_areas`` are the production path: they grow a
whole stack of grids at once, keeping each grid's candidates as offers
across days and recording every day's picks, and take RF from each grid
row's extreme columns. ``grow`` with ``extract_prs`` is the per-row
reference they are tested against bit for bit; it also keeps the day
log that the CLI ``grow`` command prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_integer
from .soil import NutrientMatrix

# Upper-center seed cell: surface row, center column of a 12-wide grid.
DEFAULT_RADICLE = ((1, 6),)

_NEIGHBOR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class GrowthConfig:
    """Growth parameters: days until the first leaf, daily division limit,
    and the radicle seed cells (1-based). The grid shape is not set here."""

    days: int = 10
    division_limit: int = 2
    radicle: tuple[tuple[int, int], ...] = DEFAULT_RADICLE
    occupy_zero: bool = True  # zero-nutrient cells may still be occupied

    def __post_init__(self):
        check_integer("days", self.days)
        if self.days < 0:
            raise ValueError(f"days must be >= 0, got {self.days}")
        check_integer("division_limit", self.division_limit)
        if self.division_limit < 1:
            raise ValueError(f"division_limit must be >= 1, got {self.division_limit}")
        for r, c in self.radicle:
            check_integer("radicle row", r)
            check_integer("radicle column", c)
        radicle = tuple((int(r), int(c)) for r, c in self.radicle)
        if not radicle:
            raise ValueError("radicle must contain at least one cell")
        object.__setattr__(self, "radicle", radicle)


def check_radicle(radicle, shape) -> None:
    """Raise ValueError unless every 1-based radicle cell lies inside a
    grid of ``shape`` (rows, cols); a cell at row 0 would wrap to -1."""
    rows, cols = shape
    for r, c in radicle:
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise ValueError(f"radicle cell ({r}, {c}) outside the {rows}x{cols} grid")


@dataclass
class RootState:
    """Occupancy grid plus accumulated absorption and the per-day log."""

    occupancy: np.ndarray  # (rows, cols) of 0/1
    absorbed: float
    day_log: list[list[tuple[int, int]]] = field(default_factory=list)

    def occupied_cells(self) -> list[tuple[int, int]]:
        """Occupied (row, col) cells, 1-based, in row-major order."""
        return [(int(r) + 1, int(c) + 1) for r, c in np.argwhere(self.occupancy == 1)]


@dataclass(frozen=True)
class PRSFeaturePair:
    """The two growth features: NF (absorption) and RF (polygon area)."""

    nf: float
    rf: float


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


def grow_batch(
    grids, config: GrowthConfig = GrowthConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """``grow`` over an (m, rows, cols) stack of nutrient grids.

    Returns the absorption totals (m,) and the boolean occupancy
    (m, rows, cols); both equal what ``grow`` gives for each grid. The
    offers of each grid (cell values, -inf where not offered) are kept
    across days after a -inf sentinel at flat index 0, and each day adds
    only the neighbours of the previous day's picks; an occupied cell,
    or a barren one when ``occupy_zero`` is off, is offered at -inf. Up
    to ``division_limit`` times a day every grid picks the first maximum
    of its offers, the (-value, row, col) order of ``grow``, or the
    sentinel when no candidate is left. The picked values are recorded
    and their absorptions added in pick order, as in ``grow``.
    """
    grids = np.asarray(grids, dtype=np.float64)
    if grids.ndim != 3:
        raise ValueError(f"nutrient grids are {grids.shape}, expected (m, rows, cols)")
    check_radicle(config.radicle, grids.shape[1:])
    m, rows, cols = grids.shape
    # flat indices of each cell's 4-neighbours; 0 stands for outside
    index = np.pad(np.arange(1, 1 + rows * cols).reshape(rows, cols), 1)
    neighbours = np.zeros((1 + rows * cols, 4), dtype=np.intp)
    for k, (di, dj) in enumerate(_NEIGHBOR_STEPS):
        neighbours[1:, k] = index[1 + di : 1 + di + rows, 1 + dj : 1 + dj + cols].ravel()
    cells = np.pad(grids.reshape(m, rows * cols), ((0, 0), (1, 0)), constant_values=-np.inf)
    if not config.occupy_zero:
        cells[cells == 0.0] = -np.inf
    seeds = sorted({(r - 1) * cols + c for r, c in config.radicle})
    cells[:, seeds] = -np.inf
    offers = np.full_like(cells, -np.inf)
    # a grid occupies a cell on each day it grows, so after rows * cols
    # days none can
    days = min(config.days, rows * cols)
    picks = np.zeros((m, days, config.division_limit), dtype=np.intp)
    picked = np.full(picks.shape, -np.inf)
    samples = np.arange(m)
    new = np.broadcast_to(seeds, (m, len(seeds)))
    for day in range(days):
        near = neighbours[new].reshape(m, 4 * new.shape[1])
        offers[samples[:, None], near] = cells[samples[:, None], near]
        for k in range(config.division_limit):
            pick = picks[:, day, k] = offers.argmax(axis=1)
            picked[:, day, k] = offers[samples, pick]
            offers[samples, pick] = cells[samples, pick] = -np.inf
        new = picks[:, day]
    occupied = np.zeros((m, 1 + rows * cols), dtype=bool)
    occupied[:, seeds] = True
    steps = days * config.division_limit
    occupied[samples[:, None], picks.reshape(m, steps)] = True
    values = np.where(picked == -np.inf, 0.0, picked).reshape(m, steps)
    rates = np.where(values == 0.0, 0.0, values / (1.0 + np.abs(values)) + 0.49)
    absorbed = np.zeros(m)
    for rate in rates.T:
        absorbed += rate
    return absorbed, occupied[:, 1:].reshape(grids.shape)


def _envelope_twice_integral(heights: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Twice the integral of the upper concave envelope of integer
    heights over the present rows, per leading index; exact in integers.

    Present row i is an envelope vertex when every chord from an earlier
    present row rises to it more steeply than any chord leaves it for a
    later one. The slopes are ratios of small integers, so comparing them
    as floats is exact. The envelope is linear between vertices, so its
    integral is the trapezoid sum over consecutive vertices.
    """
    n = heights.shape[1]
    steps = np.arange(n)
    gap = steps[None, :] - steps[:, None]  # gap[i, j] = j - i
    pair = present[:, :, None] & present[:, None, :] & (gap > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (heights[:, None, :] - heights[:, :, None]) / gap
    rise_in = np.where(pair, slope, np.inf).min(axis=1)  # over earlier rows
    rise_out = np.where(pair, slope, -np.inf).max(axis=2)  # over later rows
    vertex = present & (rise_in > rise_out)
    marks = np.where(vertex, steps, n)
    following = np.minimum.accumulate(marks[:, ::-1], axis=1)[:, ::-1]
    after = np.concatenate([following[:, 1:], np.full((len(marks), 1), n)], axis=1)
    closed = vertex & (after < n)
    after = np.minimum(after, n - 1)
    width = after - steps
    total = width * (heights + np.take_along_axis(heights, after, axis=1))
    return np.where(closed, total, 0).sum(axis=1)


def hull_areas(occupancy) -> np.ndarray:
    """RF for an (m, rows, cols) stack of occupancies, bit-equal to
    ``polygon_area(convex_hull(...))`` of each grid's occupied cells.

    Every cross-section of the hull at a row lies between the convex
    envelope of the rows' leftmost occupied columns and the concave
    envelope of their rightmost ones, so twice the area is an integer
    trapezoid sum over the two chains.
    """
    occupancy = np.asarray(occupancy, dtype=bool)
    # only the rows some grid occupies: shifting the rows leaves the
    # integer trapezoid sums unchanged
    span = np.flatnonzero(occupancy.any(axis=(0, 2)))
    if not span.size:
        return np.zeros(len(occupancy))
    occupancy = occupancy[:, span[0] : span[-1] + 1]
    present = occupancy.any(axis=2)
    cols = np.arange(occupancy.shape[2])
    left = np.where(occupancy, cols, occupancy.shape[2]).min(axis=2)
    right = np.where(occupancy, cols, -1).max(axis=2)
    twice = _envelope_twice_integral(right, present) + _envelope_twice_integral(
        -left, present
    )
    return 0.5 * twice.astype(np.float64)


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
    points = [(c, r) for r, c in state.occupied_cells()]
    hull = convex_hull(points)
    return PRSFeaturePair(nf=state.absorbed, rf=polygon_area(hull))
