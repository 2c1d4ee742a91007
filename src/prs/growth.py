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

``grow_batch`` and ``hull_areas`` are the one implementation: they grow
a whole stack of grids at once, keeping each grid's candidates as offers
across days and recording every day's picks, and take RF from each grid
row's extreme columns, peeled to the hull's vertices in exact integers.
``grow`` and ``extract_prs`` are those kernels on a one-grid block:
``grow`` takes a plain (rows, cols) nutrient grid and reads the day log
that the CLI ``grow`` command prints from the recorded picks, and
``extract_prs`` returns the [NF, RF] row. The per-row loop,
monotone-chain hull and shoelace area they are tested against bit for
bit live in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_integer

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
        check_integer("days", self.days, 0)
        check_integer("division_limit", self.division_limit, 1)
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


def grow(nutrients, config: GrowthConfig = GrowthConfig()) -> RootState:
    """``grow_batch`` on one (rows, cols) nutrient grid, with the day log
    read from its picks.

    Each day lists the cells picked that day in pick order; the log stops
    at the first day with no candidate left, so it may be shorter than
    ``config.days``.
    """
    absorbed, occupancy, picks = grow_batch(np.asarray(nutrients)[None], config)
    cols = occupancy.shape[2]
    day_log: list[list[tuple[int, int]]] = []
    for day in picks[0].tolist():
        # flat pick p > 0 is the 1-based cell (row, col) with
        # (row - 1) * cols + col == p; the sentinel 0 is no cell
        cells = [((p - 1) // cols + 1, (p - 1) % cols + 1) for p in day if p]
        if not cells:
            break
        day_log.append(cells)
    return RootState(
        occupancy=occupancy[0].astype(np.int64),
        absorbed=float(absorbed[0]),
        day_log=day_log,
    )


def grow_batch(
    grids, config: GrowthConfig = GrowthConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grow the root in each grid of an (m, rows, cols) stack.

    Returns the absorption totals (m,), the boolean occupancy
    (m, rows, cols) and the picks (m, days, limit): the flat index
    ``(row - 1) * cols + col`` of each cell occupied at each step of each
    day, in pick order, or the sentinel 0 where the grid had no candidate
    left. ``days`` is ``config.days`` and ``limit`` is
    ``config.division_limit``, each capped at ``rows * cols``.

    The offers of each grid (cell values, -inf where not offered) are kept
    across days after a -inf sentinel at flat index 0, and each day adds
    only the neighbours of the previous day's picks; an occupied cell,
    or a barren one when ``occupy_zero`` is off, is offered at -inf. Up
    to ``limit`` times a day every grid picks the first maximum
    of its offers, so candidates rank by (-value, row, col), or the
    sentinel when no candidate is left. The picked values are recorded
    and their absorptions added in pick order.
    """
    grids = np.asarray(grids, dtype=np.float64)
    if grids.ndim != 3:
        raise ValueError(f"nutrient grids are {grids.shape}, expected (m, rows, cols)")
    check_radicle(config.radicle, grids.shape[1:])
    m, rows, cols = grids.shape
    # flat indices of each cell's 4-neighbours; 0 stands for outside
    index = np.zeros((rows + 2, cols + 2), dtype=np.intp)
    index[1:-1, 1:-1] = np.arange(1, 1 + rows * cols).reshape(rows, cols)
    neighbours = np.zeros((1 + rows * cols, 4), dtype=np.intp)
    for k, (di, dj) in enumerate(_NEIGHBOR_STEPS):
        neighbours[1:, k] = index[1 + di : 1 + di + rows, 1 + dj : 1 + dj + cols].ravel()
    cells = np.empty((m, 1 + rows * cols))
    cells[:, 0] = -np.inf
    cells[:, 1:] = grids.reshape(m, rows * cols)
    if not config.occupy_zero:
        cells[cells == 0.0] = -np.inf
    seeds = sorted({(r - 1) * cols + c for r, c in config.radicle})
    cells[:, seeds] = -np.inf
    offers = np.full_like(cells, -np.inf)
    # a grid occupies a cell at each step it grows, so after rows * cols
    # days, or steps in a day, none can
    days = min(config.days, rows * cols)
    limit = min(config.division_limit, rows * cols)
    picks = np.zeros((m, days, limit), dtype=np.intp)
    picked = np.full(picks.shape, -np.inf)
    samples = np.arange(m)
    # cell c of grid s sits at s * width + c of the flat views, and a
    # 1-D take or put there is cheaper than a 2-D fancy index
    width = cells.shape[1]
    row_starts = samples * width
    flat_cells, flat_offers = cells.reshape(-1), offers.reshape(-1)
    new = np.broadcast_to(seeds, (m, len(seeds)))
    for day in range(days):
        near = row_starts[:, None] + neighbours[new].reshape(m, 4 * new.shape[1])
        flat_offers[near] = flat_cells[near]
        for k in range(limit):
            pick = picks[:, day, k] = offers.argmax(axis=1)
            flat = row_starts + pick
            picked[:, day, k] = flat_offers[flat]
            flat_offers[flat] = flat_cells[flat] = -np.inf
        new = picks[:, day]
    occupied = np.zeros((m, 1 + rows * cols), dtype=bool)
    occupied[:, seeds] = True
    steps = days * limit
    occupied[samples[:, None], picks.reshape(m, steps)] = True
    values = np.where(picked == -np.inf, 0.0, picked).reshape(m, steps)
    rates = np.where(values == 0.0, 0.0, values / (1.0 + np.abs(values)) + 0.49)
    absorbed = np.zeros(m)
    for rate in rates.T:
        absorbed += rate
    return absorbed, occupied[:, 1:].reshape(grids.shape), picks


def _envelope_twice_integral(heights: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Twice the integral of the upper concave envelope of integer
    heights over the present rows, per leading index; exact in integers.

    A row on or below a chord between two other rows is no vertex. So
    every row on or below the chord between its nearest remaining rows is
    dropped, all at once, until none is; the rows left are the vertices,
    and the integral is the trapezoid sum over consecutive ones.
    """
    # rows along axis 0: the scans below then run across all grids at once
    heights, vertex = heights.T, present.T
    n, m = heights.shape
    steps = np.arange(n)[:, None]
    flat = heights.ravel()  # row r of grid s at r * m + s
    grids = np.arange(m)
    # the nearest vertex before and after each row; -1 and n for none
    before = np.full((n, m), -1)
    after = np.full((n, m), n)
    while True:
        before[1:] = np.maximum.accumulate(np.where(vertex, steps, -1)[:-1], 0)
        after[:-1] = np.minimum.accumulate(np.where(vertex, steps, n)[:0:-1], 0)[::-1]
        height_before = flat[np.maximum(before, 0) * m + grids]
        height_after = flat[np.minimum(after, n - 1) * m + grids]
        # the slope from before to the row against the chord's, cross-multiplied
        rise = (heights - height_before) * (after - before)
        below = rise <= (height_after - height_before) * (steps - before)
        drop = vertex & (before >= 0) & (after < n) & below
        if not drop.any():
            break
        vertex = vertex & ~drop
    closed = vertex & (after < n)
    total = (after - steps) * (heights + height_after)
    return np.where(closed, total, 0).sum(axis=0)


def hull_areas(occupancy) -> np.ndarray:
    """RF for an (m, rows, cols) stack of occupancies: the area of the
    convex hull of each grid's occupied cell centers.

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


def extract_prs(state: RootState) -> np.ndarray:
    """The (2,) [NF, RF] row of a grown root, as ``pipeline.prs_features``
    gives it: NF = accumulated absorption; RF = convex-hull area, from
    ``hull_areas`` on a one-grid block. The hull of fewer than 3
    non-collinear cells has area 0.
    """
    return np.array([state.absorbed, hull_areas(state.occupancy[None])[0]])
