"""Drawing hulls, epsilon-grid states, detection, and hull overlap.

A drawing hull is a wedge whose robots encode a counter value by their
placement on an epsilon grid.  Epsilon, the span and the diameter delta are
the plan's ``GridSpec``; a hull's pose is its anchor a and unit heading d,
and its frame is ``hull_basis(d)``, rows d and its left normal n:

* robot 1 sits on the anchor,
* robot 2 sits at distance epsilon along the direction,
* robot 3 sits collinearly at distance 2*i*epsilon beyond robot 2 (i >= 1),
* all further robots occupy grid cells a + (1+2i)*eps*d + 2j*eps*n.

States are finite point sets, enumerated canonically so that every occupied
set has exactly one index: blocks ordered by the smallest occupied axis cell
beyond robot 2, subsets within a block in colexicographic order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .geometry import TAU_GEOM, as_points

# Hard cap on the grid resolution; beyond this the state machinery would be
# astronomically large and something upstream chose parameters badly.
MAX_RATIO = 1e5


class FormationError(ValueError):
    """Raised for invalid hull/state parameters."""


def hull_basis(heading) -> np.ndarray:
    """Rows [d, left normal of d] for the unit d along each heading of shape
    (..., 2): hull coordinates x map to x @ basis + anchor, and points p to
    hull coordinates by (p - anchor) @ basis.T."""
    heading = np.asarray(heading, dtype=float)
    d = heading / np.hypot(heading[..., 0], heading[..., 1])[..., None]
    return np.stack([d, np.stack([-d[..., 1], d[..., 0]], axis=-1)], axis=-2)


def _lateral_distance(x, y, span) -> np.ndarray:
    """Distance to the wedge's angular sector (0 when inside [0, span))."""
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    inside = (theta >= 0.0) & (theta < span)
    # Distance to the boundary rays at angles 0 and span.
    d0 = np.where(x >= 0.0, np.abs(y), r)
    cs, sn = math.cos(span), math.sin(span)
    xs = x * cs + y * sn
    ys = -x * sn + y * cs
    d1 = np.where(xs >= 0.0, np.abs(ys), r)
    out = np.minimum(d0, d1)
    out[inside | (r <= TAU_GEOM)] = 0.0
    return out


# --- grid geometry -----------------------------------------------------------
#
# Cell ids: 0 is the anchor; grid cells (i, j) are numbered column-major,
# i ascending then j ascending, starting at id 1.  Cell (0, 0) (id 1) is the
# second defining robot's slot; cells (i, 0) with i >= 1 are the axis slots
# admissible for the third defining robot.

@dataclass(frozen=True)
class GridSpec:
    delta: float
    epsilon: float
    span: float
    col_sizes: np.ndarray = field(compare=False)
    col_prefix: np.ndarray = field(compare=False)

    @property
    def i_max(self) -> int:
        """Largest column index: the number of admissible third-robot slots,
        floor((delta/eps - 1)/2)."""
        return len(self.col_sizes) - 1

    @cached_property
    def locations(self) -> int:
        """|L|: anchor plus all grid cells inside the hull."""
        return 1 + int(self.col_sizes.sum())

    @cached_property
    def axis_ids(self) -> tuple[int, ...]:
        """Ids of the axis slots, columns 1..i_max (ascending)."""
        return tuple(1 + int(p) for p in self.col_prefix[1:])

    @cached_property
    def axis_column(self) -> dict[int, int]:
        """Axis slot id -> its column."""
        return {c: i for i, c in enumerate(self.axis_ids, start=1)}

    def axis_id(self, i: int) -> int:
        return 1 + int(self.col_prefix[i])

    @cached_property
    def wedge(self) -> np.ndarray:
        """Convex polygon circumscribing the wedge at the origin, heading +x
        (arc slightly padded outward)."""
        segments = 48
        step = self.span / segments
        radius = self.delta / math.cos(step / 2.0)
        angles = np.linspace(0.0, self.span, segments + 1)
        arc = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
        return np.vstack([[0.0, 0.0], arc])

    def cells_local(self, cell_ids) -> np.ndarray:
        """Local coordinates of cell ids (0 = anchor), one row per id."""
        ids = np.asarray(cell_ids, dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.locations):
            raise FormationError(f"cell ids out of range 0..{self.locations - 1}")
        i = np.searchsorted(self.col_prefix, ids - 1, side="right") - 1
        j = ids - 1 - self.col_prefix[i]
        out = np.stack([(1 + 2 * i) * self.epsilon, 2 * j * self.epsilon], axis=1)
        out[ids == 0] = 0.0
        return out


def grid_spec(delta: float, epsilon: float, span: float) -> GridSpec:
    """The checked epsilon grid of a hull with diameter delta and the given span.

    Requires 0 < epsilon < delta <= 1/6 and span in (0, pi/3].  A plan calls
    it once for each epsilon it tries and passes the grid it keeps to
    detection, the hull-overlap check and path validation.
    """
    if not 0.0 < epsilon < delta:
        raise FormationError("need 0 < epsilon < diameter")
    if delta > 1.0 / 6 + 1e-12:
        raise FormationError("formation diameter must be <= 1/6")
    if not 0.0 < span <= math.pi / 3 + 1e-12:
        raise FormationError("span must lie in (0, pi/3]")
    ratio = (delta + TAU_GEOM) / epsilon
    if ratio > MAX_RATIO:
        raise FormationError(f"delta/epsilon ratio {ratio:.3g} exceeds {MAX_RATIO:.0e}")
    i_max = max(int((ratio - 1.0) // 2), -1)
    while (1 + 2 * (i_max + 1)) <= ratio:
        i_max += 1
    while i_max >= 0 and (1 + 2 * i_max) > ratio:
        i_max -= 1
    if i_max < 0:
        raise FormationError("hull too small for even the anchor pair")

    tan_span = math.tan(span)
    sizes = np.zeros(i_max + 1, dtype=np.int64)
    for i in range(i_max + 1):
        x = 1 + 2 * i
        jr = int(math.sqrt(max(ratio * ratio - x * x, 0.0)) // 2)
        ja = int(math.ceil(x * tan_span / 2.0)) - 1
        j = min(jr, max(ja, 0))
        while j >= 0 and not _cell_inside(x, j, ratio, span):
            j -= 1
        while _cell_inside(x, j + 1, ratio, span):
            j += 1
        sizes[i] = j + 1
    prefix = np.zeros(i_max + 1, dtype=np.int64)
    np.cumsum(sizes[:-1], out=prefix[1:])
    return GridSpec(delta, epsilon, span, sizes, prefix)


def _cell_inside(x: int, j: int, ratio: float, span: float) -> bool:
    if j < 0:
        return False
    if x * x + 4 * j * j > ratio * ratio:
        return False
    return math.atan2(2 * j, x) < span


# --- canonical state enumeration ---------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """One legal placement: the defining triple plus free grid cells.

    ``third`` is the axis column of the third defining robot; ``free`` holds
    the remaining occupied cell ids.  The representation is canonical: the
    third robot sits on the smallest occupied axis slot, so free cells never
    include an axis cell with a smaller column.
    """

    grid: GridSpec
    third: int
    free: tuple[int, ...] = ()

    def __post_init__(self):
        g = self.grid
        if not 1 <= self.third <= g.i_max:
            raise FormationError(f"third-robot column {self.third} out of range")
        # Free cells exclude the anchor pair and the axis slots up to the third robot's.
        col = g.axis_column
        seen = set()
        for c in self.free:
            if not 2 <= c < g.locations or col.get(c, self.third + 1) <= self.third or c in seen:
                raise FormationError(f"invalid free cell id {c}")
            seen.add(c)
        object.__setattr__(self, "free", tuple(sorted(self.free)))

    @property
    def size(self) -> int:
        return 3 + len(self.free)

    def cell_ids(self) -> list[int]:
        return sorted([0, 1, self.grid.axis_id(self.third), *self.free])

    @cached_property
    def local(self) -> np.ndarray:
        """Hull-local coordinates of the occupied cells, in cell-id order."""
        return self.grid.cells_local(self.cell_ids())


@lru_cache(maxsize=65536)
def count_states(grid: GridSpec, size: int):
    """|A^size|: number of distinct placements of ``size`` robots."""
    if size < 3:
        raise FormationError("a drawing formation needs at least 3 robots")
    m = grid.i_max
    if size == 3:
        return m
    k = grid.locations
    return sum(comb(k - 2 - i, size - 3) for i in range(1, m + 1))


def _available_rank(grid: GridSpec, block: int, cid: int) -> int:
    """Rank of a cell id within the block's available universe."""
    return (cid - 2) - bisect_left(grid.axis_ids, cid, 0, block)


def _available_id(grid: GridSpec, block: int, rank: int) -> int:
    cid = rank + 2
    while True:
        skipped = bisect_left(grid.axis_ids, cid + 1, 0, block)
        cand = rank + 2 + skipped
        if cand == cid:
            return cid
        cid = cand


def _colex_rank(ranks: list[int]) -> int:
    return sum(comb(r, t + 1) for t, r in enumerate(sorted(ranks)))


def _colex_unrank(x: int, m: int) -> list[int]:
    out = []
    for t in range(m, 0, -1):
        r = t - 1
        while comb(r + 1, t) <= x:
            r += 1
        out.append(r)
        x -= comb(r, t)
    return sorted(out)


@lru_cache(maxsize=65536)
def state_by_index(grid: GridSpec, size: int, index: int) -> StateSpec:
    """Inverse of index_of_state: the index-th state (1-based) of the given size."""
    total = count_states(grid, size)
    if not 1 <= index <= total:
        raise FormationError(f"state index {index} out of range 1..{total}")
    if size == 3:
        return StateSpec(grid, index)
    k = grid.locations
    x = index - 1
    for block in range(1, grid.i_max + 1):
        here = comb(k - 2 - block, size - 3)
        if x < here:
            ranks = _colex_unrank(x, size - 3)
            free = tuple(_available_id(grid, block, r) for r in ranks)
            return StateSpec(grid, block, free)
        x -= here
    raise AssertionError("unreachable")


def index_of_state(spec: StateSpec) -> int:
    grid = spec.grid
    size = spec.size
    if size == 3:
        return spec.third
    k = grid.locations
    prefix = sum(comb(k - 2 - i, size - 3) for i in range(1, spec.third))
    ranks = [_available_rank(grid, spec.third, c) for c in spec.free]
    return prefix + _colex_rank(ranks) + 1


def state_from_cells(grid: GridSpec, cell_ids) -> StateSpec:
    """Canonical StateSpec for an occupied cell-id set (or raise)."""
    cells = [int(c) for c in cell_ids]
    ids = sorted(set(cells))
    if len(ids) != len(cells):
        raise FormationError("duplicate occupied cells")
    if 0 not in ids or 1 not in ids:
        raise FormationError("anchor and its epsilon partner must be occupied")
    # Axis slot ids ascend with their column, so the first one present is the third robot's.
    third = next((grid.axis_column[c] for c in ids if c in grid.axis_column), None)
    if third is None:
        raise FormationError("no admissible third defining robot")
    free = tuple(c for c in ids if c not in (0, 1, grid.axis_id(third)))
    return StateSpec(grid, third, free)


def _decode(grid: GridSpec, cell_ids: tuple[int, ...]) -> tuple[StateSpec, int] | None:
    """(state, index) of a sorted occupied cell-id tuple, or None if it is no state."""
    try:
        spec = state_from_cells(grid, cell_ids)
    except FormationError:
        return None
    return spec, index_of_state(spec)


def _decode_rows(grid: GridSpec, cells, lows, counts) -> np.ndarray:
    """The state index of each row cells[lows[r]:lows[r] + counts[r]] read as
    a set of the grid's cell ids (duplicates kept), 0 where it is no state.

    The rows fill one (rows, longest) table padded with grid.locations, which
    sorts after every cell id; each sorted row's bytes key ``_decode_key``, so
    a cell set is decoded once however many rows hold it.  Cell ids are
    hull-local, so every member of a formation sees the same key."""
    table = np.full((len(counts), counts.max(initial=1)), grid.locations, dtype=np.int64)
    row, at = _ranges(lows, counts)
    table[row, at - lows[row]] = cells[at]
    table.sort(axis=1)
    keys = table.view(np.dtype((np.void, 8 * table.shape[1]))).ravel().tolist()
    return np.array([_decode_key(grid, key) for key in keys], dtype=np.int64)


@lru_cache(maxsize=4096)
def _decode_key(grid: GridSpec, key: bytes) -> int:
    """``_decode``'s index of one padded sorted row of ``_decode_rows``, or 0:
    the one memo of a pure function of the grid and the row's own cells."""
    cells = np.frombuffer(key, dtype=np.int64)
    found = _decode(grid, tuple(cells[cells < grid.locations].tolist()))
    return found[1] if found else 0


# --- detection ----------------------------------------------------------------

class Detections(NamedTuple):
    """Formation f of window window[f] is anchored at anchor[f], heads to its
    partner along heading[f], is in state state[f], and has members
    members[bounds[f]:bounds[f + 1]] (local to the window) at hull coordinates
    local[...].  Ordered by window, then pose."""

    window: np.ndarray
    anchor: np.ndarray
    heading: np.ndarray
    state: np.ndarray
    bounds: np.ndarray
    members: np.ndarray
    local: np.ndarray


def detect_arrays(points, sizes, grid: GridSpec, tol: float = TAU_GEOM) -> Detections:
    """The drawing formations on ``grid`` within tol of many point sets, in one
    array pass: epsilon-pairs with a collinear third robot beyond the partner
    (which tells anchor from partner), kept when every robot in the hull
    realizes a legal grid state.  A row's members snap to cell ids, and
    ``_decode_rows`` decodes each distinct sorted cell set of the call once.
    The pass is two steps, ``_orientations`` up to the live rows and
    ``_complete`` from them.

    ``points`` is the concatenation of the windows and ``sizes`` their
    lengths; window w's formations equal those of window w alone, bit for
    bit.  No stage reads across windows: epsilon-pairs are formed within a
    window, and each candidate orientation reads only its own window's points.
    """
    pts = as_points(points)
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or (sizes < 0).any() or sizes.sum() != len(pts):
        raise ValueError("window sizes must be nonnegative and sum to the number of points")
    return _complete(_orientations(pts, sizes, grid, tol), grid, tol)


class _Rows(NamedTuple):
    """The candidate orientations of ``detect_arrays``: row r is anchored at
    pts[p[r]] and heads along the unit u[r] to its partner; it is live when a
    collinear third robot lies beyond the partner.  Entry k sets row[k] against
    point col[k], at hull coordinates (x[k], y[k]); win and starts give each
    point's window and each window's first point."""

    pts: np.ndarray
    win: np.ndarray
    starts: np.ndarray
    p: np.ndarray
    u: np.ndarray
    row: np.ndarray
    col: np.ndarray
    x: np.ndarray
    y: np.ndarray
    live: np.ndarray


def _orientations(pts, sizes, grid: GridSpec, tol: float) -> _Rows:
    """``detect_arrays``' first step on checked points and window sizes: the
    epsilon-pairs of each window, both orientations of each, every point in
    each orientation's hull coordinates, and which rows are live."""
    eps, delta = grid.epsilon, grid.delta
    starts = np.cumsum(sizes) - sizes
    win = np.repeat(np.arange(len(sizes)), sizes)
    z = pts[:, 0] + 1j * pts[:, 1]
    a, b = _epsilon_pairs(pts, win, eps, tol)
    close = np.flatnonzero(np.abs(np.abs(z[b] - z[a]) - eps) <= tol)
    close = close[np.lexsort((b[close], a[close]))]     # each window's pairs row by row
    a, b = a[close], b[close]
    # Orientations (a, b), (b, a) of each pair, in that order: anchor p, partner q.
    p_idx = np.empty(2 * len(a), dtype=np.int64)
    q_idx = np.empty_like(p_idx)
    p_idx[0::2], p_idx[1::2] = a, b
    q_idx[0::2], q_idx[1::2] = b, a
    rel_q = z[q_idx] - z[p_idx]
    u = rel_q / np.abs(rel_q)                           # unit directions p -> q
    # Every orientation against every point of its window, as one flat array.
    row_win = win[p_idx]
    row, col = _ranges(starts[row_win], sizes[row_win])
    local = (z[col] - z[p_idx][row]) * u.conj()[row]
    x, y = local.real, local.imag

    # Third defining robot: collinear beyond q at distance 2*i*eps, i >= 1.
    i = np.rint((x / eps - 1.0) / 2.0)
    third = ((np.abs(y) <= tol) & (x >= 3 * eps - tol) & (x <= delta + tol)
             & (i >= 1) & (np.abs(x - (1 + 2 * i) * eps) <= tol)
             & (col != p_idx[row]) & (col != q_idx[row]))
    live = np.bincount(row[third], minlength=len(p_idx)) > 0
    return _Rows(pts, win, starts, p_idx, u, row, col, x, y, live)


def _complete(orient: _Rows, grid: GridSpec, tol: float) -> Detections:
    """``detect_arrays``' second step: the members of each live row, snapped
    and decoded, one formation per window and pose.  With no live row it
    returns the empty ``Detections`` at once."""
    if not orient.live.any():
        none = np.zeros(0, dtype=np.int64)
        return Detections(none, np.zeros((0, 2)), np.zeros((0, 2)), none,
                          np.zeros(1, dtype=np.int64), none, np.zeros((0, 2)))
    pts, win, starts, p_idx, u, row, col, x, y, live = orient
    eps = grid.epsilon
    row_win = win[p_idx]
    # Members: the points of each live row within delta + tol of its anchor and
    # inside the wedge, tested and snapped as one flat (row-major) array.
    keep = np.flatnonzero(live[row])
    keep = keep[np.hypot(x[keep], y[keep]) <= grid.delta + tol]
    keep = keep[_lateral_distance(x[keep], y[keep], grid.span) <= tol]
    row, col, xs, ys = row[keep], col[keep], x[keep], y[keep]
    cells, on_grid = _snap_cells(grid, xs, ys, eps, tol)
    live = np.flatnonzero(live)
    lows = np.searchsorted(row, live)
    counts = np.searchsorted(row, live, side="right") - lows
    off_grid = np.concatenate([[0], np.cumsum(~on_grid)])
    ok = (counts >= 3) & (off_grid[lows + counts] == off_grid[lows])
    state = _decode_rows(grid, cells, lows[ok], counts[ok])
    rows, state = live[ok][state > 0], state[state > 0]
    heading = np.column_stack([u.real[rows], u.imag[rows]])
    anchor = pts[p_idx[rows]]
    # One formation per window and pose (anchor, normalised direction) rounded
    # to 1e-8: the first row holding it.
    key = np.column_stack([row_win[rows], anchor, heading / np.hypot(*heading.T)[:, None]])
    order = np.lexsort(np.round(key, 8).T[::-1])
    key = np.round(key, 8)[order]
    order = order[np.concatenate([[True], (key[1:] != key[:-1]).any(axis=1)])[:len(order)]]
    found = np.searchsorted(live, rows[order])
    _, members = _ranges(lows[found], counts[found])
    return Detections(row_win[rows[order]], anchor[order], heading[order],
                      state[order],
                      np.concatenate([[0], np.cumsum(counts[found])]),
                      col[members] - starts[win[col[members]]],
                      np.column_stack([xs[members], ys[members]]))


def _epsilon_pairs(pts, win, eps: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b), a < b, of one window whose x-coordinates differ by
    about eps + tol at most: a superset of the pairs at distance eps within tol,
    from a sweep over the points sorted on key = x + win*shift.

    shift exceeds the span of x by 4(eps + tol) + 1, so each window's keys
    lie in their own range, more than a reach away from the next window's,
    and no query leaves its window.  The candidates hold every pair the
    distance test keeps: that test passes only for a computed distance
    h <= (eps + tol)(1 + 2^-52), and the computed ``np.abs`` of a complex
    difference is never below the magnitude of its real part.  Both points of
    a window add the same rounded fl(win*shift), so their keys differ by their
    x difference up to the rounding of the two sums and of that difference,
    each below 2^-53 (|key| + 1); the reach exceeds eps + tol by more than
    these and the rounding of key + reach together.
    """
    x = pts[:, 0]
    shift = 2.0 * np.abs(x).max(initial=0.0) + 4.0 * (eps + tol) + 1.0
    key = x + win * shift
    order = np.argsort(key)
    key = key[order]
    reach = (eps + tol) * (1.0 + 1e-12) + 2.0 ** -49 * (np.abs(key) + 1.0)
    ends = np.searchsorted(key, key + reach, side="right")
    after = np.arange(1, len(key) + 1)
    first, second = _ranges(after, ends - after)        # each sorted point's partners after it
    a, b = order[first], order[second]
    return np.minimum(a, b), np.maximum(a, b)


def _ranges(starts, counts) -> tuple[np.ndarray, np.ndarray]:
    """(k, i) for every i in starts[k] .. starts[k] + counts[k] - 1, k ascending."""
    k = np.repeat(np.arange(len(counts)), counts)
    return k, np.arange(len(k)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _snap_cells(grid: GridSpec, xs, ys, eps: float, tol: float):
    """(cell ids, whether on the grid) of hull-local points, elementwise."""
    anchor = np.hypot(xs, ys) <= tol
    i = np.rint((xs / eps - 1.0) / 2.0).astype(np.int64)
    j = np.rint(ys / (2.0 * eps)).astype(np.int64)
    col = np.minimum(np.maximum(i, 0), grid.i_max)
    ok = (i >= 0) & (j >= 0) & (i <= grid.i_max) & (j < grid.col_sizes[col])
    ok &= np.hypot(xs - (1 + 2 * i) * eps, ys - 2 * j * eps) <= tol
    ids = 1 + grid.col_prefix[col] + j
    ids[anchor] = 0
    return ids, ok | anchor


# --- hull overlap --------------------------------------------------------------

def overlapping(det: Detections, f, g, grid: GridSpec) -> np.ndarray:
    """Whether the hulls of formations f[k] and g[k] of det intersect (touching
    counts), for every k.  A configuration is valid when no two of its hulls
    do.  Hulls anchored more than 2δ + TAU_GEOM apart (``_within_cutoff``)
    are disjoint without a polygon test."""
    out = _within_cutoff(det.anchor, f, g, grid)
    for k in np.flatnonzero(out).tolist():
        pair = [f[k], g[k]]
        out[k] = _convex_overlap(grid.wedge @ hull_basis(det.heading[pair])
                                 + det.anchor[pair][:, None])
    return out


def overlapping_hulls(points, grid: GridSpec, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The member rows of both formations of each overlapping pair among the
    formations of one point set, pairs in ``np.triu_indices`` order.  Detection
    stops at the live orientations, whose anchors hold every formation's
    anchor, and completes only when two of them lie within the cutoff that
    ``overlapping`` applies before any polygon test: otherwise no pair of
    hulls can meet, and the answer is the same without detecting."""
    pts = as_points(points)
    orient = _orientations(pts, np.array([len(pts)]), grid, tol)
    anchors = pts[orient.p[orient.live]]
    if not _within_cutoff(anchors, *np.triu_indices(len(anchors), 1), grid).any():
        return []
    det = _complete(orient, grid, tol)
    f, g = np.triu_indices(len(det.state), 1)
    hit = overlapping(det, f, g, grid)
    members = np.split(det.members, det.bounds[1:-1])
    return [(members[a], members[b]) for a, b in zip(f[hit].tolist(), g[hit].tolist())]


def _within_cutoff(anchor, f, g, grid: GridSpec) -> np.ndarray:
    """Whether anchor[f[k]] and anchor[g[k]] lie within 2δ + TAU_GEOM, for every k:
    the cutoff beyond which two hulls cannot meet."""
    gap = anchor[f] - anchor[g]
    return np.hypot(gap[:, 0], gap[:, 1]) <= 2 * grid.delta + TAU_GEOM


def _convex_overlap(polys: np.ndarray) -> bool:
    """Separating-axis test for the two convex polygons of polys (2, m, 2),
    projected onto every edge normal of both in one product (touching counts
    as overlap)."""
    edges = np.roll(polys, -1, axis=1) - polys
    normals = np.stack([-edges[..., 1], edges[..., 0]], axis=-1).reshape(-1, 2)
    proj = polys @ normals.T
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    return not ((hi[0] < lo[1] - 1e-12) | (hi[1] < lo[0] - 1e-12)).any()
