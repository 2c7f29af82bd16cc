"""Drawing hulls, epsilon-grid states, detection, and validity.

A drawing hull is a wedge (anchor, unit direction, span, diameter) whose
robots encode a counter value by their placement on an epsilon grid:

* robot 1 sits on the anchor,
* robot 2 sits at distance epsilon along the direction,
* robot 3 sits collinearly at distance 2*i*epsilon beyond robot 2 (i >= 1),
* all further robots occupy grid cells a + (1+2i)*eps*d + 2j*eps*d_perp.

States are finite point sets, enumerated canonically so that every occupied
set has exactly one index: blocks ordered by the smallest occupied axis cell
beyond robot 2, subsets within a block in colexicographic order.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .geometry import TAU_GEOM, as_points, perp

# Hard cap on the grid resolution; beyond this the state machinery would be
# astronomically large and something upstream chose parameters badly.
MAX_RATIO = 1e5

_GRID_CACHE: dict[tuple, "GridSpec"] = {}


class FormationError(ValueError):
    """Raised for invalid hull/state parameters."""


@dataclass(frozen=True)
class DrawingHull:
    """Wedge container: all x with dist(x, anchor) <= diameter and
    angle(direction, x - anchor) in [0, span)."""

    anchor: np.ndarray
    direction: np.ndarray
    span: float
    diameter: float

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        if abs(float(np.hypot(d[0], d[1])) - 1.0) > 1e-7:
            raise FormationError("hull direction must be a unit vector")
        if not 0.0 < self.span <= math.pi / 3 + 1e-12:
            raise FormationError("hull span must lie in (0, pi/3]")
        if not 0.0 < self.diameter <= 1.0 + 1e-12:
            raise FormationError("hull diameter must lie in (0, 1]")
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "direction", d / np.hypot(d[0], d[1]))

    def local(self, points: np.ndarray) -> np.ndarray:
        """Coordinates of an (n, 2) array relative to the anchor, x along
        direction.  Callers pass checked arrays; nothing is re-validated."""
        d = self.direction
        basis = np.stack([d, perp(d)], axis=1)
        return (points - self.anchor) @ basis

    def to_global(self, local_points: np.ndarray) -> np.ndarray:
        """Inverse of ``local`` for an (n, 2) array of hull coordinates."""
        d = self.direction
        basis = np.stack([d, perp(d)], axis=0)
        return local_points @ basis + self.anchor


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


@dataclass(frozen=True)
class FormationParams:
    epsilon: float
    delta_diam: float
    span: float
    tol: float = TAU_GEOM

    def __post_init__(self):
        if not 0.0 < self.epsilon < self.delta_diam:
            raise FormationError("need 0 < epsilon < diameter")
        if self.delta_diam > 1.0 / 6 + 1e-12:
            raise FormationError("formation diameter must be <= 1/6")
        if not 0.0 < self.span <= math.pi / 3 + 1e-12:
            raise FormationError("span must lie in (0, pi/3]")

    def grid(self) -> GridSpec:
        return grid_spec(self.delta_diam, self.epsilon, self.span)


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
        return len(self.col_sizes) - 1

    @property
    def axis_count(self) -> int:
        """Number of admissible third-robot slots, floor((delta/eps - 1)/2)."""
        return self.i_max

    @cached_property
    def locations(self) -> int:
        """|L|: anchor plus all grid cells inside the hull."""
        return 1 + int(self.col_sizes.sum())

    @cached_property
    def axis_ids(self) -> tuple[int, ...]:
        """Ids of the axis slots, columns 1..axis_count (ascending)."""
        return tuple(1 + int(p) for p in self.col_prefix[1:])

    @cached_property
    def axis_column(self) -> dict[int, int]:
        """Axis slot id -> its column."""
        return {c: i for i, c in enumerate(self.axis_ids, start=1)}

    def axis_id(self, i: int) -> int:
        return 1 + int(self.col_prefix[i])

    def cell_of_id(self, cid: int) -> tuple[int, int]:
        if cid < 1 or cid >= self.locations:
            raise FormationError(f"cell id {cid} out of range")
        i = int(np.searchsorted(self.col_prefix, cid - 1, side="right")) - 1
        return i, cid - 1 - int(self.col_prefix[i])

    def cell_local(self, cid: int) -> np.ndarray:
        """Local coordinates of a cell id (0 = anchor)."""
        got = self._local_cache.get(cid)
        if got is None:
            if cid == 0:
                got = np.zeros(2)
            else:
                i, j = self.cell_of_id(cid)
                got = np.array([(1 + 2 * i) * self.epsilon, 2 * j * self.epsilon])
            self._local_cache[cid] = got
        return got


def grid_spec(delta: float, epsilon: float, span: float) -> GridSpec:
    key = (round(delta, 15), float(epsilon), round(span, 15))
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return cached

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
    spec = GridSpec(delta, epsilon, span, sizes, prefix)
    object.__setattr__(spec, "_local_cache", {})
    _GRID_CACHE[key] = spec
    return spec


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
        if not 1 <= self.third <= g.axis_count:
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
        return np.stack([self.grid.cell_local(c) for c in self.cell_ids()])

    def points(self, hull: DrawingHull) -> np.ndarray:
        return hull.to_global(self.local)


@lru_cache(maxsize=65536)
def count_states(grid: GridSpec, size: int):
    """|A^size|: number of distinct placements of ``size`` robots."""
    if size < 3:
        raise FormationError("a drawing formation needs at least 3 robots")
    m = grid.axis_count
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
    for block in range(1, grid.axis_count + 1):
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


@lru_cache(maxsize=4096)
def _decode(grid: GridSpec, cell_ids: tuple[int, ...]) -> tuple[StateSpec, int] | None:
    """(state, index) of a sorted occupied cell-id tuple, or None if it is no state.
    Cell ids are hull-local, so all members of a formation look up one key."""
    try:
        spec = state_from_cells(grid, cell_ids)
    except FormationError:
        return None
    return spec, index_of_state(spec)


# --- detection ----------------------------------------------------------------

@dataclass(frozen=True)
class DetectedFormation:
    hull: DrawingHull
    member_indices: tuple[int, ...]
    local: np.ndarray       # hull-local coordinates of the members, in member_indices order
    state_index: int

    @property
    def size(self) -> int:
        return len(self.member_indices)


def detect_formations(points, params: FormationParams) -> list[DetectedFormation]:
    """All epsilon-granular drawing formations present in a point set.

    Seeks pairs at distance epsilon, a collinear third robot beyond the
    second (which disambiguates anchor from partner), reconstructs the hull,
    and keeps the candidate only if every robot inside the hull realizes a
    legal grid state.  All orientations of all pairs are tested in one pass.
    """
    pts = as_points(points)
    m = len(pts)
    if m < 3:
        return []
    eps, tol, delta = params.epsilon, params.tol, params.delta_diam
    z = pts[:, 0] + 1j * pts[:, 1]
    a, b = (ends[:m * (m - 1) // 2] for ends in _pairs_by_column(1 << (m - 1).bit_length()))
    close = np.flatnonzero(np.abs(np.abs(z[b] - z[a]) - eps) <= tol)
    if not len(close):
        return []
    close = close[np.argsort(a[close], kind="stable")]      # pairs row by row
    a, b = a[close], b[close]
    # Orientations (a, b), (b, a) of each pair, in that order: anchor p, partner q.
    p_idx = np.stack([a, b], axis=1).ravel()
    q_idx = np.stack([b, a], axis=1).ravel()
    rows = np.arange(len(p_idx))
    rel = z[None, :] - z[p_idx, None]
    u = rel[rows, q_idx] / np.abs(rel[rows, q_idx])     # unit directions p -> q
    local = rel * u.conj()[:, None]
    x, y = local.real, local.imag

    # Third defining robot: collinear beyond q at distance 2*i*eps, i >= 1.
    i = np.rint((x / eps - 1.0) / 2.0)
    third = ((np.abs(y) <= tol) & (x >= 3 * eps - tol) & (x <= delta + tol)
             & (i >= 1) & (np.abs(x - (1 + 2 * i) * eps) <= tol))
    third[rows, p_idx] = False
    third[rows, q_idx] = False
    live = np.flatnonzero(third.any(axis=1))
    if not len(live):
        return []
    x, y = x[live], y[live]
    members = (np.hypot(x, y) <= delta + tol) & (_lateral_distance(x, y, params.span) <= tol)
    grid = params.grid()
    cells, on_grid = _snap_cells(grid, x, y, eps, tol)

    found: dict[tuple, DetectedFormation] = {}
    for row, c in enumerate(live.tolist()):
        member_idx = np.flatnonzero(members[row])
        if len(member_idx) < 3 or not on_grid[row, member_idx].all():
            continue
        decoded = _decode(grid, tuple(sorted(cells[row, member_idx].tolist())))
        if decoded is None:
            continue
        hull = DrawingHull(pts[p_idx[c]], np.array([u[c].real, u[c].imag]), params.span, delta)
        key = tuple(np.round(np.concatenate([hull.anchor, hull.direction]), 8).tolist())
        found.setdefault(key, DetectedFormation(
            hull=hull, member_indices=tuple(member_idx.tolist()),
            local=np.stack([x[row, member_idx], y[row, member_idx]], axis=1),
            state_index=decoded[1]))
    return [found[k] for k in sorted(found)]


@lru_cache(maxsize=None)
def _pairs_by_column(cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of cap points ordered by j, then i: the pairs
    of the first m points are the first m(m - 1)/2."""
    j, i = np.tril_indices(cap, -1)
    return i, j


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


# --- validity ------------------------------------------------------------------

@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    overlaps: tuple[tuple[int, int], ...]
    formations: tuple[DetectedFormation, ...]


def check_validity(points, params: FormationParams) -> ValidityReport:
    """A configuration is valid when all detected hulls are pairwise disjoint."""
    formations = detect_formations(points, params)
    overlaps = tuple((i, j) for i, j in itertools.combinations(range(len(formations)), 2)
                     if hulls_overlap(formations[i].hull, formations[j].hull))
    return ValidityReport(not overlaps, overlaps, tuple(formations))


def hulls_overlap(a: DrawingHull, b: DrawingHull) -> bool:
    """Whether two hulls intersect (touching counts).  Hulls anchored more than
    their two diameters plus TAU_GEOM apart are disjoint without a polygon test."""
    if np.hypot(*(a.anchor - b.anchor)) > a.diameter + b.diameter + TAU_GEOM:
        return False
    return _convex_overlap(wedge_polygon(a), wedge_polygon(b))


def wedge_polygon(hull: DrawingHull, segments: int = 48) -> np.ndarray:
    """Convex polygon circumscribing the wedge (arc slightly padded outward)."""
    step = hull.span / segments
    radius = hull.diameter / math.cos(step / 2.0)
    angles = np.linspace(0.0, hull.span, segments + 1)
    arc = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
    local = np.vstack([[0.0, 0.0], arc])
    return hull.to_global(local)


def _convex_overlap(pa: np.ndarray, pb: np.ndarray) -> bool:
    """Separating-axis test for two convex polygons (touching counts as overlap)."""
    for poly in (pa, pb):
        edges = np.roll(poly, -1, axis=0) - poly
        normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
        for nrm in normals:
            a0, a1 = (pa @ nrm).min(), (pa @ nrm).max()
            b0, b1 = (pb @ nrm).min(), (pb @ nrm).max()
            if a1 < b0 - 1e-12 or b1 < a0 - 1e-12:
                return False
    return True
