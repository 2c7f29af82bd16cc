"""Per-robot decision logic and the plan derived deterministically from a pattern.

Every robot runs the same pure function of its local view and the plan.
The pattern alone determines the plan: the hull grid, the
canonical rotation, the drawing path, the initial cluster placement, and a
reference schedule used both as the simulator's ground truth and as the
near-gathering snapshot list robots match against.

Patterns of symmetricity >= n/2 use a separate scaling branch: form the
pattern shrunk to a small diameter, then scale radially by at most one unit
per round.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geometry import (
    TAU_GEOM,
    as_points,
    dist,
    enclosing_centers,
    match_points,
    mindist,
    nearest_in_sets,
    pairwise_distances,
    polar_angle,
    rotate,
    rotation_matrix,
    unit,
    unit_disc_connected,
)
from .symmetry import centered_symmetricity, normalize, rotation_orbits, symmetricity
from .formation import (
    FormationError,
    GridSpec,
    _ranges,
    detect_arrays,
    grid_spec,
    hull_basis,
    overlapping,
    state_by_index,
)
from .pathing import DrawingPath, build_drawing_path

DEFAULT_C = 0.01
_MAX_HALVINGS = 20
_SHRINK_DIAMETER = 0.4   # round-1 scale target keeps every displacement below 1


class PlanError(ValueError):
    """Raised when no consistent plan exists for a pattern."""


class Phase(str, Enum):
    INITIAL = "initial-near-gathering"
    FORMATION = "in-drawing-formation"
    INTERMEDIATE = "in-intermediate-formation"
    DROPPED = "dropped"
    STAR = "star"


@dataclass(frozen=True)
class Decision:
    target: np.ndarray          # movement target in the robot's frame
    phase: Phase
    events: tuple[str, ...] = ()


# --- reference schedule ---------------------------------------------------------

@dataclass(frozen=True)
class ScheduleRound:
    positions: np.ndarray
    roles: tuple[Phase, ...]


class StarRing(NamedTuple):
    """One orbit of a star pattern, seen from the orbit's first point q."""

    q: np.ndarray
    offs: np.ndarray            # nonzero pattern - q, in ascending order of norm
    norms: np.ndarray           # |offs|, ascending


@dataclass(frozen=True)
class StarPlan:
    d_max: float
    kappa0: float
    rounds_bound: int
    mindist: float      # mindist(pattern); 1.0 for a single point
    rings: tuple[StarRing, ...]     # one per orbit


class SlotOrbits(NamedTuple):
    """The slots' orbits under the rotation by 2*pi/d, in ``_slot_key`` order."""

    angles: np.ndarray              # polar angle of each orbit's lowest-index slot
    by_k: tuple[tuple[int, ...] | None, ...]    # slot indices by step k; None if uneven


@dataclass(frozen=True)
class SlotTable:
    """The slots of the one-round near-gathering assignment, with their
    orbits for every divisor d of s_p (None where the rotation by 2*pi/d
    does not map the slots onto themselves within 1e-7).  Built once per
    plan by ``_slot_table``; ``assignment_target`` only reads it."""

    points: np.ndarray
    orbits: dict[int, SlotOrbits | None]


@dataclass
class Plan:
    """Everything the protocol derives from the pattern.  ``grid`` holds the
    hull grid's epsilon, diameter delta and span; ``c`` is the grid constant
    the drawing branch settled on.  ``slots`` holds the targets of the
    near-gathering assignment (``initial`` on the drawing branch, the shrunken
    pattern kappa0*pattern on the scaling branch) with their orbits for every
    divisor of s_p."""

    pattern: np.ndarray             # canonical pattern (normalized, rotated)
    s_p: int                        # the pattern's symmetricity
    c: float | None = None          # None on the scaling branch
    path: DrawingPath | None = None
    grid: GridSpec | None = None        # the hull grid of every drawing formation
    initial: np.ndarray | None = None
    schedule: list[ScheduleRound] = field(default_factory=list)
    snapshot_ids: list[int] = field(default_factory=list)
    snapshot_radii: np.ndarray | None = None        # (snapshots, n) sorted centroid radii
    snapshot_centered: np.ndarray | None = None     # (snapshots, n, 2) centroid-centred
    tail_points: np.ndarray | None = None     # p1, p2, p3 in path frame
    ending: np.ndarray | None = None    # intermediate_targets, in path frame
    moves: list[np.ndarray] = field(default_factory=list)   # per path vertex, see _move_tables
    star: StarPlan | None = None
    slots: SlotTable | None = None

    @property
    def n(self) -> int:
        return len(self.pattern)

    @property
    def branch(self) -> str:
        """The scaling branch ("star") or the drawing branch ("draw")."""
        return "star" if self.star is not None else "draw"

    @property
    def hops(self) -> int:
        return self.path.hops if self.path is not None else 0


_PLAN_CACHE: dict[tuple, Plan] = {}


def build_plan(pattern, c: float = DEFAULT_C) -> Plan:
    """Everything the protocol derives from the pattern (memoized).

    Raises ValueError when two pattern points coincide or c is not a
    positive finite number.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be a positive finite number, got {c}")
    pts = normalize(pattern)
    key = (pts.round(12).tobytes(), float(c))
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    plan = _build_plan(pts, c)
    if len(_PLAN_CACHE) > 64:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = plan
    return plan


def _build_plan(pts: np.ndarray, c0: float) -> Plan:
    n = len(pts)
    md = mindist(pts) if n > 1 else 1.0
    info = symmetricity(pts)
    s = info.sym
    if n > 1 and not unit_disc_connected(pts):
        raise PlanError("pattern must be connected in the unit disc graph")

    if 2 * s >= n:
        d_max = float(np.hypot(pts[:, 0], pts[:, 1]).max()) if n > 1 else 0.0
        diam = float(pairwise_distances(pts).max()) if n > 1 else 0.0
        kappa0 = 1.0 if diam <= _SHRINK_DIAMETER or diam == 0.0 else _SHRINK_DIAMETER / diam
        rounds_bound = 1 + int(math.ceil((1.0 - kappa0) * d_max - 1e-9)) if d_max > 0 else 1
        rings = []
        for orbit in info.orbit_partition:
            offs = pts - pts[orbit[0]]
            norms = np.hypot(*offs.T)
            keep = norms > TAU_GEOM
            order = np.argsort(norms[keep])
            rings.append(StarRing(pts[orbit[0]], offs[keep][order], norms[keep][order]))
        star = StarPlan(d_max=d_max, kappa0=kappa0, rounds_bound=rounds_bound,
                        mindist=md, rings=tuple(rings))
        plan = Plan(pattern=pts, s_p=s, star=star,
                    slots=_slot_table(kappa0 * pts, s))
        _build_star_schedule(plan)
        return plan

    base = min(1.0 / s, md, 1.0 / math.sqrt(n))
    delta = 0.1
    span = min(2.0 * math.pi / s, math.pi / 3)
    last_err: Exception | None = None
    for halving in range(_MAX_HALVINGS + 1):
        c = c0 / (2 ** halving)
        eps = base * c
        if eps >= delta / 3:
            last_err = PlanError("epsilon must be below a third of the hull diameter")
            continue
        try:
            grid = grid_spec(delta, eps, span)
        except FormationError as exc:
            # Only the delta/epsilon ratio can fail here, and halving epsilon
            # again would only double it: report the last path error instead.
            last_err = last_err or exc
            break
        try:
            if grid.locations < n // s + 2:
                raise PlanError("not enough grid locations for the component")
            path = build_drawing_path(pts, s, grid)
        except (PlanError, ValueError) as exc:
            last_err = exc
            continue
        plan = Plan(pattern=path.pattern, s_p=s, c=c, path=path, grid=grid)
        _finish_draw_plan(plan)
        return plan
    raise PlanError(f"no workable epsilon found after {halving} halvings: {last_err}")


def _finish_draw_plan(plan: Plan) -> None:
    path = plan.path
    vk = path.vertices[-1]
    tail_cov = sorted({i for c in path.coverage[path.tail_start:] for i in c})
    triple = sorted(tail_cov, key=lambda i: (dist(path.pattern[i], vk),
                                             tuple(np.round(path.pattern[i], 9))))
    p1 = path.pattern[triple[0]]
    rest = sorted(triple[1:], key=lambda i: tuple(np.round(path.pattern[i], 9)))
    p2, p3 = path.pattern[rest[0]], path.pattern[rest[1]]
    plan.tail_points = np.stack([p1, p2, p3])
    plan.ending = intermediate_targets(plan)

    plan.initial = _initial_positions(plan)
    plan.slots = _slot_table(plan.initial, plan.s_p)
    plan.schedule = _build_draw_schedule(plan)
    _index_snapshots(plan)
    plan.moves = _move_tables(plan)


def intermediate_targets(plan: Plan) -> np.ndarray:
    """The three ending positions around the last vertex, in the path frame."""
    vk = plan.path.vertices[-1]
    eps = plan.grid.epsilon
    p1, p2, p3 = plan.tail_points
    t1 = vk
    t2 = vk + (eps / 2.0) * unit(p2 - vk)
    t3 = vk + (eps / 3.0) * unit(p3 - vk)
    return np.stack([t1, t2, t3])


def _initial_positions(plan: Plan) -> np.ndarray:
    """The initial cluster configuration: s rotated copies of the first
    formation in state 1, anchored at polar (2*diameter, pi/s) and heading +x."""
    s = plan.s_p
    size0, idx0 = plan.path.labels[0]
    assert idx0 == 1 and size0 == plan.n // s
    base = state_by_index(plan.grid, size0, 1).local + plan.path.vertices[0]
    blocks = [rotate(base, k * 2.0 * math.pi / s) for k in range(s)]
    return np.vstack(blocks)


def _build_draw_schedule(plan: Plan) -> list[ScheduleRound]:
    """Formation-level replay of the whole execution, one record per round;
    each formation heads +x from its vertex."""
    path = plan.path
    s = plan.s_p
    k = len(path.vertices)
    w = 2.0 * math.pi / s
    rounds: list[ScheduleRound] = []

    dropped: list[np.ndarray] = []       # path-frame positions, component 1
    for t in range(k):
        size, idx = path.labels[t]
        state_pts = state_by_index(plan.grid, size, idx).local + path.vertices[t]
        drops_now = [path.pattern[i] for i in path.coverage[t]] if t < path.tail_start else []
        pos, roles = _replicate(dropped, state_pts, Phase.FORMATION, s, w)
        rounds.append(ScheduleRound(pos, roles))
        dropped.extend(drops_now)

    pos, roles = _replicate(dropped, plan.ending, Phase.INTERMEDIATE, s, w)
    rounds.append(ScheduleRound(pos, roles))

    final_drops = [plan.tail_points[i] for i in range(3)]
    pos, roles = _replicate(dropped + final_drops, np.zeros((0, 2)), Phase.DROPPED, s, w)
    rounds.append(ScheduleRound(pos, roles))
    return rounds


def _replicate(dropped, active_pts, active_role, s, w):
    blocks = []
    roles: list[Phase] = []
    for j in range(s):
        rot = rotation_matrix(j * w)
        if dropped:
            blocks.append(np.stack(dropped) @ rot.T)
            roles += [Phase.DROPPED] * len(dropped)
        if len(active_pts):
            blocks.append(np.asarray(active_pts) @ rot.T)
            roles += [active_role] * len(active_pts)
    return np.vstack(blocks) if blocks else np.zeros((0, 2)), tuple(roles)


def _index_snapshots(plan: Plan) -> None:
    plan.snapshot_ids = [t for t, rec in enumerate(plan.schedule) if len(rec.positions)
                         and pairwise_distances(rec.positions).max() <= 1.0 + TAU_GEOM]
    pos = np.reshape([plan.schedule[t].positions for t in plan.snapshot_ids], (-1, plan.n, 2))
    plan.snapshot_centered = pos - pos.mean(axis=1, keepdims=True)
    plan.snapshot_radii = np.sort(np.hypot(plan.snapshot_centered[..., 0],
                                           plan.snapshot_centered[..., 1]), axis=1)


def _snapped(local: np.ndarray) -> np.ndarray:
    """Hull-local points snapped to the TAU_GEOM grid, so that every member of a
    formation orders the same way whatever its frame."""
    return np.round(local / TAU_GEOM) * TAU_GEOM


def _canonical_order(local: np.ndarray, group=()) -> np.ndarray:
    """Lexicographic order of ``_snapped`` hull-local points."""
    snapped = _snapped(local)
    return np.lexsort((snapped[:, 1], snapped[:, 0], *group))


def _canonical_ranks(local: np.ndarray, sizes, own) -> np.ndarray:
    """For groups of consecutive rows of local with the given sizes, the rank
    of row own[g] in group g's ``_canonical_order``, by counting: the rows of
    the group whose snapped (x, y) is lexicographically smaller, plus those
    with an equal key at a smaller row, as the stable sort places them."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    x, y = _snapped(local).T
    at = own[group]
    ox, oy = x[at], y[at]
    before = (x < ox) | ((x == ox) & ((y < oy) | ((y == oy) & (np.arange(len(x)) < at))))
    return np.bincount(group[before], minlength=len(sizes))


def _move_tables(plan: Plan) -> list[np.ndarray]:
    """Per path vertex, the targets of the formation standing there, in its
    hull frame (anchor at the vertex, direction +x) and in ``_canonical_order``:
    the next state's cells shifted by the move, then the drops; at the last
    vertex, the ending triple.  The member of rank r in the same order takes
    row r, which keeps every displacement within diameter + |move| <= 1.
    """
    path = plan.path
    last = len(path.vertices) - 1
    tables = []
    for vi, v in enumerate(path.vertices):
        if vi == last:
            targets = plan.ending - v
        else:
            move = path.vertices[vi + 1] - v
            size, idx = path.labels[vi + 1]
            drops = (path.pattern[list(path.coverage[vi])] if vi < path.tail_start
                     else np.zeros((0, 2)))
            targets = np.vstack([state_by_index(plan.grid, size, idx).local + move, drops - v])
        tables.append(targets[_canonical_order(targets)])
    return tables


def _build_star_schedule(plan: Plan) -> None:
    star = plan.star
    kappas = [star.kappa0]
    while kappas[-1] < 1.0 - 1e-12:
        kappas.append(min(kappas[-1] + 1.0 / star.d_max, 1.0))
    plan.schedule = [ScheduleRound(k * plan.pattern, (Phase.STAR,) * plan.n)
                     for k in kappas]


# --- congruence fitting ----------------------------------------------------------

def fit_isometry(points, template, tol: float):
    """Rotation + translation mapping template onto points, or None: both sets
    are centered on their centroids and fitted by the one-pair call of
    ``_centered_fits``.  Neither set may be empty.  Sets whose sorted radii
    fail ``_screen_pairs`` are rejected before the call, as it would reject
    them."""
    pts = as_points(points)
    tmpl = as_points(template)
    for name, arr in (("points", pts), ("template", tmpl)):
        if not len(arr):
            raise ValueError(f"{name} is empty")
    if len(pts) != len(tmpl):
        raise ValueError("point counts differ")
    ca, cb = pts.mean(axis=0), tmpl.mean(axis=0)
    a, b = (pts - ca)[None], tmpl - cb
    b_radii, tols = np.sort(np.hypot(*b.T))[None], np.array([tol])
    ra = np.sort(np.hypot(a[..., 0], a[..., 1]), axis=1)
    if not _screen_pairs(ra, b_radii[None], tols[None])[1][0, 0]:
        return None
    got = _centered_fits(a, b[None], b_radii, tols)[0]
    if got is None:
        return None
    theta, perm, err = got
    translation = ca - rotate(cb.reshape(1, 2), theta)[0]
    return theta, translation, perm, err


def _screen_pairs(ras, b_radii, tol):
    """(gap, kept) of every set v and template t, one template at a time: the
    largest difference of the sorted radii ras[v] and b_radii[v, t], and whether
    it is within 2*tol[v, t], the most a fit within tol moves a centroid radius."""
    gap = np.stack([np.abs(ras - r).max(axis=1) for r in b_radii.transpose(1, 0, 2)], axis=-1)
    return gap, gap <= 2 * tol + 1e-12


def _centered_fits(a, b, b_radii, tol) -> list:
    """The first fit of each centroid-centered set a[v] ((sets, n, 2)) to its
    templates b[v, t] in turn (b, sorted radii b_radii and tol may omit the set
    axis): None, or (theta, perm, err) of ``match_points`` within tol[v, t].

    A pair kept by ``_screen_pairs`` fits at once if the set lies within tol of
    its centroid; else its candidate rotations align the set's farthest point
    (``_farthest``) with each template point of that radius within 2*tol.
    Wave w fits the w-th candidate of every unmatched set, so a set tries what
    it would alone and reads its own points only: rotations by one stacked
    matmul (``_rotated``), then each point's nearest template point.

    Nearest template points come from the dense ``nearest_in_sets``, or on
    the band side from radius bands (``_band_entries``, ``_band_nearest``).
    A pair is on the band side if the call's candidates take more than one
    dense chunk, the pair's own candidates (its farthest point's band) number
    at most n/4, and its bands hold at most n*n/4 entries, none of them empty.
    So n-gons and two-rings, whose radii tie, wide tolerances and one-chunk
    calls stay dense, and only band-side pairs get entries.  A counted pair
    with an empty band fits under no rotation and tries none.  A chunk holds
    at most 2**15 distances (n*n per dense candidate, its band's entries per
    banded one), or a single candidate.

    The bands hold every template point that the distance test keeps, so
    where each point has its nearest within tol, which is where the test
    accepts, the band's nearest is the dense one bit for bit, ties to the
    smallest template row.  Proof, with r the largest radius: rotating about
    the centroid keeps a radius, so a template point y and an observed point x
    can come within tol under some rotation only if their radii differ by at
    most tol, and with rounding by at most tol + 2**-48 (tol + r).  The test
    keeps y for x only if their computed distance d under the rotation is at
    most tol.  The exact distance from x to the rotated y' is below
    d(1 + 2**-50), and it bounds the difference of |x| and |y'|.  The stacked
    matmul, with the rounded cosine and sine, moves |y'| from |y| by less than
    2**-50 |y|, and each hypot radius lies within 2**-52 of its exact value.
    ``_radius_bands`` keeps every pair of radii that close.
    """
    sets, n = a.shape[:2]
    b, b_radii, tol = (np.broadcast_to(x, (sets,) + x.shape[-k:])
                       for x, k in ((b, 3), (b_radii, 2), (tol, 1)))
    ra = np.hypot(a[..., 0], a[..., 1])
    gap, kept = _screen_pairs(np.sort(ra, axis=1), b_radii, tol)
    v, t = np.nonzero(kept)                 # the pairs, by set, then template
    fits = [None] * sets
    if not len(v):
        return fits
    ext = _farthest(a, ra)
    ang = [math.atan2(y, x) for x, y in a[np.arange(sets), ext].tolist()]
    # Candidates: pair p and template point j; a pair that fits at once has j = 0 only.
    once = (ra.max(axis=1)[v] <= tol[v, t]) | (n == 1)
    rb = np.hypot(b[v, t, :, 0], b[v, t, :, 1])
    near = np.abs(rb - ra[v, ext[v], None]) <= 2 * tol[v, t, None] + 1e-12
    near[once] = np.arange(n) == 0
    # Bands where the dense pass takes more than one chunk, for the pairs whose
    # candidates (their farthest point's band) are few; none tries an empty band.
    count = near.sum(axis=1)
    counted = np.flatnonzero(~once & (count > 0) & (4 * count <= n)
                             & (count[~once].sum() * n * n > 2 ** 15))
    width, first = np.zeros((len(v), n), dtype=np.int64), np.full(len(v), -1)
    obs = tmpl = None
    if len(counted):
        pv, pt = v[counted], t[counted]
        width[counted], first[counted], obs, tmpl = _band_entries(ra[pv], rb[counted], tol[pv, pt])
        near[counted[(width[counted] == 0).any(axis=1)]] = False
    size = width.sum(axis=1)
    p, j = np.nonzero(near)
    owner = v[p]
    rank = np.arange(len(p)) - np.searchsorted(owner, owner)
    todo, matched = np.lexsort((owner, rank)), np.zeros(sets, dtype=bool)
    while len(todo):
        cut = np.searchsorted(rank[todo], rank[todo[0]], side="right")
        w, todo = todo[:cut], todo[cut:]
        for q in w[once[p[w]]].tolist():
            fits[owner[q]] = (0.0, np.arange(n), float(gap[owner[q], t[p[q]]]))
        w = w[~once[p[w]]]
        banded = first[p[w]] >= 0
        for dense, cands in ((True, w[~banded]), (False, w[banded])):
            for c in _chunks(np.full(len(cands), n * n) if dense else size[p[cands]]):
                c = cands[c]
                cv, ct = owner[c], t[p[c]]
                thetas = [ang[i] - math.atan2(y, x)
                          for i, (x, y) in zip(cv.tolist(), b[cv, ct, j[c]].tolist())]
                rotated = _rotated(b[cv, ct], thetas)
                dd, idx = (_dense_nearest(a, rotated, cv) if dense else
                           _band_nearest(a, rotated, cv, width[p[c]], first[p[c]], obs, tmpl))
                far, srt = dd.max(axis=1), np.sort(idx, axis=1)
                onto = (srt[:, 1:] != srt[:, :-1]).all(axis=1)
                for q in np.flatnonzero(far <= tol[cv, ct]).tolist():
                    perm, err = ((idx[q], float(far[q])) if onto[q]
                                 else match_points(a[cv[q]], rotated[q], tol[cv[q], ct[q]]))
                    if perm is not None:
                        fits[cv[q]] = (thetas[q], perm, err)
        matched[[o for o, fit in enumerate(fits) if fit is not None]] = True
        todo = todo[~matched[owner[todo]]]
    return fits


def _chunks(cost, budget: int = 2 ** 15):
    """Consecutive slices of the candidates, each with costs summing to at
    most budget, or of a single candidate."""
    end = np.cumsum(cost)
    k = 0
    while k < len(end):
        stop = int(np.searchsorted(end, (end[k - 1] if k else 0) + budget, side="right"))
        yield slice(k, max(stop, k + 1))
        k = max(stop, k + 1)


def _rotated(templates, thetas) -> np.ndarray:
    """Each template of templates ((c, n, 2)) rotated by its angle in thetas,
    by one stacked matmul."""
    return np.matmul(templates, np.stack([rotation_matrix(th).T for th in thetas]))


def _dense_nearest(a, rotated, cv):
    """(dd, idx) of ``nearest_in_sets`` for each candidate c, set a[cv[c]]
    against all of its rotated templates rotated[c]."""
    c, n = rotated.shape[:2]
    dd, idx = nearest_in_sets(a[cv].reshape(-1, 2), rotated, np.repeat(np.arange(c), n),
                              np.full(c, n))
    return dd.reshape(c, n), idx.reshape(c, n)


def _band_entries(ra, rb, tol):
    """The radius bands of pairs with observed radii ra[p], template radii
    rb[p] ((pairs, n), unsorted) and tolerance tol[p]: (width, first, obs,
    tmpl).  width[p, i] counts the template points in the band of observed
    row i (``_radius_bands``).  A pair whose widths are all positive and sum
    to at most n*n/4 gets entries: they start at first[p], by observed row,
    then radius, with their observed rows obs and template rows tmpl.  first
    is -1 for the other pairs."""
    pairs, n = ra.shape
    rows = np.arange(pairs)[:, None]
    a_order, b_order = np.argsort(ra, axis=1), np.argsort(rb, axis=1)
    lo, hi = _radius_bands(ra[rows, a_order], rb[rows, b_order], tol)
    width, low = np.empty_like(lo), np.empty_like(lo)
    width[rows, a_order], low[rows, a_order] = hi - lo, lo
    size = width.sum(axis=1)
    side = (size * 4 <= n * n) & (width > 0).all(axis=1)
    g, m = _ranges(low[side].ravel(), width[side].ravel())
    return (width, np.where(side, np.cumsum(size * side) - size, -1),
            g % n, b_order[np.flatnonzero(side)[g // n], m])


def _radius_bands(sa, sb, tol) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): for each pair p, the template points at sorted positions
    lo[p, k] .. hi[p, k] - 1 of its sorted template radii sb[p] hold every one
    whose radius is within tol[p] + 2**-48 (tol[p] + r) of the k-th sorted
    observed radius sa[p, k], r the largest radius, and few more.

    All pairs are searched at once, on the keys radius + p*shift.  shift is a
    power of two above 2r + 4tol + 2, so the offsets are exact and each pair's
    keys lie in their own range, more than a reach away from the next pair's.
    A key and a query sa +- reach round three times together, each by at most
    2**-53 K, where K = pairs*shift bounds every key and query.  As tol and r
    are below K, reach = tol + 2**-44 (K + 1) exceeds the radius difference
    and these roundings together.  The queries are sorted, as searchsorted
    runs fastest.
    """
    q, n = sa.shape
    r = max(sa.max(initial=0.0), sb.max(initial=0.0))
    shift = 2.0 ** math.ceil(math.log2(2.0 * r + 4.0 * tol.max(initial=0.0) + 2.0))
    off = (np.arange(q) * shift)[:, None]
    reach = (tol + 2.0 ** -44 * (q * shift + 1.0))[:, None]
    keys = (sb + off).ravel()
    base = (np.arange(q) * n)[:, None]
    lo = np.searchsorted(keys, (sa + off - reach).ravel()).reshape(q, n) - base
    hi = np.searchsorted(keys, (sa + off + reach).ravel(), side="right").reshape(q, n) - base
    return lo, hi


def _band_nearest(a, rotated, cv, width, first, obs, tmpl):
    """(dd, idx) of ``nearest_in_sets`` for each candidate c, set a[cv[c]]
    against its rotated templates rotated[c], over its pair's band entries
    only: width[c, i] entries from first[c] on for observed row i, each with
    its observed row obs and template row tmpl.  The squared distances are
    formed by nearest_in_sets' operations, and ties go to the smallest
    template row, as its argmin gives."""
    n = a.shape[1]
    c, e = _ranges(first, width.sum(axis=1))
    rows, cols, owner = obs[e], tmpl[e], cv[c]
    sq = rotated[c, cols, 0]
    sq -= a[owner, rows, 0]
    sq *= sq
    dy = rotated[c, cols, 1]
    dy -= a[owner, rows, 1]
    dy *= dy
    sq += dy
    counts = width.ravel()
    starts = np.cumsum(counts) - counts
    least = np.minimum.reduceat(sq, starts)
    idx = np.minimum.reduceat(np.where(sq == np.repeat(least, counts), cols, n), starts)
    return np.sqrt(least).reshape(-1, n), idx.reshape(-1, n)


def _farthest(a, ra) -> np.ndarray:
    """The row of each set a[v]'s ((sets, n, 2)) farthest point, radii ra:
    ties to the largest x, then the largest y, then the last row, as the last
    row of a stable sort on (radius, x, y) would give, by masked maxima."""
    top = np.ones(ra.shape, dtype=bool)
    for key in (ra, a[..., 0], a[..., 1]):
        key = np.where(top, key, -np.inf)
        top &= key == key.max(axis=1, keepdims=True)
    return ra.shape[1] - 1 - np.argmax(top[:, ::-1], axis=1)


# --- phase classification ---------------------------------------------------------

def _take(pts, sizes, rows):
    """The views at ascending indices rows of the batch (pts, sizes), as a batch."""
    if len(rows) == len(sizes):
        return pts, sizes
    keep = np.zeros(len(sizes), dtype=bool)
    keep[rows] = True
    return np.compress(np.repeat(keep, sizes), pts, axis=0), sizes[keep]


def _initial_views(pts, sizes, plan: Plan, snapshot_tol) -> np.ndarray:
    """Indices of the full views of diameter at most 1 fitting no snapshot (the
    initial near-gathering) at snapshot_tol, one value or one per snapshot."""
    full = np.flatnonzero((sizes == plan.n) & (plan.n > 1))
    if not len(full):
        return full
    views = _take(pts, sizes, full)[0].reshape(-1, plan.n, 2)
    tol = np.broadcast_to(np.asarray(snapshot_tol, dtype=float), (len(plan.snapshot_ids),))
    fits = _centered_fits(views - views.mean(axis=1, keepdims=True), plan.snapshot_centered,
                          plan.snapshot_radii, tol)
    return full[[fit is None and pairwise_distances(view).max() <= 1.0 + TAU_GEOM
                 for fit, view in zip(fits, views)]]


def _own_formations(pts, sizes, grid: GridSpec, tol: float):
    """(det, own, conflicted): ``detect_arrays`` over each view's points within
    4δ + 4·tol of the robot; the index in det of each robot's one formation
    (holding the window's point 0) if none overlaps it, else -1; and whether it
    is in several or overlapping ones.  Exact: a formation holding the robot is
    anchored within δ + tol, ``overlapping`` tests it against the other
    formations of its window but reads only those within its anchor cutoff,
    and each formation reads points within δ + tol of its anchor."""
    near = np.flatnonzero(np.hypot(pts[:, 0], pts[:, 1]) <= 4 * (grid.delta + tol))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    det = detect_arrays(pts.take(near, axis=0), np.bincount(owner[near], minlength=len(sizes)),
                        grid, tol)
    mine = np.repeat(np.arange(len(det.window)), np.diff(det.bounds))[det.members == 0]
    count = np.bincount(det.window[mine], minlength=len(sizes))
    own = np.full(len(sizes), -1)
    own[det.window[mine]] = np.where(count[det.window[mine]] == 1, mine, -1)
    conflicted = count > 1
    # Each robot's formation against the other formations of its window.
    robots = np.flatnonzero(own >= 0)
    lo, hi = np.searchsorted(det.window, robots), np.searchsorted(det.window, robots, "right")
    robot, other = np.repeat(robots, hi - lo), _ranges(lo, hi - lo)[1]
    pair = other != own[robot]
    robot, other = robot[pair], other[pair]
    hit = robot[overlapping(det, own[robot], other, grid)]
    own[hit], conflicted[hit] = -1, True
    return det, own, conflicted


def _formation_moves(pts, sizes, plan: Plan, tol: float) -> list:
    """Each robot's formation Decision (dropped if conflicted), or None: its
    rank's row of plan.moves at its vertex, mapped by row @ basis + anchor in
    one stacked matmul.  ``_canonical_ranks`` counts each robot's rank in its
    own formation's ``_canonical_order`` without sorting, and every robot's
    vertex, table row and event are looked up as arrays."""
    det, own, conflicted = _own_formations(pts, sizes, plan.grid, tol)
    out = [Decision(np.zeros(2), Phase.DROPPED) if c else None for c in conflicted.tolist()]
    robots = np.flatnonzero(own >= 0)
    if not len(robots):
        return out
    f = own[robots]
    sizes = np.diff(det.bounds)[f]
    rows = _ranges(det.bounds[f], sizes)[1]
    ranks = _canonical_ranks(det.local[rows], sizes, np.flatnonzero(det.members[rows] == 0))
    # Each robot's vertex: the one path label equal to its (size, state), or -1.
    labels = np.array(plan.path.labels).reshape(-1, 2)
    hit = (labels[:, 0] == sizes[:, None]) & (labels[:, 1] == det.state[f][:, None])
    vert = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    known = vert >= 0
    lengths = np.array([len(table) for table in plan.moves])
    if (lengths[vert[known]] != sizes[known]).any():
        raise FormationError("a formation's size differs from its move table")
    basis = hull_basis(det.heading[f[known]])
    table = np.concatenate(plan.moves)[(np.cumsum(lengths) - lengths)[vert[known]] + ranks[known]]
    targets = np.zeros((len(robots), 2))
    targets[known] = np.matmul(table.reshape(-1, 1, 2), basis)[:, 0] + det.anchor[f[known]]
    if (np.hypot(targets[:, 0], targets[:, 1]) > 1.0 + TAU_GEOM).any():
        raise AssertionError("planned displacement exceeds the viewing range")
    # At the last vertex the move reshapes the formation into the ending triple.
    kind = np.where(known, np.where(vert == len(plan.path.vertices) - 1, 2, 0), 1)
    events = ((), ("unknown-state",), ("ending-reshape",))
    for r, target, k in zip(robots.tolist(), targets, kind.tolist()):
        out[r] = Decision(target, Phase.FORMATION, events[k])
    return out


def _ending_screen(pts, sizes, plan: Plan, tol: float) -> np.ndarray:
    """Which views have a point within min(tol, epsilon/16) + TAU_GEOM of distance
    epsilon/2 or epsilon/3, as every ending triple holding the robot has."""
    eps = plan.grid.epsilon
    r = np.hypot(pts[:, 0], pts[:, 1])
    hit = np.minimum(np.abs(r - eps / 2.0), np.abs(r - eps / 3.0)) <= min(tol, eps / 16.0) + TAU_GEOM
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return np.bincount(owner, weights=hit, minlength=len(sizes)) > 0


def _find_intermediate(pts, plan: Plan, tol: float):
    """Decode the unique epsilon/2-epsilon/3 ending triple containing the origin.

    Returns (indices (r1, r2, r3), rotation theta mapping path frame to the
    view frame) or None.  The role distances epsilon/2 and epsilon/3 differ
    by epsilon/6, so the tolerance is capped well below that gap.

    Only the view within 1.5*epsilon + 2*tol is read, which is exact: r1 is
    the origin or lies at epsilon/2 or epsilon/3 (within tol) from it, and the
    isolation check reads only points within epsilon + tol of r1.
    """
    eps = plan.grid.epsilon
    tol = min(tol, eps / 16.0)
    vk = plan.path.vertices[-1]
    u2 = plan.ending[1] - vk
    u3 = plan.ending[2] - vk
    near = np.nonzero(np.hypot(*pts.T) <= 1.5 * eps + 2 * tol + TAU_GEOM)[0]
    sub = pts[near]
    d = pairwise_distances(sub)
    first = ((np.arange(len(sub)) == 0) | (np.abs(d[0] - eps / 2.0) <= tol)
             | (np.abs(d[0] - eps / 3.0) <= tol))
    for r1 in np.nonzero(first)[0].tolist():
        near2 = np.nonzero(np.abs(d[r1] - eps / 2.0) <= tol)[0]
        near3 = np.nonzero(np.abs(d[r1] - eps / 3.0) <= tol)[0]
        for r2 in near2.tolist():
            for r3 in near3.tolist():
                if len({r1, r2, r3}) != 3 or 0 not in (r1, r2, r3):
                    continue
                close = d[r1] <= eps + tol
                close[[r1, r2, r3]] = False
                if close.any():
                    continue
                obs2 = sub[r2] - sub[r1]
                theta = math.atan2(obs2[1], obs2[0]) - math.atan2(u2[1], u2[0])
                expect3 = rotate(u3, theta)
                if dist(sub[r3] - sub[r1], expect3) > 2 * tol + 1e-12:
                    continue
                return (int(near[r1]), int(near[r2]), int(near[r3])), theta
    return None


# --- per-robot steps ----------------------------------------------------------------

def robot_decision(view: np.ndarray, plan: Plan, tol: float = TAU_GEOM,
                   snapshot_tol=None) -> Decision:
    """The robot's move (in its own frame) and phase for one round: the one-view
    call of ``robot_decisions``."""
    return robot_decisions(view, [len(view)], plan, tol, snapshot_tol)[0]


def robot_decisions(pts, sizes, plan: Plan, tol: float = TAU_GEOM,
                    snapshot_tol=None) -> list[Decision]:
    """Each robot's move (in its own frame) and phase for one round.

    The views come as one ragged batch: view i is the sizes[i] rows of pts
    after the first sum(sizes[:i]), in the robot's private frame: the robot
    itself at the origin first, then the neighbours it sees, in an order that
    carries no information (``make_local_views`` sorts them).  Every stage
    takes such a batch, and ``_take`` gathers the views a stage passes on.

    tol is the detection tolerance.  snapshot_tol is the tolerance at which a
    full view is matched against the reference snapshots (one value, or one
    per entry of plan.snapshot_ids); by default max(tol, 1e-7).

    A drawing round takes three array passes: full views are classified
    (``_initial_views``), the rest get formation moves (``_formation_moves``),
    and the others are screened (``_ending_screen``) for the ending triple that
    ``_find_intermediate`` decodes.  Star fits of local views are batched too
    (``_star_local_fits``).  Each decision reads its own view and the plan only.
    """
    pts, sizes = np.asarray(pts, dtype=float), np.asarray(sizes, dtype=np.int64)
    if plan.branch == "star":
        return _star_decisions(pts, sizes, plan, max(tol, 1e-7))
    if snapshot_tol is None:
        snapshot_tol = max(tol, 1e-7)
    decisions: list[Decision | None] = [None] * len(sizes)
    initial = _initial_views(pts, sizes, plan, snapshot_tol)
    for i, decision in zip(initial.tolist(), _initial_decisions(*_take(pts, sizes, initial), plan)):
        decisions[i] = decision
    rest = np.flatnonzero(np.bincount(initial, minlength=len(sizes)) == 0)
    moves = _formation_moves(*_take(pts, sizes, rest), plan, tol)
    for i, move in zip(rest.tolist(), moves):
        decisions[i] = move
    free = rest[[move is None for move in moves]]
    starts = np.cumsum(sizes) - sizes
    for i, seen in zip(free.tolist(), _ending_screen(*_take(pts, sizes, free), plan, tol)):
        view = pts[starts[i]:starts[i] + sizes[i]]
        inter = _find_intermediate(view, plan, tol) if seen else None
        decisions[i] = (Decision(np.zeros(2), Phase.DROPPED) if inter is None
                        else _intermediate_decision(view, plan, inter))
    return decisions


def _intermediate_decision(view: np.ndarray, plan: Plan, inter) -> Decision:
    (r1, r2, r3), theta = inter
    vk = plan.path.vertices[-1]
    rot = rotation_matrix(theta)
    # _find_intermediate returns only triples that hold view row 0.
    target = ((plan.tail_points - vk) @ rot.T + view[r1])[(r1, r2, r3).index(0)]
    if np.hypot(*target) > 1.0 + TAU_GEOM:
        return Decision(np.zeros(2), Phase.INTERMEDIATE, ("ending-out-of-reach",))
    return Decision(target, Phase.INTERMEDIATE)


# --- forming the initial cluster pattern ----------------------------------------------

class AssignmentError(RuntimeError):
    pass


def _slot_table(slots: np.ndarray, s_p: int) -> SlotTable:
    """The slot orbits ``assignment_target`` reads, for every divisor d of s_p:
    the orbits of the rotation by 2*pi/d sorted by ``_slot_key``, each orbit's
    first polar angle and its members by step k (the angle past the orbit's
    smallest phase, in units of 2*pi/d)."""
    angles = [polar_angle(p) for p in slots]
    radii = [round(float(r), 9) for r in np.hypot(slots[:, 0], slots[:, 1])]
    rounded = list(map(tuple, np.round(slots, 9).tolist()))
    table: dict[int, SlotOrbits | None] = {}
    for d in (d for d in range(1, s_p + 1) if s_p % d == 0):
        orbits = rotation_orbits(slots, d, tol=1e-7)
        if orbits is None:
            table[d] = None
            continue
        w = 2.0 * math.pi / d
        orbits.sort(key=lambda orbit: _slot_key(orbit, radii, angles, rounded, w))
        by_k = []
        for members in orbits:
            base_phase = min(angles[m] % w for m in members)
            steps = {round((angles[m] - base_phase) / w) % d: m for m in members}
            by_k.append(tuple(steps[k] for k in sorted(steps))
                        if len(steps) == len(members) else None)
        table[d] = SlotOrbits(np.array([angles[orbit[0]] for orbit in orbits]), tuple(by_k))
    return SlotTable(slots, table)


def _slot_key(orbit, radii, angles, rounded, w):
    """Radius, smallest phase modulo w, then the members' coordinates, all
    rounded to 1e-9: an order of the slot orbits that no frame enters."""
    return (radii[orbit[0]], round(min(angles[m] % w for m in orbit), 9),
            tuple(sorted(rounded[m] for m in orbit)))


_TURN = round(2 * math.pi, 9)


def assignment_target(points: np.ndarray, self_idx: int, slots: SlotTable) -> np.ndarray:
    """Equivariant one-round assignment of mutually visible robots to slots:
    the one-view call of ``_initial_decisions``' slot targets.

    Robots are grouped into orbits of the configuration's own symmetricity,
    taken of the points centred on their one smallest enclosing circle, and
    paired with the slot orbits that ``slots`` holds for it.  Every quantity
    is derived from angle differences, so all robots compute the same global
    outcome whatever their private frames: a robot at the center has no angle
    and enters by its radius alone, and a difference that rounds to a full
    turn counts as none.  Configurations whose orbits cannot be told apart
    (identical signatures), or whose symmetricity does not divide the slots'
    s_p, are rejected.
    """
    pts = as_points(points)[None]
    center = enclosing_centers(pts)
    rel, ang = _centered(pts, center)
    return _slot_target(center[0], rel[0], ang[0], self_idx, slots)


def _centered(sets: np.ndarray, centers: np.ndarray):
    """Each set of a (V, n, 2) array relative to its centre, with every row's
    ``polar_angle`` from one math.atan2 pass."""
    rel = sets - centers[:, None]
    ang = np.array([math.atan2(y, x) for x, y in rel.reshape(-1, 2).tolist()])
    ang[ang < 0.0] += 2.0 * math.pi
    ang[ang >= 2.0 * math.pi] = 0.0
    return rel, ang.reshape(sets.shape[:2])


def _slot_target(o, rel, ang, self_idx: int, slots: SlotTable) -> np.ndarray:
    """``assignment_target`` of the points rel + o, given the centre o and the
    rows' polar angles ang about it."""
    info = centered_symmetricity(rel)
    s = info.sym
    w = 2.0 * math.pi / s
    radii = np.hypot(*rel.T)
    off = radii > TAU_GEOM
    ang = np.where(off, ang, 0.0)       # a robot at the centre has no angle

    rr = [round(float(r), 9) for r in radii]
    orbits = info.orbit_partition
    orbits_at = Counter(rr[orb[0]] for orb in orbits)

    # Signatures compare the radius first, so rows only break radius ties.  The
    # rows of all orbits that share their radius come from one array of angle
    # differences.  They round by np.round, which differs from Python's round
    # of a float at decimal ties.
    tied = [orb[0] for orb in orbits if orbits_at[rr[orb[0]]] > 1]
    turns = np.round(np.mod(ang - ang[tied, None], 2 * math.pi), 9) % _TURN
    rows = dict(zip(tied, (tuple(sorted(zip(rr, row)))
                           for row in np.where(off, turns, 0.0).tolist())))
    sigs = [(rr[orb[0]], rows.get(orb[0], ())) for orb in orbits]
    if len(set(sigs)) != len(sigs):
        raise AssignmentError("configuration orbits are indistinguishable")
    order = sorted(range(len(orbits)), key=lambda i: sigs[i])
    orbits = [orbits[i] for i in order]

    table = slots.orbits.get(s)
    if table is None:
        raise AssignmentError("slot set lacks the required rotational symmetry")
    if len(table.by_k) != len(orbits):
        raise AssignmentError("orbit counts of configuration and slots differ")

    ref = next((i for i, orb in enumerate(orbits) if off[orb[0]]), 0)
    u = ang[orbits[ref][0]]
    r_star = rotation_matrix(u - table.angles[ref])

    my_orbit = next(orb for orb in orbits if self_idx in orb)
    oi = orbits.index(my_orbit)
    phi = (ang[my_orbit[0]] - u) % w
    if phi > w / 2:
        phi -= w
    k = round(((ang[self_idx] - u) % (2 * math.pi) - phi) / w) % s

    members = table.by_k[oi]
    if members is None:
        raise AssignmentError("slot orbit members are not evenly spaced")
    return o + r_star @ slots.points[members[k]]


def _initial_decisions(pts, sizes, plan: Plan) -> list[Decision]:
    """The near-gathering decision of each full view: its slot target, with
    every view's enclosing circle from one ``enclosing_centers`` call."""
    if not len(sizes):
        return []
    views = pts.reshape(-1, plan.n, 2)
    centers = enclosing_centers(views)
    decisions = []
    for o, rel, ang in zip(centers, *_centered(views, centers)):
        try:
            decisions.append(Decision(_slot_target(o, rel, ang, 0, plan.slots), Phase.INITIAL))
        except AssignmentError as exc:
            decisions.append(Decision(np.zeros(2), Phase.INITIAL, (f"assignment-failed: {exc}",)))
    return decisions


# --- scaling branch for symmetricity >= n/2 ---------------------------------------------

def _star_decisions(pts, sizes, plan: Plan, tol: float) -> list[Decision]:
    """Each robot's scaling-branch decision: the full views' fits come from one
    ``_star_full_fits`` call, the local views' from one ``_star_local_fits`` call.
    Full views that fit no scaled pattern (the initial near-gathering) take a
    slot of the shrunken pattern from one ``_initial_decisions`` call."""
    if plan.n == 1:
        return [Decision(np.zeros(2), Phase.STAR) for _ in sizes]
    full = sizes == plan.n
    full_fits = iter(_star_full_fits(*_take(pts, sizes, np.flatnonzero(full)), plan, tol))
    local_fits = iter(_star_local_fits(*_take(pts, sizes, np.flatnonzero(~full)), plan.star, tol))
    fits = [next(full_fits) if f else next(local_fits) for f in full]
    gathered = np.flatnonzero([f and fit is None for f, fit in zip(full, fits)])
    initial = dict(zip(gathered.tolist(), _initial_decisions(*_take(pts, sizes, gathered), plan)))
    return [initial[i] if i in initial else _star_decision(plan, fit, f)
            for i, (fit, f) in enumerate(zip(fits, full))]


def _star_decision(plan: Plan, fits, full: bool) -> Decision:
    """The move of a robot with its full view's fit or its local view's fits."""
    star = plan.star
    if not full and len(fits) != 1:
        return Decision(np.zeros(2), Phase.STAR,
                        ("ambiguous-scale" if fits else "no-scale-fit",))
    kappa, center = fits if full else fits[0]
    kappa_next = min(kappa + 1.0 / star.d_max, 1.0) if star.d_max > 0 else 1.0
    if kappa_next <= kappa + 1e-12:
        return Decision(np.zeros(2), Phase.STAR)
    target = center * (1.0 - kappa_next / kappa)
    return Decision(target, Phase.STAR)


def _star_full_fits(pts, sizes, plan: Plan, tol: float) -> list:
    """(scale, center) of each full view that is a scaled copy of the pattern,
    or None, in one ``_centered_fits`` call.  The pattern's symmetricity is at
    least 2, so its centroid is the origin of plan.pattern, as d_max takes it."""
    fits: list = [None] * len(sizes)
    if not len(sizes):
        return fits
    views = pts.reshape(-1, plan.n, 2)
    center = views.mean(axis=1)
    rel = views - center[:, None]
    r_max = np.hypot(rel[..., 0], rel[..., 1]).max(axis=1)
    kappa = r_max / plan.star.d_max
    ok = np.flatnonzero((r_max > TAU_GEOM) & (kappa <= 1.0 + 1e-9))
    tmpl = kappa[ok, None, None, None] * plan.pattern
    for i, fit in zip(ok.tolist(), _centered_fits(
            rel[ok], tmpl, np.sort(np.hypot(tmpl[..., 0], tmpl[..., 1]), axis=-1),
            np.maximum(tol, 1e-9 + kappa[ok, None] * 1e-9))):
        if fit is not None:
            fits[i] = (float(kappa[i]), center[i])
    return fits


def _star_local_fits(pts, sizes, star: StarPlan, tol: float) -> list[list]:
    """Each local view's candidate (scale, center) fits against the pattern.

    A coarse fit seeds each candidate from the view's nearest neighbor, at the
    complex pose nearest / offs[j] for each of the ring's 8 nearest offsets;
    the scale and rotation are then refined by least squares over the whole
    matched neighborhood and verified again within tol.  The refinement
    matters: a center estimated from a single baseline amplifies per-round
    float noise by ring-radius/baseline, which would compound across the
    scaling rounds.

    Each stage is one array pass per ring over all the views' candidates.
    Every row of a pass reads its own view only, so each view's fits are those
    of its one-view call.
    """
    tol = max(tol, 1e-6)
    fits: list[list] = [[] for _ in sizes]
    seen = np.flatnonzero(sizes > 1)     # with a neighbour
    if not len(seen):
        return fits
    counts = sizes[seen] - 1
    starts = np.cumsum(counts) - counts
    run, rows = _ranges((np.cumsum(sizes) - sizes)[seen] + 1, counts)
    obs = pts.take(rows, axis=0)
    obs_c = obs[:, 0] + 1j * obs[:, 1]
    # Each view's nearest neighbour, at the first index of its smallest norm.
    norms = np.hypot(obs[:, 0], obs[:, 1])
    first = np.lexsort((norms, run))[starts]
    for ring in star.rings:
        offs = ring.offs[:, 0] + 1j * ring.offs[:, 1]
        kappa0s = norms[first, None] / ring.norms[:8]
        v, j = np.nonzero((1e-6 <= kappa0s) & (kappa0s <= 1.0 + 1e-9))
        kappa0s = kappa0s[v, j]
        matched, idx = _star_match(obs, starts[v], counts[v], offs, ring.norms, kappa0s,
                                   obs_c[first[v]] / offs[j],
                                   np.maximum(0.3 * kappa0s * star.mindist, tol))
        # The least-squares pose of each match, by one vdot per match so that
        # every sum adds in the order of its one-view call.
        refined = []
        end = 0
        for a in v[matched].tolist():
            o = offs[idx[end:end + counts[a]]]
            end += counts[a]
            z = np.vdot(o, obs_c[starts[a]:starts[a] + counts[a]]) / np.vdot(o, o)
            if 1e-6 <= abs(z) <= 1.0 + 1e-6:
                refined.append((a, abs(z), z))
        if not refined:
            continue
        rv = np.array([a for a, _, _ in refined])
        verified, _ = _star_match(obs, starts[rv], counts[rv], offs, ring.norms,
                                  np.array([k for _, k, _ in refined]),
                                  np.array([z for _, _, z in refined]), np.full(len(rv), tol))
        for (a, kappa, z), ok in zip(refined, verified.tolist()):
            if ok:
                kappa, theta = float(kappa), math.atan2(z.imag, z.real)
                fits[seen[a]].append((kappa, -kappa * (rotation_matrix(theta) @ ring.q)))
    for i, found in enumerate(fits):
        unique = []
        for kappa, center in found:
            if not any(abs(kappa - k2) <= 1e-5 and dist(center, c2) <= 1e-5
                       for k2, c2 in unique):
                unique.append((kappa, center))
        fits[i] = unique
    return fits


def _star_match(obs, starts, lengths, offs, norms, kappas, poses, windows):
    """Injective observed-to-offset matchings within the window, each requiring
    every offset strictly inside the viewing range to be observed, for all
    candidates at once.

    Candidate c matches rows starts[c] .. starts[c] + lengths[c] - 1 of obs
    against poses[c] * offs (complex, poses[c] = kappas[c] * exp(i*theta)),
    restricted to the offsets whose scaled norm kappas[c] * norms is at most
    1 + windows[c]: a prefix of offs, which is in ascending order of norm.
    Returns whether each candidate matched and, for the rows of the matched
    candidates in order, the index of each row's nearest offset.

    The screens go cheapest first: the count of offsets in range (the rows
    pair injectively with offsets inside 1 + window and cover every offset
    inside 1 - window), then each candidate's farthest observed point, which
    under a wrong pose lies farthest from its place, then every row of the
    survivors.  Each expected point is formed elementwise, so no candidate's
    result depends on the rest of the batch.  Nearest neighbours come from
    ``nearest_in_sets``.  Ties cannot change the outcome: within a window of
    at most 0.3*kappa*mindist every other expected point is at least
    0.7*kappa*mindist away, and a match that fails fails for every tie-break.
    """
    enorms = kappas[:, None] * norms
    inside = (enorms <= 1.0 + windows[:, None]).sum(axis=1)
    must = (enorms <= 1.0 - windows[:, None]).sum(axis=1)
    del enorms      # one float per candidate and offset; the row passes below need the room
    ok = (must <= lengths) & (lengths <= inside)
    c = np.flatnonzero(ok)
    inside, must, windows, lengths = inside[c], must[c], windows[c], lengths[c]
    o = offs[:max(inside.max(initial=0), 1)]
    pr, pi = poses[c].real[:, None], poses[c].imag[:, None]
    expected = np.stack([pr * o.real - pi * o.imag, pr * o.imag + pi * o.real], axis=-1)
    run, rows = _ranges(starts[c], lengths)

    def near(sel):
        gaps, idx = nearest_in_sets(obs[rows[sel]], expected, run[sel], inside)
        return gaps <= windows[run[sel]], idx

    far = -np.hypot(obs[rows, 0], obs[rows, 1])
    hit = near(np.lexsort((far, run))[np.cumsum(lengths) - lengths])[0]
    sel = np.flatnonzero(hit[run])
    close, idx = near(sel)
    owner = run[sel]
    hit[owner[~close]] = False
    key = np.sort(owner * len(o) + idx)
    hit[key[1:][key[1:] == key[:-1]] // len(o)] = False
    hit &= np.bincount(owner, weights=idx < must[owner], minlength=len(c)) == must
    ok[c] = hit
    return ok, idx[hit[owner]]
