"""Per-robot decision logic and the plan derived deterministically from a pattern.

Every robot runs the same pure function of its local view and the plan.
The pattern alone determines the plan: protocol parameters, the
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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geometry import (
    TAU_GEOM,
    as_points,
    dist,
    match_points,
    mindist,
    pairwise_distances,
    polar_angle,
    rotate,
    rotation_matrix,
    smallest_enclosing_circle,
    unit,
    unit_disc_connected,
)
from .symmetry import centered_symmetricity, normalize, rotation_orbits, symmetricity
from .formation import (
    DetectedFormation,
    DrawingHull,
    FormationError,
    FormationParams,
    GridSpec,
    detect_formations,
    hulls_overlap,
    state_by_index,
)
from .pathing import DrawingPath, build_drawing_path, check_compatibility

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
class ProtocolParams:
    epsilon: float
    delta: float
    span: float
    c: float
    s_p: int
    n: int
    branch: str  # "draw" or "star"


@dataclass(frozen=True)
class LocalView:
    """One robot's perception: its neighbors in its private frame.

    The robot itself sits at the origin; neighbor order carries no
    information (sorted by local coordinates).
    """

    neighbors: np.ndarray

    @property
    def all_points(self) -> np.ndarray:
        return np.vstack([np.zeros((1, 2)), self.neighbors])


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
    offs: np.ndarray            # nonzero pattern - q
    norms: np.ndarray           # |offs|
    nearest8: np.ndarray        # indices of the 8 smallest norms
    sorted_norms: np.ndarray    # norms in ascending order


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
    """Everything the protocol derives from the pattern.  ``slots`` holds the
    targets of the near-gathering assignment (``initial`` on the drawing
    branch, the shrunken pattern kappa0*pattern on the scaling branch) with
    their orbits for every divisor of s_p."""

    pattern: np.ndarray             # canonical pattern (normalized, rotated)
    params: ProtocolParams
    path: DrawingPath | None = None
    grid: GridSpec | None = None
    fparams: FormationParams | None = None
    initial: np.ndarray | None = None
    schedule: list[ScheduleRound] = field(default_factory=list)
    snapshot_ids: list[int] = field(default_factory=list)
    snapshot_radii: np.ndarray | None = None        # (snapshots, n) sorted centroid radii
    snapshot_centered: list[np.ndarray] = field(default_factory=list)
    tail_points: np.ndarray | None = None     # p1, p2, p3 in path frame
    moves: list[np.ndarray] = field(default_factory=list)   # per path vertex, see _move_tables
    star: StarPlan | None = None
    slots: SlotTable | None = None

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def branch(self) -> str:
        return self.params.branch

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
        params = ProtocolParams(epsilon=0.0, delta=0.1,
                                span=min(2.0 * math.pi / s, math.pi / 3),
                                c=0.0, s_p=s, n=n, branch="star")
        rings = []
        for orbit in info.orbit_partition:
            offs = pts - pts[orbit[0]]
            norms = np.hypot(*offs.T)
            keep = norms > TAU_GEOM
            rings.append(StarRing(pts[orbit[0]], offs[keep], norms[keep],
                                  np.argsort(norms[keep])[:8], np.sort(norms[keep])))
        star = StarPlan(d_max=d_max, kappa0=kappa0, rounds_bound=rounds_bound,
                        mindist=md, rings=tuple(rings))
        plan = Plan(pattern=pts, params=params, star=star,
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
        params = ProtocolParams(epsilon=eps, delta=delta, span=span,
                                c=c, s_p=s, n=n, branch="draw")
        try:
            fparams = FormationParams(eps, delta, span)
            grid = fparams.grid()
            if grid.locations < n // s + 2:
                raise PlanError("not enough grid locations for the component")
            path = build_drawing_path(pts, params)
            report = check_compatibility(params, path)
            if not (report.ok and report.margin_ok):
                raise PlanError(f"incompatible path: {report}")
        except (PlanError, ValueError) as exc:
            last_err = exc
            continue
        plan = Plan(pattern=path.pattern, params=params, path=path,
                    grid=grid, fparams=fparams)
        _finish_draw_plan(plan)
        return plan
    raise PlanError(f"no workable epsilon found after {_MAX_HALVINGS} halvings: {last_err}")


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

    plan.initial = initial_positions(plan)
    plan.slots = _slot_table(plan.initial, plan.params.s_p)
    plan.schedule = _build_draw_schedule(plan)
    _index_snapshots(plan)
    plan.moves = _move_tables(plan)


def intermediate_targets(plan: Plan) -> np.ndarray:
    """The three ending positions around the last vertex, in the path frame."""
    vk = plan.path.vertices[-1]
    eps = plan.params.epsilon
    p1, p2, p3 = plan.tail_points
    t1 = vk
    t2 = vk + (eps / 2.0) * unit(p2 - vk)
    t3 = vk + (eps / 3.0) * unit(p3 - vk)
    return np.stack([t1, t2, t3])


def initial_positions(plan: Plan) -> np.ndarray:
    """The initial cluster configuration: s rotated copies of the first
    formation in state 1, anchored at polar (2*diameter, pi/s)."""
    params = plan.params
    s = params.s_p
    size0, idx0 = plan.path.labels[0]
    assert idx0 == 1 and size0 == params.n // s
    hull = DrawingHull(plan.path.vertices[0], np.array([1.0, 0.0]),
                       params.span, params.delta)
    spec = state_by_index(plan.grid, size0, 1)
    base = spec.points(hull)
    blocks = [rotate(base, k * 2.0 * math.pi / s) for k in range(s)]
    return np.vstack(blocks)


def _build_draw_schedule(plan: Plan) -> list[ScheduleRound]:
    """Formation-level replay of the whole execution, one record per round."""
    params = plan.params
    path = plan.path
    s = params.s_p
    k = len(path.vertices)
    w = 2.0 * math.pi / s
    rounds: list[ScheduleRound] = []

    dropped: list[np.ndarray] = []       # path-frame positions, component 1
    for t in range(k):
        size, idx = path.labels[t]
        hull = DrawingHull(path.vertices[t], np.array([1.0, 0.0]), params.span, params.delta)
        state_pts = state_by_index(plan.grid, size, idx).points(hull)
        drops_now = [path.pattern[i] for i in path.coverage[t]] if t < path.tail_start else []
        pos, roles = _replicate(dropped, state_pts, Phase.FORMATION, s, w)
        rounds.append(ScheduleRound(pos, roles))
        dropped.extend(drops_now)

    inter = intermediate_targets(plan)
    pos, roles = _replicate(dropped, inter, Phase.INTERMEDIATE, s, w)
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
    plan.snapshot_ids = []
    plan.snapshot_centered = []
    for t, rec in enumerate(plan.schedule):
        pos = rec.positions
        if len(pos) and pairwise_distances(pos).max() <= 1.0 + TAU_GEOM:
            plan.snapshot_ids.append(t)
            plan.snapshot_centered.append(pos - pos.mean(axis=0))
    radii = [np.sort(np.hypot(*c.T)) for c in plan.snapshot_centered]
    plan.snapshot_radii = np.reshape(radii, (len(radii), plan.n))


def _canonical_order(local: np.ndarray) -> np.ndarray:
    """Lexicographic order of hull-local points snapped to the TAU_GEOM grid,
    so that every member of a formation orders the same way whatever its frame."""
    snapped = np.round(local / TAU_GEOM) * TAU_GEOM
    return np.lexsort((snapped[:, 1], snapped[:, 0]))


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
            targets = intermediate_targets(plan) - v
        else:
            move = path.vertices[vi + 1] - v
            if np.hypot(*move) > 1.0 - plan.params.delta + TAU_GEOM:
                raise PlanError(f"path edge {vi} is longer than 1 - diameter")
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
    """Rotation + translation mapping template onto points, or None.

    Centers both sets on their centroids, pairs an extremal point with every
    same-radius template point to get candidate rotations, and certifies a
    candidate by an injective nearest-neighbor matching; an exact
    minimum-cost assignment arbitrates when nearest neighbors collide.
    """
    pts = as_points(points)
    tmpl = as_points(template)
    if len(pts) != len(tmpl):
        raise ValueError("point counts differ")
    ca, cb = pts.mean(axis=0), tmpl.mean(axis=0)
    got = _fit_centered(pts - ca, tmpl - cb, tol)
    if got is None:
        return None
    theta, perm, err = got
    translation = ca - rotate(cb.reshape(1, 2), theta)[0]
    return theta, translation, perm, err


def _fit_centered(a, b, tol):
    """Rotation matching two centroid-centered point sets, or None.  The centroid
    moves by at most the largest point displacement, so a fit within tol
    changes the radius of each point by at most 2*tol."""
    n = len(a)
    ra = np.hypot(*a.T)
    rb = np.hypot(*b.T)
    gap = float(np.abs(np.sort(ra) - np.sort(rb)).max())
    if gap > 2 * tol + 1e-12:
        return None
    if n == 1 or ra.max() <= tol:
        return 0.0, np.arange(n), gap

    ext = int(np.lexsort((a[:, 1], a[:, 0], ra))[-1])
    ang_ext = math.atan2(a[ext, 1], a[ext, 0])
    for j in np.nonzero(np.abs(rb - ra[ext]) <= 2 * tol + 1e-12)[0]:
        theta = ang_ext - math.atan2(b[j, 1], b[j, 0])
        perm, err = match_points(a, rotate(b, theta), tol)
        if perm is not None:
            return theta, perm, err
    return None


# --- phase classification ---------------------------------------------------------

def _matches_snapshot(pts, plan: Plan, tol) -> bool:
    """Whether pts is congruent to a reference snapshot.

    tol is one tolerance for every snapshot, or a sequence holding one per
    entry of plan.snapshot_ids (see ``simulator.drift_tolerance``).
    """
    centered = pts - pts.mean(axis=0)
    for t in _screen_snapshots(np.sort(np.hypot(*centered.T)), plan, tol):
        tol_t = tol if np.isscalar(tol) else tol[t]
        if _fit_centered(centered, plan.snapshot_centered[t], tol_t) is not None:
            return True
    return False


def _screen_snapshots(radii, plan: Plan, tol) -> np.ndarray:
    """Positions in plan.snapshot_ids of the snapshots whose sorted radii all lie
    within 2*tol of radii (n values), the first test of ``_fit_centered``, for
    all at once."""
    atol = 2 * np.asarray(tol, dtype=float).reshape(-1, 1) + 1e-12
    return np.flatnonzero((np.abs(plan.snapshot_radii - radii) <= atol).all(axis=1))


def _own_formation(pts, fparams) -> tuple[DetectedFormation | None, bool]:
    """The unique valid formation containing the origin robot, if any.

    Detection reads only the view within 4δ + 4·tol, which is exact: a formation holding
    the origin is anchored within δ + tol, ``hulls_overlap`` reads formations anchored
    within 2δ + TAU_GEOM of that anchor, and each depends only on points within δ + tol
    of its anchor.
    """
    near = np.nonzero(np.hypot(*pts.T) <= 4 * (fparams.delta_diam + fparams.tol))[0]
    dets = detect_formations(pts[near], fparams)
    mine = [d for d in dets if 0 in d.member_indices]
    if len(mine) != 1:
        return None, bool(mine)
    det = mine[0]
    if any(other is not det and hulls_overlap(det.hull, other.hull) for other in dets):
        return None, True
    return replace(det, member_indices=tuple(near[list(det.member_indices)].tolist())), False


def _find_intermediate(pts, plan: Plan, tol: float):
    """Decode the unique epsilon/2-epsilon/3 ending triple containing the origin.

    Returns (indices (r1, r2, r3), rotation theta mapping path frame to the
    view frame) or None.  The role distances epsilon/2 and epsilon/3 differ
    by epsilon/6, so the tolerance is capped well below that gap.

    Only the view within 1.5*epsilon + 2*tol is read, which is exact: r1 is
    the origin or lies at epsilon/2 or epsilon/3 (within tol) from it, and the
    isolation check reads only points within epsilon + tol of r1.
    """
    eps = plan.params.epsilon
    tol = min(tol, eps / 16.0)
    targets = intermediate_targets(plan)
    vk = plan.path.vertices[-1]
    u2 = targets[1] - vk
    u3 = targets[2] - vk
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


def _classify(pts, plan: Plan, tol: float, snapshot_tol=None):
    """(phase, own formation, intermediate decode) for the origin robot."""
    if plan.branch != "draw":
        raise PlanError("phase classification applies to the drawing branch only")
    if len(pts) == plan.n and len(pts) > 1:
        if snapshot_tol is None:
            snapshot_tol = max(tol, 1e-7)
        if (not _matches_snapshot(pts, plan, snapshot_tol)
                and pairwise_distances(pts).max() <= 1.0 + TAU_GEOM):
            return Phase.INITIAL, None, None
    fparams = replace(plan.fparams, tol=tol) if tol != plan.fparams.tol else plan.fparams
    mine, conflicted = _own_formation(pts, fparams)
    if mine is not None:
        return Phase.FORMATION, mine, None
    if not conflicted:
        inter = _find_intermediate(pts, plan, tol)
        if inter is not None:
            return Phase.INTERMEDIATE, None, inter
    return Phase.DROPPED, None, None


# --- per-robot steps ----------------------------------------------------------------

def robot_decision(view: LocalView, plan: Plan, tol: float = TAU_GEOM,
                   snapshot_tol=None) -> Decision:
    """The robot's move (in its own frame) and phase for one round.

    tol is the detection tolerance.  snapshot_tol is the tolerance at which a
    full view is matched against the reference snapshots (one value, or one
    per entry of plan.snapshot_ids); by default max(tol, 1e-7).
    """
    if plan.branch == "star":
        return _star_decision(view, plan, max(tol, 1e-7))
    phase, mine, inter = _classify(view.all_points, plan, tol, snapshot_tol)
    if phase is Phase.INITIAL:
        return _initial_decision(view, plan)
    if phase is Phase.FORMATION:
        return _formation_decision(view, plan, mine)
    if phase is Phase.INTERMEDIATE:
        return _intermediate_decision(view, plan, inter)
    return Decision(np.zeros(2), Phase.DROPPED)


def _formation_decision(view: LocalView, plan: Plan, det: DetectedFormation) -> Decision:
    """Take the row of plan.moves at the formation's vertex that matches the
    robot's rank among the members, and map it to the view by the hull pose."""
    vi = plan.path.vertex_of_label(det.size, det.state_index)
    if vi is None:
        return Decision(np.zeros(2), Phase.FORMATION, ("unknown-state",))
    table = plan.moves[vi]
    if len(table) != det.size:
        raise FormationError(f"{det.size} robots cannot fill {len(table)} targets")
    rank = int(np.flatnonzero(_canonical_order(det.local) == det.member_indices.index(0))[0])
    target = det.hull.to_global(table[rank:rank + 1])[0]
    if math.hypot(*target) > 1.0 + TAU_GEOM:
        raise AssertionError("planned displacement exceeds the viewing range")
    # At the last vertex the move is the ending's first round: the reshape into
    # the epsilon/2-epsilon/3 triple.
    ending = vi == len(plan.path.vertices) - 1
    return Decision(target, Phase.FORMATION, ("ending-reshape",) if ending else ())


def _intermediate_decision(view: LocalView, plan: Plan, inter) -> Decision:
    (r1, r2, r3), theta = inter
    pts = view.all_points
    vk = plan.path.vertices[-1]
    rot = rotation_matrix(theta)
    finals = (plan.tail_points - vk) @ rot.T + pts[r1]
    for role, idx in zip(range(3), (r1, r2, r3)):
        if idx == 0:
            target = finals[role]
            if np.hypot(*target) > 1.0 + TAU_GEOM:
                return Decision(np.zeros(2), Phase.INTERMEDIATE, ("ending-out-of-reach",))
            return Decision(target, Phase.INTERMEDIATE)
    return Decision(np.zeros(2), Phase.INTERMEDIATE, ("not-in-triple",))


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
    rounded = np.round(slots, 9)
    # The rotation by 2*pi leaves every slot in place: the singletons, sorted
    # by ``_slot_key`` in one stable lexsort (an angle below 2*pi is its phase).
    order = np.lexsort((rounded[:, 1], rounded[:, 0], [round(a, 9) for a in angles], radii))
    table: dict[int, SlotOrbits | None] = {
        1: SlotOrbits(np.array(angles)[order], tuple((i,) for i in order.tolist()))}
    rounded = list(map(tuple, rounded.tolist()))
    for d in (d for d in range(2, s_p + 1) if s_p % d == 0):
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
    """Equivariant one-round assignment of mutually visible robots to slots.

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
    pts = as_points(points)
    n = len(pts)
    o = np.asarray(smallest_enclosing_circle(pts).center)
    rel = pts - o
    info = centered_symmetricity(rel)
    s = info.sym
    w = 2.0 * math.pi / s
    radii = np.hypot(*rel.T)
    off = radii > TAU_GEOM
    ang = np.array([polar_angle(p) if r else 0.0 for p, r in zip(rel, off)])

    rr = [round(float(r), 9) for r in radii]
    orbits = info.orbit_partition
    orbits_at = Counter(rr[orb[0]] for orb in orbits)

    def orbit_sig(orbit):
        # Signatures compare the radius first, so rows only break radius ties.
        i = orbit[0]
        if orbits_at[rr[i]] == 1:
            return (rr[i], ())
        rows = sorted((rr[j], round((ang[j] - ang[i]) % (2 * math.pi), 9) % _TURN if off[j]
                       else 0.0) for j in range(n))
        return (rr[i], tuple(rows))

    sigs = [orbit_sig(orb) for orb in orbits]
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


def _initial_decision(view: LocalView, plan: Plan) -> Decision:
    try:
        target = assignment_target(view.all_points, 0, plan.slots)
    except AssignmentError as exc:
        return Decision(np.zeros(2), Phase.INITIAL, (f"assignment-failed: {exc}",))
    return Decision(target, Phase.INITIAL)


# --- scaling branch for symmetricity >= n/2 ---------------------------------------------

def _star_decision(view: LocalView, plan: Plan, tol: float) -> Decision:
    pts = view.all_points
    star = plan.star
    n = plan.n
    if n == 1:
        return Decision(np.zeros(2), Phase.STAR)
    if len(pts) == n:
        fit = _star_full_fit(pts, plan, tol)
        if fit is None:
            # Initial near-gathering: take a slot of the shrunken pattern.
            try:
                target = assignment_target(pts, 0, plan.slots)
            except AssignmentError as exc:
                return Decision(np.zeros(2), Phase.INITIAL, (f"assignment-failed: {exc}",))
            return Decision(target, Phase.INITIAL)
        kappa, center = fit
    else:
        fits = _star_local_fits(pts, plan, tol)
        if len(fits) != 1:
            return Decision(np.zeros(2), Phase.STAR,
                            ("ambiguous-scale" if fits else "no-scale-fit",))
        kappa, center = fits[0]
    kappa_next = min(kappa + 1.0 / star.d_max, 1.0) if star.d_max > 0 else 1.0
    if kappa_next <= kappa + 1e-12:
        return Decision(np.zeros(2), Phase.STAR)
    target = center * (1.0 - kappa_next / kappa)
    return Decision(target, Phase.STAR)


def _star_full_fit(pts, plan: Plan, tol: float):
    """(scale, center) of a full view that is a scaled copy of the pattern.  The
    pattern's symmetricity is at least 2, so its centroid is its rotation
    centre, the origin of plan.pattern about which d_max is taken."""
    star = plan.star
    center = pts.mean(axis=0)
    rel = pts - center
    r_max = float(np.hypot(*rel.T).max())
    if r_max <= TAU_GEOM or star.d_max <= 0:
        return None
    kappa = r_max / star.d_max
    if kappa > 1.0 + 1e-9:
        return None
    if _fit_centered(rel, kappa * plan.pattern, max(tol, 1e-9 + kappa * 1e-9)) is None:
        return None
    return kappa, center


def _star_local_fits(pts, plan: Plan, tol: float):
    """Candidate (scale, center) fits of the local view against the pattern.

    A coarse fit seeds each candidate from the nearest neighbor; the scale
    and rotation are then refined by least squares over the whole matched
    neighborhood.  The refinement matters: a center estimated from a single
    baseline amplifies per-round float noise by ring-radius/baseline, which
    would compound across the scaling rounds.  Candidates that cannot pass
    the first match, by their distance profile alone or by the distances at
    their coarse pose, are dropped before it.
    """
    me_neighbors = pts[1:]
    if len(me_neighbors) == 0:
        return []
    star = plan.star
    tol = max(tol, 1e-6)
    obs_norms = np.hypot(*me_neighbors.T)
    nearest = me_neighbors[int(np.argmin(obs_norms))]
    ang_nearest = math.atan2(nearest[1], nearest[0])
    fits = []
    for ring in star.rings:
        kappa0s = np.hypot(*nearest) / ring.norms[ring.nearest8]
        windows = np.maximum(0.3 * kappa0s * star.mindist, tol)
        keep = _star_precheck(obs_norms, ring.sorted_norms, kappa0s, windows)
        if keep.any():
            keep[keep] = _star_window_check(me_neighbors, ring, nearest, ring.nearest8[keep],
                                            kappa0s[keep], windows[keep])
        for j, kappa0, window in zip(ring.nearest8[keep], kappa0s[keep], windows[keep]):
            theta0 = ang_nearest - math.atan2(ring.offs[j][1], ring.offs[j][0])
            refined = _star_refine(me_neighbors, ring.offs, ring.norms, float(kappa0), theta0,
                                   float(window), tol)
            if refined is None:
                continue
            kappa, theta = refined
            center = -kappa * (rotation_matrix(theta) @ ring.q)
            fits.append((kappa, center))
    unique = []
    for kappa, center in fits:
        if not any(abs(kappa - k2) <= 1e-5 and dist(center, c2) <= 1e-5 for k2, c2 in unique):
            unique.append((kappa, center))
    return unique


def _star_precheck(obs_norms, sorted_norms, kappa0s, windows):
    """Which coarse scales can pass the first ``_star_match`` at their window.

    Two rotation-free necessary conditions, for all candidates at once.  The
    match pairs the observed points injectively with offsets inside 1 + window
    and must cover every offset inside 1 - window, so the observed count lies
    between those two counts.  A matched pair is within the window, so each
    observed norm is within it of some scaled pattern norm (up to rounding,
    for which TAU_GEOM is ample).
    """
    enorms = kappa0s[:, None] * sorted_norms[None, :]
    inside = (enorms <= 1.0 + windows[:, None]).sum(axis=1)
    must = (enorms <= 1.0 - windows[:, None]).sum(axis=1)
    n_obs = len(obs_norms)
    keep = (1e-6 <= kappa0s) & (kappa0s <= 1.0 + 1e-9) & (must <= n_obs) & (n_obs <= inside)
    near = enorms[:, None, :inside.max()]
    gap = np.abs(obs_norms[None, :, None] - near) <= windows[:, None, None] + TAU_GEOM
    return keep & gap.any(axis=2).all(axis=1)


def _star_window_check(observed, ring: StarRing, nearest, js, kappa0s, windows):
    """Which coarse poses pass the distance clause of the first ``_star_match``,
    for all candidates at once: every observed point lies within its window of
    some expected offset whose scaled norm is at most 1 + window.

    The pose kappa0*exp(i*theta0) is nearest / offs[j] in complex form.  It
    differs from the match's rotation by rounding only, for which TAU_GEOM is
    ample, so no candidate that the match would accept is dropped.
    """
    offs = ring.offs[:, 0] + 1j * ring.offs[:, 1]
    expected = (complex(*nearest) / offs[js])[:, None] * offs[None, :]
    gaps = np.abs((observed[:, 0] + 1j * observed[:, 1])[None, :, None] - expected[:, None, :])
    inside = kappa0s[:, None] * ring.norms[None, :] <= 1.0 + windows[:, None]
    gaps = np.where(inside[:, None, :], gaps, np.inf)
    return (gaps.min(axis=2) <= windows[:, None] + TAU_GEOM).all(axis=1)


def _star_refine(observed, offs, norms, kappa0, theta0, window, tol):
    """Match the neighborhood under a coarse (scale, rotation) within the
    window, refine both by complex least squares, and re-verify within tol.
    Returns (kappa, theta) or None."""
    match = _star_match(observed, offs, norms, kappa0, theta0, window)
    if match is None:
        return None
    o = offs[match][:, 0] + 1j * offs[match][:, 1]
    w = observed[:, 0] + 1j * observed[:, 1]
    z = np.vdot(o, w) / np.vdot(o, o)
    kappa, theta = abs(z), math.atan2(z.imag, z.real)
    if not 1e-6 <= kappa <= 1.0 + 1e-6:
        return None
    if _star_match(observed, offs, norms, kappa, theta, tol) is None:
        return None
    return float(kappa), float(theta)


def _star_match(observed, offs, norms, kappa, theta, window):
    """Injective observed-to-offset matching within the window, requiring
    every offset strictly inside the viewing range to be observed.

    Nearest neighbours come from the full (observed x candidate) distance
    array.  Ties cannot change the outcome: within a window of at most
    0.3*kappa*mindist every other expected point is at least
    0.7*kappa*mindist away, and a match that fails fails for every tie-break.
    """
    enorms = kappa * norms
    cand_idx = np.nonzero(enorms <= 1.0 + window)[0]
    if len(observed) > len(cand_idx):
        return None
    expected = kappa * rotate(offs[cand_idx], theta)
    dx = observed[:, 0, None] - expected[None, :, 0]
    dy = observed[:, 1, None] - expected[None, :, 1]
    d2 = dx * dx + dy * dy
    idx = d2.argmin(axis=1)
    if math.sqrt(d2.min(axis=1).max()) > window:
        return None
    if len(np.unique(idx)) != len(observed):
        return None
    matched = np.zeros(len(norms), dtype=bool)
    matched[cand_idx[idx]] = True
    if not matched[enorms <= 1.0 - window].all():
        return None
    return cand_idx[idx]
