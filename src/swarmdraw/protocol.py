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

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.spatial import cKDTree

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
from .symmetry import Pattern, normalize, rotation_orbits, symmetricity
from .formation import (
    DetectedFormation,
    DrawingHull,
    FormationParams,
    GridSpec,
    check_validity,
    count_states,
    detect_formations,
    plan_move,
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
    phase: Phase | str
    events: tuple[str, ...] = ()


# --- reference schedule ---------------------------------------------------------

@dataclass(frozen=True)
class ScheduleRound:
    positions: np.ndarray
    roles: tuple[str, ...]
    drops: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class StarPlan:
    d_max: float
    kappa0: float
    rounds_bound: int


@dataclass
class Plan:
    pattern: np.ndarray             # canonical pattern (normalized, rotated)
    params: ProtocolParams
    path: DrawingPath | None = None
    grid: GridSpec | None = None
    fparams: FormationParams | None = None
    initial: np.ndarray | None = None
    schedule: list[ScheduleRound] = field(default_factory=list)
    snapshot_ids: list[int] = field(default_factory=list)
    snapshot_radii: list[np.ndarray] = field(default_factory=list)
    snapshot_centered: list[np.ndarray] = field(default_factory=list)
    tail_points: np.ndarray | None = None     # p1, p2, p3 in path frame
    star: StarPlan | None = None

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
    """Everything the protocol derives from the pattern (memoized)."""
    pts = normalize(pattern if isinstance(pattern, Pattern) else Pattern(as_points(pattern))).points
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
    info = symmetricity(Pattern(pts, normalized=True))
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
        plan = Plan(pattern=pts, params=params,
                    star=StarPlan(d_max=d_max, kappa0=kappa0, rounds_bound=rounds_bound))
        _build_star_schedule(plan)
        return plan

    md = mindist(pts)
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
    plan.schedule = _build_draw_schedule(plan)
    _index_snapshots(plan)


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
        pos, roles = _replicate(dropped, state_pts, "formation", s, w)
        rounds.append(ScheduleRound(pos, roles, tuple(map(tuple, drops_now))))
        dropped.extend(drops_now)

    inter = intermediate_targets(plan)
    pos, roles = _replicate(dropped, inter, "intermediate", s, w)
    rounds.append(ScheduleRound(pos, roles, ()))

    final_drops = [plan.tail_points[i] for i in range(3)]
    pos, roles = _replicate(dropped + final_drops, np.zeros((0, 2)), "dropped", s, w)
    rounds.append(ScheduleRound(pos, roles, tuple(map(tuple, final_drops))))
    return rounds


def _replicate(dropped, active_pts, active_role, s, w):
    blocks = []
    roles: list[str] = []
    for j in range(s):
        rot = rotation_matrix(j * w)
        if dropped:
            blocks.append(np.stack(dropped) @ rot.T)
            roles += ["dropped"] * len(dropped)
        if len(active_pts):
            blocks.append(np.asarray(active_pts) @ rot.T)
            roles += [active_role] * len(active_pts)
    return np.vstack(blocks) if blocks else np.zeros((0, 2)), tuple(roles)


def _index_snapshots(plan: Plan) -> None:
    plan.snapshot_ids = []
    plan.snapshot_radii = []
    plan.snapshot_centered = []
    for t, rec in enumerate(plan.schedule):
        pos = rec.positions
        if len(pos) and pairwise_distances(pos).max() <= 1.0 + TAU_GEOM:
            center = np.asarray(smallest_enclosing_circle(pos).center)
            centered = pos - center
            plan.snapshot_ids.append(t)
            plan.snapshot_radii.append(np.sort(np.hypot(*centered.T)))
            plan.snapshot_centered.append(centered)


def _build_star_schedule(plan: Plan) -> None:
    star = plan.star
    kappas = [star.kappa0]
    while kappas[-1] < 1.0 - 1e-12:
        kappas.append(min(kappas[-1] + 1.0 / star.d_max, 1.0))
    plan.schedule = [ScheduleRound(k * plan.pattern, tuple(["star"] * plan.n))
                     for k in kappas]


# --- congruence fitting ----------------------------------------------------------

def fit_isometry(points, template, tol: float):
    """Rotation + translation mapping template onto points, or None.

    Centers both sets on their smallest enclosing circles, pairs an extremal
    point with every same-radius template point to get candidate rotations,
    and certifies a candidate by an injective nearest-neighbor matching; an
    exact minimum-cost assignment arbitrates when nearest neighbors collide.
    """
    pts = as_points(points)
    tmpl = as_points(template)
    if len(pts) != len(tmpl):
        raise ValueError("point counts differ")
    ca = np.asarray(smallest_enclosing_circle(pts).center)
    cb = np.asarray(smallest_enclosing_circle(tmpl).center)
    got = _fit_centered(pts - ca, tmpl - cb, tol)
    if got is None:
        return None
    theta, perm, err = got
    translation = ca - rotate(cb.reshape(1, 2), theta)[0]
    return theta, translation, perm, err


def _fit_centered(a, b, tol):
    """Rotation matching two SEC-centered point sets, or None."""
    n = len(a)
    ra = np.hypot(*a.T)
    rb = np.hypot(*b.T)
    if not np.allclose(np.sort(ra), np.sort(rb), atol=2 * tol + 1e-12, rtol=0):
        return None
    if n == 1 or ra.max() <= tol:
        return 0.0, np.arange(n), float(np.abs(np.sort(ra) - np.sort(rb)).max())

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
    center = np.asarray(smallest_enclosing_circle(pts).center)
    centered = pts - center
    radii = np.sort(np.hypot(*centered.T))
    tols = itertools.repeat(tol) if np.isscalar(tol) else tol
    for sradii, scentered, tol_t in zip(plan.snapshot_radii, plan.snapshot_centered, tols):
        if len(sradii) != len(radii):
            continue
        if not np.allclose(radii, sradii, atol=2 * tol_t + 1e-12, rtol=0):
            continue
        if _fit_centered(centered, scentered, tol_t) is not None:
            return True
    return False


def _own_formation(pts, fparams) -> tuple[DetectedFormation | None, bool]:
    """The unique valid formation containing the origin robot, if any."""
    from .formation import _convex_overlap, wedge_polygon

    dets = detect_formations(pts, fparams)
    mine = [d for d in dets if 0 in d.member_indices]
    if len(mine) != 1:
        return None, bool(mine)
    poly = wedge_polygon(mine[0].hull)
    for other in dets:
        if other is mine[0]:
            continue
        if np.hypot(*(other.hull.anchor - mine[0].hull.anchor)) > 2 * fparams.delta_diam:
            continue
        if _convex_overlap(poly, wedge_polygon(other.hull)):
            return None, True
    return mine[0], False


def _find_intermediate(pts, plan: Plan, tol: float):
    """Decode the unique epsilon/2-epsilon/3 ending triple containing the origin.

    Returns (indices (r1, r2, r3), rotation theta mapping path frame to the
    view frame) or None.  The role distances epsilon/2 and epsilon/3 differ
    by epsilon/6, so the tolerance is capped well below that gap.
    """
    eps = plan.params.epsilon
    tol = min(tol, eps / 16.0)
    targets = intermediate_targets(plan)
    vk = plan.path.vertices[-1]
    u2 = targets[1] - vk
    u3 = targets[2] - vk
    n = len(pts)
    d = pairwise_distances(pts)
    for r1 in range(n):
        near2 = np.nonzero(np.abs(d[r1] - eps / 2.0) <= tol)[0]
        near3 = np.nonzero(np.abs(d[r1] - eps / 3.0) <= tol)[0]
        for r2 in near2:
            for r3 in near3:
                if len({r1, int(r2), int(r3)}) != 3 or 0 not in (r1, int(r2), int(r3)):
                    continue
                others = np.array([i for i in range(n) if i not in (r1, r2, r3)], dtype=int)
                if len(others) and (d[r1, others] <= eps + tol).any():
                    continue
                obs2 = pts[r2] - pts[r1]
                theta = math.atan2(obs2[1], obs2[0]) - math.atan2(u2[1], u2[0])
                expect3 = rotate(u3, theta)
                if dist(pts[r3] - pts[r1], expect3) > 2 * tol + 1e-12:
                    continue
                return (r1, int(r2), int(r3)), theta
    return None


def classify_phase(view: LocalView, plan: Plan, tol: float = TAU_GEOM) -> Phase:
    """Which of the four protocol situations the viewing robot is in."""
    return _classify(view.all_points, plan, tol)[0]


def _classify(pts, plan: Plan, tol: float, snapshot_tol=None):
    """(phase, own formation, intermediate decode) for the origin robot."""
    if plan.branch != "draw":
        raise PlanError("phase classification applies to the drawing branch only")
    if len(pts) == plan.n and len(pts) > 1:
        if snapshot_tol is None:
            snapshot_tol = max(tol, 1e-7)
        if (pairwise_distances(pts).max() <= 1.0 + TAU_GEOM
                and not _matches_snapshot(pts, plan, snapshot_tol)):
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


def _path_to_view(hull: DrawingHull, anchor_vertex, q) -> np.ndarray:
    """Map path-frame points to the view frame via the detected hull pose."""
    rot = np.stack([hull.direction, np.array([-hull.direction[1], hull.direction[0]])], axis=0).T
    return (np.atleast_2d(q) - anchor_vertex) @ rot.T + hull.anchor


def _formation_decision(view: LocalView, plan: Plan, det: DetectedFormation) -> Decision:
    path = plan.path
    vi = path.vertex_of_label(det.size, det.state_index)
    if vi is None:
        return Decision(np.zeros(2), Phase.FORMATION, ("unknown-state",))
    k_last = len(path.vertices) - 1
    v = path.vertices[vi]
    if vi == k_last:
        # Ending, first of two rounds: reshape into the epsilon/2-epsilon/3 triple.
        targets = _path_to_view(det.hull, v, intermediate_targets(plan))
        return Decision(_my_assignment(det, targets), Phase.FORMATION, ("ending-reshape",))
    move_vec = path.vertices[vi + 1] - v
    drops = path.pattern[list(path.coverage[vi])] if vi < path.tail_start else np.zeros((0, 2))
    size_next, idx_next = path.labels[vi + 1]
    next_spec = state_by_index(plan.grid, size_next, idx_next)
    targets = plan_move(det,
                        _path_to_view(det.hull, v, v + move_vec)[0] - det.hull.anchor,
                        _path_to_view(det.hull, v, drops) if len(drops) else np.zeros((0, 2)),
                        next_spec)
    me = det.member_indices.index(0)
    return Decision(targets[me], Phase.FORMATION)


def _my_assignment(det: DetectedFormation, targets: np.ndarray) -> np.ndarray:
    """Canonical member-to-target matching, returning the origin robot's target."""
    from .formation import _quantize

    hull = det.hull
    members_loc = _quantize(hull.local(det.members))
    targets_loc = _quantize(hull.local(targets))
    m_order = np.lexsort((members_loc[:, 1], members_loc[:, 0]))
    t_order = np.lexsort((targets_loc[:, 1], targets_loc[:, 0]))
    assigned = np.empty_like(det.members)
    assigned[m_order] = targets[t_order]
    me = det.member_indices.index(0)
    return assigned[me]


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


def assignment_target(points: np.ndarray, self_idx: int, slots: np.ndarray) -> np.ndarray:
    """Equivariant one-round assignment of mutually visible robots to slots.

    Robots are grouped into orbits of the configuration's own symmetricity
    and paired with slot orbits; every quantity is derived from angle
    differences so all robots compute the same global outcome regardless of
    their private frames.  Configurations whose orbits cannot be told apart
    (identical signatures) are rejected.
    """
    pts = as_points(points)
    n = len(pts)
    o = np.asarray(smallest_enclosing_circle(pts).center)
    rel = pts - o
    info = symmetricity(Pattern(rel, normalized=True))
    s = info.sym
    w = 2.0 * math.pi / s
    radii = np.hypot(*rel.T)
    ang = np.array([polar_angle(p) if r > TAU_GEOM else 0.0 for p, r in zip(rel, radii)])

    def orbit_sig(orbit):
        i = orbit[0]
        rows = sorted((round(float(radii[j]), 9), round((ang[j] - ang[i]) % (2 * math.pi), 9))
                      for j in range(n))
        return (round(float(radii[i]), 9), tuple(rows))

    orbits = info.orbit_partition
    sigs = [orbit_sig(orb) for orb in orbits]
    if len(set(sigs)) != len(sigs):
        raise AssignmentError("configuration orbits are indistinguishable")
    order = sorted(range(len(orbits)), key=lambda i: sigs[i])
    orbits = [orbits[i] for i in order]

    slot_orbits = rotation_orbits(slots, s, tol=1e-7)
    if slot_orbits is None:
        raise AssignmentError("slot set lacks the required rotational symmetry")
    if len(slot_orbits) != len(orbits):
        raise AssignmentError("orbit counts of configuration and slots differ")

    def slot_key(orbit):
        members = slots[orbit]
        r = float(np.hypot(*members[0]))
        phases = sorted((polar_angle(p) % w) for p in members)
        return (round(r, 9), round(phases[0], 9),
                tuple(sorted(map(tuple, np.round(members, 9).tolist()))))

    slot_orbits = sorted(slot_orbits, key=slot_key)

    u = ang[orbits[0][0]]
    psi1 = polar_angle(slots[slot_orbits[0][0]])
    r_star = rotation_matrix(u - psi1)

    my_orbit = next(orb for orb in orbits if self_idx in orb)
    oi = orbits.index(my_orbit)
    phi = (ang[my_orbit[0]] - u) % w
    if phi > w / 2:
        phi -= w
    k = round(((ang[self_idx] - u) % (2 * math.pi) - phi) / w) % s

    members = slot_orbits[oi]
    mang = [polar_angle(slots[m]) for m in members]
    base_phase = min(a % w for a in mang)
    by_k = {}
    for m, a in zip(members, mang):
        km = round((a - base_phase) / w) % s
        by_k[km] = m
    if len(by_k) != len(members):
        raise AssignmentError("slot orbit members are not evenly spaced")
    slot = slots[by_k[k]]
    return o + r_star @ slot


def _initial_decision(view: LocalView, plan: Plan) -> Decision:
    try:
        target = assignment_target(view.all_points, 0, plan.initial)
    except AssignmentError as exc:
        return Decision(np.zeros(2), Phase.INITIAL, (f"assignment-failed: {exc}",))
    return Decision(target, Phase.INITIAL)


# --- scaling branch for symmetricity >= n/2 ---------------------------------------------

def _star_decision(view: LocalView, plan: Plan, tol: float) -> Decision:
    pts = view.all_points
    star = plan.star
    n = plan.n
    if n == 1:
        return Decision(np.zeros(2), "star")
    if len(pts) == n:
        fit = _star_full_fit(pts, plan, tol)
        if fit is None:
            # Initial near-gathering: take a slot of the shrunken pattern.
            try:
                target = assignment_target(pts, 0, star.kappa0 * plan.pattern)
            except AssignmentError as exc:
                return Decision(np.zeros(2), "star", (f"assignment-failed: {exc}",))
            return Decision(target, "star")
        kappa, center = fit
    else:
        fits = _star_local_fits(pts, plan, tol)
        if len(fits) != 1:
            return Decision(np.zeros(2), "star",
                            ("ambiguous-scale" if fits else "no-scale-fit",))
        kappa, center = fits[0]
    kappa_next = min(kappa + 1.0 / star.d_max, 1.0) if star.d_max > 0 else 1.0
    if kappa_next <= kappa + 1e-12:
        return Decision(np.zeros(2), "star")
    target = center * (1.0 - kappa_next / kappa)
    return Decision(target, "star")


def _star_full_fit(pts, plan: Plan, tol: float):
    star = plan.star
    center = np.asarray(smallest_enclosing_circle(pts).center)
    rel = pts - center
    r_max = float(np.hypot(*rel.T).max())
    if r_max <= TAU_GEOM or star.d_max <= 0:
        return None
    kappa = r_max / star.d_max
    if kappa > 1.0 + 1e-9:
        return None
    if fit_isometry(pts, kappa * plan.pattern, max(tol, 1e-9 + kappa * 1e-9)) is None:
        return None
    return kappa, center


def _star_local_fits(pts, plan: Plan, tol: float):
    """Candidate (scale, center) fits of the local view against the pattern.

    A coarse fit seeds each candidate from the nearest neighbor; the scale
    and rotation are then refined by least squares over the whole matched
    neighborhood.  The refinement matters: a center estimated from a single
    baseline amplifies per-round float noise by ring-radius/baseline, which
    would compound across the scaling rounds.
    """
    me_neighbors = pts[1:]
    if len(me_neighbors) == 0:
        return []
    pattern = plan.pattern
    md = mindist(pattern) if len(pattern) > 1 else 1.0
    obs_norms = np.hypot(*me_neighbors.T)
    nearest = me_neighbors[int(np.argmin(obs_norms))]
    fits = []
    for q in _ring_representatives(plan):
        offs = pattern - q
        norms = np.hypot(*offs.T)
        keep = norms > TAU_GEOM
        offs, norms = offs[keep], norms[keep]
        order = np.argsort(norms)
        for j in order[:8]:
            kappa0 = float(np.hypot(*nearest) / norms[j])
            if not 1e-6 <= kappa0 <= 1.0 + 1e-9:
                continue
            theta0 = math.atan2(nearest[1], nearest[0]) - math.atan2(offs[j][1], offs[j][0])
            refined = _star_refine(me_neighbors, offs, norms, kappa0, theta0,
                                   window=0.3 * kappa0 * md, tol=max(tol, 1e-6))
            if refined is None:
                continue
            kappa, theta = refined
            center = -kappa * (rotation_matrix(theta) @ q)
            fits.append((kappa, center))
    unique = []
    for kappa, center in fits:
        if not any(abs(kappa - k2) <= 1e-5 and dist(center, c2) <= 1e-5 for k2, c2 in unique):
            unique.append((kappa, center))
    return unique


def _ring_representatives(plan: Plan) -> list[np.ndarray]:
    info = symmetricity(Pattern(plan.pattern, normalized=True))
    return [plan.pattern[orb[0]] for orb in info.orbit_partition]


def _star_refine(observed, offs, norms, kappa0, theta0, window, tol):
    """Match the neighborhood under a coarse (scale, rotation), refine both
    by complex least squares, and re-verify.  Returns (kappa, theta) or None."""
    match = _star_match(observed, offs, norms, kappa0, theta0, max(window, tol))
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
    every offset strictly inside the viewing range to be observed."""
    enorms = kappa * norms
    cand_idx = np.nonzero(enorms <= 1.0 + window)[0]
    if len(observed) > len(cand_idx):
        return None
    expected = kappa * rotate(offs[cand_idx], theta)
    tree = cKDTree(expected)
    dd, idx = tree.query(observed, k=1)
    if dd.max() > window or len(set(idx.tolist())) != len(observed):
        return None
    matched = set(cand_idx[idx].tolist())
    must = np.nonzero(enorms <= 1.0 - window)[0]
    if not set(must.tolist()) <= matched:
        return None
    return cand_idx[idx]
