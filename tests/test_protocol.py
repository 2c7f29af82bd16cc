import itertools
import math
import re
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.spatial import cKDTree

from swarmdraw.geometry import (TAU_GEOM, dist, from_polar, mindist, pairwise_distances, perp,
                                polar_angle, rotate, rotation_matrix, smallest_enclosing_circle,
                                unit)
from swarmdraw.symmetry import normalize, rotation_orbits, symmetricity
from swarmdraw.formation import (
    DrawingHull,
    FormationParams,
    check_validity,
    detect_formations,
    hulls_overlap,
    state_by_index,
)
from swarmdraw.protocol import (
    DEFAULT_C,
    AssignmentError,
    LocalView,
    Phase,
    _find_intermediate,
    _matches_snapshot,
    _own_formation,
    _screen_snapshots,
    _star_local_fits,
    assignment_target,
    build_plan,
    intermediate_targets,
    robot_decision,
)
from swarmdraw.simulator import SimConfig, make_local_views, run_fsync

from corpus import near_gathering, ngon, random_connected_pattern, symmetric_pattern, two_ring


def view_from_global(positions, idx, theta=0.0):
    """Hand-built local view: neighbors relative to robot idx, rotated."""
    rel = np.delete(positions, idx, axis=0) - positions[idx]
    keep = rel[np.hypot(*rel.T) <= 1.0 + 1e-9]
    local = rotate(keep, theta)
    order = np.lexsort((local[:, 1], local[:, 0]))
    return LocalView(local[order])


# --- parameter derivation ---------------------------------------------------------

def test_derive_params_span_choice():
    pts7 = symmetric_pattern(7, 3, seed=77) if False else None
    # span follows min(2*pi/s, pi/3): check on real plans
    p1 = build_plan(random_connected_pattern(8, seed=1)).params
    assert p1.span == pytest.approx(math.pi / 3)
    p4 = build_plan(symmetric_pattern(4, 3, seed=2)).params
    assert p4.span == pytest.approx(math.pi / 3)  # 2*pi/4 > pi/3
    p6 = build_plan(symmetric_pattern(6, 3, seed=3)).params
    assert p6.span == pytest.approx(2 * math.pi / 6)


def test_derive_params_epsilon_formula():
    pts = random_connected_pattern(12, seed=5)
    params = build_plan(pts).params
    base = min(1.0, mindist(normalize(pts)), 1.0 / math.sqrt(12))
    assert params.epsilon == pytest.approx(params.c * base)
    assert params.epsilon < params.delta / 3
    assert params.delta == 0.1


def test_derive_params_star_branch():
    from corpus import ngon

    params = build_plan(ngon(14, 2.0)).params
    assert params.branch == "star" and params.s_p == 14


@pytest.mark.parametrize("c", [0.0, -0.01, math.nan, math.inf])
def test_build_plan_rejects_c_that_is_not_positive_and_finite(c):
    for pts in (random_connected_pattern(8, seed=3), ngon(8, 0.6)):
        with pytest.raises(ValueError, match="^c must be a positive finite number"):
            build_plan(pts, c)


def test_plan_capacity_invariants():
    pts = random_connected_pattern(15, seed=8)
    plan = build_plan(pts)
    assert plan.grid.locations >= 15 // plan.params.s_p + 2
    from swarmdraw.formation import count_states

    assert count_states(plan.grid, 3) >= plan.path.tail_len


# --- initial cluster pattern ---------------------------------------------------------

def test_initial_pattern_anchor_sym1():
    pts = random_connected_pattern(9, seed=4)
    plan = build_plan(pts)
    initial = plan.initial
    # The anchor robot of the single formation sits at polar (0.2, pi).
    anchor = from_polar(0.2, math.pi)
    assert min(dist(p, anchor) for p in initial) <= 1e-9
    assert len(initial) == 9
    # All nine robots form one formation in state 1, anchored at polar
    # (2 * delta, pi) and pointing along +x.
    dets = detect_formations(initial, plan.fparams)
    assert len(dets) == 1
    (det,) = dets
    assert (det.size, det.state_index) == plan.path.labels[0] == (9, 1)
    assert np.allclose(det.hull.anchor, from_polar(2 * plan.params.delta, math.pi), atol=1e-12)
    assert np.allclose(det.hull.direction, [1.0, 0.0], atol=1e-12)


def test_initial_pattern_sym4():
    pts = symmetric_pattern(4, 3, seed=6)
    plan = build_plan(pts)
    initial = plan.initial
    assert len(initial) == 12
    d = np.sqrt(((initial[:, None] - initial[None, :]) ** 2).sum(-1))
    assert d.max() <= 1.0 + 1e-9
    dets = detect_formations(initial, plan.fparams)
    assert len(dets) == 4
    assert all(d.size == 3 and d.state_index == 1 for d in dets)


def test_initial_pattern_symmetricity_round_trip():
    for s, m, seed in [(2, 4, 11), (3, 3, 12), (4, 4, 13)]:
        pts = symmetric_pattern(s, m, seed=seed)
        plan = build_plan(pts)
        info = symmetricity(plan.initial)
        assert info.sym == s


# --- phase classification ---------------------------------------------------------

def test_classify_dropped_robot():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    # A robot alone on a pattern coordinate with one far neighbor.
    positions = np.array([[0.0, 0.0], [0.9, 0.0]])
    view = view_from_global(positions, 0)
    assert robot_decision(view, plan).phase is Phase.DROPPED


def test_classify_formation_member():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    from swarmdraw.formation import DrawingHull, state_by_index

    hull = DrawingHull(np.array([2.0, 1.0]), np.array([0.0, 1.0]),
                       plan.params.span, plan.params.delta)
    members = state_by_index(plan.grid, 5, 3).points(hull)
    view = view_from_global(members, 2, theta=0.7)
    assert robot_decision(view, plan).phase is Phase.FORMATION


def test_classify_intermediate_triple():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    shape = intermediate_targets(plan)
    view = view_from_global(shape, 1, theta=1.3)
    assert robot_decision(view, plan).phase is Phase.INTERMEDIATE


def test_classify_initial_near_gathering():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    config = near_gathering(10, seed=3)
    view = view_from_global(config, 4)
    assert robot_decision(view, plan).phase is Phase.INITIAL


def test_classify_initial_pattern_is_not_initial_phase():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    view = view_from_global(plan.initial, 0)
    assert robot_decision(view, plan).phase is Phase.FORMATION


def _own_formation_full_view(pts, fparams):
    """Reference for _own_formation: detection over the whole view."""
    dets = detect_formations(pts, fparams)
    mine = [d for d in dets if 0 in d.member_indices]
    if len(mine) != 1:
        return None, bool(mine)
    for other in dets:
        if other is not mine[0] and hulls_overlap(mine[0].hull, other.hull):
            return None, True
    return mine[0], False


def _window_agrees(pts, fparams) -> tuple[bool, bool, bool]:
    """Assert _own_formation equals the full-view reference on one view;
    return (found, conflicted, whether the window left points out)."""
    got, got_conflicted = _own_formation(pts, fparams)
    want, want_conflicted = _own_formation_full_view(pts, fparams)
    assert got_conflicted == want_conflicted
    assert (got is None) == (want is None)
    if want is not None:
        assert got.member_indices == want.member_indices
        assert got.state_index == want.state_index
        assert np.array_equal(got.hull.anchor, want.hull.anchor)
        assert np.array_equal(got.hull.direction, want.hull.direction)
    window = 4 * (fparams.delta_diam + fparams.tol)
    return want is not None, want_conflicted, bool((np.hypot(*pts.T) > window).any())


_WINDOW_CASES = {
    "random-12": (random_connected_pattern(12, seed=5), False),
    "sym-3x4": (symmetric_pattern(3, 4, seed=2004), False),
    "sym-6x3": (symmetric_pattern(6, 3, seed=2008), False),   # six formations anchored 2δ apart
    "random-10-noisy": (random_connected_pattern(10, seed=7), True),
}


@lru_cache(maxsize=None)
def _run_views(case):
    """(plan, every robot's view in every round) of a run from the initial cluster."""
    pts, noisy = _WINDOW_CASES[case]
    plan = build_plan(pts)
    eps = plan.params.epsilon
    cfg = SimConfig(seed=4, max_rounds=plan.hops + 6,
                    noise_mu=eps / (20 * plan.hops) if noisy else 0.0)
    trace = run_fsync(plan.initial, plan, cfg)
    assert trace.verdict == "formed"
    return plan, [view.all_points for rec in trace.rounds
                  for view in make_local_views(rec.positions, rec.round, cfg)]


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_own_formation_window_matches_full_view(case):
    """Every robot's view in every round of a run, at the noiseless detection
    tolerance and at the noisy cap 0.45*epsilon."""
    plan, views = _run_views(case)
    eps = plan.params.epsilon
    seen = set()
    for pts_i in views:
        for tol in (plan.fparams.tol, 0.45 * eps):
            found, _, cut = _window_agrees(pts_i, replace(plan.fparams, tol=tol))
            seen.add((found, cut))
    # Members were found, and views were cut by the window, both ways round.
    assert {(True, True), (False, True)} <= seen


def _find_intermediate_full_view(pts, plan, tol):
    """Reference for _find_intermediate: every view point tried as r1."""
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


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_find_intermediate_window_matches_full_view(case):
    """The windowed ending decode equals the full-view scan on every view of a
    run, at the detection tolerance and at the noisy cap (clipped to epsilon/16).
    The ending triple sees no other robot in these runs, so each view that
    decodes one is also tried with robots added around it: six at 3*epsilon and
    0.5, outside the window but not near the triple, and ten scattered within
    4*epsilon."""
    plan, views = _run_views(case)
    eps = plan.params.epsilon
    window = 1.5 * eps + 2 * min(0.45 * eps, eps / 16.0)
    ring = np.array([from_polar(r, k * math.pi / 3 + 0.1)
                     for r in (3 * eps, 0.5) for k in range(3)])
    rng = np.random.default_rng(0)
    seen = set()

    def agree(pts_i, tol):
        want = _find_intermediate_full_view(pts_i, plan, tol)
        assert _find_intermediate(pts_i, plan, tol) == want
        seen.add((want is not None, bool((np.hypot(*pts_i.T) > window).any())))
        return want is not None

    for pts_i in views:
        for tol in (plan.fparams.tol, 0.45 * eps):
            if agree(pts_i, tol):
                # The added robots go right after the origin, ahead of the triple.
                agree(np.vstack([pts_i[:1], ring, pts_i[1:]]), tol)
                scatter = [from_polar(r, a) for r, a in zip(rng.uniform(0, 4 * eps, 10),
                                                            rng.uniform(0, 2 * math.pi, 10))]
                agree(np.vstack([pts_i[:1], scatter, pts_i[1:]]), tol)
    # Triples were decoded, and views were cut by the window, both ways round.
    assert {(True, True), (False, True)} <= seen


def test_own_formation_window_keeps_overlap_conflicts():
    """Two overlapping hulls, with other robots beyond the detection window:
    every member of either formation sees the conflict."""
    params = FormationParams(0.01, 0.1, math.pi / 3)
    spec = state_by_index(params.grid(), 3, 2)
    pts1 = spec.points(DrawingHull(np.zeros(2), np.array([1.0, 0.0]), math.pi / 3, 0.1))
    pts2 = spec.points(DrawingHull(np.array([0.13, 0.12]), unit(np.array([-0.735, -0.678])),
                                   math.pi / 3, 0.1))
    far = np.array([[-0.5, 0.3], [0.6, -0.4], [0.1, 0.9]])
    positions = np.vstack([pts1, pts2, far])
    conflicts = 0
    for i in range(len(positions)):
        pts_i = np.vstack([positions[i], np.delete(positions, i, axis=0)]) - positions[i]
        _, conflicted, cut = _window_agrees(pts_i, params)
        assert cut
        conflicts += conflicted
    assert conflicts == len(pts1) + len(pts2)


def test_own_formation_and_check_validity_share_the_overlap_cutoff():
    """Two facing formations anchored 2*delta + 5e-10 apart: their padded hulls
    touch, the commit check reports the overlap, and so does every member."""
    params = FormationParams(0.01, 0.1, math.pi / 3)
    spec = state_by_index(params.grid(), 3, 1)
    pts1 = spec.points(DrawingHull(np.zeros(2), np.array([1.0, 0.0]), math.pi / 3, 0.1))
    pts2 = spec.points(DrawingHull(np.array([0.2 + 5e-10, 0.0]), np.array([-1.0, 0.0]),
                                   math.pi / 3, 0.1))
    positions = np.vstack([pts1, pts2])
    report = check_validity(positions, params)
    assert len(report.formations) == 2 and report.overlaps == ((0, 1),)
    for i in range(len(positions)):
        assert _own_formation(positions - positions[i], params) == (None, True)


# --- snapshot screen -----------------------------------------------------------------

def _screen_reference(radii, plan, tol):
    """Reference for _screen_snapshots: one allclose per snapshot."""
    tols = itertools.repeat(tol) if np.isscalar(tol) else tol
    return [t for t, (sradii, tol_t) in enumerate(zip(plan.snapshot_radii, tols))
            if len(sradii) == len(radii)
            and np.allclose(radii, sradii, atol=2 * tol_t + 1e-12, rtol=0)]


@pytest.mark.parametrize("noisy", [False, True], ids=["scalar-tol", "per-snapshot-tol"])
def test_snapshot_screen_equals_allclose_loop(monkeypatch, noisy):
    """Every full view that a run from a near-gathering matches against the
    snapshots: the array screen keeps exactly the snapshots the per-snapshot
    loop keeps, at the tolerance run_fsync passes (one value without noise,
    one per snapshot under noise)."""
    import swarmdraw.protocol as protocol

    calls = []

    def record(pts, plan_, tol):
        calls.append((pts, tol))
        return _matches_snapshot(pts, plan_, tol)

    monkeypatch.setattr(protocol, "_matches_snapshot", record)
    for name, pts in (("random-10", random_connected_pattern(10, seed=7)),
                      ("sym-3x4", symmetric_pattern(3, 4, seed=2004))):
        plan = build_plan(pts)
        mu = plan.params.epsilon / (20 * plan.hops) if noisy else 0.0
        start, kept = len(calls), set()
        run_fsync(near_gathering(plan.n, seed=3), plan,
                  SimConfig(seed=4, max_rounds=plan.hops + 4, noise_mu=mu))
        for view_pts, tol in calls[start:]:
            assert (np.isscalar(tol) and not noisy) or len(tol) == len(plan.snapshot_ids)
            centered = view_pts - view_pts.mean(axis=0)
            radii = np.sort(np.hypot(*centered.T))
            got = _screen_snapshots(radii, plan, tol).tolist()
            assert got == _screen_reference(radii, plan, tol)
            kept.add(bool(got))
        # Views the screen rejected outright, and views it kept snapshots for.
        assert kept == {False, True}, name


# --- formation moves from the plan's tables ------------------------------------------

def _move_reference(view_pts, plan, det):
    """Reference for the move tables: the whole formation's targets built in the
    view frame, and members matched to targets by their lexicographic order in the
    hull frame at TAU_GEOM resolution.  Returns the origin robot's target."""
    path, hull = plan.path, det.hull
    vi = path.vertex_of_label(det.size, det.state_index)
    v = path.vertices[vi]
    basis = np.stack([hull.direction, perp(hull.direction)], axis=0)

    def to_view(q):
        return (np.atleast_2d(q) - v) @ basis + hull.anchor

    if vi == len(path.vertices) - 1:
        targets = to_view(intermediate_targets(plan))
    else:
        move = to_view(path.vertices[vi + 1])[0] - hull.anchor
        next_hull = DrawingHull(hull.anchor + move, hull.direction, hull.span, hull.diameter)
        drops = path.pattern[list(path.coverage[vi])] if vi < path.tail_start else []
        targets = np.vstack([state_by_index(plan.grid, *path.labels[vi + 1]).points(next_hull),
                             to_view(drops) if len(drops) else np.zeros((0, 2))])
    assert len(targets) == det.size

    def order(points):
        loc = np.round(hull.local(points) / TAU_GEOM) * TAU_GEOM
        return np.lexsort((loc[:, 1], loc[:, 0]))

    out = np.empty_like(targets)
    out[order(view_pts[list(det.member_indices)])] = targets[order(targets)]
    return out[det.member_indices.index(0)]


def _disc_jitter(rng, n, radius):
    """n offsets drawn uniformly from the disc of the given radius."""
    r = radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0, 2 * math.pi, n)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def test_move_tables_equal_whole_formation_assignment(corpus_plans):
    """On every corpus plan, at the first vertex, the first vertex that drops
    robots, the first tail vertex and the last vertex (the ending reshape):
    members' decisions in random frames equal the whole-formation assignment
    within 1e-12.  Views are taken on the exact schedule at the noiseless
    tolerance, and at a noisy tolerance tol = 0.1*epsilon with every robot
    jittered by up to tol/4 over the hull's lever arm 1 + delta/epsilon (the
    factor of run_fsync's detection guard), so members sit off their cells
    by far more than the TAU_GEOM grid that orders them."""
    rng = np.random.default_rng(0)
    kinds = set()
    for name, plan in corpus_plans:
        path = plan.path
        eps = plan.params.epsilon
        last = len(path.vertices) - 1
        drop = next((i for i in range(path.tail_start) if path.coverage[i]), 0)
        for vi in sorted({0, drop, path.tail_start, last}):
            rec = plan.schedule[vi]
            members = np.nonzero([r is Phase.FORMATION for r in rec.roles])[0]
            for i in rng.choice(members, size=min(len(members), 4), replace=False):
                for tol in (TAU_GEOM, 0.1 * eps):
                    positions = rec.positions
                    if tol > TAU_GEOM:
                        radius = tol / (4 * (1 + plan.params.delta / eps))
                        positions = positions + _disc_jitter(rng, len(positions), radius)
                    theta = float(rng.uniform(0, 2 * math.pi))
                    view = view_from_global(positions, i, theta)
                    dec = robot_decision(view, plan, tol=tol)
                    assert dec.phase is Phase.FORMATION, (name, vi)
                    det, _ = _own_formation(view.all_points, replace(plan.fparams, tol=tol))
                    want = _move_reference(view.all_points, plan, det)
                    assert np.abs(dec.target - want).max() <= 1e-12, (name, vi, tol)
                    assert dec.events == (("ending-reshape",) if vi == last else ())
                    kinds.add("ending" if vi == last else "drop" if path.coverage[vi]
                              and vi < path.tail_start else "move")
    assert kinds == {"move", "drop", "ending"}


# --- robot steps ---------------------------------------------------------------------

def test_dropped_robot_stays():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    positions = np.array([[0.0, 0.0], [0.95, 0.1]])
    view = view_from_global(positions, 0)
    dec = robot_decision(view, plan=plan)
    assert dec.phase is Phase.DROPPED
    assert np.allclose(dec.target, [0, 0])


def test_robot_step_pure_function_of_view():
    pts = random_connected_pattern(8, seed=15)
    plan = build_plan(pts)
    view = view_from_global(plan.initial, 3, theta=0.9)
    t1 = robot_decision(view, plan).target
    t2 = robot_decision(view, plan).target
    assert np.array_equal(t1, t2)


def test_robot_step_frame_equivariance():
    """robot_decision(rot(view)) == rot(robot_decision(view)) across all phases."""
    pts = random_connected_pattern(10, seed=16)
    plan = build_plan(pts)
    shape = intermediate_targets(plan)
    scenarios = [
        (plan.initial, 0),                   # formation member at the start
        (near_gathering(10, seed=5), 2),     # initial near-gathering
        (shape, 0),                          # intermediate triple
    ]
    rng = np.random.default_rng(0)
    for positions, idx in scenarios:
        base = view_from_global(positions, idx, theta=0.0)
        t0 = robot_decision(base, plan=plan).target
        for _ in range(100):
            theta = float(rng.uniform(0, 2 * math.pi))
            view = view_from_global(positions, idx, theta=theta)
            t = robot_decision(view, plan=plan).target
            assert np.allclose(t, rotation_matrix(theta) @ t0, atol=1e-9)


def test_formation_step_matches_path_ground_truth():
    pts = random_connected_pattern(9, seed=17)
    plan = build_plan(pts)
    path = plan.path
    # One synchronous step from the initial pattern lands every robot of the
    # first formation on the state of the second vertex.
    cfg = SimConfig(seed=0, frame_mode="fixed")
    targets = np.empty_like(plan.initial)
    for i, view in enumerate(make_local_views(plan.initial, 0, cfg)):
        targets[i] = plan.initial[i] + robot_decision(view, plan=plan).target
    dets = detect_formations(targets, plan.fparams)
    assert len(dets) == plan.params.s_p
    size1, idx1 = path.labels[1]
    det = min(dets, key=lambda d: dist(d.hull.anchor, path.vertices[1]))
    assert det.size == size1 and det.state_index == idx1
    assert dist(det.hull.anchor, path.vertices[1]) <= 1e-9


def test_endgame_round_two_zero_displacement_when_vertex_is_coordinate():
    """If the last vertex coincides with a tail coordinate, its robot stays."""
    for seed in range(30, 60):
        pts = random_connected_pattern(8, seed=seed)
        plan = build_plan(pts)
        vk = plan.path.vertices[-1]
        p1 = plan.tail_points[0]
        if dist(vk, p1) > 1e-9:
            continue
        shape = intermediate_targets(plan)
        view = view_from_global(shape, 0, theta=0.4)
        dec = robot_decision(view, plan=plan)
        assert dec.phase is Phase.INTERMEDIATE
        assert np.hypot(*dec.target) <= 1e-9
        break


def test_endgame_displacements_within_viewing_range(tail_corpus):
    for name, pts in tail_corpus[:3]:
        plan = build_plan(pts)
        shape = intermediate_targets(plan)
        for idx in range(3):
            view = view_from_global(shape, idx, theta=0.8)
            dec = robot_decision(view, plan=plan)
            assert dec.phase is Phase.INTERMEDIATE
            assert np.hypot(*dec.target) <= 1.0 + 1e-9


def test_locality_view_excludes_far_robots():
    positions = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0]])
    cfg = SimConfig(seed=0, frame_mode="fixed")
    view = make_local_views(positions, 0, cfg)[0]
    dists = np.hypot(*view.neighbors.T)
    assert len(view.neighbors) == 2  # 0.5 and exactly 1.0; 1.5 is out of range
    assert dists.max() <= 1.0 + 1e-9


def test_near_gathering_assignment_forms_initial_pattern():
    pts = random_connected_pattern(8, seed=18)
    plan = build_plan(pts)
    config = near_gathering(8, seed=9)
    cfg = SimConfig(seed=0, frame_mode="fixed")
    targets = np.empty_like(config)
    for i, view in enumerate(make_local_views(config, 0, cfg)):
        dec = robot_decision(view, plan=plan)
        assert dec.phase is Phase.INITIAL
        targets[i] = config[i] + dec.target
    # The one-round assignment realizes the initial pattern up to isometry.
    from swarmdraw.protocol import fit_isometry

    assert fit_isometry(targets, plan.initial, 1e-7) is not None
    disp = np.hypot(*(targets - config).T)
    assert disp.max() <= 1.0 + 1e-9


def test_symmetric_near_gathering_assignment_respects_orbits():
    pts = symmetric_pattern(3, 3, seed=19)
    plan = build_plan(pts)
    # Build a 3-symmetric near-gathering: 3 rotated copies of 3 seed robots.
    rng = np.random.default_rng(10)
    seeds = rng.uniform(-0.15, 0.15, (3, 2)) + np.array([0.25, 0.1])
    config = np.vstack([rotate(seeds, k * 2 * math.pi / 3) for k in range(3)])
    info = symmetricity(config)
    assert info.sym == 3
    cfg = SimConfig(seed=0, frame_mode="fixed")
    targets = np.empty_like(config)
    for i, view in enumerate(make_local_views(config, 0, cfg)):
        targets[i] = config[i] + robot_decision(view, plan=plan).target
    from swarmdraw.protocol import fit_isometry

    assert fit_isometry(targets, plan.initial, 1e-7) is not None
    # No collisions despite the enforced symmetry.
    d = np.sqrt(((targets[:, None] - targets[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-6


def _assignment_reference(points, self_idx, slots):
    """Reference for assignment_target: the slot orbits of the slot array
    found and sorted on every call, and the symmetricity taken of the
    centered points with a second enclosing circle."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    o = np.asarray(smallest_enclosing_circle(pts).center)
    rel = pts - o
    info = symmetricity(rel)
    s = info.sym
    w = 2.0 * math.pi / s
    radii = np.hypot(*rel.T)
    ang = np.array([polar_angle(p) if r > TAU_GEOM else 0.0 for p, r in zip(rel, radii)])

    rr = [round(float(r), 9) for r in radii]
    orbits = info.orbit_partition
    orbits_at = Counter(rr[orb[0]] for orb in orbits)

    def orbit_sig(orbit):
        i = orbit[0]
        if orbits_at[rr[i]] == 1:
            return (rr[i], ())
        rows = sorted((rr[j], round((ang[j] - ang[i]) % (2 * math.pi), 9)) for j in range(n))
        return (rr[i], tuple(rows))

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
        by_k[round((a - base_phase) / w) % s] = m
    if len(by_k) != len(members):
        raise AssignmentError("slot orbit members are not evenly spaced")
    return o + r_star @ slots[by_k[k]]


def _assignment_agrees(points, self_idx, plan):
    """assignment_target equals the reference bit for bit, or both raise the
    same AssignmentError; returns the error message or None."""
    try:
        want = _assignment_reference(points, self_idx, plan.slots.points)
    except AssignmentError as exc:
        with pytest.raises(AssignmentError, match=f"^{re.escape(str(exc))}$"):
            assignment_target(points, self_idx, plan.slots)
        return str(exc)
    got = assignment_target(points, self_idx, plan.slots)
    assert np.array_equal(got, want)
    return None


def _lattice_gathering(n, seed, spacing=0.04):
    """n robots on the jittered lattice sites nearest to the origin: pairwise
    at least spacing/2 apart, and within diameter 0.8 for the corpus' n <= 260,
    where rejection sampling (``near_gathering``) would never finish."""
    rng = np.random.default_rng(seed)
    ticks = np.arange(-12, 13) * spacing
    sites = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    sites = sites + rng.uniform(-spacing / 2, spacing / 2, 2)
    sites = sites[np.argsort(np.hypot(*sites.T), kind="stable")[:n]]
    return sites + rng.uniform(-spacing / 4, spacing / 4, sites.shape)


def test_assignment_target_equals_reference(main_corpus, tail_corpus, star_corpus):
    """Targets read from the plan's slot table equal the per-call reference bit
    for bit, in random frames: near-gatherings of the star and drawing corpora,
    3-symmetric near-gatherings against patterns of symmetricity 3 and 6, and
    starts whose symmetricity does not divide the pattern's."""
    rng = np.random.default_rng(12)
    outcomes = Counter()

    def check(config, plan, robots):
        for i in robots:
            view = view_from_global(config, i, float(rng.uniform(0, 2 * math.pi)))
            outcomes[_assignment_agrees(view.all_points, 0, plan)] += 1

    for seed, (name, pts) in enumerate(star_corpus):
        plan = build_plan(pts)
        check(_lattice_gathering(plan.n, seed), plan, rng.choice(plan.n, 3, replace=False))
    for seed, (name, pts) in enumerate(main_corpus[::3] + tail_corpus[::3]):
        plan = build_plan(pts)
        check(near_gathering(plan.n, seed=seed), plan, rng.choice(plan.n, 3, replace=False))
    gathered = 3 * (len(star_corpus) + len(main_corpus[::3]) + len(tail_corpus[::3]))
    assert outcomes == {None: gathered}

    # 3-symmetric near-gatherings, as in the orbit test above.
    cases = [(symmetric_pattern(3, 3, seed=19), 3), (symmetric_pattern(6, 2, seed=4), 6),
             (symmetric_pattern(2, 3, seed=5), 2), (random_connected_pattern(9, seed=18), 1)]
    for pts, s_p in cases:
        plan = build_plan(pts)
        assert plan.params.s_p == s_p and plan.n % 3 == 0
        seeds = rng.uniform(-0.15, 0.15, (plan.n // 3, 2)) + np.array([0.25, 0.1])
        config = np.vstack([rotate(seeds, k * 2 * math.pi / 3) for k in range(3)])
        assert symmetricity(config).sym == 3
        check(config, plan, range(plan.n))
    assert outcomes[None] == gathered + 9 + 12
    # Symmetricity 3 divides neither 2 nor 1.
    assert outcomes["slot set lacks the required rotational symmetry"] == 6 + 9


# --- scaling branch -------------------------------------------------------------------

def test_star_single_ring_growth_rounds():
    from corpus import ngon

    pts = ngon(14, 2.0)
    plan = build_plan(pts)
    init = plan.star.kappa0 * plan.pattern
    trace = run_fsync(init, plan, SimConfig(seed=2, max_rounds=50))
    assert trace.verdict == "formed"
    assert trace.total_rounds <= math.ceil(2.0 - plan.star.kappa0 * 2.0) + 1


def test_star_two_ring_ratio_preserved():
    from corpus import two_ring

    pts = two_ring(20, 3.0, 2.4)
    plan = build_plan(pts)
    init = plan.star.kappa0 * plan.pattern
    trace = run_fsync(init, plan, SimConfig(seed=2, max_rounds=50))
    assert trace.verdict == "formed"
    for rec in trace.rounds:
        radii = np.sort(np.hypot(*rec.positions.T))
        r_small, r_big = radii[0], radii[-1]
        assert r_big / r_small == pytest.approx(3.0 / 2.4, abs=1e-6)


def test_star_run_recomputes_no_pattern_values(monkeypatch):
    """Star fitting reads the pattern's orbits and mindist from the plan."""
    from corpus import two_ring
    import swarmdraw.protocol as protocol

    plan = build_plan(two_ring(20, 3.0, 2.4))
    calls = {"symmetricity": 0, "mindist": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(protocol, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(protocol, name, counted)
    trace = run_fsync(plan.star.kappa0 * plan.pattern, plan, SimConfig(seed=2, max_rounds=50))
    assert trace.verdict == "formed"
    assert calls == {"symmetricity": 0, "mindist": 0}


def test_gathered_runs_take_one_enclosing_circle_per_assignment(monkeypatch):
    """A gathered star run and a gathered drawing run: each assignment_target
    call computes one smallest enclosing circle, and the slot orbits come
    from the plan, so no rotation_orbits call is made on the slots."""
    import swarmdraw.geometry as geometry
    import swarmdraw.pathing as pathing
    import swarmdraw.protocol as protocol
    import swarmdraw.symmetry as symmetry

    runs = [(build_plan(ngon(14, 2.0)), near_gathering(14, seed=21)),
            (build_plan(random_connected_pattern(8, seed=18)), near_gathering(8, seed=9))]
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(protocol, "assignment_target",
                        counted("assignment", protocol.assignment_target))
    monkeypatch.setattr(protocol, "rotation_orbits", counted("slot orbits", protocol.rotation_orbits))
    sec = counted("sec", geometry.smallest_enclosing_circle)
    for module in (geometry, symmetry, pathing, protocol):
        monkeypatch.setattr(module, "smallest_enclosing_circle", sec)
    for plan, config in runs:
        calls.clear()
        rounds = plan.star.rounds_bound if plan.star is not None else plan.hops + 3
        trace = run_fsync(config, plan, SimConfig(seed=3, max_rounds=rounds))
        assert trace.verdict == "formed"
        assert calls == {"assignment": plan.n, "sec": plan.n}, plan.branch


def test_star_rounds_bound_with_assignment():
    from corpus import ngon

    pts = ngon(14, 2.0)
    plan = build_plan(pts)
    config = near_gathering(14, seed=21)
    trace = run_fsync(config, plan, SimConfig(seed=3, max_rounds=50))
    assert trace.verdict == "formed"
    assert trace.total_rounds <= plan.star.rounds_bound


def test_star_already_formed_stops_immediately():
    from corpus import ngon

    pts = ngon(14, 2.0)
    trace = run_fsync(pts, pts, SimConfig(seed=1, max_rounds=5))
    assert trace.verdict == "formed" and trace.total_rounds == 0


def kdtree_star_match(observed, offs, norms, kappa, theta, window):
    """Reference for _star_match: nearest neighbours from a KD-tree."""
    enorms = kappa * norms
    cand_idx = np.nonzero(enorms <= 1.0 + window)[0]
    if len(observed) > len(cand_idx):
        return None
    expected = kappa * rotate(offs[cand_idx], theta)
    dd, idx = cKDTree(expected).query(observed, k=1)
    if dd.max() > window or len(set(idx.tolist())) != len(observed):
        return None
    matched = set(cand_idx[idx].tolist())
    must = np.nonzero(enorms <= 1.0 - window)[0]
    if not set(must.tolist()) <= matched:
        return None
    return cand_idx[idx]


def least_squares_pose(observed, offs, match):
    """(kappa, theta) of the complex least-squares fit of matched offsets."""
    o = offs[match][:, 0] + 1j * offs[match][:, 1]
    w = observed[:, 0] + 1j * observed[:, 1]
    z = np.vdot(o, w) / np.vdot(o, o)
    return abs(z), math.atan2(z.imag, z.real)


def _refine_every_candidate(pts, plan, tol):
    """Reference for _star_local_fits: refine every coarse candidate, with no
    pre-check, and match with a KD-tree."""
    me_neighbors = pts[1:]
    if len(me_neighbors) == 0:
        return []
    star = plan.star
    obs_norms = np.hypot(*me_neighbors.T)
    nearest = me_neighbors[int(np.argmin(obs_norms))]
    fits = []
    for q, offs, norms, nearest8, _ in star.rings:
        for j in nearest8:
            kappa0 = float(np.hypot(*nearest) / norms[j])
            if not 1e-6 <= kappa0 <= 1.0 + 1e-9:
                continue
            theta0 = math.atan2(nearest[1], nearest[0]) - math.atan2(offs[j][1], offs[j][0])
            tol_r = max(tol, 1e-6)
            match = kdtree_star_match(me_neighbors, offs, norms, kappa0, theta0,
                                      max(0.3 * kappa0 * star.mindist, tol_r))
            if match is None:
                continue
            kappa, theta = least_squares_pose(me_neighbors, offs, match)
            if not 1e-6 <= kappa <= 1.0 + 1e-6:
                continue
            if kdtree_star_match(me_neighbors, offs, norms, kappa, theta, tol_r) is None:
                continue
            kappa, theta = float(kappa), float(theta)
            fits.append((kappa, -kappa * (rotation_matrix(theta) @ q)))
    unique = []
    for kappa, center in fits:
        if not any(abs(kappa - k2) <= 1e-5 and dist(center, c2) <= 1e-5 for k2, c2 in unique):
            unique.append((kappa, center))
    return unique


@pytest.mark.parametrize("pts, seed", [(ngon(14, 2.0), 21), (two_ring(20, 3.0, 2.4), 8)],
                         ids=["ngon-14x2", "ring2-20"])
def test_star_local_fits_equal_refining_every_candidate(monkeypatch, pts, seed):
    """Every local view of a scaled and a gathered run: the pre-checked,
    tree-free fits equal the reference bit for bit, and the pre-checks leave
    about one refinement per view."""
    import swarmdraw.protocol as protocol

    plan = build_plan(pts)
    views = []

    def record(view_pts, plan_, tol):
        views.append((view_pts, tol))
        return _star_local_fits(view_pts, plan_, tol)

    monkeypatch.setattr(protocol, "_star_local_fits", record)
    for initial in (plan.star.kappa0 * plan.pattern, near_gathering(plan.n, seed=seed)):
        trace = run_fsync(initial, plan, SimConfig(seed=3, max_rounds=plan.star.rounds_bound))
        assert trace.verdict == "formed"
    monkeypatch.undo()

    refinements = [0]
    refine = protocol._star_refine

    def counted(*args):
        refinements[0] += 1
        return refine(*args)

    monkeypatch.setattr(protocol, "_star_refine", counted)
    assert len(views) > 3 * plan.n
    for view_pts, tol in views:
        got = _star_local_fits(view_pts, plan, tol)
        want = _refine_every_candidate(view_pts, plan, tol)
        assert len(got) == len(want)
        for (k1, c1), (k2, c2) in zip(got, want):
            assert k1 == k2 and np.array_equal(c1, c2)
    # The reference refines 8 candidates per orbit.  After the distance-profile
    # pre-check 3.0 (n-gon) and 5.7 (two-ring) per view were left; the window
    # check at the coarse pose leaves exactly one per view on both.
    assert refinements[0] <= 1.2 * len(views)
