import hashlib
import itertools
import json
import math
import re
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from swarmdraw import formation, protocol
from swarmdraw.geometry import (TAU_GEOM, dist, from_polar, match_points, mindist,
                                pairwise_distances, polar_angle, rotate, rotation_matrix,
                                smallest_enclosing_circle, unit)
from swarmdraw.symmetry import normalize, rotation_orbits, symmetricity
from swarmdraw.formation import (
    detect_arrays,
    grid_spec,
    overlapping,
    state_by_index,
)
from swarmdraw.protocol import (
    DEFAULT_C,
    AssignmentError,
    Phase,
    PlanError,
    _ending_screen,
    _find_intermediate,
    _initial_views,
    _own_formations,
    _screen_pairs,
    _star_local_fits,
    assignment_target,
    build_plan,
    intermediate_targets,
    robot_decision,
    robot_decisions,
)
from swarmdraw.simulator import SimConfig, make_local_views, noisy_tolerances, run_fsync

from corpus import (at_pose, hull_frame, join_views, near_gathering, ngon,
                    random_connected_pattern, split_views, symmetric_pattern, two_ring)


def view_from_global(positions, idx, theta=0.0):
    """Hand-built local view: robot idx at row 0, then its neighbors relative
    to it, rotated and lex-sorted."""
    rel = np.delete(positions, idx, axis=0) - positions[idx]
    keep = rel[np.hypot(*rel.T) <= 1.0 + 1e-9]
    local = rotate(keep, theta)
    order = np.lexsort((local[:, 1], local[:, 0]))
    return np.vstack([np.zeros((1, 2)), local[order]])


def fixed_frame_views(positions):
    """Every robot's ``make_local_views`` view in the world's own frame."""
    n = len(positions)
    frame = (np.ones(n), np.zeros(n))
    return split_views(*make_local_views(positions, 0, SimConfig(), frame=frame))


def detect_one(points, grid, tol=TAU_GEOM):
    """``detect_arrays`` of one point set, as one window."""
    return detect_arrays(points, [len(points)], grid, tol)


def members_of(det, f):
    """The member indices of formation f of det."""
    return det.members[det.bounds[f]:det.bounds[f + 1]]


def overlapping_pairs(det, grid):
    """The formation pairs (i, j), i < j, whose hulls overlap, in the order of
    the simulator's commit check."""
    f, g = np.triu_indices(len(det.state), 1)
    hit = overlapping(det, f, g, grid)
    return list(zip(f[hit].tolist(), g[hit].tolist()))


# --- parameter derivation ---------------------------------------------------------

def test_derive_params_span_choice():
    pts7 = symmetric_pattern(7, 3, seed=77) if False else None
    # span follows min(2*pi/s, pi/3): check on real plans
    p1 = build_plan(random_connected_pattern(8, seed=1)).grid
    assert p1.span == pytest.approx(math.pi / 3)
    p4 = build_plan(symmetric_pattern(4, 3, seed=2)).grid
    assert p4.span == pytest.approx(math.pi / 3)  # 2*pi/4 > pi/3
    p6 = build_plan(symmetric_pattern(6, 3, seed=3)).grid
    assert p6.span == pytest.approx(2 * math.pi / 6)


def test_derive_params_epsilon_formula():
    pts = random_connected_pattern(12, seed=5)
    plan = build_plan(pts)
    base = min(1.0, mindist(normalize(pts)), 1.0 / math.sqrt(12))
    assert plan.grid.epsilon == pytest.approx(plan.c * base)
    assert plan.grid.epsilon < plan.grid.delta / 3
    assert plan.grid.delta == 0.1


def test_derive_params_star_branch():
    from corpus import ngon

    plan = build_plan(ngon(14, 2.0))
    assert plan.branch == "star" and plan.s_p == 14
    assert plan.grid is None and plan.c is None


@pytest.mark.parametrize("c", [0.0, -0.01, math.nan, math.inf])
def test_build_plan_rejects_c_that_is_not_positive_and_finite(c):
    for pts in (random_connected_pattern(8, seed=3), ngon(8, 0.6)):
        with pytest.raises(ValueError, match="^c must be a positive finite number"):
            build_plan(pts, c)


def test_plan_capacity_invariants():
    pts = random_connected_pattern(15, seed=8)
    plan = build_plan(pts)
    assert plan.grid.locations >= 15 // plan.s_p + 2
    from swarmdraw.formation import count_states

    assert count_states(plan.grid, 3) >= len(plan.path.vertices) - plan.path.tail_start


@pytest.mark.parametrize("pts, attempts", [(symmetric_pattern(3, 3, seed=2003), 2),
                                           (random_connected_pattern(100, seed=11), 1)],
                         ids=["sym-3x3", "random-100"])
def test_plan_builds_one_grid_per_attempted_epsilon(pts, attempts, monkeypatch):
    """Every epsilon the planner tries gets one grid, built by grid_spec and
    passed on; sym-3x3 is rejected at its first epsilon and planned at the
    second."""
    calls = []
    inner = formation.grid_spec

    def counting(delta, epsilon, span):
        calls.append(epsilon)
        return inner(delta, epsilon, span)

    for name, module in list(sys.modules.items()):
        if name.startswith("swarmdraw") and getattr(module, "grid_spec", None) is inner:
            monkeypatch.setattr(module, "grid_spec", counting)
    monkeypatch.setattr(protocol, "_PLAN_CACHE", {})
    plan = build_plan(pts)
    assert plan.branch == "draw"
    assert len(calls) == len(set(calls)) == attempts
    assert calls[-1] == plan.grid.epsilon


@pytest.mark.parametrize("pts", [np.array([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0]]),
                                 np.array([[0.3 * k, 0.0] for k in range(5)]),
                                 np.vstack([ngon(5, 0.5), np.zeros((1, 2))])],
                         ids=["line-3", "line-5", "pentagon-and-centre"])
def test_patterns_with_a_point_at_the_centre_form(pts):
    """A pattern point at the centre of the smallest enclosing circle lies in
    the one component of a symmetricity-1 pattern: the plan builds, and runs
    form from its initial cluster and from near-gatherings."""
    plan = build_plan(pts)
    assert plan.branch == "draw"
    for seed in range(4):
        for start in (plan.initial, near_gathering(plan.n, seed)):
            trace = run_fsync(start, plan, SimConfig(seed=seed, max_rounds=plan.hops + 5))
            assert trace.verdict == "formed", seed
            assert trace.total_rounds <= plan.hops + 3, seed


def test_failed_plan_reports_the_last_path_error():
    """Halving epsilon past the grid's delta/epsilon limit only raises the
    ratio, so the planner stops there and reports why the paths failed."""
    pts = np.array([[0.0, 0.0], [0.05, 0.0], [0.05, 0.06], [0.0, 0.07]])
    with pytest.raises(PlanError, match="no path ending found with exactly three "
                                        "coordinates in reach$"):
        build_plan(pts)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def test_plans_equal_the_recorded_plans(corpus_plans):
    """Epsilon, path vertices, labels, move tables, initial cluster and
    centroid-centred snapshots of the drawing corpus plans and an n = 100
    plan, bit for bit: the epsilon exactly, the arrays by SHA-256 digests of
    their float64 bytes (tests/plan_digests.json)."""
    recorded = json.loads((Path(__file__).parent / "plan_digests.json").read_text())
    plans = corpus_plans + [("random-100", build_plan(random_connected_pattern(100, seed=11)))]
    assert sorted(name for name, _ in plans) == sorted(recorded)
    for name, plan in plans:
        got = [plan.grid.epsilon, _digest(plan.path.vertices),
               _digest(np.array(plan.path.labels, dtype=float)), _digest(*plan.moves),
               _digest(plan.initial), _digest(plan.snapshot_centered)]
        assert got == recorded[name], name


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
    det = detect_one(initial, plan.grid)
    assert len(det.state) == 1
    assert (det.bounds[1], det.state[0]) == plan.path.labels[0] == (9, 1)
    assert np.allclose(det.anchor[0], from_polar(2 * plan.grid.delta, math.pi), atol=1e-12)
    assert np.allclose(det.heading[0], [1.0, 0.0], atol=1e-12)


def test_initial_pattern_sym4():
    pts = symmetric_pattern(4, 3, seed=6)
    plan = build_plan(pts)
    initial = plan.initial
    assert len(initial) == 12
    d = np.sqrt(((initial[:, None] - initial[None, :]) ** 2).sum(-1))
    assert d.max() <= 1.0 + 1e-9
    det = detect_one(initial, plan.grid)
    assert len(det.state) == 4
    assert (np.diff(det.bounds) == 3).all() and (det.state == 1).all()


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
    members = at_pose(state_by_index(plan.grid, 5, 3).local, (2.0, 1.0), (0.0, 1.0))
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


def _own_formation_full_view(pts, grid, tol):
    """Reference for _own_formations on one view: detection over the whole view.
    Returns ((det, f) of the robot's one formation, or None; conflicted)."""
    det = detect_one(pts, grid, tol)
    mine = [f for f in range(len(det.state)) if 0 in members_of(det, f)]
    if len(mine) != 1:
        return None, bool(mine)
    others = [g for g in range(len(det.state)) if g != mine[0]]
    if overlapping(det, [mine[0]] * len(others), others, grid).any():
        return None, True
    return (det, mine[0]), False


def _window_agrees(pts, grid, tol=TAU_GEOM) -> tuple[bool, bool, bool]:
    """Assert _own_formations equals the full-view reference on one view;
    return (found, conflicted, whether the window left points out)."""
    det, own, conflicted = _own_formations(pts, [len(pts)], grid, tol)
    want, want_conflicted = _own_formation_full_view(pts, grid, tol)
    assert conflicted[0] == want_conflicted
    assert (own[0] < 0) == (want is None)
    window = 4 * (grid.delta + tol)
    if want is not None:
        f, (full, g) = own[0], want
        near = np.flatnonzero(np.hypot(*pts.T) <= window)
        assert np.array_equal(near[members_of(det, f)], members_of(full, g))
        assert det.state[f] == full.state[g]
        assert np.array_equal(det.anchor[f], full.anchor[g])
        assert np.array_equal(det.heading[f], full.heading[g])
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
    eps = plan.grid.epsilon
    cfg = SimConfig(seed=4, max_rounds=plan.hops + 6,
                    noise_mu=eps / (20 * plan.hops) if noisy else 0.0)
    trace = run_fsync(plan.initial, plan, cfg)
    assert trace.verdict == "formed"
    return plan, [view for rec in trace.rounds
                  for view in split_views(*make_local_views(rec.positions, rec.round, cfg))]


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_own_formation_window_matches_full_view(case):
    """Every robot's view in every round of a run, at the noiseless detection
    tolerance and at the noisy cap 0.45*epsilon."""
    plan, views = _run_views(case)
    eps = plan.grid.epsilon
    seen = set()
    for pts_i in views:
        for tol in (TAU_GEOM, 0.45 * eps):
            found, _, cut = _window_agrees(pts_i, plan.grid, tol)
            seen.add((found, cut))
    # Members were found, and views were cut by the window, both ways round.
    assert {(True, True), (False, True)} <= seen


_STAR_CASES = {"ngon-14x2": (ngon(14, 2.0), 21), "ring2-20": (two_ring(20, 3.0, 2.4), 8)}


@lru_cache(maxsize=None)
def _star_run_views(case):
    """(plan, every robot's view in every round) of a star run from the scaled
    start and of one from a near-gathering."""
    pts, seed = _STAR_CASES[case]
    plan = build_plan(pts)
    cfg = SimConfig(seed=3, max_rounds=plan.star.rounds_bound)
    views = []
    for initial in (plan.star.kappa0 * plan.pattern, near_gathering(plan.n, seed=seed)):
        trace = run_fsync(initial, plan, cfg)
        assert trace.verdict == "formed"
        views += [view for rec in trace.rounds
                  for view in split_views(*make_local_views(rec.positions, rec.round, cfg))]
    return plan, views


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES) + sorted(_STAR_CASES))
def test_robot_decisions_equal_one_view_at_a_time(case):
    """All of a run's views, and a near-gathering's, decided in one call give each
    robot the phase, events and target bytes of its own one-view call: on the
    drawing branch at the noiseless detection tolerance, at the noisy cap
    0.45*epsilon, and at the noisy tolerances of run_fsync with the D(t) list
    as snapshot tolerance; on the scaling branch at two fitting tolerances."""
    star = case in _STAR_CASES
    plan, views = _star_run_views(case) if star else _run_views(case)
    gathering = split_views(*make_local_views(near_gathering(plan.n, seed=1), 0, SimConfig(seed=4)))
    views = gathering[:3] + views + gathering[3:]
    phases = set()
    if star:
        tols = [(TAU_GEOM, None), (1e-5, None)]
    else:
        tols = [(TAU_GEOM, None), (0.45 * plan.grid.epsilon, None),
                noisy_tolerances(plan, plan.grid.epsilon / (20 * plan.hops))]
    for tol, snapshot_tol in tols:
        got_all = robot_decisions(*join_views(views), plan, tol, snapshot_tol)
        for view, got in zip(views, got_all, strict=True):
            want = robot_decision(view, plan, tol, snapshot_tol)
            assert (got.phase, got.events) == (want.phase, want.events)
            assert got.target.tobytes() == want.target.tobytes()
            phases.add(got.phase)
    assert phases == ({Phase.STAR, Phase.INITIAL} if star else set(Phase) - {Phase.STAR})


def _find_intermediate_full_view(pts, plan, tol):
    """Reference for _find_intermediate: every view point tried as r1."""
    eps = plan.grid.epsilon
    tol = min(tol, eps / 16.0)
    targets = plan.ending
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
    run, at the detection tolerance and at the noisy cap (clipped to epsilon/16),
    and the ending screen keeps every view that decodes a triple.  The ending
    triple sees no other robot in these runs, so each view that decodes one is
    also tried with robots added around it: six at 3*epsilon and 0.5, outside
    the window but not near the triple, and ten scattered within 4*epsilon."""
    plan, views = _run_views(case)
    eps = plan.grid.epsilon
    window = 1.5 * eps + 2 * min(0.45 * eps, eps / 16.0)
    ring = np.array([from_polar(r, k * math.pi / 3 + 0.1)
                     for r in (3 * eps, 0.5) for k in range(3)])
    rng = np.random.default_rng(0)
    seen = set()

    def agree(pts_i, tol):
        want = _find_intermediate_full_view(pts_i, plan, tol)
        assert _find_intermediate(pts_i, plan, tol) == want
        assert want is None or _ending_screen(pts_i, [len(pts_i)], plan, tol).tolist() == [True]
        seen.add((want is not None, bool((np.hypot(*pts_i.T) > window).any())))
        return want is not None

    for pts_i in views:
        for tol in (TAU_GEOM, 0.45 * eps):
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
    grid = grid_spec(0.1, 0.01, math.pi / 3)
    spec = state_by_index(grid, 3, 2)
    pts1 = at_pose(spec.local, (0.0, 0.0))
    pts2 = at_pose(spec.local, (0.13, 0.12), (-0.735, -0.678))
    far = np.array([[-0.5, 0.3], [0.6, -0.4], [0.1, 0.9]])
    positions = np.vstack([pts1, pts2, far])
    conflicts = 0
    for i in range(len(positions)):
        pts_i = np.vstack([positions[i], np.delete(positions, i, axis=0)]) - positions[i]
        _, conflicted, cut = _window_agrees(pts_i, grid)
        assert cut
        conflicts += conflicted
    assert conflicts == len(pts1) + len(pts2)


def test_own_formation_and_commit_check_share_the_overlap_cutoff():
    """Two facing formations anchored 2*delta + 5e-10 apart: their padded hulls
    touch, the commit check reports the overlap, and so does every member."""
    grid = grid_spec(0.1, 0.01, math.pi / 3)
    spec = state_by_index(grid, 3, 1)
    pts1 = at_pose(spec.local, (0.0, 0.0))
    pts2 = at_pose(spec.local, (0.2 + 5e-10, 0.0), (-1.0, 0.0))
    positions = np.vstack([pts1, pts2])
    det = detect_one(positions, grid)
    assert len(det.state) == 2 and overlapping_pairs(det, grid) == [(0, 1)]
    for i in range(len(positions)):
        _, own, conflicted = _own_formations(positions - positions[i], [len(positions)], grid,
                                             TAU_GEOM)
        assert (own[0], conflicted[0]) == (-1, True)


# --- snapshot screen -----------------------------------------------------------------

def _screen_reference(radii, plan, tol):
    """Reference for the snapshot screen of _centered_fits: one allclose per snapshot."""
    tols = itertools.repeat(tol) if np.isscalar(tol) else tol
    return [t for t, (sradii, tol_t) in enumerate(zip(plan.snapshot_radii, tols))
            if len(sradii) == len(radii)
            and np.allclose(radii, sradii, atol=2 * tol_t + 1e-12, rtol=0)]


def _classified_rounds(monkeypatch, plan, mu):
    """(views, snapshot tolerance) of every round that a run from a
    near-gathering classifies, at noise mu."""
    calls = []
    real = protocol._initial_views

    def record(pts, sizes, plan_, tol):
        calls.append((split_views(pts, sizes), tol))
        return real(pts, sizes, plan_, tol)

    monkeypatch.setattr(protocol, "_initial_views", record)
    run_fsync(near_gathering(plan.n, seed=3), plan,
              SimConfig(seed=4, max_rounds=plan.hops + 4, noise_mu=mu))
    monkeypatch.setattr(protocol, "_initial_views", real)
    return calls


@pytest.mark.parametrize("noisy", [False, True], ids=["scalar-tol", "per-snapshot-tol"])
def test_snapshot_screen_equals_allclose_loop(monkeypatch, noisy):
    """Every full view that a run from a near-gathering classifies: the screen
    keeps exactly the snapshots the per-snapshot loop keeps, at the tolerance
    run_fsync passes (one value without noise, one per snapshot under noise)."""
    for name, pts in (("random-10", random_connected_pattern(10, seed=7)),
                      ("sym-3x4", symmetric_pattern(3, 4, seed=2004))):
        plan = build_plan(pts)
        count = len(plan.snapshot_ids)
        mu = plan.grid.epsilon / (20 * plan.hops) if noisy else 0.0
        kept = set()
        for views, tol in _classified_rounds(monkeypatch, plan, mu):
            assert (np.isscalar(tol) and not noisy) or len(tol) == count
            tols = np.broadcast_to(np.asarray(tol, dtype=float), (count,))
            for view_pts in views:
                if len(view_pts) != plan.n:
                    continue
                centered = view_pts - view_pts.mean(axis=0)
                radii = np.sort(np.hypot(*centered.T))
                _, screened = _screen_pairs(radii[None], plan.snapshot_radii[None], tols[None])
                got = np.flatnonzero(screened[0]).tolist()
                assert got == _screen_reference(radii, plan, tol)
                kept.add(bool(got))
        # Views the screen rejected outright, and views it kept snapshots for.
        assert kept == {False, True}, name


def _sequential_fits(view, plan, tol):
    """Reference for the full-view fits of _initial_views: snapshots and
    candidate rotations tried one at a time, up to the first fit.  Returns
    (matched, candidates tried)."""
    a = view - view.mean(axis=0)
    ra = np.hypot(*a.T)
    tried = 0
    for t, b in enumerate(plan.snapshot_centered):
        tol_t = tol if np.isscalar(tol) else tol[t]
        rb = np.hypot(*b.T)
        if np.abs(np.sort(ra) - np.sort(rb)).max() > 2 * tol_t + 1e-12:
            continue
        if ra.max() <= tol_t:
            return True, tried
        ext = int(np.lexsort((a[:, 1], a[:, 0], ra))[-1])
        for j in np.nonzero(np.abs(rb - ra[ext]) <= 2 * tol_t + 1e-12)[0]:
            tried += 1
            theta = math.atan2(a[ext, 1], a[ext, 0]) - math.atan2(b[j, 1], b[j, 0])
            if match_points(a, rotate(b, theta), tol_t)[0] is not None:
                return True, tried
    return False, tried


def test_staged_fits_try_no_more_candidates_than_the_sequential_loop(monkeypatch):
    """A noisy run from a near-gathering, whose D(t) tolerances let many
    (view, snapshot, rotation) candidates through the screen: the staged fits
    of every round classify each full view as the sequential loop does, and
    fit no more candidates than it tries, counted as the rotated templates
    that ``protocol._rotated`` forms.  The count must be positive: a staged
    pass that stopped rotating through ``_rotated`` would count nothing."""
    plan = build_plan(random_connected_pattern(10, seed=7))
    rounds = _classified_rounds(monkeypatch, plan, plan.grid.epsilon / (20 * plan.hops))
    staged = [0]
    real = protocol._rotated

    def counted(templates, thetas):
        staged[0] += len(thetas)
        return real(templates, thetas)

    sequential = 0
    for views, tol in rounds:
        want = []
        for i, view in enumerate(views):
            if len(view) != plan.n:
                continue
            matched, tried = _sequential_fits(view, plan, tol)
            sequential += tried
            if not matched and pairwise_distances(view).max() <= 1.0 + TAU_GEOM:
                want.append(i)
        monkeypatch.setattr(protocol, "_rotated", counted)
        assert _initial_views(*join_views(views), plan, tol).tolist() == want
        monkeypatch.setattr(protocol, "_rotated", real)
    assert sequential > 3 * plan.n
    assert 0 < staged[0] <= sequential


def dense_centered_fits(a, b, b_radii, tol) -> list:
    """Reference for ``protocol._centered_fits``: the same waves and candidates,
    with every candidate's nearest template points from one dense
    ``nearest_in_sets`` pass over all n*n distances, 2**15 at most per chunk."""
    sets, n = a.shape[:2]
    b, b_radii, tol = (np.broadcast_to(x, (sets,) + x.shape[-k:])
                       for x, k in ((b, 3), (b_radii, 2), (tol, 1)))
    ra = np.hypot(a[..., 0], a[..., 1])
    gap, kept = _screen_pairs(np.sort(ra, axis=1), b_radii, tol)
    v, t = np.nonzero(kept)
    fits = [None] * sets
    if not len(v):
        return fits
    ext = protocol._farthest(a, ra)
    ang = [math.atan2(y, x) for x, y in a[np.arange(sets), ext].tolist()]
    once = (ra.max(axis=1)[v] <= tol[v, t]) | (n == 1)
    near = (np.abs(np.hypot(b[v, t, :, 0], b[v, t, :, 1]) - ra[v, ext[v], None])
            <= 2 * tol[v, t, None] + 1e-12)
    near[once] = np.arange(n) == 0
    p, j = np.nonzero(near)
    owner = v[p]
    rank = np.arange(len(p)) - np.searchsorted(owner, owner)
    todo, matched = np.lexsort((owner, rank)), np.zeros(sets, dtype=bool)
    chunk = max(2 ** 15 // (n * n), 1)
    while len(todo):
        cut = np.searchsorted(rank[todo], rank[todo[0]], side="right")
        w, todo = todo[:cut], todo[cut:]
        for q in w[once[p[w]]].tolist():
            fits[owner[q]] = (0.0, np.arange(n), float(gap[owner[q], t[p[q]]]))
        w = w[~once[p[w]]]
        for k in range(0, len(w), chunk):
            c = w[k:k + chunk]
            cv, ct = owner[c], t[p[c]]
            thetas = [ang[i] - math.atan2(y, x)
                      for i, (x, y) in zip(cv.tolist(), b[cv, ct, j[c]].tolist())]
            rotated = np.matmul(b[cv, ct], np.stack([rotation_matrix(th).T for th in thetas]))
            dd, idx = (x.reshape(-1, n) for x in protocol.nearest_in_sets(
                a[cv].reshape(-1, 2), rotated, np.repeat(np.arange(len(c)), n), np.full(len(c), n)))
            srt = np.sort(idx, axis=1)
            for q in np.flatnonzero(dd.max(axis=1) <= tol[cv, ct]).tolist():
                perm, err = ((idx[q], float(dd[q].max())) if (srt[q, 1:] != srt[q, :-1]).all()
                             else match_points(a[cv[q]], rotated[q], tol[cv[q], ct[q]]))
                if perm is not None:
                    fits[cv[q]] = (thetas[q], perm, err)
        matched[[o for o, fit in enumerate(fits) if fit is not None]] = True
        todo = todo[~matched[owner[todo]]]
    return fits


def assert_same_fits(got, want):
    """Fits of ``_centered_fits`` equal bit for bit: None, or theta, perm and err."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g[0] == w[0] and g[2] == w[2]
            assert g[1].dtype == w[1].dtype and np.array_equal(g[1], w[1])


def test_full_view_fits_take_bands_for_generic_radii_and_the_dense_pass_for_ngons(monkeypatch):
    """Turned, permuted copies of a generic n = 100 set, as in a drawing run's
    near-gathering snapshots, fit through radius bands with no dense
    nearest-neighbour call; those of a 40-gon, whose radii all tie, keep the
    dense pass.  Both equal the dense loop."""
    calls = [0]
    real = protocol.nearest_in_sets

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(protocol, "nearest_in_sets", counted)
    rng = np.random.default_rng(5)
    for base, dense in ((0.04 * rng.uniform(-1, 1, size=(100, 2)), False), (ngon(40, 0.3), True)):
        base = base - base.mean(axis=0)
        a = np.stack([rotate(base, rng.uniform(0, 2 * math.pi))[rng.permutation(len(base))]
                      for _ in range(8)])
        a[:, 0] += 1e-8         # a pair of points of each copy moves by 1.4e-8
        a[:, 1] -= 1e-8
        radii = np.sort(np.hypot(base[:, 0], base[:, 1]))[None]
        tol = np.array([1e-7])
        calls[0] = 0
        got = protocol._centered_fits(a, base[None], radii, tol)
        assert (calls[0] > 0) == dense
        assert all(fit is not None for fit in got)
        assert_same_fits(got, dense_centered_fits(a, base[None], radii, tol))


# --- formation moves from the plan's tables ------------------------------------------

def _move_reference(view_pts, plan, det, f):
    """Reference for the move tables: formation f's targets built in the view
    frame, and members matched to targets by their lexicographic order in the
    hull frame at TAU_GEOM resolution.  Returns the origin robot's target."""
    path = plan.path
    anchor, d = det.anchor[f], unit(det.heading[f])
    members = members_of(det, f).tolist()
    vi = path.labels.index((len(members), int(det.state[f])))
    v = path.vertices[vi]
    basis = np.array([d, [-d[1], d[0]]])

    def to_view(q):
        return (np.atleast_2d(q) - v) @ basis + anchor

    if vi == len(path.vertices) - 1:
        targets = to_view(intermediate_targets(plan))
    else:
        move = to_view(path.vertices[vi + 1])[0] - anchor
        drops = path.pattern[list(path.coverage[vi])] if vi < path.tail_start else []
        targets = np.vstack([at_pose(state_by_index(plan.grid, *path.labels[vi + 1]).local,
                                     anchor + move, d),
                             to_view(drops) if len(drops) else np.zeros((0, 2))])
    assert len(targets) == len(members)

    def order(points):
        loc = np.round(hull_frame(points, anchor, d) / TAU_GEOM) * TAU_GEOM
        return np.lexsort((loc[:, 1], loc[:, 0]))

    out = np.empty_like(targets)
    out[order(view_pts[members])] = targets[order(targets)]
    return out[members.index(0)]


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
        eps = plan.grid.epsilon
        last = len(path.vertices) - 1
        drop = next((i for i in range(path.tail_start) if path.coverage[i]), 0)
        for vi in sorted({0, drop, path.tail_start, last}):
            rec = plan.schedule[vi]
            members = np.nonzero([r is Phase.FORMATION for r in rec.roles])[0]
            for i in rng.choice(members, size=min(len(members), 4), replace=False):
                for tol in (TAU_GEOM, 0.1 * eps):
                    positions = rec.positions
                    if tol > TAU_GEOM:
                        radius = tol / (4 * (1 + plan.grid.delta / eps))
                        positions = positions + _disc_jitter(rng, len(positions), radius)
                    theta = float(rng.uniform(0, 2 * math.pi))
                    view = view_from_global(positions, i, theta)
                    dec = robot_decision(view, plan, tol=tol)
                    assert dec.phase is Phase.FORMATION, (name, vi)
                    det = detect_one(view, plan.grid, tol)
                    f = next(f for f in range(len(det.state)) if 0 in members_of(det, f))
                    want = _move_reference(view, plan, det, f)
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
    targets = np.empty_like(plan.initial)
    for i, view in enumerate(fixed_frame_views(plan.initial)):
        targets[i] = plan.initial[i] + robot_decision(view, plan=plan).target
    det = detect_one(targets, plan.grid)
    assert len(det.state) == plan.s_p
    size1, idx1 = path.labels[1]
    f = min(range(len(det.state)), key=lambda f: dist(det.anchor[f], path.vertices[1]))
    assert np.diff(det.bounds)[f] == size1 and det.state[f] == idx1
    assert dist(det.anchor[f], path.vertices[1]) <= 1e-9


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
    view = fixed_frame_views(positions)[0]
    dists = np.hypot(*view[1:].T)
    assert len(view[1:]) == 2  # 0.5 and exactly 1.0; 1.5 is out of range
    assert dists.max() <= 1.0 + 1e-9


def test_near_gathering_assignment_forms_initial_pattern():
    pts = random_connected_pattern(8, seed=18)
    plan = build_plan(pts)
    config = near_gathering(8, seed=9)
    targets = np.empty_like(config)
    for i, view in enumerate(fixed_frame_views(config)):
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
    targets = np.empty_like(config)
    for i, view in enumerate(fixed_frame_views(config)):
        targets[i] = config[i] + robot_decision(view, plan=plan).target
    from swarmdraw.protocol import fit_isometry

    assert fit_isometry(targets, plan.initial, 1e-7) is not None
    # No collisions despite the enforced symmetry.
    d = np.sqrt(((targets[:, None] - targets[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-6


@pytest.mark.parametrize("s, m, seed", [(3, 3, 19), (6, 2, 4)], ids=["sym-3x3", "sym-6x2"])
def test_symmetric_near_gatherings_form(s, m, seed):
    """Whole runs from three s-fold symmetric near-gatherings, built as in
    test_symmetric_near_gathering_assignment_respects_orbits, at two frame
    seeds: the drawing branch (sym-3x3) forms within hops + 3 rounds, the
    scaling branch (sym-6x2) within 3."""
    plan = build_plan(symmetric_pattern(s, m, seed=seed))
    bound = plan.hops + 3 if plan.branch == "draw" else 3
    rng = np.random.default_rng(10)
    for start in range(3):
        seeds = rng.uniform(-0.15, 0.15, (m, 2)) + np.array([0.25, 0.1])
        config = np.vstack([rotate(seeds, k * 2 * math.pi / s) for k in range(s)])
        assert symmetricity(config).sym == s
        for frame_seed in (0, 1):
            trace = run_fsync(config, plan, SimConfig(seed=frame_seed, max_rounds=bound + 2))
            assert trace.verdict == "formed", (start, frame_seed)
            assert trace.total_rounds <= bound, (start, frame_seed)


def test_nudged_initial_cluster_forms():
    """The initial cluster of sym-3x4 with one robot nudged by (2e-4, -1e-4)
    is a near-gathering that fits no snapshot, so every robot takes the
    initial phase in round 0, and the run forms within hops + 3 rounds (16 at
    frame seed 1).  A rule that trusted a formation detected in such a view
    would set its formation robots moving while the others reassign."""
    plan = build_plan(symmetric_pattern(3, 4, seed=2004))
    start = plan.initial.copy()
    start[10] += (2e-4, -1e-4)
    trace = run_fsync(start, plan, SimConfig(seed=1, max_rounds=plan.hops + 5))
    assert trace.verdict == "formed"
    assert trace.total_rounds <= plan.hops + 3


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
            outcomes[_assignment_agrees(view, 0, plan)] += 1

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
        assert plan.s_p == s_p and plan.n % 3 == 0
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


def test_drawing_run_recomputes_no_pattern_values(monkeypatch):
    """Drawing runs, from the initial cluster and from a near-gathering, read
    the ending triple from the plan: they make no intermediate_targets call."""
    plan = build_plan(random_connected_pattern(10, seed=14))
    calls = [0]

    def counted(*args, _real=protocol.intermediate_targets):
        calls[0] += 1
        return _real(*args)

    monkeypatch.setattr(protocol, "intermediate_targets", counted)
    for start in (plan.initial, near_gathering(plan.n, seed=3)):
        trace = run_fsync(start, plan, SimConfig(seed=2, max_rounds=plan.hops + 4))
        assert trace.verdict == "formed"
    assert calls == [0]


def test_gathered_runs_take_one_enclosing_circle_per_assignment(monkeypatch):
    """A gathered star run, a gathered drawing run and a 6-fold symmetric
    gathered star run: each round's near-gathering views pass through one
    ``enclosing_centers`` call, one row per robot in all, and Welzl's loop
    runs only on the symmetric views, whose cocircular hexagon takes the
    fallback.  The slot orbits come from the plan, so no rotation_orbits call
    is made on the slots."""
    import swarmdraw.geometry as geometry
    import swarmdraw.pathing as pathing
    import swarmdraw.symmetry as symmetry

    seeds = np.random.default_rng(10).uniform(-0.15, 0.15, (2, 2)) + np.array([0.25, 0.1])
    hexagonal = np.vstack([rotate(seeds, k * math.pi / 3) for k in range(6)])
    runs = [(build_plan(ngon(14, 2.0)), near_gathering(14, seed=21), False),
            (build_plan(random_connected_pattern(8, seed=18)), near_gathering(8, seed=9), False),
            (build_plan(symmetric_pattern(6, 2, seed=4)), hexagonal, True)]
    calls = Counter()

    def counted(name, real, rows=False):
        def wrapper(*args, **kwargs):
            calls[name] += len(args[0]) if rows else 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(protocol, "enclosing_centers",
                        counted("rows", geometry.enclosing_centers, rows=True))
    monkeypatch.setattr(protocol, "rotation_orbits", counted("slot orbits", protocol.rotation_orbits))
    sec = counted("sec", geometry.smallest_enclosing_circle)
    for module in (geometry, symmetry, pathing):
        monkeypatch.setattr(module, "smallest_enclosing_circle", sec)
    for plan, config, fallback in runs:
        calls.clear()
        rounds = plan.star.rounds_bound if plan.star is not None else plan.hops + 3
        trace = run_fsync(config, plan, SimConfig(seed=3, max_rounds=rounds))
        assert trace.verdict == "formed"
        assert calls == Counter(rows=plan.n, sec=plan.n if fallback else 0), plan.branch


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
    """The complex least-squares pose kappa*exp(i*theta) of matched offsets."""
    o = offs[match][:, 0] + 1j * offs[match][:, 1]
    w = observed[:, 0] + 1j * observed[:, 1]
    return np.vdot(o, w) / np.vdot(o, o)


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
    for q, offs, norms in star.rings:
        for j in range(len(norms[:8])):
            kappa0 = float(np.hypot(*nearest) / norms[j])
            if not 1e-6 <= kappa0 <= 1.0 + 1e-9:
                continue
            theta0 = math.atan2(nearest[1], nearest[0]) - math.atan2(offs[j][1], offs[j][0])
            tol_r = max(tol, 1e-6)
            match = kdtree_star_match(me_neighbors, offs, norms, kappa0, theta0,
                                      max(0.3 * kappa0 * star.mindist, tol_r))
            if match is None:
                continue
            z = least_squares_pose(me_neighbors, offs, match)
            kappa, theta = abs(z), math.atan2(z.imag, z.real)
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


@pytest.mark.parametrize("case", sorted(_STAR_CASES))
def test_star_local_fits_equal_refining_every_candidate(monkeypatch, case):
    """Every local view of a scaled and a gathered run, fitted in one batched
    call: the screened, tree-free fits equal the reference bit for bit, and
    the coarse matches accept about one candidate per view."""
    import swarmdraw.protocol as protocol

    plan, views = _star_run_views(case)
    views = [view for view in views if len(view) != plan.n]
    matches = [0, 0]        # coarse calls, candidates they accept
    star_match = protocol._star_match

    def counted(*args):
        ok, idx = star_match(*args)
        if not np.all(args[-1] == 1e-6):        # the verifying match runs at the tolerance
            matches[0] += 1
            matches[1] += int(ok.sum())
        return ok, idx

    monkeypatch.setattr(protocol, "_star_match", counted)
    assert len(views) > 3 * plan.n
    tol = 1e-7      # the fitting tolerance of a noiseless run
    for view_pts, got in zip(views, _star_local_fits(*join_views(views), plan.star, tol),
                             strict=True):
        want = _refine_every_candidate(view_pts, plan, tol)
        assert len(got) == len(want)
        for (k1, c1), (k2, c2) in zip(got, want):
            assert k1 == k2 and np.array_equal(c1, c2)
    # The reference refines 8 candidates per orbit.  After the distance-profile
    # pre-check 3.0 (n-gon) and 5.7 (two-ring) per view were left; the coarse
    # match accepts exactly one per view on both.
    assert matches[0] > 0 and matches[1] <= 1.2 * len(views)
