import math

import numpy as np
import pytest

from swarmdraw.geometry import dist, from_polar, mindist, rotate, rotation_matrix
from swarmdraw.symmetry import Pattern, normalize, symmetricity
from swarmdraw.formation import detect_formations
from swarmdraw.protocol import (
    DEFAULT_C,
    LocalView,
    Phase,
    build_plan,
    classify_phase,
    intermediate_targets,
    robot_decision,
)
from swarmdraw.simulator import SimConfig, make_local_view, run_fsync

from corpus import near_gathering, random_connected_pattern, symmetric_pattern


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
    base = min(1.0, mindist(normalize(Pattern(pts)).points), 1.0 / math.sqrt(12))
    assert params.epsilon == pytest.approx(params.c * base)
    assert params.epsilon < params.delta / 3
    assert params.delta == 0.1


def test_derive_params_star_branch():
    from corpus import ngon

    params = build_plan(ngon(14, 2.0)).params
    assert params.branch == "star" and params.s_p == 14


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
    assert np.allclose(initial, plan.initial)


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
        info = symmetricity(normalize(Pattern(plan.initial)))
        assert info.sym == s


# --- phase classification ---------------------------------------------------------

def test_classify_dropped_robot():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    # A robot alone on a pattern coordinate with one far neighbor.
    positions = np.array([[0.0, 0.0], [0.9, 0.0]])
    view = view_from_global(positions, 0)
    assert classify_phase(view, plan) is Phase.DROPPED


def test_classify_formation_member():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    from swarmdraw.formation import DrawingHull, state_by_index

    hull = DrawingHull(np.array([2.0, 1.0]), np.array([0.0, 1.0]),
                       plan.params.span, plan.params.delta)
    members = state_by_index(plan.grid, 5, 3).points(hull)
    view = view_from_global(members, 2, theta=0.7)
    assert classify_phase(view, plan) is Phase.FORMATION


def test_classify_intermediate_triple():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    shape = intermediate_targets(plan)
    view = view_from_global(shape, 1, theta=1.3)
    assert classify_phase(view, plan) is Phase.INTERMEDIATE


def test_classify_initial_near_gathering():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    config = near_gathering(10, seed=3)
    view = view_from_global(config, 4)
    assert classify_phase(view, plan) is Phase.INITIAL


def test_classify_initial_pattern_is_not_initial_phase():
    pts = random_connected_pattern(10, seed=14)
    plan = build_plan(pts)
    view = view_from_global(plan.initial, 0)
    assert classify_phase(view, plan) is Phase.FORMATION


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
    for i in range(len(plan.initial)):
        view = make_local_view(plan.initial, i, 0, cfg)
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
    view = make_local_view(positions, 0, 0, cfg)
    dists = np.hypot(*view.neighbors.T)
    assert len(view.neighbors) == 2  # 0.5 and exactly 1.0; 1.5 is out of range
    assert dists.max() <= 1.0 + 1e-9


def test_near_gathering_assignment_forms_initial_pattern():
    pts = random_connected_pattern(8, seed=18)
    plan = build_plan(pts)
    config = near_gathering(8, seed=9)
    cfg = SimConfig(seed=0, frame_mode="fixed")
    targets = np.empty_like(config)
    for i in range(len(config)):
        view = make_local_view(config, i, 0, cfg)
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
    info = symmetricity(normalize(Pattern(config)))
    assert info.sym == 3
    cfg = SimConfig(seed=0, frame_mode="fixed")
    targets = np.empty_like(config)
    for i in range(len(config)):
        view = make_local_view(config, i, 0, cfg)
        targets[i] = config[i] + robot_decision(view, plan=plan).target
    from swarmdraw.protocol import fit_isometry

    assert fit_isometry(targets, plan.initial, 1e-7) is not None
    # No collisions despite the enforced symmetry.
    d = np.sqrt(((targets[:, None] - targets[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-6


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
