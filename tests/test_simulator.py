import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from swarmdraw import geometry, protocol, simulator
from swarmdraw.formation import grid_spec, state_by_index
from swarmdraw.geometry import (TAU_GEOM, mindist, pairwise_distances, rotate,
                                rotation_matrix)
from swarmdraw.protocol import Phase, build_plan, fit_isometry, robot_decision
from swarmdraw.simulator import (
    FORMED_TOL,
    SimConfig,
    SimulationError,
    _commit,
    drift_tolerance,
    _frame_angles,
    ground_truth,
    make_local_views,
    run_fsync,
    verify_pattern,
)

from corpus import (at_pose, main_corpus, near_gathering, ngon, random_connected_pattern,
                    split_views, star_corpus)


@pytest.fixture(scope="module")
def small_plan():
    pts = random_connected_pattern(10, seed=7)
    return build_plan(pts)


def _fixed_frame(n):
    """The cosines and sines of n robots that all share the world's frame."""
    return np.ones(n), np.zeros(n)


def test_view_isolated_robot():
    positions = np.array([[0.0, 0.0], [2.0, 2.0], [3.0, 0.0]])
    view = split_views(*make_local_views(positions, 0, SimConfig(), frame=_fixed_frame(3)))[0]
    assert len(view) == 1


def test_view_includes_boundary_neighbor():
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    view = split_views(*make_local_views(positions, 0, SimConfig(), frame=_fixed_frame(2)))[0]
    assert len(view) == 2


def test_view_rotation_preserves_distances():
    positions = np.vstack([np.zeros(2), np.random.default_rng(0).uniform(-0.5, 0.5, (6, 2))])
    views = [split_views(*make_local_views(positions, 0, SimConfig(seed=s)))[0] for s in (1, 2)]
    d1 = np.sort(np.hypot(*views[0][1:].T))
    d2 = np.sort(np.hypot(*views[1][1:].T))
    assert np.allclose(d1, d2, atol=1e-12)


def _views_reference(positions, angles):
    """Reference for make_local_views, from the definition: each robot's
    neighbours within 1 + TAU_GEOM, rotated by its frame angle, lex-sorted."""
    views = []
    for i in range(len(positions)):
        rel = np.delete(positions, i, axis=0) - positions[i]
        local = rotate(rel[np.hypot(*rel.T) <= 1.0 + TAU_GEOM], angles[i])
        views.append(local[np.lexsort((local[:, 1], local[:, 0]))])
    return views


@pytest.mark.parametrize("seed", range(6))
def test_views_equal_per_robot_reference(seed):
    """Random swarms holding a pair exactly 1 apart (and one just beyond), in
    random and fixed frames.  Row 0 of every view is the robot itself, stored
    as +0.0 bytes whatever the frame, and rows 1.. are in exact (x, y) order.
    Beside them, in the fixed frame: neighbours sharing an x (x = 0 beside
    robot 0), a robot that sees only itself, and a dense grid of rounded points
    (shared x and y, coincident points) whose rows are far longer than the
    sparse ones."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    shared_x = [[0.25, 0.2], [0.25, 0.8], [0.6, 0.1], [0.6, 0.9], [0.6, 0.5], [10.0, 10.0]]
    dense = np.round(rng.uniform(-1.3, -0.9, (30, 2)) * 20) / 20
    positions = np.vstack([[[0.25, 0.5], [1.25, 0.5], [0.25, 1.5 + 2 * TAU_GEOM]],
                           rng.uniform(-1.5, 1.5, (n, 2)), shared_x, dense])
    cfg = SimConfig(seed=seed)
    for fixed in (False, True):
        rnd = int(rng.integers(0, 1000))
        frame = _fixed_frame(len(positions)) if fixed else None
        got = split_views(*make_local_views(positions, rnd, cfg, frame))
        angles = np.zeros(len(positions)) if fixed else _frame_angles(len(positions), rnd, cfg)
        want = _views_reference(positions, angles)
        assert len(got) == len(positions)
        for view, ref in zip(got, want):
            assert view[0].tobytes() == np.zeros(2).tobytes()
            assert view[1:].shape == ref.shape
            assert np.allclose(view[1:], ref, atol=1e-12, rtol=0)
            x, y = view[1:].T
            assert ((x[:-1] < x[1:]) | ((x[:-1] == x[1:]) & (y[:-1] <= y[1:]))).all()
        assert len(got[3 + n + 5]) == 1                 # the robot at (10, 10)
        if fixed:
            assert (got[0][1:, 0] == 0.0).sum() == 2    # (0.25, 0.2) and (0.25, 0.8)
        # The boundary neighbour is seen, the one 2*TAU_GEOM beyond is not.
        assert np.isclose(np.hypot(*got[0][1:].T), 1.0, atol=1e-12).sum() == 1
        pair = _fixed_frame(2) if fixed else None
        assert make_local_views(positions[[0, 2]], rnd, cfg, pair)[1][0] == 1


def test_bench_traces_equal_the_recorded_traces():
    """The seed-0 traces of the three bench workloads, byte for byte, and of
    draw-small and draw-large under movement noise (``trace_digest.py
    --noise``), where the full-view fits meet the D(t) tolerances and the
    match_points fallback, and detection decodes long rows at the noisy
    tolerance:
    the SHA-256 digests of tests/trace_digest.py against
    tests/trace_digests.json.  Like plan_digests.json, they hold on the
    machine that recorded them; a different BLAS or CPU may round the
    rotations otherwise."""
    saved = sys.path[:]
    try:
        import trace_digest
    finally:
        sys.path[:] = saved
    recorded = json.loads((Path(__file__).parent / "trace_digests.json").read_text())
    assert sorted(recorded) == ["draw-large 0", "draw-large 0 noise", "draw-small 0",
                                "draw-small 0 noise", "star 0"]
    for label, want in recorded.items():
        workload, seed, *noise = label.split()
        assert noise in ([], ["noise"]), label
        digest = trace_digest.digest(workload, int(seed), noise=bool(noise))
        assert digest == want, label


def test_frame_angles_are_a_counter_based_hash():
    def angles_of(seed, n, rnd):
        return _frame_angles(n, rnd, SimConfig(seed=seed))

    angles = angles_of(7, 500, 3)
    assert ((0.0 <= angles) & (angles < 2 * math.pi)).all()
    assert np.array_equal(angles, angles_of(7, 500, 3))
    # A robot's angle depends on its index, not on the swarm size.
    assert np.array_equal(angles[:20], angles_of(7, 20, 3))
    assert len(np.unique(angles)) == 500
    for other in (angles_of(7, 500, 4), angles_of(8, 500, 3), angles_of(-7, 500, 3)):
        assert (angles != other).all()
    # Roughly uniform: each eighth of the circle holds about an eighth of them.
    counts = np.bincount((angles_of(1, 8000, 0) / (math.pi / 4)).astype(int), minlength=8)
    assert len(counts) == 8 and (np.abs(counts - 1000) < 150).all()


def test_run_already_formed(small_plan):
    trace = run_fsync(small_plan.pattern, small_plan, SimConfig(seed=0, max_rounds=5))
    assert trace.verdict == "formed" and trace.total_rounds == 0


def test_run_from_initial_pattern(small_plan):
    trace = run_fsync(small_plan.initial, small_plan,
                      SimConfig(seed=0, max_rounds=small_plan.hops + 5))
    assert trace.verdict == "formed"
    assert trace.total_rounds <= small_plan.hops + 2
    assert trace.max_error <= 1e-6
    assert not ground_truth(trace, small_plan)[1]


def test_run_from_near_gathering(small_plan):
    config = near_gathering(10, seed=5)
    trace = run_fsync(config, small_plan,
                      SimConfig(seed=2, max_rounds=small_plan.hops + 6))
    assert trace.verdict == "formed"
    assert trace.total_rounds <= small_plan.hops + 3


def test_seed_replay_identical_positions(small_plan):
    traces = [run_fsync(small_plan.initial, small_plan,
                        SimConfig(seed=s, max_rounds=small_plan.hops + 5))
              for s in (0, 123)]
    assert traces[0].verdict == traces[1].verdict == "formed"
    assert traces[0].total_rounds == traces[1].total_rounds
    for a, b in zip(traces[0].rounds, traces[1].rounds):
        assert np.abs(a.positions - b.positions).max() <= 1e-9


def test_fixed_frame_mode_matches_random(monkeypatch, small_plan):
    """A run in which every robot shares the world's frame moves the robots as
    a run in random private frames does."""
    cfg = SimConfig(seed=0, max_rounds=small_plan.hops + 5)
    t_rand = run_fsync(small_plan.initial, small_plan, cfg)
    monkeypatch.setattr(simulator, "_frame_angles", lambda n, rnd, cfg: np.zeros(n))
    t_fixed = run_fsync(small_plan.initial, small_plan, cfg)
    assert t_fixed.total_rounds == t_rand.total_rounds
    for a, b in zip(t_fixed.rounds, t_rand.rounds):
        assert np.abs(a.positions - b.positions).max() <= 1e-9


def test_displacements_and_collisions(small_plan):
    trace = run_fsync(small_plan.initial, small_plan,
                      SimConfig(seed=0, max_rounds=small_plan.hops + 5))
    for a, b in zip(trace.rounds[:-1], trace.rounds[1:]):
        disp = np.hypot(*(b.positions - a.positions).T)
        assert disp.max() <= 1.0 + 1e-7
        d = np.sqrt(((b.positions[:, None] - b.positions[None, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-9


def test_abort_names_the_robot_that_moves_too_far(small_plan):
    targets = small_plan.initial.copy()
    targets[3] += [0.8, 0.9]
    with pytest.raises(SimulationError, match=r"^robot 3 displacement 1\.204159 "):
        _commit(small_plan.initial, targets, small_plan, SimConfig(), 0)


def test_abort_names_the_colliding_pair(small_plan):
    targets = small_plan.initial.copy()
    targets[5] = targets[2]
    with pytest.raises(SimulationError, match=r"^robots 2 and 5 collided$"):
        _commit(small_plan.initial, targets, small_plan, SimConfig(), 0)


def test_abort_names_the_members_of_overlapping_formations(small_plan):
    """Two overlapping hulls after three robots that belong to no formation:
    the message names robot indices, not positions in the formation list."""
    grid = grid_spec(0.1, 0.01, math.pi / 3)
    spec = state_by_index(grid, 3, 2)
    pts1 = at_pose(spec.local, (0.0, 0.0))
    pts2 = at_pose(spec.local, (0.13, 0.12), (-0.735, -0.678))
    far = np.array([[-0.5, 0.3], [0.6, -0.4], [0.1, 0.9]])
    positions = np.vstack([far, pts1, pts2])
    with pytest.raises(SimulationError,
                       match=r"^overlapping formation hulls: robots \[3, 4, 5\] and \[6, 7, 8\]$"):
        _commit(positions, positions.copy(), replace(small_plan, grid=grid), SimConfig(), 0)


def test_abort_names_every_overlapping_pair_in_formation_order(small_plan):
    """Three formations, the first (robots 3-5) overlapping both others: the
    message lists the pairs (i, j), i < j, of the formations in detection
    order (by anchor), which is not the order of the robot indices."""
    grid = grid_spec(0.1, 0.01, math.pi / 3)
    spec = state_by_index(grid, 3, 2)

    def formation(anchor, direction):
        return at_pose(spec.local, anchor, direction)

    far = np.array([[-0.5, 0.3], [0.6, -0.4], [0.1, 0.9]])
    positions = np.vstack([far, formation([0.0, 0.0], [1.0, 0.0]),
                           formation([0.13, 0.12], [-0.735, -0.678]),
                           formation([0.06, -0.1], [0.49, 0.7])])
    with pytest.raises(SimulationError,
                       match=r"^overlapping formation hulls: robots \[3, 4, 5\] and \[9, 10, 11\]; "
                             r"robots \[3, 4, 5\] and \[6, 7, 8\]$"):
        _commit(positions, positions.copy(), replace(small_plan, grid=grid), SimConfig(), 0)


def test_run_aborts_on_a_move_beyond_the_viewing_range(small_plan, robot_0_out_of_range):
    trace = run_fsync(small_plan.initial, small_plan, SimConfig(seed=0, max_rounds=20))
    assert trace.verdict == "aborted"
    assert trace.total_rounds == 1
    assert trace.max_error == math.inf
    assert len(trace.rounds) == 1
    assert trace.rounds[-1].events[-1] == {
        "error": "robot 0 displacement 2.000000 exceeds the viewing range"}


def test_dropped_robots_never_move(small_plan):
    trace = run_fsync(small_plan.initial, small_plan,
                      SimConfig(seed=0, max_rounds=small_plan.hops + 5))
    n = len(small_plan.pattern)
    for i in range(n):
        dropped_at = None
        for r, rec in enumerate(trace.rounds):
            if rec.phases[i] == "dropped" and dropped_at is None:
                dropped_at = r
            if dropped_at is not None and r > dropped_at:
                assert np.allclose(trace.rounds[dropped_at].positions[i],
                                   rec.positions[i], atol=1e-12)


def test_ground_truth_matches_classification(small_plan):
    trace = run_fsync(small_plan.initial, small_plan,
                      SimConfig(seed=0, max_rounds=small_plan.hops + 5))
    gt_phases, diverged = ground_truth(trace, small_plan)
    assert not diverged and len(gt_phases) == len(trace.rounds)
    for r, rec in enumerate(trace.rounds):
        for i in range(len(rec.phases)):
            gt = gt_phases[r][i]
            assert gt is not None
            assert rec.phases[i] == gt


def test_ground_truth_diverges_from_the_perturbed_round(small_plan):
    """Moving one robot of round k off the reference schedule leaves the
    earlier rounds' phases as they were and diverges the ground truth from
    round k on."""
    trace = run_fsync(small_plan.initial, small_plan,
                      SimConfig(seed=0, max_rounds=small_plan.hops + 5))
    assert trace.verdict == "formed"
    clean, diverged = ground_truth(trace, small_plan)
    assert not diverged
    k = len(trace.rounds) // 2
    trace.rounds[k].positions[3] += [0.1, 0.0]
    phases, diverged = ground_truth(trace, small_plan)
    assert diverged
    assert phases[:k] == clean[:k]
    assert phases[k:] == [None] * (len(trace.rounds) - k)


@pytest.mark.parametrize("pts", [random_connected_pattern(10, seed=7), ngon(14, 2.0)],
                         ids=["draw", "star"])
def test_ground_truth_matches_a_near_gathering_run(pts):
    """Round 0 of a near-gathering, before the ground truth locks onto the
    schedule, reads as the initial phase the robots report."""
    plan = build_plan(pts)
    trace = run_fsync(near_gathering(plan.n, seed=5), plan, SimConfig(seed=2, max_rounds=60))
    gt_phases, diverged = ground_truth(trace, plan)
    assert trace.verdict == "formed" and not diverged
    assert trace.rounds[0].phases == [Phase.INITIAL.value] * plan.n
    for r, rec in enumerate(trace.rounds):
        assert gt_phases[r] == rec.phases, r


def test_timeout_verdict(small_plan):
    trace = run_fsync(small_plan.initial, small_plan, SimConfig(seed=0, max_rounds=1))
    assert trace.verdict == "timeout"
    assert trace.total_rounds == 1


def test_verify_pattern_exact_isometry():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, (15, 2))
    moved = rotate(pts, math.radians(37)) + np.array([5.0, -3.0])
    ok, alignment, err = verify_pattern(moved, pts, tol=1e-6)
    assert ok and err <= 1e-9
    assert alignment is not None


def test_verify_pattern_rejects_perturbation():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, (12, 2))
    bad = pts.copy()
    bad[3] += 1e-5  # ten times the tolerance
    ok, _, _ = verify_pattern(bad, pts, tol=1e-6)
    assert not ok


def test_verify_pattern_isometry_fuzz():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, (20, 2))
    for _ in range(200):
        theta = rng.uniform(0, 2 * math.pi)
        shift = rng.uniform(-10, 10, 2)
        ok, _, err = verify_pattern(rotate(pts, theta) + shift, pts, tol=1e-6)
        assert ok and err <= 1e-8


def test_verify_pattern_alignment_is_the_applied_motion():
    """The alignment maps the pattern as given onto the configuration."""
    p = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.7], [2.0, 0.3]])
    rng = np.random.default_rng(8)
    for pts in (p, rng.uniform(-3, 3, (12, 2))):
        for theta, shift in ((0.3, (5.0, -2.0)), (-2.4, (-7.5, 0.25))):
            ok, alignment, err = verify_pattern(rotate(pts, theta) + shift, pts)
            assert ok and err <= 1e-12
            assert abs(alignment["theta"] - theta) <= 1e-12
            assert abs(alignment["tx"] - shift[0]) <= 1e-12
            assert abs(alignment["ty"] - shift[1]) <= 1e-12
    ok, alignment, err = verify_pattern(p, p)
    assert ok and err == 0.0
    assert alignment == {"theta": 0.0, "tx": 0.0, "ty": 0.0}


def _kdtree_greedy_error(pts, target) -> float:
    """The failed-match diagnostic as it was computed with KD-tree queries."""
    from scipy.spatial import cKDTree

    a = pts - pts.mean(axis=0)
    b = target - target.mean(axis=0)
    best = math.inf
    ra = np.hypot(*a.T)
    ext = int(np.argmax(ra))
    for j in range(len(b)):
        theta = math.atan2(a[ext, 1], a[ext, 0]) - math.atan2(b[j, 1], b[j, 0])
        rb = b @ rotation_matrix(theta).T
        dd, _ = cKDTree(rb).query(a, k=1)
        best = min(best, float(dd.max()))
    return best


@pytest.mark.parametrize("named", main_corpus()[::6] + star_corpus()[:4], ids=lambda c: c[0])
def test_failed_fit_error_equals_the_kdtree_diagnostic(named):
    """On corpus patterns moved rigidly and perturbed past the tolerance, the
    error verify_pattern reports for the failed fit is the KD-tree value.  At
    the larger scales, and with one robot moved next to another, nearest
    neighbours are no longer one-to-one."""
    _, pts = named
    rng = np.random.default_rng(len(pts))
    for scale in (1e-5, 1e-3, 0.05, 0.5, None):
        moved = rotate(pts, rng.uniform(-math.pi, math.pi)) + rng.uniform(-5, 5, 2)
        if scale is None:
            bad = moved.copy()
            bad[0] = bad[1] + 1e-3
        else:
            bad = moved + rng.uniform(-scale, scale, moved.shape)
        ok, alignment, err = verify_pattern(bad, pts, tol=1e-6)
        assert not ok and alignment is None
        assert err == _kdtree_greedy_error(bad, pts)


def test_verify_pattern_size_mismatch():
    with pytest.raises(ValueError):
        verify_pattern(np.zeros((3, 2)), np.zeros((4, 2)) + np.arange(8).reshape(4, 2))


def test_empty_point_sets_raise_a_value_error_naming_the_empty_set():
    """An empty configuration, pattern, point set or template is reported as
    such, before any mean or maximum of an empty array is taken."""
    empty, one = np.zeros((0, 2)), np.zeros((1, 2))
    cases = [(lambda: verify_pattern(empty, empty), "the configuration is empty"),
             (lambda: verify_pattern(one, empty), "the pattern is empty"),
             (lambda: fit_isometry(empty, empty, 1e-6), "points is empty"),
             (lambda: fit_isometry(one, empty, 1e-6), "template is empty")]
    for call, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call()


def test_noise_run_completes_with_bounded_error(small_plan):
    """Noisy moves: the protocol still finishes; the achievable precision is
    set by the pair-baseline direction noise, roughly (1 - delta) * 4mu/eps
    per drop, not by the translational mu accumulation alone."""
    plan = small_plan
    mu = plan.grid.epsilon / (20 * plan.hops)
    achievable = 8.0 * mu / plan.grid.epsilon * (1 - plan.path.delta) * math.sqrt(plan.hops)
    cfg = SimConfig(seed=6, max_rounds=plan.hops + 6, noise_mu=mu)
    trace = run_fsync(plan.initial, plan, cfg)
    assert trace.verdict == "formed"
    assert trace.max_error <= achievable


def test_noisy_run_is_not_misread_as_near_gathering(main_corpus):
    """A symmetric swarm in full view drifts off its reference snapshot by the
    heading walk; mid-run it must not be read as an initial near-gathering."""
    plan = build_plan(dict(main_corpus)["sym-2x3"])
    assert (plan.n, plan.s_p, plan.hops) == (6, 2, 9)
    mu = plan.grid.epsilon / (20 * plan.hops)
    trace = run_fsync(plan.initial, plan,
                      SimConfig(seed=11, max_rounds=plan.hops + 6, noise_mu=mu))
    assert trace.verdict == "formed"
    for rec in trace.rounds[1:]:
        assert "initial-near-gathering" not in rec.phases, rec.round
    # The ground truth follows the drifted run instead of giving up on it.
    gt_phases, diverged = ground_truth(trace, plan, mu)
    assert not diverged
    assert all(gt_phases[r][0] is not None for r in range(len(trace.rounds)))


def test_noisy_small_pattern_stays_formed(main_corpus):
    """A completed pattern of diameter <= 1 is in every robot's full view; under
    noise it must read as dropped robots that stay put, not as a near-gathering."""
    plan = build_plan(dict(main_corpus)["random-6-11"])
    assert pairwise_distances(plan.pattern).max() <= 1.0
    mu = plan.grid.epsilon / (20 * plan.hops)
    cfg = SimConfig(seed=11, max_rounds=plan.hops + 6, noise_mu=mu)
    trace = run_fsync(plan.initial, plan, cfg)
    assert trace.verdict == "formed"
    final = trace.rounds[-1].positions
    snapshot_tol = [drift_tolerance(plan, mu, t) for t in plan.snapshot_ids]
    for view in split_views(*make_local_views(final, trace.total_rounds + 1, cfg)):
        decision = robot_decision(view, plan=plan, snapshot_tol=snapshot_tol)
        assert decision.phase is Phase.DROPPED
        assert not decision.target.any()


def test_noisy_formed_needs_one_robot_per_pattern_point(tail_corpus):
    """Under noise a run counts as formed only below half the pattern's minimum
    spacing, even where D(hops + 2) is wider (the tight blob of a tail pattern)."""
    plan = build_plan(dict(tail_corpus)["tail-7-0"])
    mu = plan.grid.epsilon / (20 * plan.hops)
    spacing = mindist(plan.pattern)
    assert drift_tolerance(plan, mu, plan.hops + 2) > spacing
    cfg = SimConfig(max_rounds=0, noise_mu=mu)
    assert run_fsync(plan.pattern, plan, cfg).verdict == "formed"
    # Move the robot whose nearest neighbour is farthest, away from that
    # neighbour: within D of its point, but more than 0.45 * spacing off it.
    d = pairwise_distances(plan.pattern)
    np.fill_diagonal(d, np.inf)
    k = int(np.argmax(d.min(axis=1)))
    away = plan.pattern[k] - plan.pattern[int(np.argmin(d[k]))]
    off = plan.pattern.copy()
    off[k] += 0.6 * spacing * away / np.hypot(*away)
    assert run_fsync(off, plan, cfg).verdict == "timeout"


def test_noise_mu_bound_enforced(small_plan):
    mu = small_plan.grid.epsilon  # far beyond the stability bound
    with pytest.raises(ValueError):
        run_fsync(small_plan.initial, small_plan,
                  SimConfig(seed=0, noise_mu=mu))


def test_trace_jsonl_schema(tmp_path, small_plan):
    trace = run_fsync(small_plan.initial, small_plan,
                      SimConfig(seed=0, max_rounds=small_plan.hops + 5))
    f = tmp_path / "trace.jsonl"
    trace.write_jsonl(f)
    lines = [json.loads(l) for l in f.read_text().splitlines()]
    final = lines[-1]
    assert final["verdict"] == "formed"
    assert final["rounds"] == trace.total_rounds
    assert "alignment" in final and "pattern" in final
    rounds = lines[:-1]
    assert [r["round"] for r in rounds] == list(range(len(rounds)))
    n = len(small_plan.pattern)
    assert all(len(r["positions"]) == n and len(r["phases"]) == n for r in rounds)


def test_wrong_robot_count_rejected(small_plan):
    with pytest.raises(ValueError):
        run_fsync(small_plan.initial[:-1], small_plan, SimConfig())


def test_run_builds_no_second_plan(monkeypatch):
    """A run given the plan builds none; a run given the points reuses the
    plan the caller built from the same points."""
    builds = []
    inner = protocol._build_plan
    monkeypatch.setattr(protocol, "_PLAN_CACHE", {})
    monkeypatch.setattr(protocol, "_build_plan", lambda *args: builds.append(1) or inner(*args))
    pts = random_connected_pattern(10, seed=7)
    plan = build_plan(pts)
    cfg = SimConfig(seed=0, max_rounds=plan.hops + 5)
    by_plan = run_fsync(plan.initial, plan, cfg)
    assert len(builds) == 1
    by_points = run_fsync(plan.initial, pts, cfg)
    assert len(builds) == 1
    assert by_plan.verdict == by_points.verdict == "formed"
    assert by_plan.total_rounds == by_points.total_rounds
    assert np.array_equal(by_plan.rounds[-1].positions, by_points.rounds[-1].positions)


@pytest.mark.parametrize("pts", [random_connected_pattern(10, seed=7), ngon(14, 2.0)],
                         ids=["draw", "star"])
def test_run_makes_no_sec_call(monkeypatch, pts):
    """Termination and the robots' congruence tests centre on the centroid: a
    drawing run from the initial cluster and a star run from the scaled start
    compute no smallest enclosing circle, one at a time or batched.  Verdict, alignment and error equal a fit of every round."""
    plan = build_plan(pts)
    initial = plan.initial if plan.branch == "draw" else plan.star.kappa0 * plan.pattern
    calls = []

    def counting(inner):
        def wrapper(points):
            calls.append(inner.__name__)
            return inner(points)
        return wrapper

    for inner in (geometry.smallest_enclosing_circle, geometry.enclosing_centers):
        wrapper = counting(inner)
        for name, module in list(sys.modules.items()):
            if name.startswith("swarmdraw") and getattr(module, inner.__name__, None) is inner:
                monkeypatch.setattr(module, inner.__name__, wrapper)
    cfg = SimConfig(seed=2)
    trace = run_fsync(initial, plan, cfg)
    assert trace.verdict == "formed" and trace.total_rounds > 1
    assert not calls

    monkeypatch.undo()
    for rec in trace.rounds[:-1]:
        assert fit_isometry(rec.positions, plan.pattern, FORMED_TOL) is None
    theta, translation, _, err = fit_isometry(trace.rounds[-1].positions, plan.pattern,
                                              FORMED_TOL)
    assert trace.alignment == {"theta": float(theta), "tx": float(translation[0]),
                               "ty": float(translation[1])}
    assert trace.max_error == err


def test_plain_run_makes_one_fit_per_round(monkeypatch, small_plan):
    """A run fits each round to the pattern once, for termination, and matches
    no round against the reference schedule: that is ``ground_truth``'s work,
    done only when it is called."""
    calls = {"fit_isometry": 0, "match_points": 0}

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simulator, name, counting(name, getattr(simulator, name)))
    trace = run_fsync(small_plan.initial, small_plan,
                      SimConfig(seed=0, max_rounds=small_plan.hops + 5))
    assert trace.verdict == "formed" and len(trace.rounds) > 1
    assert calls == {"fit_isometry": len(trace.rounds), "match_points": 0}


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(small_plan, tolerance):
    with pytest.raises(ValueError, match="tol"):
        verify_pattern(small_plan.pattern, small_plan.pattern, tol=tolerance)


def test_drawing_pattern_of_150_robots_forms_from_the_initial_cluster():
    """The bench's random drawing pattern generator at n = 150, a size no other
    test runs: the run forms from plan.initial within hops + 2 rounds and
    matches the pattern to the default tolerance."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    pattern = workloads._random_shape(150, 4000, np.random.default_rng(0))
    plan = build_plan(pattern)
    trace = run_fsync(plan.initial, plan, SimConfig(seed=0, max_rounds=plan.hops + 2))
    assert trace.verdict == "formed" and not ground_truth(trace, plan)[1]
    assert trace.total_rounds <= plan.hops + 2
    assert trace.max_error <= 1e-6
