import json
import math

import numpy as np
import pytest

from swarmdraw import protocol
from swarmdraw.geometry import mindist, pairwise_distances, rotate
from swarmdraw.protocol import Phase, build_plan, robot_decision
from swarmdraw.simulator import (
    SimConfig,
    _ROLE_TO_PHASE,
    drift_tolerance,
    ground_truth_phase,
    make_local_view,
    run_fsync,
    verify_pattern,
)

from corpus import near_gathering, random_connected_pattern


@pytest.fixture(scope="module")
def small_plan():
    pts = random_connected_pattern(10, seed=7)
    return build_plan(pts)


def test_view_isolated_robot():
    positions = np.array([[0.0, 0.0], [2.0, 2.0], [3.0, 0.0]])
    view = make_local_view(positions, 0, 0, SimConfig(frame_mode="fixed"))
    assert len(view.neighbors) == 0


def test_view_includes_boundary_neighbor():
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    view = make_local_view(positions, 0, 0, SimConfig(frame_mode="fixed"))
    assert len(view.neighbors) == 1


def test_view_rotation_preserves_distances():
    positions = np.vstack([np.zeros(2), np.random.default_rng(0).uniform(-0.5, 0.5, (6, 2))])
    views = [make_local_view(positions, 0, 0, SimConfig(seed=s)) for s in (1, 2)]
    d1 = np.sort(np.hypot(*views[0].neighbors.T))
    d2 = np.sort(np.hypot(*views[1].neighbors.T))
    assert np.allclose(d1, d2, atol=1e-12)


def test_run_already_formed(small_plan):
    trace = run_fsync(small_plan.pattern, small_plan, SimConfig(seed=0, max_rounds=5))
    assert trace.verdict == "formed" and trace.total_rounds == 0


def test_run_from_initial_pattern(small_plan):
    trace = run_fsync(small_plan.initial, small_plan,
                      SimConfig(seed=0, max_rounds=small_plan.hops + 5))
    assert trace.verdict == "formed"
    assert trace.total_rounds <= small_plan.hops + 2
    assert trace.max_error <= 1e-6
    assert not trace.diverged


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


def test_fixed_frame_mode_matches_random(small_plan):
    t_fixed = run_fsync(small_plan.initial, small_plan,
                        SimConfig(seed=0, frame_mode="fixed", max_rounds=small_plan.hops + 5))
    t_rand = run_fsync(small_plan.initial, small_plan,
                       SimConfig(seed=0, frame_mode="random", max_rounds=small_plan.hops + 5))
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
    assert not trace.diverged
    for r, rec in enumerate(trace.rounds):
        for i in range(len(rec.phases)):
            gt = ground_truth_phase(trace, i, r)
            assert gt is not None
            assert rec.phases[i] == _ROLE_TO_PHASE.get(gt, gt)


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


def test_verify_pattern_size_mismatch():
    with pytest.raises(ValueError):
        verify_pattern(np.zeros((3, 2)), np.zeros((4, 2)) + np.arange(8).reshape(4, 2))


def test_noise_run_completes_with_bounded_error(small_plan):
    """Noisy moves: the protocol still finishes; the achievable precision is
    set by the pair-baseline direction noise, roughly (1 - delta) * 4mu/eps
    per drop, not by the translational mu accumulation alone."""
    plan = small_plan
    mu = plan.params.epsilon / (20 * plan.hops)
    achievable = 8.0 * mu / plan.params.epsilon * (1 - plan.path.delta) * math.sqrt(plan.hops)
    cfg = SimConfig(seed=6, max_rounds=plan.hops + 6, noise_mu=mu, tolerance=achievable)
    trace = run_fsync(plan.initial, plan, cfg)
    assert trace.verdict == "formed"
    assert trace.max_error <= achievable


def test_noisy_run_is_not_misread_as_near_gathering(main_corpus):
    """A symmetric swarm in full view drifts off its reference snapshot by the
    heading walk; mid-run it must not be read as an initial near-gathering."""
    plan = build_plan(dict(main_corpus)["sym-2x3"])
    assert (plan.n, plan.params.s_p, plan.hops) == (6, 2, 9)
    mu = plan.params.epsilon / (20 * plan.hops)
    trace = run_fsync(plan.initial, plan,
                      SimConfig(seed=11, max_rounds=plan.hops + 6, noise_mu=mu))
    assert trace.verdict == "formed"
    for rec in trace.rounds[1:]:
        assert "initial-near-gathering" not in rec.phases, rec.round
    # The ground truth follows the drifted run instead of giving up on it.
    assert not trace.diverged
    assert all(ground_truth_phase(trace, 0, r) is not None for r in range(len(trace.rounds)))


def test_noisy_small_pattern_stays_formed(main_corpus):
    """A completed pattern of diameter <= 1 is in every robot's full view; under
    noise it must read as dropped robots that stay put, not as a near-gathering."""
    plan = build_plan(dict(main_corpus)["random-6-11"])
    assert pairwise_distances(plan.pattern).max() <= 1.0
    mu = plan.params.epsilon / (20 * plan.hops)
    cfg = SimConfig(seed=11, max_rounds=plan.hops + 6, noise_mu=mu)
    trace = run_fsync(plan.initial, plan, cfg)
    assert trace.verdict == "formed"
    final = trace.rounds[-1].positions
    snapshot_tol = [drift_tolerance(plan, mu, t) for t in plan.snapshot_ids]
    for i in range(plan.n):
        view = make_local_view(final, i, trace.total_rounds + 1, cfg)
        decision = robot_decision(view, plan=plan, snapshot_tol=snapshot_tol)
        assert decision.phase is Phase.DROPPED
        assert not decision.target.any()


def test_noisy_formed_needs_one_robot_per_pattern_point(tail_corpus):
    """Under noise a run counts as formed only below half the pattern's minimum
    spacing, even where D(hops + 2) is wider (the tight blob of a tail pattern)."""
    plan = build_plan(dict(tail_corpus)["tail-7-0"])
    mu = plan.params.epsilon / (20 * plan.hops)
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
    mu = small_plan.params.epsilon  # far beyond the stability bound
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
