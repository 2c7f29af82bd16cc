"""Fully synchronous round engine with honest model enforcement.

Each round every robot receives its local view (neighbors within distance 1,
in a private randomly rotated frame), computes a target through the protocol,
and all moves commit simultaneously.  The engine checks the model invariants
(displacement at most 1, no collisions, disjoint formation hulls), tracks
ground truth against the plan's reference schedule, detects termination by
congruence with the target pattern, and emits a JSON-lines trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from .geometry import TAU_GEOM, as_points, match_points, mindist, pairwise_distances, rotation_matrix
from .symmetry import Pattern, normalize
from .formation import check_validity
from .protocol import (
    Decision,
    LocalView,
    Phase,
    Plan,
    build_plan,
    fit_isometry,
    robot_decision,
)


class SimulationError(RuntimeError):
    """An invariant of the model was violated during a run."""


@dataclass(frozen=True)
class SimConfig:
    """Run settings.

    ``tolerance`` is the congruence tolerance at which a run counts as
    formed.  Noiseless runs use it as given.  Drawing runs with
    ``noise_mu > 0`` terminate at max(tolerance, min(D(hops + 2),
    0.45 * mindist(pattern))): the drift bound of ``drift_tolerance`` after
    the last scheduled round, capped so that each robot is matched to one
    pattern point only.
    """

    seed: int = 0
    max_rounds: int = 10_000
    tolerance: float = 1e-6
    noise_mu: float = 0.0
    frame_mode: str = "random"      # "random" or "fixed"


@dataclass
class TraceRound:
    round: int
    positions: np.ndarray
    phases: list[str]
    events: list[dict]


@dataclass
class Trace:
    rounds: list[TraceRound] = field(default_factory=list)
    verdict: str = "timeout"
    total_rounds: int = 0
    max_error: float = math.inf
    alignment: dict | None = None
    diverged: bool = False
    gt_phases: list[list[str] | None] = field(default_factory=list)
    pattern: np.ndarray | None = None
    path_vertices: np.ndarray | None = None

    def write_jsonl(self, filename) -> None:
        with open(filename, "w", encoding="utf-8") as fh:
            for rec in self.rounds:
                fh.write(json.dumps({
                    "round": rec.round,
                    "positions": [[float(x), float(y)] for x, y in rec.positions],
                    "phases": list(rec.phases),
                    "events": rec.events,
                }) + "\n")
            final = {
                "verdict": self.verdict,
                "rounds": self.total_rounds,
                "max_error": None if math.isinf(self.max_error) else self.max_error,
                "alignment": self.alignment,
            }
            if self.pattern is not None:
                final["pattern"] = [[float(x), float(y)] for x, y in self.pattern]
            if self.path_vertices is not None:
                final["path_vertices"] = [[float(x), float(y)] for x, y in self.path_vertices]
            fh.write(json.dumps(final) + "\n")


@lru_cache(maxsize=1 << 18)
def _frame_angle(seed: int, robot: int, rnd: int) -> float:
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed % 2 ** 64, ((robot + 1) * 2 ** 32 + rnd) % 2 ** 64],
                     dtype=np.uint64)))
    return float(gen.uniform(0.0, 2.0 * math.pi))


def _noise_vector(seed: int, robot: int, rnd: int, mu: float) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(
        key=np.array([(seed ^ 0x9E3779B97F4A7C15) % 2 ** 64,
                      ((robot + 1) * 2 ** 32 + rnd) % 2 ** 64], dtype=np.uint64)))
    r = mu * math.sqrt(gen.uniform())
    phi = gen.uniform(0.0, 2.0 * math.pi)
    return np.array([r * math.cos(phi), r * math.sin(phi)])


def make_local_view(positions, robot: int, rnd: int, cfg: SimConfig) -> LocalView:
    """Neighbors within distance 1, in a per-(robot, round) rotated frame."""
    pts = as_points(positions)
    rel = pts - pts[robot]
    d = np.hypot(*rel.T)
    mask = (d <= 1.0 + TAU_GEOM)
    mask[robot] = False
    neighbors = rel[mask]
    if cfg.frame_mode == "random":
        rot = rotation_matrix(_frame_angle(cfg.seed, robot, rnd))
        neighbors = neighbors @ rot.T
    order = np.lexsort((neighbors[:, 1], neighbors[:, 0])) if len(neighbors) else []
    return LocalView(neighbors[order] if len(neighbors) else neighbors.reshape(0, 2))


def verify_pattern(config, pattern, tol: float = 1e-6):
    """(formed, alignment, max_error): congruence of a configuration with the
    pattern up to rotation and translation."""
    pts = as_points(config)
    target = normalize(Pattern(as_points(pattern))).points
    if len(pts) != len(target):
        raise ValueError("configuration and pattern sizes differ")
    return _verify(pts, target, tol, want_error=True)


def _verify(pts, target, tol, want_error=False):
    fit = fit_isometry(pts, target, tol)
    if fit is None:
        return False, None, _greedy_error(pts, target) if want_error else math.inf
    theta, translation, _, err = fit
    return True, {"theta": float(theta),
                  "tx": float(translation[0]), "ty": float(translation[1])}, err


def _greedy_error(pts, target) -> float:
    """Diagnostic lower bound on the alignment error of a failed match."""
    from .geometry import smallest_enclosing_circle

    ca = np.asarray(smallest_enclosing_circle(pts).center)
    cb = np.asarray(smallest_enclosing_circle(target).center)
    a = pts - ca
    b = target - cb
    best = math.inf
    ra = np.hypot(*a.T)
    ext = int(np.argmax(ra))
    for j in range(len(b)):
        theta = math.atan2(a[ext, 1], a[ext, 0]) - math.atan2(b[j, 1], b[j, 0])
        rb = b @ rotation_matrix(theta).T
        dd, _ = cKDTree(rb).query(a, k=1)
        best = min(best, float(dd.max()))
    return best


def drift_tolerance(plan: Plan, noise_mu: float, t: int) -> float:
    """D(t): how far a drawing run with movement noise noise_mu can be from
    the reference schedule after t rounds (0 without noise).

    D(t) = 2*t*mu + 8*(1 - Delta)*sqrt(t)*mu/epsilon.  The first term is the
    anchor's translational drift.  The second is the heading walk: each round
    a formation re-derives its direction from an epsilon-long pair whose ends
    moved by up to mu, so the heading takes an independent error of order
    mu/epsilon per round, and drops placed up to 1 - Delta away inherit it.
    The constant 8 is an empirical margin (README, "Noise model").
    """
    if noise_mu <= 0.0:
        return 0.0
    return (2.0 * t * noise_mu
            + 8.0 * (1.0 - plan.path.delta) * math.sqrt(t) * noise_mu / plan.params.epsilon)


class _GroundTruth:
    """Matches simulated configurations against the reference schedule.

    Round rnd is matched at max(1e-6, D(rnd)).
    """

    def __init__(self, plan: Plan, noise_mu: float):
        self.plan = plan
        self.noise_mu = noise_mu
        self.offset: int | None = None
        self.transform: tuple[float, np.ndarray] | None = None
        self.diverged = False

    def roles_for(self, positions, rnd: int) -> list[str] | None:
        if self.diverged or not self.plan.schedule:
            return None
        if self.transform is None:
            # Lock the world-to-schedule alignment at the first congruent round;
            # runs starting one round before the initial cluster lock at offset 1.
            for t0 in (0, 1):
                t = rnd - t0
                if not 0 <= t < len(self.plan.schedule):
                    continue
                if len(self.plan.schedule[t].positions) != len(positions):
                    continue
                fit = fit_isometry(positions, self.plan.schedule[t].positions,
                                   self._tol(rnd))
                if fit is not None:
                    self.offset = t0
                    self.transform = (fit[0], fit[1])
                    break
            if self.transform is None:
                if rnd == 0:
                    return ["initial"] * len(positions)
                return None
        t = min(max(rnd - self.offset, 0), len(self.plan.schedule) - 1)
        rec = self.plan.schedule[t]
        if len(rec.positions) != len(positions):
            self.diverged = True
            return None
        theta, translation = self.transform
        expected = rec.positions @ rotation_matrix(theta).T + translation
        # Under noise a formation can drift by more than half its own spacing,
        # so the matcher's exact-assignment fallback is needed.
        idx, _ = match_points(positions, expected, self._tol(rnd))
        if idx is None:
            self.diverged = True
            return None
        return [rec.roles[i] for i in idx]

    def _tol(self, rnd: int) -> float:
        return max(1e-6, drift_tolerance(self.plan, self.noise_mu, rnd))


_ROLE_TO_PHASE = {
    "formation": Phase.FORMATION.value,
    "intermediate": Phase.INTERMEDIATE.value,
    "dropped": Phase.DROPPED.value,
    "star": "star",
}


def ground_truth_phase(trace: Trace, robot: int, rnd: int) -> str | None:
    """Omniscient phase label recorded during a run (None if unavailable)."""
    if rnd >= len(trace.gt_phases) or trace.gt_phases[rnd] is None:
        return None
    return trace.gt_phases[rnd][robot]


def run_fsync(initial, plan, cfg: SimConfig = SimConfig()) -> Trace:
    """Run the synchronous protocol until the plan's pattern is formed.

    plan is the ``Plan`` of the pattern, or the pattern's points, which are
    planned with the default grid constant.

    Every round is computed from the previous configuration only; moves are
    rigid (exact) except for optional uniform noise of radius noise_mu
    applied to nonzero moves.  Violations of the model invariants abort the
    run with verdict "aborted".

    Noiseless runs match snapshots at 1e-7 and terminate at cfg.tolerance.
    Under noise a drawing run matches reference snapshot t, and the ground
    truth of round t, at the drift bound D(t) of ``drift_tolerance``, and
    terminates at max(cfg.tolerance, min(D(hops + 2), 0.45 * mindist)), the
    cap keeping "formed" a one-to-one placement on the pattern.  The scaling
    branch has no noise model and rejects noise_mu > 0.
    """
    if not cfg.noise_mu >= 0.0:
        raise ValueError("noise_mu must be a nonnegative number")
    if cfg.max_rounds < 0:
        raise ValueError("max_rounds must be nonnegative")
    plan = plan if isinstance(plan, Plan) else build_plan(plan)
    positions = as_points(initial).copy()
    n = len(positions)
    if n != plan.n:
        raise ValueError(f"{n} robots cannot form a pattern of {plan.n} coordinates")

    detect_tol = TAU_GEOM
    snapshot_tol = None
    tolerance = cfg.tolerance
    if cfg.noise_mu > 0.0:
        if plan.branch != "draw":
            raise ValueError("the scaling branch has no noise model")
        eps = plan.params.epsilon
        bound = eps / (10.0 * max(plan.hops, 1))
        if cfg.noise_mu >= bound:
            raise ValueError(f"noise_mu must stay below epsilon/(10*hops) = {bound:.3g}")
        # Grid-snap residuals accumulate both translational noise and the
        # pair-direction angular noise amplified by the hull lever arm;
        # the residual tolerance must stay below half the 2*eps pitch.
        guard = 2.0 * cfg.noise_mu * (1.0 + plan.params.delta / eps)
        detect_tol = min(0.45 * eps, max(3.0 * plan.hops * cfg.noise_mu, guard))
        # Deviation from the reference schedule: snapshot t is reached
        # after t rounds at the earliest.
        snapshot_tol = [max(detect_tol, drift_tolerance(plan, cfg.noise_mu, t))
                        for t in plan.snapshot_ids]
        tolerance = max(cfg.tolerance, min(drift_tolerance(plan, cfg.noise_mu, plan.hops + 2),
                                           0.45 * mindist(plan.pattern)))

    gt = _GroundTruth(plan, cfg.noise_mu)
    trace = Trace(pattern=plan.pattern,
                  path_vertices=plan.path.vertices if plan.path is not None else None)

    for rnd in range(cfg.max_rounds + 1):
        formed, alignment, err = _verify(positions, plan.pattern, tolerance)
        phases, events, targets = _compute_round(positions, plan, cfg, rnd, detect_tol,
                                                 snapshot_tol)
        trace.gt_phases.append(gt.roles_for(positions, rnd))
        trace.rounds.append(TraceRound(rnd, positions.copy(), phases,
                                       events if not formed else []))
        if formed:
            trace.verdict = "formed"
            trace.total_rounds = rnd
            trace.max_error = err
            trace.alignment = alignment
            trace.diverged = gt.diverged
            return trace
        if rnd == cfg.max_rounds:
            break
        try:
            positions = _commit(positions, targets, plan, cfg, rnd)
        except SimulationError as exc:
            trace.verdict = "aborted"
            trace.total_rounds = rnd + 1
            trace.rounds[-1].events.append({"error": str(exc)})
            trace.diverged = gt.diverged
            return trace

    trace.verdict = "timeout"
    trace.total_rounds = cfg.max_rounds
    trace.max_error = _greedy_error(positions, plan.pattern)
    trace.diverged = gt.diverged
    return trace


def _compute_round(positions, plan, cfg, rnd, detect_tol, snapshot_tol=None):
    n = len(positions)
    phases: list[str] = []
    events: list[dict] = []
    targets = np.empty((n, 2))
    for i in range(n):
        view = make_local_view(positions, i, rnd, cfg)
        decision: Decision = robot_decision(view, plan, tol=detect_tol,
                                            snapshot_tol=snapshot_tol)
        phase = decision.phase.value if isinstance(decision.phase, Phase) else str(decision.phase)
        phases.append(phase)
        for ev in decision.events:
            events.append({"robot": i, "event": ev})
        # Map the local-frame target back to the global frame.
        t_local = decision.target
        if cfg.frame_mode == "random":
            rot = rotation_matrix(-_frame_angle(cfg.seed, i, rnd))
            t_global = positions[i] + rot @ t_local
        else:
            t_global = positions[i] + t_local
        targets[i] = t_global
    return phases, events, targets


def _commit(positions, targets, plan, cfg, rnd):
    disp = np.hypot(*(targets - positions).T)
    if np.any(disp > 1.0 + 1e-7):
        raise SimulationError(f"robot displacement {disp.max():.6f} exceeds the viewing range")
    new_positions = targets.copy()
    if cfg.noise_mu > 0.0:
        for i in range(len(new_positions)):
            if disp[i] > TAU_GEOM:
                new_positions[i] = new_positions[i] + _noise_vector(cfg.seed, i, rnd, cfg.noise_mu)
    d = pairwise_distances(new_positions)
    np.fill_diagonal(d, np.inf)
    if d.min() <= TAU_GEOM:
        raise SimulationError("two robots collided")
    if plan.branch == "draw":
        report = check_validity(new_positions, replace(plan.fparams, tol=max(
            plan.fparams.tol, TAU_GEOM if cfg.noise_mu == 0 else 3.0 * plan.hops * cfg.noise_mu)))
        if not report.ok:
            raise SimulationError(f"overlapping formation hulls: {report.overlaps}")
    return new_positions
