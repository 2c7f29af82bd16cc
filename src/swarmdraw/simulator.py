"""Fully synchronous round engine with honest model enforcement.

Each round every robot receives its local view (neighbors within distance 1,
in a private randomly rotated frame), computes a target through the protocol,
and all moves commit simultaneously.  The engine checks the model invariants
(displacement at most 1, no collisions, disjoint formation hulls), detects
termination by congruence with the target pattern, and emits a JSON-lines
trace.  ``ground_truth`` matches a finished trace against the plan's reference
schedule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (TAU_GEOM, as_points, match_points, mindist, nearest,
                       pairwise_distances, rotation_matrix)
from .formation import overlapping_hulls
from .protocol import (
    Phase,
    Plan,
    build_plan,
    fit_isometry,
    robot_decisions,
)


class SimulationError(RuntimeError):
    """An invariant of the model was violated during a run."""


# The congruence tolerance at which a noiseless run counts as formed.
FORMED_TOL = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """Run settings.

    Noiseless runs terminate at ``FORMED_TOL``.  Drawing runs with
    ``noise_mu > 0`` terminate at max(FORMED_TOL, min(D(hops + 2),
    0.45 * mindist(pattern))): the drift bound of ``drift_tolerance`` after
    the last scheduled round, capped so that each robot is matched to one
    pattern point only.
    """

    seed: int = 0
    max_rounds: int = 10_000
    noise_mu: float = 0.0


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


def _frame_angles(n: int, rnd: int, cfg: SimConfig) -> np.ndarray:
    """The n robots' private frame angles of round rnd, in [0, 2*pi): the
    SplitMix64 finaliser of a counter keyed on (seed, robot, round), its top
    53 bits scaled to the circle."""
    with np.errstate(over="ignore"):
        z = (np.uint64((cfg.seed * 0x9E3779B97F4A7C15) % 2 ** 64)
             + ((np.arange(n, dtype=np.uint64) + np.uint64(1)) << np.uint64(32))
             + np.uint64(rnd % 2 ** 32))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * (2.0 * math.pi / 2.0 ** 53)


def _noise_vector(seed: int, robot: int, rnd: int, mu: float) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(
        key=np.array([(seed ^ 0x9E3779B97F4A7C15) % 2 ** 64,
                      ((robot + 1) * 2 ** 32 + rnd) % 2 ** 64], dtype=np.uint64)))
    r = mu * math.sqrt(gen.uniform())
    phi = gen.uniform(0.0, 2.0 * math.pi)
    return np.array([r * math.cos(phi), r * math.sin(phi)])


def _frame(n: int, rnd: int, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and sines of the n robots' frame angles of round rnd."""
    angles = _frame_angles(n, rnd, cfg)
    return np.cos(angles), np.sin(angles)


def make_local_views(positions, rnd: int, cfg: SimConfig, frame=None):
    """Every robot's view, as the ragged batch (local, counts) that
    ``robot_decisions`` takes: view i is the counts[i] rows of local after
    the first sum(counts[:i]), in robot i's per-(robot, round) rotated frame:
    the robot itself first as exact +0.0, then its neighbours within
    distance 1, lex-sorted on (x, y), ties by index.  One pass over the
    round's differences builds them: each robot's entries, in index order,
    fill one row of a table of complex keys x + iy padded with inf + i*inf
    (its own entry's real part -inf), and one row-wise stable sort orders
    them: NumPy orders complex numbers by real, then imaginary part.  frame
    is the round's ``_frame``, if the caller already has it."""
    pts = as_points(positions)
    cos, sin = _frame(len(pts), rnd, cfg) if frame is None else frame
    cos, sin = cos[:, None], sin[:, None]
    dx = pts[None, :, 0] - pts[:, None, 0]          # row i: positions relative to robot i
    dy = pts[None, :, 1] - pts[:, None, 1]
    mask = np.hypot(dx, dy) <= 1.0 + TAU_GEOM       # the diagonal is the robot itself
    counts = mask.sum(axis=1)
    first = np.cumsum(counts) - counts
    row, col = np.nonzero(mask)
    slot = np.arange(len(row)) - np.repeat(first, counts)
    key = np.full((len(pts), counts.max(initial=0)), complex(np.inf, np.inf))
    # Parts assigned one by one: x + 1j*y would turn the padding's infinite y into NaN.
    key.real[row, slot] = (cos * dx - sin * dy)[mask]
    key.imag[row, slot] = (sin * dx + cos * dy)[mask]
    key.real[np.arange(len(pts)), slot[row == col]] = -np.inf
    src = np.argsort(key, axis=-1, kind="stable")[row, slot]
    local = np.stack([key.real[row, src], key.imag[row, src]], axis=1)
    local[first] = 0.0                              # the robot itself, as +0.0
    return local, counts


def verify_pattern(config, pattern, tol: float = 1e-6):
    """(formed, alignment, max_error): congruence of a configuration with the
    pattern up to rotation and translation.  The alignment maps the pattern as
    given onto the configuration.  The pattern's points must be distinct and
    tol a positive finite number; neither set may be empty."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    pts = as_points(config)
    target = as_points(pattern)
    for name, arr in (("configuration", pts), ("pattern", target)):
        if not len(arr):
            raise ValueError(f"the {name} is empty")
    if len(target) > 1:
        mindist(target)
    if len(pts) != len(target):
        raise ValueError("configuration and pattern sizes differ")
    formed, alignment, err = _verify(pts, target, tol)
    return formed, alignment, err if formed else _greedy_error(pts, target)


def _verify(pts, target, tol):
    fit = fit_isometry(pts, target, tol)
    if fit is None:
        return False, None, math.inf
    theta, translation, _, err = fit
    return True, {"theta": float(theta),
                  "tx": float(translation[0]), "ty": float(translation[1])}, err


def _greedy_error(pts, target) -> float:
    """Diagnostic error of a failed match, neither a lower nor an upper bound: the
    smallest largest nearest-neighbour distance over the rotations aligning the
    centroid-centred sets' farthest point with some template point."""
    a = pts - pts.mean(axis=0)
    b = target - target.mean(axis=0)
    best = math.inf
    ra = np.hypot(*a.T)
    ext = int(np.argmax(ra))
    for j in range(len(b)):
        theta = math.atan2(a[ext, 1], a[ext, 0]) - math.atan2(b[j, 1], b[j, 0])
        rb = b @ rotation_matrix(theta).T
        dd, _ = nearest(a, rb)
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
            + 8.0 * (1.0 - plan.path.delta) * math.sqrt(t) * noise_mu / plan.grid.epsilon)


def noisy_tolerances(plan: Plan, noise_mu: float) -> tuple[float, list[float]]:
    """(detection tolerance, per-snapshot tolerances) of a drawing run with
    movement noise noise_mu.  Grid-snap residuals accumulate translational
    noise and the pair-direction angular noise amplified by the hull lever
    arm, and must stay below half the 2*eps pitch; snapshot t is reached
    after t rounds at the earliest, so it is matched at D(t)."""
    eps = plan.grid.epsilon
    guard = 2.0 * noise_mu * (1.0 + plan.grid.delta / eps)
    tol = min(0.45 * eps, max(3.0 * plan.hops * noise_mu, guard))
    return tol, [max(tol, drift_tolerance(plan, noise_mu, t)) for t in plan.snapshot_ids]


def ground_truth(trace: Trace, plan: Plan,
                 noise_mu: float = 0.0) -> tuple[list[list[Phase] | None], bool]:
    """(phases, diverged): the reference schedule's roles of a finished trace's
    robots, per round, or None where there are none.

    The world-to-schedule alignment locks at the first round rnd congruent
    with schedule[rnd], or with schedule[rnd - 1] for runs that reach the
    initial cluster one round late; round 0 reads as initial before it locks.
    From the lock on, round rnd is matched against its transformed reference
    round at max(1e-6, D(rnd)); the first round that fails diverges the run,
    and it and every later round read None.
    """
    schedule = plan.schedule
    phases, lock = [], None         # lock: (round offset, rotation, translation)
    for rec in trace.rounds:
        pts = rec.positions
        tol = max(1e-6, drift_tolerance(plan, noise_mu, rec.round))
        for t0 in (0, 1) if lock is None else ():
            t = rec.round - t0
            if 0 <= t < len(schedule) and len(schedule[t].positions) == len(pts):
                fit = fit_isometry(pts, schedule[t].positions, tol)
                if fit is not None:
                    lock = t0, rotation_matrix(fit[0]), fit[1]
                    break
        if lock is None:
            phases.append([Phase.INITIAL] * len(pts) if rec.round == 0 and schedule else None)
            continue
        ref = schedule[min(rec.round - lock[0], len(schedule) - 1)]
        idx = None
        if len(ref.positions) == len(pts):
            # Under noise a formation can drift by more than half its own spacing,
            # so the matcher's exact-assignment fallback is needed.
            idx, _ = match_points(pts, ref.positions @ lock[1].T + lock[2], tol)
        if idx is None:
            return phases + [None] * (len(trace.rounds) - len(phases)), True
        phases.append([ref.roles[i] for i in idx])
    return phases, False


def run_fsync(initial, plan, cfg: SimConfig = SimConfig()) -> Trace:
    """Run the synchronous protocol until the plan's pattern is formed.

    plan is the ``Plan`` of the pattern, or the pattern's points, which are
    planned with the default grid constant.

    Every round is computed from the previous configuration only; moves are
    rigid (exact) except for optional uniform noise of radius noise_mu
    applied to nonzero moves.  Violations of the model invariants abort the
    run with verdict "aborted".

    Noiseless runs match snapshots at 1e-7 and terminate at FORMED_TOL.
    Under noise a drawing run matches reference snapshot t at the drift bound
    D(t) of ``drift_tolerance`` and terminates at max(FORMED_TOL,
    min(D(hops + 2), 0.45 * mindist)), the cap keeping "formed" a one-to-one
    placement on the pattern.  The scaling branch has no noise model and
    rejects noise_mu > 0.
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
    tolerance = FORMED_TOL
    if cfg.noise_mu > 0.0:
        if plan.branch != "draw":
            raise ValueError("the scaling branch has no noise model")
        eps = plan.grid.epsilon
        bound = eps / (10.0 * max(plan.hops, 1))
        if cfg.noise_mu >= bound:
            raise ValueError(f"noise_mu must stay below epsilon/(10*hops) = {bound:.3g}")
        detect_tol, snapshot_tol = noisy_tolerances(plan, cfg.noise_mu)
        tolerance = max(FORMED_TOL, min(drift_tolerance(plan, cfg.noise_mu, plan.hops + 2),
                                        0.45 * mindist(plan.pattern)))

    trace = Trace(pattern=plan.pattern,
                  path_vertices=plan.path.vertices if plan.path is not None else None)

    for rnd in range(cfg.max_rounds + 1):
        formed, alignment, err = _verify(positions, plan.pattern, tolerance)
        phases, events, targets = _compute_round(positions, plan, cfg, rnd, detect_tol,
                                                 snapshot_tol)
        trace.rounds.append(TraceRound(rnd, positions.copy(), phases,
                                       events if not formed else []))
        if formed:
            trace.verdict = "formed"
            trace.total_rounds = rnd
            trace.max_error = err
            trace.alignment = alignment
            break
        if rnd == cfg.max_rounds:
            trace.total_rounds = rnd
            trace.max_error = _greedy_error(positions, plan.pattern)
            break
        try:
            positions = _commit(positions, targets, plan, cfg, rnd)
        except SimulationError as exc:
            trace.verdict = "aborted"
            trace.total_rounds = rnd + 1
            trace.rounds[-1].events.append({"error": str(exc)})
            break
    return trace


def _compute_round(positions, plan, cfg, rnd, detect_tol, snapshot_tol=None):
    cos, sin = frame = _frame(len(positions), rnd, cfg)
    decisions = robot_decisions(*make_local_views(positions, rnd, cfg, frame), plan,
                                tol=detect_tol, snapshot_tol=snapshot_tol)
    phases = [decision.phase.value for decision in decisions]
    events = [{"robot": i, "event": ev}
              for i, decision in enumerate(decisions) for ev in decision.events]
    local = np.array([decision.target for decision in decisions]).reshape(-1, 2)
    # Map the local-frame targets back to the global frame.
    targets = positions + np.stack([cos * local[:, 0] + sin * local[:, 1],
                                    cos * local[:, 1] - sin * local[:, 0]], axis=1)
    return phases, events, targets


def _commit(positions, targets, plan, cfg, rnd):
    disp = np.hypot(*(targets - positions).T)
    far = int(np.argmax(disp))
    if disp[far] > 1.0 + 1e-7:
        raise SimulationError(f"robot {far} displacement {disp[far]:.6f} exceeds the viewing range")
    new_positions = targets.copy()
    if cfg.noise_mu > 0.0:
        for i in range(len(new_positions)):
            if disp[i] > TAU_GEOM:
                new_positions[i] = new_positions[i] + _noise_vector(cfg.seed, i, rnd, cfg.noise_mu)
    d = pairwise_distances(new_positions)
    np.fill_diagonal(d, np.inf)
    i, j = sorted(int(k) for k in np.unravel_index(int(np.argmin(d)), d.shape))
    if d[i, j] <= TAU_GEOM:
        raise SimulationError(f"robots {i} and {j} collided")
    if plan.branch == "draw":
        tol = max(TAU_GEOM, 3.0 * plan.hops * cfg.noise_mu)
        pairs = overlapping_hulls(new_positions, plan.grid, tol)
        if pairs:
            raise SimulationError("overlapping formation hulls: " + "; ".join(
                f"robots {a.tolist()} and {b.tolist()}" for a, b in pairs))
    return new_positions
