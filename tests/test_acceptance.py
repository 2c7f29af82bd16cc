"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The shared corpus is 50
random connected patterns (n in [6, 60]), 10 handcrafted symmetric patterns,
and 10 tail-stress patterns whose last three coordinates sit farther than
1 - Delta from the final path vertex.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from swarmdraw.geometry import TAU_GEOM, from_polar, mindist, rotate
from swarmdraw.symmetry import Pattern, normalize, symmetricity
from swarmdraw.formation import count_states, grid_spec
from swarmdraw.pathing import check_compatibility, cone_boundary_distance, build_drawing_path
from swarmdraw.protocol import build_plan
from swarmdraw.simulator import SimConfig, _ROLE_TO_PHASE, run_fsync, verify_pattern

import corpus


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# --- criterion 1 -----------------------------------------------------------------

def test_criterion_1_state_count_lemma():
    """3-robot state count equals floor((diameter/eps - 1)/2) exactly."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for _ in range(20):
        ratio = float(rng.uniform(3.0, 50.0))
        delta = 0.1
        eps = delta / ratio
        grid = grid_spec(delta, eps, math.pi / 3)
        brute = 0
        i = 1
        while (1 + 2 * i) * eps <= delta + TAU_GEOM:
            brute += 1
            i += 1
        formula = int((ratio - 1.0) // 2.0)
        assert count_states(grid, 3) == brute == formula, (ratio, brute, formula)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 20 and elapsed < 1.0
    assert report("criterion 1 (state-count lemma)", ok,
                  f"{checked} ratios, {elapsed:.3f}s"), "state counting disagrees"


# --- criterion 2 -----------------------------------------------------------------

def oracle_symmetricity(points, tol=TAU_GEOM):
    n = len(points)
    tree = cKDTree(points)
    best = 1
    for m in range(2, n + 1):
        if n % m:
            continue
        dd, idx = tree.query(rotate(points, 2 * math.pi / m), k=1)
        if dd.max() <= tol and len(set(idx.tolist())) == n:
            best = m
    return best


def test_criterion_2_symmetricity_oracle_equivalence():
    start = time.perf_counter()
    cases = []
    rng = np.random.default_rng(7)
    for i in range(200):
        s = [1, 2, 3, 4, 6][i % 5]
        if s == 1:
            n = int(rng.integers(4, 37))
            pts = normalize(Pattern(rng.uniform(-2, 2, (n, 2)))).points
        else:
            m = int(rng.integers(3, 1 + min(6, 36 // s)))
            pts = normalize(Pattern(corpus.symmetric_pattern(s, m, seed=9000 + i))).points
        cases.append((s, pts))
    mismatches = 0
    for s, pts in cases:
        got = symmetricity(Pattern(pts, normalized=True)).sym
        want = oracle_symmetricity(pts)
        if got != want or got != s:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    assert report("criterion 2 (symmetricity oracle)", ok,
                  f"200 patterns, {mismatches} mismatches, {elapsed:.2f}s")


# --- criterion 3 -----------------------------------------------------------------

def test_criterion_3_path_construction_soundness(corpus_plans):
    start = time.perf_counter()
    failures = []
    for name, plan in corpus_plans:
        params = plan.params
        path = build_drawing_path(plan.pattern, params)
        rep = check_compatibility(params, path)
        margin_req = max(params.epsilon,
                         params.delta * max(math.sin(2 * math.pi / params.s_p), 0.0))
        conditions = [
            rep.ok, rep.margin_ok,
            np.allclose(path.vertices[0], from_polar(2 * params.delta, math.pi / params.s_p),
                        atol=1e-12),
            np.hypot(*np.diff(path.vertices, axis=0).T).max() <= 1 - path.delta + TAU_GEOM,
            sum(len(c) for c in path.coverage) == len(path.comp),
            params.s_p == 1
            or min(cone_boundary_distance(v, params.s_p) for v in path.vertices) > margin_req,
        ]
        if not all(conditions):
            failures.append((name, conditions))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    assert report("criterion 3 (path soundness)", ok,
                  f"{len(corpus_plans)} instances, {len(failures)} failures, {elapsed:.1f}s"), failures[:3]


# --- criterion 4 -----------------------------------------------------------------

def test_criterion_4_end_to_end_formation(corpus_runs):
    failures = []
    sim_time = 0.0
    for name, plan, trace, elapsed in corpus_runs:
        sim_time += elapsed
        n = len(plan.pattern)
        good = (trace.verdict == "formed"
                and trace.total_rounds <= plan.hops + 2
                and trace.total_rounds <= 10 * n
                and trace.max_error <= 1e-6)
        if not good:
            failures.append((name, trace.verdict, trace.total_rounds, plan.hops + 2,
                             trace.max_error))
    ok = not failures and sim_time < 60.0
    assert report("criterion 4 (end-to-end formation)", ok,
                  f"{len(corpus_runs)} runs, {len(failures)} failures, {sim_time:.1f}s"), failures[:3]


# --- criterion 5 -----------------------------------------------------------------

def test_criterion_5_star_protocol(star_corpus):
    failures = []
    for name, pts in star_corpus:
        plan = build_plan(pts)
        assert plan.branch == "star"
        bound = int(math.ceil(plan.star.d_max - 1e-9)) + 1
        starts = [("scaled", plan.star.kappa0 * plan.pattern)]
        if len(pts) <= 70:
            starts.append(("gathered", corpus.near_gathering(len(pts), seed=hash(name) % 1000)))
        for kind, initial in starts:
            trace = run_fsync(initial, plan, SimConfig(seed=3, max_rounds=bound + 5))
            if not (trace.verdict == "formed" and trace.total_rounds <= bound
                    and trace.max_error <= 1e-6):
                failures.append((name, kind, trace.verdict, trace.total_rounds, bound))
    ok = not failures
    assert report("criterion 5 (scaling branch)", ok,
                  f"{len(star_corpus)} patterns, {len(failures)} failures"), failures[:3]


# --- criterion 6 -----------------------------------------------------------------

def test_criterion_6_phase_distinction(corpus_runs):
    total = agree = 0
    unavailable = 0
    for name, plan, trace, _ in corpus_runs:
        assert not trace.diverged, name
        for r, rec in enumerate(trace.rounds):
            gt = trace.gt_phases[r]
            if gt is None:
                unavailable += 1
                continue
            for i, phase in enumerate(rec.phases):
                total += 1
                if phase == _ROLE_TO_PHASE.get(gt[i], gt[i]):
                    agree += 1
    ok = total > 0 and agree == total and unavailable == 0
    assert report("criterion 6 (phase distinction)", ok,
                  f"{agree}/{total} (robot, round) pairs agree")


# --- criterion 7 -----------------------------------------------------------------

def test_criterion_7_model_honesty(corpus_runs):
    replay_failures = []
    invariant_failures = []
    for name, plan, trace, _ in corpus_runs:
        for a, b in zip(trace.rounds[:-1], trace.rounds[1:]):
            disp = np.hypot(*(b.positions - a.positions).T)
            if disp.max() > 1.0 + 1e-7:
                invariant_failures.append((name, "displacement", float(disp.max())))
        for rec in trace.rounds:
            d = np.sqrt(((rec.positions[:, None] - rec.positions[None, :]) ** 2).sum(-1))
            np.fill_diagonal(d, np.inf)
            if d.min() <= TAU_GEOM:
                invariant_failures.append((name, "collision", float(d.min())))
        # Hull disjointness is asserted inside the engine every round; an
        # overlap would have aborted the run.
        if trace.verdict != "formed":
            invariant_failures.append((name, "verdict", trace.verdict))
        for seed in (1, 2, 3, 4):
            cfg = SimConfig(seed=seed, max_rounds=plan.hops + 10)
            other = run_fsync(plan.initial, plan, cfg)
            if other.total_rounds != trace.total_rounds:
                replay_failures.append((name, seed, "rounds"))
                continue
            worst = max(np.abs(a.positions - b.positions).max()
                        for a, b in zip(trace.rounds, other.rounds))
            if worst > 1e-9:
                replay_failures.append((name, seed, worst))
    ok = not replay_failures and not invariant_failures
    assert report("criterion 7 (model honesty)", ok,
                  f"replay failures: {len(replay_failures)}, "
                  f"invariant failures: {len(invariant_failures)}"), \
        (replay_failures[:3], invariant_failures[:3])


# --- criterion 8 -----------------------------------------------------------------

def test_criterion_8_noise_tolerance(corpus_plans):
    """The protocol forms the pattern under movement noise mu = eps/(20*hops)
    within the drift bound of the README's "Noise model" section, and its
    placement error is linear in mu.

    Oblivious robots re-derive a formation's heading every round from an
    epsilon-long pair, so the heading error random-walks across hops and the
    drops carry it over distances up to 1 - Delta.  The bound after the last
    scheduled round t = hops + 2 is
    D(t) = 2*t*mu + 8*(1 - Delta)*sqrt(t)*mu/eps, capped at
    0.45*mindist(pattern) so that a formed run has exactly one robot near
    each pattern point.  It is written out here, not imported, so the test
    stays independent of the program; the run keeps the default tolerance,
    so the program's own termination is held to it.  Linearity: every fifth
    instance that forms is rerun at mu/4, which must also form, and the error
    at mu must be a median 3.5 to 4.5 times the error at mu/4.
    """
    formed = 0
    completed = 0
    errors = []
    worst = (0.0, "")
    ratios = []
    for k, (name, plan) in enumerate(corpus_plans):
        eps = plan.params.epsilon
        mu = eps / (20.0 * plan.hops)
        t = plan.hops + 2
        spacing = mindist(plan.pattern)
        bound = min(2.0 * t * mu + 8.0 * (1.0 - plan.path.delta) * math.sqrt(t) * mu / eps,
                    0.45 * spacing)
        cfg = SimConfig(seed=11, max_rounds=plan.hops + 6, noise_mu=mu)
        trace = run_fsync(plan.initial, plan, cfg)
        if trace.verdict == "formed" and trace.max_error <= bound:
            formed += 1
            worst = max(worst, (trace.max_error / (0.5 * spacing), name))
        if set(trace.rounds[-1].phases) == {"dropped"}:
            completed += 1
            _, _, err = verify_pattern(trace.rounds[-1].positions, plan.pattern,
                                       tol=plan.params.epsilon)
            errors.append(err / plan.params.epsilon)
        if k % 5 == 0 and trace.verdict == "formed":
            quarter = run_fsync(plan.initial, plan, replace(cfg, noise_mu=mu / 4.0))
            ratios.append(trace.max_error / quarter.max_error
                          if quarter.verdict == "formed" else math.nan)
    rate = formed / len(corpus_plans)
    ratio = np.median(ratios) if ratios else math.nan
    linear = not np.isnan(ratios).any() and 3.5 <= ratio <= 4.5
    detail = (f"{formed}/{len(corpus_plans)} formed within min(D(hops+2), 0.45*mindist) "
              f"({rate:.0%}), worst error {worst[0]:.2f} of half the minimum spacing "
              f"({worst[1]}); err(mu)/err(mu/4) median {ratio:.2f} over "
              f"{len(ratios)}; {completed} finished all drops, median placement error "
              f"{np.median(errors):.2f}*eps" if errors else
              f"{formed}/{len(corpus_plans)} formed")
    ok = rate >= 0.95 and linear
    assert report("criterion 8 (noise tolerance)", ok, detail), (
        "fewer than 95% of noisy runs formed within the drift bound of the "
        "README's noise model, or the error is not linear in mu")


# --- criterion 9 -----------------------------------------------------------------

def test_criterion_9_last_three_endgame(tail_corpus, corpus_runs):
    runs = {name: (plan, trace) for name, plan, trace, _ in corpus_runs}
    failures = []
    exercised = 0
    for name, pts in tail_corpus:
        plan, trace = runs[name]
        vk = plan.path.vertices[-1]
        far = max(np.hypot(*(plan.tail_points - vk).T))
        if far <= 1.0 - plan.params.delta:
            failures.append((name, "tail not far enough", far))
            continue
        if trace.verdict != "formed":
            failures.append((name, "verdict", trace.verdict))
            continue
        phases = [rec.phases for rec in trace.rounds]
        if not any("in-intermediate-formation" in p for p in phases):
            failures.append((name, "no intermediate round"))
            continue
        for a, b in zip(trace.rounds[:-1], trace.rounds[1:]):
            if np.hypot(*(b.positions - a.positions).T).max() > 1.0 + 1e-7:
                failures.append((name, "displacement"))
                break
        else:
            exercised += 1
    ok = exercised >= 10 and not failures
    assert report("criterion 9 (two-round ending)", ok,
                  f"{exercised} far-tail instances exercised, {len(failures)} failures"), failures[:3]
