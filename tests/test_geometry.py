import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import swarmdraw
from swarmdraw.geometry import (
    mindist,
    pairwise_distances,
    rotate,
    signed_angle,
    smallest_enclosing_circle,
    unit_disc_connected,
)


def test_signed_angle_quarter_turn():
    assert signed_angle((1, 0), (0, 1)) == pytest.approx(math.pi / 2)


def test_signed_angle_identity():
    assert signed_angle((1, 0), (1, 0)) == 0.0


def test_signed_angle_half_turn_positive():
    assert signed_angle((1, 0), (-1, 0)) == pytest.approx(math.pi)
    assert signed_angle((1, 0), (-1, 0)) > 0


def test_signed_angle_zero_vector_rejected():
    with pytest.raises(ValueError):
        signed_angle((0, 0), (1, 0))


def test_signed_angle_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        a = signed_angle(u, v)
        if abs(a - math.pi) < 1e-9:
            continue
        assert signed_angle(v, u) == pytest.approx(-a, abs=1e-12)


def test_sec_single_point():
    c = smallest_enclosing_circle([(2.0, 3.0)])
    assert c.center == (2.0, 3.0) and c.radius == 0.0


def test_sec_diameter_pair():
    c = smallest_enclosing_circle([(-1, 0), (1, 0)])
    assert c.center == pytest.approx((0, 0)) and c.radius == pytest.approx(1.0)


def _brute_force_sec(pts):
    """Minimal circle over all pair-diameter and triple-circumcircle candidates."""
    from swarmdraw.geometry import _circle_diameter, _circumcircle

    pts = [tuple(p) for p in pts]
    best = None
    candidates = [_circle_diameter(p, q) for p, q in combinations(pts, 2)]
    candidates += [c for trip in combinations(pts, 3)
                   if (c := _circumcircle(*trip)) is not None]
    arr = np.asarray(pts)
    for cx, cy, r in candidates:
        if np.hypot(arr[:, 0] - cx, arr[:, 1] - cy).max() <= r + 1e-9:
            if best is None or r < best[2]:
                best = (cx, cy, r)
    return best


def test_sec_matches_brute_force():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3, 3, (50, 2))
    fast = smallest_enclosing_circle(pts)
    slow = _brute_force_sec(pts)
    assert fast.radius == pytest.approx(slow[2], abs=1e-9)
    assert fast.center[0] == pytest.approx(slow[0], abs=1e-9)
    assert fast.center[1] == pytest.approx(slow[1], abs=1e-9)


def test_sec_rigid_motion_invariance():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, (20, 2))
    base = smallest_enclosing_circle(pts)
    for theta, shift in [(0.7, (3, -1)), (-2.1, (0, 5)), (1.9, (-4, 2))]:
        moved = rotate(pts, theta) + np.asarray(shift)
        c = smallest_enclosing_circle(moved)
        assert c.radius == pytest.approx(base.radius, abs=1e-9)
        expect = rotate(np.asarray(base.center), theta) + np.asarray(shift)
        assert np.allclose(c.center, expect, atol=1e-9)


def test_mindist_345():
    assert mindist([(0, 0), (3, 4)]) == pytest.approx(5.0)


def test_mindist_unit_square():
    assert mindist([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0)


def test_mindist_matches_naive_scan():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, (30, 2))
    naive = min(math.dist(p, q) for p, q in combinations(pts.tolist(), 2))
    assert mindist(pts) == pytest.approx(naive)


def test_mindist_domain_errors():
    with pytest.raises(ValueError):
        mindist([(0, 0)])
    with pytest.raises(ValueError):
        mindist([(0, 0), (0, 0)])


def test_unit_disc_connectivity_basics():
    assert unit_disc_connected([(0, 0), (0.9, 0)])
    assert not unit_disc_connected([(0, 0), (1.01, 0)])
    chain = [(0.99 * i, 0.0) for i in range(10)]
    assert unit_disc_connected(chain)
    assert unit_disc_connected([(0, 0), (1.0, 0)])  # boundary distance counts


def test_unit_disc_rigid_motion_invariance():
    rng = np.random.default_rng(4)
    for trial in range(10):
        pts = rng.uniform(-2, 2, (12, 2))
        base = unit_disc_connected(pts)
        moved = rotate(pts, rng.uniform(0, 7)) + rng.uniform(-3, 3, 2)
        assert unit_disc_connected(moved) == base


def test_pairwise_distances_symmetry():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (8, 2))
    d = pairwise_distances(pts)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)


def test_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize is imported only when match_points' fallback runs."""
    src = Path(swarmdraw.__file__).resolve().parents[1]
    code = "import sys, swarmdraw, swarmdraw.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_import_and_noiseless_runs_load_no_scipy():
    """Importing the package and CLI, a noiseless drawing run from the initial
    cluster and a scaled star run load no scipy module at all."""
    src = Path(swarmdraw.__file__).resolve().parents[1]
    code = """
import json, math, sys
import numpy as np
import swarmdraw, swarmdraw.cli
from swarmdraw import SimConfig, build_plan, run_fsync
from corpus import random_connected_pattern
runs = []
draw = build_plan(random_connected_pattern(8, seed=3))
trace = run_fsync(draw.initial, draw, SimConfig(max_rounds=draw.hops + 4))
runs.append([draw.branch, trace.verdict])
ang = 2.0 * math.pi * np.arange(14) / 14
star = build_plan(2.0 * np.column_stack([np.cos(ang), np.sin(ang)]))
trace = run_fsync(star.star.kappa0 * star.pattern, star, SimConfig(max_rounds=10))
runs.append([star.branch, trace.verdict])
print(json.dumps([runs, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    runs, loaded = json.loads(out.stdout)
    assert runs == [["draw", "formed"], ["star", "formed"]]
    assert loaded == []
