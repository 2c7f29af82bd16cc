import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from swarmdraw.geometry import from_polar, rotate, smallest_enclosing_circle
from swarmdraw.symmetry import (
    cone_index,
    component_indices,
    normalize,
    symmetricity,
)
from swarmdraw.protocol import build_plan
from swarmdraw.simulator import SimConfig, run_fsync, verify_pattern

from corpus import symmetric_pattern


def oracle_symmetricity(points: np.ndarray, tol: float = 1e-9) -> int:
    """Brute force: the largest divisor m of n whose rotation maps P onto itself."""
    n = len(points)
    tree = cKDTree(points)
    best = 1
    for m in range(2, n + 1):
        if n % m:
            continue
        rotated = rotate(points, 2 * math.pi / m)
        dd, idx = tree.query(rotated, k=1)
        if dd.max() <= tol and len(set(idx.tolist())) == n:
            best = max(best, m)
    return best


def test_normalize_pair():
    assert np.allclose(normalize(np.array([[1.0, 0.0], [3.0, 0.0]])), [[-1, 0], [1, 0]])


def test_normalize_idempotent_on_centered_square():
    square = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(normalize(square), square)


def test_normalize_centers_sec():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pts = rng.uniform(-4, 4, (15, 2))
        out = normalize(pts)
        c = smallest_enclosing_circle(out)
        assert math.hypot(*c.center) < 1e-9


def test_duplicate_points_rejected():
    """Coincident pattern points are rejected where a pattern enters the package."""
    pts = symmetric_pattern(2, 3, seed=5)
    dup = np.vstack([pts, pts[:1]])
    with pytest.raises(ValueError, match="duplicate"):
        build_plan(dup)
    plan = build_plan(pts)
    start = np.vstack([plan.initial, [[5.0, 5.0]]])
    with pytest.raises(ValueError, match="duplicate"):
        run_fsync(start, dup, SimConfig(max_rounds=0))
    with pytest.raises(ValueError, match="duplicate"):
        verify_pattern(start, dup)


def test_symmetricity_regular_square():
    square = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    info = symmetricity(square)
    assert info.sym == 4
    assert sorted(sum(info.orbit_partition, [])) == [0, 1, 2, 3]


def test_symmetricity_center_point_breaks_symmetry():
    pts = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [0, 0]], dtype=float)
    assert symmetricity(pts).sym == 1


def test_symmetricity_matches_oracle_on_constructed_patterns():
    cases = []
    for i, s in enumerate([1, 2, 3, 4, 6] * 8):
        m = 3 + (i % 3)
        if s == 1:
            rng = np.random.default_rng(500 + i)
            pts = normalize(rng.uniform(-2, 2, (3 * m, 2)))
        else:
            pts = normalize(symmetric_pattern(s, m, seed=600 + i))
        cases.append((s, pts))
    assert len(cases) == 40
    for s, pts in cases:
        info = symmetricity(pts)
        assert info.sym == oracle_symmetricity(pts) == s


def test_symmetricity_rotation_invariant():
    pts = normalize(symmetric_pattern(3, 4, seed=42))
    rng = np.random.default_rng(7)
    for _ in range(100):
        rotated = rotate(pts, rng.uniform(0, 2 * math.pi))
        assert symmetricity(rotated).sym == 3


def test_symmetricity_witness_rotation():
    pts = normalize(symmetric_pattern(4, 3, seed=9))
    s = symmetricity(pts).sym
    tree = cKDTree(pts)
    dd, _ = tree.query(rotate(pts, 2 * math.pi / s))
    assert dd.max() <= 1e-9
    # A rotation by 2*pi/m for a non-divisor m must not map P onto itself.
    dd, _ = tree.query(rotate(pts, 2 * math.pi / 3))
    assert dd.max() > 1e-6


def test_cone_index_basics():
    assert cone_index((1, 0), 4) == 1
    assert cone_index((0, 1), 4) == 2
    p = from_polar(1.0, 2 * math.pi / 7 - 1e-12)
    assert cone_index(p, 7) == 1
    assert cone_index(from_polar(1.0, 2 * math.pi / 7 + 1e-12), 7) == 2


def test_cone_index_origin_rejected():
    with pytest.raises(ValueError):
        cone_index((0, 0), 3)


def test_cone_boundary_point_belongs_to_lower_edge_cone():
    # Exactly on the ray between cones 1 and 2.
    p = from_polar(2.0, 2 * math.pi / 4)
    assert cone_index(p, 4) == 2


def test_symmetric_component_hexagon():
    hexagon = np.stack([from_polar(1.0, k * math.pi / 3 + 0.1) for k in range(6)])
    comp = hexagon[component_indices(hexagon, 1, 6)]
    assert len(comp) == 1


def test_symmetric_component_sym1_is_whole_pattern():
    rng = np.random.default_rng(11)
    pts = normalize(rng.uniform(-1, 1, (7, 2)))
    assert len(pts[component_indices(pts, 1, 1)]) == 7


def test_components_partition_pattern():
    pts = normalize(symmetric_pattern(4, 4, seed=21))
    seen = []
    for i in range(1, 5):
        idx = component_indices(pts, i, 4)
        assert len(idx) == 4
        seen.extend(idx.tolist())
    assert sorted(seen) == list(range(16))
