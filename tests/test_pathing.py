import json
import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from swarmdraw import pathing, protocol
from swarmdraw.geometry import (TAU_GEOM, dist, from_polar, mindist, pairwise_distances,
                                polar_angle, rotate, smallest_enclosing_circle,
                                unit_disc_connected)
from swarmdraw.protocol import build_plan
from swarmdraw.symmetry import component_indices, cone_index, normalize
from swarmdraw.pathing import (
    DrawingPath,
    PathConstructionError,
    build_drawing_path,
    build_drawing_tree,
    build_tail,
    cone_boundary_distance,
    coverage_and_tail,
    find_connected_triple_rotation,
    path_state_label,
    traverse_tree,
    _validate_path,
)
from swarmdraw.formation import count_states, grid_spec

from corpus import main_corpus, random_connected_pattern, symmetric_pattern, tail_corpus

DELTA = 0.1


def params_for(s_p, eps=0.002):
    return SimpleNamespace(epsilon=eps, delta=DELTA, span=min(2 * math.pi / s_p, math.pi / 3),
                           s_p=s_p)


def grid_for(params):
    return grid_spec(params.delta, params.epsilon, params.span)


def drawing_path(pts, params):
    return build_drawing_path(pts, params, grid_for(params))


# --- drawing tree -------------------------------------------------------------

def test_tree_single_point_prunes_to_root():
    # The coordinate is reachable from the root alone; every base-line node
    # stays out of covering range and is pruned away.
    root = from_polar(2 * DELTA, math.pi)
    comp = np.array([root + [-0.3, 0.8]])
    tree = build_drawing_tree(comp, 1, DELTA, DELTA, margin=0.002)
    assert tree.size == 1
    assert dist(tree.nodes[0], root) <= 1e-12


def test_tree_collinear_chain_attachment():
    comp = np.array([[0.8 * i - 2.0, 1.5] for i in range(5)])
    tree = build_drawing_tree(comp, 1, DELTA, DELTA, margin=0.002)
    for i, par in enumerate(tree.parent):
        if par is not None:
            assert dist(tree.nodes[i], tree.nodes[par]) <= 1 - DELTA + 1e-9
    node_arr = np.stack(tree.nodes)
    for p in comp:
        assert np.hypot(*(node_arr - p).T).min() <= 1 - DELTA + 1e-9


def test_tree_covers_every_coordinate():
    for seed in range(5):
        comp = random_connected_pattern(12, seed=100 + seed)
        tree = build_drawing_tree(comp, 1, DELTA, DELTA, margin=0.002)
        node_arr = np.stack(tree.nodes)
        for p in comp:
            assert np.hypot(*(node_arr - p).T).min() <= 1 - DELTA + 1e-9


def test_traverse_single_node():
    from swarmdraw.pathing import DrawingTree

    tree = DrawingTree([np.zeros(2)], [None], [[]])
    assert len(traverse_tree(tree)) == 1


def test_traverse_star_orders_children_by_angle():
    from swarmdraw.pathing import DrawingTree

    root = np.zeros(2)
    kids = [from_polar(0.5, a) for a in (2.1, 0.4, 4.0)]
    tree = DrawingTree([root] + kids, [None, 0, 0, 0], [[1, 2, 3], [], [], []])
    walk = traverse_tree(tree)
    # root, c(0.4), root, c(2.1), root, c(4.0), root
    assert len(walk) == 7
    assert np.allclose(walk[1], kids[1])
    assert np.allclose(walk[3], kids[0])
    assert np.allclose(walk[5], kids[2])


def test_traverse_hop_bound():
    comp = random_connected_pattern(15, seed=7)
    tree = build_drawing_tree(comp, 1, DELTA, DELTA, margin=0.002)
    walk = traverse_tree(tree)
    assert len(walk) - 1 <= 2 * (tree.size - 1)


# --- connected triple rotation ---------------------------------------------------

def test_triple_rotation_sym1():
    pts = random_connected_pattern(9, seed=3)
    theta, trip = find_connected_triple_rotation(pts, 1)
    tp = pts[list(trip)]
    assert unit_disc_connected(tp)


def test_triple_rotation_two_armed_spiral():
    arm = np.array([[0.5 + 0.6 * t, 0.25 + 0.12 * t] for t in range(5)])
    pts = np.vstack([arm, rotate(arm, math.pi)])
    pts = normalize(pts)
    theta, trip = find_connected_triple_rotation(pts, 2)
    rotated = rotate(pts, theta)
    tp = rotated[list(trip)]
    assert unit_disc_connected(tp)
    assert all(cone_index(p, 2) == 1 for p in tp)
    angles = [math.atan2(p[1], p[0]) % (2 * math.pi) for p in tp]
    assert max(angles) - min(angles) < math.pi


def test_triple_rotation_hexagonal_rings():
    rings = []
    for r in (1.0, 1.8, 2.6):
        rings.append(np.stack([from_polar(r, k * math.pi / 3 + 0.2) for k in range(6)]))
    pts = normalize(np.vstack(rings))
    theta, trip = find_connected_triple_rotation(pts, 6)
    rotated = rotate(pts, theta)
    tp = rotated[list(trip)]
    assert unit_disc_connected(tp)
    assert all(cone_index(p, 6) == 1 for p in tp)
    angles = [math.atan2(p[1], p[0]) % (2 * math.pi) for p in tp]
    assert max(angles) - min(angles) < 2 * math.pi / 6


# --- tail construction ------------------------------------------------------------

def test_tail_component_of_three():
    comp = np.array([[1.0, 0.5], [1.7, 0.9], [1.2, 1.3]])
    tail = build_tail(comp, 1, DELTA, margin=0.002)
    assert tail.z_start is None
    assert all(dist(tail.z_end, p) < 1.0 for p in comp)
    assert len(tail.triple) == 3


def test_tail_chain_of_four():
    comp = np.array([[0.0, 0.0], [0.9, 0.0], [0.45, 0.75], [-1.3, 0.2]])
    tail = build_tail(comp, 1, DELTA, margin=0.002)
    assert tail.z_start is not None
    far = comp[3]
    assert dist(tail.z_start, far) <= 1 - DELTA + 1e-9
    assert dist(tail.z_start, tail.z_end) <= 7.0


def test_tail_margin_respected():
    comp_pts = symmetric_pattern(4, 4, seed=5)
    pts = normalize(comp_pts)
    theta, _ = find_connected_triple_rotation(pts, 4)
    rotated = rotate(pts, theta)
    comp = rotated[[i for i, p in enumerate(rotated) if cone_index(p, 4) == 1]]
    margin = DELTA * math.sin(2 * math.pi / 4)
    tail = build_tail(comp, 4, DELTA, margin=margin)
    assert cone_boundary_distance(tail.z_end, 4) > margin
    if tail.z_start is not None:
        assert cone_boundary_distance(tail.z_start, 4) > margin


# --- triple scans against the full Welzl reference ------------------------------------
#
# The reference scores every unit-disc-connected triple with the Welzl SEC under
# the planner's ranking keys; the planner ranks by batched radii first and runs
# Welzl only on a shortlist, and must pick the same triples bit for bit.

def _reference_rotation(pts, s):
    n = len(pts)
    d = pairwise_distances(pts)
    np.fill_diagonal(d, np.inf)
    tree = cKDTree(pts)
    alpha = 2.0 * math.pi / s
    angles = np.array([polar_angle(p) for p in pts])

    def representative(i, ref):
        best = None
        for k in range(s):
            dd, j = tree.query(rotate(pts[i], k * alpha))
            if dd > TAU_GEOM:
                return None
            off = (angles[j] - ref + math.pi) % (2.0 * math.pi) - math.pi
            if abs(off) < math.pi / s - 1e-12 and (best is None or abs(off) < best[0]):
                best = (abs(off), int(j))
        return best[1] if best else None

    candidates = []
    for b in range(n):
        for a, c in combinations(np.flatnonzero(d[b] <= 1.0 + TAU_GEOM).tolist(), 2):
            if s > 1:
                a, c = representative(a, angles[b]), representative(c, angles[b])
                if a is None or c is None or len({b, a, c}) != 3:
                    continue
            tpts = pts[[b, a, c]]
            radius = smallest_enclosing_circle(tpts).radius
            if radius < 0.98:
                key = (round(radius, 12), sorted(map(tuple, np.round(tpts, 9).tolist())))
                candidates.append((key, (b, a, c)))
    _, trip = min(candidates, key=lambda kv: kv[0])
    offs = [(angles[i] - angles[trip[0]] + math.pi) % (2.0 * math.pi) - math.pi for i in trip]
    return alpha / 2.0 - (angles[trip[0]] + (min(offs) + max(offs)) / 2.0), trip


def _reference_ending_seeds(comp):
    d = pairwise_distances(comp)
    np.fill_diagonal(d, np.inf)
    scored = []
    for b in range(len(comp)):
        for a, c in combinations(np.flatnonzero(d[b] <= 1.0 + TAU_GEOM).tolist(), 2):
            sec = smallest_enclosing_circle(comp[[b, a, c]])
            scored.append((round(sec.radius, 12), tuple(sorted((b, a, c))),
                           np.asarray(sec.center)))
    scored.sort(key=lambda kv: kv[:2])
    seeds = {}
    for _, trip, center in scored[:40]:
        seeds.setdefault(trip, center)
    return list(seeds.items())


# s = 1 at n = 6..60, every symmetric shape (s = 2, 3, 4, 6) and tail-stress blobs.
_MAIN = main_corpus()
_SCAN_CASES = [_MAIN[i] for i in (0, 9, 29, 42, 49)] + _MAIN[50:] + tail_corpus()[::3]


@pytest.mark.parametrize("named", _SCAN_CASES, ids=[name for name, _ in _SCAN_CASES])
def test_triple_scans_match_the_full_welzl_reference(monkeypatch, named):
    params = build_plan(named[1]).params
    s = params.s_p
    pts = normalize(named[1])
    theta, trip = find_connected_triple_rotation(pts, s)
    assert (theta, trip) == _reference_rotation(pts, s)

    canon = rotate(pts, theta)
    comp = canon[component_indices(canon, 1, s)]
    seeds = pathing._ending_seeds(comp)
    reference = _reference_ending_seeds(comp)
    assert [t for t, _ in seeds] == [t for t, _ in reference]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(seeds, reference))

    margin = max(params.epsilon, params.delta * max(math.sin(2.0 * math.pi / s), 0.0))
    tail = build_tail(comp, s, params.delta, margin)
    monkeypatch.setattr(pathing, "_ending_seeds", _reference_ending_seeds)
    ref = build_tail(comp, s, params.delta, margin)
    assert tail.triple == ref.triple
    assert np.array_equal(tail.z_end, ref.z_end)
    assert np.array_equal(tail.extras, ref.extras)
    assert (tail.z_start is None and ref.z_start is None
            or np.array_equal(tail.z_start, ref.z_start))


def test_plan_runs_welzl_only_on_the_shortlists(monkeypatch):
    """Planning an n = 100 pattern makes at most 200 SEC calls through pathing;
    scoring every connected triple made 55,540."""
    calls = []
    inner = pathing.smallest_enclosing_circle

    def counting(points):
        calls.append(1)
        return inner(points)

    monkeypatch.setattr(pathing, "smallest_enclosing_circle", counting)
    monkeypatch.setattr(protocol, "_PLAN_CACHE", {})
    plan = build_plan(random_connected_pattern(100, seed=11))
    assert plan.branch == "draw"
    assert 0 < len(calls) <= 200


# --- coverage, tail, labels ---------------------------------------------------------

def test_coverage_picks_maximal_vertex():
    verts = np.array([[0, 0], [0.5, 0], [1.0, 0], [1.5, 0], [2.0, 0], [2.5, 0]])
    comp = np.array([[1.25, 0.2]])  # within 0.9 of several vertices
    cov, _ = coverage_and_tail(verts, comp, DELTA)
    hits = [i for i, c in enumerate(cov) if c]
    assert hits == [4]  # vertex at x = 2.0 is the last within 0.9


def test_coverage_counts_every_coordinate_once():
    pts = random_connected_pattern(10, seed=11)
    path = drawing_path(pts, params_for(1))
    assert sum(len(c) for c in path.coverage) == len(path.comp)


def test_coverage_unreachable_coordinate_raises():
    verts = np.array([[0.0, 0.0], [0.5, 0.0]])
    comp = np.array([[5.0, 0.0]])
    with pytest.raises(PathConstructionError):
        coverage_and_tail(verts, comp, DELTA)


def test_tail_definition_longest_suffix():
    # Coverage sizes per vertex: [1, 0, 2, 0, 1, 0].  Suffix totals stay
    # below 4 back to index 1; adding index 0 reaches 4, so the tail is the
    # suffix from index 1.
    verts = np.array([[0, 0], [0.8, 0], [1.6, 0], [2.4, 0], [3.2, 0], [4.0, 0]])
    comp = np.array([[0.0, 0.5], [1.6, 0.5], [1.6, -0.5], [3.2, 0.5]])
    cov, tail_start = coverage_and_tail(verts, comp, DELTA)
    assert [len(c) for c in cov] == [1, 0, 2, 0, 1, 0]
    assert tail_start == 1


def test_path_state_labels():
    cov = [(0,), (), (), (1, 2), (), (3,), (), (), ()]
    tail_start = 5  # suffix covering 1 coordinate
    assert path_state_label(cov, tail_start, 0) == (4, 1)
    assert path_state_label(cov, tail_start, 1) == (3, 1)  # index resets after a drop
    assert path_state_label(cov, tail_start, 2) == (3, 2)
    assert path_state_label(cov, tail_start, 3) == (3, 3)
    assert path_state_label(cov, tail_start, 4) == (1, 1)  # body label before tail
    assert path_state_label(cov, tail_start, 5) == (3, 1)  # tail positions count up
    assert path_state_label(cov, tail_start, 8) == (3, 4)


# --- full path construction -----------------------------------------------------------

def test_path_small_symmetric_component():
    pts = symmetric_pattern(2, 3, seed=1)
    params = params_for(2)
    path = drawing_path(pts, params)
    assert len(path.comp) == 3
    assert path.tail_start <= 1  # with three coordinates almost all is tail
    _validate_path(path, params, grid_for(params))     # raises on a failed property


def test_path_random_pattern_compatible():
    pts = random_connected_pattern(20, seed=23)
    params = params_for(1)
    path = drawing_path(pts, params)
    _validate_path(path, params, grid_for(params))     # raises on a failed property


def test_path_starts_at_formation_anchor():
    pts = random_connected_pattern(8, seed=2)
    path = drawing_path(pts, params_for(1))
    assert np.allclose(path.vertices[0], from_polar(2 * DELTA, math.pi), atol=1e-12)


def test_path_hop_lengths_bounded():
    pts = random_connected_pattern(14, seed=4)
    path = drawing_path(pts, params_for(1))
    steps = np.hypot(*np.diff(path.vertices, axis=0).T)
    assert steps.max() <= 1 - DELTA + 1e-9


def test_path_deterministic():
    pts = random_connected_pattern(12, seed=9)
    a = drawing_path(pts, params_for(1))
    b = drawing_path(pts, params_for(1))
    assert np.array_equal(a.vertices, b.vertices)
    assert a.coverage == b.coverage and a.labels == b.labels


def test_path_labels_are_valid_states():
    pts = random_connected_pattern(16, seed=13)
    params = params_for(1)
    path = drawing_path(pts, params)
    grid = grid_for(params)
    for size, idx in path.labels:
        assert 1 <= idx <= count_states(grid, size)


def test_path_rotated_copies_stay_in_their_cones():
    pts = symmetric_pattern(4, 4, seed=3)
    params = params_for(4)
    path = drawing_path(pts, params)
    margin = max(params.epsilon, DELTA * math.sin(2 * math.pi / 4))
    for k in range(4):
        rotated = rotate(path.vertices, k * 2 * math.pi / 4)
        for v in rotated:
            assert cone_index(v, 4) == k + 1
    assert min(cone_boundary_distance(v, 4) for v in path.vertices) > margin


def test_compatibility_fails_when_epsilon_hits_mindist():
    # A close pair makes mindist small enough that epsilon can match it
    # while still fitting the hull grid; property (1) is strict.
    pts = np.vstack([random_connected_pattern(8, seed=31), [[0.02, 0.005]]])
    params = params_for(1, eps=0.001)
    path = drawing_path(pts, params)
    md = mindist(path.pattern)
    assert md < DELTA / 3
    bad = SimpleNamespace(epsilon=md, delta=DELTA, span=math.pi / 3, s_p=1)
    with pytest.raises(PathConstructionError, match="epsilon is not below the pattern's minimum"):
        _validate_path(path, bad, grid_for(bad))


def test_compatibility_fails_on_overlong_tail():
    """A grid with one size-3 state has fewer than 6 locations, so it admits no
    empty-coverage run, and no tail longer than one vertex."""
    coarse = SimpleNamespace(epsilon=0.032, delta=DELTA, span=math.pi / 3, s_p=1)
    grid = grid_for(coarse)
    assert count_states(grid, 3) == 1 and grid.locations < 6
    path = drawing_path(random_connected_pattern(10, seed=37), params_for(1))
    assert not all(path.coverage)
    with pytest.raises(PathConstructionError, match="empty-coverage run exceeds the 0 states"):
        _validate_path(path, coarse, grid)
    # Two tail vertices and no empty coverage: the tail labels are (3, 1), (3, 2).
    start = from_polar(2 * DELTA, math.pi)
    pattern = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    short = DrawingPath(pattern, (0, 1, 2), np.stack([start, start + [0.5, 0.0]]), DELTA,
                        ((0,), (1, 2)), tail_start=0, labels=((3, 1), (3, 2)))
    with pytest.raises(PathConstructionError, match=r"state \(3, 2\) is not encodable"):
        _validate_path(short, coarse, grid)


def test_path_serialization_round_trip(tmp_path):
    """The plan file that save_path writes reads back as the path's to_dict,
    field by field."""
    from swarmdraw.pathing import save_path

    pts = random_connected_pattern(9, seed=41)
    path = drawing_path(pts, params_for(1))
    f = tmp_path / "plan.json"
    save_path(path, f)
    with open(f, encoding="utf-8") as fh:
        saved = json.load(fh)
    want = path.to_dict()
    assert saved.keys() == want.keys()
    for key, value in want.items():
        assert saved[key] == value, key
    assert path.vertex_of_label(*path.labels[-1]) == len(path.vertices) - 1
