import math
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from swarmdraw.geometry import TAU_GEOM, pairwise_distances, rotate, unit
from swarmdraw.formation import (
    Detections,
    DrawingHull,
    FormationError,
    count_states,
    grid_spec,
    index_of_state,
    state_by_index,
    state_from_cells,
    _decode,
    _lateral_distance,
    _snap_cells,
)
from swarmdraw.pathing import PathConstructionError, _validate_path
from swarmdraw.protocol import (
    Phase,
    _canonical_order,
    _move_tables,
    build_plan,
    robot_decision,
)

from corpus import random_connected_pattern
from test_protocol import _WINDOW_CASES, _run_views, detect_one, overlapping_pairs

SPAN = math.pi / 3


def make_hull(anchor=(0.0, 0.0), direction=(1.0, 0.0), span=SPAN, diameter=0.1):
    return DrawingHull(np.asarray(anchor, float), np.asarray(direction, float), span, diameter)


def scan_locations(hull, eps):
    """Independent oracle: scan the (i, j) grid and keep wedge members."""
    out = [np.array(hull.anchor)]
    lim = int(math.ceil(hull.diameter / eps)) + 2
    d = hull.direction
    dp = np.array([-d[1], d[0]])
    for i in range(lim):
        for j in range(lim):
            p = hull.anchor + (1 + 2 * i) * eps * d + 2 * j * eps * dp
            v = p - hull.anchor
            r = np.hypot(*v)
            if r > hull.diameter + 1e-9:
                continue
            ang = math.atan2(float(v @ dp), float(v @ d))
            if not 0 <= ang < hull.span:
                continue
            out.append(p)
    return np.array(out)


def grid_locations(hull, eps):
    """The grid's anchor and cells, in id order, placed in the hull."""
    grid = grid_spec(hull.diameter, eps, hull.span)
    return hull.to_global(grid.cells_local(range(grid.locations)))


def test_epsilon_locations_match_scan():
    hull = make_hull()
    got = grid_locations(hull, 0.04)
    want = scan_locations(hull, 0.04)
    assert len(got) == len(want)
    got_s = sorted(map(tuple, np.round(got, 9)))
    want_s = sorted(map(tuple, np.round(want, 9)))
    assert got_s == want_s


def test_epsilon_locations_half_diameter():
    hull = make_hull()
    got = grid_locations(hull, 0.05)
    assert len(got) == 2  # anchor plus the single cell at anchor + eps*d


def test_epsilon_locations_rotated_hull_equivariant():
    base = make_hull()
    rot = make_hull(direction=(math.cos(0.5236), math.sin(0.5236)))
    a = grid_locations(base, 0.02)
    b = grid_locations(rot, 0.02)
    assert np.allclose(rotate(a, 0.5236), b, atol=1e-9)


@pytest.mark.parametrize("eps, delta, span, message", [
    (0.1, 0.1, SPAN, "epsilon < diameter"),
    (0.0, 0.1, SPAN, "epsilon < diameter"),
    (-0.01, 0.1, SPAN, "epsilon < diameter"),
    (0.01, 0.2, SPAN, "diameter must be <= 1/6"),
    (0.01, 0.1, 0.0, "span must lie in"),
    (0.01, 0.1, -0.5, "span must lie in"),
    (0.01, 0.1, SPAN + 0.01, "span must lie in"),
], ids=["eps-equals-delta", "eps-zero", "eps-negative", "delta-above-sixth", "span-zero",
        "span-negative", "span-above-third-of-pi"])
def test_grid_spec_rejects_invalid_parameters(eps, delta, span, message):
    with pytest.raises(FormationError, match=message):
        grid_spec(delta, eps, span)


def brute_force_axis_count(delta, eps):
    count = 0
    i = 1
    while (1 + 2 * i) * eps <= delta + 1e-9:
        count += 1
        i += 1
    return count


def test_count_states_three_robots_example():
    grid = grid_spec(0.1, 0.01, SPAN)
    assert count_states(grid, 3) == 4


def test_count_states_three_robots_degenerate():
    grid = grid_spec(0.1, 0.05, SPAN)
    assert count_states(grid, 3) == 0


def test_count_states_three_robots_matches_formula_and_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ratio = rng.uniform(3, 50)
        delta = 0.1
        eps = delta / ratio
        grid = grid_spec(delta, eps, SPAN)
        formula = int((ratio - 1) // 2)
        assert count_states(grid, 3) == formula == brute_force_axis_count(delta, eps)


def enumerate_states_brute(grid, size):
    """All distinct occupied-cell sets that form a legal state."""
    k = grid.locations
    axis = {grid.axis_id(i) for i in range(1, grid.i_max + 1)}
    found = set()
    for cells in combinations(range(k), size):
        s = set(cells)
        if 0 in s and 1 in s and s & axis:
            found.add(tuple(sorted(s)))
    return found


def test_count_states_matches_exhaustive_enumeration_small():
    grid = grid_spec(0.1, 0.02, SPAN)  # few locations: exhaustive is cheap
    for size in range(3, grid.locations + 1):
        assert count_states(grid, size) == len(enumerate_states_brute(grid, size))


def test_count_states_full_occupancy():
    grid = grid_spec(0.1, 0.02, SPAN)
    k = grid.locations
    assert count_states(grid, k) == len(enumerate_states_brute(grid, k)) == 1


def test_count_states_lower_bound_for_larger_sizes():
    for eps in (0.02, 0.015, 0.012):
        grid = grid_spec(0.1, eps, SPAN)
        for size in range(4, grid.locations):
            assert count_states(grid, size) >= grid.locations - 3


def test_count_states_needs_three_robots():
    with pytest.raises(FormationError):
        count_states(grid_spec(0.1, 0.01, SPAN), 2)


def test_state_by_index_first_state_is_minimal():
    grid = grid_spec(0.1, 0.01, SPAN)
    spec = state_by_index(grid, 5, 1)
    assert spec.third == 1
    # Free cells are the colexicographically smallest available ids.
    avail = [c for c in range(2, grid.locations) if c != grid.axis_id(1)]
    assert list(spec.free) == avail[:2]


def test_state_enumeration_round_trip_full():
    grid = grid_spec(0.1, 0.01, SPAN)  # diameter/eps = 10
    for size in (3, 4, 5):
        total = count_states(grid, size)
        seen = set()
        for idx in range(1, total + 1):
            spec = state_by_index(grid, size, idx)
            assert index_of_state(spec) == idx
            key = tuple(spec.cell_ids())
            assert key not in seen
            seen.add(key)


def test_state_out_of_range():
    grid = grid_spec(0.1, 0.01, SPAN)
    with pytest.raises(FormationError):
        state_by_index(grid, 3, 0)
    with pytest.raises(FormationError):
        state_by_index(grid, 3, count_states(grid, 3) + 1)
    with pytest.raises(FormationError, match="cell ids out of range"):
        grid.cells_local([0, grid.locations])


def test_state_index_frame_independent():
    grid = grid_spec(0.1, 0.01, SPAN)
    spec = state_by_index(grid, 6, 23)
    for theta, anchor in [(0.0, (0, 0)), (1.1, (3, -2)), (-2.6, (0.4, 0.9))]:
        hull = make_hull(anchor=anchor, direction=(math.cos(theta), math.sin(theta)))
        det = detect_one(spec.points(hull), grid)
        assert len(det.state) == 1
        assert det.state[0] == 23 and det.bounds[1] == 6


def _one_window(found):
    """The one-window Detections of (anchor, heading, members, local, state)
    tuples, in their order."""
    return Detections(np.zeros(len(found), dtype=np.int64),
                      np.array([f[0] for f in found]).reshape(-1, 2),
                      np.array([f[1] for f in found]).reshape(-1, 2),
                      np.array([f[4] for f in found], dtype=np.int64),
                      np.cumsum([0] + [len(f[2]) for f in found], dtype=np.int64),
                      np.concatenate([np.zeros(0, dtype=np.int64)] + [f[2] for f in found]),
                      np.concatenate([np.zeros((0, 2))] + [f[3] for f in found]))


def _detect_reference(points, grid, tol):
    """Reference for detect_arrays of one window: a hull and a hull-local pass
    for each orientation of every epsilon-pair, one candidate at a time."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return _one_window([])
    pair_i, pair_j = np.nonzero(np.abs(pairwise_distances(pts) - grid.epsilon) <= tol)
    found = {}
    for a, b in zip(pair_i.tolist(), pair_j.tolist()):
        if a > b:
            continue
        for p, q in ((a, b), (b, a)):
            det = _candidate_reference(pts, p, q, grid, tol)
            if det is not None:
                key = tuple(np.round(np.concatenate(det[:2]), 8).tolist())
                found.setdefault(key, det)
    return _one_window([found[k] for k in sorted(found)])


def _candidate_reference(pts, p, q, grid, tol):
    eps, delta = grid.epsilon, grid.delta
    hull = DrawingHull(pts[p], unit(pts[q] - pts[p]), grid.span, delta)
    loc = hull.local(pts)
    x, y = loc[:, 0], loc[:, 1]
    i = np.rint((x / eps - 1.0) / 2.0)
    third = ((np.abs(y) <= tol) & (x >= 3 * eps - tol) & (x <= delta + tol)
             & (i >= 1) & (np.abs(x - (1 + 2 * i) * eps) <= tol))
    third[[p, q]] = False
    if not third.any():
        return None
    members = np.nonzero((np.hypot(x, y) <= delta + tol)
                         & (_lateral_distance(x, y, grid.span) <= tol))[0]
    if len(members) < 3:
        return None
    xs, ys = x[members], y[members]
    at_anchor = np.hypot(xs, ys) <= tol
    ci = np.rint((xs / eps - 1.0) / 2.0).astype(np.int64)
    cj = np.rint(ys / (2.0 * eps)).astype(np.int64)
    col = np.clip(ci, 0, grid.i_max)
    ok = (ci >= 0) & (cj >= 0) & (ci <= grid.i_max) & (cj < grid.col_sizes[col])
    ok &= np.hypot(xs - (1 + 2 * ci) * eps, ys - 2 * cj * eps) <= tol
    if not (ok | at_anchor).all():
        return None
    cells = np.where(at_anchor, 0, 1 + grid.col_prefix[col] + cj)
    decoded = _decode(grid, tuple(sorted(cells.tolist())))
    if decoded is None:
        return None
    return hull.anchor, hull.direction, members, loc[members], decoded[1]


def _dense_detect(points, grid, tol):
    """Reference for detect_arrays of one window: detection with the dense
    epsilon-pair search over all m(m - 1)/2 pairs, pairs row by row."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m < 3:
        return _one_window([])
    eps, delta = grid.epsilon, grid.delta
    z = pts[:, 0] + 1j * pts[:, 1]
    b, a = np.tril_indices(m, -1)
    close = np.flatnonzero(np.abs(np.abs(z[b] - z[a]) - eps) <= tol)
    if not len(close):
        return _one_window([])
    close = close[np.argsort(a[close], kind="stable")]
    a, b = a[close], b[close]
    p_idx = np.empty(2 * len(a), dtype=a.dtype)
    q_idx = np.empty_like(p_idx)
    p_idx[0::2], p_idx[1::2] = a, b
    q_idx[0::2], q_idx[1::2] = b, a
    rows = np.arange(len(p_idx))
    rel = z[None, :] - z[p_idx, None]
    u = rel[rows, q_idx] / np.abs(rel[rows, q_idx])
    local = rel * u.conj()[:, None]
    x, y = local.real, local.imag
    i = np.rint((x / eps - 1.0) / 2.0)
    third = ((np.abs(y) <= tol) & (x >= 3 * eps - tol) & (x <= delta + tol)
             & (i >= 1) & (np.abs(x - (1 + 2 * i) * eps) <= tol))
    third[rows, p_idx] = False
    third[rows, q_idx] = False
    found = {}
    for c in np.flatnonzero(third.any(axis=1)).tolist():
        col = np.flatnonzero(np.hypot(x[c], y[c]) <= delta + tol)
        col = col[_lateral_distance(x[c, col], y[c, col], grid.span) <= tol]
        xs, ys = x[c, col], y[c, col]
        cells, on_grid = _snap_cells(grid, xs, ys, eps, tol)
        if len(col) < 3 or not on_grid.all():
            continue
        decoded = _decode(grid, tuple(sorted(cells.tolist())))
        if decoded is None:
            continue
        anchor, heading = pts[p_idx[c]], np.array([u[c].real, u[c].imag])
        hull = DrawingHull(anchor, heading, grid.span, delta)
        key = tuple(np.round(np.concatenate([hull.anchor, hull.direction]), 8).tolist())
        found.setdefault(key, (anchor, heading, col, np.column_stack([xs, ys]), decoded[1]))
    return _one_window([found[k] for k in sorted(found)])


def window_of(det, w):
    """Window w's formations of a many-window Detections, as one window."""
    lo, hi = np.searchsorted(det.window, [w, w + 1])
    return Detections(det.window[lo:hi] - w, det.anchor[lo:hi], det.heading[lo:hi],
                      det.state[lo:hi], det.bounds[lo:hi + 1] - det.bounds[lo],
                      det.members[det.bounds[lo]:det.bounds[hi]],
                      det.local[det.bounds[lo]:det.bounds[hi]])


def assert_bit_equal(got, want):
    """Two detection results hold the same formations, bit for bit: every
    field has the same dtype, shape and bytes."""
    for name, g, w in zip(Detections._fields, got, want, strict=True):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name


def _assert_detection_matches_reference(pts, grid, tol=TAU_GEOM):
    got = detect_one(pts, grid, tol)
    assert_bit_equal(got, _dense_detect(pts, grid, tol))
    want = _detect_reference(pts, grid, tol)
    for name in ("window", "state", "bounds", "members"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("anchor", "heading", "local"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.allclose(a, b, atol=1e-12, rtol=0), name
    return got


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_detection_equals_per_candidate_reference(case):
    """Every robot's whole view in every round of a run, at the noiseless
    detection tolerance and at the noisy cap 0.45*epsilon; the sweep's result
    is also bit-equal to the dense single-window reference."""
    plan, views = _run_views(case)
    found = 0
    for pts in views:
        for tol in (TAU_GEOM, 0.45 * plan.params.epsilon):
            found += len(_assert_detection_matches_reference(pts, plan.grid, tol).state)
    assert found


def test_detect_synthesize_round_trip_random():
    grid = grid_spec(0.1, 0.01, SPAN)
    rng = np.random.default_rng(1)
    for _ in range(500):
        size = int(rng.integers(3, 8))
        idx = int(rng.integers(1, count_states(grid, size) + 1))
        theta = rng.uniform(0, 2 * math.pi)
        anchor = rng.uniform(-5, 5, 2)
        hull = make_hull(anchor=anchor, direction=(math.cos(theta), math.sin(theta)))
        spec = state_by_index(grid, size, idx)
        pts = spec.points(hull)
        # Far decoys must not disturb the detection.
        decoys = anchor + np.stack([(1.5 + rng.uniform(0, 3)) * unit(rng.normal(size=2))
                                    for _ in range(5)])
        det = _assert_detection_matches_reference(np.vstack([pts, decoys]), grid)
        assert len(det.state) == 1
        assert det.bounds[1] == size and det.state[0] == idx
        assert np.hypot(*(det.anchor[0] - anchor)) <= 1e-9


def test_detect_nothing_without_epsilon_pair():
    grid = grid_spec(0.1, 0.01, SPAN)
    pts = np.array([[0, 0], [0.5, 0], [0.2, 0.4]])
    assert len(detect_one(pts, grid).state) == 0


def test_detect_two_disjoint_formations():
    grid = grid_spec(0.1, 0.01, SPAN)
    h1 = make_hull(anchor=(0, 0))
    h2 = make_hull(anchor=(0.7, 0.3), direction=unit(np.array([1.0, 1.0])))
    pts = np.vstack([state_by_index(grid, 4, 2).points(h1),
                     state_by_index(grid, 5, 7).points(h2)])
    det = _assert_detection_matches_reference(pts, grid)
    assert len(det.state) == 2
    assert sorted(np.diff(det.bounds).tolist()) == [4, 5]


def test_detect_rejects_off_grid_intruder():
    grid = grid_spec(0.1, 0.01, SPAN)
    hull = make_hull()
    pts = state_by_index(grid, 4, 3).points(hull)
    intruder = hull.anchor + np.array([0.033, 0.004])  # inside hull, off grid
    det = _assert_detection_matches_reference(np.vstack([pts, [intruder]]), grid)
    assert len(det.state) == 0


def test_validity_single_formation_with_drops():
    grid = grid_spec(0.1, 0.01, SPAN)
    pts = state_by_index(grid, 4, 1).points(make_hull(anchor=(0.2, 0.1)))
    drops = np.array([[1.2, 0.3], [0.9, -0.8], [-0.5, 0.6]])
    det = detect_one(np.vstack([pts, drops]), grid, TAU_GEOM)
    assert overlapping_pairs(det, grid) == [] and len(det.state) == 1


def test_validity_overlapping_hulls_reported():
    # Both wedges contain the region around (0.07, 0.07) while every robot
    # stays outside the other hull, so both formations are detected.
    grid = grid_spec(0.1, 0.01, SPAN)
    spec = state_by_index(grid, 3, 2)
    pts1 = spec.points(make_hull(anchor=(0.0, 0.0)))
    pts2 = spec.points(make_hull(anchor=(0.13, 0.12),
                                 direction=unit(np.array([-0.735, -0.678]))))
    det = detect_one(np.vstack([pts1, pts2]), grid, TAU_GEOM)
    assert len(det.state) == 2
    assert overlapping_pairs(det, grid) == [(0, 1)]


def test_validity_of_initial_pattern_sym7():
    grid = grid_spec(0.1, 0.005, 2 * math.pi / 7)
    pts = np.vstack([rotate(state_by_index(grid, 3, 1).points(
        DrawingHull(np.array([0.2 * math.cos(math.pi / 7), 0.2 * math.sin(math.pi / 7)]),
                    np.array([1.0, 0.0]), 2 * math.pi / 7, 0.1)),
        k * 2 * math.pi / 7) for k in range(7)])
    det = detect_one(pts, grid, TAU_GEOM)
    assert overlapping_pairs(det, grid) == [] and len(det.state) == 7


# --- formation moves: the plan's per-vertex tables, read by robot_decision ---------

@lru_cache(maxsize=None)
def _move_plan():
    """A drawing plan (symmetricity 1) and its first vertex that drops robots."""
    plan = build_plan(random_connected_pattern(12, seed=5))
    path = plan.path
    assert plan.params.s_p == 1
    vi = next(i for i in range(path.tail_start) if path.coverage[i])
    return plan, vi


def _formation_moves(plan, positions, seed=0):
    """Global targets of every robot of positions in a drawing formation, each
    decided from its own randomly rotated view: {robot: target}."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(len(positions)):
        theta = float(rng.uniform(0, 2 * math.pi))
        rel = np.delete(positions, i, axis=0) - positions[i]
        local = rotate(rel[np.hypot(*rel.T) <= 1.0 + 1e-9], theta)
        view = np.vstack([np.zeros((1, 2)), local])
        dec = robot_decision(view, plan)
        if dec.phase is Phase.FORMATION:
            assert np.hypot(*dec.target) <= 1.0 + 1e-9
            out[i] = positions[i] + rotate(dec.target, -theta)
    return out


def test_plan_move_identity():
    """A table holding the formation's own cells (no move, same state) keeps
    every member in place, whatever its frame."""
    plan, _ = _move_plan()
    cells = state_by_index(plan.grid, *plan.path.labels[0]).local
    stay = replace(plan, moves=[cells[_canonical_order(cells)]] + plan.moves[1:])
    targets = _formation_moves(stay, plan.schedule[0].positions)
    assert len(targets) == len(cells)
    for i, t in targets.items():
        assert np.allclose(t, plan.schedule[0].positions[i], atol=1e-12)


def test_plan_move_drop_within_reach():
    """Every member of a dropping formation moves at most 1 (checked in
    _formation_moves), and the drops land on their pattern points."""
    plan, vi = _move_plan()
    path = plan.path
    targets = np.array(list(_formation_moves(plan, plan.schedule[vi].positions).values()))
    assert len(targets) == path.labels[vi][0]
    for drop in path.pattern[list(path.coverage[vi])]:
        assert np.hypot(*(targets - drop).T).min() <= 1e-9


def test_plan_move_rejects_long_move():
    """A path edge longer than 1 - diameter fails path validation, so no move
    table is built for it."""
    plan, _ = _move_plan()
    vertices = plan.path.vertices.copy()
    vertices[1] = vertices[0] + np.array([0.95, 0.0])
    with pytest.raises(PathConstructionError, match="consecutive vertices too far apart"):
        _validate_path(replace(plan.path, vertices=vertices), plan.params, plan.grid)
    _validate_path(plan.path, plan.params, plan.grid)
    assert len(_move_tables(plan)) == len(plan.path.vertices)


def test_plan_move_traversal_round_trip():
    """Moving and dropping then re-detecting yields the commanded next state."""
    plan, vi = _move_plan()
    path = plan.path
    positions = plan.schedule[vi].positions.copy()
    for i, t in _formation_moves(plan, positions, seed=1).items():
        positions[i] = t
    det = detect_one(positions, plan.grid)
    assert len(det.state) == 1
    assert (det.bounds[1], det.state[0]) == path.labels[vi + 1]
    assert np.allclose(det.anchor[0], path.vertices[vi + 1], atol=1e-9)
    assert np.allclose(det.heading[0], [1.0, 0.0], atol=1e-9)


def test_state_from_cells_requires_defining_robots():
    grid = grid_spec(0.1, 0.01, SPAN)
    with pytest.raises(FormationError):
        state_from_cells(grid, [0, 2, 3])  # second defining robot missing
    with pytest.raises(FormationError):
        state_from_cells(grid, [0, 1, 3])  # cell (1, 1) is off-axis: no third robot
    assert state_from_cells(grid, [0, 1, 2]).third == 1  # cell (1, 0) is axis slot 1


def test_state_from_cells_reads_its_input_once():
    grid = grid_spec(0.1, 0.01, SPAN)
    assert state_from_cells(grid, iter([0, 1, 2])) == state_from_cells(grid, [0, 1, 2])
    spec = state_by_index(grid, 6, 23)
    assert state_from_cells(grid, (c for c in spec.cell_ids())) == spec
