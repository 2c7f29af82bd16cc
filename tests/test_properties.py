"""Property tests of the geometry primitives, the batched triple radii, the
nearest-neighbour pass, the shared matcher, the orbit walk built on it, the
congruence fit, the near-gathering assignment, the grid-state enumeration and
the scaling branch's neighbourhood match and its batched fits, batched
formation detection and its epsilon-pair sweep, the fit's farthest point, the
batched drawing-branch decisions, the commit's hull check, the termination
fit's radius screen and the sorted local views."""

import math
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmdraw import formation
from swarmdraw.formation import (
    DrawingHull,
    FormationError,
    _decode,
    _decode_rows,
    _epsilon_pairs,
    count_states,
    detect_arrays,
    grid_spec,
    index_of_state,
    overlapping,
    state_by_index,
    state_from_cells,
)
from swarmdraw.geometry import (TAU_GEOM, enclosing_centers, match_points, nearest,
                                nearest_in_sets, rotate, smallest_enclosing_circle,
                                triple_sec_radii, unit)
from swarmdraw.protocol import (AssignmentError, Phase, _band_nearest, _canonical_order,
                                _canonical_ranks, _centered_fits, _farthest, _screen_pairs,
                                _star_local_fits, _star_match, assignment_target,
                                build_plan, fit_isometry, robot_decision, robot_decisions)
from swarmdraw.simulator import (SimConfig, SimulationError, _commit, _frame, make_local_views,
                                 noisy_tolerances)
from swarmdraw.symmetry import normalize, symmetricity

from corpus import main_corpus, near_gathering, ngon, random_connected_pattern, star_corpus
from test_formation import _dense_detect, assert_bit_equal, window_of
from test_geometry import _brute_force_sec
from test_protocol import (assert_same_fits, dense_centered_fits, kdtree_star_match,
                           least_squares_pose, view_from_global)

TOL = 0.1

# Distinct cells of a unit grid: every two points are at least 1 apart, ten
# times the matching tolerance.
cells = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                 min_size=2, max_size=30, unique=True)


def jitter(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


@settings(derandomize=True, deadline=None)
@given(cells, st.data())
def test_match_points_recovers_permutation(grid, data):
    b = np.asarray(grid, dtype=float)
    n = len(b)
    perm = np.asarray(data.draw(st.permutations(range(n))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = b[perm] + jitter(rng, n, 0.49 * TOL)
    got, err = match_points(a, b, TOL)
    assert got is not None and np.array_equal(got, perm)
    assert err < 0.5 * TOL

    # One point moved beyond the tolerance has no partner left.
    k = data.draw(st.integers(0, n - 1))
    phi = data.draw(st.floats(0.0, 2.0 * math.pi))
    a[k] = b[perm[k]] + 1.5 * TOL * np.array([math.cos(phi), math.sin(phi)])
    got, _ = match_points(a, b, TOL)
    assert got is None


@settings(derandomize=True, deadline=None)
@given(m=st.integers(2, 8),
       phases=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4),
       theta=st.floats(-math.pi, math.pi),
       shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
def test_symmetricity_orbits_are_rotation_cycles(m, phases, theta, shift):
    # One regular m-gon per ring, each ring at its own radius and phase: the
    # pattern has symmetricity exactly m.
    w = 2.0 * math.pi / m
    base = [(0.3 + 0.25 * i) * np.array([math.cos(f * w), math.sin(f * w)])
            for i, f in enumerate(phases)]
    pts = np.vstack([rotate(np.stack(base), k * w) for k in range(m)])
    pts = rotate(pts, theta) + np.asarray(shift)

    info = symmetricity(pts)
    assert info.sym == m
    orbits = info.orbit_partition
    assert sorted(i for orbit in orbits for i in orbit) == list(range(len(pts)))
    assert all(len(orbit) == m for orbit in orbits)
    centered = normalize(pts)
    for orbit in orbits:
        turned = rotate(centered[orbit], w)
        assert np.abs(turned - centered[np.roll(orbit, -1)]).max() <= 1e-9


coord = st.floats(-10.0, 10.0)


@st.composite
def cocircular_sets(draw):
    """A subset of a regular k-gon, anywhere in the plane."""
    k = draw(st.integers(3, 12))
    subset = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    radius = draw(st.floats(0.01, 10.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    center = np.array([draw(coord), draw(coord)])
    ang = phase + 2.0 * math.pi * np.asarray(subset) / k
    return center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


@st.composite
def collinear_sets(draw):
    """Distinct points on one line, anywhere in the plane."""
    ts = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12, unique=True))
    phi = draw(st.floats(0.0, math.pi))
    origin = np.array([draw(coord), draw(coord)])
    return origin + np.outer(ts, [math.cos(phi), math.sin(phi)])


random_sets = st.lists(st.tuples(coord, coord), min_size=1, max_size=12).map(np.array)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(random_sets, cocircular_sets(), collinear_sets()))
def test_sec_agrees_with_brute_force(pts):
    circle = smallest_enclosing_circle(pts)
    # A single point has no pair or triple for the brute force to try.
    slow = _brute_force_sec(pts) or (pts[0][0], pts[0][1], 0.0)
    assert abs(circle.radius - slow[2]) <= 1e-9
    assert np.abs(np.subtract(circle.center, slow[:2])).max() <= 1e-9
    assert np.hypot(*(pts - circle.center).T).max() <= circle.radius + 1e-9



unit_floats = st.floats(-1.0, 1.0)


@st.composite
def triangles(draw):
    """One triangle of a drawn kind at a drawn scale, anywhere near the origin.

    Returns (triangle, scale).  Collinear triangles sit on integer lattice
    lines scaled by a power of two, so they are exactly collinear and may
    repeat a point; near-right ones move the right-angle vertex by 1e-10 of
    the scale along a leg, either way.
    """
    kind = draw(st.sampled_from(
        ["random", "collinear", "right", "near-right", "isosceles", "equilateral"]))
    scale = draw(st.floats(1e-3, 10.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    u = np.array([math.cos(phi), math.sin(phi)])
    v = np.array([-u[1], u[0]])
    offset = scale * np.array([draw(unit_floats), draw(unit_floats)])
    if kind == "random":
        tri = scale * np.array([[draw(unit_floats), draw(unit_floats)] for _ in range(3)])
    elif kind == "collinear":
        scale = 2.0 ** draw(st.integers(-10, 3))
        lattice = st.integers(-8, 8)
        base = np.array([draw(lattice), draw(lattice)], dtype=float)
        step = np.array([draw(lattice), draw(lattice)], dtype=float)
        tri = scale * (base + np.outer([draw(lattice) for _ in range(3)], step))
        return tri, scale
    elif kind in ("right", "near-right"):
        legs = scale * np.array([draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))])
        tri = np.stack([np.zeros(2), legs[0] * u, legs[1] * v])
        if kind == "near-right":
            tri[0] += draw(st.sampled_from([-1e-10, 1e-10])) * scale * u
    elif kind == "isosceles":
        half, height = scale * draw(st.floats(0.05, 1.0)), scale * draw(st.floats(0.05, 2.0))
        tri = np.stack([-half * u, half * u, height * v])
    else:
        ang = phi + 2.0 * math.pi * np.arange(3) / 3.0
        tri = scale * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return tri + offset, scale


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(triangles(), min_size=1, max_size=6))
def test_batched_triple_radii_agree_with_welzl(drawn):
    radii = triple_sec_radii(np.stack([tri for tri, _ in drawn]))
    for (tri, scale), radius in zip(drawn, radii):
        assert abs(radius - smallest_enclosing_circle(tri).radius) <= 1e-12 * scale


@st.composite
def near_circle_sets(draw):
    """A random set with one more point within 1e-14 of its enclosing circle,
    relative to the radius."""
    pts = draw(random_sets)
    circle = smallest_enclosing_circle(pts)
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    r = circle.radius * (1.0 + draw(st.floats(-1e-14, 1e-14)))
    return np.vstack([pts, circle.center + r * np.array([math.cos(phi), math.sin(phi)])])


@st.composite
def almost_right_triangles(draw):
    """A right triangle, anywhere and at any scale, with one leg turned by at
    most 1e-13 either way: whether its circle stands on the hypotenuse or on
    all three points is left to rounding."""
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    u = np.array([math.cos(phi), math.sin(phi)])
    v = np.array([-u[1], u[0]]) + draw(st.sampled_from([-1e-13, -1e-15, 0.0, 1e-15, 1e-13])) * u
    a, b = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
    return np.array([draw(coord), draw(coord)]) + np.stack([0.0 * u, a * u, b * v])


@st.composite
def equal_size_batches(draw):
    """One drawn set, copies of it rotated, shifted and jittered at a drawn
    scale up to 1e-9, and unrelated uniform sets of its size, in a drawn order."""
    base = draw(st.one_of(random_sets, cocircular_sets(), collinear_sets(), near_circle_sets(),
                          triangles().map(lambda drawn: drawn[0]), almost_right_triangles(),
                          st.lists(st.tuples(coord, coord), min_size=1, max_size=2).map(np.array)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sets = [base]
    for _ in range(draw(st.integers(0, 3))):
        jitter_scale = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9]))
        sets.append(rotate(base, draw(st.floats(-math.pi, math.pi))) + [draw(coord), draw(coord)]
                    + jitter_scale * rng.standard_normal(base.shape))
    sets += list(rng.uniform(-10.0, 10.0, (draw(st.integers(0, 3)),) + base.shape))
    return np.stack(sets)[rng.permutation(len(sets))]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(equal_size_batches())
def test_enclosing_centers_equal_welzl_bit_for_bit(sets):
    """Each set's batched centre is Welzl's, alone and in a batch: a set's
    result does not depend on the rest of the batch."""
    welzl = np.array([smallest_enclosing_circle(s).center for s in sets])
    for s, center in zip(sets, welzl):
        assert enclosing_centers(s[None])[0].tobytes() == center.tobytes()
    assert enclosing_centers(sets).tobytes() == welzl.tobytes()


FIT_TOL = 1e-6


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(main_corpus()[:30] + star_corpus()), st.floats(-math.pi, math.pi),
       st.tuples(coord, coord), st.data())
def test_fit_isometry_recovers_a_jittered_rigid_motion(named, theta, shift, data):
    # Every point is at most FIT_TOL / 4 off a rigid copy of the template, so a
    # fit within FIT_TOL exists, symmetric templates included.
    template = named[1]
    n = len(template)
    perm = np.asarray(data.draw(st.permutations(range(n))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pts = (rotate(template, theta) + np.asarray(shift))[perm] + jitter(rng, n, FIT_TOL / 4)
    fit = fit_isometry(pts, template, FIT_TOL)
    assert fit is not None
    rot, translation, got, err = fit
    placed = rotate(template, rot) + translation
    assert np.hypot(*(pts - placed[got]).T).max() <= FIT_TOL
    assert err <= FIT_TOL


def _assert_assignment_is_frame_equivariant(config, plan, thetas):
    fixed = np.empty_like(config)
    turned = np.empty_like(config)
    for i, theta in enumerate(thetas):
        base = robot_decision(view_from_global(config, i), plan)
        dec = robot_decision(view_from_global(config, i, theta), plan)
        assert base.phase is Phase.INITIAL and dec.phase is Phase.INITIAL
        fixed[i] = config[i] + base.target
        turned[i] = config[i] + rotate(dec.target, -theta)
    assert np.abs(turned - fixed).max() <= 1e-9
    assert fit_isometry(turned, plan.initial, 1e-7) is not None


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(6, 20), seed=st.integers(0, 10 ** 6), data=st.data())
def test_initial_assignment_is_frame_equivariant(n, seed, data):
    plan = build_plan(random_connected_pattern(n, seed=n))
    config = near_gathering(n, seed=seed)
    thetas = data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    _assert_assignment_is_frame_equivariant(config, plan, thetas)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.integers(6, 20), seed=st.integers(0, 10 ** 6), data=st.data())
def test_initial_assignment_with_a_robot_at_the_centre_is_frame_equivariant(n, seed, data):
    """A robot at the smallest enclosing circle's centre has no angle of its
    own; the reference direction comes from the first orbit off the centre."""
    plan = build_plan(random_connected_pattern(n, seed=n))
    others = near_gathering(n - 1, seed=seed)
    centre = np.asarray(smallest_enclosing_circle(others).center)
    assume(np.hypot(*(others - centre).T).min() > 0.01)
    config = np.vstack([others, centre])
    thetas = data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    _assert_assignment_is_frame_equivariant(config, plan, thetas)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(k=st.integers(2, 6),
       rings=st.lists(st.tuples(st.floats(0.03, 0.12), st.floats(0.0, 2.0 * math.pi)),
                      min_size=1, max_size=3),
       theta=st.floats(-math.pi, math.pi),
       shift=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), data=st.data())
def test_assignment_rejects_indistinguishable_orbits(k, rings, theta, shift, data):
    """A robot at the centre of k-fold symmetric others: the centre makes the
    symmetricity 1, yet the k robots of each ring look alike from every frame,
    so no robot can tell which slot is its own.  Every robot, in any frame,
    rejects the configuration."""
    w = 2.0 * math.pi / k
    radii = 0.02 + np.cumsum([gap for gap, _ in rings])
    seeds = np.stack([r * np.array([math.cos(f), math.sin(f)])
                      for r, (_, f) in zip(radii, rings)])
    config = np.vstack([rotate(seeds, j * w) for j in range(k)] + [np.zeros((1, 2))])
    config = rotate(config, theta) + np.asarray(shift)
    slots = build_plan(random_connected_pattern(6, seed=6)).slots    # any slots
    for i in range(len(config)):
        view = view_from_global(config, i, data.draw(st.floats(-math.pi, math.pi)))
        with pytest.raises(AssignmentError, match="^configuration orbits are indistinguishable$"):
            assignment_target(view, 0, slots)


@st.composite
def grids(draw):
    """A random epsilon grid: diameter, delta/epsilon ratio and span."""
    delta = draw(st.floats(0.02, 1.0 / 6))
    ratio = draw(st.floats(3.05, 14.0))
    span = draw(st.floats(0.2, math.pi / 3))
    return grid_spec(delta, delta / ratio, span)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(grids(), st.data())
def test_state_enumeration_is_a_bijection(grid, data):
    size = data.draw(st.integers(3, min(grid.locations, 9)))
    total = count_states(grid, size)
    index = data.draw(st.one_of(st.just(1), st.just(total), st.integers(1, total)))
    spec = state_by_index(grid, size, index)
    assert spec.size == size
    assert index_of_state(spec) == index
    assert state_from_cells(grid, spec.cell_ids()) == spec
    # Cell ids number the columns' cells in order after the anchor (id 0).
    cells = {0: (0.0, 0.0)}
    for i, size in enumerate(grid.col_sizes.tolist()):
        for j in range(size):
            cells[1 + int(grid.col_prefix[i]) + j] = ((1 + 2 * i) * grid.epsilon,
                                                      2 * j * grid.epsilon)
    assert np.array_equal(spec.local, np.array([cells[c] for c in spec.cell_ids()]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(grids(), st.data())
def test_memoised_decode_agrees_with_a_fresh_decode(grid, data):
    # Most draws hold the anchor pair; some lack a defining robot, repeat one
    # or name a cell past the grid.
    ids = data.draw(st.lists(st.integers(2, grid.locations - 1), max_size=10, unique=True))
    ids += data.draw(st.sampled_from([[0, 1], [0, 1], [0, 1], [1], [0, 1, 1],
                                      [0, 1, grid.locations]]))
    try:
        spec = state_from_cells(grid, ids)
        want = (spec, index_of_state(spec))
    except FormationError:
        want = None
    assert _decode(grid, tuple(sorted(ids))) == want
    if max(ids) < grid.locations:      # the keyed decode takes the grid's cell ids only
        got = _decode_rows(grid, np.array(ids), np.array([0]), np.array([len(ids)]))
        assert got.tolist() == [want[1] if want else 0]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(grids(), st.data())
def test_keyed_decode_equals_a_decode_per_row(grid, data):
    """``_decode_rows`` equals ``_decode`` of each row's sorted cells, with the
    real memo and with a memo of two keys: rows repeat across windows, differ
    in length within one call, repeat a cell or lack the anchor pair, and a
    call holds more distinct keys than the memo."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    heads = [[0, 1], [0, 1], [0, 1], [1], [0], [0, 1, 1], []]
    pool = []
    for _ in range(data.draw(st.integers(1, 12))):
        size = int(rng.integers(0, min(grid.locations - 2, 80) + 1))
        free = rng.choice(np.arange(2, grid.locations), size, replace=rng.random() < 0.3)
        pool.append(np.concatenate([heads[rng.integers(len(heads))], free]).astype(np.int64))
    rows = [pool[k] for k in rng.integers(0, len(pool), data.draw(st.integers(0, 40)))]
    # Stored shuffled and in a different order from the one the call reads.
    stored = rng.permutation(len(rows))
    cells = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [rng.permutation(rows[k]) for k in stored])
    at = np.cumsum([0] + [len(rows[k]) for k in stored])
    lows = np.empty(len(rows), dtype=np.int64)
    lows[stored] = at[:-1]
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    want = []
    for r in rows:
        found = _decode(grid, tuple(sorted(r.tolist())))
        want.append(found[1] if found else 0)
    assert _decode_rows(grid, cells, lows, counts).tolist() == want
    # A fresh memo decodes each distinct cell set of the call once.
    fresh = lru_cache(maxsize=None)(formation._decode_key.__wrapped__)
    with mock.patch.object(formation, "_decode_key", fresh):
        assert _decode_rows(grid, cells, lows, counts).tolist() == want
    assert fresh.cache_info().misses == len({tuple(sorted(r.tolist())) for r in rows})
    small = lru_cache(maxsize=2)(formation._decode_key.__wrapped__)
    with mock.patch.object(formation, "_decode_key", small):
        for _ in range(2):
            assert _decode_rows(grid, cells, lows, counts).tolist() == want


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_counted_ranks_equal_the_canonical_order(data):
    """``_canonical_ranks`` equals each group's own row's place in the stable
    ``_canonical_order`` of 0-50 groups of 1-120 rows, with duplicated rows,
    +-0.0 and coordinates on both sides of a TAU_GEOM rounding boundary."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sizes = np.array(data.draw(st.lists(st.integers(1, 120), max_size=50)), dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    edges = [c + k * TAU_GEOM for c in (0.0, 0.03, -0.07) for k in (-1.5, -0.5, 0.5, 2.5)]
    special = np.array([0.0, -0.0, TAU_GEOM, -TAU_GEOM, 0.03]
                       + edges + [np.nextafter(e, s) for e in edges for s in (-1.0, 1.0)])
    local = rng.uniform(-0.2, 0.2, (int(sizes.sum()), 2))
    pick = rng.random(local.shape) < 0.7
    local[pick] = rng.choice(special, int(pick.sum()))
    if len(local):
        copies = rng.integers(0, len(local), (len(local) // 4, 2))
        local[copies[:, 0]] = local[copies[:, 1]]
    own = starts + (rng.random(len(sizes)) * sizes).astype(np.int64)
    group = np.repeat(np.arange(len(sizes)), sizes)
    want = np.argsort(_canonical_order(local, (group,)))[own] - starts
    assert np.array_equal(_canonical_ranks(local, sizes, own), want)


_WINDOW_KINDS = ("empty", "one", "pair", "pair", "state", "state", "boundary", "cloud")


def _detection_window(kind, grid, tol, rng):
    """A random detection window, in a random pose or along the x-axis: empty,
    one point, two points at exactly epsilon - tol, epsilon or epsilon + tol, a
    legal state (on its cells, off them by up to tol/4 or 2*tol, or with its
    partner at exactly epsilon - tol or epsilon + tol), an anchor
    with partners at epsilon +- tol and just beyond and a third robot on the
    axis, or a loose cloud; all but the first three get up to ten more points
    within 4*delta."""
    eps, delta = grid.epsilon, grid.delta
    anchor = rng.uniform(-1.0, 1.0, 2)
    # Some pairs lie along the x-axis, where their distance is the sweep's x-gap.
    direction = unit(rng.normal(size=2)) if rng.uniform() < 0.5 else np.array([1.0, 0.0])
    if kind == "empty":
        return np.zeros((0, 2))
    if kind == "one":
        return anchor[None, :]
    if kind == "pair":
        return np.array([anchor, anchor + (eps + rng.choice([-1, 0, 1]) * tol) * direction])
    if kind == "state":
        size = int(rng.integers(3, min(grid.locations, 8) + 1))
        spec = state_by_index(grid, size, int(rng.integers(1, count_states(grid, size) + 1)))
        pts = spec.points(DrawingHull(anchor, direction, grid.span, delta))
        radius = rng.choice([0.0, tol / 4, 2 * tol, -1.0])
        if radius >= 0.0:
            pts = pts + jitter(rng, len(pts), radius)
        else:   # the partner (cell 1) at exactly epsilon - tol or epsilon + tol
            pts[1] = anchor + (eps + rng.choice([-1, 1]) * tol) * direction
    elif kind == "boundary":
        side = rotate(direction, float(rng.uniform(-grid.span, grid.span)))
        pts = anchor + np.stack([0.0 * direction, (eps - tol) * direction,
                                 (eps + tol) * side, np.nextafter(eps + tol, 1.0) * -side,
                                 3 * eps * direction])
    else:
        pts = anchor + rng.uniform(-delta, delta, (int(rng.integers(3, 30)), 2))
    extra = anchor + rng.uniform(-4 * delta, 4 * delta, (int(rng.integers(0, 11)), 2))
    pts = np.vstack([pts, extra])
    return pts[rng.permutation(len(pts))]


def _detect_each(windows, grid, tol):
    points = np.concatenate(windows) if windows else np.zeros((0, 2))
    det = detect_arrays(points, [len(w) for w in windows], grid, tol)
    return [window_of(det, w) for w in range(len(windows))]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(grids(), st.data())
def test_window_detection_reads_its_own_window_only(grid, data):
    """Every window's result in one batched call is bit-equal to the dense
    single-window reference, and replacing, adding or removing other windows
    never changes it."""
    tol = data.draw(st.sampled_from([TAU_GEOM, 0.01 * grid.epsilon, 0.45 * grid.epsilon]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    count = min(data.draw(st.integers(0, 330)), 300)     # 300 windows about one time in ten
    kinds = rng.choice(_WINDOW_KINDS, size=count)
    windows = [_detection_window(kind, grid, tol, rng) for kind in kinds]
    got = _detect_each(windows, grid, tol)
    assert len(got) == count
    for window, dets in zip(windows, got):
        assert_bit_equal(dets, _dense_detect(window, grid, tol))

    def fresh():
        return _detection_window(rng.choice(_WINDOW_KINDS), grid, tol, rng)

    k = data.draw(st.integers(0, count))
    variants = [  # (windows, old index -> new index, or None where replaced)
        ([w if i % 2 else fresh() for i, w in enumerate(windows)],
         lambda i: i if i % 2 else None),
        (windows[:k] + [fresh()] + windows[k:], lambda i: i + (i >= k)),
        (windows[:k] + windows[k + 1:], lambda i: None if i == k else i - (i > k)),
    ]
    for other, where in variants:
        again = _detect_each(other, grid, tol)
        for i, dets in enumerate(got):
            if where(i) is not None:
                assert_bit_equal(again[where(i)], dets)


def test_detect_arrays_rejects_sizes_that_miss_points():
    grid = grid_spec(0.1, 0.01, math.pi / 3)
    for sizes in ([2], [4], [3, -1, 1], [[3]]):
        with pytest.raises(ValueError, match="window sizes"):
            detect_arrays(np.zeros((3, 2)), sizes, grid)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 32 - 1))
def test_epsilon_pair_sweep_holds_every_pair_in_reach(seed):
    """Every pair of one window whose computed distance is at most
    (eps + tol)(1 + 2^-52), the reach of detection's distance test, is a
    candidate of ``_epsilon_pairs``, and no candidate joins two windows.  The
    windows sit up to 1e3 from the origin (the commit check detects in global
    coordinates), every one with a point at x = +-1e3, alternately, so that
    neighbouring windows' keys come closest; each holds pairs at eps +- tol,
    at that reach and at the floats beside eps + tol, along the x-axis and in
    random directions, and columns of points sharing an x."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(1e-3, 0.1)
    tol = float(rng.choice([TAU_GEOM, 0.01 * eps, 0.45 * eps]))
    reach = (eps + tol) * (1.0 + 2.0 ** -52)
    gaps = np.array([eps - tol, eps + tol, reach,
                     np.nextafter(eps + tol, 0.0), np.nextafter(eps + tol, 1.0)])
    windows = []
    for w in range(int(rng.integers(1, 60))):
        p = rng.uniform(-1e3 + 1.0, 1e3 - 1.0, 2)
        phi = rng.uniform(-math.pi, math.pi, len(gaps))
        column = np.arange(1, 6)[:, None] * [0.0, 0.3 * eps]
        windows.append(np.vstack([
            p, [(-1.0) ** w * 1e3, p[1]],
            p + np.column_stack([gaps, np.zeros_like(gaps)]),
            p - np.column_stack([gaps, np.zeros_like(gaps)]),
            p + gaps[:, None] * np.column_stack([np.cos(phi), np.sin(phi)]),
            p + column, p + [eps + tol, 0.0] + column,
            p + jitter(rng, int(rng.integers(0, 10)), 2 * (eps + tol))]))
    sizes = [len(pts) for pts in windows]
    win = np.repeat(np.arange(len(windows)), sizes)
    a, b = _epsilon_pairs(np.vstack(windows), win, eps, tol)
    assert (win[a] == win[b]).all() and (a < b).all()
    got = set(zip(a.tolist(), b.tolist()))
    start = 0
    for pts in windows:
        z = pts[:, 0] + 1j * pts[:, 1]
        i, j = np.triu_indices(len(pts), 1)
        close = np.abs(z[j] - z[i]) <= reach
        assert set(zip((start + i[close]).tolist(), (start + j[close]).tolist())) <= got
        start += len(pts)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1))
def test_farthest_point_is_the_last_row_of_a_stable_sort(seed):
    """``_farthest`` equals the last row of np.lexsort on (radius, x, y) for
    sets with tied radii, tied x and tied y: rotated regular polygons, and
    points repeated with their mirror images and swapped coordinates (x = 0
    among them, so -0.0 meets +0.0), in random row order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    sets = []
    for _ in range(int(rng.integers(1, 20))):
        if rng.uniform() < 0.3:
            phi = rng.choice([0.0, math.pi / 4, rng.uniform(-math.pi, math.pi)])
            ang = phi + 2 * math.pi * np.arange(n) / n
            pts = rng.uniform(0.1, 1.0) * np.column_stack([np.cos(ang), np.sin(ang)])
        else:
            base = np.round(rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), 2)), 1)
            pool = np.vstack([base, base * [1, -1], base * [-1, 1], -base, base[:, ::-1]])
            pts = pool[rng.integers(0, len(pool), n)]
        sets.append(pts[rng.permutation(n)])
    a = np.stack(sets)
    ra = np.hypot(a[..., 0], a[..., 1])
    want = np.lexsort((a[..., 1], a[..., 0], ra), axis=-1)[:, -1]
    assert np.array_equal(_farthest(a, ra), want)


@lru_cache(maxsize=None)
def _star_plan(name):
    return build_plan(dict(star_corpus())[name])


_STAR_NAMES = ["ngon-14x2", "ngon-32x5", "ngon-63x10", "ring2-20", "ring2-40", "ring2-66"]


def _star_view(plan, kappa, robot, theta, spread, rng, reach=1.0):
    """One robot's neighbours within reach in the pattern scaled by kappa, in a
    random frame, each jittered by up to spread times the coarse window."""
    # view_from_global cuts at 1: cut the pattern shrunk by reach, then grow it back.
    view = reach * view_from_global(kappa / reach * plan.pattern, robot % plan.n, theta)[1:]
    return view + jitter(rng, len(view), spread * 0.3 * kappa * plan.star.mindist)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(_STAR_NAMES),
       st.floats(0.0, 1.0), st.integers(0, 10 ** 6), st.floats(-math.pi, math.pi),
       st.floats(0.0, 1.5), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.0, 1.5]))
def test_star_match_without_a_tree_equals_the_kdtree_match(name, grow, robot, theta, spread,
                                                           seed, beyond):
    """One robot's view of a scaled star pattern, in a random frame, with every
    neighbour jittered by up to spread times the coarse window, and reaching
    past the viewing range by beyond coarse windows.  At every coarse
    candidate, and at the least-squares pose of every match, the tree-free
    _star_match, screens included, returns what the KD-tree version returns,
    called with that one candidate and beside a candidate with every offset
    in range."""
    plan = _star_plan(name)
    star = plan.star
    kappa = star.kappa0 + grow * (1.0 - star.kappa0)
    view = _star_view(plan, kappa, robot, theta, spread, np.random.default_rng(seed),
                      1.0 + beyond * 0.3 * kappa * star.mindist)
    nearest = view[int(np.argmin(np.hypot(*view.T)))]
    one, two = np.array([0]), np.array([0, 0])
    matched = 0
    for ring in star.rings:
        offs = ring.offs[:, 0] + 1j * ring.offs[:, 1]
        for j, kappa0 in enumerate(np.hypot(*nearest) / ring.norms[:8]):
            window = max(0.3 * kappa0 * star.mindist, 1e-6)
            theta0 = (math.atan2(nearest[1], nearest[0])
                      - math.atan2(ring.offs[j][1], ring.offs[j][0]))
            poses = [(kappa0, complex(*nearest) / offs[j], theta0, window)]
            for k, pose, th, w in poses:
                ok, idx = _star_match(view, one, np.array([len(view)]), offs, ring.norms,
                                      np.array([k]), np.array([pose]), np.array([w]))
                both, idx2 = _star_match(view, two, np.array([len(view)] * 2), offs, ring.norms,
                                         np.array([k, 1e-3]), np.array([pose, 1e-3]),
                                         np.array([w, w]))
                want = kdtree_star_match(view, ring.offs, ring.norms, k, th, w)
                assert ok[0] == both[0] == (want is not None)
                assert np.array_equal(idx2, idx)
                if want is not None:
                    assert np.array_equal(idx, want)
                    matched += 1
                    if len(poses) == 1:
                        z = least_squares_pose(view, ring.offs, want)
                        k, th = abs(z), math.atan2(z.imag, z.real)
                        poses += [(k, z, th, 1e-6), (k, z, th, window)]
    if spread == 0.0 and beyond == 0.0:
        assert matched


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1))
def test_star_match_at_its_exact_window_ignores_the_batch(seed):
    """Candidates with 1 to 4 offsets in range, each with its observed points
    at most its window, and one of them exactly, away from the match's own
    expected points, match both alone and in one batch in random order,
    beside a random candidate with 5 offsets in range: no candidate changes
    another's roundings."""
    rng = np.random.default_rng(seed)
    norms = 0.1 * 2.0 ** np.arange(6)      # the offsets in range of kappa: a prefix
    offs = norms * np.exp(1j * rng.uniform(-math.pi, math.pi, 6))
    batch = []
    for width in rng.permutation(5) + 1:
        kappa = 0.9 / norms[width - 1]      # scaled norms 0.9 and below, then 1.8
        pose = kappa * np.exp(1j * rng.uniform(-math.pi, math.pi))
        expected = np.stack([pose.real * offs[:width].real - pose.imag * offs[:width].imag,
                             pose.real * offs[:width].imag + pose.imag * offs[:width].real],
                            axis=-1)
        observed = expected + jitter(rng, width, 1e-3 * kappa)
        window = (float(nearest(observed, expected)[0].max()) if width < 5
                  else rng.uniform(0.0, 2e-3) * kappa)
        batch.append((width, kappa, pose, observed, window))
        if width < 5:
            ok, _ = _star_match(observed, np.array([0]), np.array([width]), offs, norms,
                                np.array([kappa]), np.array([pose]), np.array([window]))
            assert ok.tolist() == [True]
    widths, kappas, poses, rows, windows = zip(*batch)
    widths = np.array(widths)
    ok, _ = _star_match(np.vstack(rows), np.cumsum(widths) - widths, widths, offs, norms,
                        np.array(kappas), np.array(poses), np.array(windows))
    assert ok[widths < 5].all()


def _random_star_view(plan, rng):
    """A view for the batched fits: a jittered star view, sometimes reaching
    past the viewing range by up to 1.5 coarse windows, sometimes cut to a
    random subset of its neighbours (down to none)."""
    star = plan.star
    kappa = star.kappa0 + rng.uniform() * (1.0 - star.kappa0)
    reach = 1.0 + rng.choice([0.0, 0.0, 1.5]) * rng.uniform() * 0.3 * kappa * star.mindist
    spread = rng.choice([0.0, 0.0, 0.1, 1.0, 1.5]) * rng.uniform()
    neighbours = _star_view(plan, kappa, int(rng.integers(plan.n)),
                            rng.uniform(-math.pi, math.pi), spread, rng, reach)
    if rng.uniform() < 0.2:
        neighbours = neighbours[rng.permutation(len(neighbours))[:rng.integers(len(neighbours))]]
    return np.vstack([np.zeros((1, 2)), neighbours])


def _assert_same_fits(got, want):
    assert len(got) == len(want)
    for (k1, c1), (k2, c2) in zip(got, want):
        assert k1 == k2 and c1.tobytes() == c2.tobytes()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(_STAR_NAMES), st.data())
def test_star_fits_read_their_own_view_only(name, data):
    """Every view's star fits in one batched call are bit-equal to its one-view
    call, and replacing, adding or removing other views never changes them."""
    plan = _star_plan(name)
    star = plan.star
    tol = data.draw(st.sampled_from([1e-7, 1e-6, 1e-4]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    count = min(data.draw(st.integers(0, 330)), 300)     # 300 views about one time in ten
    views = [_random_star_view(plan, rng) for _ in range(count)]
    got = _star_local_fits(views, star, tol)
    assert len(got) == count
    for view, fits in zip(views, got):
        _assert_same_fits(fits, _star_local_fits([view], star, tol)[0])

    k = data.draw(st.integers(0, count))
    variants = [  # (views, old index -> new index, or None where replaced)
        ([v if i % 2 else _random_star_view(plan, rng) for i, v in enumerate(views)],
         lambda i: i if i % 2 else None),
        (views[:k] + [_random_star_view(plan, rng)] + views[k:], lambda i: i + (i >= k)),
        (views[:k] + views[k + 1:], lambda i: None if i == k else i - (i > k)),
    ]
    for other, where in variants:
        again = _star_local_fits(other, star, tol)
        for i, fits in enumerate(got):
            if where(i) is not None:
                _assert_same_fits(again[where(i)], fits)


@lru_cache(maxsize=None)
def _draw_plan(name):
    return build_plan(dict(main_corpus())[name])


_DRAW_NAMES = ["random-6-0", "random-10-4", "random-14-8", "sym-3x4", "sym-6x3"]


def _random_draw_view(plan, rng, tol):
    """A drawing-branch view: a robot's view of a reference round that it sees
    whole (a snapshot) or cut by the viewing range, of such a round with every
    robot jittered by up to tol over the hull's lever arm 1 + delta/epsilon, of
    an ending robot, of a member of two formations whose hulls overlap, or of a
    near-gathering."""
    kind = rng.choice(["full", "cut", "jittered", "ending", "conflict", "gathering"])
    robots = None
    if kind == "gathering":
        positions = near_gathering(plan.n, seed=int(rng.integers(100)))
    elif kind == "conflict":
        # Two facing three-robot formations anchored 2*delta apart: their hulls touch.
        spec, delta, span = state_by_index(plan.grid, 3, 1), plan.params.delta, plan.params.span
        positions = np.vstack([
            spec.points(DrawingHull(np.zeros(2), np.array([1.0, 0.0]), span, delta)),
            spec.points(DrawingHull(np.array([2 * delta, 0.0]), np.array([-1.0, 0.0]), span, delta))])
    else:
        rounds = (plan.snapshot_ids if kind == "full" else [len(plan.schedule) - 2]
                  if kind == "ending" else range(len(plan.schedule)))
        rec = plan.schedule[int(rng.choice(rounds))]
        positions = rec.positions
        if kind == "ending":
            robots = [i for i, role in enumerate(rec.roles) if role is Phase.INTERMEDIATE]
        if kind == "jittered":
            lever = 1 + plan.params.delta / plan.params.epsilon
            positions = positions + jitter(rng, len(positions), tol / (4 * lever))
    robot = int(rng.choice(robots if robots else len(positions)))
    return view_from_global(positions, robot, rng.uniform(0, 2 * math.pi))


def _assert_same_decision(got, want):
    assert (got.phase, got.events) == (want.phase, want.events)
    assert got.target.tobytes() == want.target.tobytes()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(_DRAW_NAMES), st.booleans(), st.data())
def test_drawing_decisions_read_their_own_view_only(name, noisy, data):
    """Every view's drawing-branch decision in one robot_decisions call equals
    its one-view call byte for byte, and replacing, adding or removing other
    views never changes it: at the noiseless tolerances and at those run_fsync
    passes under noise (the D(t) list as snapshot tolerance)."""
    plan = _draw_plan(name)
    tol, snapshot_tol = (noisy_tolerances(plan, plan.params.epsilon / (20 * plan.hops))
                         if noisy else (TAU_GEOM, None))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    count = data.draw(st.integers(0, 40))
    views = [_random_draw_view(plan, rng, tol) for _ in range(count)]
    got = robot_decisions(views, plan, tol, snapshot_tol)
    assert len(got) == count
    for view, decision in zip(views, got):
        _assert_same_decision(decision, robot_decision(view, plan, tol, snapshot_tol))

    k = data.draw(st.integers(0, count))
    variants = [  # (views, old index -> new index, or None where replaced)
        ([v if i % 2 else _random_draw_view(plan, rng, tol) for i, v in enumerate(views)],
         lambda i: i if i % 2 else None),
        (views[:k] + [_random_draw_view(plan, rng, tol)] + views[k:], lambda i: i + (i >= k)),
        (views[:k] + views[k + 1:], lambda i: None if i == k else i - (i > k)),
    ]
    for other, where in variants:
        again = robot_decisions(other, plan, tol, snapshot_tol)
        for i, decision in enumerate(got):
            if where(i) is not None:
                _assert_same_decision(again[where(i)], decision)


def _fit_template(kind, n, rng):
    """One centroid-centred template of about n points: generic, an n-gon, a
    two-ring, s turned copies of a generic chain, or a tiny generic set that
    fits at once."""
    if kind == "ngon":
        pts = rotate(ngon(n, rng.uniform(0.05, 0.5)), rng.uniform(0, 2 * math.pi))
    elif kind == "two-ring":
        inner, outer = np.sort(rng.uniform(0.05, 0.5, 2))
        ang = np.arange(n // 2) * 2 * math.pi / (n // 2)
        pts = np.vstack([np.stack([inner * np.cos(ang), inner * np.sin(ang)], axis=1),
                         rotate(ngon(n - n // 2, outer), rng.uniform(0, 2 * math.pi))])
    elif kind == "symmetric":
        s = next(d for d in (6, 4, 3, 2, 1) if n % d == 0)
        chain = rng.uniform(-0.3, 0.3, (n // s, 2))
        pts = np.vstack([rotate(chain, k * 2 * math.pi / s) for k in range(s)])
    else:
        pts = rng.uniform(-1, 1, (n, 2)) * (1e-10 if kind == "tiny" else rng.uniform(0.02, 0.5))
    return pts - pts.mean(axis=0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(band=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_centered_fits_equal_the_dense_loop(band, seed):
    """``_centered_fits`` equals the dense loop bit for bit (theta, perm, err,
    None) on batches of turned, permuted and jittered copies of the templates
    and of unrelated sets: generic sets, n-gons and two-rings, whose radii tie,
    symmetric sets, drawing snapshots, and tiny sets that fit at once, for n
    from 1 to 100 and tolerances up to 0.085.  A pair of points of a copy
    moves by f*tol in opposite directions, radially or not, for f at 1 and
    just past it.  Band-prone batches (generic or symmetric, n >= 64, small
    tolerances, many sets) are half of the examples."""
    rng = np.random.default_rng(seed)
    kinds = ["generic", "symmetric"] if band else ["generic", "symmetric", "snapshot",
                                                   "ngon", "two-ring", "tiny"]
    kind = kinds[rng.integers(len(kinds))]
    n = int(rng.choice([64, 100] if band else [1, 2, 3, 5, 8, 12, 24, 64, 100]))
    if kind == "snapshot":
        plan = _draw_plan(_DRAW_NAMES[rng.integers(len(_DRAW_NAMES))])
        b = plan.snapshot_centered[rng.permutation(len(plan.snapshot_ids))[:3]]
        n = plan.n
    else:
        n = max(n, 4) if kind in ("ngon", "two-ring") else n
        b = np.stack([_fit_template(kind, n, rng) for _ in range(rng.integers(1, 4))])
    tol = rng.choice([1e-9, 1e-7, 1e-5] + ([] if band else [1e-3, 0.02, 0.085]), size=len(b))
    sets = int(rng.integers(8 if band else 1, 17))
    if rng.uniform() < 0.5:
        tol = tol * rng.choice([0.5, 1.0, 2.0], size=(sets, len(b)))
    a = np.empty((sets, n, 2))
    for v in range(sets):
        t = rng.integers(len(b))
        if rng.uniform() < 0.2:
            pts = rng.uniform(-0.3, 0.3, (n, 2))
        else:
            pts = rotate(b[t], rng.uniform(0, 2 * math.pi))[rng.permutation(n)]
            if n >= 2:
                f = rng.choice([0.0, 0.5, 1.0, 1.0 + 1e-9, 1.5])
                r0 = math.hypot(*pts[0])
                u = pts[0] / r0 if rng.uniform() < 0.5 and r0 > 0 else unit(rng.normal(size=2))
                u *= f * (tol[v, t] if tol.ndim == 2 else tol[t])
                pts[0] += u
                pts[1] -= u
        a[v] = pts - pts.mean(axis=0)
    radii = np.sort(np.hypot(b[..., 0], b[..., 1]), axis=1)
    assert_same_fits(_centered_fits(a, b, radii, tol), dense_centered_fits(a, b, radii, tol))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(1, 12), count=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_band_nearest_over_whole_bands_equals_nearest_in_sets(n, count, seed):
    """Over bands that hold every template row, each observed row's entries in
    a random order, ``_band_nearest`` equals ``nearest_in_sets`` bit for bit,
    distances and indices.  Templates repeat rows, so nearest points tie, and
    the smallest template row must win whatever the entry order."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, n, 2))
    rotated = rng.normal(size=(count, n, 2))
    dup = rng.integers(n, size=n // 2)
    rotated[:, rng.integers(n, size=n // 2)] = rotated[:, dup]
    cv, pair = rng.integers(3, size=count), rng.integers(2, size=count)
    obs = np.tile(np.repeat(np.arange(n), n), 2)
    tmpl = np.concatenate([rng.permutation(n) for _ in range(2 * n)])
    width, first = np.full((count, n), n), pair * n * n
    want = nearest_in_sets(a[cv].reshape(-1, 2), rotated, np.repeat(np.arange(count), n),
                           np.full(count, n))
    got = _band_nearest(a, rotated, cv, width, first, obs, tmpl)
    assert np.array_equal(got[0].ravel(), want[0]) and np.array_equal(got[1].ravel(), want[1])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.integers(1, 120), k=st.integers(1, 120), log_scale=st.floats(-8.0, 1.0),
       offset=st.sampled_from([0.0, 1.0, 100.0]), shape=st.sampled_from(["free", "jitter"]),
       dup=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_nearest_equals_the_kdtree_query(n, k, log_scale, offset, shape, dup, seed):
    """nearest's distances are the KD-tree query's bit for bit, and its indices
    agree wherever the nearest point is unique.  Queries are either free points
    or a jittered permutation of b (what match_points sees); b may repeat
    points, so some nearest points tie."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    b = rng.normal(size=(n, 2)) * scale + rng.normal(size=2) * offset
    if shape == "jitter":
        a = b[rng.permutation(n)] + rng.normal(size=(n, 2)) * scale * 1e-3
    else:
        a = rng.normal(size=(k, 2)) * scale + b.mean(axis=0)
    b = np.concatenate([b, b[:dup]])
    dd, idx = nearest(a, b)
    want_dd, want_idx = cKDTree(b).query(a, k=1)
    assert np.array_equal(dd, want_dd)
    sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    unique = (sq == sq.min(axis=1, keepdims=True)).sum(axis=1) == 1
    assert np.array_equal(idx[unique], want_idx[unique])
    assert np.array_equal(sq[np.arange(len(a)), idx], sq.min(axis=1))
    # nearest_in_sets with b as every query's set, padded beside a longer set,
    # equals nearest bit for bit.
    other = rng.normal(size=(len(b) + 3, 2))
    sets = np.stack([np.concatenate([b, other[:3]]), other])
    got_dd, got_idx = nearest_in_sets(a, sets, np.zeros(len(a), dtype=int),
                                      np.array([len(b), len(other)]))
    assert np.array_equal(got_dd, dd) and np.array_equal(got_idx, idx)


def _match_points_wide_gate(a, b, tol):
    """match_points as it was before its fallback gate was tightened: the exact
    assignment ran whenever the largest nearest-neighbour distance was within
    10*tol + 1e-9, not only within tol."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial import cKDTree

    dd, idx = cKDTree(b).query(a, k=1)
    if dd.max() <= tol and len(set(idx.tolist())) == len(a):
        return idx, float(dd.max())
    if dd.max() <= 10 * tol + 1e-9:
        cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        rows, cols = linear_sum_assignment(cost)
        err = float(cost[rows, cols].max())
        if err <= tol:
            perm = np.empty(len(a), dtype=int)
            perm[rows] = cols
            return perm, err
    return None, float(dd.max())


@settings(derandomize=True, deadline=None, max_examples=400)
@given(n=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1),
       spread=st.floats(0.5, 4.0), shake=st.floats(0.2, 3.0))
def test_match_points_gate_keeps_the_wide_gate_results(n, seed, spread, shake):
    """Points spaced about a tolerance apart and jittered by about a tolerance,
    so nearest neighbours collide and the largest one straddles tol."""
    rng = np.random.default_rng(seed)
    b = jitter(rng, n, spread * TOL)
    a = b[rng.permutation(n)] + jitter(rng, n, shake * TOL)
    got, got_err = match_points(a, b, TOL)
    want, want_err = _match_points_wide_gate(a, b, TOL)
    assert (got is None) == (want is None)
    assert got_err == want_err
    if want is not None:
        assert np.array_equal(got, want)


def _decision_views(plan):
    """(view points, robot, role) of every formation and intermediate robot of
    the plan's reference schedule."""
    out = []
    for rec in plan.schedule[:-1]:
        for i, role in enumerate(rec.roles):
            if role in (Phase.FORMATION, Phase.INTERMEDIATE):
                out.append((rec.positions, i, role))
    return out


_EQUIVARIANCE_PATTERNS = [pts for name, pts in main_corpus()
                          if name in ("random-6-0", "random-10-4", "random-14-8",
                                      "random-25-36", "sym-3x4", "sym-6x3")]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pattern=st.integers(0, len(_EQUIVARIANCE_PATTERNS) - 1), pick=st.integers(0, 10 ** 6),
       phi=st.floats(-math.pi, math.pi))
def test_robot_decision_is_rotation_equivariant(pattern, pick, phi):
    """A formation or intermediate robot's view rotated by phi yields the same
    phase and events, and the target rotated by phi."""
    plan = build_plan(_EQUIVARIANCE_PATTERNS[pattern])
    views = _decision_views(plan)
    positions, i, role = views[pick % len(views)]
    base = robot_decision(view_from_global(positions, i), plan)
    turned = robot_decision(view_from_global(positions, i, phi), plan)
    assert base.phase is role
    assert turned.phase is base.phase and turned.events == base.events
    assert np.abs(turned.target - rotate(base.target, phi)).max() <= 1e-9


# --- engine checks --------------------------------------------------------------------

@lru_cache(maxsize=1)
def _commit_plan():
    return build_plan(random_connected_pattern(10, seed=7))


def _hull_check_reference(positions, grid, tol):
    """The commit's hull-check message, or None: every formation of the
    configuration detected, and every pair of them tested with ``overlapping``."""
    det = detect_arrays(positions, [len(positions)], grid, tol)
    f, g = np.triu_indices(len(det.state), 1)
    hit = overlapping(det, f, g, grid)
    if not hit.any():
        return None
    members = np.split(det.members, det.bounds[1:-1])
    return "overlapping formation hulls: " + "; ".join(
        f"robots {members[a].tolist()} and {members[b].tolist()}"
        for a, b in zip(f[hit].tolist(), g[hit].tolist()))


def _formation_points(grid, rng, anchor, direction):
    size = int(rng.integers(3, min(grid.locations, 7) + 1))
    spec = state_by_index(grid, size, int(rng.integers(1, count_states(grid, size) + 1)))
    return spec.points(DrawingHull(anchor, direction, grid.span, grid.delta))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(grids(), st.data())
def test_commit_hull_check_equals_detecting_every_pair(grid, data):
    """``_commit`` raises exactly when detecting every formation and testing
    every pair with ``overlapping`` finds an overlap, with the same message.
    A few far robots and 1-3 formations: the next one anchored near the
    previous, facing it with anchors 2δ + TAU_GEOM ± 1e-10 apart (the anchor
    cutoff, where the hulls' tips meet), or on the previous one's epsilon-pair,
    reversed, so that both orientations of that pair are live; at TAU_GEOM or
    a noisy tolerance, jittered so that every formation stays detected."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    tol = data.draw(st.sampled_from([TAU_GEOM, 0.01 * grid.epsilon, 0.2 * grid.epsilon]))
    cutoff = 2 * grid.delta + TAU_GEOM
    anchor, direction = rng.uniform(-0.2, 0.2, 2), unit(rng.normal(size=2))
    parts = [rng.uniform(-1.5, 1.5, (int(rng.integers(0, 5)), 2)),
             _formation_points(grid, rng, anchor, direction)]
    for _ in range(int(rng.integers(0, 3))):
        how = rng.choice(["near", "cutoff", "reversed"])
        if how == "reversed":
            anchor, direction = anchor + grid.epsilon * direction, -direction
        elif how == "cutoff":
            anchor = anchor + (cutoff + rng.choice([-1e-10, 1e-10])) * direction
            direction = -direction
        else:
            anchor = anchor + rng.uniform(0.0, 2.5 * grid.delta) * unit(rng.normal(size=2))
            direction = unit(rng.normal(size=2))
        parts.append(_formation_points(grid, rng, anchor, direction))
    points = np.concatenate(parts)
    # Shared points (the reversed pair's) once; no two robots collide.
    d = np.hypot(*(points[:, None] - points[None]).T)
    points = points[~np.triu(d <= 1e-7, 1).any(axis=0)]
    if tol > TAU_GEOM:  # the heading error times the hull's lever arm stays within tol/2
        points = points + jitter(rng, len(points), tol / (4 * grid.delta / grid.epsilon + 2))
    points = points[rng.permutation(len(points))]
    plan = replace(_commit_plan(), grid=grid)
    cfg = SimConfig(noise_mu=tol / (3.0 * plan.hops)) if tol > TAU_GEOM else SimConfig()
    tol = max(TAU_GEOM, 3.0 * plan.hops * cfg.noise_mu)     # the engine's, as drawn up to rounding
    want = _hull_check_reference(points, grid, tol)
    if want is None:
        assert _commit(points, points.copy(), plan, cfg, 0).tobytes() == points.tobytes()
    else:
        with pytest.raises(SimulationError) as err:
            _commit(points, points.copy(), plan, cfg, 0)
        assert str(err.value) == want


def _antipodal(rng, count):
    """count antipodal pairs (centroid 0) at radii at least 0.1 apart."""
    radii = 0.3 + 0.1 * np.arange(count) + rng.uniform(0.0, 0.05, count)
    angles = rng.uniform(0.0, 2 * math.pi, count)
    half = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return np.concatenate([half, -half])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(["inside", "edge", "beyond", "unrelated", "equal-radii"]),
       st.integers(2, 12), st.sampled_from([1e-9, 1e-7, 1e-4]), st.integers(0, 2 ** 32 - 1))
def test_fit_isometry_radius_screen_agrees_with_the_one_pair_fit(kind, count, tol, seed):
    """``fit_isometry``'s early rejection agrees with ``_centered_fits``' one-pair
    result: the same fit (theta, permutation, error) bit for bit, or None for
    both.  Cases: turned, shifted, permuted copies jittered within tol/4, with
    every point pushed out from the centroid by 0.9*tol (a fit whose radii
    differ by nearly tol), or jittered by 3*tol; unrelated sets; and antipodal
    pairs each turned by its own angle, whose sorted radii equal the
    template's (the screen passes) while no rotation fits them."""
    rng = np.random.default_rng(seed)
    template = _antipodal(rng, count) + rng.uniform(-1.0, 1.0, 2)
    n = len(template)
    theta = rng.uniform(-math.pi, math.pi)
    if kind in ("inside", "edge", "beyond"):
        copy = template
        if kind == "edge":
            b = template - template.mean(axis=0)
            copy = b * (1.0 + 0.9 * tol / np.hypot(*b.T))[:, None]
        points = rotate(copy, theta)[rng.permutation(n)] + rng.uniform(-1.0, 1.0, 2)
        if kind != "edge":
            points = points + jitter(rng, n, tol / 4 if kind == "inside" else 3 * tol)
    elif kind == "unrelated":
        points = rng.uniform(-1.0, 1.0, (n, 2))
    else:
        turns = rng.uniform(0.0, 2 * math.pi, count)
        turns[1:] = turns[0] + 0.1 + rng.uniform(0.0, math.pi - 0.2, count - 1)
        half = template[:count] - template.mean(axis=0)
        turned = np.stack([rotate(row, t) for row, t in zip(half, turns)])
        points = np.concatenate([turned, -turned])[rng.permutation(n)] + rng.uniform(-1, 1, 2)
    a = points - points.mean(axis=0)
    b = template - template.mean(axis=0)
    b_radii = np.sort(np.hypot(*b.T))
    want = _centered_fits(a[None], b[None], b_radii[None], np.array([tol]))[0]
    screen = _screen_pairs(np.sort(np.hypot(*a.T))[None], b_radii[None, None],
                           np.array([[tol]]))[1][0, 0]
    got = fit_isometry(points, template, tol)
    assert (got is None) == (want is None)
    if want is not None:
        assert screen
        assert (got[0], got[2].tolist(), got[3]) == (want[0], want[1].tolist(), want[2])
    if kind in ("inside", "edge"):
        assert got is not None
    if kind == "equal-radii":
        assert screen and got is None


def _empty_detections_pinned(det):
    assert [(x.dtype, x.shape) for x in det] == [
        (np.int64, (0,)), (np.float64, (0, 2)), (np.float64, (0, 2)), (np.int64, (0,)),
        (np.int64, (1,)), (np.int64, (0,)), (np.float64, (0, 2))]
    assert det.bounds.tolist() == [0]


def test_detection_without_a_live_row_is_the_empty_detections():
    """With no epsilon-pair, or pairs with no collinear third robot beyond the
    partner, ``detect_arrays`` returns the empty ``Detections`` with the
    shapes and dtypes of a found one, for one window and for several."""
    grid = grid_spec(0.1, 0.01, math.pi / 3)
    eps = grid.epsilon
    sparse = np.array([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.5]])
    # Epsilon-pairs whose third robots sit off the axis, or at 2*eps (i = 1/2).
    pairs = np.array([[0.0, 0.0], [eps, 0.0], [3 * eps, 0.5 * eps],
                      [0.5, 0.5], [0.5, 0.5 + eps], [0.5, 0.5 + 2 * eps]])
    orient = formation._orientations(pairs, np.array([len(pairs)]), grid, TAU_GEOM)
    assert len(orient.p) == 6 and not orient.live.any()
    for points in (sparse, pairs):
        _empty_detections_pinned(detect_arrays(points, [len(points)], grid))
        _empty_detections_pinned(detect_arrays(np.vstack([points, points + 3.0]),
                                               [len(points), 0, len(points)], grid))
    _empty_detections_pinned(detect_arrays(np.zeros((0, 2)), [0], grid))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 40), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_local_views_equal_a_two_key_lexsort(n, axis_frame, seed):
    """``make_local_views``' stable sort of complex keys orders each view as a
    row-wise two-key ``np.lexsort`` does, ties by index, bit for bit.  Robots
    on a quarter grid in the world's frame tie on x often."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(81, size=min(n, 81), replace=False)
    pts = 0.25 * np.stack([cells % 9, cells // 9], axis=1).astype(float)
    if not axis_frame:
        pts = pts + rng.uniform(-0.01, 0.01, pts.shape)
    cfg = SimConfig(seed=seed % 1000)
    frame = (np.ones(len(pts)), np.zeros(len(pts))) if axis_frame else _frame(len(pts), 3, cfg)
    got = make_local_views(pts, 3, cfg, frame)
    cos, sin = frame
    for i, view in enumerate(got):
        dx, dy = pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1]
        seen = np.flatnonzero(np.hypot(dx, dy) <= 1.0 + TAU_GEOM)
        kx = cos[i] * dx[seen] - sin[i] * dy[seen]
        ky = sin[i] * dx[seen] + cos[i] * dy[seen]
        kx[seen == i] = -np.inf
        order = np.lexsort((ky, kx))
        want = np.stack([kx[order], ky[order]], axis=1)
        want[0] = 0.0
        assert view.tobytes() == want.tobytes()
