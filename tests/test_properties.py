"""Property tests of the geometry primitives, the batched triple radii, the
shared matcher, the orbit walk built on it, the congruence fit, the
near-gathering assignment, the grid-state enumeration and the scaling
branch's neighbourhood match."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmdraw.formation import (
    FormationError,
    _decode,
    count_states,
    grid_spec,
    index_of_state,
    state_by_index,
    state_from_cells,
)
from swarmdraw.geometry import (match_points, rotate, smallest_enclosing_circle,
                                triple_sec_radii)
from swarmdraw.protocol import (AssignmentError, Phase, _star_match, _star_precheck,
                                assignment_target, build_plan, fit_isometry, robot_decision)
from swarmdraw.symmetry import normalize, symmetricity

from corpus import main_corpus, near_gathering, random_connected_pattern, star_corpus
from test_geometry import _brute_force_sec
from test_protocol import kdtree_star_match, least_squares_pose, view_from_global

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
            assignment_target(view.all_points, 0, slots)


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
    assert np.array_equal(spec.local, np.stack([grid.cell_local(c) for c in spec.cell_ids()]))


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


@lru_cache(maxsize=None)
def _star_plan(name):
    return build_plan(dict(star_corpus())[name])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(["ngon-14x2", "ngon-32x5", "ngon-63x10", "ring2-20", "ring2-40",
                        "ring2-66"]),
       st.floats(0.0, 1.0), st.integers(0, 10 ** 6), st.floats(-math.pi, math.pi),
       st.floats(0.0, 1.5), st.integers(0, 2 ** 32 - 1))
def test_star_match_without_a_tree_equals_the_kdtree_match(name, grow, robot, theta, spread,
                                                           seed):
    """One robot's view of a scaled star pattern, in a random frame, with every
    neighbour jittered by up to spread times the coarse window.  At every coarse
    candidate, and at the least-squares pose of every match, the tree-free
    _star_match returns what the KD-tree version returns, and the pre-check
    keeps every candidate whose coarse match succeeds."""
    plan = _star_plan(name)
    star = plan.star
    kappa = star.kappa0 + grow * (1.0 - star.kappa0)
    view = view_from_global(kappa * plan.pattern, robot % plan.n, theta).neighbors
    rng = np.random.default_rng(seed)
    view = view + jitter(rng, len(view), spread * 0.3 * kappa * star.mindist)
    obs_norms = np.hypot(*view.T)
    nearest = view[int(np.argmin(obs_norms))]
    matched = 0
    for ring in star.rings:
        kappa0s = np.hypot(*nearest) / ring.norms[ring.nearest8]
        windows = np.maximum(0.3 * kappa0s * star.mindist, 1e-6)
        keep = _star_precheck(obs_norms, ring.sorted_norms, kappa0s, windows)
        for j, kappa0, window, kept in zip(ring.nearest8, kappa0s, windows, keep):
            theta0 = (math.atan2(nearest[1], nearest[0])
                      - math.atan2(ring.offs[j][1], ring.offs[j][0]))
            poses = [(kappa0, theta0, window)]
            for k, th, w in poses:
                got = _star_match(view, ring.offs, ring.norms, k, th, w)
                want = kdtree_star_match(view, ring.offs, ring.norms, k, th, w)
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got, want)
                    matched += 1
                    if len(poses) == 1:
                        assert kept or not 1e-6 <= kappa0 <= 1.0 + 1e-9
                        k, th = least_squares_pose(view, ring.offs, want)
                        poses += [(k, th, 1e-6), (k, th, window)]
    if spread == 0.0:
        assert matched


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
