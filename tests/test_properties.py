"""Property tests of the shared matcher and the orbit walk built on it."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmdraw.geometry import match_points, rotate
from swarmdraw.symmetry import Pattern, normalize, symmetricity

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

    info = symmetricity(normalize(Pattern(pts)))
    assert info.sym == m
    orbits = info.orbit_partition
    assert sorted(i for orbit in orbits for i in orbit) == list(range(len(pts)))
    assert all(len(orbit) == m for orbit in orbits)
    centered = normalize(Pattern(pts)).points
    for orbit in orbits:
        turned = rotate(centered[orbit], w)
        assert np.abs(turned - centered[np.roll(orbit, -1)]).max() <= 1e-9
