"""Pattern normalization, symmetricity, and cone decomposition.

A pattern is a finite set of distinct plane coordinates.  Its symmetricity is
the largest m such that the points partition into regular m-gons sharing the
center of the smallest enclosing circle; a pattern containing that center has
symmetricity 1.  Cones split the plane into equal angular sectors used to
carve a pattern into rotation-symmetric components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ANG_SNAP,
    TAU_GEOM,
    as_points,
    match_points,
    polar_angle,
    rotate,
    smallest_enclosing_circle,
)


@dataclass(frozen=True)
class SymmetryInfo:
    sym: int
    orbit_partition: list[list[int]] = field(default_factory=list)


def normalize(points) -> np.ndarray:
    """The (n, 2) array of points translated so that their smallest enclosing
    circle is centered at the origin."""
    pts = as_points(points)
    return pts - np.asarray(smallest_enclosing_circle(pts).center)


def rotation_orbits(points, m: int, tol: float = TAU_GEOM) -> list[list[int]] | None:
    """Orbits of the rotation by 2*pi/m about the origin, or None if that
    rotation does not map the point set onto itself within tol."""
    pts = as_points(points)
    perm, _ = match_points(rotate(pts, 2.0 * math.pi / m), pts, tol)
    if perm is None:
        return None
    seen = np.zeros(len(pts), dtype=bool)
    orbits = []
    for i in range(len(pts)):
        if seen[i]:
            continue
        orbit = [i]
        seen[i] = True
        j = int(perm[i])
        while j != i:
            orbit.append(j)
            seen[j] = True
            j = int(perm[j])
        orbits.append(orbit)
    return orbits


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def symmetricity(points) -> SymmetryInfo:
    """Largest m admitting an m-regular partition of the (n, 2) array of
    points about its smallest enclosing circle's center, with the orbit
    partition as lists of row indices: ``centered_symmetricity`` of the
    normalized points."""
    return centered_symmetricity(normalize(points))


def centered_symmetricity(pts: np.ndarray) -> SymmetryInfo:
    """``symmetricity`` of an (n, 2) array whose smallest enclosing circle is
    already centered at the origin, about the origin: callers that have
    centered the points skip a second enclosing circle."""
    n = len(pts)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    singletons = [[i] for i in range(n)]
    if n == 1 or np.any(radii <= TAU_GEOM):
        # The center is occupied: it can only ever be a 1-gon.
        return SymmetryInfo(1, singletons)

    # Candidate m values must divide every radius-class size, hence their gcd.
    order = np.argsort(radii)
    class_sizes = []
    size = 1
    for a, b in zip(order[:-1], order[1:]):
        if radii[b] - radii[a] <= TAU_GEOM:
            size += 1
        else:
            class_sizes.append(size)
            size = 1
    class_sizes.append(size)
    g = 0
    for s in class_sizes:
        g = math.gcd(g, s)

    for m in sorted((d for d in _divisors(g) if d > 1), reverse=True):
        orbits = rotation_orbits(pts, m)
        if orbits is None:
            continue
        assert all(len(o) == m for o in orbits)
        return SymmetryInfo(m, orbits)
    return SymmetryInfo(1, singletons)


def cone_index(p, s: int) -> int:
    """Index in {1..s} of the angular cone containing p.

    Cones are half-open sectors [ (i-1)*2pi/s, i*2pi/s ); a point lying
    exactly on a boundary ray belongs to the cone whose lower edge carries it.
    """
    p = np.asarray(p, dtype=float)
    if math.hypot(p[0], p[1]) <= TAU_GEOM:
        raise ValueError("cone_index is undefined at the origin")
    if s < 1:
        raise ValueError("s must be >= 1")
    w = 2.0 * math.pi / s
    theta = polar_angle(p)
    k = int(theta // w)
    # Snap onto a boundary ray when within ANG_SNAP of it.
    if (k + 1) * w - theta <= ANG_SNAP:
        k += 1
    elif theta - k * w <= ANG_SNAP:
        pass
    k %= s
    return k + 1


def component_indices(points, i: int, sym: int) -> np.ndarray:
    """Indices of the points lying in the i-th cone."""
    pts = as_points(points)
    if not 1 <= i <= sym:
        raise ValueError(f"component index {i} out of range 1..{sym}")
    return np.array([j for j, p in enumerate(pts) if cone_index(p, sym) == i], dtype=int)
