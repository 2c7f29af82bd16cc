"""Planar geometry primitives shared by every other module.

Points are numpy arrays of shape (2,) or stacked as (n, 2) float64 arrays.
Angles are measured counter-clockwise from the +x axis; signed angles live
in (-pi, pi].  All coincidence/containment predicates use the absolute
tolerance TAU_GEOM.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

# Absolute tolerance for distance / coincidence predicates.
TAU_GEOM = 1e-9

# Angular snap for points lying exactly on a boundary ray.  Must stay well
# below 1e-12 so that deliberately off-ray inputs are never snapped.
ANG_SNAP = 1e-13

_SEC_SEED = 0x5EC


def as_points(points) -> np.ndarray:
    """Coerce input to an (n, 2) float64 array and reject non-finite values."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr


def dist(p, q) -> float:
    return math.hypot(float(p[0]) - float(q[0]), float(p[1]) - float(q[1]))


def norm(v) -> float:
    return math.hypot(float(v[0]), float(v[1]))


def unit(v) -> np.ndarray:
    n = norm(v)
    if n <= TAU_GEOM:
        raise ValueError("cannot normalize a (near-)zero vector")
    return np.asarray(v, dtype=float) / n


def perp(v) -> np.ndarray:
    """Rotate a vector by +pi/2."""
    v = np.asarray(v, dtype=float)
    return np.array([-v[1], v[0]])


def signed_angle(u, v) -> float:
    """Signed angle in (-pi, pi] rotating u counter-clockwise onto v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if norm(u) <= TAU_GEOM or norm(v) <= TAU_GEOM:
        raise ValueError("signed_angle requires nonzero vectors")
    a = math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])
    if a <= -math.pi:
        a = math.pi
    return a


def polar_angle(p) -> float:
    """Angle of a nonzero point in [0, 2*pi)."""
    p = np.asarray(p, dtype=float)
    a = math.atan2(p[1], p[0])
    if a < 0.0:
        a += 2.0 * math.pi
    if a >= 2.0 * math.pi:
        a = 0.0
    return a


def from_polar(r: float, phi: float) -> np.ndarray:
    return np.array([r * math.cos(phi), r * math.sin(phi)])


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate(points, theta: float, center=None) -> np.ndarray:
    """Rotate points counter-clockwise by theta about center (default origin)."""
    pts = np.asarray(points, dtype=float)
    rot = rotation_matrix(theta)
    if center is None:
        return pts @ rot.T
    center = np.asarray(center, dtype=float)
    return (pts - center) @ rot.T + center


def pairwise_distances(points) -> np.ndarray:
    pts = as_points(points)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def contains(self, p, tol: float = TAU_GEOM) -> bool:
        return dist(self.center, p) <= self.radius + tol


# --- smallest enclosing circle (Welzl-style randomized incremental) --------
#
# Pure-float inner loops (this sits on several hot paths).  Shuffling uses a
# fixed seed so the result is deterministic for a fixed input ordering; the
# circle itself is unique regardless.

def smallest_enclosing_circle(points) -> Circle:
    pts = [(float(x), float(y)) for x, y in as_points(points)]
    if not pts:
        raise ValueError("smallest_enclosing_circle requires at least one point")
    random.Random(_SEC_SEED).shuffle(pts)

    c = None
    for i, p in enumerate(pts):
        if c is None or not _in_circle(c, p):
            c = _circle_one_point(pts[: i + 1], p)
    return Circle((c[0], c[1]), c[2])


def _in_circle(c, p) -> bool:
    return math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1 + 1e-14) + 1e-14


def _circle_one_point(points, p):
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(points):
        if not _in_circle(c, q):
            if c[2] == 0.0:
                c = _circle_diameter(p, q)
            else:
                c = _circle_two_points(points[: i + 1], p, q)
    return c


def _circle_two_points(points, p, q):
    circ = _circle_diameter(p, q)
    left = None
    right = None
    px, py = p
    qx, qy = q
    dqx, dqy = qx - px, qy - py
    for r in points:
        if _in_circle(circ, r):
            continue
        cross = dqx * (r[1] - py) - dqy * (r[0] - px)
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        ccross = dqx * (c[1] - py) - dqy * (c[0] - px)
        if cross > 0.0 and (left is None
                            or ccross > dqx * (left[1] - py) - dqy * (left[0] - px)):
            left = c
        elif cross < 0.0 and (right is None
                              or ccross < dqx * (right[1] - py) - dqy * (right[0] - px)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _circle_diameter(p, q):
    cx = (p[0] + q[0]) / 2.0
    cy = (p[1] + q[1]) / 2.0
    r = max(math.hypot(cx - p[0], cy - p[1]), math.hypot(cx - q[0], cy - q[1]))
    return (cx, cy, r)


def _circumcircle(p, q, r):
    # Translate towards the bounding-box center for numerical stability.
    ox = (min(p[0], q[0], r[0]) + max(p[0], q[0], r[0])) / 2.0
    oy = (min(p[1], q[1], r[1]) + max(p[1], q[1], r[1])) / 2.0
    ax, ay = p[0] - ox, p[1] - oy
    bx, by = q[0] - ox, q[1] - oy
    cx, cy = r[0] - ox, r[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    radius = max(math.hypot(x - p[0], y - p[1]), math.hypot(x - q[0], y - q[1]),
                 math.hypot(x - r[0], y - r[1]))
    return (x, y, radius)


# --- point-set measurements -------------------------------------------------

def mindist(points) -> float:
    """Minimum pairwise distance; duplicates are a domain error."""
    pts = as_points(points)
    if len(pts) < 2:
        raise ValueError("mindist requires at least two points")
    d = pairwise_distances(pts)
    np.fill_diagonal(d, np.inf)
    m = float(d.min())
    if m <= TAU_GEOM:
        raise ValueError("duplicate points")
    return m


def match_points(a, b, tol):
    """Bijection i -> perm[i] with a[i] ~ b[perm[i]] within tol.

    Returns (perm, max error), or (None, largest nearest-neighbor distance).
    Nearest neighbors decide when they are injective; when they collide, an
    exact minimum-cost assignment arbitrates.
    """
    tree = cKDTree(b)
    dd, idx = tree.query(a, k=1)
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


def unit_disc_connected(points) -> bool:
    """Connectivity of the unit disc graph: edges where dist is in (0, 1]."""
    pts = as_points(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty point set")
    if n == 1:
        return True
    d = pairwise_distances(pts)
    adj = (d > TAU_GEOM) & (d <= 1.0 + TAU_GEOM)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i] & ~seen)[0]:
            seen[j] = True
            stack.append(int(j))
    return bool(seen.all())
