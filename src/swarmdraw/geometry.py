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
from functools import lru_cache

import numpy as np

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


def rotate(points, theta: float) -> np.ndarray:
    """Rotate points counter-clockwise by theta about the origin."""
    pts = np.asarray(points, dtype=float)
    rot = rotation_matrix(theta)
    return pts @ rot.T


def _squared_distances(a, b) -> np.ndarray:
    """(len(a), len(b)) squared distances, from per-axis differences."""
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    return dx * dx + dy * dy


def pairwise_distances(points) -> np.ndarray:
    """Distances between all pairs of one set."""
    pts = as_points(points)
    return np.sqrt(_squared_distances(pts, pts))


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float


# --- smallest enclosing circle (Welzl-style randomized incremental) --------
#
# Pure-float inner loops (this sits on several hot paths).  Shuffling uses a
# fixed seed so the result is deterministic for a fixed input ordering; the
# circle itself is unique regardless.  ``enclosing_centers`` gives the same
# centres for a batch of equal-size sets in elementwise array passes, and
# hands the sets whose support is ambiguous to the Welzl loop.

def smallest_enclosing_circle(points) -> Circle:
    arr = as_points(points)
    if not len(arr):
        raise ValueError("smallest_enclosing_circle requires at least one point")
    pts = arr[_sec_order(len(arr))].tolist()

    c = None
    for i, p in enumerate(pts):
        if c is None or not _in_circle(c, p):
            c = _circle_one_point(pts[: i + 1], p)
    return Circle((c[0], c[1]), c[2])


@lru_cache(maxsize=None)
def _sec_order(n: int) -> np.ndarray:
    """The fixed-seed shuffle of range(n): it depends on the length alone."""
    order = list(range(n))
    random.Random(_SEC_SEED).shuffle(order)
    return np.array(order)


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


_NEAR = 1e-12       # relative and absolute: a point this near a circle may be on it
# The candidate supports of a set's points e, s0, s1, s2 (new point first): the
# pairs, padded by repeating their second point, then the triples.
_CANDIDATES = np.array([[0, 1, 1], [0, 2, 2], [0, 3, 3], [0, 1, 2], [0, 1, 3], [0, 2, 3]])


def enclosing_centers(sets) -> np.ndarray:
    """``smallest_enclosing_circle(s).center`` of each set s of a (V, n, 2)
    array, bit for bit, as a (V, 2) array.

    The support-set iteration of Elzinga and Hearn runs on all sets at once,
    elementwise, so no set's result depends on the rest of the batch.  Each set
    starts from the circle on a point and its farthest point.  On each pass an
    unfinished set takes its point farthest outside the circle (by Welzl's
    in-circle test), and its support becomes the smallest circle through that
    point and one or two support points that holds all of them.  A support is
    kept in Welzl's order, latest first, so a triple's centre comes from
    ``_circumcircle``'s formula with Welzl's roles p, q, r and a pair's from
    ``_circle_diameter``'s.  A set is ambiguous when a point off its support
    lies within _NEAR of the circle (cocircular sets), its support triangle is
    not acute by _NEAR, or its radius is at most _NEAR, where Welzl's absolute
    tolerance merges points; such sets get ``smallest_enclosing_circle`` itself.
    """
    sets = np.asarray(sets, dtype=float)
    v, n = sets.shape[:2]
    pts = sets[:, _sec_order(n)]                # Welzl's order: index = rank
    rows = np.arange(v)
    far = _distances(pts, pts[:, :1]).argmax(axis=1)
    sup = np.stack([far, far, np.zeros(v, dtype=int)], axis=1)     # descending
    center = (pts[rows, 0] + pts[rows, far]) / 2.0
    radius = _distances(pts[rows, far], center)
    todo = rows
    for _ in range(n + 2):
        reach = radius[todo, None] * (1 + 1e-14) + 1e-14         # Welzl's in-circle test
        out = _distances(pts[todo], center[todo, None]) - reach
        new = out.argmax(axis=1)
        moving = out[np.arange(len(todo)), new] > 0.0
        todo, new = todo[moving], new[moving]
        if not len(todo):
            break
        members = np.column_stack([new, sup[todo]])
        cand = np.sort(members[:, _CANDIDATES], axis=2)[..., ::-1]     # (m, 6, 3)
        x = pts[todo[:, None, None], cand]
        with np.errstate(divide="ignore", invalid="ignore"):
            # A padded pair sorts to (a, b, b) or (b, b, a): its ends are 0 and 2.
            centers = np.concatenate([(x[:, :3, 0] + x[:, :3, 2]) / 2.0,
                                      _circumcenters(x[:, 3:])], axis=1)
            radii = _distances(x, centers[:, :, None]).max(axis=2)
            holds = (_distances(pts[todo[:, None], members][:, None], centers[:, :, None])
                     <= (radii * (1 + _NEAR) + _NEAR)[..., None]).all(axis=2)
        pick = np.arange(len(todo)), np.where(holds, radii, np.inf).argmin(axis=1)
        sup[todo], center[todo], radius[todo] = cand[pick], centers[pick], radii[pick]

    off = np.ones((v, n), dtype=bool)
    off[rows[:, None], sup] = False
    inner = radius[:, None] * (1 - _NEAR) - _NEAR
    ambiguous = (radius <= _NEAR) | (off & (_distances(pts, center[:, None]) >= inner)).any(axis=1)
    # A triangle with a vertex in the circle on its other two points.
    x = pts[rows[:, None], sup]
    y, z = np.roll(x, -1, axis=1), np.roll(x, -2, axis=1)
    tri = (sup[:, 0] != sup[:, 1]) & (sup[:, 1] != sup[:, 2])
    ambiguous |= tri & (_distances(x, (y + z) / 2.0)
                        <= _distances(y, z) / 2.0 * (1 + _NEAR) + _NEAR).any(axis=1)
    ambiguous[todo] = True
    for i in np.flatnonzero(ambiguous).tolist():
        center[i] = smallest_enclosing_circle(sets[i]).center
    return center


def _distances(a, b) -> np.ndarray:
    """Elementwise distances between the points of two broadcast (..., 2) arrays."""
    return np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])


def _circumcenters(t) -> np.ndarray:
    """``_circumcircle``'s centre of each triangle p, q, r of a (..., 3, 2)
    array, with its operations in its order: the same bits.  A collinear
    triangle gets nan or inf."""
    o = (t.min(axis=-2) + t.max(axis=-2)) / 2.0
    (ax, ay), (bx, by), (cx, cy) = np.moveaxis(t - o[..., None, :], (-2, -1), (0, 1))
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    sa, sb, sc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    return np.stack([o[..., 0] + (sa * (by - cy) + sb * (cy - ay) + sc * (ay - by)) / d,
                     o[..., 1] + (sa * (cx - bx) + sb * (ax - cx) + sc * (bx - ax)) / d],
                    axis=-1)


def triple_sec_radii(tri) -> np.ndarray:
    """Smallest-enclosing-circle radii of k triangles given as a (k, 3, 2) array.

    A triangle that is not acute (collinear included) is enclosed by the
    circle on its longest side; an acute one by its circumcircle, of radius
    abc / (2 |cross|).  The cross product spans the two shorter sides, whose
    angle is the largest and lies in [60, 90) degrees, so it stays well
    conditioned.
    """
    tri = np.asarray(tri, dtype=float).reshape(-1, 3, 2)
    e = np.roll(tri, -1, axis=1) - tri                  # e[:, i] = tri[i + 1] - tri[i]
    sq = (e * e).sum(axis=2)
    longest = sq.argmax(axis=1)
    rows = np.arange(len(tri))
    u = e[rows, (longest + 1) % 3]
    v = e[rows, (longest + 2) % 3]
    cross = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    big = sq[rows, longest]
    obtuse = (2.0 * big >= sq.sum(axis=1)) | (cross == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = np.sqrt(sq.prod(axis=1)) / (2.0 * cross)
    return np.where(obtuse, np.sqrt(big) / 2.0, circum)


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


def nearest(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(distances, indices) of each point of a's nearest point in b.

    One dense pass over the squared distances, made for sets of at most a few
    hundred points; the distances equal a KD-tree query's bit for bit.
    """
    sq = _squared_distances(a, b)
    idx = sq.argmin(axis=1)
    return np.sqrt(sq[np.arange(len(a)), idx]), idx


def nearest_in_sets(a, sets, owner, sizes) -> tuple[np.ndarray, np.ndarray]:
    """``nearest`` of each point a[i] in its own set: the first sizes[k] points
    of sets[k], k = owner[i], where sets is an (m, w, 2) array.

    The squared distances equal ``nearest``'s bit for bit (a difference's sign
    does not reach its square); they are formed in place, in two (len(a), w)
    arrays.  A point whose set is empty gets distance inf.
    """
    sq = sets[owner, :, 0]
    sq -= a[:, 0, None]
    sq *= sq
    dy = sets[owner, :, 1]
    dy -= a[:, 1, None]
    dy *= dy
    sq += dy
    sq[np.arange(sets.shape[1]) >= sizes[owner, None]] = np.inf
    idx = sq.argmin(axis=1)
    return np.sqrt(sq[np.arange(len(a)), idx]), idx


def match_points(a, b, tol):
    """Bijection i -> perm[i] with a[i] ~ b[perm[i]] within tol.

    Returns (perm, max error), or (None, largest nearest-neighbor distance).
    Nearest neighbors (``nearest``, NumPy only) decide when they are
    injective.  When they collide, an exact minimum-cost assignment over the
    same distances arbitrates, if the largest nearest-neighbor distance is
    within tol: no bijection has an error below it.  Only this fallback
    imports scipy (``scipy.optimize``), on first use.
    """
    dd, idx = nearest(a, b)
    if dd.max() <= tol and len(set(idx.tolist())) == len(a):
        return idx, float(dd.max())
    if dd.max() <= tol:
        from scipy.optimize import linear_sum_assignment  # rarely needed; slow to import

        cost = np.sqrt(_squared_distances(a, b))
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
