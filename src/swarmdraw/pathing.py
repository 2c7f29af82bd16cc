"""Construction of the drawing tree, its traversal, the tail, and coverage.

The drawing path for one symmetric component starts at the polar point
(2*Delta, pi/s) on the cone bisector, threads a tree whose nodes cover every
component coordinate within 1 - delta, and ends in a deliberately chosen
vertex whose unit ball contains exactly the last three coordinates.  The
final three robots are dropped from there in two extra rounds.

All vertices keep a clearance of more than max(epsilon, Delta*sin(2*pi/s))
from the cone boundary so that rotated copies of the path never interact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TAU_GEOM,
    as_points,
    dist,
    from_polar,
    mindist,
    nearest,
    pairwise_distances,
    polar_angle,
    rotate,
    smallest_enclosing_circle,
    triple_sec_radii,
    unit,
)
from .formation import GridSpec, count_states
from .symmetry import component_indices, normalize

# Connector subdivision keeps strict slack under the 1 - delta hop bound.
_CONNECTOR_FRACTION = 0.8


class PathConstructionError(ValueError):
    """Raised when no valid drawing path can be constructed."""


# --- cone geometry helpers ----------------------------------------------------

def cone_boundary_distance(p, s: int) -> float:
    """Distance from p to the boundary of the first cone (inf when s == 1)."""
    if s == 1:
        return math.inf
    p = np.asarray(p, dtype=float)
    alpha = 2.0 * math.pi / s
    return min(_ray_distance(p, 0.0), _ray_distance(p, alpha))


def _ray_distance(p, angle: float) -> float:
    u = np.array([math.cos(angle), math.sin(angle)])
    t = max(float(p @ u), 0.0)
    return dist(p, t * u)


def _clamp_into_cone(p, s: int, margin: float) -> np.ndarray:
    """Nearest-in-spirit point of the first cone with the requested margin."""
    p = np.asarray(p, dtype=float)
    if s == 1 or cone_boundary_distance(p, s) >= margin:
        return p
    alpha = 2.0 * math.pi / s
    r = max(float(np.hypot(p[0], p[1])), margin / math.sin(alpha / 2.0))
    lo = math.asin(min(1.0, margin / r))
    theta = min(max(polar_angle(p), lo), alpha - lo)
    return from_polar(r, theta)


# --- drawing tree ---------------------------------------------------------------

@dataclass
class DrawingTree:
    nodes: list[np.ndarray]
    parent: list[int | None]
    children: list[list[int]]

    @property
    def size(self) -> int:
        return len(self.nodes)


def build_drawing_tree(comp_points, s: int, delta: float, diameter: float,
                       margin: float) -> DrawingTree:
    """Tree rooted at (2*Delta, pi/s) covering every component coordinate.

    Two base lines with step 4*delta run parallel to the cone edges up to
    radius max_radius + 1; uncovered coordinates are then attached greedily
    by minimal distance, through margin-safe attachment points subdivided so
    that every edge stays within 1 - delta.
    """
    if delta > 0.2 + 1e-12:
        raise PathConstructionError("tree construction requires delta <= 0.2")
    comp = as_points(comp_points)
    if len(comp) == 0:
        raise PathConstructionError("empty component")
    alpha = 2.0 * math.pi / s
    root = from_polar(2.0 * diameter, math.pi / s)
    reach = 1.0 - delta

    nodes = [root]
    parent: list[int | None] = [None]

    def add_node(pos, par):
        nodes.append(np.asarray(pos, dtype=float))
        parent.append(par)
        return len(nodes) - 1

    max_radius = float(np.hypot(comp[:, 0], comp[:, 1]).max()) + 1.0
    directions = [0.0] if s == 1 else [alpha, 0.0]
    for ang in directions:
        step_vec = 4.0 * delta * np.array([math.cos(ang), math.sin(ang)])
        prev = 0
        i = 1
        while True:
            pos = root + i * step_vec
            if np.hypot(pos[0], pos[1]) > max_radius:
                break
            prev = add_node(pos, prev)
            i += 1

    def covered_mask():
        node_arr = np.stack(nodes)
        d = np.sqrt(((comp[:, None, :] - node_arr[None, :, :]) ** 2).sum(axis=2))
        return d.min(axis=1) <= reach + TAU_GEOM

    mask = covered_mask()
    while not mask.all():
        node_arr = np.stack(nodes)
        best = None
        for pi in np.nonzero(~mask)[0]:
            p = comp[pi]
            d = np.hypot(node_arr[:, 0] - p[0], node_arr[:, 1] - p[1])
            ti = int(d.argmin())
            key = (float(d[ti]), polar_angle(p), float(np.hypot(p[0], p[1])), ti)
            if best is None or key < best[0]:
                best = (key, int(pi), ti)
        assert best is not None
        _, pi, ti = best
        target = _clamp_into_cone(comp[pi], s, margin)
        if dist(target, comp[pi]) > reach:
            raise PathConstructionError(
                f"coordinate {comp[pi]} cannot be covered inside the cone margin")
        cur = ti
        start = nodes[ti]
        span = dist(start, target)
        segs = max(int(math.ceil(span / reach)), 1)
        for t in range(1, segs + 1):
            pos = start + (target - start) * (t / segs)
            if dist(pos, nodes[cur]) <= TAU_GEOM:
                continue
            cur = add_node(pos, cur)
        mask = covered_mask()

    return _prune(nodes, parent, comp, reach)


def _prune(nodes, parent, comp, reach) -> DrawingTree:
    n = len(nodes)
    node_arr = np.stack(nodes)
    d = np.sqrt(((node_arr[:, None, :] - comp[None, :, :]) ** 2).sum(axis=2))
    keep = d.min(axis=1) <= reach + TAU_GEOM if len(comp) else np.zeros(n, bool)
    keep[0] = True
    # Nodes are appended after their parent, so a reverse pass marks every
    # kept node's ancestors.
    for i in range(n - 1, 0, -1):
        if keep[i]:
            keep[parent[i]] = True
    remap = {}
    new_nodes, new_parent, new_children = [], [], []
    for i in range(n):
        if not keep[i]:
            continue
        remap[i] = len(new_nodes)
        new_nodes.append(nodes[i])
        new_parent.append(remap[parent[i]] if parent[i] is not None else None)
        new_children.append([])
        if parent[i] is not None:
            new_children[remap[parent[i]]].append(remap[i])
    return DrawingTree(new_nodes, new_parent, new_children)


def traverse_tree(tree: DrawingTree) -> np.ndarray:
    """Euler-tour DFS from the root; each edge is walked at most twice.

    Children are visited in ascending (polar angle, radius) order of their
    positions, which makes the traversal a pure function of the tree.
    """
    def child_key(c):
        p = tree.nodes[c]
        return (polar_angle(p), float(np.hypot(p[0], p[1])), c)

    out = [tree.nodes[0]]
    stack = [(0, iter(sorted(tree.children[0], key=child_key)))]
    while stack:
        node, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            if stack:
                out.append(tree.nodes[stack[-1][0]])
            continue
        out.append(tree.nodes[child])
        stack.append((child, iter(sorted(tree.children[child], key=child_key))))
    return np.stack(out)


# --- connected triple and canonical rotation -----------------------------------
#
# Both triple scans rank triples by their smallest enclosing circle.  They rank
# every triple with the batched closed form first and run the Welzl SEC, whose
# radius and centre the plan keeps, only on a shortlist within _SEC_SLACK of the
# cut.  The closed form agrees with Welzl to about 1e-15 on these triangles, far
# below the slack, and real gaps between radii are far above it, so the
# shortlist holds every triple that can win and the plans stay the same.
_SEC_SLACK = 1e-9


def _connected_triples(d: np.ndarray) -> np.ndarray:
    """(b, a, c) for every point b and pair a < c of its unit-disc neighbours.

    ``d`` is the distance matrix with an infinite diagonal.  Rows come in
    ascending (b, a, c) order as a (k, 3) int array.
    """
    adj = d <= 1.0 + TAU_GEOM
    rows = []
    for b in range(len(d)):
        nbrs = np.flatnonzero(adj[b])
        i, j = np.triu_indices(len(nbrs), 1)
        rows.append(np.column_stack([np.full(len(i), b), nbrs[i], nbrs[j]]))
    return np.concatenate(rows)


def _representatives(images: np.ndarray, angles: np.ndarray, idx: np.ndarray,
                     ref: np.ndarray, s: int) -> np.ndarray:
    """For each idx[t], its rotation image whose angle is closest to ref[t].

    ``images[i, k]`` is the index of point i rotated by k*2*pi/s, or -1.  An
    image counts within pi/s of the reference angle; -1 marks a point with a
    missing image or no image in range.
    """
    js = images[idx]
    off = np.abs((angles[js] - ref[:, None] + math.pi) % (2.0 * math.pi) - math.pi)
    off = np.where(off < math.pi / s - 1e-12, off, math.inf)
    off[(js < 0).any(axis=1)] = math.inf
    rows = np.arange(len(js))
    best = off.argmin(axis=1)
    return np.where(np.isinf(off[rows, best]), -1, js[rows, best])


def find_connected_triple_rotation(points, s: int) -> tuple[float, tuple[int, int, int]]:
    """A rotation placing a unit-disc-connected triple inside the first cone.

    Follows the symmetric-representative argument: any point with two unit
    disc neighbors yields, after replacing the neighbors by their rotation
    images closest in angle, a connected triple of angular extent < 2*pi/s.
    Returns the rotation (to apply to the whole pattern) and the triple's
    indices, preferring triples with the smallest enclosing circle.
    """
    pts = as_points(points)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least three points")
    d = pairwise_distances(pts)
    np.fill_diagonal(d, np.inf)
    alpha = 2.0 * math.pi / s
    angles = np.array([polar_angle(p) for p in pts])

    trips = _connected_triples(d)
    if s > 1:
        # images[i, k]: the point at pts[i] rotated by k*alpha, or -1.
        images = np.empty((n, s), dtype=np.intp)
        for k in range(s):
            dd, j = nearest(rotate(pts, k * alpha), pts)
            images[:, k] = np.where(dd <= TAU_GEOM, j, -1)
        b = trips[:, 0]
        ra = _representatives(images, angles, trips[:, 1], angles[b], s)
        rc = _representatives(images, angles, trips[:, 2], angles[b], s)
        keep = (ra >= 0) & (rc >= 0) & (ra != b) & (rc != b) & (ra != rc)
        trips = np.column_stack([b, ra, rc])[keep]

    radii = triple_sec_radii(pts[trips])
    small = radii < 0.98 + _SEC_SLACK
    small &= radii <= radii.min(where=small, initial=math.inf) + _SEC_SLACK
    candidates = []
    for trip in trips[small].tolist():
        tpts = pts[trip]
        sec = smallest_enclosing_circle(tpts)
        if sec.radius >= 0.98:
            continue
        key = (round(sec.radius, 12), tuple(sorted(map(tuple, np.round(tpts, 9).tolist()))))
        candidates.append((key, tuple(trip)))
    if not candidates:
        raise ValueError("no connected triple with a small enclosing circle exists")
    candidates.sort(key=lambda kv: kv[0])
    _, trip = candidates[0]

    offs = [(angles[i] - angles[trip[0]] + math.pi) % (2.0 * math.pi) - math.pi for i in trip]
    mid = angles[trip[0]] + (min(offs) + max(offs)) / 2.0
    theta = alpha / 2.0 - mid
    return theta, trip


# --- tail construction -----------------------------------------------------------

@dataclass(frozen=True)
class TailPieces:
    z_start: np.ndarray | None
    extras: np.ndarray
    z_end: np.ndarray
    triple: tuple[int, ...]


def build_tail(comp_points, s: int, delta: float, margin: float) -> TailPieces:
    """Find the path ending: z_end with exactly three coordinates in reach.

    z_end must see exactly three component coordinates strictly within
    distance 1 (with headroom) while every other coordinate stays clear of
    the whole ending region; z_start, when the component has a fourth
    coordinate, pins the last regular drop close to the ending.  Extra
    vertices on a circle of radius delta/2 around z_end cover triple points
    beyond 1 - delta.
    """
    comp = as_points(comp_points)
    m = len(comp)
    if m < 3:
        raise PathConstructionError("component must contain at least 3 coordinates")
    h_in = 0.6 * delta          # triple points at most 1 - h_in from z_end
    h_out = 0.05                # everything else at least 1 + h_out away
    margin_z = margin + 0.6 * delta

    z_end, triple = _search_z_end(comp, s, h_in, h_out, margin_z)

    extras = []
    for i in sorted(triple, key=lambda t: tuple(np.round(comp[t], 9))):
        if dist(z_end, comp[i]) > 1.0 - delta:
            extras.append(z_end + (delta / 2.0) * unit(comp[i] - z_end))
    extras_arr = np.stack(extras) if extras else np.zeros((0, 2))

    z_start = None
    if m > 3:
        rest = [i for i in range(m) if i not in triple]
        p4 = comp[min(rest, key=lambda i: (dist(comp[i], z_end), tuple(np.round(comp[i], 9))))]
        if dist(p4, z_end) > 7.0:
            raise PathConstructionError(
                f"nearest fourth coordinate is {dist(p4, z_end):.2f} from the path end")
        for frac in (0.9, 0.7, 0.5, 0.3):
            cand = p4 + frac * (1.0 - delta) * unit(z_end - p4)
            cand = _clamp_into_cone(cand, s, margin * (1 + 1e-6) + 1e-9)
            if dist(cand, p4) > 1.0 - delta:
                continue
            if _corridor_recaptures(cand, extras_arr, z_end, p4, delta):
                continue
            z_start = cand
            break
        if z_start is None:
            raise PathConstructionError("no feasible pre-ending vertex near the fourth coordinate")
    return TailPieces(z_start, extras_arr, z_end, triple)


def _corridor_recaptures(z_start, extras, z_end, p4, delta) -> bool:
    spacing = _CONNECTOR_FRACTION * (1.0 - delta)
    pts = _segment(z_start, z_end, spacing)
    pts = np.vstack([pts[:-1], extras, z_end]) if len(pts) else np.vstack([extras, z_end])
    return bool((np.hypot(*(pts - p4).T) <= 1.0 - delta + TAU_GEOM).any())


def _ending_seeds(comp) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The first 40 connected triples by smallest enclosing circle, as (sorted
    indices, Welzl centre), each index set once."""
    d = pairwise_distances(comp)
    np.fill_diagonal(d, np.inf)
    trips = _connected_triples(d)
    radii = triple_sec_radii(comp[trips])
    if len(radii) > 40:
        trips = trips[radii <= np.partition(radii, 39)[39] + _SEC_SLACK]
    scored = []
    for trip in trips.tolist():
        sec = smallest_enclosing_circle(comp[trip])
        scored.append((round(sec.radius, 12), tuple(sorted(trip)), np.asarray(sec.center)))
    scored.sort(key=lambda kv: (kv[0], kv[1]))
    seeds: dict[tuple[int, ...], np.ndarray] = {}
    for _, trip, center in scored[:40]:
        seeds.setdefault(trip, center)
    return list(seeds.items())


def _search_z_end(comp, s, h_in, h_out, margin_z):
    def evaluate(z):
        if cone_boundary_distance(z, s) < margin_z:
            return None
        dd = np.hypot(*(comp - z).T)
        inside = np.nonzero(dd <= 1.0 - h_in)[0]
        buffer_zone = np.any((dd > 1.0 - h_in) & (dd < 1.0 + h_out))
        if len(inside) == 3 and not buffer_zone:
            return tuple(int(i) for i in inside)
        return None

    for trip, center in _ending_seeds(comp):
        z0 = _clamp_into_cone(center, s, margin_z)
        hit = evaluate(z0)
        if hit is not None:
            return z0, hit
        dd0 = np.hypot(*(comp - z0).T)
        contaminants = comp[(dd0 < 1.0 + h_out)]
        dirs = []
        if len(contaminants) > len(trip):
            escape = z0 - contaminants.mean(axis=0)
            if np.hypot(*escape) > TAU_GEOM:
                dirs.append(unit(escape))
        dirs += [np.array([math.cos(a), math.sin(a)])
                 for a in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)]
        for u in dirs:
            for t in np.arange(0.05, 2.05, 0.05):
                z = _clamp_into_cone(z0 + t * u, s, margin_z)
                hit = evaluate(z)
                if hit is not None:
                    return z, hit
    raise PathConstructionError(
        "no path ending found with exactly three coordinates in reach")


def _segment(a, b, spacing) -> np.ndarray:
    """Evenly spaced points from a (exclusive) to b (inclusive)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    span = dist(a, b)
    if span <= TAU_GEOM:
        return np.zeros((0, 2))
    segs = max(int(math.ceil(span / spacing)), 1)
    ts = np.arange(1, segs + 1) / segs
    return a + ts[:, None] * (b - a)


# --- drawing path ------------------------------------------------------------------

@dataclass(frozen=True)
class DrawingPath:
    """A concrete drawing path for the first symmetric component.

    ``pattern`` is the canonically rotated full pattern; ``coverage`` maps
    each vertex to the pattern indices dropped when leaving it; ``labels``
    give the (size, state index) encoding while anchored on each vertex.
    """

    pattern: np.ndarray
    comp: tuple[int, ...]
    vertices: np.ndarray
    delta: float
    coverage: tuple[tuple[int, ...], ...]
    tail_start: int
    labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "_label_map", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def hops(self) -> int:
        return len(self.vertices) - 1

    @property
    def tail_len(self) -> int:
        return len(self.vertices) - self.tail_start

    def vertex_of_label(self, size: int, index: int) -> int | None:
        return self._label_map.get((size, index))

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern.tolist(),
            "component": list(self.comp),
            "vertices": self.vertices.tolist(),
            "delta": self.delta,
            "coverage": [list(c) for c in self.coverage],
            "tail_start": self.tail_start,
            "labels": [list(l) for l in self.labels],
        }


def coverage_and_tail(vertices, comp_points, delta) -> tuple[list[tuple[int, ...]], int]:
    """Coverage per vertex (maximal index within 1 - delta) and tail start."""
    verts = as_points(vertices)
    comp = as_points(comp_points)
    reach = 1.0 - delta + TAU_GEOM
    cov: list[list[int]] = [[] for _ in verts]
    for pi, p in enumerate(comp):
        dd = np.hypot(*(verts - p).T)
        hits = np.nonzero(dd <= reach)[0]
        if len(hits) == 0:
            raise PathConstructionError(f"coordinate {p} is not covered by any vertex")
        cov[int(hits.max())].append(pi)
    sizes = np.array([len(c) for c in cov])
    suffix = np.cumsum(sizes[::-1])[::-1]
    tail_start = len(verts)
    for i in range(len(verts) - 1, -1, -1):
        if suffix[i] < 4:
            tail_start = i
        else:
            break
    return [tuple(c) for c in cov], tail_start


def path_state_label(coverage, tail_start: int, i: int) -> tuple[int, int]:
    """(formation size, state index) while anchored on vertex i (0-based).

    Body vertices encode progress as (remaining coordinates, 1 + length of
    the empty-coverage run just before i); tail vertices count positions
    1..tail_len at size 3.
    """
    k = len(coverage)
    if not 0 <= i < k:
        raise IndexError(f"vertex {i} out of range")
    if i >= tail_start:
        return 3, i - tail_start + 1
    size = sum(len(coverage[j]) for j in range(i, k))
    g = 0
    j = i - 1
    while j >= 0 and not coverage[j]:
        g += 1
        j -= 1
    return size, g + 1


def build_drawing_path(pattern, params, grid: GridSpec) -> DrawingPath:
    """Deterministic drawing path for the first component of a pattern.

    ``params`` must provide epsilon, delta (hull diameter) and s_p
    (``ProtocolParams`` does); ``grid`` is the hull grid they define, on
    which the path's state labels must be encodable.  The pattern is
    normalized and canonically rotated so that a connected triple ends up
    inside the first cone.  Raises PathConstructionError naming the first
    property the path cannot meet.
    """
    diameter = params.delta
    s = params.s_p
    delta = diameter  # path slack equals the hull diameter
    pts = normalize(pattern)
    theta, _ = find_connected_triple_rotation(pts, s)
    canon = rotate(pts, theta)
    comp_idx = component_indices(canon, 1, s)
    comp = canon[comp_idx]
    if len(comp) != len(canon) // s:
        raise PathConstructionError("component size mismatch; pattern symmetricity is off")

    margin_req = _margin_req(params)
    margin_target = margin_req * (1 + 1e-6) + 1e-9

    tree = build_drawing_tree(comp, s, delta, diameter, margin_target)
    trav = traverse_tree(tree)
    tail = build_tail(comp, s, delta, margin_req)

    spacing = _CONNECTOR_FRACTION * (1.0 - delta)
    seq = [trav]
    end = trav[-1]
    if tail.z_start is not None:
        seq.append(_segment(end, tail.z_start, spacing))
        corridor = _segment(tail.z_start, tail.z_end, spacing)
    else:
        corridor = _segment(end, tail.z_end, spacing)
    seq.append(corridor[:-1])
    if len(tail.extras):
        seq.append(tail.extras)
    seq.append(tail.z_end.reshape(1, 2))
    vertices = _dedupe(np.vstack(seq))

    cov_local, tail_start = coverage_and_tail(vertices, comp, delta)
    tail_cov = sorted({i for c in cov_local[tail_start:] for i in c})
    if len(tail_cov) != 3:
        raise PathConstructionError(f"tail covers {len(tail_cov)} coordinates, expected 3")
    vk = vertices[-1]
    if any(dist(comp[i], vk) >= 1.0 for i in tail_cov):
        raise PathConstructionError("a tail coordinate is out of reach of the last vertex")

    coverage = tuple(tuple(int(comp_idx[i]) for i in c) for c in cov_local)
    labels = tuple(path_state_label(cov_local, tail_start, i) for i in range(len(vertices)))
    if len(set(labels)) != len(labels):
        raise PathConstructionError("path state labels are not unique")

    path = DrawingPath(
        pattern=canon,
        comp=tuple(int(i) for i in comp_idx),
        vertices=vertices,
        delta=delta,
        coverage=coverage,
        tail_start=tail_start,
        labels=labels,
    )
    _validate_path(path, params, grid)
    return path


def _dedupe(vertices: np.ndarray) -> np.ndarray:
    out = [vertices[0]]
    for v in vertices[1:]:
        if dist(v, out[-1]) > 1e-12:
            out.append(v)
    return np.stack(out)


def _margin_req(params) -> float:
    """Clearance every vertex keeps from the cone boundary, so that the
    rotated copies of the path and of its formations never interact."""
    return max(params.epsilon, params.delta * max(math.sin(2.0 * math.pi / params.s_p), 0.0))


def _validate_path(path: DrawingPath, params, grid: GridSpec) -> None:
    """Raise PathConstructionError naming the first property the path breaks.

    Every hop is at most 1 - delta, every vertex keeps the cone margin, and
    the path starts at the formation anchor.  The compatibility properties
    follow: epsilon is below the pattern's minimum spacing, every run of
    vertices with empty coverage fits in the size-4 states (none when the
    grid has fewer than 6 locations), and every label is a state of the grid.
    The tail's labels are (3, 1..tail_len), so the last check also bounds the
    tail length by the size-3 states.
    """
    verts = path.vertices
    steps = np.hypot(*np.diff(verts, axis=0).T)
    if np.any(steps > 1.0 - path.delta + TAU_GEOM):
        raise PathConstructionError("consecutive vertices too far apart")
    s = params.s_p
    if s > 1 and min(cone_boundary_distance(v, s) for v in verts) <= _margin_req(params):
        raise PathConstructionError("path violates the cone boundary margin")
    start = from_polar(2.0 * params.delta, math.pi / s)
    if dist(verts[0], start) > TAU_GEOM:
        raise PathConstructionError("path does not start at the formation anchor")
    if params.epsilon >= mindist(path.pattern):
        raise PathConstructionError("epsilon is not below the pattern's minimum spacing")
    run_limit = count_states(grid, 4) if grid.locations >= 6 else 0
    run = 0
    for c in path.coverage:
        run = run + 1 if not c else 0
        if run > run_limit:
            raise PathConstructionError(
                f"an empty-coverage run exceeds the {run_limit} states of size 4")
    for size, idx in path.labels:
        if size < 3 or idx > count_states(grid, size):
            raise PathConstructionError(
                f"state ({size}, {idx}) is not encodable with this epsilon")


def save_path(path: DrawingPath, filename) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        json.dump(path.to_dict(), fh, indent=1)

