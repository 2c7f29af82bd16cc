"""Seeded input generators for the three benchmark workloads.

Everything here is plain NumPy and independent of the package under test, so
a change to the program never changes the inputs it is measured on.  The
seed drives pattern geometry, near-gathering starts and the frame seed; the
sizes and the mix of shapes are fixed per workload so that the amount of
work stays comparable from one seed to the next.
"""

from __future__ import annotations

import math

import numpy as np

MIN_SEP = 0.01        # near-gathering separation the protocol requires
MAX_DIAM = 1.0        # near-gathering diameter limit


def _distances(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def _connected(pts: np.ndarray) -> bool:
    """Unit-disc-graph connectivity by breadth-first search."""
    adj = _distances(pts) <= 1.0
    seen = np.zeros(len(pts), dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = np.nonzero(adj[frontier].any(axis=0) & ~seen)[0]
        seen[nxt] = True
        frontier = nxt.tolist()
    return bool(seen.all())


def _rotate(pts: np.ndarray, theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return pts @ np.array([[c, -s], [s, c]]).T


def random_connected(n: int, rng, min_sep: float = 0.16, step: float = 0.8) -> np.ndarray:
    """Grow a connected set by attaching points near existing ones (the shape
    of the test corpus' random patterns)."""
    pts = [np.zeros(2)]
    while len(pts) < n:
        base = pts[int(rng.integers(len(pts)))]
        cand = base + rng.uniform(-step, step, 2)
        if np.hypot(*(cand - base)) > step:
            continue
        if all(np.hypot(*(cand - p)) > min_sep for p in pts):
            pts.append(cand)
    out = np.array(pts)
    assert _connected(out)
    return out


def symmetric(s: int, comp_size: int, rng) -> np.ndarray:
    """Symmetricity exactly s: one chain per cone, rotated s times (the shape
    of the test corpus' symmetric patterns)."""
    alpha = 2.0 * math.pi / s
    pad = 0.22 * alpha
    r0 = min(0.45 / math.sin(math.pi / s), 1.2)
    comp = [np.array([r0 * math.cos(alpha / 2.0), r0 * math.sin(alpha / 2.0)])]
    while len(comp) < comp_size:
        base = comp[-1]
        for _ in range(500):
            cand = base + rng.uniform(-0.75, 0.75, 2)
            r = float(np.hypot(*cand))
            ang = math.atan2(cand[1], cand[0]) % (2.0 * math.pi)
            if (np.hypot(*(cand - base)) <= 0.75 and pad < ang < alpha - pad
                    and r0 * 0.8 < r < 3.0
                    and all(np.hypot(*(cand - p)) > 0.22 for p in comp)):
                full = np.vstack([_rotate(np.vstack(comp + [cand]), k * alpha)
                                  for k in range(s)])
                d = _distances(full)
                np.fill_diagonal(d, np.inf)
                if d.min() > 0.2:
                    comp.append(cand)
                    break
        else:
            raise AssertionError(f"could not grow symmetric component ({s}, {comp_size})")
    pts = np.vstack([_rotate(np.stack(comp), k * alpha) for k in range(s)])
    assert _connected(pts)
    return pts


def tail_stress(n: int, rng) -> np.ndarray:
    """A 0.92-spaced run of three plus a tight blob, which forces the
    two-round ending (the shape of the test corpus' tail patterns)."""
    assert 7 <= n <= 10
    run = [np.array([x, 0.0]) for x in (0.0, 0.92, 1.84)]
    center = np.array([-0.9, 0.0])
    blob = [center]
    while len(blob) + 3 < n:
        cand = center + rng.uniform(-0.05, 0.05, 2)
        if (np.hypot(*(cand - center)) <= 0.05
                and all(np.hypot(*(cand - p)) > 0.028 for p in blob)):
            blob.append(cand)
    return np.array(run + blob)


def ngon(n: int, radius: float) -> np.ndarray:
    ang = np.arange(n) * 2.0 * math.pi / n
    return np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)


def two_ring(s: int, d1: float, d2: float) -> np.ndarray:
    ang = np.arange(s) * 2.0 * math.pi / s
    ring1 = np.stack([d1 * np.cos(ang), d1 * np.sin(ang)], axis=1)
    ring2 = np.stack([d2 * np.cos(ang + math.pi / s), d2 * np.sin(ang + math.pi / s)], axis=1)
    pts = np.vstack([ring1, ring2])
    assert _connected(pts)
    return pts


def near_gathering(n: int, rng, spacing: float = 0.05) -> np.ndarray:
    """n robots within diameter 1, pairwise farther apart than 0.01, with
    symmetricity 1, drawn without rejection sampling.

    The n sites of a randomly offset square lattice nearest to the origin
    are each jittered by at most 0.3*spacing per axis, so two robots from
    different sites stay at least 0.4*spacing > 0.01 apart.  A configuration
    with a nontrivial rotational symmetry repeats a pairwise distance, so
    distinct distances certify symmetricity 1; a random jitter repeats one
    with probability zero, and the loop only guards that case.
    """
    half = int(math.ceil(math.sqrt(n))) + 2
    grid = np.stack(np.meshgrid(np.arange(-half, half + 1), np.arange(-half, half + 1)),
                    axis=-1).reshape(-1, 2).astype(float)
    while True:
        sites = (grid + rng.uniform(-0.5, 0.5, 2)) * spacing
        sites = sites[np.argsort(np.hypot(*sites.T), kind="stable")[:n]]
        pts = sites + rng.uniform(-0.3 * spacing, 0.3 * spacing, (n, 2))
        d = _distances(pts)
        upper = np.sort(d[np.triu_indices(n, 1)])
        if (d.max() <= MAX_DIAM and upper[0] > MIN_SEP
                and np.diff(upper).min() > 1e-9):
            return pts


def _placed(pts: np.ndarray, rng) -> np.ndarray:
    """The same pattern under a seeded rotation and translation."""
    return _rotate(pts, rng.uniform(0.0, 2.0 * math.pi)) + rng.uniform(-3.0, 3.0, 2)


# --- workloads --------------------------------------------------------------
#
# Each entry: (name, pattern, start) where start is "initial" (the CLI's
# default: the plan's initial cluster, or the scaled pattern on the star
# branch) or an explicit near-gathering.
#
# The base shapes come from fixed generator seeds and the run seed jitters
# every coordinate.  Path length, and with it the round count, depends on a
# random pattern's overall extent (its hop count varies by 19% between
# random patterns of one size), so fixed base shapes keep a run's total work
# comparable across seeds while its inputs still change with the seed.

JITTER = 0.005        # per-axis coordinate jitter of a drawing pattern


def _jittered(pts: np.ndarray, rng) -> np.ndarray:
    """Growth steps stay within 0.8 and separations above 0.16, so the
    jitter keeps the pattern connected and its points distinct.  At 0.02 the
    hop count of the n = 100 pattern still moved between 59 and 64."""
    return pts + rng.uniform(-JITTER, JITTER, pts.shape)


def _random_shape(n: int, base_seed: int, rng) -> np.ndarray:
    return _jittered(random_connected(n, np.random.default_rng(base_seed)), rng)


def _symmetric_shape(s: int, m: int, base_seed: int, rng) -> np.ndarray:
    base = symmetric(s, m, np.random.default_rng(base_seed))
    comp = _jittered(base[:m], rng)
    return np.vstack([_rotate(comp, k * 2.0 * math.pi / s) for k in range(s)])


def _tail_shape(n: int, rng) -> np.ndarray:
    """Fresh blob; the run keeps its 0.92 spacing within 0.008, so it stays
    beyond the 0.9 reach that forces the two-round ending."""
    pts = tail_stress(n, rng)
    pts[:3] += rng.uniform(-0.002, 0.002, (3, 2))
    return pts


def _alternate_starts(shapes, rng):
    out = []
    for i, (name, pts) in enumerate(shapes):
        pts = _placed(pts, rng)
        if i % 2:
            out.append((name + "-gathered", pts, near_gathering(len(pts), rng)))
        else:
            out.append((name + "-initial", pts, "initial"))
    return out


def draw_small(rng) -> list[tuple[str, np.ndarray, object]]:
    """Drawing-corpus shapes, n 6..60, half from the initial cluster and half
    from a near-gathering."""
    shapes: list[tuple[str, np.ndarray]] = []
    for i, n in enumerate((6, 9, 12, 16, 22, 30, 60, 40)):
        shapes.append((f"random-{n}", _random_shape(n, 1000 + i, rng)))
    for i, (s, m) in enumerate(((2, 4), (3, 4), (4, 3), (6, 3))):
        shapes.append((f"sym-{s}x{m}", _symmetric_shape(s, m, 2000 + i, rng)))
    for n in (8, 10):
        shapes.append((f"tail-{n}", _tail_shape(n, rng)))
    return _alternate_starts(shapes, rng)


def draw_large(rng) -> list[tuple[str, np.ndarray, object]]:
    """One large drawing pattern from the initial cluster."""
    n = 100
    return [(f"random-{n}-initial", _placed(_random_shape(n, 4000, rng), rng), "initial")]


def star(rng) -> list[tuple[str, np.ndarray, object]]:
    """Scaling-branch patterns: n-gons and two-ring patterns from the scaled
    start and from a near-gathering.  Radii are drawn just inside the
    connectivity limit; over that range every round bound stays the same.
    Every instance gets its own radius and placement, so no plan is shared."""
    shapes = [(f"ngon-{n}", lambda n=n, r=r: ngon(n, r * rng.uniform(0.97, 1.0)))
              for n, r in ((14, 2.0), (32, 5.0), (63, 10.0))]
    for s, d1, gap in ((20, 3.0, 0.6), (40, 6.0, 0.8)):
        def ring(s=s, d1=d1, gap=gap):
            scale = rng.uniform(0.97, 1.0)
            return two_ring(s, d1 * scale, (d1 - gap) * scale)
        shapes.append((f"ring2-{2 * s}", ring))
    out = []
    for name, make_shape in shapes:
        out.append((name + "-scaled", _placed(make_shape(), rng), "initial"))
        if name != "ring2-80":      # 6 s on its own; n = 80 runs from the scaled start
            pts = _placed(make_shape(), rng)
            out.append((name + "-gathered", pts, near_gathering(len(pts), rng)))
    return out


WORKLOADS = {
    "draw-small": draw_small,
    "draw-large": draw_large,
    "star": star,
}


def make(workload: str, seed: int):
    """(instances, frame seed) for a workload and seed."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    instances = WORKLOADS[workload](rng)
    frame_seed = int(rng.integers(0, 2 ** 31))
    return instances, frame_seed
