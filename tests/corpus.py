"""Deterministic pattern generators shared by the test suite."""

from __future__ import annotations

import math

import numpy as np

from swarmdraw.geometry import mindist, rotate, unit_disc_connected
from swarmdraw.symmetry import normalize, symmetricity


def random_connected_pattern(n: int, seed: int, min_sep: float = 0.16,
                             step: float = 0.8) -> np.ndarray:
    """Grow a unit-disc-connected point set by attaching near existing points."""
    rng = np.random.default_rng(seed)
    pts = [np.zeros(2)]
    while len(pts) < n:
        base = pts[int(rng.integers(len(pts)))]
        cand = base + rng.uniform(-step, step, 2)
        if np.hypot(*(cand - base)) > step:
            continue
        if all(np.hypot(*(cand - p)) > min_sep for p in pts):
            pts.append(cand)
    out = np.array(pts)
    assert unit_disc_connected(out)
    return out


def symmetric_pattern(s: int, comp_size: int, seed: int) -> np.ndarray:
    """A pattern of symmetricity exactly s: a chain per cone, rotated s times.

    The first chain point sits on the cone bisector at a radius where the s
    rotated copies connect to each other; later points stay away from the
    cone boundary so path construction has margin to work with.
    """
    rng = np.random.default_rng(seed)
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
                full = np.vstack([rotate(np.vstack(comp + [cand]), k * alpha)
                                  for k in range(s)])
                if mindist(full) > 0.2:
                    comp.append(cand)
                    break
        else:
            raise AssertionError(f"could not grow symmetric component ({s}, {comp_size}, {seed})")
    pts = np.vstack([rotate(np.stack(comp), k * alpha) for k in range(s)])
    info = symmetricity(pts)
    assert info.sym == s, f"constructed symmetricity {info.sym} != {s}"
    assert unit_disc_connected(pts)
    return pts


def tail_stress_pattern(n: int, seed: int) -> np.ndarray:
    """A 0.92-spaced straight run plus a tight blob: the run is the only
    admissible path ending, so the last three coordinates sit farther than
    1 - Delta = 0.9 from the final vertex, forcing the two-round ending.

    The blob holds at least four coordinates within a diameter below 0.1:
    any candidate ending either captures the whole blob (too many
    coordinates) or clips it against the search's buffer annulus, so no
    blob-based ending is ever valid.
    """
    assert 7 <= n <= 10
    run = [np.array([x, 0.0]) for x in (0.0, 0.92, 1.84)]
    rng = np.random.default_rng(seed)
    center = np.array([-0.9, 0.0])
    blob = [center]
    while len(blob) + 3 < n:
        cand = center + rng.uniform(-0.05, 0.05, 2)
        if (np.hypot(*(cand - center)) <= 0.05
                and all(np.hypot(*(cand - p)) > 0.028 for p in blob)):
            blob.append(cand)
    pts = np.array(run + blob)
    assert unit_disc_connected(pts)
    assert mindist(pts) > 0.025
    return pts


def ngon(n: int, radius: float) -> np.ndarray:
    ang = np.arange(n) * 2.0 * math.pi / n
    return np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)


def two_ring(s: int, d1: float, d2: float) -> np.ndarray:
    ang = np.arange(s) * 2.0 * math.pi / s
    ring1 = np.stack([d1 * np.cos(ang), d1 * np.sin(ang)], axis=1)
    ring2 = np.stack([d2 * np.cos(ang + math.pi / s), d2 * np.sin(ang + math.pi / s)], axis=1)
    pts = np.vstack([ring1, ring2])
    assert unit_disc_connected(pts), f"two-ring ({s}, {d1}, {d2}) is disconnected"
    return pts


def near_gathering(n: int, seed: int, radius: float = 0.2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(-radius, radius, (n, 2))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        diameter = d.max()
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.01 and diameter <= 1.0:
            return pts


def main_corpus() -> list[tuple[str, np.ndarray]]:
    """50 random connected patterns (n in [6, 60]) plus 10 symmetric ones."""
    out = []
    sizes = ([6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16] * 3)[:30]
    sizes += [17, 19, 20, 22, 23, 24, 25, 26, 28, 28, 27, 18, 21]
    sizes += [30, 33, 36, 40, 44, 48, 60]
    for i, n in enumerate(sizes):
        out.append((f"random-{n}-{i}", random_connected_pattern(n, seed=1000 + i)))
    shapes = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (6, 3), (6, 4)]
    for i, (s, m) in enumerate(shapes):
        out.append((f"sym-{s}x{m}", symmetric_pattern(s, m, seed=2000 + i)))
    return out


def tail_corpus() -> list[tuple[str, np.ndarray]]:
    return [(f"tail-{n}-{i}", tail_stress_pattern(n, seed=3000 + i))
            for i, n in enumerate([7, 7, 8, 8, 9, 9, 10, 10, 7, 8])]


def star_corpus() -> list[tuple[str, np.ndarray]]:
    out = [
        ("ngon-14x2", ngon(14, 2.0)),
        ("ngon-32x5", ngon(32, 5.0)),
        ("ngon-63x10", ngon(63, 10.0)),
        ("ngon-126x20", ngon(126, 20.0)),
        ("ring2-20", two_ring(20, 3.0, 2.4)),
        ("ring2-40", two_ring(40, 6.0, 5.2)),
        ("ring2-66", two_ring(66, 10.0, 9.3)),
        ("ring2-130", two_ring(130, 20.0, 19.3)),
    ]
    return out
