"""SHA-256 digests of benchmark traces, to check that a change keeps every run.

    python tests/trace_digest.py <workload> <seed> [<seed> ...] [--noise]
    python tests/trace_digest.py all <seed> [<seed> ...] [--noise]
    python tests/trace_digest.py all <seed> [<seed> ...] --plans

Runs every instance of the benchmark workload (``perfbench/workloads.py``,
imported read-only), or of every workload for ``all``, for each seed, from
the start and with the round bound that ``perfbench/child.py`` uses, and
prints one line per workload and seed:
the SHA-256 over every round's position bytes, phases and events, then each
run's verdict, ``total_rounds`` and ``max_error``.  With ``--noise`` the
drawing-branch instances run with movement noise mu = epsilon/(20*hops); the
scaling branch has no noise model and runs noiseless.  With ``--plans`` each
line is instead the SHA-256 over every instance's plan arrays: the grid,
path, move tables, initial cluster, centred snapshots, assignment slots and
star plan.  It reads only plan attributes that older checkouts also have,
so a copy of this script compares any two checkouts' plans.  The package is
imported from the ``src`` directory beside this script's, so two checkouts
print equal lines exactly when their traces (or plans) are equal.  Not a pytest module.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from swarmdraw.protocol import build_plan  # noqa: E402
from swarmdraw.simulator import SimConfig, run_fsync  # noqa: E402
import workloads  # noqa: E402


def run_instance(pattern, start, frame_seed: int, noise: bool):
    """The trace of one bench instance, started and bounded as the bench does."""
    plan = build_plan(pattern)
    gathered = not isinstance(start, str)
    if plan.branch == "draw":
        initial = start if gathered else plan.initial
        bound = plan.hops + (3 if gathered else 2)
    else:
        initial = start if gathered else plan.star.kappa0 * plan.pattern
        bound = int(math.ceil(plan.star.d_max - 1e-9)) + 1
    noisy = noise and plan.branch == "draw"
    mu = plan.grid.epsilon / (20.0 * max(plan.hops, 1)) if noisy else 0.0
    return run_fsync(initial, plan, SimConfig(seed=frame_seed, max_rounds=bound + 2, noise_mu=mu))


def digest(workload: str, seed: int, noise: bool) -> str:
    instances, frame_seed = workloads.make(workload, seed)
    h = hashlib.sha256()
    for _, pattern, start in instances:
        trace = run_instance(pattern, start, frame_seed, noise)
        for rec in trace.rounds:
            h.update(rec.positions.tobytes())
            h.update(json.dumps([rec.phases, rec.events], sort_keys=True).encode())
        h.update(json.dumps([trace.verdict, trace.total_rounds,
                             repr(trace.max_error)]).encode())
    return h.hexdigest()


def _feed(h, value) -> None:
    """Add a plan value to the hash: arrays by dtype, shape and bytes,
    dataclasses field by field, sequences item by item, numbers exactly."""
    if isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, (bool, np.bool_)):
        h.update(repr(bool(value)).encode())
    elif isinstance(value, (int, np.integer)):
        h.update(repr(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        h.update(repr(float(value)).encode())
    else:
        h.update(repr(value).encode())


def plan_digest(workload: str, seed: int) -> str:
    instances, _ = workloads.make(workload, seed)
    h = hashlib.sha256()
    for _, pattern, _ in instances:
        plan = build_plan(pattern)
        for name in ("grid", "path", "moves", "initial", "snapshot_centered", "star"):
            h.update(name.encode())
            _feed(h, getattr(plan, name))
        _feed(h, plan.slots.points)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--noise", action="store_true",
                        help="drawing runs with movement noise epsilon/(20*hops)")
    parser.add_argument("--plans", action="store_true",
                        help="digest each instance's plan arrays instead of its run")
    args = parser.parse_args(argv)
    if args.plans and args.noise:
        parser.error("--plans builds plans only and takes no --noise")
    label = " plans" if args.plans else " noise" if args.noise else ""
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for seed in args.seeds:
            line = plan_digest(name, seed) if args.plans else digest(name, seed, args.noise)
            print(f"{name} {seed}{label} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
