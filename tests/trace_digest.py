"""SHA-256 digests of benchmark traces, to check that a change keeps every run.

    python tests/trace_digest.py <workload> <seed> [<seed> ...] [--noise]
    python tests/trace_digest.py all <seed> [<seed> ...] [--noise]

Runs every instance of the benchmark workload (``perfbench/workloads.py``,
imported read-only), or of every workload for ``all``, for each seed, from
the start and with the round bound that ``perfbench/child.py`` uses, and
prints one line per workload and seed:
the SHA-256 over every round's position bytes, phases and events, then each
run's verdict, ``total_rounds`` and ``max_error``.  With ``--noise`` the
drawing-branch instances run with movement noise mu = epsilon/(20*hops); the
scaling branch has no noise model and runs noiseless.  The package is
imported from the ``src`` directory beside this script's, so two checkouts
print equal lines exactly when their traces are equal.  Not a pytest module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

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
    mu = plan.params.epsilon / (20.0 * max(plan.hops, 1)) if noisy else 0.0
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--noise", action="store_true",
                        help="drawing runs with movement noise epsilon/(20*hops)")
    args = parser.parse_args(argv)
    label = " noise" if args.noise else ""
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for seed in args.seeds:
            print(f"{name} {seed}{label} {digest(name, seed, args.noise)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
