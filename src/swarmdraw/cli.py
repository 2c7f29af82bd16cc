"""Command-line surface: analyze patterns, export plans, simulate, render.

Exit codes: 0 success / pattern formed, 1 simulation timeout, 2 invalid
input, 3 disconnected pattern, 4 model invariant violated during a run.
Exit 2 also covers input files that cannot be read, ``--out`` and ``--trace``
paths that cannot be written, and patterns whose points merge when
normalisation moves them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .geometry import mindist, pairwise_distances, unit_disc_connected
from .symmetry import normalize, symmetricity
from .pathing import save_path
from .protocol import DEFAULT_C, build_plan
from .simulator import SimConfig, run_fsync

EXIT_OK = 0
EXIT_TIMEOUT = 1
EXIT_INVALID = 2
EXIT_DISCONNECTED = 3
EXIT_ABORTED = 4
VERDICT_EXIT = {"formed": EXIT_OK, "timeout": EXIT_TIMEOUT, "aborted": EXIT_ABORTED}


def point_list(value, what: str) -> np.ndarray:
    """value as a nonempty (n, 2) array of finite coordinates, else ValueError."""
    try:
        pts = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be [x, y] numbers: {exc}") from exc
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError(f"{what} must be a nonempty list of [x, y] points")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{what} coordinates must be finite")
    return pts


def load_pattern(filename) -> np.ndarray:
    with open(filename, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError('pattern file must hold a JSON object {"points": [[x, y], ...]}')
    pts = point_list(data["points"], "pattern points")
    if len(pts) > 1:
        mindist(pts)
    return pts


def cmd_analyze(args) -> int:
    pts = load_pattern(args.pattern)
    pts = normalize(pts)
    info = symmetricity(pts)
    n = len(pts)
    connected = unit_disc_connected(pts)
    md = mindist(pts) if n > 1 else math.inf
    branch = "star" if 2 * info.sym >= n else "main"
    report = {
        "n": n,
        "sym": info.sym,
        "mindist": None if math.isinf(md) else md,
        "connected": connected,
        "branch": branch,
    }
    if not connected:
        print(json.dumps(report, indent=1))
        print("warning: pattern is not connected in the unit disc graph", file=sys.stderr)
        return EXIT_DISCONNECTED
    if branch == "main":
        plan = build_plan(pts, args.params_c)
        report["params"] = {
            "epsilon": plan.params.epsilon,
            "delta": plan.params.delta,
            "span": plan.params.span,
            "c": plan.params.c,
        }
        report["path_hops"] = plan.hops
    print(json.dumps(report, indent=1))
    return EXIT_OK


def cmd_plan(args) -> int:
    pts = load_pattern(args.pattern)
    plan = build_plan(pts, args.params_c)
    if plan.path is None:
        raise ValueError("the scaling branch has no drawing path to export")
    save_path(plan.path, args.out)
    print(f"plan written to {args.out} ({plan.hops} hops, "
          f"epsilon {plan.params.epsilon:.6g})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    pts = load_pattern(args.pattern)
    plan = build_plan(pts, args.params_c)
    if args.source == "initial-pattern":
        initial = plan.initial if plan.branch == "draw" else plan.star.kappa0 * plan.pattern
    else:
        initial = load_pattern(args.source)
        if pairwise_distances(initial).max() > 1.0 + 1e-9:
            raise ValueError("initial configuration is not a near-gathering "
                             "(diameter must be <= 1)")
        sym_init = symmetricity(initial).sym
        if plan.params.s_p % sym_init != 0:
            raise ValueError(f"initial symmetricity {sym_init} does not divide "
                             f"the pattern symmetricity {plan.params.s_p}")

    if args.trace:
        open(args.trace, "a", encoding="utf-8").close()     # fail before the run, not after
    cfg = SimConfig(seed=args.seed, max_rounds=args.max_rounds, noise_mu=args.noise_mu)
    trace = run_fsync(initial, plan, cfg)
    if args.trace:
        trace.write_jsonl(args.trace)
    msg = {"verdict": trace.verdict, "rounds": trace.total_rounds}
    if not math.isinf(trace.max_error):
        msg["max_error"] = trace.max_error
    print(json.dumps(msg))
    return VERDICT_EXIT[trace.verdict]


def cmd_render(args) -> int:
    records = []
    with open(args.trace, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    if not records or not isinstance(records[-1], dict) or "verdict" not in records[-1]:
        raise ValueError("trace has no final record")
    final = records[-1]
    rounds = records[:-1]
    for rec in rounds:
        if not (isinstance(rec, dict) and {"round", "positions"} <= rec.keys()
                and type(rec["round"]) is int):
            raise ValueError("every round record needs an integer 'round' and 'positions'")
        rec["positions"] = point_list(rec["positions"], f"round {rec['round']} positions")
    pattern, path_vertices = (point_list(final[key], key) if key in final
                              else np.zeros((0, 2)) for key in ("pattern", "path_vertices"))

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    picks = list(range(0, len(rounds), args.every))
    if rounds and (len(rounds) - 1) not in picks:
        picks.append(len(rounds) - 1)
    for t in picks:
        svg = render_frame(rounds[t], pattern, path_vertices)
        (outdir / f"round_{rounds[t]['round']:05d}.svg").write_text(svg, encoding="utf-8")
    print(f"{len(picks)} frames written to {outdir}")
    return EXIT_OK


def render_frame(record: dict, pattern, path_vertices) -> str:
    """One SVG frame: robots as dots, pattern coordinates as crosses, path
    vertices as open circles.  Output is deterministic for a fixed input."""
    pts = record["positions"]
    everything = np.vstack([pts, pattern, path_vertices])
    pad = 0.6
    x0, y0 = everything.min(axis=0) - pad
    x1, y1 = everything.max(axis=0) + pad
    width = 640
    scale = width / (x1 - x0)
    height = max(int((y1 - y0) * scale), 64)

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return height - (y - y0) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="8" y="16" font-family="monospace" font-size="12">round {record["round"]}</text>',
    ]
    cross = 0.035 * scale
    for x, y in pattern:
        cx, cy = sx(x), sy(y)
        parts.append(f'<line x1="{cx - cross:.2f}" y1="{cy - cross:.2f}" '
                     f'x2="{cx + cross:.2f}" y2="{cy + cross:.2f}" stroke="#888" stroke-width="1"/>')
        parts.append(f'<line x1="{cx - cross:.2f}" y1="{cy + cross:.2f}" '
                     f'x2="{cx + cross:.2f}" y2="{cy - cross:.2f}" stroke="#888" stroke-width="1"/>')
    for x, y in path_vertices:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{0.02 * scale:.2f}" '
                     f'fill="none" stroke="#bbb" stroke-width="1"/>')
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _parser() -> argparse.ArgumentParser:
    seed = os.environ.get("SWARMDRAW_SEED", "0")
    if not re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", seed):     # the grammar of int(seed)
        raise ValueError(f"SWARMDRAW_SEED must be an integer, got {seed!r}")
    parser = argparse.ArgumentParser(
        prog="swarmdraw",
        description="Pattern formation planner and simulator for oblivious "
                    "robots with viewing range 1")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Report symmetricity, parameters, and branch")
    p.add_argument("pattern", help="Pattern JSON file: {\"points\": [[x, y], ...]}")
    p.add_argument("--params-c", type=float, default=DEFAULT_C)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", help="Construct and export the drawing path")
    p.add_argument("pattern")
    p.add_argument("--out", required=True, help="Output plan JSON file")
    p.add_argument("--params-c", type=float, default=DEFAULT_C)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="Run the synchronous protocol")
    p.add_argument("pattern")
    p.add_argument("--from", dest="source", default="initial-pattern",
                   help="'initial-pattern' or a near-gathering JSON file")
    p.add_argument("--seed", type=int, default=int(seed))
    p.add_argument("--max-rounds", type=int, default=10_000)
    p.add_argument("--noise-mu", type=float, default=0.0)
    p.add_argument("--trace", help="Write a JSON-lines trace to this file")
    p.add_argument("--params-c", type=float, default=DEFAULT_C)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="Render a trace to SVG frames")
    p.add_argument("trace")
    p.add_argument("--out", required=True, help="Output directory")
    p.add_argument("--every", type=positive_int, default=1, help="Render every k-th round")
    p.set_defaults(func=cmd_render)

    return parser


if __name__ == "__main__":
    sys.exit(main())
