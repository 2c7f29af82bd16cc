"""Command-line surface: analyze patterns, export plans, simulate, render.

Exit codes: 0 success / pattern formed, 1 simulation timeout, 2 invalid
input, 3 disconnected pattern, 4 model invariant violated during a run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .geometry import mindist, unit_disc_connected
from .symmetry import Pattern, normalize, symmetricity
from .pathing import save_path
from .protocol import DEFAULT_C, PlanError, build_plan
from .simulator import SimConfig, run_fsync

EXIT_OK = 0
EXIT_TIMEOUT = 1
EXIT_INVALID = 2
EXIT_DISCONNECTED = 3
EXIT_ABORTED = 4


def load_pattern(filename) -> np.ndarray:
    with open(filename, encoding="utf-8") as fh:
        data = json.load(fh)
    pts = np.asarray(data["points"], dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError("pattern file must hold a nonempty list of [x, y] points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("pattern coordinates must be finite")
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    if len(pts) > 1 and d.min() <= 1e-9:
        raise ValueError("pattern coordinates must be distinct")
    return pts


def cmd_analyze(args) -> int:
    try:
        pts = load_pattern(args.pattern)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    pat = normalize(Pattern(pts))
    info = symmetricity(pat)
    n = pat.n
    connected = unit_disc_connected(pat.points)
    md = mindist(pat.points) if n > 1 else math.inf
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
        try:
            plan = build_plan(pat.points, args.params_c)
        except PlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
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
    try:
        pts = load_pattern(args.pattern)
        plan = build_plan(pts, args.params_c)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if plan.path is None:
        print("error: the scaling branch has no drawing path to export", file=sys.stderr)
        return EXIT_INVALID
    save_path(plan.path, args.out)
    print(f"plan written to {args.out} ({plan.hops} hops, "
          f"epsilon {plan.params.epsilon:.6g})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        pts = load_pattern(args.pattern)
        plan = build_plan(pts, args.params_c)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    if args.source == "initial-pattern":
        if plan.branch == "draw":
            initial = plan.initial
        else:
            initial = plan.star.kappa0 * plan.pattern
    else:
        try:
            initial = load_pattern(args.source)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        if len(initial) != plan.n:
            print("error: initial configuration size differs from the pattern",
                  file=sys.stderr)
            return EXIT_INVALID
        d = np.sqrt(((initial[:, None, :] - initial[None, :, :]) ** 2).sum(axis=2))
        if d.max() > 1.0 + 1e-9:
            print("error: initial configuration is not a near-gathering "
                  "(diameter must be <= 1)", file=sys.stderr)
            return EXIT_INVALID
        sym_init = symmetricity(normalize(Pattern(initial))).sym
        if plan.params.s_p % sym_init != 0:
            print(f"error: initial symmetricity {sym_init} does not divide "
                  f"the pattern symmetricity {plan.params.s_p}", file=sys.stderr)
            return EXIT_INVALID

    cfg = SimConfig(seed=args.seed, max_rounds=args.max_rounds, noise_mu=args.noise_mu)
    try:
        trace = run_fsync(initial, plan, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.trace:
        trace.write_jsonl(args.trace)
    msg = {"verdict": trace.verdict, "rounds": trace.total_rounds}
    if not math.isinf(trace.max_error):
        msg["max_error"] = trace.max_error
    print(json.dumps(msg))
    if trace.verdict == "formed":
        return EXIT_OK
    if trace.verdict == "timeout":
        return EXIT_TIMEOUT
    return EXIT_ABORTED


def cmd_render(args) -> int:
    try:
        records = []
        with open(args.trace, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    records.append(json.loads(line))
        if not records or "verdict" not in records[-1]:
            raise ValueError("trace has no final record")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    final = records[-1]
    rounds = records[:-1]
    pattern = final.get("pattern", [])
    path_vertices = final.get("path_vertices", [])

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
    pts = [tuple(p) for p in record["positions"]]
    everything = pts + [tuple(p) for p in pattern] + [tuple(p) for p in path_vertices]
    xs = [p[0] for p in everything]
    ys = [p[1] for p in everything]
    pad = 0.6
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
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
    parser = argparse.ArgumentParser(
        prog="swarmdraw",
        description="Pattern formation planner and simulator for oblivious "
                    "robots with viewing range 1")
    default_seed = int(os.environ.get("SWARMDRAW_SEED", "0"))
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
    p.add_argument("--seed", type=int, default=default_seed)
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
