"""Benchmark of the swarmdraw planner and simulator.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload draw-small --seed 0 --seconds 30 --trace 0

Run from the repository root.  The workload's inputs are generated from the
seed in this process; each timed repetition then runs in a fresh,
single-threaded interpreter that imports the package from `src/`, builds
every plan and simulates every instance (see child.py), so the plan cache
and every lru_cache start cold as they do for each CLI call.  Repetitions run
one after another until the time budget is spent, and timings are reported
as medians over them.  `--trace 1` alternates untraced and traced
repetitions and reports the per-layer metrics instead.

Every run is checked: the verdict, the round bound, the alignment error, one
plan build per instance, identical results in every repetition and, where a
reference is stored for the seed, exact round counts and final positions
within 1e-9.  The last line of output is one JSON object; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = BENCH / "reference"

START = perf_counter()
RUN_DEADLINE_S = 170.0      # a run must end within 180 s
MAX_ERROR = 1e-6            # acceptance tolerance on the final alignment
REPLAY_TOL = 1e-9           # final positions against the stored reference
TOP_SELF = 12               # functions listed by self time in a traced run
# Layers a workload must never enter; a call there means misattribution.
NEVER_CALLED = {"star": ("formation", "pathing")}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(job: dict, deadline: float) -> dict:
    """One repetition in a fresh interpreter; raises BenchError if it dies."""
    timeout = None if math.isinf(deadline) else deadline - perf_counter()
    if timeout is not None and timeout <= 0:
        raise BenchError("time limit reached before the repetition started")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded the {RUN_DEADLINE_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(workload: str, seed: int) -> list[dict] | None:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def write_reference(workload: str, seed: int, rep: dict) -> None:
    path = REFERENCE / f"{workload}.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    data[str(seed)] = [{"name": r["name"], "rounds": r["rounds"], "final": r["final"]}
                       for r in rep["instances"]]
    REFERENCE.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(data.items(), key=lambda kv: int(kv[0])))) + "\n",
                    encoding="utf-8")


def check_instance(res: dict, first: dict | None, ref: dict | None) -> list[str]:
    """Every rule the instance breaks (empty when it passed)."""
    if "error" in res:
        return [res["error"]]
    problems = []
    if res["verdict"] != "formed":
        problems.append(f"verdict {res['verdict']}")
    if res["rounds"] > res["bound"]:
        problems.append(f"{res['rounds']} rounds over the bound {res['bound']}")
    if res["max_error"] is None or res["max_error"] > MAX_ERROR:
        problems.append(f"max_error {res['max_error']} above {MAX_ERROR}")
    if res["builds"] != 1:
        problems.append(f"plan built {res['builds']} times")
    for label, other in (("repetition 1", first), ("reference", ref)):
        if other is None or res is other:
            continue
        if res["rounds"] != other["rounds"]:
            problems.append(f"{res['rounds']} rounds, {label} has {other['rounds']}")
        elif np.hypot(*(np.asarray(res["final"]) - np.asarray(other["final"])).T).max() > REPLAY_TOL:
            problems.append(f"final positions differ from {label} by more than {REPLAY_TOL}")
    return problems


def robot_rounds(rep: dict) -> int:
    return sum(r["n"] * (r["rounds"] + 1) for r in rep["instances"] if "rounds" in r)


def sim_seconds(rep: dict, key: str = "sim_s") -> float:
    return sum(r.get(key, 0.0) for r in rep["instances"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float, save_reference: bool = False) -> dict:
    """Generate the inputs, run repetitions, check them, compute metrics."""
    instances, frame_seed = workloads.make(workload, seed)
    job = {
        "instances": [{"name": name, "pattern": pts.tolist(),
                       "start": start if isinstance(start, str) else start.tolist()}
                      for name, pts, start in instances],
        "frame_seed": frame_seed,
    }
    sizes = [len(pts) for _, pts, _ in instances]
    gathered = sum(not isinstance(start, str) for _, _, start in instances)
    print(f"# {workload} seed {seed}: {len(instances)} instances, n {min(sizes)}..{max(sizes)} "
          f"(sum {sum(sizes)}), {gathered} from a near-gathering, frame seed {frame_seed}")

    modes = [False, True] if trace else [False]
    if trace:
        OUT.mkdir(exist_ok=True)
    reps = {False: [], True: []}
    error = None
    t_start = perf_counter()
    cycles = 0
    while True:
        try:
            for traced in modes:
                # Spans of the first traced repetition are kept on disk.
                spans = None
                if traced and not reps[True]:
                    spans = str(OUT / f"{workload}-seed{seed}-spans.jsonl")
                reps[traced].append(run_child(dict(job, trace=traced, spans_out=spans), deadline))
        except BenchError as exc:
            error = str(exc)
            break
        cycles += 1
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / cycles > seconds:
            break

    ref = load_reference(workload, seed)
    ref_by_name = {r["name"]: r for r in ref} if ref and not save_reference else {}
    attempted = failed = 0
    failures = []
    all_reps = reps[False] + reps[True]
    first = {r["name"]: r for r in all_reps[0]["instances"]} if all_reps else {}
    for i, rep in enumerate(all_reps):
        for res in rep["instances"]:
            attempted += 1
            problems = check_instance(res, first.get(res["name"]), ref_by_name.get(res["name"]))
            if problems:
                failed += 1
                failures.append(f"{workload} seed {seed} rep {i + 1} {res['name']}: "
                                + "; ".join(problems))
    if error is not None:
        attempted += len(instances)
        failed += len(instances)
        failures.append(f"{workload} seed {seed}: {error}")
    for i, rep in enumerate(reps[True]):
        for layer in NEVER_CALLED.get(workload, ()):
            if rep["layers"].get(f"{layer}.calls", 0):
                failures.append(f"{workload} seed {seed} traced rep {i + 1}: "
                                f"{rep['layers'][f'{layer}.calls']} calls into {layer}")
    if ref is None and not save_reference:
        print(f"# no stored reference for {workload} seed {seed}; reference check skipped")
    for line in failures:
        print(f"FAIL {line}")

    untraced = reps[False]
    metrics: dict[str, float] = {"fail_frac": failed / attempted if attempted else 1.0}
    if untraced:
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in untraced)
        metrics["sim_s"] = statistics.median(sim_seconds(r) for r in untraced)
        metrics["robot_rounds_per_s"] = statistics.median(
            robot_rounds(r) / sim_seconds(r) for r in untraced)
        metrics["rounds"] = sum(r.get("rounds", 0) for r in untraced[0]["instances"])
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
        metrics["setup_raw_s"] = statistics.median(r["setup_raw_s"] for r in untraced)
        metrics["sim_raw_s"] = statistics.median(sim_seconds(r, "sim_raw_s") for r in untraced)
        print(f"# {len(untraced)} untraced and {len(reps[True])} traced repetitions of "
              f"{robot_rounds(untraced[0])} robot-rounds each")
    if reps[True]:
        traced_layers = [r["layers"] for r in reps[True]]
        for rep, layers in zip(reps[True], traced_layers):
            layers["protocol.build_plan.builds"] = sum(r["builds"] for r in rep["instances"])
        for name in sorted(set().union(*traced_layers)):
            metrics[name] = statistics.median(layers.get(name, 0.0) for layers in traced_layers)
        if untraced:
            metrics["tracing.overhead_frac"] = (
                statistics.median(sim_seconds(r, "sim_raw_s") for r in reps[True])
                / metrics["sim_raw_s"] - 1.0)
        (OUT / f"{workload}-seed{seed}-layers.json").write_text(
            json.dumps(metrics, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        top = sorted((k for k in metrics if k.endswith(".self_s") and k.count(".") == 2),
                     key=metrics.get, reverse=True)[:TOP_SELF]
        for name in top:
            print(f"# self time {name:<50} {metrics[name]:10.4f} s")
    if save_reference and not failures and untraced:
        write_reference(workload, seed, untraced[0])
        print(f"# reference written for {workload} seed {seed}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def publish(result: dict, spec: list[dict]) -> dict:
    """The named metrics with their units; a per-layer figure of a function
    that was never called is 0."""
    out = {}
    for m in spec:
        value = result["metrics"].get(m["name"], 0.0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def print_table(workload: str, published: dict, extra: dict[str, tuple[float, str]]) -> None:
    rows = [(name, m["value"], m["unit"]) for name, m in published.items()]
    rows += [(name, value, unit) for name, (value, unit) in extra.items()]
    for name, value, unit in rows:
        print(f"{workload:<11} {name:<60} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's round counts and final positions")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    if not (SRC / "swarmdraw" / "__init__.py").is_file():
        print(f"error: no swarmdraw package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, "-c", "import swarmdraw"], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"error: cannot import swarmdraw from {SRC}:\n{warm.stderr[-2000:]}",
              file=sys.stderr)
        return 2

    # The 180 s limit holds for one workload; "all" is for reading, not timing.
    deadline = START + RUN_DEADLINE_S if len(names) == 1 else math.inf
    correct, attempted, failed, published = True, 0, 0, {}
    for name in names:
        res = run_workload(name, args.seed, seconds, bool(args.trace), deadline,
                           args.write_reference)
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        pub = publish(res, metric_spec)
        extra = {} if args.trace else {
            "fail_frac": (res["metrics"]["fail_frac"], "ratio"),
            "setup_raw_s": (res["metrics"].get("setup_raw_s", 0.0), "s"),
            "sim_raw_s": (res["metrics"].get("sim_raw_s", 0.0), "s"),
        }
        print_table(name, pub, extra)
        if len(names) == 1:
            published = pub
        else:
            published.update({f"{name}.{k}": v for k, v in pub.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": published}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
