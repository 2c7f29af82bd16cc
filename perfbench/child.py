"""One timed repetition, run in a fresh interpreter by run.py.

Reads the job (instances, frame seed, tracing switch) as JSON on stdin and
makes the library calls of `swarmdraw simulate` in the CLI's order: import,
`build_plan(pts)` for every instance, then `run_fsync(initial, pts, cfg)` for
every instance, with `initial` chosen as the CLI chooses it.  Prints one JSON
result line.  Nothing is checked here; run.py checks the results.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import sys
from time import perf_counter

PROBE_EVERY_S = 0.25      # longest timed segment between two speed probes
REF_PROBE_S = 0.0036      # probe duration at the reference speed


class ScaledClock:
    """Time of the timed regions, scaled to a reference machine speed.

    On a shared machine the speed of one core drifts by up to a factor of
    two over seconds (a fixed loop takes 120 to 240 ms depending on the
    neighbours), which is more than a run can average out.  So while a region
    is timed, an interval timer interrupts it every PROBE_EVERY_S to run a
    short fixed probe, and each segment between two probes is scaled by
    REF_PROBE_S over the mean of the probes around it.  Probe time is not
    counted, and the program under test is not touched.  With probing off
    the clock reports raw time.
    """

    def __init__(self, probing: bool):
        import numpy as np

        self._pts = np.random.default_rng(0).uniform(size=(48, 2))
        self._rows = self._pts[np.arange(240) % len(self._pts)]
        self._hypot = np.hypot
        self.probing = probing
        self.last = self.probe() if probing else REF_PROBE_S
        self.t0 = 0.0
        self.active = False
        self.raw = self.scaled = 0.0
        if probing:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def probe(self) -> float:
        """A fixed mix of interpreted loops and small-array NumPy calls."""
        t = perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        for p in self._rows:
            acc += int(self._hypot(*(self._pts - p).T).argmin())
        return perf_counter() - t

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self.t0 = perf_counter()
        self.active = True
        self._arm()

    def stop(self) -> tuple[float, float]:
        """(raw, scaled) seconds since start."""
        self.active = False
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._segment()
        return self.raw, self.scaled

    def _arm(self) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            self._segment()
            self._arm()

    def _segment(self) -> None:
        d = perf_counter() - self.t0
        p = self.probe() if self.probing else REF_PROBE_S
        self.raw += d
        self.scaled += d * 2.0 * REF_PROBE_S / (self.last + p)
        self.last = p
        self.t0 = perf_counter()


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None

    t0 = perf_counter()
    import swarmdraw  # noqa: F401  (the import is part of set-up time)
    from swarmdraw import protocol, simulator
    import_raw_s = perf_counter() - t0
    # Traced repetitions report raw per-layer times and take no probes.
    clock = ScaledClock(probing=not job["trace"])
    import_s = import_raw_s * REF_PROBE_S / clock.last

    # A plan build is a call of the private builder behind the plan cache;
    # counting it shows a run that misses the cache and builds twice.
    builds = [0]
    inner = protocol._build_plan

    def counted_build(*args, **kwargs):
        builds[0] += 1
        return inner(*args, **kwargs)

    protocol._build_plan = counted_build

    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    plans = []
    for inst in job["instances"]:
        res = {"name": inst["name"], "n": len(inst["pattern"])}
        results.append(res)
        before = builds[0]
        clock.start()
        try:
            plans.append(protocol.build_plan(inst["pattern"]))
        except Exception as exc:  # a failed instance is reported, the rest still run
            plans.append(None)
            res["error"] = f"{type(exc).__name__}: {exc}"
        res["plan_raw_s"], res["plan_s"] = clock.stop()
        res["builds"] = builds[0] - before

    for inst, plan, res in zip(job["instances"], plans, results):
        if plan is None:
            continue
        gathered = inst["start"] != "initial"
        if plan.branch == "draw":
            initial = plan.initial if not gathered else inst["start"]
            bound = plan.hops + (3 if gathered else 2)
        else:
            initial = plan.star.kappa0 * plan.pattern if not gathered else inst["start"]
            bound = int(math.ceil(plan.star.d_max - 1e-9)) + 1
        res["branch"] = plan.branch
        res["bound"] = bound
        cfg = simulator.SimConfig(seed=job["frame_seed"], max_rounds=bound + 2)
        before = builds[0]
        clock.start()
        try:
            trace = simulator.run_fsync(initial, inst["pattern"], cfg)
        except Exception as exc:  # a failed instance is reported, the rest still run
            res["error"] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            res["sim_raw_s"], res["sim_s"] = clock.stop()
            res["builds"] += builds[0] - before
        res["verdict"] = trace.verdict
        res["rounds"] = trace.total_rounds
        res["max_error"] = None if math.isinf(trace.max_error) else trace.max_error
        res["final"] = trace.rounds[-1].positions.tolist()

    out = {
        "setup_s": import_s + sum(r["plan_s"] for r in results),
        "setup_raw_s": import_raw_s + sum(r["plan_raw_s"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instances": results,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, results)
        if job.get("spans_out"):
            tracer.write(job["spans_out"])
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, results) -> dict[str, float]:
    """Calls, busy time and self time per function, per function and caller,
    and per layer, plus the outcome ratios and latency percentiles."""
    import numpy as np

    robot_rounds = sum(r["n"] * (r["rounds"] + 1) for r in results if "rounds" in r)
    out: dict[str, float] = {"robot_rounds": robot_rounds}

    def add(name, value):
        out[name] = out.get(name, 0) + value

    durations: dict[str, list] = {}
    for (name, caller), st in tracer.stats().items():
        layer = name.split(".")[0]
        for stat in ("calls", "s", "self_s"):
            add(f"{name}.{stat}", st[stat])
            add(f"{name}.from-{caller}.{stat}", st[stat])
        add(f"{layer}.calls", st["calls"])
        add(f"{layer}.self_s", st["self_s"])
        add(f"{name}.sim_calls", st["sim_calls"])
        add(f"{name}.from-{caller}.outcomes", st["outcome"])
        durations.setdefault(name, []).append(st["durations"])

    def ratio(num, den):
        return out.get(num, 0) / out[den] if out.get(den) else 0.0

    out["formation.detect_formations.from-protocol.found_per_call"] = ratio(
        "formation.detect_formations.from-protocol.outcomes",
        "formation.detect_formations.from-protocol.calls")
    out["protocol.fit_isometry.from-simulator.match_ratio"] = ratio(
        "protocol.fit_isometry.from-simulator.outcomes",
        "protocol.fit_isometry.from-simulator.calls")
    out["symmetry.symmetricity.per_robot_round"] = ratio(
        "symmetry.symmetricity.sim_calls", "robot_rounds")
    decisions = np.concatenate(durations.get("protocol.robot_decision", [np.zeros(0)]))
    if len(decisions):
        out["protocol.robot_decision.p50_ms"] = float(np.percentile(decisions, 50)) * 1e3
        out["protocol.robot_decision.p99_ms"] = float(np.percentile(decisions, 99)) * 1e3
    return out


if __name__ == "__main__":
    sys.exit(main())
