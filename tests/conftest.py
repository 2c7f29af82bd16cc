from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus  # noqa: E402


@pytest.fixture(scope="session")
def main_corpus():
    return corpus.main_corpus()


@pytest.fixture(scope="session")
def tail_corpus():
    return corpus.tail_corpus()


@pytest.fixture(scope="session")
def star_corpus():
    return corpus.star_corpus()


@pytest.fixture(scope="session")
def corpus_plans(main_corpus, tail_corpus):
    """Plans for every drawing-branch corpus instance (built once)."""
    from swarmdraw.protocol import build_plan

    return [(name, build_plan(pts)) for name, pts in main_corpus + tail_corpus]


@pytest.fixture(scope="session")
def corpus_runs(corpus_plans):
    """Seed-0 clean runs from the initial cluster pattern, shared by tests."""
    import time

    from swarmdraw.simulator import SimConfig, run_fsync

    runs = []
    for name, plan in corpus_plans:
        cfg = SimConfig(seed=0, max_rounds=plan.hops + 10)
        t0 = time.perf_counter()
        trace = run_fsync(plan.initial, plan, cfg)
        runs.append((name, plan, trace, time.perf_counter() - t0))
    return runs


@pytest.fixture()
def robot_0_out_of_range(monkeypatch):
    """Runs in which robot 0 decides a move to (2, 0) of its own frame every
    round, which the engine must reject at the first commit."""
    from dataclasses import replace

    import numpy as np

    from swarmdraw import simulator

    decide = simulator.robot_decisions

    def patched(*args, **kwargs):
        decisions = decide(*args, **kwargs)
        decisions[0] = replace(decisions[0], target=np.array([2.0, 0.0]))
        return decisions

    monkeypatch.setattr(simulator, "robot_decisions", patched)
