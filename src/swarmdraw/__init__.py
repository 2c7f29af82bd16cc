"""Pattern formation for oblivious robots with viewing range 1.

A swarm of anonymous, memoryless point robots starts in a near-gathering and
forms an arbitrary connected target pattern by clustering into wedge-shaped
drawing formations whose robot placement on an epsilon grid works as a shared
counter; each formation walks a precomputed drawing path through its share of
the pattern and leaves one robot on every coordinate.
"""

from .protocol import Plan, PlanError, build_plan
from .simulator import SimConfig, Trace, run_fsync, verify_pattern

__version__ = "0.1.0"

__all__ = ["Plan", "PlanError", "SimConfig", "Trace", "build_plan", "run_fsync", "verify_pattern"]
