"""In-memory span recorder around the public functions of the swarmdraw layers.

Every public module-level function of the six layers is replaced, at every
module attribute that binds it, by one wrapper that records a span: which
function, which module called it, start, end and the enclosing span.  The
caller is read from the calling frame, so calls through a function-local
import are attributed correctly too.  Nothing in the package changes; the
wrappers exist only in the traced interpreter.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "symmetry", "formation", "pathing", "protocol", "simulator")

# Functions whose result carries a per-call outcome worth counting.
_OUTCOMES = {
    "formation.detect_formations": len,
    "protocol.fit_isometry": lambda result: result is not None,
}


def _layer_of(module_name: str) -> str:
    prefix = "swarmdraw."
    return module_name[len(prefix):] if module_name.startswith(prefix) else "bench"


class Tracer:
    def __init__(self):
        self.keys: list[tuple[str, str]] = []       # key id -> (layer.function, caller)
        self._key_ids: dict[tuple[str, str], int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome: dict[int, float] = {}
        self._stack = [-1]

    def _key_id(self, name: str, caller: str) -> int:
        kid = self._key_ids.get((name, caller))
        if kid is None:
            kid = self._key_ids[(name, caller)] = len(self.keys)
            self.keys.append((name, caller))
        return kid

    def wrap(self, name: str, fn):
        outcome = _OUTCOMES.get(name)
        key_id, stack = self._key_id, self._stack
        key, parent, root, start, end = self.key, self.parent, self.root, self.start, self.end
        outcomes = self.outcome

        def traced(*args, **kwargs):
            caller = _layer_of(sys._getframe(1).f_globals.get("__name__", ""))
            idx = len(key)
            up = stack[-1]
            key.append(key_id(name, caller))
            parent.append(up)
            root.append(root[up] if up >= 0 else idx)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if outcome is not None:
                outcomes[idx] = float(outcome(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every public function of the layers wherever it is bound."""
        modules = {name: sys.modules[f"swarmdraw.{name}"] for name in LAYERS}
        originals: dict[int, tuple[str, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {oid: self.wrap(name, fn) for oid, (name, fn) in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "swarmdraw" and not mod_name.startswith("swarmdraw."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)][1] is obj:
                    setattr(mod, attr, wrappers[id(obj)])

    # --- results ------------------------------------------------------------

    def arrays(self):
        key = np.frombuffer(self.key, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        root = np.frombuffer(self.root, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return key, root, dur, dur - child

    def stats(self) -> dict[tuple[str, str], dict]:
        """Per (layer.function, caller): calls, total s, self s, in-sim calls,
        outcome sum and the span durations."""
        key, root, dur, self_t = self.arrays()
        in_sim = np.zeros(len(key), dtype=bool)
        sim_ids = [i for i, (name, _) in enumerate(self.keys) if name == "simulator.run_fsync"]
        if len(key):
            in_sim = np.isin(key[root], sim_ids)
        outcome = np.zeros(len(key))
        for idx, value in self.outcome.items():
            outcome[idx] = value
        out = {}
        for kid, name_caller in enumerate(self.keys):
            mask = key == kid
            out[name_caller] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_t[mask].sum()),
                "sim_calls": int((mask & in_sim).sum()),
                "outcome": float(outcome[mask].sum()),
                "durations": dur[mask],
            }
        return out

    def write(self, filename) -> None:
        """Spans as JSON lines: name, caller, start, end, parent span index."""
        key = np.frombuffer(self.key, dtype=np.int32)
        with open(filename, "w", encoding="utf-8") as fh:
            for i in range(len(key)):
                name, caller = self.keys[key[i]]
                fh.write(json.dumps([name, caller, self.start[i], self.end[i],
                                     self.parent[i]]) + "\n")
