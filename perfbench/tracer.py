"""Call-site tracing of the maxent_markov package, installed from outside it.

``install()`` replaces every public function of the traced modules, at
every module namespace that holds it, with a wrapper that records one span
(name, start, end, parent span, raised) per call, plus
``StochasticMatrix.__post_init__``.  Spans stay in flat in-memory arrays
until ``dump()`` writes them once.  ``summarize()`` turns a dump into per
layer call counts, self time and inclusive time.

Self time of a span is its duration minus the durations of its direct
child spans; calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "maxent_markov"
MODULES = ("chains", "solver", "estimators", "forecast", "accuracy", "nonstationary", "ingest", "cli")
# cli.run is main's only callee; tracing it would leave main with no self time.
SKIP = {"cli.run"}


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.solver_keys: set[tuple] = set()
        self.filled_rows = 0
        self.estimated_rows = 0

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.raised.append(0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def record_solver_key(self, args, kwargs) -> None:
        states = args[0] if args else kwargs["states"]
        target = args[1] if len(args) > 1 else kwargs["target"]
        self.solver_keys.add((states.values, float(target)))

    def record_filled_rows(self, matrix) -> None:
        self.filled_rows += len(matrix.filled_rows)
        self.estimated_rows += matrix.size

    def dump(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            extras=np.array(
                json.dumps(
                    {
                        "names": self.names,
                        "solver_distinct_keys": len(self.solver_keys),
                        "filled_rows": self.filled_rows,
                        "estimated_rows": self.estimated_rows,
                    }
                )
            ),
        )


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield attr, obj


def install() -> Recorder:
    """Wrap the traced functions at every import site in the package."""
    rec = Recorder()
    package_modules = [
        m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
    ]
    hooks = {
        "solver.maxent_nstate": {"on_call": rec.record_solver_key},
        "estimators.frequency_estimate": {"on_result": rec.record_filled_rows},
    }
    replacements = {}
    for short in MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for attr, fn in _public_functions(module):
            name = f"{short}.{attr}"
            if name in SKIP:
                continue
            replacements[id(fn)] = (fn, rec.wrap(name, fn, **hooks.get(name, {})))
    for module in package_modules:
        for attr, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    chains = sys.modules[f"{PACKAGE}.chains"]
    cls = chains.StochasticMatrix
    cls.__post_init__ = rec.wrap("chains.StochasticMatrix", cls.__post_init__)
    return rec


def summarize(path: str) -> dict:
    """Per-name calls, errors, self and total seconds from a span dump."""
    with np.load(path) as data:
        name = data["name"]
        parent = data["parent"]
        dur = data["end"] - data["start"]
        raised = data["raised"]
        extras = json.loads(str(data["extras"]))
    names = extras["names"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    k = len(names)
    calls = np.bincount(name, minlength=k)
    errors = np.bincount(name, weights=raised, minlength=k)
    self_s = np.bincount(name, weights=self_time, minlength=k)
    total_s = np.bincount(name, weights=dur, minlength=k)
    layers = {
        n: {
            "calls": int(calls[i]),
            "errors": int(errors[i]),
            "self_s": float(self_s[i]),
            "total_s": float(total_s[i]),
        }
        for i, n in enumerate(names)
    }
    return {"layers": layers, **{key: v for key, v in extras.items() if key != "names"}}
