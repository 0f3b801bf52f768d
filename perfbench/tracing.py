"""Traced runs: spans recorded around the program's public functions.

The benchmark never edits the program.  A :class:`SpanRecorder` wraps
each public function listed in :data:`FUNCTIONS` / :data:`METHODS` and
patches the wrapper in everywhere callers look the function up: every
loaded ``repro.*`` (and ``perfbench.*``) module attribute bound to the
original object is rebound, so ``factorize_keys`` is traced when
``kernels.groupby`` and ``kernels.join`` call it through their own
module globals, not only through the package re-export.  Methods are
patched on their class, keeping ``property`` / ``classmethod``
descriptors intact.

Spans (name, start, end, parent, request id, phase) stay in memory in
parallel lists and are written out once, when the run ends.  A layer's
self time is its spans' durations minus the time of the child spans
nested directly inside them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["SpanRecorder", "layer_host_metrics"]

# (module, function, span name): module-level functions.
FUNCTIONS = [
    ("repro.tpch.dbgen", "generate_tpch", "tpch.generate"),
    ("repro.sql.optimizer", "optimize_plan", "sql.optimize"),
    ("repro.core.planner", "compile_plan", "core.compile"),
    ("repro.sched.estimator", "estimate_plan", "sched.estimate"),
    ("repro.fleet.digest", "plan_digest", "fleet.digest"),
]

# (module, class, attribute, span name): methods, properties, classmethods.
METHODS = [
    ("repro.hosts.miniduck", "MiniDuck", "plan", "hosts.plan"),
    ("repro.kernels.gtable", "GTable", "to_host", "hosts.to_host"),
    ("repro.sql.planner", "SqlPlanner", "plan_sql", "sql.plan_sql"),
    ("repro.plan.plan", "Plan", "to_json", "plan.serde"),
    ("repro.plan.plan", "Plan", "from_json", "plan.serde"),
    ("repro.core.executor", "PipelineExecutor", "run", "core.executor"),
    ("repro.core.executor", "QueryRun", "step", "core.executor"),
    ("repro.core.buffer_manager", "BufferManager", "get_table", "core.buffer_manager.get_table"),
    ("repro.gpu.device", "Device", "launch", "gpu.launch"),
    ("repro.gpu.device", "Device", "htod", "gpu.transfer"),
    ("repro.gpu.device", "Device", "dtoh", "gpu.transfer"),
    ("repro.gpu.device", "Device", "htod_async", "gpu.transfer"),
    ("repro.gpu.device", "Device", "dtoh_async", "gpu.transfer"),
    ("repro.sched.scheduler", "ServingScheduler", "step_event", "sched.step"),
    ("repro.fleet.routing", "RoundRobinRouting", "select", "fleet.route"),
    ("repro.fleet.routing", "LeastOutstandingRouting", "select", "fleet.route"),
    ("repro.fleet.routing", "PlacementAwareRouting", "select", "fleet.route"),
    ("repro.kernels.gtable", "GColumn", "traffic_bytes", "kernels.traffic_bytes"),
    ("repro.kernels.gtable", "GTable", "traffic_bytes", "kernels.traffic_bytes"),
]

# Public kernels by reported group; every other public kernel function
# is traced as ``kernels.other`` (it still counts in kernels.self_s).
KERNEL_GROUPS = {
    "factorize_keys": ("factorize_keys",),
    "groupby": ("groupby", "partition_groupby_input"),
    "join": ("inner_join", "left_join", "semi_join", "anti_join", "asof_join",
             "partition_join_side"),
    "sorted_order": ("sorted_order", "top_n_order"),
    "gather_mask": ("gather_column", "gather_table", "mask_table", "slice_table",
                    "concat_gtables", "scatter_to_partitions"),
}
REPORTED_KERNEL_GROUPS = (*KERNEL_GROUPS, "compute", "traffic_bytes")

COST_TERMS = ("launch", "streaming", "random", "compute", "penalty")

# Span-derived values that must repeat exactly across traced runs of a seed.
COUNTS = (
    "kernels.calls", "kernels.traffic_bytes_calls", "gpu.launches", "gpu.transfers",
    "sched.estimates", "gpu.sim_launch_ms", "gpu.sim_stream_ms", "gpu.sim_random_ms",
    "gpu.sim_compute_ms", "gpu.sim_penalty_ms",
)


def _kernel_functions():
    """(module, name, span) for every public function of ``repro.kernels``."""
    kernels = importlib.import_module("repro.kernels")
    group_of = {fn: group for group, fns in KERNEL_GROUPS.items() for fn in fns}
    out = []
    for name in kernels.__all__:
        obj = getattr(kernels, name)
        if not inspect.isfunction(obj):
            continue
        if obj.__module__ == "repro.kernels.compute":
            group = "compute"
        else:
            group = group_of.get(name, "other")
        out.append((obj.__module__, name, f"kernels.{group}"))
    return out


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list = []
        self.phases: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.request = None
        self.phase = "setup"
        # Summed cost terms of the CostBreakdowns Device.launch returned.
        self.launch_cost = dict.fromkeys(COST_TERMS, 0.0)

    # -- spans -----------------------------------------------------------

    def wrap(self, span: str, fn, on_result=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, phases = self.parents, self.requests, self.phases
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            phases.append(self.phase)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _on_launch(self, cost) -> None:
        acc = self.launch_cost
        acc["launch"] += cost.launch
        acc["streaming"] += cost.streaming
        acc["random"] += cost.random
        acc["compute"] += cost.compute
        acc["penalty"] += cost.penalty

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every listed function and method (a no-op while the
        patches are already in place)."""
        if self._undo:
            return
        rebind = {}
        for module, name, span in FUNCTIONS + _kernel_functions():
            orig = getattr(importlib.import_module(module), name)
            rebind[id(orig)] = (orig, self.wrap(span, orig))
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "") or ""
            if not mod_name.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        for module, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, property):
                new = property(self.wrap(span, raw.fget))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(span, raw.__func__))
            else:
                on_result = self._on_launch if span == "gpu.launch" else None
                new = self.wrap(span, raw, on_result)
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """``(name -> summed self seconds, name -> call count)``."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[i]
            self_s[name] += (self.ends[i] - self.starts[i]) - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, column-wise, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "schema": "perfbench.trace/1",
            **meta,
            "span_names": names,
            "spans": {
                "name": [index[n] for n in self.names],
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
                "request": self.requests,
                "phase": self.phases,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_host_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Host-clock per-layer metrics (self seconds and call counts)."""
    self_s, calls = recorder.self_times()
    out = {
        "tpch.generate_s": self_s.get("tpch.generate", 0.0),
        "hosts.plan_s": self_s.get("hosts.plan", 0.0),
        "hosts.to_host_s": self_s.get("hosts.to_host", 0.0),
        "sql.plan_sql_s": self_s.get("sql.plan_sql", 0.0),
        "sql.optimize_s": self_s.get("sql.optimize", 0.0),
        "plan.serde_s": self_s.get("plan.serde", 0.0),
        "core.compile_s": self_s.get("core.compile", 0.0),
        "core.executor_self_s": self_s.get("core.executor", 0.0),
        "core.buffer_manager.get_table_s": self_s.get("core.buffer_manager.get_table", 0.0),
        "kernels.self_s": sum(v for k, v in self_s.items() if k.startswith("kernels.")),
        "kernels.calls": sum(v for k, v in calls.items() if k.startswith("kernels.")),
        "kernels.traffic_bytes_calls": calls.get("kernels.traffic_bytes", 0),
        "gpu.launch_s": self_s.get("gpu.launch", 0.0),
        "gpu.launches": calls.get("gpu.launch", 0),
        "gpu.transfers": calls.get("gpu.transfer", 0),
        "sched.estimate_s": self_s.get("sched.estimate", 0.0),
        "sched.estimates": calls.get("sched.estimate", 0),
        "sched.step_self_s": self_s.get("sched.step", 0.0),
        "fleet.route_s": self_s.get("fleet.route", 0.0),
        "fleet.digest_s": self_s.get("fleet.digest", 0.0),
    }
    for group in REPORTED_KERNEL_GROUPS:
        out[f"kernels.{group}_s"] = self_s.get(f"kernels.{group}", 0.0)
    cost = recorder.launch_cost
    out["gpu.sim_launch_ms"] = cost["launch"] * 1e3
    out["gpu.sim_stream_ms"] = cost["streaming"] * 1e3
    out["gpu.sim_random_ms"] = cost["random"] * 1e3
    out["gpu.sim_compute_ms"] = cost["compute"] * 1e3
    out["gpu.sim_penalty_ms"] = cost["penalty"] * 1e3
    return out
