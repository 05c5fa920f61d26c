"""Span tracing installed from outside the program.

The tracer replaces public functions and methods of ``mccsma`` with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. A layer's self time is its spans' durations
minus the time their child spans cover. Counts that need a call's result
(schedules built, LP statuses, events simulated) are taken in the same
wrapper, so they are measured where the work happens.

Nothing under ``src/`` is changed: the wrappers are set on the module and
class namespaces after import, and removed again by ``Tracer.uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

LAYERS = ("schedule", "capacity", "equilibrium", "dynamics", "stability",
          "oracles", "cli", "scenario")


class _Frame:
    __slots__ = ("sid", "parent", "name", "start", "end", "child_s", "child_names")

    def __init__(self, sid: int, parent: Optional["_Frame"], name: str, start: float):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.child_names: set[str] = set()


class Tracer:
    """In-memory span recorder for one process.

    Span names are ``<layer>.<call>``; the layer is the module the call
    belongs to. ``spans`` keeps (id, parent id, name, start, end) for every
    span, ``durations`` and ``self_s`` aggregate them per name, ``counts``
    holds the exact counters the wrappers take from results and ``times``
    the durations of selected calls that are not spans of their own.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self._top: Optional[_Frame] = None
        self._undo: list[tuple[Any, str, Any]] = []
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, self._top, name, time.perf_counter())
        self._top = frame
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = frame.end = time.perf_counter()
        dur = end - frame.start
        self._top = frame.parent
        if frame.parent is not None:
            frame.parent.child_s += dur
            frame.parent.child_names.add(frame.name)
        self.durations[frame.name].append(dur)
        self.self_s[frame.name] += dur - frame.child_s
        self.spans.append((frame.sid, frame.parent.sid if frame.parent else 0,
                           frame.name, frame.start, end))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; used for the benchmark's own entry calls."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[[_Frame, tuple, dict, Any], None]] = None,
             on_error: Optional[Callable[[BaseException], None]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._exit(frame)
            if after is not None:
                after(frame, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, module: Any, attr: str, name: str,
                         after=None, on_error=None) -> None:
        """Wrap ``module.attr`` in every ``mccsma`` namespace that binds it.

        Modules that did ``from .x import f`` hold their own reference to
        ``f``, so every binding of the same function object is replaced.
        """
        orig = getattr(module, attr)
        wrapper = self.wrap(name, orig, after, on_error)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mccsma" or mod_name.startswith("mccsma.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def replace_method(self, cls: type, attr: str, name: str, after=None) -> None:
        """Wrap a method on its class. A method the class does not define
        itself raises, so a renamed target cannot leave its counters at 0."""
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__qualname__} defines no {attr}; "
                                 f"update the tracer for span {name}")
        self._set(cls, attr, self.wrap(name, vars(cls)[attr], after))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def total_s(self, name: str) -> float:
        return math.fsum(self.durations.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def layer_self_s(self, layer: str) -> float:
        return math.fsum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of each layer of ``mccsma``."""
    mod = {n: importlib.import_module(f"mccsma.{n}") for n in LAYERS}
    counts = tracer.counts

    def after_enumerate(frame, args, kwargs, result):
        counts["schedule.schedules_built"] += len(result)

    tracer.replace_function(mod["schedule"], "enumerate_feasible", "schedule.enumerate",
                            after_enumerate)

    solver_error = mod["capacity"].SolverError

    def after_membership(frame, args, kwargs, verdict):
        schedules = kwargs.get("schedules")
        if schedules is not None:
            counts["capacity.lp_columns"] += len(schedules)
        counts[f"capacity.status_{verdict.status}"] += 1

    def membership_error(exc):
        if isinstance(exc, solver_error):
            counts["capacity.solver_errors"] += 1

    tracer.replace_function(mod["capacity"], "membership", "capacity.membership",
                            after_membership, membership_error)

    evaluator = mod["equilibrium"].PolicyEvaluator

    def after_throughput(frame, args, kwargs, result):
        if frame.parent is not None and frame.parent.name == "dynamics.cache":
            counts["dynamics.cache_misses"] += 1

    def after_bundle(frame, args, kwargs, result):
        if "schedule.enumerate" in frame.child_names:
            counts["equilibrium.bundle_builds"] += 1
            tracer.times["equilibrium.bundle_build_s"] += frame.end - frame.start

    tracer.replace_method(evaluator, "throughput", "equilibrium.throughput",
                          after_throughput)
    tracer.replace_method(evaluator, "_bundle", "equilibrium.bundle", after_bundle)

    dyn = mod["dynamics"]
    tracer.replace_method(dyn.ThroughputCache, "__call__", "dynamics.cache")

    def after_separated(frame, args, kwargs, traj):
        counts["dynamics.separated_events"] += sum(traj.arrivals) + sum(traj.departures)
        counts["dynamics.aborted_runs"] += int(traj.aborted)

    def after_joint(frame, args, kwargs, traj):
        by_kind = traj.event_counts_by_kind or {}
        counts["dynamics.joint_events"] += sum(sum(v) for v in by_kind.values())
        counts["dynamics.aborted_runs"] += int(traj.aborted)

    tracer.replace_function(dyn, "simulate_separated", "dynamics.separated",
                            after_separated)
    tracer.replace_function(dyn, "simulate_joint", "dynamics.joint", after_joint)
    tracer.replace_function(dyn, "timescale_convergence", "dynamics.timescale")

    # timescale_convergence imports these at call time from mccsma.oracles
    def after_generator(frame, args, kwargs, result):
        states, q = result
        counts["oracles.generator_states"] += len(states)
        arrays = [q] if hasattr(q, "nbytes") else [q.data, q.indices, q.indptr]  # sparse
        counts["oracles.generator_bytes"] += sum(int(a.nbytes) for a in arrays)

    tracer.replace_function(mod["oracles"], "flow_level_generator", "oracles.generator",
                            after_generator)
    tracer.replace_function(mod["oracles"], "transient_distribution", "oracles.transient")

    tracer.replace_function(mod["stability"], "fluid_slope", "stability.fluid_slope")
    tracer.replace_function(mod["scenario"], "load_scenario", "scenario.load")


def _percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 when there are no calls."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit.

    Counts are exact; ``*_s`` are seconds inside the named calls (children
    included) unless named ``self_s``; ``<layer>.share`` is the layer's self
    time over the traced wall time, and ``trace.unattributed_share`` is the
    rest, spent in the benchmark's own code between calls.
    """
    c, t = tracer.counts, tracer

    def rate(n: float, s: float) -> float:
        return n / s if s > 0 else 0.0

    built, enum_s = c["schedule.schedules_built"], t.total_s("schedule.enumerate")
    tp_calls, tp_s = t.calls("equilibrium.throughput"), t.total_s("equilibrium.throughput")
    lookups, misses = t.calls("dynamics.cache"), c["dynamics.cache_misses"]
    sep_events, sep_s = c["dynamics.separated_events"], t.total_s("dynamics.separated")
    joint_events, joint_s = c["dynamics.joint_events"], t.total_s("dynamics.joint")
    m = {
        "schedule.enumerate_calls": t.calls("schedule.enumerate"),
        "schedule.schedules_built": built,
        "schedule.enumerate_s": enum_s,
        "schedule.schedules_per_s": rate(built, enum_s),
        "capacity.lp_calls": t.calls("capacity.membership"),
        "capacity.lp_s": t.total_s("capacity.membership"),
        "capacity.lp_p50_ms": _percentile_ms(t.durations.get("capacity.membership", []), 0.5),
        "capacity.lp_p99_ms": _percentile_ms(t.durations.get("capacity.membership", []), 0.99),
        "capacity.lp_columns": c["capacity.lp_columns"],
        "capacity.solver_errors": c["capacity.solver_errors"],
        "capacity.status_interior": c["capacity.status_interior"],
        "capacity.status_boundary": c["capacity.status_boundary"],
        "capacity.status_exterior": c["capacity.status_exterior"],
        "equilibrium.throughput_calls": tp_calls,
        "equilibrium.throughput_s": tp_s,
        "equilibrium.states_per_s": rate(tp_calls, tp_s),
        "equilibrium.bundle_builds": c["equilibrium.bundle_builds"],
        "equilibrium.bundle_build_s": t.times["equilibrium.bundle_build_s"],
        "dynamics.cache_lookups": lookups,
        "dynamics.cache_misses": misses,
        "dynamics.cache_hit_ratio": rate(lookups - misses, lookups),
        "dynamics.separated_events": sep_events,
        "dynamics.separated_self_s": t.self_s["dynamics.separated"],
        "dynamics.separated_events_per_s": rate(sep_events, sep_s),
        "dynamics.aborted_runs": c["dynamics.aborted_runs"],
        "dynamics.joint_runs": t.calls("dynamics.joint"),
        "dynamics.joint_events": joint_events,
        "dynamics.joint_s": joint_s,
        "dynamics.joint_run_p50_ms": _percentile_ms(t.durations.get("dynamics.joint", []), 0.5),
        "dynamics.joint_events_per_s": rate(joint_events, joint_s),
        "dynamics.timescale_self_s": t.self_s["dynamics.timescale"],
        "oracles.generator_states": c["oracles.generator_states"],
        "oracles.generator_bytes": c["oracles.generator_bytes"],
        "oracles.generator_s": t.total_s("oracles.generator"),
        "oracles.transient_s": t.total_s("oracles.transient"),
        "stability.fluid_slope_s": t.total_s("stability.fluid_slope"),
    }
    shares = 0.0
    for layer in LAYERS:
        self_s = t.layer_self_s(layer)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = rate(self_s, wall_s)
        shares += m[f"{layer}.share"]
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_share"] = 1.0 - shares
    return m
