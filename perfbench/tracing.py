"""Span recording around the simulator's public layer calls.

The traced run wraps, from outside, the public methods the benchmark
attributes to each layer (see ``TIMED_CALLS``) and the interpreter's
garbage collector.  Every call becomes a span: name, host start, host
end (``time.perf_counter_ns``), parent span and the step it ran in.
Spans live in flat in-memory arrays and are written out once, when the
run ends (:meth:`SpanRecorder.write`).

Wrapping must happen before the workload is built: ``Kernel`` binds
some scheduler methods when it is constructed, so a wrapper installed
afterwards would miss those calls.  The wrappers call straight through
and change no argument or result, so a traced run's simulated output
digest must equal the untraced one (the worker checks this).

A span's self time is its duration minus the durations of its direct
child spans; a layer's host time is the sum of its spans' self times.
``run_for`` is the root span of each step, so ``sim.kernel`` self time
also covers dispatch, request handlers, thread bodies and the
``ControllerDriver`` tick glue, none of which are public calls.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from collections import Counter
from typing import Callable, Iterable, Optional

#: (owner class path, method, span name, folded-into span names).  A
#: folded call made directly inside one of the named spans is not a new
#: span: ``pick_next_cpu`` delegates to ``pick_next`` and
#: ``next_transition`` polls ``next_time``, and each counts once.
TIMED_CALLS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("repro.sim.kernel:Kernel", "run_for", "sim.kernel.run_for", ()),
    ("repro.sim.kernel:Kernel", "add_thread", "sim.kernel.add_thread", ()),
    ("repro.sched.rbs:ReservationScheduler", "pick_next_cpu", "sched.rbs.pick", ()),
    ("repro.sched.rbs:ReservationScheduler", "pick_next", "sched.rbs.pick",
     ("sched.rbs.pick",)),
    ("repro.sched.rbs:ReservationScheduler", "charge", "sched.rbs.charge", ()),
    ("repro.sched.rbs:ReservationScheduler", "on_ready", "sched.rbs.wake", ()),
    ("repro.sched.rbs:ReservationScheduler", "on_block", "sched.rbs.wake", ()),
    ("repro.sched.rbs:ReservationScheduler", "refresh", "sched.rbs.wake", ()),
    ("repro.sched.rbs:ReservationScheduler", "set_reservation", "sched.rbs.write", ()),
    ("repro.sched.rbs:ReservationScheduler", "clear_reservation", "sched.rbs.write", ()),
    ("repro.sched.rbs:ReservationScheduler", "add_thread", "sched.rbs.write", ()),
    ("repro.sched.rbs:ReservationScheduler", "remove_thread", "sched.rbs.write", ()),
    ("repro.sched.rbs:ReservationScheduler", "place_threads",
     "sched.placement.place_threads", ()),
    ("repro.sim.events:EventQueue", "schedule", "sim.events.schedule", ()),
    ("repro.sim.events:EventQueue", "pop_due", "sim.events.pop_due", ()),
    ("repro.sim.events:EventQueue", "next_time", "sim.events.poll",
     ("sim.events.poll",)),
    ("repro.sim.events:EventCalendar", "next_transition", "sim.events.poll", ()),
    ("repro.core.allocator:ProportionAllocator", "update", "core.allocator.update", ()),
    ("repro.core.estimator:ProportionEstimator", "estimate_tick",
     "core.estimator.estimate_tick", ()),
    ("repro.core.overload:SquishPolicy", "squish", "core.overload.squish", ()),
    ("repro.sim.trace:TraceSeries", "append", "sim.trace.append", ()),
    ("repro.ipc.bounded_buffer:Channel", "commit_put", "ipc.commit", ()),
    ("repro.ipc.bounded_buffer:Channel", "commit_get", "ipc.commit", ()),
)

GC_SPAN = "python.gc"
#: Calibrated untraced speed over traced speed, per workload.
OVERHEAD_METRIC = "trace.overhead_ratio"


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ns_per_dispatch"):
        return "ns"
    if metric.endswith(("_ratio", "_per_dispatch")):
        return "ratio"
    if metric.endswith((".us", "_us", ".us_per_tick")):
        return "us"
    return "count"


def _resolve(path: str) -> type:
    module_name, _, class_name = path.partition(":")
    module = __import__(module_name, fromlist=[class_name])
    return getattr(module, class_name)


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.step = array("q")
        self.name = array("q")
        #: Observations made at layer boundaries during steps (idle
        #: picks, fired events, decisions, over-capacity ticks, changed
        #: placements, gen-2 collections).
        self.counts: Counter[str] = Counter()
        #: Step id stamped on new spans; -1 outside the timed steps.
        self.current_step = -1
        self._stack = [-1]
        self._name_stack = [-1]
        self._installed: list[tuple[type, str, object]] = []
        self._gc_span = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        # All columns grow together before the clock is read, so a
        # collection that starts inside the call cannot interleave rows.
        sid = len(self.end)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1])
        self.step.append(self.current_step)
        self.name.append(nid)
        self._stack.append(sid)
        self._name_stack.append(nid)
        return sid

    def wrap(
        self,
        owner: type,
        attr: str,
        span_name: str,
        fold_into: Iterable[str] = (),
        observe: Optional[Callable[[object, tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(result, args)`` runs after the span closes, and only
        during a step, to record counts outside the measured interval.
        """
        original = getattr(owner, attr)
        nid = self.name_id(span_name)
        fold = frozenset(self.name_id(n) for n in fold_into)
        clock = time.perf_counter_ns
        name_stack = self._name_stack
        stack = self._stack
        start = self.start
        end = self.end
        open_span = self._open
        recorder = self

        def wrapper(*args, **kwargs):
            if name_stack[-1] in fold:
                return original(*args, **kwargs)
            sid = open_span(nid)
            start[sid] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                name_stack.pop()
            if observe is not None and recorder.current_step >= 0:
                observe(result, args)
            return result

        self._installed.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            sid = self._gc_span = self._open(self.name_id(GC_SPAN))
            self.start[sid] = time.perf_counter_ns()
            return
        sid = self._gc_span
        if sid < 0:
            return
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self._name_stack.pop()
        self._gc_span = -1
        if self.current_step >= 0 and info.get("generation") == 2:
            self.counts["python.gc.gen2"] += 1

    def install(self) -> None:
        """Wrap every call in ``TIMED_CALLS`` and hook the collector."""
        counts = self.counts
        previous_map: list[object] = [None]

        def pick(result, args):
            if result is None:
                counts["sched.rbs.pick.idle"] += 1

        def pop_due(result, args):
            if result is not None:
                counts["sim.events.fired"] += 1

        def placement(result, args):
            if result != previous_map[0]:
                counts["sched.placement.changed"] += 1
            previous_map[0] = dict(result)

        def update(result, args):
            counts["core.allocator.decisions"] += len(result)
            allocator = args[0]
            capacity_ppt = allocator.scheduler.n_cpus * 1000
            if allocator.total_allocated_ppt() > capacity_ppt:
                counts["core.allocator.over_capacity"] += 1

        observers = {
            "sched.rbs.pick": pick,
            "sim.events.pop_due": pop_due,
            "sched.placement.place_threads": placement,
            "core.allocator.update": update,
        }
        for path, attr, span_name, fold_into in TIMED_CALLS:
            self.wrap(
                _resolve(path), attr, span_name, fold_into,
                observers.get(span_name),
            )
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped method and unhook the collector."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._installed):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def layer_totals(
        self, step_factor: list[float]
    ) -> tuple[Counter[str], Counter[str]]:
        """(calls, calibrated self ns) per span name, over timed steps.

        A span's self time is scaled by its step's calibration factor.
        """
        start, end, parent, step, name = (
            self.start, self.end, self.parent, self.step, self.name,
        )
        n = len(end)
        child_ns = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        names = self.names
        timed_steps = len(step_factor)
        for i in range(n):
            # Skip set-up spans (step -1) and those of a step that raised.
            if not 0 <= step[i] < timed_steps:
                continue
            label = names[name[i]]
            calls[label] += 1
            self_ns[label] += (end[i] - start[i] - child_ns[i]) * step_factor[step[i]]
        return calls, self_ns

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw columns.

        The header lists the span names and, in order, the columns that
        follow as native-endian signed 64-bit integers, ``count`` each:
        ``name`` (index into ``names``), ``start_ns``, ``end_ns``,
        ``parent`` (row of the parent span, -1 for a root) and ``step``
        (-1 outside the timed steps).
        """
        header = {
            "names": self.names,
            "count": len(self.end),
            "columns": ["name", "start_ns", "end_ns", "parent", "step"],
            "dtype": "int64",
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.step):
                column.tofile(out)


def per_layer_metrics(
    recorder: SpanRecorder,
    *,
    step_factor: list[float],
    dispatches: int,
    migrations: int,
    retained_threads: int,
) -> dict[str, float]:
    """Every per-layer metric of the benchmark, from spans and counters."""
    calls, self_ns = recorder.layer_totals(step_factor)
    counts = recorder.counts

    def us(*names: str) -> float:
        return sum(self_ns[n] for n in names) / 1_000

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    picks = calls["sched.rbs.pick"]
    ticks = calls["core.allocator.update"]
    pops = calls["sim.events.pop_due"]
    rounds = calls["sched.placement.place_threads"]
    kernel_us = us("sim.kernel.run_for", "sim.kernel.add_thread")
    allocator_us = us("core.allocator.update")
    return {
        "sim.kernel.dispatches": dispatches,
        "sim.kernel.self_us": kernel_us,
        "sim.kernel.self_ns_per_dispatch": ratio(kernel_us * 1_000, dispatches),
        "sim.kernel.picks_per_dispatch": ratio(picks, dispatches),
        "sim.kernel.spawns": calls["sim.kernel.add_thread"],
        "sim.kernel.spawn_us": us("sim.kernel.add_thread"),
        "sim.kernel.retained_threads": retained_threads,
        "sim.kernel.migrations": migrations,
        "sched.rbs.pick.calls": picks,
        "sched.rbs.pick.us": us("sched.rbs.pick"),
        "sched.rbs.pick.idle_ratio": ratio(counts["sched.rbs.pick.idle"], picks),
        "sched.rbs.charge.calls": calls["sched.rbs.charge"],
        "sched.rbs.charge.us": us("sched.rbs.charge"),
        "sched.rbs.wake.calls": calls["sched.rbs.wake"],
        "sched.rbs.wake.us": us("sched.rbs.wake"),
        "sched.rbs.write.calls": calls["sched.rbs.write"],
        "sched.rbs.write.us": us("sched.rbs.write"),
        "sched.placement.rounds": rounds,
        "sched.placement.us": us("sched.placement.place_threads"),
        "sched.placement.changed_ratio": ratio(
            counts["sched.placement.changed"], rounds
        ),
        "sim.events.scheduled": calls["sim.events.schedule"],
        "sim.events.fired": counts["sim.events.fired"],
        "sim.events.polls": calls["sim.events.poll"],
        "sim.events.us": us(
            "sim.events.schedule", "sim.events.pop_due", "sim.events.poll"
        ),
        "sim.events.fire_ratio": ratio(counts["sim.events.fired"], pops),
        "core.allocator.ticks": ticks,
        "core.allocator.decisions": counts["core.allocator.decisions"],
        "core.allocator.us": allocator_us,
        "core.allocator.us_per_tick": ratio(allocator_us, ticks),
        "core.allocator.over_capacity_ratio": ratio(
            counts["core.allocator.over_capacity"], ticks
        ),
        "core.estimator.calls": calls["core.estimator.estimate_tick"],
        "core.estimator.us": us("core.estimator.estimate_tick"),
        "core.overload.squishes": calls["core.overload.squish"],
        "core.overload.us": us("core.overload.squish"),
        "core.overload.squish_ratio": ratio(calls["core.overload.squish"], ticks),
        "sim.trace.appends": calls["sim.trace.append"],
        "sim.trace.us": us("sim.trace.append"),
        "ipc.commits": calls["ipc.commit"],
        "ipc.us": us("ipc.commit"),
        "python.gc.collections": calls[GC_SPAN],
        "python.gc.gen2_collections": counts["python.gc.gen2"],
        "python.gc.pause_us": us(GC_SPAN),
    }
