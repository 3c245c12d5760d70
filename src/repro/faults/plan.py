"""Declarative, calendar-scheduled fault plans.

A :class:`FaultPlan` is the wire-friendly description of everything a
robustness experiment wants to go wrong: which CPUs fail and recover,
which threads turn runaway or stall, and when the controller's progress
sensors drop out or lie.  Plans are pure data — building one performs
no injection; :class:`~repro.faults.injector.FaultInjector` turns a
plan into :class:`~repro.sim.events.EventCalendar` entries, which is
what keeps every fault bit-identical from run to run (calendar events
fire at exact virtual times, between dispatches).

The wire forms (:meth:`FaultEvent.to_dict` / :meth:`FaultPlan.to_dict`)
are versioned by :data:`FAULT_PLAN_SCHEMA_VERSION` and round-trip
exactly, so fault scenarios can live in JSON next to the golden-trace
corpus and in experiment result payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.faults.errors import FaultPlanError

#: Wire-format version of every serialised class in this module.  Bump
#: on any incompatible change to the dict forms below.
FAULT_PLAN_SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# fault kinds
# ---------------------------------------------------------------------------
#: Take a CPU offline (simulated hotplug remove).  Requires ``cpu``; an
#: optional ``duration_us`` auto-schedules the matching recovery.
CPU_FAIL = "cpu_fail"
#: Bring a failed CPU back online.  Requires ``cpu``.
CPU_RECOVER = "cpu_recover"
#: Hijack a thread into a compute loop that stops honouring its think
#: time.  Requires ``thread``; optional ``duration_us`` auto-stops it.
RUNAWAY_START = "runaway_start"
#: End a runaway window and restore the thread's real behaviour.
RUNAWAY_STOP = "runaway_stop"
#: Hijack a thread into a sleep loop (a hang: it stops consuming CPU
#: and stops making progress).  Requires ``thread``; optional
#: ``duration_us`` auto-stops it.
STALL_START = "stall_start"
#: End a stall window and restore the thread's real behaviour.
STALL_STOP = "stall_stop"
#: Controller sensor fault: the thread's progress sampler returns no
#: sample for ``duration_us``.  Requires ``thread`` and ``duration_us``.
SENSOR_DROPOUT = "sensor_dropout"
#: Controller sensor fault: seeded noise of amplitude ``magnitude`` is
#: added to the raw pressure signal for ``duration_us``.  Requires
#: ``thread``, ``duration_us`` and a positive ``magnitude``.
SENSOR_CORRUPT = "sensor_corrupt"

#: Every valid :attr:`FaultEvent.kind`.
FAULT_KINDS = frozenset(
    {
        CPU_FAIL,
        CPU_RECOVER,
        RUNAWAY_START,
        RUNAWAY_STOP,
        STALL_START,
        STALL_STOP,
        SENSOR_DROPOUT,
        SENSOR_CORRUPT,
    }
)

#: Kinds that target a CPU (``cpu`` required, ``thread`` forbidden).
CPU_KINDS = frozenset({CPU_FAIL, CPU_RECOVER})
#: Kinds that target a thread by name (``thread`` required).
THREAD_KINDS = FAULT_KINDS - CPU_KINDS
#: Windowed kinds for which ``duration_us`` is mandatory.
WINDOW_KINDS = frozenset({SENSOR_DROPOUT, SENSOR_CORRUPT})
#: Start kinds whose optional ``duration_us`` auto-schedules the stop.
START_KINDS = frozenset({CPU_FAIL, RUNAWAY_START, STALL_START})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    at_us:
        Virtual time the fault fires, in microseconds.
    kind:
        One of the module-level kind constants (:data:`FAULT_KINDS`).
    cpu:
        CPU index, for :data:`CPU_FAIL` / :data:`CPU_RECOVER`.
    thread:
        Target thread *name* for thread-directed kinds.  Resolved at
        fire time to the first live thread with that name (threads are
        examined in creation order, so resolution is deterministic);
        a miss is logged, not raised — fault plans outliving their
        victims is a normal chaos outcome.
    duration_us:
        Window length.  Mandatory for sensor faults; optional for the
        start kinds, where it auto-schedules the matching stop/recover.
    magnitude:
        Noise amplitude for :data:`SENSOR_CORRUPT` (added to the raw
        pressure signal, uniformly drawn from ``[-magnitude,
        +magnitude]`` with the plan's seed).  Unused otherwise.
    """

    at_us: int
    kind: str
    cpu: Optional[int] = None
    thread: Optional[str] = None
    duration_us: Optional[int] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise FaultPlanError(f"fault time cannot be negative, got {self.at_us}")
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.kind in CPU_KINDS:
            if self.cpu is None:
                raise FaultPlanError(f"{self.kind} requires a cpu index")
            if self.cpu < 0:
                raise FaultPlanError(
                    f"{self.kind}: cpu index cannot be negative, got {self.cpu}"
                )
            if self.thread is not None:
                raise FaultPlanError(f"{self.kind} targets a cpu, not a thread")
        else:
            if not self.thread:
                raise FaultPlanError(f"{self.kind} requires a target thread name")
            if self.cpu is not None:
                raise FaultPlanError(f"{self.kind} targets a thread, not a cpu")
        if self.kind in WINDOW_KINDS and self.duration_us is None:
            raise FaultPlanError(f"{self.kind} requires duration_us")
        if self.duration_us is not None:
            if self.duration_us <= 0:
                raise FaultPlanError(
                    f"{self.kind}: duration_us must be positive, got "
                    f"{self.duration_us}"
                )
            if self.kind not in WINDOW_KINDS and self.kind not in START_KINDS:
                raise FaultPlanError(
                    f"{self.kind} is an instantaneous fault; duration_us "
                    "does not apply"
                )
        if self.magnitude < 0:
            raise FaultPlanError(
                f"magnitude cannot be negative, got {self.magnitude}"
            )
        if self.kind == SENSOR_CORRUPT and self.magnitude <= 0:
            raise FaultPlanError(f"{self.kind} requires a positive magnitude")

    def to_dict(self) -> dict[str, Any]:
        """Wire form; omits unset optionals to keep plans readable."""
        payload: dict[str, Any] = {"at_us": self.at_us, "kind": self.kind}
        if self.cpu is not None:
            payload["cpu"] = self.cpu
        if self.thread is not None:
            payload["thread"] = self.thread
        if self.duration_us is not None:
            payload["duration_us"] = self.duration_us
        if self.magnitude:
            payload["magnitude"] = self.magnitude
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        try:
            at_us = int(payload["at_us"])
            kind = str(payload["kind"])
        except KeyError as missing:
            raise FaultPlanError(f"fault event is missing {missing}") from None
        duration = payload.get("duration_us")
        return cls(
            at_us=at_us,
            kind=kind,
            cpu=None if payload.get("cpu") is None else int(payload["cpu"]),
            thread=payload.get("thread"),
            duration_us=None if duration is None else int(duration),
            magnitude=float(payload.get("magnitude", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of :class:`FaultEvent` entries.

    Events are normalised to firing order — sorted by ``at_us`` with
    the original position breaking ties — so iteration order equals
    injection order regardless of how the plan was written.  ``seed``
    drives every random draw the injector makes (sensor-corruption
    noise), making whole fault scenarios reproducible from the plan
    alone.
    """

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(
            event
            for _, _, event in sorted(
                (event.at_us, position, event)
                for position, event in enumerate(self.events)
            )
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def window(self, start_us: int, end_us: int) -> tuple[FaultEvent, ...]:
        """Events firing in ``[start_us, end_us)`` (reporting helper)."""
        return tuple(e for e in self.events if start_us <= e.at_us < end_us)

    def to_dict(self) -> dict[str, Any]:
        """Versioned wire form."""
        return {
            "schema_version": FAULT_PLAN_SCHEMA_VERSION,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (version-checked)."""
        version = payload.get("schema_version")
        if version != FAULT_PLAN_SCHEMA_VERSION:
            raise FaultPlanError(
                f"unsupported fault plan schema version {version!r}; this "
                f"build reads version {FAULT_PLAN_SCHEMA_VERSION}"
            )
        raw_events = payload.get("events", [])
        if not isinstance(raw_events, Sequence) or isinstance(raw_events, (str, bytes)):
            raise FaultPlanError("fault plan 'events' must be a list")
        return cls(
            events=tuple(FaultEvent.from_dict(entry) for entry in raw_events),
            seed=int(payload.get("seed", 0)),
        )


__all__ = [
    "CPU_FAIL",
    "CPU_KINDS",
    "CPU_RECOVER",
    "FAULT_KINDS",
    "FAULT_PLAN_SCHEMA_VERSION",
    "FaultEvent",
    "FaultPlan",
    "RUNAWAY_START",
    "RUNAWAY_STOP",
    "SENSOR_CORRUPT",
    "SENSOR_DROPOUT",
    "STALL_START",
    "STALL_STOP",
    "START_KINDS",
    "THREAD_KINDS",
    "WINDOW_KINDS",
]
