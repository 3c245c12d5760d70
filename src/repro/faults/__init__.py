"""Deterministic, seeded fault injection and graceful degradation.

The robustness subsystem: everything needed to make the simulated
machine misbehave on purpose and to watch the scheduler and controller
degrade gracefully.

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`,
  the declarative wire-versioned schedule of faults;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which turns a
  plan into :class:`~repro.sim.events.EventCalendar` entries (CPU
  hotplug, runaway/stall hijacks, sensor dropout/corruption windows);
* :mod:`repro.faults.degradation` — :class:`DegradationManager`, the
  squish-first / shed-best-effort / revoke-lowest-value policy chain
  reacting to lost capacity, with backoff re-admission on recovery.

Everything actuates through calendar events, so fault scenarios replay
bit-identically at a fixed seed.  The
companion :class:`~repro.monitor.watchdog.Watchdog` (in the monitor
package, where the other sensors live) closes the loop by detecting
the injected misbehaviour from observable signals alone.
"""

from repro.faults.degradation import (
    DEFAULT_MAX_BACKOFF_US,
    DEFAULT_MIN_PPT,
    DEFAULT_READMIT_BACKOFF_US,
    DegradationAction,
    DegradationManager,
)
from repro.faults.errors import FaultError, FaultInjectionError, FaultPlanError
from repro.faults.injector import (
    RUNAWAY_BURST_US,
    STALL_PROBE_US,
    FaultInjector,
    FaultySensor,
    InjectionRecord,
)
from repro.faults.plan import (
    CPU_FAIL,
    CPU_RECOVER,
    FAULT_KINDS,
    FAULT_PLAN_SCHEMA_VERSION,
    RUNAWAY_START,
    RUNAWAY_STOP,
    SENSOR_CORRUPT,
    SENSOR_DROPOUT,
    STALL_START,
    STALL_STOP,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "CPU_FAIL",
    "CPU_RECOVER",
    "DEFAULT_MAX_BACKOFF_US",
    "DEFAULT_MIN_PPT",
    "DEFAULT_READMIT_BACKOFF_US",
    "DegradationAction",
    "DegradationManager",
    "FAULT_KINDS",
    "FAULT_PLAN_SCHEMA_VERSION",
    "FaultError",
    "FaultEvent",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultySensor",
    "InjectionRecord",
    "RUNAWAY_BURST_US",
    "RUNAWAY_START",
    "RUNAWAY_STOP",
    "SENSOR_CORRUPT",
    "SENSOR_DROPOUT",
    "STALL_PROBE_US",
    "STALL_START",
    "STALL_STOP",
]
