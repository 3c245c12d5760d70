"""SWiFT-style software feedback toolkit.

The paper's controller "is implemented using the SWiFT software
feedback toolkit [6]", in which a controller is a *circuit* of small
feedback components computing a function of its inputs.  This package
is a reimplementation of the parts of that toolkit the allocator
needs:

* stateless and stateful signal-processing blocks
  (:mod:`repro.swift.components`): gain, summing junction, integrator
  with anti-windup, differentiator, first-order low-pass filter,
  clamp and dead-band;
* a :class:`~repro.swift.pid.PIDController` assembled from those blocks
  (the G function of Figure 3);
* an :class:`~repro.swift.slo.SLOController` — a second-level feedback
  loop that drives a job class's reservation from its observed tail
  latency (windowed exact-rank p99 vs an SLO target) instead of
  progress pressure.
"""

from repro.swift.components import (
    Clamp,
    Component,
    DeadBand,
    Differentiator,
    Gain,
    Integrator,
    LowPassFilter,
    MovingAverage,
    SummingJunction,
)
from repro.swift.pid import PIDController, PIDGains
from repro.swift.slo import SLOController, SLOPolicy

__all__ = [
    "Clamp",
    "Component",
    "DeadBand",
    "Differentiator",
    "Gain",
    "Integrator",
    "LowPassFilter",
    "MovingAverage",
    "PIDController",
    "PIDGains",
    "SLOController",
    "SLOPolicy",
    "SummingJunction",
]
