"""The benchmark's four workloads, built only from public constructors.

Each builder takes the benchmark seed, derives every component seed from
it, and returns a :class:`Workload`: the kernel the benchmark steps with
``run_for`` plus a ``completed`` probe counting finished units of work.
Nothing here passes an ``engine=`` argument or imports ``repro.bench``,
so retiring the horizon engine or editing ``repro bench`` cannot change
what is measured.

Why each workload exists (the layer it loads, and the layers it leaves
idle so a change to them should read as no change):

``controller64``
    1 CPU, 64 controlled miscellaneous CPU hogs (3 ms bursts, seeded
    jitter) under ``build_real_rate_system`` defaults.  Demand far
    exceeds capacity, so every 10 ms tick estimates, squishes and
    re-actuates 64 reservations: the controller layers (allocator,
    estimator, overload, trace) do most of their work here.  Placement,
    IPC and quantum batching do nothing.  It also shows the squish
    floor defect: the granted total exceeds one CPU after about a third
    of the ticks (``core.allocator.over_capacity_ratio``).
``webfarm``
    4 CPUs, 8 web-server pairs (16 controlled threads, socket IPC) at
    200 req/s each and 1.5 ms per request with seeded arrival jitter.
    The only workload with SMP dispatch rounds and ``sched.placement``;
    its controller is light.
``churn``
    1 CPU, a bare ``ReservationScheduler`` and no controller.  A
    ``WorkloadEngine`` feeds two finite-job streams: seeded Poisson
    best-effort arrivals at 450/s and a reserved job every 4 ms.  It
    loads the scheduler's write path (add, remove, set reservation),
    calendar arrivals, and retained state (exited threads stay in
    ``kernel.threads``) that the garbage collector keeps scanning.
``pipeline_hog``
    1 CPU running the paper's Figure 7: the Figure 6 pulse pipeline (a
    producer with a fixed reservation and a real-rate consumer on a
    bounded buffer) next to one miscellaneous hog.  The only workload
    where the horizon engine batches quanta, and the controller runs at
    3 threads: a per-tick vectorisation must not lose here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: One benchmark step: one controller period of simulated time.
STEP_US = 10_000


@dataclass
class Workload:
    """A built, ready-to-run workload."""

    kernel: object
    #: Finished units of work (requests served, jobs completed, bytes
    #: consumed); part of the simulated-output digest.
    completed: Callable[[], int]


def _component_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def build_controller64(seed: int) -> Workload:
    from repro.system import build_real_rate_system
    from repro.workloads.cpu_hog import CpuHog

    system = build_real_rate_system()
    for i, hog_seed in enumerate(_component_seeds(seed, 64)):
        CpuHog.attach(system, name=f"hog{i}", burst_us=3_000, seed=hog_seed)
    kernel = system.kernel
    return Workload(kernel, kernel.total_thread_cpu_us)


def build_webfarm(seed: int) -> Workload:
    from repro.system import build_real_rate_system
    from repro.workloads.webfarm import WebFarm

    system = build_real_rate_system(n_cpus=4)
    (farm_seed,) = _component_seeds(seed, 1)
    farm = WebFarm.attach(
        system, n_servers=8, requests_per_second=200.0, service_cpu_us=1_500,
        seed=farm_seed,
    )
    return Workload(system.kernel, farm.total_served)


def build_churn(seed: int) -> Workload:
    from repro.sched.rbs import ReservationScheduler
    from repro.sim.kernel import Kernel
    from repro.workloads.arrivals import DeterministicArrivals, PoissonArrivals
    from repro.workloads.engine import JobTemplate, WorkloadEngine

    kernel = Kernel(ReservationScheduler())
    engine = WorkloadEngine(kernel)
    (poisson_seed,) = _component_seeds(seed, 1)
    engine.add_stream(
        "misc",
        PoissonArrivals(450.0, seed=poisson_seed),
        JobTemplate("misc", total_cpu_us=1_200, burst_us=600, think_us=500),
    )
    engine.add_stream(
        "rt",
        DeterministicArrivals(4_000),
        JobTemplate(
            "rt", total_cpu_us=800, burst_us=400, think_us=300,
            reservation=(50, 10_000),
        ),
    )
    engine.start()
    return Workload(kernel, engine.completed_total)


def build_pipeline_hog(seed: int) -> Workload:
    from repro.system import build_real_rate_system
    from repro.workloads.cpu_hog import CpuHog
    from repro.workloads.pulse import PulseParameters, PulsePipeline, PulseSchedule

    system = build_real_rate_system()
    params = PulseParameters()
    schedule = PulseSchedule.paper_figure6(params.base_rate_bytes_per_cpu_us)
    pipeline = PulsePipeline.attach(system, schedule=schedule, params=params)
    (hog_seed,) = _component_seeds(seed, 1)
    CpuHog.attach(system, seed=hog_seed)
    queue = pipeline.queue
    return Workload(system.kernel, lambda: queue.total_get_bytes)


BUILDERS: dict[str, Callable[[int], Workload]] = {
    "controller64": build_controller64,
    "webfarm": build_webfarm,
    "churn": build_churn,
    "pipeline_hog": build_pipeline_hog,
}
