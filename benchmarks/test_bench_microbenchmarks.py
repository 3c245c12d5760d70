"""Micro-benchmarks of the substrate and the controller.

These are conventional timing benchmarks (many rounds) that track the
cost of the two hot paths: simulating one second of a loaded system,
and one controller update over a large thread population — the
quantity Figure 5 is about, here measured directly on the Python
implementation.
"""

import pytest

from repro.core.allocator import ProportionAllocator
from repro.core.config import ControllerConfig
from repro.core.taxonomy import ThreadSpec
from repro.ipc.registry import SymbioticRegistry
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute
from repro.sim.thread import SchedulingPolicy
from repro.system import build_real_rate_system
from repro.workloads.pulse import PulsePipeline, PulseSchedule


def _spin(env):
    while True:
        yield Compute(1_000)


@pytest.mark.benchmark(group="micro")
def test_simulate_one_second_pulse_pipeline(benchmark):
    """Wall-clock cost of simulating 1 s of the Figure 6 pipeline."""

    def run():
        system = build_real_rate_system()
        PulsePipeline.attach(
            system, schedule=PulseSchedule([], default_rate=0.01)
        )
        system.run_for(1_000_000)
        return system.kernel.dispatch_count

    dispatches = benchmark(run)
    assert dispatches > 200


def _controller_update_cost(benchmark, n_threads: int) -> None:
    scheduler = ReservationScheduler()
    kernel = Kernel(scheduler, charge_dispatch_overhead=False)
    registry = SymbioticRegistry()
    allocator = ProportionAllocator(scheduler, registry, ControllerConfig())
    for i in range(n_threads):
        thread = kernel.spawn(f"t{i}", _spin)
        allocator.register(thread, ThreadSpec())
    clock = {"now": 0}

    def update():
        clock["now"] += 10_000
        return allocator.update(clock["now"])

    decisions = benchmark(update)
    assert len(decisions) == n_threads


@pytest.mark.benchmark(group="micro")
def test_controller_update_cost_40_threads(benchmark):
    """Cost of one allocator update over 40 controlled threads."""
    _controller_update_cost(benchmark, 40)


@pytest.mark.benchmark(group="micro")
def test_controller_update_cost_3_threads(benchmark):
    """Cost of one allocator update over 3 controlled threads: the
    per-tick fixed cost a small system (Figure 7's three controlled
    threads) pays."""
    _controller_update_cost(benchmark, 3)


@pytest.mark.benchmark(group="micro")
def test_dispatch_throughput(benchmark):
    """Raw dispatch rate of the kernel with ten runnable threads."""

    def run():
        kernel = Kernel(ReservationScheduler(), charge_dispatch_overhead=False)
        for i in range(10):
            kernel.spawn(f"hog{i}", _spin, policy=SchedulingPolicy.BEST_EFFORT)
        kernel.run_for(500_000)
        return kernel.dispatch_count

    dispatches = benchmark(run)
    assert dispatches >= 490


# ----------------------------------------------------------------------
# scheduler hot-path scaling guards
#
# The reservation scheduler's dispatch operations are incremental
# (heap-backed); these benchmarks time the three hot entry points at
# 8/64/256 registered threads.  A regression back to per-pick scans
# shows up as superlinear growth across the size groups.
# ----------------------------------------------------------------------
def _loaded_scheduler(n_threads: int) -> Kernel:
    """A kernel with ``n_threads`` over-committed reservation spinners."""
    kernel = Kernel(
        ReservationScheduler(), charge_dispatch_overhead=False, syscall_cost_us=0
    )
    scheduler = kernel.scheduler
    for i in range(n_threads):
        thread = kernel.spawn(f"t{i}", _spin)
        scheduler.set_reservation(thread, 25, 10_000 + (i % 8) * 5_000)
    # Run briefly so budgets are partially consumed and the throttled /
    # ready split is realistic for the measured operations.
    kernel.run_for(20_000)
    return kernel


@pytest.mark.parametrize("n_threads", [8, 64, 256])
@pytest.mark.benchmark(group="micro-pick")
def test_pick_next_cost(benchmark, n_threads):
    """pick_next must not scan all registered threads."""
    kernel = _loaded_scheduler(n_threads)
    scheduler = kernel.scheduler
    clock = {"now": kernel.now}

    def pick():
        clock["now"] += 1_000
        return scheduler.pick_next(clock["now"])

    benchmark(pick)


@pytest.mark.parametrize("n_threads", [8, 64, 256])
@pytest.mark.benchmark(group="micro-charge")
def test_charge_cost(benchmark, n_threads):
    """charge touches only the charged thread's reservation."""
    kernel = _loaded_scheduler(n_threads)
    scheduler = kernel.scheduler
    thread = kernel.threads[0]
    clock = {"now": kernel.now}

    def charge():
        clock["now"] += 100
        scheduler.charge(thread, 10, clock["now"])

    benchmark(charge)


@pytest.mark.parametrize("n_threads", [8, 64, 256])
@pytest.mark.benchmark(group="micro-wakeup")
def test_next_wakeup_cost(benchmark, n_threads):
    """next_wakeup answers from the replenishment heap, not a scan."""
    kernel = _loaded_scheduler(n_threads)
    scheduler = kernel.scheduler
    now = kernel.now

    def wakeup():
        return scheduler.next_wakeup(now)

    benchmark(wakeup)
