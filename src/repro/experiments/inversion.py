"""Extension experiment — priority inversion and starvation.

Section 2 motivates the work with the Mars Pathfinder priority-
inversion failure; Section 4.4 claims that under real-rate scheduling
"starvation, and thus priority inversion, cannot occur" because every
thread keeps a non-zero allocation, so a mutex holder always eventually
runs and releases the lock.

This experiment runs the same three-priority mutex-sharing task set
under three schedulers:

1. fixed priorities without priority inheritance (the Pathfinder
   failure mode: the high task's blocking time is unbounded),
2. fixed priorities with priority inheritance (the deployed fix), and
3. the paper's feedback-driven proportion allocator.

It reports each configuration's worst observed latency for the
high-priority task and its deadline-miss rate.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.results import ExperimentResult
from repro.core.config import ControllerConfig
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sched.priority import FixedPriorityScheduler
from repro.sim.clock import seconds
from repro.sim.kernel import Kernel
from repro.system import build_real_rate_system
from repro.workloads.inversion import InversionScenario


def _run_priority(
    sim_seconds: float, inheritance: bool
) -> tuple[InversionScenario, Kernel]:
    scheduler = FixedPriorityScheduler(priority_inheritance=inheritance)
    kernel = Kernel(
        scheduler,
        charge_dispatch_overhead=False,
        record_dispatches=True,
    )
    scenario = InversionScenario().attach_priority(kernel)
    kernel.run_for(seconds(sim_seconds))
    return scenario, kernel


def _run_real_rate(
    sim_seconds: float, config: Optional[ControllerConfig]
) -> tuple[InversionScenario, Kernel]:
    system = build_real_rate_system(
        config, record_dispatches=True
    )
    scenario = InversionScenario().attach_real_rate(system)
    system.run_for(seconds(sim_seconds))
    return scenario, system.kernel


@experiment(
    name="inversion",
    description="Priority inversion: fixed priorities vs. real-rate scheduling",
    tags=("extension", "inversion"),
    params=(
        Param("sim_seconds", kind="float", default=10.0, minimum=0.5,
              help="virtual seconds simulated per scheduler"),
        Param("seed", kind="int", default=None, help="RNG seed (recorded; "
              "the inversion scenario is fully deterministic)"),
    ),
    quick={"sim_seconds": 4.0},
)
def inversion_experiment(
    *,
    sim_seconds: float = 10.0,
    seed: Optional[int] = None,
    config: Optional[ControllerConfig] = None,
) -> ExperimentResult:
    """Compare the inversion scenario across the three schedulers."""
    no_pi, kernel_a = _run_priority(sim_seconds, inheritance=False)
    with_pi, kernel_b = _run_priority(sim_seconds, inheritance=True)
    real_rate, kernel_c = _run_real_rate(sim_seconds, config)
    now_a, now_b, now_c = kernel_a.now, kernel_b.now, kernel_c.now

    result = ExperimentResult(
        experiment_id="inversion",
        title="Priority inversion: fixed priorities vs. real-rate scheduling",
        metrics={
            "fixed_priority_worst_latency_s": no_pi.effective_worst_latency_us(now_a)
            / 1e6,
            "fixed_priority_iterations": float(no_pi.result.iterations),
            "fixed_priority_miss_rate": no_pi.result.miss_rate,
            "priority_inheritance_worst_latency_s": with_pi.effective_worst_latency_us(
                now_b
            )
            / 1e6,
            "priority_inheritance_iterations": float(with_pi.result.iterations),
            "priority_inheritance_miss_rate": with_pi.result.miss_rate,
            "real_rate_worst_latency_s": real_rate.effective_worst_latency_us(now_c)
            / 1e6,
            "real_rate_iterations": float(real_rate.result.iterations),
            "real_rate_miss_rate": real_rate.result.miss_rate,
            "deadline_s": no_pi.high_period_us / 1e6,
        },
    )
    result.notes.append(
        "under plain fixed priorities the high task's in-flight iteration "
        "never completes once the inversion occurs, so its worst latency is "
        "essentially the remaining experiment duration; inheritance bounds it "
        "by the low task's critical section; real-rate scheduling bounds it "
        "without any mutex-specific mechanism because the low task is never "
        "starved."
    )
    stamp_reproducibility(result, kernel_a, kernel_b, kernel_c, seed=seed)
    return result


def run_inversion_comparison(
    *,
    sim_seconds: float = 10.0,
    config: Optional[ControllerConfig] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Back-compat wrapper around the registered ``inversion`` experiment."""
    return inversion_experiment(
        sim_seconds=sim_seconds, seed=seed, config=config
    )


__all__ = ["inversion_experiment", "run_inversion_comparison"]
