"""Figure 2 (behavioural) — the controller's four thread classes.

Figure 2 is a taxonomy table rather than a measurement, but it makes
concrete, testable claims about how the controller treats each class:

* **real-time** threads keep exactly the proportion and period they
  specified;
* **aperiodic real-time** threads keep their specified proportion and
  receive the 30 ms default period;
* **real-rate** threads converge to the allocation their progress
  metric implies;
* **miscellaneous** threads receive whatever is left, never starve, and
  never prevent the other classes from meeting their needs.

This experiment runs one representative of each class simultaneously
and reports each thread's class, allocation and achieved CPU share.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.results import ExperimentResult
from repro.core.config import ControllerConfig
from repro.core.taxonomy import ThreadClass, ThreadSpec
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.sim.requests import Compute, Sleep
from repro.system import build_real_rate_system
from repro.workloads.cpu_hog import CpuHog
from repro.workloads.pulse import PulseParameters, PulsePipeline, PulseSchedule


def _aperiodic_body(env):
    """A thread with a known proportion but no natural period.

    It alternates bursts of work with short sleeps, as a signal-
    processing helper might.
    """
    while True:
        yield Compute(3_000)
        yield Sleep(7_000)


@experiment(
    name="taxonomy",
    description="Thread taxonomy behaviour (Figure 2's four classes)",
    tags=("figure", "taxonomy"),
    params=(
        Param("sim_seconds", kind="float", default=10.0, minimum=0.5,
              help="virtual seconds simulated"),
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64,
              help="CPUs in the simulated kernel"),
        Param("seed", kind="int", default=None,
              help="seeds the miscellaneous hog's burst-length jitter"),
    ),
    quick={"sim_seconds": 4.0},
)
def taxonomy_experiment(
    *,
    sim_seconds: float = 10.0,
    n_cpus: int = 1,
    seed: Optional[int] = None,
    config: Optional[ControllerConfig] = None,
) -> ExperimentResult:
    """Run one thread of each Figure 2 class and report the outcome."""
    system = build_real_rate_system(
        config, n_cpus=n_cpus, record_dispatches=True
    )

    # Real-time + real-rate: the pulse pipeline provides one of each
    # (producer = real-time reservation, consumer = real-rate).
    schedule = PulseSchedule([], default_rate=0.01)
    pipeline = PulsePipeline.attach(
        system, schedule=schedule, params=PulseParameters()
    )
    # Aperiodic real-time: proportion specified, period left to the
    # controller.
    aperiodic = system.spawn_controlled(
        "aperiodic", _aperiodic_body, spec=ThreadSpec(proportion_ppt=150)
    )
    # Miscellaneous: the CPU hog.
    hog = CpuHog.attach(system, seed=seed)

    system.run_for(seconds(sim_seconds))

    allocator = system.allocator
    scheduler = system.scheduler
    decisions = {d.thread.name: d for d in system.driver.last_decisions}
    elapsed = system.now

    def share(thread) -> float:
        return thread.accounting.total_us / elapsed

    result = ExperimentResult(
        experiment_id="taxonomy",
        title="Thread taxonomy behaviour (Figure 2)",
        metrics={
            "real_time_allocation_ppt": float(
                allocator.current_allocation_ppt(pipeline.producer)
            ),
            "real_time_period_us": float(
                scheduler.reservation(pipeline.producer).period_us
            ),
            "aperiodic_allocation_ppt": float(
                allocator.current_allocation_ppt(aperiodic)
            ),
            "aperiodic_period_us": float(
                scheduler.reservation(aperiodic).period_us
            ),
            "real_rate_allocation_ppt": float(
                allocator.current_allocation_ppt(pipeline.consumer)
            ),
            "misc_allocation_ppt": float(
                allocator.current_allocation_ppt(hog.thread)
            ),
            "real_time_cpu_share": share(pipeline.producer),
            "real_rate_cpu_share": share(pipeline.consumer),
            "aperiodic_cpu_share": share(aperiodic),
            "misc_cpu_share": share(hog.thread),
            "queue_fill_level": pipeline.queue.fill_level(),
        },
    )
    result.notes.append(
        "classes observed at the last controller update: "
        + ", ".join(
            f"{name}={decision.thread_class.value}"
            for name, decision in sorted(decisions.items())
        )
    )
    for name, decision in decisions.items():
        result.metrics[f"class_is_real_time:{name}"] = float(
            decision.thread_class is ThreadClass.REAL_TIME
        )
    stamp_reproducibility(result, system.kernel, seed=seed)
    return result


def run_taxonomy(
    *,
    sim_seconds: float = 10.0,
    config: Optional[ControllerConfig] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Back-compat wrapper around the registered ``taxonomy`` experiment."""
    return taxonomy_experiment(
        sim_seconds=sim_seconds, seed=seed, config=config
    )


__all__ = ["run_taxonomy", "taxonomy_experiment"]
