"""SMP scaling — an extension experiment beyond the paper.

The paper's evaluation runs on a single-CPU prototype; its feedback
allocator only ever budgets against one CPU's worth of capacity.  This
experiment asks the question a production deployment would: does the
same progress-based feedback scheme scale when the kernel has N CPUs
and the controller budgets against ``N * PROPORTION_SCALE``?

A fixed web-server farm (default: 8 servers whose aggregate offered
load needs ~1.8 CPUs) is run unchanged on kernels with 1 through 8
CPUs.  For each CPU count we record

* the served throughput (requests/second) — the scaling curve,
* the speedup relative to the smallest CPU count in the sweep
  (reported as ``speedup_baseline_cpus``),
* the peak total granted proportion, which must stay within the
  capacity ``n_cpus * PROPORTION_SCALE`` (and in fact within the scaled
  overload threshold), and
* per-CPU busy fractions, showing the placement policy actually
  spreading the farm.

The expected shape: the 1-CPU run saturates (throughput well below the
offered load, servers squished by the overload policy), and throughput
climbs with the CPU count until the farm's demand fits, after which it
plateaus at the offered load — the classic throughput-vs-processors
knee.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.results import ExperimentResult
from repro.core.config import PROPORTION_SCALE, ControllerConfig
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.system import build_real_rate_system
from repro.workloads.webfarm import WebFarm

#: Default CPU counts swept.
DEFAULT_CPU_COUNTS = (1, 2, 4, 8)


@experiment(
    name="smp_scaling",
    description="Web-farm throughput vs CPU count (SMP extension)",
    tags=("extension", "smp", "scaling"),
    params=(
        Param(
            "n_cpus", kind="int_list", default=DEFAULT_CPU_COUNTS,
            minimum=1, maximum=64,
            help="CPU counts swept (a single value measures one point)",
        ),
        Param("n_servers", kind="int", default=8, minimum=1,
              help="independent request/server pairs in the farm"),
        Param("requests_per_second", kind="float", default=150.0, minimum=1.0,
              help="offered load per server"),
        Param("service_cpu_us", kind="int", default=1_500, minimum=1,
              help="CPU per request"),
        Param("duration_s", kind="float", default=3.0, minimum=0.1,
              help="virtual seconds simulated per CPU count"),
        Param("pin", kind="bool", default=False,
              help="pin server i to CPU i % n_cpus"),
        Param("seed", kind="int", default=None,
              help="seeds per-server arrival jitter (None = periodic)"),
    ),
    quick={"n_cpus": (1, 2), "duration_s": 1.0},
)
def smp_scaling_experiment(
    *,
    n_cpus: Sequence[int] = DEFAULT_CPU_COUNTS,
    n_servers: int = 8,
    requests_per_second: float = 150.0,
    service_cpu_us: int = 1_500,
    duration_s: float = 3.0,
    pin: bool = False,
    seed: Optional[int] = None,
    config: Optional[ControllerConfig] = None,
) -> ExperimentResult:
    """Sweep the web farm over kernels with increasing CPU counts."""
    if isinstance(n_cpus, int):
        n_cpus = (n_cpus,)
    cpu_counts = tuple(n_cpus)
    if not cpu_counts:
        raise ValueError("need at least one CPU count to sweep")
    offered_rps = n_servers * float(requests_per_second)

    throughputs: list[float] = []
    peak_granted: list[float] = []
    kernels = []
    result = ExperimentResult(
        experiment_id="smp_scaling",
        title="Web-farm throughput vs CPU count (SMP extension)",
    )

    for count in cpu_counts:
        system = build_real_rate_system(
            config, n_cpus=count, record_dispatches=True
        )
        kernels.append(system.kernel)
        farm = WebFarm.attach(
            system,
            n_servers=n_servers,
            requests_per_second=requests_per_second,
            service_cpu_us=service_cpu_us,
            pin=pin,
            seed=seed,
        )
        system.run_for(seconds(duration_s))

        served_rps = farm.served_rps(system.now)
        total_alloc = system.kernel.tracer.series("alloc:total")
        peak = max(total_alloc.values()) if len(total_alloc) else 0.0
        throughputs.append(served_rps)
        peak_granted.append(peak)

        result.metrics[f"served_rps_{count}cpu"] = served_rps
        result.metrics[f"peak_granted_ppt_{count}cpu"] = peak
        result.metrics[f"capacity_ppt_{count}cpu"] = float(
            count * PROPORTION_SCALE
        )
        for state in system.kernel.cpu_states:
            result.metrics[
                f"busy_fraction_{count}cpu_cpu{state.index}"
            ] = state.busy_fraction(system.now)

    result.metrics["offered_rps"] = offered_rps
    result.metrics["demand_cpus"] = (
        offered_rps * service_cpu_us / 1_000_000
    )
    # Speedups are relative to the smallest CPU count swept, whatever
    # order cpu_counts came in.
    baseline_index = min(range(len(cpu_counts)), key=lambda i: cpu_counts[i])
    base = throughputs[baseline_index]
    result.metrics["speedup_baseline_cpus"] = float(cpu_counts[baseline_index])
    for count, rps in zip(cpu_counts, throughputs):
        result.metrics[f"speedup_{count}cpu"] = rps / base if base > 0 else 0.0

    result.add_series(
        "served_rps_vs_cpus", [float(n) for n in cpu_counts], throughputs
    )
    result.add_series(
        "peak_granted_ppt_vs_cpus", [float(n) for n in cpu_counts], peak_granted
    )
    stamp_reproducibility(result, *kernels, seed=seed)
    result.notes.append(
        "extension beyond the paper: the single-CPU prototype cannot run this; "
        "the reproduced claim is that feedback-driven proportion allocation "
        "scales to aggregate capacity n_cpus * PROPORTION_SCALE, with "
        "throughput rising until the farm's demand fits and plateauing at the "
        "offered load."
    )
    return result


def run_smp_scaling(
    *,
    config: Optional[ControllerConfig] = None,
    cpu_counts: Sequence[int] = DEFAULT_CPU_COUNTS,
    n_servers: int = 8,
    requests_per_second: float = 150.0,
    service_cpu_us: int = 1_500,
    duration_s: float = 3.0,
    pin: bool = False,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Back-compat wrapper around the registered ``smp_scaling``
    experiment (whose sweep parameter is named ``n_cpus``)."""
    return smp_scaling_experiment(
        n_cpus=cpu_counts,
        n_servers=n_servers,
        requests_per_second=requests_per_second,
        service_cpu_us=service_cpu_us,
        duration_s=duration_s,
        pin=pin,
        seed=seed,
        config=config,
    )


__all__ = ["DEFAULT_CPU_COUNTS", "run_smp_scaling", "smp_scaling_experiment"]
