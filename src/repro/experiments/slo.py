"""SLO-driven controller vs the paper's PID, head to head.

``slo_flash_crowd`` runs the :mod:`flash-crowd <repro.experiments.churn>`
scenario twice with the same seed:

* **pid** — exactly the ``flash_crowd_rt`` configuration: the paper's
  first-level feedback (PID over progress pressure) with every
  real-time job carrying a fixed ``rt_ppt`` reservation;
* **slo** — the same system plus a second-level
  :class:`~repro.swift.slo.SLOController` that watches the crowd's
  windowed p99 sojourn against ``target_p99_ms`` and re-sizes the job
  class's reservation (live jobs and future admissions alike).

Both passes record their full dispatch fingerprints and per-tag
sojourn percentiles, so ``python -m repro report`` renders the
comparison from one artifact — and a fixed seed reproduces the whole
report bit for bit.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.results import ExperimentResult
from repro.analysis.sojourn import sojourn_stats
from repro.experiments.churn import build_flash_crowd_workload
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.swift.slo import SLOController, SLOPolicy
from repro.workloads.engine import dispatch_fingerprint


def _run_pass(
    *,
    use_slo: bool,
    target_p99_ms: float,
    slo_period_ms: float,
    duration_s: float,
    **workload_kwargs,
) -> dict:
    """One full simulation; returns the pass's stats dict."""
    system, churn, stream, template, script = build_flash_crowd_workload(
        **workload_kwargs
    )
    controller = None
    if use_slo:
        controller = SLOController(
            system.kernel,
            stream,
            template.spec,
            SLOPolicy(target_us=target_p99_ms * 1_000.0),
            period_us=int(seconds(slo_period_ms / 1_000.0)),
        )
    churn.start(script)
    system.run_for(seconds(duration_s))

    records = [record.to_dict() for record in stream.records]
    stats = sojourn_stats(records, tag=stream.template.name)
    arrivals_total = stream.spawned + stream.rejected
    out = {
        "controller": "slo" if use_slo else "pid",
        "stats": stats.to_dict(),
        "spawned": stream.spawned,
        "completed": stream.completed,
        "rejected": stream.rejected,
        "admit_ratio": (
            stream.spawned / arrivals_total if arrivals_total else 0.0
        ),
        "final_job_ppt": template.spec.proportion_ppt,
        "deadline_misses": int(system.scheduler.deadline_misses()),
        "dispatch_fingerprint": dispatch_fingerprint(system.kernel),
        "records": records,
    }
    if controller is not None:
        out["slo_adjustments"] = len(controller.adjustments)
        out["slo_violation_ticks"] = controller.violations
        out["slo_invocations"] = controller.invocations
    return out


@experiment(
    name="slo_flash_crowd",
    description="Tail-latency SLO controller vs the paper's PID on the flash crowd",
    tags=("churn", "slo", "controller", "real-time"),
    params=(
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64),
        Param("base_rps", kind="float", default=30.0, minimum=0.1),
        Param("flash_rps", kind="float", default=300.0, minimum=0.1),
        Param("flash_start_s", kind="float", default=0.6, minimum=0.0),
        Param("flash_end_s", kind="float", default=1.2, minimum=0.0),
        Param("rt_ppt", kind="int", default=80, minimum=1, maximum=1000,
              help="starting reserved proportion per job (both passes)"),
        Param("job_cpu_us", kind="int", default=4_000, minimum=1),
        Param("target_p99_ms", kind="float", default=40.0, minimum=0.1,
              help="the SLO: objective on the crowd's p99 sojourn"),
        Param("slo_period_ms", kind="float", default=50.0, minimum=1.0,
              help="second-level controller period"),
        Param("duration_s", kind="float", default=2.0, minimum=0.05),
        Param("seed", kind="int", default=29),
    ),
    quick={"duration_s": 0.5, "flash_start_s": 0.15, "flash_end_s": 0.3},
)
def slo_flash_crowd_experiment(
    *,
    n_cpus: int = 1,
    base_rps: float = 30.0,
    flash_rps: float = 300.0,
    flash_start_s: float = 0.6,
    flash_end_s: float = 1.2,
    rt_ppt: int = 80,
    job_cpu_us: int = 4_000,
    target_p99_ms: float = 40.0,
    slo_period_ms: float = 50.0,
    duration_s: float = 2.0,
    seed: Optional[int] = 29,
) -> ExperimentResult:
    """Does chasing p99 beat chasing progress pressure on the flash crowd?

    The pid pass is the paper's system verbatim; the slo pass layers
    the tail-latency loop on top of it.  The interesting trade is
    latency vs yield: when the observed p99 blows past the objective
    the SLO controller buys it back by raising the per-job
    reservation, which also prices more of the flash crowd out at
    admission — fewer jobs served, each inside the objective.
    """
    workload_kwargs = dict(
        n_cpus=n_cpus,
        base_rps=base_rps,
        flash_rps=flash_rps,
        flash_start_s=flash_start_s,
        flash_end_s=flash_end_s,
        rt_ppt=rt_ppt,
        job_cpu_us=job_cpu_us,
        seed=seed,
    )
    passes = {
        name: _run_pass(
            use_slo=(name == "slo"),
            target_p99_ms=target_p99_ms,
            slo_period_ms=slo_period_ms,
            duration_s=duration_s,
            **workload_kwargs,
        )
        for name in ("pid", "slo")
    }

    result = ExperimentResult(
        experiment_id="slo_flash_crowd",
        title="SLO-driven tail-latency controller vs paper PID (flash crowd)",
    )
    for name, data in passes.items():
        stats = data["stats"]
        result.metrics[f"{name}_completed"] = float(data["completed"])
        result.metrics[f"{name}_rejected"] = float(data["rejected"])
        result.metrics[f"{name}_admit_ratio"] = data["admit_ratio"]
        result.metrics[f"{name}_deadline_misses"] = float(
            data["deadline_misses"]
        )
        if stats["completed"]:
            result.metrics[f"{name}_mean_sojourn_ms"] = stats["mean_us"] / 1_000.0
            result.metrics[f"{name}_p99_sojourn_ms"] = stats["p99_us"] / 1_000.0
    slo_stats = passes["slo"]["stats"]
    if slo_stats["p99_us"] is not None:
        result.metrics["slo_attained"] = float(
            slo_stats["p99_us"] <= target_p99_ms * 1_000.0
        )
    result.metrics["target_p99_ms"] = float(target_p99_ms)

    # The report's comparison section reads this block; records stay
    # per-pass so percentile tables can be rebuilt from the artifact.
    result.metadata["controllers"] = {
        name: {k: v for k, v in data.items() if k != "records"}
        for name, data in passes.items()
    }
    result.metadata["job_records"] = {
        name: data["records"] for name, data in passes.items()
    }
    result.metadata["seed"] = seed
    # One composite fingerprint (plus the per-pass ones above) keeps
    # the same-seed-same-report determinism contract checkable.
    result.metadata["dispatch_fingerprint"] = "+".join(
        passes[name]["dispatch_fingerprint"] for name in ("pid", "slo")
    )
    result.notes.append(
        "second-level SLO loop: additive-increase/multiplicative-decrease on "
        "the job class's reservation, sensed from windowed exact-rank p99; "
        "the pid pass is flash_crowd_rt verbatim (same seed, same dispatch "
        "fingerprint)."
    )
    return result


__all__ = ["slo_flash_crowd_experiment"]
