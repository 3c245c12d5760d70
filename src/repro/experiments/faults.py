"""Robustness experiments: fault injection and graceful degradation.

Three registered scenarios exercise the :mod:`repro.faults` subsystem
end to end:

* ``cpu_failover`` — a reserved workload loses a CPU mid-run.  The
  kernel drains the failed CPU's pinned threads and the
  :class:`~repro.faults.degradation.DegradationManager` squishes (and,
  when oversubscribed enough, sheds/revokes) to fit the surviving
  capacity, then re-admits with backoff after recovery.
* ``runaway_quarantine`` — one thread of a reserved pool turns into a
  compute loop.  Run twice, with and without the
  :class:`~repro.monitor.watchdog.Watchdog`, to measure what quarantine
  buys the well-behaved threads.
* ``sensor_dropout`` — the controller flies blind: the multimedia
  pipeline's decoder loses its progress sensor for a window (and gets a
  corrupted one for another).  Run against a clean twin to measure the
  damage and the recovery.

All faults actuate through the event calendar, so each experiment's
dispatch fingerprint is identical run to run at a fixed seed.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.results import ExperimentResult
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.faults.degradation import DegradationManager
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CPU_FAIL,
    RUNAWAY_START,
    SENSOR_CORRUPT,
    SENSOR_DROPOUT,
    FaultEvent,
    FaultPlan,
)
from repro.monitor.watchdog import Watchdog
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Sleep
from repro.sim.thread import SimThread, ThreadEnv
from repro.system import build_real_rate_system
from repro.workloads.pipeline import MultimediaPipeline


def _paced_worker(compute_us: int, sleep_us: int):
    """A periodic thread: compute, then honour its think time, forever."""

    def body(env: ThreadEnv):
        while True:
            yield Compute(compute_us)
            yield Sleep(sleep_us)

    return body


def _conservation_ok(kernel: Kernel) -> bool:
    """The extended conservation identity, including offline time."""
    total = sum(t.accounting.total_us for t in kernel.threads)
    return (
        total + kernel.idle_us + kernel.stolen_us + kernel.offline_us
        == kernel.n_cpus * kernel.now
    )


# ---------------------------------------------------------------------------
# cpu_failover
# ---------------------------------------------------------------------------
@experiment(
    name="cpu_failover",
    description="CPU failure mid-run: drain, degrade gracefully, re-admit on recovery",
    tags=("faults", "robustness", "smp"),
    params=(
        Param("n_cpus", kind="int", default=4, minimum=2, maximum=64),
        Param("fail_cpu", kind="int", default=1, minimum=0,
              help="CPU index taken offline (one thread is pinned to it)"),
        Param("fail_at_s", kind="float", default=0.25, minimum=0.0),
        Param("outage_s", kind="float", default=0.35, minimum=0.01,
              help="how long the CPU stays down"),
        Param("n_reserved", kind="int", default=6, minimum=1),
        Param("rt_ppt", kind="int", default=550, minimum=1, maximum=1000,
              help="per-thread reservation (sized to oversubscribe on failure)"),
        Param("n_best_effort", kind="int", default=2, minimum=0),
        Param("duration_s", kind="float", default=1.0, minimum=0.05),
        Param("seed", kind="int", default=17),
    ),
    quick={"duration_s": 0.4, "fail_at_s": 0.1, "outage_s": 0.15},
)
def cpu_failover_experiment(
    *,
    n_cpus: int = 4,
    fail_cpu: int = 1,
    fail_at_s: float = 0.25,
    outage_s: float = 0.35,
    n_reserved: int = 6,
    rt_ppt: int = 550,
    n_best_effort: int = 2,
    duration_s: float = 1.0,
    seed: Optional[int] = 17,
) -> ExperimentResult:
    """Does the system degrade gracefully when a CPU dies under load?

    Six 550 ppt reservations on four CPUs total 3300 ppt; losing a CPU
    leaves 3000 ppt of capacity, so the default configuration squishes
    every reservation by roughly a tenth.  Crank ``rt_ppt`` or ``n_reserved`` to push the degradation
    chain into shedding and revocation.  A thread pinned to the failed
    CPU exercises the drain/re-pin path.
    """
    fail_cpu = min(fail_cpu, n_cpus - 1)
    scheduler = ReservationScheduler()
    kernel = Kernel(
        scheduler, n_cpus=n_cpus, record_dispatches=True
    )
    reserved: list[SimThread] = []
    for index in range(n_reserved):
        thread = kernel.spawn(
            f"rt{index}", _paced_worker(compute_us=2_000, sleep_us=3_000)
        )
        scheduler.set_reservation(thread, rt_ppt, 10_000)
        reserved.append(thread)
    # One reserved thread rides the doomed CPU so the drain has work to move.
    reserved[0].pin_to(fail_cpu)
    for index in range(n_best_effort):
        kernel.spawn(f"be{index}", _paced_worker(compute_us=1_500, sleep_us=500))

    manager = DegradationManager(kernel, scheduler)
    fail_at = int(fail_at_s * 1_000_000)
    plan = FaultPlan(
        events=(
            FaultEvent(
                at_us=fail_at,
                kind=CPU_FAIL,
                cpu=fail_cpu,
                duration_us=int(outage_s * 1_000_000),
            ),
        ),
        seed=seed or 0,
    )
    injector = FaultInjector(kernel, plan)
    injector.install()
    kernel.run_until(int(duration_s * 1_000_000))

    by_action: dict[str, int] = {}
    for action in manager.actions:
        by_action[action.action] = by_action.get(action.action, 0) + 1

    result = ExperimentResult(
        experiment_id="cpu_failover",
        title="Graceful degradation across a CPU failure and recovery",
    )
    result.metrics["offline_ms"] = kernel.offline_us / 1_000.0
    result.metrics["squishes"] = float(by_action.get("squish", 0))
    result.metrics["sheds"] = float(by_action.get("shed", 0))
    result.metrics["revocations"] = float(by_action.get("revoke", 0))
    result.metrics["restorations"] = float(
        by_action.get("restore", 0) + by_action.get("readmit", 0)
    )
    result.metrics["pending_restorations"] = float(manager.pending_restorations())
    result.metrics["deadline_misses"] = float(scheduler.deadline_misses())
    result.metrics["drained_threads"] = float(
        sum(1 for r in injector.log if r.kind == CPU_FAIL and r.hit)
    )
    result.metrics["conservation_ok"] = float(_conservation_ok(kernel))
    result.metrics["final_reserved_ppt"] = float(scheduler.total_reserved_ppt())
    result.metrics["pinned_back"] = float(reserved[0].affinity == fail_cpu)
    result.metadata["fault_plan"] = plan.to_dict()
    result.metadata["injections"] = [
        {"at_us": r.at_us, "kind": r.kind, "detail": r.detail, "hit": r.hit}
        for r in injector.log
    ]
    result.metadata["degradation_actions"] = [
        {
            "at_us": a.at_us,
            "action": a.action,
            "thread": a.thread,
            "before_ppt": a.before_ppt,
            "after_ppt": a.after_ppt,
        }
        for a in manager.actions
    ]
    stamp_reproducibility(result, kernel, seed=seed)
    result.notes.append(
        "degradation chain: squish-first (fair-share scale to the surviving "
        "capacity), then shed best-effort, then revoke lowest-value "
        "reservations; re-admission after recovery backs off exponentially."
    )
    return result


# ---------------------------------------------------------------------------
# runaway_quarantine
# ---------------------------------------------------------------------------
def _run_runaway_pass(
    *,
    with_watchdog: bool,
    n_cpus: int,
    n_reserved: int,
    rt_ppt: int,
    runaway_at_us: int,
    runaway_for_us: int,
    duration_us: int,
    seed: int,
) -> tuple[Kernel, ReservationScheduler, Optional[Watchdog], FaultInjector]:
    scheduler = ReservationScheduler()
    kernel = Kernel(
        scheduler, n_cpus=n_cpus, record_dispatches=True
    )
    for index in range(n_reserved):
        thread = kernel.spawn(
            f"rt{index}", _paced_worker(compute_us=2_000, sleep_us=8_000)
        )
        scheduler.set_reservation(thread, rt_ppt, 10_000)
    watchdog = Watchdog(kernel, scheduler) if with_watchdog else None
    plan = FaultPlan(
        events=(
            FaultEvent(
                at_us=runaway_at_us,
                kind=RUNAWAY_START,
                thread="rt1",
                duration_us=runaway_for_us,
            ),
        ),
        seed=seed,
    )
    injector = FaultInjector(kernel, plan)
    injector.install()
    kernel.run_until(duration_us)
    return kernel, scheduler, watchdog, injector


@experiment(
    name="runaway_quarantine",
    description="Watchdog quarantines a runaway reservation; innocents keep their deadlines",
    tags=("faults", "robustness", "watchdog"),
    params=(
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64),
        Param("n_reserved", kind="int", default=4, minimum=2),
        Param("rt_ppt", kind="int", default=220, minimum=1, maximum=1000),
        Param("runaway_at_s", kind="float", default=0.1, minimum=0.0),
        Param("runaway_for_s", kind="float", default=0.4, minimum=0.01),
        Param("duration_s", kind="float", default=0.8, minimum=0.05),
        Param("seed", kind="int", default=23),
    ),
    quick={"duration_s": 0.5, "runaway_for_s": 0.25},
)
def runaway_quarantine_experiment(
    *,
    n_cpus: int = 1,
    n_reserved: int = 4,
    rt_ppt: int = 220,
    runaway_at_s: float = 0.1,
    runaway_for_s: float = 0.4,
    duration_s: float = 0.8,
    seed: Optional[int] = 23,
) -> ExperimentResult:
    """What does quarantine buy the well-behaved reservations?

    The runaway thread stops honouring its think time at
    ``runaway_at_s`` and pounds the CPU for ``runaway_for_s``.  Without
    the watchdog it keeps its reservation (and its deadline-miss streak
    displaces nobody — but its demand spills into the best-effort time
    the other threads rely on for overage).  With the watchdog it is
    demoted to best-effort after a few detection windows and
    re-promoted, with backoff, once its term is served.
    """
    kwargs = dict(
        n_cpus=n_cpus,
        n_reserved=n_reserved,
        rt_ppt=rt_ppt,
        runaway_at_us=int(runaway_at_s * 1_000_000),
        runaway_for_us=int(runaway_for_s * 1_000_000),
        duration_us=int(duration_s * 1_000_000),
        seed=seed or 0,
    )
    kernel_on, sched_on, watchdog, _ = _run_runaway_pass(
        with_watchdog=True, **kwargs
    )
    kernel_off, sched_off, _, _ = _run_runaway_pass(
        with_watchdog=False, **kwargs
    )
    assert watchdog is not None

    def victim_cpu(kernel: Kernel) -> int:
        return next(
            t.accounting.total_us for t in kernel.threads if t.name == "rt1"
        )

    result = ExperimentResult(
        experiment_id="runaway_quarantine",
        title="Runaway reservation vs the watchdog's quarantine loop",
    )
    result.metrics["quarantines"] = float(watchdog.quarantine_count())
    if watchdog.history:
        first = watchdog.history[0]
        result.metrics["detection_latency_ms"] = (
            first.quarantined_at_us - kwargs["runaway_at_us"]
        ) / 1_000.0
        result.metrics["repromoted"] = float(
            sum(1 for r in watchdog.history if r.repromoted)
        )
    result.metrics["victim_cpu_ms_watchdog"] = victim_cpu(kernel_on) / 1_000.0
    result.metrics["victim_cpu_ms_unprotected"] = victim_cpu(kernel_off) / 1_000.0
    result.metrics["misses_watchdog"] = float(sched_on.deadline_misses())
    result.metrics["misses_unprotected"] = float(sched_off.deadline_misses())
    result.metrics["conservation_ok"] = float(
        _conservation_ok(kernel_on) and _conservation_ok(kernel_off)
    )
    result.metadata["quarantines"] = [
        {
            "thread": r.name,
            "verdict": r.verdict,
            "quarantined_at_us": r.quarantined_at_us,
            "release_at_us": r.release_at_us,
            "offense": r.offense,
            "repromoted": r.repromoted,
        }
        for r in watchdog.history
    ]
    stamp_reproducibility(result, kernel_on, kernel_off, seed=seed)
    result.notes.append(
        "runaway detection: deadline-miss streaks with zero voluntary "
        "blocking; quarantine demotes to best-effort and re-promotes after "
        "a per-offense doubling backoff."
    )
    return result


# ---------------------------------------------------------------------------
# sensor_dropout
# ---------------------------------------------------------------------------
def _run_pipeline_pass(
    *,
    faulted: bool,
    dropout_at_us: int,
    dropout_for_us: int,
    corrupt_at_us: int,
    corrupt_for_us: int,
    corrupt_magnitude: float,
    duration_us: int,
    seed: int,
):
    system = build_real_rate_system(record_dispatches=True)
    pipeline = MultimediaPipeline.attach(system)
    injector = None
    if faulted:
        plan = FaultPlan(
            events=(
                FaultEvent(
                    at_us=dropout_at_us,
                    kind=SENSOR_DROPOUT,
                    thread="pipeline.decode",
                    duration_us=dropout_for_us,
                ),
                FaultEvent(
                    at_us=corrupt_at_us,
                    kind=SENSOR_CORRUPT,
                    thread="pipeline.decode",
                    duration_us=corrupt_for_us,
                    magnitude=corrupt_magnitude,
                ),
            ),
            seed=seed,
        )
        injector = FaultInjector(system.kernel, plan, allocator=system.allocator)
        injector.install()
    system.run_for(duration_us)
    return system, pipeline, injector


@experiment(
    name="sensor_dropout",
    description="Controller sensor faults: progress-sample dropout and corruption windows",
    tags=("faults", "robustness", "controller"),
    params=(
        Param("dropout_at_s", kind="float", default=0.3, minimum=0.0),
        Param("dropout_for_s", kind="float", default=0.3, minimum=0.01),
        Param("corrupt_at_s", kind="float", default=0.9, minimum=0.0),
        Param("corrupt_for_s", kind="float", default=0.3, minimum=0.01),
        Param("corrupt_magnitude", kind="float", default=1.5, minimum=0.0,
              help="uniform noise amplitude added to the raw pressure signal"),
        Param("duration_s", kind="float", default=1.5, minimum=0.05),
        Param("seed", kind="int", default=31),
    ),
    quick={
        "duration_s": 0.6,
        "dropout_at_s": 0.1,
        "dropout_for_s": 0.15,
        "corrupt_at_s": 0.35,
        "corrupt_for_s": 0.15,
    },
)
def sensor_dropout_experiment(
    *,
    dropout_at_s: float = 0.3,
    dropout_for_s: float = 0.3,
    corrupt_at_s: float = 0.9,
    corrupt_for_s: float = 0.3,
    corrupt_magnitude: float = 1.5,
    duration_s: float = 1.5,
    seed: Optional[int] = 31,
) -> ExperimentResult:
    """How much does the pipeline lose when the decoder's sensor lies?

    During dropout the decoder reads as a metric-less thread (zero
    pressure), so the controller stops feeding the pipeline's hungriest
    stage and the downstream queue drains; during corruption the PID
    chases seeded noise.  The clean twin runs the identical pipeline
    with no injector, so the frame deficit and the allocation wobble
    are directly attributable to the sensor faults.
    """
    kwargs = dict(
        dropout_at_us=int(dropout_at_s * 1_000_000),
        dropout_for_us=int(dropout_for_s * 1_000_000),
        corrupt_at_us=int(corrupt_at_s * 1_000_000),
        corrupt_for_us=int(corrupt_for_s * 1_000_000),
        corrupt_magnitude=corrupt_magnitude,
        duration_us=int(duration_s * 1_000_000),
        seed=seed or 0,
    )
    clean_system, clean_pipeline, _ = _run_pipeline_pass(faulted=False, **kwargs)
    hurt_system, hurt_pipeline, injector = _run_pipeline_pass(
        faulted=True, **kwargs
    )
    assert injector is not None

    result = ExperimentResult(
        experiment_id="sensor_dropout",
        title="Progress-sensor dropout and corruption on the multimedia pipeline",
    )
    result.metrics["frames_clean"] = float(clean_pipeline.frames_delivered)
    result.metrics["frames_faulted"] = float(hurt_pipeline.frames_delivered)
    result.metrics["frame_deficit"] = float(
        clean_pipeline.frames_delivered - hurt_pipeline.frames_delivered
    )
    result.metrics["injections_hit"] = float(injector.hits())
    result.metrics["quality_exceptions_clean"] = float(
        len(clean_system.allocator.quality_exceptions)
    )
    result.metrics["quality_exceptions_faulted"] = float(
        len(hurt_system.allocator.quality_exceptions)
    )
    result.metrics["misses_clean"] = float(clean_system.scheduler.deadline_misses())
    result.metrics["misses_faulted"] = float(hurt_system.scheduler.deadline_misses())
    result.metrics["conservation_ok"] = float(
        _conservation_ok(clean_system.kernel) and _conservation_ok(hurt_system.kernel)
    )
    result.metadata["injections"] = [
        {"at_us": r.at_us, "kind": r.kind, "detail": r.detail, "hit": r.hit}
        for r in injector.log
    ]
    result.metadata["decode_share_clean"] = clean_pipeline.cpu_shares()[
        "pipeline.decode"
    ]
    result.metadata["decode_share_faulted"] = hurt_pipeline.cpu_shares()[
        "pipeline.decode"
    ]
    stamp_reproducibility(
        result, clean_system.kernel, hurt_system.kernel, seed=seed
    )
    result.notes.append(
        "dropout makes the decoder read as metric-less (zero pressure); "
        "corruption adds seeded uniform noise to the raw R*F signal the PID "
        "consumes; both windows restore the original sampler on expiry."
    )
    return result


__all__ = [
    "cpu_failover_experiment",
    "runaway_quarantine_experiment",
    "sensor_dropout_experiment",
]
