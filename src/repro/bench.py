"""Macro performance benchmarks (``python -m repro bench``).

The paper's pitch is that proportion/period scheduling has *very low
overhead*; the simulator must therefore be fast enough that the
scheduling substrate — not Python bookkeeping — dominates what we can
simulate.  This module defines a small registry of macro scenarios
(webserver, SMP web farm, many-hog overload, pulse pipeline), times
each one with min-of-K repeats, and reports **simulated microseconds
per wall-clock second** — the throughput figure every performance PR
must move.

``run_bench`` writes a schema-versioned artifact (``BENCH_kernel.json``
by default) so the repository carries a perf trajectory: compare the
committed baseline against a fresh run to see whether the hot path got
faster or slower.  Wall-clock numbers are machine-dependent; the
artifact records the interpreter and platform next to the figures so
cross-machine comparisons are not made blindly.

Scenario builders must be deterministic: they configure fixed seeds and
fixed loads so that repeated runs execute the identical event sequence
and only the wall-clock measurement varies.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro._version import __version__
from repro.core.artifacts import append_durable

#: Version of the artifact layout written by :func:`bench_to_dict`.
#: v2: per-scenario migration counters (``migrations``/``migration_us``).
#: v3: the per-scenario ``engine`` field is gone (one dispatch engine).
BENCH_SCHEMA_VERSION = 3

#: Default artifact filename (tracked in the repository root).
DEFAULT_ARTIFACT = "BENCH_kernel.json"

#: Default artifact filename for ``--quick`` runs: quick-mode numbers
#: must not silently clobber the tracked full-run baseline.
QUICK_ARTIFACT = "BENCH_kernel.quick.json"

#: Append-only log of full bench runs (one JSON line per run), so the
#: repository carries the perf trajectory alongside the code.
HISTORY_FILE = "BENCH_history.jsonl"

#: Default regression tolerance for ``bench --compare``: fail when a
#: scenario's throughput drops by more than this fraction.
DEFAULT_REGRESSION_THRESHOLD = 0.25


class BenchError(Exception):
    """A benchmark scenario failed to build or run."""


@dataclass(frozen=True)
class BenchScenario:
    """One registered macro benchmark.

    ``build`` returns a zero-argument *run* callable; everything
    expensive to set up happens inside ``build`` so the timed section
    measures only the simulation itself.  The run callable returns the
    kernel so the runner can report dispatch counts.
    """

    name: str
    description: str
    sim_us: int
    quick_sim_us: int
    build: Callable[[int], Callable[[], object]]
    tags: tuple[str, ...] = ()


#: Name -> scenario, in registration order.
BENCH_REGISTRY: dict[str, BenchScenario] = {}


def bench_scenario(
    name: str,
    *,
    description: str,
    sim_us: int,
    quick_sim_us: int,
    tags: tuple[str, ...] = (),
) -> Callable[[Callable[[int], Callable[[], object]]], Callable]:
    """Register the decorated builder as a bench scenario."""

    def decorate(build: Callable[[int], Callable[[], object]]) -> Callable:
        if name in BENCH_REGISTRY:
            raise BenchError(f"bench scenario {name!r} is already registered")
        BENCH_REGISTRY[name] = BenchScenario(
            name=name,
            description=description,
            sim_us=sim_us,
            quick_sim_us=quick_sim_us,
            build=build,
            tags=tags,
        )
        return build

    return decorate


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
@bench_scenario(
    name="webserver",
    description="Single web server + competing hog under the controller",
    sim_us=2_000_000,
    quick_sim_us=250_000,
    tags=("uniprocessor", "controller"),
)
def _build_webserver(sim_us: int) -> Callable[[], object]:
    from repro.system import build_real_rate_system
    from repro.workloads.cpu_hog import CpuHog
    from repro.workloads.webserver import WebServer

    system = build_real_rate_system()
    WebServer.attach(system, requests_per_second=300.0, service_cpu_us=1_200,
                     seed=1)
    CpuHog.attach(system, burst_us=4_000, seed=2)

    def run() -> object:
        system.run_for(sim_us)
        return system.kernel

    return run


@bench_scenario(
    name="webfarm",
    description="4-CPU web farm (8 servers) with SMP dispatch rounds",
    sim_us=1_000_000,
    quick_sim_us=200_000,
    tags=("smp", "controller"),
)
def _build_webfarm(sim_us: int) -> Callable[[], object]:
    from repro.system import build_real_rate_system
    from repro.workloads.webfarm import WebFarm

    system = build_real_rate_system(n_cpus=4)
    WebFarm.attach(system, n_servers=8, requests_per_second=200.0,
                   service_cpu_us=1_500, seed=3)

    def run() -> object:
        system.run_for(sim_us)
        return system.kernel

    return run


@bench_scenario(
    name="overload64",
    description="64 over-committed reservations on one CPU (dispatch hot path)",
    sim_us=1_000_000,
    quick_sim_us=100_000,
    tags=("uniprocessor", "overload", "scheduler"),
)
def _build_overload64(sim_us: int) -> Callable[[], object]:
    """The scheduler-substrate stress the tentpole optimises.

    64 always-runnable reservation threads whose proportions total well
    over one CPU, so every dispatch exercises rate-monotonic ordering,
    budget exhaustion, throttling and replenishment — with no adaptive
    controller in the loop, the wall clock measures the dispatcher
    itself.
    """
    from repro.sched.rbs import ReservationScheduler
    from repro.sim.kernel import Kernel
    from repro.sim.requests import Compute

    scheduler = ReservationScheduler()
    kernel = Kernel(scheduler)

    def spin(env):
        while True:
            yield Compute(3_000)

    for i in range(64):
        thread = kernel.spawn(f"hog{i}", spin)
        # Varied periods exercise the rate-monotonic order; 25 ppt each
        # totals 1600 ppt against a 1000 ppt CPU (permanent overload).
        scheduler.set_reservation(thread, 25, 10_000 + (i % 8) * 5_000)

    def run() -> object:
        kernel.run_for(sim_us)
        return kernel

    return run


@bench_scenario(
    name="overload64_controller",
    description="64 miscellaneous CPU hogs under the adaptive controller",
    sim_us=1_000_000,
    quick_sim_us=100_000,
    tags=("uniprocessor", "overload", "controller"),
)
def _build_overload64_controller(sim_us: int) -> Callable[[], object]:
    from repro.system import build_real_rate_system
    from repro.workloads.cpu_hog import CpuHog

    system = build_real_rate_system()
    for i in range(64):
        CpuHog.attach(system, name=f"hog{i}", burst_us=3_000, seed=100 + i)

    def run() -> object:
        system.run_for(sim_us)
        return system.kernel

    return run


@bench_scenario(
    name="pipeline",
    description="Figure 6 pulse pipeline (producer/consumer real-rate)",
    sim_us=2_000_000,
    quick_sim_us=250_000,
    tags=("uniprocessor", "real-rate"),
)
def _build_pipeline(sim_us: int) -> Callable[[], object]:
    from repro.system import build_real_rate_system
    from repro.workloads.pulse import PulseParameters, PulsePipeline, PulseSchedule

    system = build_real_rate_system()
    params = PulseParameters()
    schedule = PulseSchedule.paper_figure6(params.base_rate_bytes_per_cpu_us)
    PulsePipeline.attach(system, schedule=schedule, params=params)

    def run() -> object:
        system.run_for(sim_us)
        return system.kernel

    return run


@bench_scenario(
    name="churn1k",
    description="Open-system churn: ~1400 arriving/exiting job lifetimes",
    sim_us=2_000_000,
    quick_sim_us=200_000,
    tags=("uniprocessor", "churn", "scheduler"),
)
def _build_churn1k(sim_us: int) -> Callable[[], object]:
    """Arrival-driven thread churn through the dispatcher hot paths.

    Two open streams feed a bare reservation scheduler: Poisson
    best-effort jobs and deterministic reserved jobs, each a finite
    compute/sleep demand.  Every lifetime exercises mid-run spawn
    (scheduler add), finite-job exit (remove + reclaim) and the
    calendar's arrival events.  The full run completes well over 1000
    thread lifetimes.
    """
    from repro.sched.rbs import ReservationScheduler
    from repro.sim.kernel import Kernel
    from repro.workloads.arrivals import DeterministicArrivals, PoissonArrivals
    from repro.workloads.engine import JobTemplate, WorkloadEngine

    scheduler = ReservationScheduler()
    kernel = Kernel(scheduler)
    churn = WorkloadEngine(kernel)
    churn.add_stream(
        "misc",
        PoissonArrivals(450.0, seed=41),
        JobTemplate("misc", total_cpu_us=1_200, burst_us=600, think_us=500),
    )
    churn.add_stream(
        "rt",
        DeterministicArrivals(4_000),
        JobTemplate(
            "rt", total_cpu_us=800, burst_us=400, think_us=300,
            reservation=(50, 10_000),
        ),
    )
    churn.start()

    def run() -> object:
        kernel.run_for(sim_us)
        return kernel

    return run


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def _completed_lifetimes(kernel: object) -> int:
    """Threads of ``kernel`` that have fully exited (churn scenarios)."""
    from repro.sim.thread import ThreadState

    threads = getattr(kernel, "threads", None)
    if not threads:
        return 0
    exited = ThreadState.EXITED
    return sum(1 for thread in threads if thread.state is exited)


@dataclass
class BenchResult:
    """Timing of one scenario: min-of-``repeats`` wall seconds."""

    name: str
    description: str
    sim_us: int
    repeats: int
    wall_s: list[float] = field(default_factory=list)
    dispatches: int = 0
    n_threads: int = 0
    #: Thread lifetimes that ran to completion (exited threads) — the
    #: churn scenarios' headline count.
    threads_completed: int = 0
    #: Cross-CPU thread moves observed (multiprocessor kernels) and the
    #: virtual microseconds of migration penalty charged for them (only
    #: non-zero on kernels built with a penalised CpuTopology).
    migrations: int = 0
    migration_us: int = 0

    @property
    def wall_s_min(self) -> float:
        return min(self.wall_s)

    @property
    def sim_us_per_wall_s(self) -> float:
        """Simulated microseconds advanced per wall-clock second."""
        best = self.wall_s_min
        if best <= 0:
            return float("inf")
        return self.sim_us / best

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "sim_us": self.sim_us,
            "repeats": self.repeats,
            "wall_s": [round(w, 6) for w in self.wall_s],
            "wall_s_min": round(self.wall_s_min, 6),
            "sim_us_per_wall_s": round(self.sim_us_per_wall_s, 1),
            "dispatches": self.dispatches,
            "n_threads": self.n_threads,
            "threads_completed": self.threads_completed,
            "migrations": self.migrations,
            "migration_us": self.migration_us,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchResult":
        """Rebuild from the :meth:`to_dict` form.

        The derived ``wall_s_min`` / ``sim_us_per_wall_s`` keys are
        recomputed from ``wall_s``, not read back.
        """
        return cls(
            name=str(payload["name"]),
            description=str(payload.get("description", "")),
            sim_us=int(payload["sim_us"]),
            repeats=int(payload["repeats"]),
            wall_s=[float(w) for w in payload["wall_s"]],
            dispatches=int(payload.get("dispatches", 0)),
            n_threads=int(payload.get("n_threads", 0)),
            threads_completed=int(payload.get("threads_completed", 0)),
            migrations=int(payload.get("migrations", 0)),
            migration_us=int(payload.get("migration_us", 0)),
        )


def run_scenario(
    scenario: BenchScenario, *, quick: bool = False, repeats: int = 3
) -> BenchResult:
    """Time ``scenario``: fresh build per repeat, wall-clock the run."""
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    sim_us = scenario.quick_sim_us if quick else scenario.sim_us
    result = BenchResult(
        name=scenario.name,
        description=scenario.description,
        sim_us=sim_us,
        repeats=repeats,
    )
    for _ in range(repeats):
        run = scenario.build(sim_us)
        # repro-lint: disable=determinism -- wall-clock timing IS the benchmark's measurement; it never feeds simulated state
        start = time.perf_counter()
        kernel = run()
        result.wall_s.append(time.perf_counter() - start)  # repro-lint: disable=determinism -- benchmark wall timing, as above
        result.dispatches = getattr(kernel, "dispatch_count", 0)
        result.n_threads = len(getattr(kernel, "threads", ()))
        result.threads_completed = _completed_lifetimes(kernel)
        result.migrations = getattr(kernel, "migrations", 0)
        result.migration_us = getattr(kernel, "migration_us", 0)
    return result


def run_bench(
    names: Optional[list[str]] = None,
    *,
    quick: bool = False,
    repeats: int = 3,
) -> list[BenchResult]:
    """Run the named scenarios (default: all registered, in order)."""
    if names:
        unknown = [n for n in names if n not in BENCH_REGISTRY]
        if unknown:
            raise BenchError(
                f"unknown bench scenario(s) {unknown}; "
                f"known: {sorted(BENCH_REGISTRY)}"
            )
        scenarios = [BENCH_REGISTRY[n] for n in names]
    else:
        scenarios = list(BENCH_REGISTRY.values())
    return [run_scenario(s, quick=quick, repeats=repeats) for s in scenarios]


def run_bench_journaled(
    names: Optional[list[str]] = None,
    *,
    quick: bool = False,
    repeats: int = 3,
    journal_path: str,
    resume: bool = False,
    on_event: Optional[Callable[[str], None]] = None,
) -> tuple[list[BenchResult], int]:
    """:func:`run_bench` under the sweep journal contract.

    Each scenario's timing is durably journaled as it lands, so an
    interrupted bench (Ctrl-C mid-suite) resumes without re-timing the
    finished scenarios; returns ``(results, resumed count)``.  The
    journal fingerprint pins the scenario list, ``quick`` and
    ``repeats``, so a resume cannot silently merge timings from a
    different configuration.  Scenarios run in-process, exactly as in
    :func:`run_bench` — journaling must not add subprocess noise to
    the timings.
    """
    from repro.orchestration.runner import run_journaled_serial

    if names:
        unknown = [n for n in names if n not in BENCH_REGISTRY]
        if unknown:
            raise BenchError(
                f"unknown bench scenario(s) {unknown}; "
                f"known: {sorted(BENCH_REGISTRY)}"
            )
        keys = list(names)
    else:
        keys = list(BENCH_REGISTRY)

    def run_one(index: int, key: str) -> dict:
        return run_scenario(
            BENCH_REGISTRY[key], quick=quick, repeats=repeats
        ).to_dict()

    payloads, resumed = run_journaled_serial(
        keys,
        run_one,
        journal_path=journal_path,
        run_kind="bench",
        fingerprint={"scenarios": keys, "quick": quick, "repeats": repeats},
        resume=resume,
        on_event=on_event,
    )
    return [BenchResult.from_dict(payloads[key]) for key in keys], resumed


def bench_to_dict(
    results: list[BenchResult], *, quick: bool = False, repeats: int = 3
) -> dict:
    """The schema-versioned artifact structure for ``BENCH_kernel.json``."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick": quick,
        "repeats": repeats,
        "scenarios": [r.to_dict() for r in results],
    }


def bench_to_json(
    results: list[BenchResult], *, quick: bool = False, repeats: int = 3
) -> str:
    return json.dumps(
        bench_to_dict(results, quick=quick, repeats=repeats), indent=2
    )


def load_bench_artifact(path: str) -> dict:
    """Load a bench artifact written by :func:`bench_to_json`."""
    try:
        with open(path) as handle:
            artifact = json.load(handle)
    except OSError as error:
        raise BenchError(f"cannot read baseline {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise BenchError(f"baseline {path!r} is not valid JSON: {error}") from error
    if artifact.get("kind") != "bench":
        raise BenchError(f"baseline {path!r} is not a bench artifact")
    if artifact.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise BenchError(
            f"baseline {path!r} has schema version "
            f"{artifact.get('schema_version')!r}, expected {BENCH_SCHEMA_VERSION}"
        )
    return artifact


@dataclass(frozen=True)
class BenchComparison:
    """One scenario's fresh throughput against the baseline's.

    Either side can be absent: a fresh scenario with no baseline entry
    compares against ``None`` (informational), and a *baseline*
    scenario absent from the fresh run has ``fresh_sim_us_per_wall_s``
    of ``None`` — a :attr:`missing` row, which the compare gate treats
    as a failure (a scenario silently dropping out of the suite must
    not read as "no regressions").
    """

    name: str
    baseline_sim_us_per_wall_s: Optional[float]
    fresh_sim_us_per_wall_s: Optional[float]
    threshold: float

    @property
    def ratio(self) -> Optional[float]:
        """Fresh/baseline throughput, or ``None`` when a side is absent."""
        base = self.baseline_sim_us_per_wall_s
        if base is None or base <= 0 or self.fresh_sim_us_per_wall_s is None:
            return None
        return self.fresh_sim_us_per_wall_s / base

    @property
    def missing(self) -> bool:
        """A baseline scenario the fresh run did not produce."""
        return self.fresh_sim_us_per_wall_s is None

    @property
    def regressed(self) -> bool:
        """Whether throughput dropped by more than the threshold."""
        ratio = self.ratio
        return ratio is not None and ratio < 1.0 - self.threshold


def compare_to_baseline(
    results: list[BenchResult],
    baseline: dict,
    *,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    expected: Optional[Sequence[str]] = None,
) -> list[BenchComparison]:
    """Compare fresh results against a loaded baseline artifact.

    Scenarios are matched by name; fresh scenarios absent from the
    baseline compare against ``None`` (informational, never a
    regression).  A mismatch in simulated duration (e.g. a quick run
    against a full baseline) still compares meaningfully because the
    metric is throughput, not wall time — but the table shows both
    figures so the reader is not misled.

    Baseline scenarios the fresh run did *not* produce are appended as
    :attr:`~BenchComparison.missing` rows — historically they were
    silently dropped, so a scenario deleted (or renamed, or crashed
    out of) the suite made the comparison read "all ok".  ``expected``
    limits that check to an explicit scenario subset: pass the names
    the user asked to run (``bench overload64 --compare``) so an
    intentional partial run is not flagged; ``None`` means the fresh
    run claims to cover everything in the baseline.
    """
    if not 0 < threshold < 1:
        raise BenchError(
            f"regression threshold must be inside (0, 1), got {threshold}"
        )
    by_name = {
        scenario.get("name"): scenario
        for scenario in baseline.get("scenarios", [])
    }
    comparisons = []
    for result in results:
        base = by_name.get(result.name)
        comparisons.append(
            BenchComparison(
                name=result.name,
                baseline_sim_us_per_wall_s=(
                    base.get("sim_us_per_wall_s") if base else None
                ),
                fresh_sim_us_per_wall_s=result.sim_us_per_wall_s,
                threshold=threshold,
            )
        )
    fresh_names = {result.name for result in results}
    for name, scenario in by_name.items():
        if name in fresh_names:
            continue
        if expected is not None and name not in expected:
            continue
        comparisons.append(
            BenchComparison(
                name=name,
                baseline_sim_us_per_wall_s=scenario.get("sim_us_per_wall_s"),
                fresh_sim_us_per_wall_s=None,
                threshold=threshold,
            )
        )
    return comparisons


def format_compare_table(comparisons: list[BenchComparison]) -> str:
    """Human-readable comparison summary printed by the CLI."""
    width = max([len("scenario")] + [len(c.name) for c in comparisons])
    header = (
        f"{'scenario':<{width}} {'baseline':>14} {'fresh':>14} "
        f"{'ratio':>7}  verdict"
    )
    lines = [header, "-" * len(header)]
    for c in comparisons:
        base = (
            f"{c.baseline_sim_us_per_wall_s:,.0f}"
            if c.baseline_sim_us_per_wall_s is not None
            else "—"
        )
        fresh = (
            f"{c.fresh_sim_us_per_wall_s:,.0f}"
            if c.fresh_sim_us_per_wall_s is not None
            else "—"
        )
        ratio = f"{c.ratio:.2f}x" if c.ratio is not None else "—"
        if c.missing:
            verdict = "MISSING (in baseline, not in fresh run)"
        elif c.ratio is None:
            verdict = "no baseline"
        elif c.regressed:
            verdict = f"REGRESSED (>{c.threshold:.0%} drop)"
        else:
            verdict = "ok"
        lines.append(
            f"{c.name:<{width}} {base:>14} "
            f"{fresh:>14} {ratio:>7}  {verdict}"
        )
    return "\n".join(lines)


def git_sha() -> str:
    """The current commit's short SHA, or ``"unknown"`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def history_line(
    results: list[BenchResult], *, quick: bool = False, repeats: int = 3
) -> dict:
    """One append-only history record: commit + per-scenario throughput."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench_history",
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "quick": quick,
        "repeats": repeats,
        "scenarios": {
            result.name: round(result.sim_us_per_wall_s, 1)
            for result in results
        },
    }


def append_history(
    results: list[BenchResult],
    path: str = HISTORY_FILE,
    *,
    quick: bool = False,
    repeats: int = 3,
) -> dict:
    """Append one history line for this run; returns the record."""
    record = history_line(results, quick=quick, repeats=repeats)
    append_durable(path, json.dumps(record, sort_keys=True))
    return record


def format_bench_table(results: list[BenchResult]) -> str:
    """Human-readable summary printed by the CLI."""
    width = max([len("scenario")] + [len(r.name) for r in results])
    header = (
        f"{'scenario':<{width}} {'sim_us':>10} {'wall_s(min)':>12} "
        f"{'sim_us/wall_s':>14} {'dispatches':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.name:<{width}} {r.sim_us:>10,} {r.wall_s_min:>12.4f} "
            f"{r.sim_us_per_wall_s:>14,.0f} {r.dispatches:>11,}"
        )
    return "\n".join(lines)


__all__ = [
    "BENCH_REGISTRY",
    "BENCH_SCHEMA_VERSION",
    "BenchComparison",
    "BenchError",
    "BenchResult",
    "BenchScenario",
    "DEFAULT_ARTIFACT",
    "DEFAULT_REGRESSION_THRESHOLD",
    "HISTORY_FILE",
    "QUICK_ARTIFACT",
    "append_history",
    "bench_scenario",
    "bench_to_dict",
    "bench_to_json",
    "compare_to_baseline",
    "format_bench_table",
    "format_compare_table",
    "git_sha",
    "history_line",
    "load_bench_artifact",
    "run_bench",
    "run_bench_journaled",
    "run_scenario",
]
