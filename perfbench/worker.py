"""One benchmark episode, run in a fresh interpreter by ``run.py``.

An episode imports the simulator, builds one workload, then calls
``kernel.run_for`` for a fixed number of 10 ms steps (closed loop, one
caller) and times each call.  After the timed steps, outside every
timer, it checks the conservation identity and computes a digest of the
simulated output.  The result is printed as one JSON line.

Usage::

    python3 perfbench/worker.py --workload churn --seed 1 --steps 1000 \\
        --start-ns <time.monotonic_ns() of the launching process>

``--start-ns`` is read on the same system-wide monotonic clock just
before the launcher starts this interpreter, so ``setup_s`` covers
interpreter start, imports and construction.  ``--trace 1`` records
spans (see ``tracing.py``) and adds the per-layer metrics.

Host-speed calibration
----------------------
The host's speed drifts: on a shared 2-CPU machine, 30 back-to-back
``webfarm`` episodes ranged from 4.1 to 6.2 simulated seconds per host
second, in regimes lasting seconds, and CPU time drifted as much as wall
time.  A fixed pure-Python loop timed between chunks of steps tracks that
drift (chunk-level spread 36% raw, 7% calibrated).  So after every
~25 ms of timed steps the worker times ``calibration_ns()``, and each
step's host time is also reported scaled by ``CALIBRATION_REFERENCE_NS``
over the mean of the calibrations on either side of its chunk: the time
the step would take on a host running the loop in the reference time.
Set-up time is scaled by a calibration taken right after set-up.
Calibration runs outside every timed step and every span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_simulator() -> None:
    """Make ``repro`` importable from this checkout's ``src`` only."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


#: Reference time of one calibration pass: about what a pass takes
#: between steps when the host runs at its fastest (2-CPU x86-64 Linux
#: virtual machine, Python 3.11), so calibrated and raw figures agree
#: there.  Only ratios between runs on one machine are meaningful.
CALIBRATION_REFERENCE_NS = 2_400_000
CALIBRATION_LOOPS = 20_000
#: Timed host time between two calibrations.
CALIBRATION_EVERY_NS = 25_000_000


def calibration_ns() -> int:
    """Fastest of two timed passes of a fixed interpreter loop."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        table = {}
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 255] = acc
        elapsed = time.perf_counter_ns() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


def conservation_holds(kernel) -> bool:
    """Thread CPU + idle + stolen + offline time == n_cpus * now."""
    return (
        kernel.total_thread_cpu_us()
        + kernel.idle_us
        + kernel.stolen_us
        + kernel.offline_us
        == kernel.n_cpus * kernel.now
    )


def output_digest(workload) -> str:
    """SHA-256 over the run's simulated statistics (no host times).

    Threads are listed in tid order but identified by name, not by tid:
    tids come from a process-wide counter, so they differ when several
    episodes share one interpreter.
    """
    kernel = workload.kernel
    threads = sorted(kernel.threads, key=lambda t: t.tid)
    record = {
        "now": kernel.now,
        "dispatches": kernel.dispatch_count,
        "threads": [
            [
                t.name, t.state.name, a.total_us, a.dispatches,
                a.preemptions, a.voluntary_switches, a.blocks, a.sleeps,
            ]
            for t in threads
            for a in (t.accounting,)
        ],
        "idle_us": kernel.idle_us,
        "stolen_us": kernel.stolen_us,
        "offline_us": kernel.offline_us,
        "migrations": kernel.migrations,
        "deadline_misses": kernel.scheduler.deadline_misses(),
        "trace": kernel.tracer.fingerprint(),
        "completed": workload.completed(),
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def run_episode(
    workload_name: str,
    seed: int,
    steps: int,
    start_ns: int,
    *,
    trace: bool = False,
    spans_path: Optional[str] = None,
    before_gate: Optional[Callable[[object], None]] = None,
) -> dict:
    """Build, step and check one workload; returns the episode record.

    ``before_gate(workload)`` runs after the timed steps and before the
    correctness gate (the gate's own test uses it to perturb a run).
    """
    import_simulator()
    import workloads

    recorder = None
    if trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    workload = workloads.BUILDERS[workload_name](seed)
    kernel = workload.kernel
    setup_s = (time.monotonic_ns() - start_ns) / 1e9
    calibration = calibration_ns()
    setup_factor = CALIBRATION_REFERENCE_NS / calibration

    step_us = workloads.STEP_US
    step_ns: list[int] = []
    #: Calibration factor of each step (reference time / host time).
    step_factor: list[float] = []
    failed = 0
    error = None
    dispatches0 = kernel.dispatch_count
    migrations0 = kernel.migrations
    sim0 = kernel.now
    clock = time.perf_counter_ns
    run_for = kernel.run_for
    chunk_start = 0
    chunk_ns = 0
    for i in range(steps):
        if recorder is not None:
            recorder.current_step = i
        t0 = clock()
        try:
            run_for(step_us)
        except Exception:
            # A step that raises leaves the kernel mid-dispatch: this and
            # every remaining step count as failed.
            error = traceback.format_exc()
            failed = steps - i
            break
        elapsed = clock() - t0
        step_ns.append(elapsed)
        chunk_ns += elapsed
        if chunk_ns >= CALIBRATION_EVERY_NS or i == steps - 1:
            if recorder is not None:
                recorder.current_step = -1
            after = calibration_ns()
            factor = 2 * CALIBRATION_REFERENCE_NS / (calibration + after)
            step_factor.extend([factor] * (len(step_ns) - chunk_start))
            calibration = after
            chunk_start = len(step_ns)
            chunk_ns = 0
    if len(step_factor) < len(step_ns):
        # A step raised mid-chunk: the chunk keeps the last calibration.
        step_factor.extend(
            [CALIBRATION_REFERENCE_NS / calibration] * (len(step_ns) - chunk_start)
        )
    if recorder is not None:
        recorder.current_step = -1
    sim_s = (kernel.now - sim0) / 1e6

    if before_gate is not None:
        before_gate(workload)
    conserved = conservation_holds(kernel)
    digest = output_digest(workload)
    if not conserved:
        error = error or "conservation identity violated"
        failed = steps
    record = {
        "workload": workload_name,
        "seed": seed,
        "steps": steps,
        "failed": failed,
        "error": error,
        "conserved": conserved,
        "digest": digest,
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "sim_s": sim_s,
        "step_ns": step_ns,
        "step_factor": step_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced": trace,
    }
    if recorder is not None:
        from tracing import per_layer_metrics

        recorder.uninstall()
        record["layers"] = per_layer_metrics(
            recorder,
            step_factor=step_factor,
            dispatches=kernel.dispatch_count - dispatches0,
            migrations=kernel.migrations - migrations0,
            retained_threads=len(kernel.threads),
        )
        if spans_path is not None:
            recorder.write(spans_path)
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--start-ns", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where to write the spans")
    args = parser.parse_args(argv)
    record = run_episode(
        args.workload, args.seed, args.steps, args.start_ns,
        trace=bool(args.trace), spans_path=args.spans,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
