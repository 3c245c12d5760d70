"""The benchmark's correctness gate catches a perturbed run.

Runs short episodes in-process (``PYTHONPATH=src python -m pytest
perfbench``): a clean episode passes the gate, one whose thread
accounting is perturbed after the timed steps fails it, and the run's
error rate counts every step of the perturbed episode as failed.
"""

from __future__ import annotations

import json
import os
import time

import run
import tracing
import worker

STEPS = 30


def episode(**kwargs) -> dict:
    return worker.run_episode(
        "controller64", 7, STEPS, time.monotonic_ns(), **kwargs
    )


def perturb(workload) -> None:
    workload.kernel.threads[0].accounting.total_us += 1


def test_clean_episodes_pass_the_gate_with_one_digest():
    first, second = episode(), episode()
    assert first["conserved"] and first["failed"] == 0
    assert first["digest"] == second["digest"]
    assert run.judge([first, second])[:2] == (2 * STEPS, 0)


def test_perturbed_accounting_fails_the_run_and_counts_in_error_rate():
    clean = [episode(), episode()]
    bad = episode(before_gate=perturb)
    assert not bad["conserved"]
    assert bad["failed"] == STEPS
    assert bad["digest"] != clean[0]["digest"]
    attempted, failed, digest = run.judge(clean + [bad])
    assert (attempted, failed) == (3 * STEPS, STEPS)
    assert digest == clean[0]["digest"]


def test_tracing_leaves_the_simulated_output_unchanged():
    plain = episode()
    traced = episode(trace=True)
    assert traced["digest"] == plain["digest"]
    assert traced["layers"]["core.allocator.ticks"] == STEPS
    assert traced["layers"]["sched.placement.rounds"] == 0

    # BENCHMARK.json declares exactly the metrics the runs report.
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = [*traced["layers"], tracing.OVERHEAD_METRIC]
    assert declared == {name: run.unit_of(name) for name in reported}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
