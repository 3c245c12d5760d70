"""Golden-trace conformance: fresh runs must match the committed corpora.

Each corpus (``tests/golden/churn_smoke.json``,
``tests/golden/fault_smoke.json``,
``tests/golden/topology_placement.json``) pins the full dispatch
behaviour of one golden scenario for every scheduler policy x 1 and 4
CPUs.  A failure here means scheduling behaviour changed: if
intentional, refresh the corpora with ``python -m repro golden --regen``
and commit the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import golden

GOLDEN_DIR = Path(__file__).parent / "golden"
SCENARIOS = sorted(golden.GOLDEN_SCENARIOS)


@pytest.fixture(scope="module")
def corpora() -> dict:
    return {
        name: golden.load_corpus(
            str(GOLDEN_DIR / Path(spec.corpus_path).name)
        )
        for name, spec in golden.GOLDEN_SCENARIOS.items()
    }


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_corpus_is_committed_and_complete(corpora, scenario):
    corpus = corpora[scenario]
    spec = golden.scenario_spec(scenario)
    assert corpus["scenario"] == scenario
    assert corpus["duration_us"] == spec.duration_us
    expected_keys = {golden.entry_key(*cell) for cell in golden.iter_matrix()}
    assert set(corpus["entries"]) == expected_keys
    # 5 schedulers x 2 CPU counts.
    assert len(corpus["entries"]) == 10


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("scheduler", sorted(golden.GOLDEN_SCHEDULERS))
def test_golden_traces_conform(corpora, scenario, scheduler):
    """Every n_cpus cell of one scheduler matches the corpus."""
    corpus = corpora[scenario]
    mismatches = []
    for n_cpus in golden.GOLDEN_CPU_COUNTS:
        message = golden.verify_cell(corpus, scheduler, n_cpus)
        if message is not None:
            mismatches.append(message)
    assert not mismatches, (
        f"golden-trace divergence in {scenario} (intentional? run "
        "`python -m repro golden --regen`):\n" + "\n".join(mismatches)
    )


def test_corpus_cells_exercise_churn(corpora):
    """Every churn cell spawns, completes and kills jobs — a corpus cell
    that stopped churning would silently weaken the conformance check."""
    for key, entry in corpora["churn_smoke"]["entries"].items():
        assert entry["spawned"] > 0, key
        assert entry["completed"] > 0, key
        assert entry["killed"] > 0, key
        assert entry["dispatches"] > 0, key


def test_fault_corpus_cells_stay_busy(corpora):
    """Every fault cell keeps spawning and completing work around the
    injected faults (the hijacked victims themselves never complete)."""
    for key, entry in corpora["fault_smoke"]["entries"].items():
        assert entry["spawned"] > 0, key
        assert entry["completed"] > 0, key
        assert entry["dispatches"] > 0, key


def test_fault_scenario_exercises_faults():
    """The builder attaches a live injector whose plan covers a runaway,
    a stall and (multi-CPU) a fail/recover pair — guard against the
    scenario silently degenerating into plain churn."""
    from repro.faults import CPU_FAIL, RUNAWAY_START, STALL_START

    kernel, _churn = golden.build_fault_golden("rbs", 4)
    labels = [
        event.label
        for event in kernel.events.pending()
        if event.label.startswith("fault:")
    ]
    assert f"fault:{RUNAWAY_START}" in labels
    assert f"fault:{STALL_START}" in labels
    assert f"fault:{CPU_FAIL}" in labels
    # The single-CPU variant must not try to fail its only CPU.
    kernel1, _ = golden.build_fault_golden("rbs", 1)
    labels1 = [
        event.label
        for event in kernel1.events.pending()
        if event.label.startswith("fault:")
    ]
    assert f"fault:{CPU_FAIL}" not in labels1
    assert f"fault:{RUNAWAY_START}" in labels1


def test_verify_reports_divergence(monkeypatch, corpora):
    """A corrupted corpus entry is reported, not silently accepted.

    ``run_golden`` is stubbed to echo the committed entries so this
    exercises only the diff/reporting logic, not 10 more simulations.
    """
    corpus = corpora["churn_smoke"]
    broken = json.loads(json.dumps(corpus))
    key = golden.entry_key("rbs", 1)
    broken["entries"][key]["dispatch_sha256"] = "0" * 64
    broken["entries"]["bogus/cpu9"] = {"dispatch_sha256": "x"}
    monkeypatch.setattr(
        golden,
        "run_golden",
        lambda scheduler, n_cpus, scenario=golden.GOLDEN_SCENARIO: dict(
            corpus["entries"][golden.entry_key(scheduler, n_cpus)]
        ),
    )
    messages = golden.verify_corpus(broken)
    assert any(key in message and "diverged" in message for message in messages)
    assert any("bogus" in message for message in messages)
    # A missing cell is reported too.
    del broken["entries"][key]
    assert any(
        "missing" in message for message in golden.verify_corpus(broken)
    )
    # An unknown scenario short-circuits instead of crashing.
    broken["scenario"] = "not_a_scenario"
    messages = golden.verify_corpus(broken)
    assert messages == [
        "not_a_scenario: unknown golden scenario "
        f"(known: {sorted(golden.GOLDEN_SCENARIOS)})"
    ]


def test_load_corpus_rejects_wrong_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "bench", "schema_version": 1}))
    with pytest.raises(ValueError, match="not a golden corpus"):
        golden.load_corpus(str(path))
    path.write_text(
        json.dumps({"kind": "golden_corpus", "schema_version": 99})
    )
    with pytest.raises(ValueError, match="schema version"):
        golden.load_corpus(str(path))


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown golden scenario"):
        golden.scenario_spec("nope")
    with pytest.raises(ValueError, match="unknown golden scenario"):
        golden.run_golden("rbs", 1, scenario="nope")


def test_write_corpus_roundtrip(tmp_path, corpora):
    """``--regen`` output round-trips and matches the committed corpus
    (the full matrix was already re-simulated by the conform tests, so
    equality against the committed entries is the cheap way to assert
    it)."""
    path = tmp_path / "fresh.json"
    written = golden.write_corpus(str(path))
    loaded = golden.load_corpus(str(path))
    assert loaded == written
    assert written["entries"] == corpora["churn_smoke"]["entries"]
