"""Tests for the perf-benchmark registry and the ``bench`` subcommand."""

import dataclasses
import json

import pytest

from repro.bench import (
    BENCH_REGISTRY,
    BENCH_SCHEMA_VERSION,
    BenchError,
    bench_scenario,
    bench_to_dict,
    format_bench_table,
    run_bench,
    run_scenario,
)
from repro.cli import main

#: A tiny simulated duration so CLI/runner tests stay fast.
TINY_US = 5_000


class TestRegistry:
    def test_expected_scenarios_registered(self):
        for name in ("webserver", "webfarm", "overload64",
                     "overload64_controller", "pipeline"):
            assert name in BENCH_REGISTRY

    def test_quick_durations_are_shorter(self):
        for scenario in BENCH_REGISTRY.values():
            assert 0 < scenario.quick_sim_us < scenario.sim_us

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BenchError, match="already registered"):
            bench_scenario(
                name="overload64", description="dup", sim_us=1, quick_sim_us=1
            )(lambda sim_us: lambda: None)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(BenchError, match="unknown bench scenario"):
            run_bench(["nonesuch"])


class TestRunner:
    def test_run_scenario_measures_and_counts(self):
        scenario = BENCH_REGISTRY["overload64"]
        result = run_scenario(scenario, quick=True, repeats=2)
        assert len(result.wall_s) == 2
        assert result.wall_s_min > 0
        assert result.sim_us == scenario.quick_sim_us
        assert result.sim_us_per_wall_s > 0
        assert result.dispatches > 0
        assert result.n_threads == 64

    def test_repeats_must_be_positive(self):
        with pytest.raises(BenchError, match="repeats"):
            run_scenario(BENCH_REGISTRY["overload64"], repeats=0)

    def test_artifact_schema(self):
        results = [run_scenario(BENCH_REGISTRY["overload64"], quick=True,
                                repeats=1)]
        artifact = bench_to_dict(results, quick=True, repeats=1)
        assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
        assert artifact["kind"] == "bench"
        assert artifact["quick"] is True
        (entry,) = artifact["scenarios"]
        assert entry["name"] == "overload64"
        assert entry["wall_s_min"] > 0
        assert entry["sim_us_per_wall_s"] > 0
        # The v3 per-scenario field set, exactly.
        assert set(entry) == {
            "name", "description", "sim_us", "repeats", "wall_s",
            "wall_s_min", "sim_us_per_wall_s", "dispatches", "n_threads",
            "threads_completed", "migrations", "migration_us",
        }
        # Everything must survive a JSON round-trip.
        assert json.loads(json.dumps(artifact)) == artifact

    def test_table_mentions_every_scenario(self):
        results = [run_scenario(BENCH_REGISTRY["pipeline"], quick=True,
                                repeats=1)]
        table = format_bench_table(results)
        assert "pipeline" in table
        assert "sim_us/wall_s" in table


class TestBenchCli:
    def test_list_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "overload64" in out
        assert "webfarm" in out

    def test_bench_writes_artifact(self, tmp_path, capsys, monkeypatch):
        # Shrink the scenario so the CLI test is fast even at --quick.
        scenario = BENCH_REGISTRY["overload64"]
        monkeypatch.setitem(
            BENCH_REGISTRY,
            "overload64",
            dataclasses.replace(scenario, quick_sim_us=TINY_US),
        )
        out_path = tmp_path / "BENCH_kernel.json"
        code = main([
            "bench", "overload64", "--quick", "--repeats", "1",
            "--json", str(out_path),
        ])
        assert code == 0
        artifact = json.loads(out_path.read_text())
        assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
        assert artifact["scenarios"][0]["name"] == "overload64"
        assert "overload64" in capsys.readouterr().out

    def test_bench_json_stdout(self, capsys, monkeypatch):
        scenario = BENCH_REGISTRY["pipeline"]
        monkeypatch.setitem(
            BENCH_REGISTRY,
            "pipeline",
            dataclasses.replace(scenario, quick_sim_us=TINY_US),
        )
        assert main(["bench", "pipeline", "--quick", "--repeats", "1",
                     "--json", "-"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["kind"] == "bench"

    def test_unknown_scenario_is_cli_error(self, capsys):
        assert main(["bench", "nonesuch"]) == 2
        assert "unknown bench scenario" in capsys.readouterr().err


def test_json_flag_swallowing_scenario_name_is_caught(capsys):
    """`bench --json overload64` must error, not benchmark everything."""
    assert main(["bench", "--json", "overload64"]) == 2
    err = capsys.readouterr().err
    assert "overload64" in err and "--json" in err


def _shrink_registry(monkeypatch, names=None):
    """Clamp quick durations so CLI-level bench runs stay fast."""
    for name in names or list(BENCH_REGISTRY):
        monkeypatch.setitem(
            BENCH_REGISTRY,
            name,
            dataclasses.replace(BENCH_REGISTRY[name], quick_sim_us=TINY_US),
        )


def test_typoed_scenario_as_json_path_warns(tmp_path, monkeypatch, capsys):
    """`bench overlaod64 --json` (typo) is parsed as --json's output
    path; exact matches are errors, near-misses must at least warn."""
    _shrink_registry(monkeypatch, ["overload64"])
    out_path = tmp_path / "overlaod64"
    assert main(["bench", "overload64", "--quick", "--repeats", "1",
                 "--json", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert "looks like scenario" in err and "overload64" in err
    # A clearly path-shaped value stays silent.
    assert main(["bench", "overload64", "--quick", "--repeats", "1",
                 "--json", str(tmp_path / "perf.json")]) == 0
    assert "looks like scenario" not in capsys.readouterr().err


class TestCompareCliGate:
    def _baseline_with_ghost(self, tmp_path):
        results = [run_scenario(BENCH_REGISTRY["overload64"], quick=True,
                                repeats=1)]
        baseline = bench_to_dict(results, quick=True, repeats=1)
        ghost = dict(baseline["scenarios"][0], name="ghost_scenario")
        baseline["scenarios"].append(ghost)
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        return path

    def test_full_compare_fails_on_missing_baseline_scenario(
        self, tmp_path, monkeypatch, capsys
    ):
        """A bare --compare claims full coverage, so a baseline scenario
        the run failed to produce must fail the gate, not pass silently."""
        _shrink_registry(monkeypatch)
        path = self._baseline_with_ghost(tmp_path)
        code = main(["bench", "--quick", "--repeats", "1",
                     "--compare", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISSING" in out
        assert "ghost_scenario" in out

    def test_subset_compare_ignores_unrequested_baseline_scenarios(
        self, tmp_path, monkeypatch, capsys
    ):
        """`bench overload64 --compare` is an intentional partial run;
        other baseline scenarios being absent is not a failure."""
        _shrink_registry(monkeypatch, ["overload64"])
        path = self._baseline_with_ghost(tmp_path)
        code = main(["bench", "overload64", "--quick", "--repeats", "1",
                     "--compare", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "MISSING" not in out


def test_quick_json_defaults_away_from_tracked_baseline(
    tmp_path, monkeypatch, capsys
):
    """Bare `--quick --json` must not overwrite BENCH_kernel.json."""
    for name in ("webserver", "webfarm", "overload64",
                 "overload64_controller", "pipeline"):
        monkeypatch.setitem(
            BENCH_REGISTRY,
            name,
            dataclasses.replace(BENCH_REGISTRY[name], quick_sim_us=TINY_US),
        )
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_kernel.json").write_text("tracked baseline")
    assert main(["bench", "--quick", "--repeats", "1", "--json"]) == 0
    assert (tmp_path / "BENCH_kernel.json").read_text() == "tracked baseline"
    artifact = json.loads((tmp_path / "BENCH_kernel.quick.json").read_text())
    assert artifact["quick"] is True


class TestCompareAndHistory:
    def _results(self):
        return [run_scenario(BENCH_REGISTRY["overload64"], quick=True,
                             repeats=1)]

    def test_compare_detects_regression_and_pass(self, tmp_path):
        from repro.bench import (
            compare_to_baseline,
            format_compare_table,
            load_bench_artifact,
        )

        results = self._results()
        fresh = results[0].sim_us_per_wall_s
        baseline = bench_to_dict(results, quick=True, repeats=1)
        # Identical numbers: never a regression.
        comparisons = compare_to_baseline(results, baseline, threshold=0.25)
        (c,) = comparisons
        assert c.ratio == pytest.approx(1.0)
        assert not c.regressed
        # Inflate the baseline so the fresh run looks 10x slower.
        baseline["scenarios"][0]["sim_us_per_wall_s"] = fresh * 10
        (c,) = compare_to_baseline(results, baseline, threshold=0.25)
        assert c.regressed
        table = format_compare_table([c])
        assert "REGRESSED" in table
        # Round-trip through a file, as the CLI does.
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        loaded = load_bench_artifact(str(path))
        (c,) = compare_to_baseline(results, loaded, threshold=0.25)
        assert c.regressed

    def test_compare_without_matching_scenario_is_informational(self):
        """Fresh-but-not-in-baseline stays informational; the reverse
        direction (baseline-but-not-fresh) is a MISSING row."""
        from repro.bench import compare_to_baseline, format_compare_table

        results = self._results()
        baseline = bench_to_dict(results, quick=True, repeats=1)
        baseline["scenarios"][0]["name"] = "something_else"
        fresh_only, ghost = compare_to_baseline(results, baseline)
        assert fresh_only.name == results[0].name
        assert fresh_only.ratio is None
        assert not fresh_only.regressed
        assert not fresh_only.missing
        assert ghost.name == "something_else"
        assert ghost.missing
        assert ghost.ratio is None
        assert not ghost.regressed
        assert "MISSING" in format_compare_table([ghost])

    def test_compare_reports_baseline_scenarios_missing_from_fresh(self):
        """Regression test: a baseline scenario absent from the fresh
        results used to be silently dropped, so a scenario crashing out
        of the suite read as 'no regressions'."""
        from repro.bench import compare_to_baseline

        results = self._results()
        baseline = bench_to_dict(results, quick=True, repeats=1)
        ghost = dict(baseline["scenarios"][0], name="ghost_scenario")
        baseline["scenarios"].append(ghost)
        comparisons = compare_to_baseline(results, baseline)
        assert [c.name for c in comparisons] == [results[0].name,
                                                 "ghost_scenario"]
        assert comparisons[1].missing
        # An explicit expected subset suppresses unrelated ghosts …
        comparisons = compare_to_baseline(
            results, baseline, expected=[results[0].name]
        )
        assert [c.name for c in comparisons] == [results[0].name]
        # … but still flags an expected scenario that went missing.
        comparisons = compare_to_baseline(
            results, baseline, expected=[results[0].name, "ghost_scenario"]
        )
        assert comparisons[-1].name == "ghost_scenario"
        assert comparisons[-1].missing

    def test_compare_rejects_bad_baselines(self, tmp_path):
        from repro.bench import compare_to_baseline, load_bench_artifact

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchError, match="not valid JSON"):
            load_bench_artifact(str(bad))
        with pytest.raises(BenchError, match="cannot read"):
            load_bench_artifact(str(tmp_path / "missing.json"))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"kind": "experiment"}))
        with pytest.raises(BenchError, match="not a bench artifact"):
            load_bench_artifact(str(wrong))
        results = self._results()
        baseline = bench_to_dict(results, quick=True, repeats=1)
        with pytest.raises(BenchError, match="threshold"):
            compare_to_baseline(results, baseline, threshold=1.5)

    def test_history_line_and_append(self, tmp_path):
        from repro.bench import append_history, history_line

        results = self._results()
        record = history_line(results, quick=False, repeats=1)
        assert record["kind"] == "bench_history"
        assert "overload64" in record["scenarios"]
        assert record["scenarios"]["overload64"] > 0
        assert set(record) == {
            "schema_version", "kind", "git_sha", "timestamp",
            "repro_version", "python", "quick", "repeats", "scenarios",
        }
        assert record["git_sha"]
        path = tmp_path / "BENCH_history.jsonl"
        append_history(results, str(path), quick=False, repeats=1)
        append_history(results, str(path), quick=False, repeats=1)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            parsed = json.loads(line)
            assert parsed["kind"] == "bench_history"


class TestCompareCli:
    def _shrink(self, monkeypatch, name="overload64"):
        scenario = BENCH_REGISTRY[name]
        monkeypatch.setitem(
            BENCH_REGISTRY,
            name,
            dataclasses.replace(scenario, quick_sim_us=TINY_US),
        )

    def test_cli_compare_pass_and_fail(self, tmp_path, monkeypatch, capsys):
        self._shrink(monkeypatch)
        # Build a baseline artifact from a real quick run.
        results = [run_scenario(BENCH_REGISTRY["overload64"], quick=True,
                                repeats=1)]
        baseline = bench_to_dict(results, quick=True, repeats=1)
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(baseline))
        code = main(["bench", "overload64", "--quick", "--repeats", "1",
                     "--compare", str(base_path), "--threshold", "0.99"])
        assert code == 0
        assert "ok" in capsys.readouterr().out
        # An impossibly fast baseline forces the regression exit.
        baseline["scenarios"][0]["sim_us_per_wall_s"] = 1e15
        base_path.write_text(json.dumps(baseline))
        code = main(["bench", "overload64", "--quick", "--repeats", "1",
                     "--compare", str(base_path), "--threshold", "0.25"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "perf regression" in out

    def test_cli_nonquick_appends_history(self, tmp_path, monkeypatch, capsys):
        scenario = BENCH_REGISTRY["overload64"]
        monkeypatch.setitem(
            BENCH_REGISTRY,
            "overload64",
            dataclasses.replace(scenario, sim_us=TINY_US),
        )
        history = tmp_path / "hist.jsonl"
        code = main(["bench", "overload64", "--repeats", "1",
                     "--history", str(history)])
        assert code == 0
        (line,) = history.read_text().splitlines()
        assert json.loads(line)["scenarios"]["overload64"] > 0
        # --no-history suppresses the append.
        code = main(["bench", "overload64", "--repeats", "1",
                     "--history", str(history), "--no-history"])
        assert code == 0
        assert len(history.read_text().splitlines()) == 1

    def test_compare_flag_swallowing_scenario_name_is_caught(self, capsys):
        assert main(["bench", "--compare", "overload64"]) == 2
        err = capsys.readouterr().err
        assert "overload64" in err and "--compare" in err
