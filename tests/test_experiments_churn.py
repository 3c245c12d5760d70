"""The churn scenarios: registration, replay, shapes.

The acceptance bar for the open-system scenarios is that each produces
**bit-identical dispatch-log fingerprints** when rerun with the same
parameters — every scenario stamps its fingerprint into
``metadata["dispatch_fingerprint"]`` exactly so this suite can diff two
runs end-to-end through the registry.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import BENCH_REGISTRY, run_scenario
from repro.cli import main
from repro.experiments.churn import DEFAULT_TRACE
from repro.experiments.registry import REGISTRY

CHURN_SCENARIOS = (
    "churn_webfarm",
    "tidal_pipeline",
    "thundering_herd",
    "flash_crowd_rt",
    "trace_replay",
    "response_curve",
    "slo_flash_crowd",
)


class TestRegistration:
    def test_all_churn_scenarios_registered(self):
        for name in CHURN_SCENARIOS:
            spec = REGISTRY.get(name)
            assert "churn" in spec.tags
            assert spec.param("seed").kind == "int"

    def test_quick_overrides_shrink_duration(self):
        for name in CHURN_SCENARIOS:
            spec = REGISTRY.get(name)
            quick = spec.resolve(quick=True)
            full = spec.resolve()
            assert quick["duration_s"] < full["duration_s"], name


class TestReplay:
    @pytest.mark.parametrize("name", CHURN_SCENARIOS)
    def test_bit_identical_fingerprints(self, name):
        """Two quick-mode runs with the same parameters agree on everything."""
        first = REGISTRY.run(name, quick=True)
        second = REGISTRY.run(name, quick=True)
        assert (
            first.metadata["dispatch_fingerprint"]
            == second.metadata["dispatch_fingerprint"]
        ), f"{name}: dispatch logs diverged between reruns"
        # The scalar metrics are all derived from the same deterministic
        # run, so they must agree exactly too.
        assert first.metrics == second.metrics


class TestScenarioShapes:
    def test_churn_webfarm_serves_while_churning(self):
        result = REGISTRY.run("churn_webfarm", quick=True)
        assert result.metrics["jobs_spawned"] > 0
        assert result.metrics["jobs_completed"] > 0
        assert result.metrics["served_rps"] > 0
        assert "live_jobs" in result.series

    def test_tidal_pipeline_throughput(self):
        result = REGISTRY.run("tidal_pipeline", quick=True)
        assert result.metrics["jobs_completed"] > 0
        assert result.metrics["throughput_jps"] > 0

    def test_thundering_herd_spawns_in_waves(self):
        result = REGISTRY.run("thundering_herd", quick=True)
        expected = result.metrics["herd_size"] * result.metrics["n_waves"]
        assert result.metrics["jobs_spawned"] == expected
        assert result.metrics["peak_live_jobs"] > 0

    def test_flash_crowd_rejects_and_recovers(self):
        result = REGISTRY.run("flash_crowd_rt", quick=True)
        assert result.metrics["jobs_rejected"] > 0, (
            "the flash must overwhelm admission"
        )
        assert result.metrics["jobs_completed"] > 0
        assert 0 < result.metrics["admit_ratio"] < 1
        assert result.metrics["peak_reserved_ppt"] > 0

    def test_trace_replay_builtin_and_file(self, tmp_path):
        builtin = REGISTRY.run("trace_replay", quick=True)
        assert builtin.metadata["trace_file"] == "<built-in>"
        assert builtin.metrics["jobs_spawned"] > 0
        path = tmp_path / "tiny.trace"
        path.write_text("0 web\n10000 batch\n20000 web\n")
        custom = REGISTRY.run(
            "trace_replay", {"trace_file": str(path)}, quick=True
        )
        assert custom.metrics["trace_arrivals"] == 3
        assert custom.metrics["jobs_spawned"] == 3

    def test_churn_results_carry_sojourn_percentiles(self):
        result = REGISTRY.run("flash_crowd_rt", quick=True)
        records = result.metadata["job_records"]
        assert records, "the flash crowd must leave completion records"
        outcomes = {record["outcome"] for record in records}
        assert outcomes <= {"completed", "killed", "rejected"}
        percentiles = result.metadata["sojourn_percentiles"]
        assert "all" in percentiles and "rt" in percentiles
        overall = percentiles["all"]
        assert overall["p50_us"] <= overall["p95_us"] <= overall["p99_us"]
        assert overall["p99_us"] <= overall["p999_us"] <= overall["max_us"]
        # Headline percentiles are mirrored into the metrics table.
        assert result.metrics["sojourn_p99_ms"] == overall["p99_us"] / 1_000.0

    def test_response_curve_latency_rises_with_load(self):
        result = REGISTRY.run("response_curve", quick=True)
        points = result.metadata["response_curve"]
        assert len(points) == 3
        rates = [point["offered_per_s"] for point in points]
        assert rates == sorted(rates)
        p99s = [point["p99_us"] for point in points]
        assert all(value is not None for value in p99s)
        assert p99s[-1] > p99s[0], "tail latency must rise toward saturation"
        assert "knee_offered_per_s" in result.metrics
        assert "p99_sojourn_ms" in result.series

    def test_slo_flash_crowd_compares_both_controllers(self):
        result = REGISTRY.run("slo_flash_crowd", quick=True)
        controllers = result.metadata["controllers"]
        assert set(controllers) == {"pid", "slo"}
        for name in ("pid", "slo"):
            assert result.metrics[f"{name}_completed"] > 0
            assert controllers[name]["dispatch_fingerprint"]
        # The SLO loop must actually have actuated under the flash.
        assert controllers["slo"]["slo_adjustments"] > 0
        assert controllers["slo"]["final_job_ppt"] != controllers["pid"][
            "final_job_ppt"
        ]

    def test_slo_pid_pass_is_flash_crowd_rt_verbatim(self):
        """Same seed, same params: the slo experiment's pid pass must
        replay flash_crowd_rt's exact dispatch log."""
        slo = REGISTRY.run("slo_flash_crowd", quick=True)
        flash = REGISTRY.run("flash_crowd_rt", quick=True)
        assert (
            slo.metadata["controllers"]["pid"]["dispatch_fingerprint"]
            == flash.metadata["dispatch_fingerprint"]
        )

    def test_default_trace_is_parseable_and_sorted(self):
        offsets = [
            int(line.split()[0])
            for line in DEFAULT_TRACE.splitlines()
            if line and not line.startswith("#")
        ]
        assert offsets == sorted(offsets)
        assert len(offsets) == 60


class TestCli:
    def test_run_churn_scenario_via_cli(self, capsys):
        code = main(
            ["run", "flash_crowd_rt", "--quick", "--param", "seed=5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs_rejected" in out

    def test_cli_json_artifact_round_trips(self, tmp_path, capsys):
        path = tmp_path / "churn.json"
        code = main(
            ["run", "thundering_herd", "--quick", "--json", str(path)]
        )
        assert code == 0
        artifact = json.loads(path.read_text())
        assert artifact["experiment_id"] == "thundering_herd"
        assert "seed" in artifact["metadata"]["params"]
        assert "dispatch_fingerprint" in artifact["metadata"]


class TestChurnBench:
    def test_churn1k_registered(self):
        scenario = BENCH_REGISTRY["churn1k"]
        assert "churn" in scenario.tags

    def test_churn1k_quick_run_counts_lifetimes(self):
        result = run_scenario(BENCH_REGISTRY["churn1k"], quick=True, repeats=1)
        assert result.threads_completed > 50
        assert result.n_threads >= result.threads_completed
        assert result.to_dict()["threads_completed"] == result.threads_completed

    def test_full_churn1k_exceeds_1000_lifetimes_by_construction(self):
        """The full-size scenario must stay above the 1000-lifetime bar.

        Running the full 2-second simulation here would be slow, so the
        bar is checked by arithmetic on the registered configuration:
        the deterministic stream alone contributes sim_us/4000 arrivals
        and the Poisson stream ~450/s, with per-job demand well under
        capacity (measured headroom in BENCH_kernel.json's
        threads_completed).
        """
        scenario = BENCH_REGISTRY["churn1k"]
        deterministic_jobs = scenario.sim_us // 4_000
        poisson_jobs = 450 * scenario.sim_us // 1_000_000
        assert deterministic_jobs + poisson_jobs > 1_200
