"""Tests for the markdown report renderer and the ``report`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import (
    ReportError,
    load_report_artifact,
    render_report,
    render_result_report,
    render_sweep_report,
)
from repro.cli import main
from repro.experiments.registry import REGISTRY


def _artifact(**overrides):
    """A minimal single-result artifact in the wire form."""
    data = {
        "schema_version": 1,
        "repro_version": "0.0-test",
        "experiment_id": "demo",
        "title": "Demo experiment",
        "metrics": {"jobs_completed": 10.0, "admit_ratio": 0.5},
        "paper_values": {},
        "series": {"live": {"times": [0.0, 1.0, 2.0], "values": [1.0, 3.0, 2.0]}},
        "notes": ["a note"],
        "metadata": {
            "seed": 7,
            "dispatch_fingerprint": "abc123",
            "sojourn_percentiles": {
                "all": {
                    "tag": "all", "completed": 10, "killed": 1, "rejected": 2,
                    "mean_us": 1_500.0, "min_us": 1_000, "max_us": 4_000,
                    "p50_us": 1_200, "p95_us": 3_000, "p99_us": 4_000,
                    "p999_us": 4_000,
                },
                "web": {
                    "tag": "web", "completed": 10, "killed": 1, "rejected": 2,
                    "mean_us": 1_500.0, "min_us": 1_000, "max_us": 4_000,
                    "p50_us": 1_200, "p95_us": 3_000, "p99_us": 4_000,
                    "p999_us": 4_000,
                },
            },
        },
    }
    data.update(overrides)
    return data


class TestRenderResult:
    def test_sections_present(self):
        markdown = render_result_report(_artifact())
        assert markdown.startswith("# Demo experiment\n")
        assert "- seed: `7`" in markdown
        assert "- dispatch fingerprint: `abc123`" in markdown
        assert "## Metrics" in markdown
        assert "| jobs_completed | 10 |" in markdown
        assert "## Sojourn percentiles by tag" in markdown
        assert "## Series" in markdown
        assert "## Notes" in markdown

    def test_percentile_table_renders_ms_and_order(self):
        markdown = render_result_report(_artifact())
        lines = markdown.splitlines()
        table = [l for l in lines if l.startswith("| all") or l.startswith("| web")]
        # Aggregate row first, then tags sorted.
        assert table[0].startswith("| all |")
        assert table[1].startswith("| web |")
        # 1200 us renders as 1.2 ms.
        assert "| 1.2 |" in table[0]

    def test_none_latencies_render_as_dash(self):
        artifact = _artifact()
        empty = {
            "tag": "dead", "completed": 0, "killed": 0, "rejected": 5,
            "mean_us": None, "min_us": None, "max_us": None,
            "p50_us": None, "p95_us": None, "p99_us": None, "p999_us": None,
        }
        artifact["metadata"]["sojourn_percentiles"]["dead"] = empty
        markdown = render_result_report(artifact)
        assert "| dead | 0 | 0 | 5 | — | — | — | — | — |" in markdown

    def test_response_curve_section(self):
        point = {
            "offered_per_s": 50.0, "tag": "w", "completed": 9, "killed": 0,
            "rejected": 0, "mean_us": 2_000.0, "min_us": 1_000,
            "max_us": 9_000, "p50_us": 2_000, "p95_us": 8_000,
            "p99_us": 9_000, "p999_us": 9_000,
        }
        points = [
            dict(point, offered_per_s=r, p99_us=p)
            for r, p in ((25.0, 3_000), (50.0, 4_000), (100.0, 20_000))
        ]
        artifact = _artifact()
        artifact["metadata"]["response_curve"] = points
        markdown = render_result_report(artifact)
        assert "## Response curve" in markdown
        assert "Knee of the p99 curve" in markdown
        assert "p99 vs load" in markdown

    def test_controllers_section(self):
        artifact = _artifact()
        artifact["metadata"]["controllers"] = {
            "pid": {
                "completed": 41, "rejected": 13, "admit_ratio": 0.76,
                "deadline_misses": 4, "final_job_ppt": 80,
                "dispatch_fingerprint": "fp-pid",
                "stats": {"mean_us": 41_000.0, "p99_us": 41_700},
            },
            "slo": {
                "completed": 43, "rejected": 12, "admit_ratio": 0.78,
                "deadline_misses": 0, "final_job_ppt": 160,
                "slo_adjustments": 8, "slo_violation_ticks": 8,
                "dispatch_fingerprint": "fp-slo",
                "stats": {"mean_us": 25_000.0, "p99_us": 40_800},
            },
        }
        markdown = render_result_report(artifact)
        assert "## Controller comparison" in markdown
        assert "| measure | pid | slo |" in markdown
        assert "| final per-job ppt | 80 | 160 |" in markdown
        # The pid pass has no SLO counters: the cell renders absent.
        assert "| SLO adjustments | — | 8 |" in markdown
        assert "`fp-pid`" in markdown and "`fp-slo`" in markdown

    def test_rendering_is_deterministic(self):
        artifact = _artifact()
        assert render_result_report(artifact) == render_result_report(
            json.loads(json.dumps(artifact, sort_keys=True))
        )

    def test_rejects_non_result_payload(self):
        with pytest.raises(ReportError, match="experiment_id"):
            render_result_report({"hello": "world"})


class TestRenderSweep:
    def test_sweep_renders_every_point(self):
        sweep = {
            "schema_version": 1,
            "kind": "sweep",
            "experiment": "demo",
            "grid": {"n_cpus": [1, 2]},
            "points": [
                {"params": {"n_cpus": 1}, "result": _artifact()},
                {"params": {"n_cpus": 2}, "result": _artifact()},
            ],
        }
        markdown = render_sweep_report(sweep)
        assert markdown.startswith("# Sweep: demo\n")
        assert markdown.count("## Point: n_cpus=") == 2
        # Point bodies have their headings demoted below the point's.
        assert "\n## Metrics" not in markdown
        assert "### Metrics" in markdown
        # render_report dispatches on the artifact kind.
        assert render_report(sweep) == markdown

    def test_render_report_dispatch(self):
        assert render_report(_artifact()).startswith("# Demo")
        with pytest.raises(ReportError, match="JSON object"):
            render_report(["not", "a", "mapping"])


class TestLoadArtifact:
    def test_load_errors_are_reporterrors(self, tmp_path):
        with pytest.raises(ReportError, match="cannot read"):
            load_report_artifact(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ReportError, match="not valid JSON"):
            load_report_artifact(str(bad))
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(ReportError, match="JSON object"):
            load_report_artifact(str(array))


class TestReportCli:
    def test_report_stdout_and_file(self, tmp_path, capsys):
        artifact_path = tmp_path / "demo.json"
        artifact_path.write_text(json.dumps(_artifact()))
        assert main(["report", str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Demo experiment")
        out_path = tmp_path / "demo.md"
        assert main(["report", str(artifact_path), "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("# Demo experiment")

    def test_report_bad_artifact_is_cli_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_then_report_round_trip(self, tmp_path, capsys):
        """The full pipeline: run --json, then report over the file."""
        path = tmp_path / "flash.json"
        assert main(["run", "flash_crowd_rt", "--quick",
                     "--json", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        markdown = capsys.readouterr().out
        assert "## Sojourn percentiles by tag" in markdown
        assert "| all |" in markdown and "| rt |" in markdown
        assert "dispatch fingerprint" in markdown

    def test_report_is_seed_deterministic(self, tmp_path, capsys):
        """Same seed, two runs: byte-identical reports."""
        renders = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["run", "slo_flash_crowd", "--quick",
                         "--json", str(path)]) == 0
            capsys.readouterr()
            assert main(["report", str(path)]) == 0
            renders.append(capsys.readouterr().out)
        assert renders[0] == renders[1]
        assert "## Controller comparison" in renders[0]
