"""The ``python -m repro lint`` surface: exit codes, flags, integration.

The acceptance gates live here: the shipped tree lints clean (exit 0),
every seeded fixture violation fails the gate (exit 1), and usage
errors exit 2 so CI can distinguish "dirty tree" from "broken
invocation".
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.staticcheck.cli import main as lint_main

FIXTURES = Path(__file__).parent / "staticcheck_fixtures"

BAD_FIXTURES = (
    "determinism_bad.py",
    "floatorder_bad.py",
    "wire_bad.py",
    "wire_unversioned.py",
    "experiments_bad.py",
    "suppress_mixed.py",
)


def test_shipped_tree_lints_clean():
    assert lint_main([]) == 0


def test_lint_subcommand_wired_into_repro_cli():
    assert repro_main(["lint"]) == 0


@pytest.mark.parametrize("fixture", BAD_FIXTURES)
def test_each_seeded_violation_fails_the_gate(fixture):
    assert lint_main([str(FIXTURES / fixture), "--no-baseline"]) == 1


def test_unknown_check_is_usage_error(capsys):
    assert lint_main(["--check", "no-such-check"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    assert lint_main(["/no/such/tree"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_checks_names_all_five(capsys):
    assert lint_main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for name in (
        "determinism",
        "float-order",
        "wire-format",
        "experiment-registry",
        "atomic-write",
    ):
        assert name in out


def test_check_filter_runs_only_named_checker():
    # floatorder_bad trips float-order but not determinism
    target = str(FIXTURES / "floatorder_bad.py")
    assert lint_main([target, "--no-baseline", "--check", "determinism"]) == 0
    assert lint_main([target, "--no-baseline", "--check", "float-order"]) == 1


def test_json_report_to_stdout(capsys):
    code = lint_main(
        [str(FIXTURES / "determinism_bad.py"), "--no-baseline", "--json"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["counts"]["determinism"] >= 4
    paths = {f["path"] for f in report["findings"]}
    assert paths == {"tests/staticcheck_fixtures/determinism_bad.py"}


def test_json_report_to_file(tmp_path):
    out = tmp_path / "report.json"
    code = lint_main(
        [
            str(FIXTURES / "floatorder_bad.py"),
            "--no-baseline",
            "--json",
            str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["counts"] == {"float-order": 3}


def test_write_baseline_then_clean(tmp_path):
    baseline = tmp_path / "baseline.json"
    target = str(FIXTURES / "determinism_bad.py")
    assert lint_main(
        [target, "--baseline", str(baseline), "--write-baseline"]
    ) == 0
    assert baseline.exists()
    assert lint_main([target, "--baseline", str(baseline)]) == 0
    # the waiver never hides *new* findings: without it the gate fails
    assert lint_main([target, "--no-baseline"]) == 1
