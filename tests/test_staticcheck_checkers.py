"""Per-checker behaviour of ``repro lint`` against the fixture corpus.

Every checker is exercised in both directions: the ``*_bad`` fixtures
must produce the expected findings (the mutation-style proof that the
checker catches real violations), and the matching good fixtures must
stay clean (no false positives on the approved idioms).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.staticcheck.atomicwrite import AtomicWriteChecker
from repro.staticcheck.core import Project
from repro.staticcheck.determinism import DeterminismChecker
from repro.staticcheck.experiments import ExperimentRegistryChecker
from repro.staticcheck.floatorder import FloatOrderChecker
from repro.staticcheck.wire import WireFormatChecker, build_snapshot

FIXTURES = Path(__file__).parent / "staticcheck_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def fixture_project(*names: str) -> Project:
    return Project([FIXTURES / name for name in names], display_root=REPO_ROOT)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_checker_flags_the_four_violation_classes():
    findings = DeterminismChecker().check(fixture_project("determinism_bad.py"))
    messages = "\n".join(f.message for f in findings)
    assert "time.time()" in messages
    assert "random.uniform()" in messages
    assert "random.Random() without a seed" in messages
    assert "iterates a set in hash order" in messages
    assert "id() in a sort key" in messages


def test_determinism_checker_accepts_sorted_wrapping():
    findings = DeterminismChecker().check(fixture_project("determinism_bad.py"))
    # ordered() wraps the set in sorted() and must not be flagged
    assert not any(f.symbol == "NoisyComponent.ordered" for f in findings)


# ----------------------------------------------------------------------
# float-order
# ----------------------------------------------------------------------
def test_float_order_checker_flags_annotated_module():
    findings = FloatOrderChecker().check(fixture_project("floatorder_bad.py"))
    messages = "\n".join(f.message for f in findings)
    assert "sum()" in messages
    assert "math.fsum()" in messages
    assert "reassociated accumulation" in messages
    assert len(findings) == 3


def test_float_order_checker_ignores_unannotated_module():
    findings = FloatOrderChecker().check(fixture_project("floatorder_clean.py"))
    assert findings == []


# ----------------------------------------------------------------------
# wire-format
# ----------------------------------------------------------------------
def test_wire_checker_requires_from_dict(tmp_path):
    checker = WireFormatChecker(tmp_path / "no_snapshot.json")
    findings = checker.check(fixture_project("wire_bad.py"))
    assert any("no matching from_dict" in f.message for f in findings)


def test_wire_checker_requires_version_const(tmp_path):
    checker = WireFormatChecker(tmp_path / "no_snapshot.json")
    findings = checker.check(fixture_project("wire_unversioned.py"))
    assert any("*_SCHEMA_VERSION" in f.message for f in findings)


def test_wire_checker_detects_field_drift_without_version_bump(tmp_path):
    source = (FIXTURES / "wire_bad.py").read_text(encoding="utf-8")
    module = tmp_path / "record.py"
    module.write_text(source)
    snapshot_path = tmp_path / "snapshot.json"
    snapshot_path.write_text(
        json.dumps(build_snapshot(Project([module]))), encoding="utf-8"
    )
    checker = WireFormatChecker(snapshot_path)

    # unchanged: the only finding is the missing from_dict
    findings = checker.check(Project([module]))
    assert not any("fields changed" in f.message for f in findings)

    # grow the payload without bumping the version -> drift finding
    module.write_text(
        source.replace('"value": self.value', '"value": self.value, "extra": 1')
    )
    findings = checker.check(Project([module]))
    drift = [f for f in findings if "fields changed" in f.message]
    assert len(drift) == 1
    assert "added extra" in drift[0].message
    assert "RECORD_SCHEMA_VERSION" in drift[0].message

    # bump the version too -> becomes a "refresh the snapshot" reminder
    module.write_text(
        source.replace('"value": self.value', '"value": self.value, "extra": 1')
        .replace("RECORD_SCHEMA_VERSION = 1", "RECORD_SCHEMA_VERSION = 2")
    )
    findings = checker.check(Project([module]))
    assert not any("fields changed" in f.message for f in findings)
    assert any("drifted from the committed wire snapshot" in f.message
               for f in findings)


def test_shipped_wire_snapshot_matches_tree():
    """The committed wire_snapshot.json must equal what the tree builds
    — otherwise someone changed a to_dict without refreshing it."""
    from repro.staticcheck.cli import PACKAGE_ROOT
    from repro.staticcheck.wire import DEFAULT_SNAPSHOT_PATH, load_snapshot

    project = Project([PACKAGE_ROOT], display_root=REPO_ROOT)
    assert build_snapshot(project) == load_snapshot(DEFAULT_SNAPSHOT_PATH)


# ----------------------------------------------------------------------
# atomic-write
# ----------------------------------------------------------------------
def test_atomic_write_checker_flags_every_raw_write_shape():
    findings = AtomicWriteChecker().check(fixture_project("atomicwrite_bad.py"))
    by_symbol = {f.symbol for f in findings}
    assert by_symbol == {
        "truncating_write",
        "keyword_mode_write",
        "exclusive_write",
        "update_write",
        "fd_write",
        "io_write",
        "pathlib_write",
    }
    messages = "\n".join(f.message for f in findings)
    assert "write_atomic" in messages
    assert "append_durable" in messages


def test_atomic_write_checker_accepts_reads_and_the_helpers():
    findings = AtomicWriteChecker().check(
        fixture_project("atomicwrite_clean.py")
    )
    assert findings == []


def test_atomic_write_checker_exempts_the_helper_module():
    """core/artifacts.py is the single intentional home of raw
    write-mode open(); the checker must not flag its own escape hatch."""
    artifacts = REPO_ROOT / "src" / "repro" / "core" / "artifacts.py"
    findings = AtomicWriteChecker().check(
        Project([artifacts], display_root=REPO_ROOT)
    )
    assert findings == []


def test_atomic_write_shipped_tree_is_clean_or_suppressed():
    """Every raw write left in the tree carries a justified suppression
    (suppressions are applied by run_checks, so raw findings here must
    each be covered by one)."""
    from repro.staticcheck.cli import PACKAGE_ROOT

    project = Project([PACKAGE_ROOT], display_root=REPO_ROOT)
    modules = {m.rel_path: m for m in project.modules}
    for finding in AtomicWriteChecker().check(project):
        module = modules[finding.path]
        suppression = module.suppression_for(finding.check, finding.line)
        assert suppression is not None, finding.render()
        assert suppression.justification, finding.render()


# ----------------------------------------------------------------------
# experiment-registry
# ----------------------------------------------------------------------
def test_experiment_checker_flags_missing_knobs_and_fingerprint():
    findings = ExperimentRegistryChecker().check(
        fixture_project("experiments_bad.py")
    )
    messages = "\n".join(f.message for f in findings)
    assert "'seed' param" in messages
    assert "dispatch_fingerprint" in messages
    assert len(findings) == 2


def test_experiment_checker_resolves_shared_params_on_real_tree():
    """Every registered experiment in the shipped tree conforms — the
    shared SEED_PARAM declaration must resolve across modules."""
    from repro.staticcheck.cli import PACKAGE_ROOT

    project = Project([PACKAGE_ROOT], display_root=REPO_ROOT)
    findings = ExperimentRegistryChecker().check(project)
    assert findings == []
