"""The ``python -m repro lint`` entry point.

Exit codes: 0 clean, 1 findings, 2 usage/internal error — so the CI
gate is a bare invocation.  ``--json`` emits the machine-readable
report (schema :data:`repro.staticcheck.core.LINT_SCHEMA_VERSION`);
``--write-baseline`` and ``--update-wire-snapshot`` refresh the two
committed ledgers and are meant to be run deliberately, with the diff
reviewed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.staticcheck.atomicwrite import AtomicWriteChecker
from repro.staticcheck.baseline import (
    DEFAULT_BASELINE_PATH,
    load_baseline,
    write_baseline,
)
from repro.staticcheck.core import Checker, Project, run_checks
from repro.staticcheck.determinism import DeterminismChecker
from repro.staticcheck.experiments import ExperimentRegistryChecker
from repro.staticcheck.floatorder import FloatOrderChecker
from repro.staticcheck.wire import (
    DEFAULT_SNAPSHOT_PATH,
    WireFormatChecker,
    build_snapshot,
)

#: The default scan root: the installed ``repro`` package itself.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def all_checkers(snapshot_path: Optional[Path] = None) -> list[Checker]:
    return [
        DeterminismChecker(),
        FloatOrderChecker(),
        WireFormatChecker(snapshot_path),
        ExperimentRegistryChecker(),
        AtomicWriteChecker(),
    ]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=(
            "files or directories to scan (default: the repro package "
            "source tree)"
        ),
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the JSON report (to PATH, or stdout when bare)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE_PATH.name} beside the checkers)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the committed baseline (report grandfathered findings too)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather every current finding",
    )
    parser.add_argument(
        "--update-wire-snapshot",
        action="store_true",
        help="rewrite wire_snapshot.json from the current to_dict shapes",
    )
    parser.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this checker (repeatable)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list available checkers and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    checkers = all_checkers()
    if args.list_checks:
        for checker in checkers:
            print(f"{checker.name:22s} {checker.description}")
        return 0
    if args.check:
        by_name = {c.name: c for c in checkers}
        unknown = [name for name in args.check if name not in by_name]
        if unknown:
            print(
                f"repro lint: unknown check(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(by_name))})",
                file=sys.stderr,
            )
            return 2
        checkers = [by_name[name] for name in args.check]

    roots = list(args.paths) or [PACKAGE_ROOT]
    missing = [str(r) for r in roots if not Path(r).exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    # Display paths relative to the tree that contains src/repro, so
    # baseline keys are stable regardless of the invocation cwd.
    display_root = PACKAGE_ROOT.parent.parent
    project = Project(roots, display_root=display_root)

    if args.update_wire_snapshot:
        payload = build_snapshot(project)
        # repro-lint: disable=atomic-write -- committed ledger rewritten deliberately under version control; a torn write shows up as a git diff, not silent damage
        DEFAULT_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(
            f"wrote {DEFAULT_SNAPSHOT_PATH} "
            f"({len(payload['classes'])} wire classes)"
        )

    baseline_path = args.baseline or DEFAULT_BASELINE_PATH
    baseline_keys = None if args.no_baseline else load_baseline(baseline_path)

    result = run_checks(project, checkers, baseline_keys=baseline_keys)

    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(f"wrote {baseline_path} ({len(result.findings)} findings baselined)")
        return 0

    if args.json is not None:
        report = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(report)
        else:
            # repro-lint: disable=atomic-write -- one-shot diagnostic report for the caller that asked for it; nothing downstream trusts it to be intact
            Path(args.json).write_text(report + "\n", encoding="utf-8")

    if args.json != "-":
        for finding in result.findings:
            print(finding.render())
        tail = (
            f"repro lint: {len(result.findings)} finding(s) in "
            f"{result.files_scanned} files"
        )
        extras = []
        if result.suppressed:
            extras.append(f"{len(result.suppressed)} suppressed")
        if result.baselined:
            extras.append(f"{len(result.baselined)} baselined")
        if extras:
            tail += f" ({', '.join(extras)})"
        print(tail)
    return 1 if result.findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-specific static analysis for the repro tree",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
