"""The ``repro lint`` checker framework.

The simulator rests on contracts that ordinary linters cannot see: hot
paths must stay deterministic (no wall-clock reads, no unseeded
randomness, no set-order-dependent iteration), controller arithmetic
must preserve exact float evaluation order, wire formats must version
their schema, and every registered experiment must expose the
reproducibility knobs (``seed`` and the dispatch fingerprint).  This
package is the static analogue of the dynamic differential suites: an
AST pass that proves (or flags) those contracts at review time instead
of via 200-example hypothesis hunts.

Architecture
------------
* :class:`ModuleSource` — one parsed file: path, source, AST, the
  per-line ``# repro-lint: disable=...`` suppressions and header
  annotations (``# float-order: exact``).
* :class:`Project` — every module under the scan roots, so checkers
  can resolve cross-module structure (experiment parameter aliases).
* :class:`Checker` — a named pass producing :class:`Finding`\\ s; the
  framework applies suppressions and the committed baseline, and the
  CLI (``python -m repro lint``) renders text or ``--json``.

Suppressions are deliberately expensive: every ``disable`` must carry
a justification after ``--`` (enforced by the always-on
``suppression`` meta-check), and suppressions that match nothing are
themselves findings, so dead waivers cannot accumulate.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: Wire format of ``repro lint --json`` output.
LINT_SCHEMA_VERSION = 1

#: The suppression comment grammar::
#:
#:     # repro-lint: disable=<check>[,<check>...] -- <justification>
#:
#: A suppression covers its own line, or — when the comment stands
#: alone on a line — the next line.  The justification is mandatory.
SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<checks>[\w\-,]+)"
    r"(?:\s+--\s*(?P<why>.*\S))?"
)

#: Module header annotation marking exact-float-order modules.
FLOAT_ORDER_RE = re.compile(r"#\s*float-order:\s*exact\b")

#: Name of the always-on meta check guarding the suppressions
#: themselves (bad or unused suppressions cannot be suppressed).
SUPPRESSION_CHECK = "suppression"


@dataclass(frozen=True)
class Finding:
    """One contract violation at one source location."""

    check: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def sort_key(self) -> tuple[str, int, str, str]:
        return (self.path, self.line, self.check, self.message)

    def baseline_key(self) -> str:
        """Stable identity for baseline matching.

        Deliberately excludes the line number so grandfathered findings
        survive unrelated edits above them; includes the symbol and
        message so a *new* violation of the same check in the same file
        is never absorbed by an old waiver.
        """
        text = f"{self.check}|{self.path}|{self.symbol}|{self.message}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.check}{symbol}: {self.message}"

    # repro-lint: disable=wire-format -- one-way diagnostic output for --json; findings are never deserialised
    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "key": self.baseline_key(),
        }


@dataclass
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment."""

    line: int
    checks: tuple[str, ...]
    justification: str
    #: Lines this suppression covers (its own, plus the next line when
    #: the comment stands alone).
    covers: tuple[int, ...]
    used: bool = False


class ModuleSource:
    """One parsed source file plus its lint-relevant annotations."""

    def __init__(self, path: Path, rel_path: str, text: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.text = text
        self.lines = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text, filename=str(path))
        except SyntaxError as error:
            self.parse_error = error
        self.suppressions = self._parse_suppressions()
        self.float_order_exact = any(
            FLOAT_ORDER_RE.search(line) for line in self.lines[:30]
        )

    def _parse_suppressions(self) -> list[Suppression]:
        suppressions: list[Suppression] = []
        for index, line in enumerate(self.lines, start=1):
            match = SUPPRESS_RE.search(line)
            if match is None:
                continue
            checks = tuple(
                c.strip() for c in match.group("checks").split(",") if c.strip()
            )
            justification = (match.group("why") or "").strip()
            standalone = line.strip().startswith("#")
            covers = (index, index + 1) if standalone else (index,)
            suppressions.append(
                Suppression(
                    line=index,
                    checks=checks,
                    justification=justification,
                    covers=covers,
                )
            )
        return suppressions

    def suppression_for(self, check: str, line: int) -> Optional[Suppression]:
        """The suppression covering ``check`` at ``line``, if any."""
        for suppression in self.suppressions:
            if line in suppression.covers and check in suppression.checks:
                return suppression
        return None


class Project:
    """Every module under the scan roots, parsed once."""

    def __init__(
        self, roots: Sequence[Path], *, display_root: Optional[Path] = None
    ) -> None:
        self.roots = [Path(root).resolve() for root in roots]
        self.display_root = (
            Path(display_root).resolve() if display_root is not None else None
        )
        self.modules: list[ModuleSource] = []
        for root in self.roots:
            for path in self._python_files(root):
                rel = self._relative(path)
                self.modules.append(
                    ModuleSource(path, rel, path.read_text(encoding="utf-8"))
                )
        self.modules.sort(key=lambda m: m.rel_path)

    def _python_files(self, root: Path) -> Iterable[Path]:
        if root.is_file():
            return [root] if root.suffix == ".py" else []
        return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)

    def _relative(self, path: Path) -> str:
        base = self.display_root
        if base is not None:
            try:
                return path.resolve().relative_to(base).as_posix()
            except ValueError:
                pass
        return path.as_posix()


class Checker:
    """Base class for one lint pass.

    Subclasses set :attr:`name`/:attr:`description` and implement
    :meth:`check`, returning raw findings; the framework owns
    suppression and baseline handling.
    """

    name = "base"
    description = ""

    def check(self, project: Project) -> list[Finding]:
        raise NotImplementedError


@dataclass
class LintResult:
    """Outcome of one lint run, pre-rendered decisions included."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    # repro-lint: disable=wire-format -- one-way diagnostic output for --json; reports are never deserialised
    def to_dict(self) -> dict:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.check] = counts.get(finding.check, 0) + 1
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "checks": list(self.checks_run),
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in sorted(self.findings, key=Finding.sort_key)],
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
            "counts": dict(sorted(counts.items())),
        }


def _suppression_findings(
    project: Project, checks_run: Sequence[str]
) -> list[Finding]:
    """Meta-findings about the suppressions themselves.

    A ``disable`` without a justification is a violation on its own
    (waivers must explain themselves), and one that matched nothing is
    dead weight that would silently mask a future regression at that
    line.  Both are reported under the unsuppressable ``suppression``
    check.  A suppression is only "unused" if every check it names
    actually ran this invocation — a ``--check``-filtered run must not
    flag waivers belonging to the checkers it skipped.
    """
    findings: list[Finding] = []
    ran = set(checks_run)
    for module in project.modules:
        for suppression in module.suppressions:
            if not suppression.justification:
                findings.append(
                    Finding(
                        check=SUPPRESSION_CHECK,
                        path=module.rel_path,
                        line=suppression.line,
                        message=(
                            "suppression lacks a justification; write "
                            "'# repro-lint: disable=<check> -- <why>'"
                        ),
                    )
                )
            elif not suppression.used and set(suppression.checks) <= ran:
                findings.append(
                    Finding(
                        check=SUPPRESSION_CHECK,
                        path=module.rel_path,
                        line=suppression.line,
                        message=(
                            "unused suppression for "
                            f"{', '.join(suppression.checks)}: nothing was "
                            "flagged here; remove it"
                        ),
                    )
                )
    return findings


def run_checks(
    project: Project,
    checkers: Sequence[Checker],
    *,
    baseline_keys: Optional[dict[str, int]] = None,
) -> LintResult:
    """Run ``checkers`` over ``project`` and fold in suppressions/baseline.

    ``baseline_keys`` maps :meth:`Finding.baseline_key` to the number of
    grandfathered occurrences; matching findings are recorded but not
    counted against the run.
    """
    result = LintResult(checks_run=[c.name for c in checkers])
    result.files_scanned = len(project.modules)

    raw: list[Finding] = []
    for module in project.modules:
        if module.parse_error is not None:
            error = module.parse_error
            raw.append(
                Finding(
                    check="parse",
                    path=module.rel_path,
                    line=error.lineno or 1,
                    message=f"syntax error: {error.msg}",
                )
            )
    for checker in checkers:
        raw.extend(checker.check(project))

    modules_by_path = {m.rel_path: m for m in project.modules}
    remaining_baseline = dict(baseline_keys or {})
    for finding in sorted(raw, key=Finding.sort_key):
        module = modules_by_path.get(finding.path)
        if module is not None and finding.check != SUPPRESSION_CHECK:
            suppression = module.suppression_for(finding.check, finding.line)
            if suppression is not None:
                suppression.used = True
                result.suppressed.append(finding)
                continue
        key = finding.baseline_key()
        if remaining_baseline.get(key, 0) > 0:
            remaining_baseline[key] -= 1
            result.baselined.append(finding)
            continue
        result.findings.append(finding)

    # The meta-check runs after suppression matching so "unused" is
    # accurate; its findings are themselves unsuppressable.
    result.findings.extend(_suppression_findings(project, result.checks_run))
    result.findings.sort(key=Finding.sort_key)
    return result


# ----------------------------------------------------------------------
# small shared AST helpers
# ----------------------------------------------------------------------
def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target (``a.b.c(...)`` -> ``"a.b.c"``)."""
    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``Name``/``Attribute`` chains as a dotted string, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


__all__ = [
    "Checker",
    "Finding",
    "LINT_SCHEMA_VERSION",
    "LintResult",
    "ModuleSource",
    "Project",
    "SUPPRESSION_CHECK",
    "Suppression",
    "call_name",
    "dotted_name",
    "run_checks",
]
