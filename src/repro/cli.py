"""The ``python -m repro`` command line.

One surface over every registered experiment::

    python -m repro list                 # enumerate experiments
    python -m repro describe smp_scaling # schema: params, bounds, quick
    python -m repro run figure6 --quick --json figure6.json
    python -m repro run smp_scaling --cpus 4 --seed 7 --param duration_s=1.5
    python -m repro sweep smp_scaling --param n_cpus=1,2,4 --jobs 3 \
        --json sweep.json

``run`` executes one experiment (``--param k=v`` overrides one
parameter; ``--cpus`` / ``--seed`` are shorthands for the ``n_cpus`` /
``seed`` parameters; ``--quick`` applies the experiment's quick-mode
overrides) and prints the paper-vs-measured summary.  ``sweep``
expands cartesian parameter grids (values comma-separated, ``":"``
separating elements of a list-valued point), fans the points out over
``--jobs`` worker processes and merges everything into a single
schema-versioned JSON artifact.  ``--json -`` writes any artifact to
stdout.

Sweeps are **crash-safe** (see :mod:`repro.orchestration`): every
settled point is journaled to an append-only ``*.partial.jsonl``, so
an interrupted run (Ctrl-C, killed worker, OOM) resumes from where it
stopped and produces an artifact byte-identical to an uninterrupted
one::

    python -m repro sweep figure8 --quick --param seed=0,1,2,3 \
        --jobs 4 --timeout 120 --json f8.json
    # ^C ... then later:
    python -m repro sweep --resume f8.partial.jsonl --json f8.json

Failing points are retried with capped, deterministically jittered
exponential backoff (``--max-retries``, ``--backoff``,
``--backoff-cap``); points that keep failing become explicit FAILED
rows in the artifact and the command exits non-zero.  Interrupted
runs exit 130 and print the resume command.

``report`` renders a result or sweep JSON artifact as a markdown
report — metrics, per-tag exact-rank sojourn percentiles, the
latency-vs-load response curve with its knee, the SLO-vs-PID
controller comparison and sparkline "plots" of every series::

    python -m repro run flash_crowd_rt --quick --json flash.json
    python -m repro report flash.json --out flash.md

``bench`` times the registered macro scenarios (see
:mod:`repro.bench`) with min-of-K repeats and reports simulated
microseconds per wall-clock second; ``--json`` (optionally with a
path; default ``BENCH_kernel.json``, or ``BENCH_kernel.quick.json``
under ``--quick`` so smoke runs never clobber the tracked baseline)
writes the schema-versioned perf artifact::

    python -m repro bench --quick --json
    python -m repro bench overload64 --repeats 5 --json -
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import repro.experiments  # noqa: F401 — importing populates the registry
from repro._version import __version__
from repro.analysis.report import (
    ReportError,
    load_report_artifact,
    render_report,
)
from repro.bench import (
    BENCH_REGISTRY,
    DEFAULT_ARTIFACT,
    DEFAULT_REGRESSION_THRESHOLD,
    HISTORY_FILE,
    QUICK_ARTIFACT,
    BenchError,
    append_history,
    bench_to_json,
    compare_to_baseline,
    format_bench_table,
    format_compare_table,
    load_bench_artifact,
    run_bench,
    run_bench_journaled,
)
from repro.core.artifacts import write_atomic
from repro.experiments.registry import (
    REGISTRY,
    ExperimentSpec,
    ParameterError,
    UnknownExperimentError,
)
from repro.experiments.sweep import sweep_to_json
from repro.orchestration import (
    ChaosError,
    ChaosPlan,
    JournalError,
    OrchestrationError,
    OrchestrationInterrupted,
    RetryPolicy,
    orchestrate_sweep,
)

#: Exit status for an interrupted (but resumable) run: 128 + SIGINT,
#: the conventional shell encoding, and distinct from 1 (findings /
#: failed points) and 2 (usage error).
EXIT_INTERRUPTED = 130


def _parse_param_flags(flags: Sequence[str]) -> dict[str, str]:
    """``["a=1", "b=2,3"]`` → ``{"a": "1", "b": "2,3"}`` (order kept)."""
    overrides: dict[str, str] = {}
    for flag in flags:
        name, sep, value = flag.partition("=")
        if not sep or not name:
            raise ParameterError(
                f"--param expects name=value, got {flag!r}"
            )
        overrides[name] = value
    return overrides


def _apply_shorthands(
    spec: ExperimentSpec,
    overrides: dict[str, str],
    cpus: Optional[int],
    seed: Optional[int],
) -> dict[str, str]:
    """Fold ``--cpus`` / ``--seed`` into the override map."""
    if cpus is not None:
        if "n_cpus" not in {p.name for p in spec.params}:
            raise ParameterError(
                f"experiment {spec.name!r} has no n_cpus parameter; "
                f"--cpus does not apply"
            )
        overrides.setdefault("n_cpus", str(cpus))
    if seed is not None:
        if "seed" not in {p.name for p in spec.params}:
            raise ParameterError(
                f"experiment {spec.name!r} has no seed parameter; "
                f"--seed does not apply"
            )
        overrides.setdefault("seed", str(seed))
    return overrides


def _write_artifact(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        write_atomic(path, text + "\n")
        print(f"wrote {path}")


def _default_journal_path(json_path: Optional[str], experiment: str) -> str:
    """Where the sweep journal lives when --journal is not given.

    Sits next to the artifact it is building (``f8.json`` →
    ``f8.partial.jsonl``); falls back to the experiment name when the
    artifact goes to stdout or nowhere.
    """
    if json_path is not None and json_path != "-":
        stem, ext = os.path.splitext(json_path)
        return (stem if ext else json_path) + ".partial.jsonl"
    return f"{experiment}.partial.jsonl"


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    specs = REGISTRY.specs()
    if args.tag:
        specs = [s for s in specs if args.tag in s.tags]
    if not specs:
        print("no experiments registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    width = max(len(s.name) for s in specs)
    for spec in specs:
        tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"{spec.name.ljust(width)}  {spec.description}{tags}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = REGISTRY.get(args.experiment)
    print(f"{spec.name} — {spec.description}")
    if spec.tags:
        print(f"tags: {', '.join(spec.tags)}")
    doc = (spec.func.__doc__ or "").strip()
    if doc:
        print(f"\n{doc}")
    print("\nparameters:")
    for param in spec.params:
        quick = (
            f"  [quick: {spec.quick[param.name]!r}]"
            if param.name in spec.quick
            else ""
        )
        print(f"  {param.describe()}{quick}")
    if not spec.params:
        print("  (none)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = REGISTRY.get(args.experiment)
    overrides = _apply_shorthands(
        spec, _parse_param_flags(args.param), args.cpus, args.seed
    )
    result = spec.run(overrides, quick=args.quick)
    if args.json != "-":
        print(result.summary())
    if args.json is not None:
        _write_artifact(result.to_json(), args.json)
    return 0


def _print_resume_hint(
    interrupt: OrchestrationInterrupted, command: str, json_flag: Optional[str]
) -> None:
    print(f"interrupted: {interrupt}", file=sys.stderr)
    suffix = f" --json {json_flag}" if json_flag is not None else ""
    print(
        f"resume with: python -m repro {command} --resume "
        f"{interrupt.journal_path}{suffix}",
        file=sys.stderr,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    policy = RetryPolicy(
        max_retries=args.max_retries,
        backoff_base_s=args.backoff,
        backoff_cap_s=args.backoff_cap,
        seed=args.retry_seed,
        timeout_s=args.timeout,
    )
    chaos = None
    if args.chaos is not None:
        chaos = ChaosPlan.parse(
            args.chaos, seed=args.chaos_seed, hang_s=args.chaos_hang
        )

    verbose = args.json != "-"

    def notify(message: str) -> None:
        if verbose:
            print(message, file=sys.stderr)

    if args.resume is not None:
        if args.experiment is not None or args.param:
            raise ParameterError(
                "--resume takes the experiment and grid from the journal "
                "header; drop the positional experiment and --param flags"
            )
        journal_path = args.resume
        name = None
        grid: Optional[dict[str, str]] = None
    else:
        if args.experiment is None:
            raise ParameterError(
                "sweep needs an experiment (or --resume JOURNAL)"
            )
        spec = REGISTRY.get(args.experiment)
        grid = _apply_shorthands(
            spec, _parse_param_flags(args.param), None, args.seed
        )
        if not grid:
            raise ParameterError(
                "sweep needs at least one --param name=v1,v2,... axis"
            )
        name = spec.name
        journal_path = args.journal or _default_journal_path(
            args.json, spec.name
        )

    try:
        report = orchestrate_sweep(
            name,
            grid,
            journal_path=journal_path,
            jobs=args.jobs,
            quick=args.quick,
            resume=args.resume is not None,
            retry_failed=args.retry_failed,
            policy=policy,
            chaos=chaos,
            on_event=notify,
        )
    except OrchestrationInterrupted as interrupt:
        _print_resume_hint(interrupt, "sweep", args.json)
        return EXIT_INTERRUPTED

    artifact = report.artifact
    if verbose:
        points = artifact["points"]
        print(
            f"swept {report.experiment}: {len(points)} point(s) over "
            f"{', '.join(artifact['grid'])} with {args.jobs} job(s)"
            + (f" ({report.resumed} resumed from journal)" if report.resumed
               else "")
        )
        for point in points:
            params = ", ".join(f"{k}={v}" for k, v in point["params"].items())
            if point["result"] is None:
                error = point.get("error") or {}
                print(
                    f"  {params}: FAILED "
                    f"({error.get('kind', '?')}: {error.get('detail', '?')})"
                )
            else:
                n_metrics = len(point["result"]["metrics"])
                print(f"  {params}: {n_metrics} metrics")
    if args.json is not None:
        _write_artifact(sweep_to_json(artifact), args.json)
    if report.failed:
        print(
            f"{len(report.failed)} point(s) FAILED; journal kept at "
            f"{report.journal_path} — retry them with: python -m repro sweep "
            f"--resume {report.journal_path} --retry-failed"
            + (f" --json {args.json}" if args.json is not None else ""),
            file=sys.stderr,
        )
        return 1
    if not args.keep_journal:
        try:
            os.unlink(report.journal_path)
        except OSError:
            pass
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro import golden

    if args.scenario is not None:
        try:
            scenarios = [golden.scenario_spec(args.scenario)]
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        if args.path is not None:
            print(
                "error: --path needs --scenario (each scenario has its own "
                "corpus file)",
                file=sys.stderr,
            )
            return 2
        scenarios = list(golden.GOLDEN_SCENARIOS.values())
    failures = 0
    for spec in scenarios:
        path = args.path if args.path is not None else spec.corpus_path
        if args.regen:
            try:
                corpus = golden.write_corpus(path, spec.name)
            except OSError as error:
                print(
                    f"error: cannot write corpus {path!r}: {error} "
                    f"(run from the repository root, or pass --path)",
                    file=sys.stderr,
                )
                return 2
            print(
                f"regenerated {path}: {len(corpus['entries'])} entries "
                f"({len(golden.GOLDEN_SCHEDULERS)} schedulers x "
                f"{len(golden.GOLDEN_CPU_COUNTS)} CPU counts)"
            )
            continue
        try:
            corpus = golden.load_corpus(path)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: cannot load corpus {path!r}: {error}",
                  file=sys.stderr)
            return 2
        mismatches = golden.verify_corpus(corpus)
        if mismatches:
            failures += len(mismatches)
            for message in mismatches:
                print(f"golden mismatch: {message}", file=sys.stderr)
            print(
                f"{len(mismatches)} golden-trace mismatch(es) vs {path}; "
                f"if the behaviour change is intentional, refresh with "
                f"`python -m repro golden --regen`",
                file=sys.stderr,
            )
        else:
            print(
                f"golden corpus ok: {len(corpus['entries'])} entries conform "
                f"({path})"
            )
    return 1 if failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticcheck.cli import run_lint

    return run_lint(args)


def _cmd_report(args: argparse.Namespace) -> int:
    artifact = load_report_artifact(args.artifact)
    markdown = render_report(artifact)
    if args.out == "-":
        sys.stdout.write(markdown)
    else:
        write_atomic(args.out, markdown)
        print(f"wrote {args.out}")
    return 0


def _warn_if_scenario_like(flag: str, value: Optional[str]) -> None:
    """Warn when a --json/--compare value looks like a typo'd scenario.

    ``bench overlaod64 --json`` (note the typo) parses the misspelled
    name as ``--json``'s output path and would happily benchmark *all*
    scenarios, then clobber a file named after the typo.  Exact matches
    are already hard errors; near-misses get a stderr warning so the
    user can interrupt.
    """
    if value is None or value == "-" or value in BENCH_REGISTRY:
        return
    import difflib
    import os

    stem = os.path.basename(value)
    stem = stem[: -len(".json")] if stem.endswith(".json") else stem
    close = difflib.get_close_matches(stem, BENCH_REGISTRY, n=1, cutoff=0.75)
    if close:
        print(
            f"warning: {flag} value {value!r} looks like scenario "
            f"{close[0]!r}; it is being used as a file path "
            f"(use {flag}=PATH to silence this)",
            file=sys.stderr,
        )


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.list:
        width = max(len(name) for name in BENCH_REGISTRY)
        for scenario in BENCH_REGISTRY.values():
            print(f"{scenario.name.ljust(width)}  {scenario.description}")
        return 0
    if args.json in BENCH_REGISTRY:
        # ``bench --json overload64`` parses the scenario name as the
        # output path (--json takes an optional value); catch the
        # footgun instead of silently benchmarking everything.
        raise BenchError(
            f"--json consumed the scenario name {args.json!r} as its output "
            f"path; put scenario names before --json, or use "
            f"--json=PATH"
        )
    if args.compare in BENCH_REGISTRY:
        # Same footgun for ``bench --compare overload64``.
        raise BenchError(
            f"--compare consumed the scenario name {args.compare!r} as its "
            f"baseline path; put scenario names before --compare, or use "
            f"--compare=PATH"
        )
    _warn_if_scenario_like("--json", args.json)
    _warn_if_scenario_like("--compare", args.compare)
    json_path = args.json
    if args.quick and json_path == DEFAULT_ARTIFACT:
        # ``--quick --json`` (bare, or naming the default path — argparse
        # cannot tell the two apart): quick numbers must not overwrite
        # the tracked full-run baseline, so redirect and say so.
        json_path = QUICK_ARTIFACT
        print(
            f"--quick: writing {QUICK_ARTIFACT} "
            f"(tracked {DEFAULT_ARTIFACT} left untouched)"
        )
    baseline = None
    if args.compare is not None:
        # Load before the (slow) run so a bad path fails fast.
        baseline = load_bench_artifact(args.compare)
    try:
        if args.journal is not None or args.resume is not None:
            journal_path = args.resume or args.journal
            results, resumed = run_bench_journaled(
                args.scenario or None,
                quick=args.quick,
                repeats=args.repeats,
                journal_path=journal_path,
                resume=args.resume is not None,
                on_event=lambda message: print(message, file=sys.stderr),
            )
            try:
                os.unlink(journal_path)
            except OSError:
                pass
        else:
            results = run_bench(
                args.scenario or None, quick=args.quick, repeats=args.repeats
            )
    except OrchestrationInterrupted as interrupt:
        print(f"interrupted: {interrupt}", file=sys.stderr)
        print(
            f"resume with the same bench command plus "
            f"--resume {interrupt.journal_path}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    if json_path != "-":
        print(format_bench_table(results))
    if json_path is not None:
        _write_artifact(
            bench_to_json(results, quick=args.quick, repeats=args.repeats),
            json_path,
        )
    if not args.quick and not args.no_history:
        record = append_history(
            results, args.history, quick=args.quick, repeats=args.repeats
        )
        if json_path != "-":
            print(f"appended run {record['git_sha']} to {args.history}")
    if baseline is not None:
        # When the user named scenarios, only those are expected to be
        # present; a bare ``--compare`` claims full-suite coverage, so
        # any baseline scenario the run failed to produce is a MISSING
        # failure rather than a silent pass.
        comparisons = compare_to_baseline(
            results,
            baseline,
            threshold=args.threshold,
            expected=args.scenario or None,
        )
        print(format_compare_table(comparisons))
        failed = False
        regressed = [c.name for c in comparisons if c.regressed]
        if regressed:
            print(
                f"perf regression (> {args.threshold:.0%} throughput drop) "
                f"vs {args.compare}: {', '.join(regressed)}"
            )
            failed = True
        missing = [c.name for c in comparisons if c.missing]
        if missing:
            print(
                f"baseline scenario(s) missing from this run: "
                f"{', '.join(missing)} (present in {args.compare}; "
                f"refresh the baseline if they were removed on purpose)"
            )
            failed = True
        if failed:
            return 1
    return 0


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper-reproduction experiments.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate registered experiments")
    p_list.add_argument("--tag", help="only experiments carrying this tag")
    p_list.set_defaults(handler=_cmd_list)

    p_desc = sub.add_parser(
        "describe", help="show an experiment's parameter schema"
    )
    p_desc.add_argument("experiment")
    p_desc.set_defaults(handler=_cmd_describe)

    def add_run_flags(p: argparse.ArgumentParser, *, sweep: bool) -> None:
        if sweep:
            # Optional so ``sweep --resume JOURNAL`` can omit it (the
            # journal header pins the experiment).
            p.add_argument("experiment", nargs="?", default=None)
        else:
            p.add_argument("experiment")
        p.add_argument(
            "--param", action="append", default=[], metavar="NAME=VALUE",
            help=(
                "sweep axis name=v1,v2,... (':' separates elements of a "
                "list-valued point)" if sweep
                else "parameter override name=value"
            ),
        )
        p.add_argument(
            "--seed", type=int, help="shorthand for --param seed=S"
        )
        p.add_argument(
            "--quick", action="store_true",
            help="apply the experiment's quick-mode parameter overrides",
        )
        p.add_argument(
            "--json", metavar="PATH",
            help="write the JSON artifact to PATH ('-' for stdout)",
        )

    p_run = sub.add_parser("run", help="run one experiment")
    add_run_flags(p_run, sweep=False)
    p_run.add_argument(
        "--cpus", type=int, help="shorthand for --param n_cpus=N"
    )
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a cartesian parameter grid, optionally in parallel"
    )
    add_run_flags(p_sweep, sweep=True)
    p_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1)",
    )
    p_sweep.add_argument(
        "--journal", metavar="PATH",
        help=(
            "crash-safety journal path (default: the --json path with a "
            ".partial.jsonl suffix, else EXPERIMENT.partial.jsonl)"
        ),
    )
    p_sweep.add_argument(
        "--resume", metavar="JOURNAL",
        help=(
            "resume an interrupted sweep from its journal; the experiment, "
            "grid and --quick come from the journal header"
        ),
    )
    p_sweep.add_argument(
        "--retry-failed", action="store_true",
        help="with --resume, re-run points the journal recorded as FAILED",
    )
    p_sweep.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-point wall-clock timeout; the worker is killed and the "
        "point retried (default: no timeout)",
    )
    p_sweep.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per failing point before it becomes a FAILED row "
        "(default 2)",
    )
    p_sweep.add_argument(
        "--backoff", type=float, default=0.1, metavar="SECONDS",
        help="base retry backoff; doubles per failure (default 0.1)",
    )
    p_sweep.add_argument(
        "--backoff-cap", type=float, default=5.0, metavar="SECONDS",
        help="backoff ceiling (default 5.0)",
    )
    p_sweep.add_argument(
        "--retry-seed", type=int, default=0, metavar="S",
        help="seed for the deterministic backoff jitter (default 0)",
    )
    p_sweep.add_argument(
        "--keep-journal", action="store_true",
        help="keep the journal after a fully successful sweep "
        "(default: delete it; it is always kept on failure/interrupt)",
    )
    p_sweep.add_argument(
        "--chaos", metavar="SPEC",
        help=(
            "inject seeded faults for testing: comma-separated mode=index "
            "terms, ':' separating indices — e.g. 'kill=1:3,hang=5,abort=4' "
            "(modes: kill, hang, raise, corrupt, nondet, abort)"
        ),
    )
    p_sweep.add_argument(
        "--chaos-seed", type=int, default=0, metavar="S",
        help="seed for chaos payload perturbation (default 0)",
    )
    p_sweep.add_argument(
        "--chaos-hang", type=float, default=30.0, metavar="SECONDS",
        help="how long the 'hang' chaos mode stalls a worker (default 30)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_golden = sub.add_parser(
        "golden",
        help="verify (or --regen) the golden-trace conformance corpora",
    )
    p_golden.add_argument(
        "--regen", action="store_true",
        help="re-run the matrix and rewrite the corpus file(s)",
    )
    p_golden.add_argument(
        "--scenario", default=None,
        help="limit to one scenario (default: all pinned scenarios)",
    )
    p_golden.add_argument(
        "--path", default=None,
        help="corpus file (requires --scenario; default: the scenario's "
        "committed location under tests/golden/)",
    )
    p_golden.set_defaults(handler=_cmd_golden)

    p_bench = sub.add_parser(
        "bench", help="time the macro perf scenarios (repro.bench)"
    )
    p_bench.add_argument(
        "scenario", nargs="*",
        help="scenario name(s); default: all registered scenarios",
    )
    p_bench.add_argument(
        "--list", action="store_true", help="enumerate bench scenarios"
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="short simulated durations (CI smoke mode)",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=3, metavar="K",
        help="wall-clock repeats per scenario; min is reported (default 3)",
    )
    p_bench.add_argument(
        "--json", metavar="PATH", nargs="?", const=DEFAULT_ARTIFACT,
        help=(
            "write the perf artifact to PATH ('-' for stdout; default "
            f"{DEFAULT_ARTIFACT}, or {QUICK_ARTIFACT} under --quick so "
            "quick numbers never clobber the tracked baseline)"
        ),
    )
    p_bench.add_argument(
        "--compare", metavar="BASELINE", nargs="?", const=DEFAULT_ARTIFACT,
        help=(
            "diff this run against a committed baseline artifact "
            f"(default {DEFAULT_ARTIFACT}); exits non-zero when any "
            "scenario's throughput regressed past --threshold"
        ),
    )
    p_bench.add_argument(
        "--threshold", type=float, default=DEFAULT_REGRESSION_THRESHOLD,
        metavar="FRACTION",
        help=(
            "allowed fractional throughput drop before --compare fails "
            f"(default {DEFAULT_REGRESSION_THRESHOLD:g}; CI uses a looser "
            "value because shared runners are noisy)"
        ),
    )
    p_bench.add_argument(
        "--history", metavar="PATH", default=HISTORY_FILE,
        help=(
            "append-only JSONL perf log written by non-quick runs "
            f"(default {HISTORY_FILE})"
        ),
    )
    p_bench.add_argument(
        "--no-history", action="store_true",
        help="skip appending this run to the history log",
    )
    p_bench.add_argument(
        "--journal", metavar="PATH",
        help=(
            "journal each scenario's timing as it lands, so an "
            "interrupted bench resumes without re-timing finished "
            "scenarios (deleted after a fully successful run)"
        ),
    )
    p_bench.add_argument(
        "--resume", metavar="JOURNAL",
        help=(
            "resume an interrupted --journal bench; pass the same "
            "scenario/--quick/--repeats arguments as the original run"
        ),
    )
    p_bench.set_defaults(handler=_cmd_bench)

    p_report = sub.add_parser(
        "report",
        help="render a result/sweep JSON artifact as a markdown report",
    )
    p_report.add_argument(
        "artifact",
        help="artifact path written by run/sweep --json ('-' reads stdin)",
    )
    p_report.add_argument(
        "--out", metavar="PATH", default="-",
        help="write the markdown to PATH (default '-': stdout)",
    )
    p_report.set_defaults(handler=_cmd_report)

    p_lint = sub.add_parser(
        "lint",
        help="run the project-specific static checks (repro.staticcheck)",
    )
    from repro.staticcheck.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        ParameterError,
        UnknownExperimentError,
        BenchError,
        ReportError,
        JournalError,
        OrchestrationError,
        ChaosError,
    ) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # A Ctrl-C outside the orchestrated section (no journal in
        # play); orchestrated runs convert theirs to
        # OrchestrationInterrupted and print a resume command first.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


__all__ = ["build_parser", "main"]
