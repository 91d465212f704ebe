"""Command-line entry point: ``python -m repro <experiment|subcommand> [...]``.

Regenerates the paper's tables and figures (and the extensions) without
writing any code, and runs the subcommands that verify, bench, trace,
explain, diff and serve the pipeliners.  ``python -m repro --list`` names
every experiment (:data:`repro.eval.EXPERIMENTS`) and every subcommand
(:data:`SUBCOMMANDS`) with its one-line blurb.

Each subcommand is one row of :data:`SUBCOMMANDS`: its blurb, its help
description, a function that adds its flags and one that runs it.  Flags
that several subcommands share are added by one helper each: the grid
group (corpus, ``--schedulers``, ``--limit``, ``--ilp-seconds``), the
engine group (``--jobs``, ``--cache-dir``, ``--no-cache``) and ``--json
PATH|-``.  The experiment runner and the bench subcommands share the
parallel cached engine: ``--jobs N`` fans cells out over worker
processes, ``--cache-dir``/``--no-cache`` control the content-addressed
result cache (an edited kernel, option, or scheduler source invalidates
exactly the affected cells).
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
import time
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .eval import EXPERIMENTS, ExperimentConfig
from .exec.cells import PIPELINERS, SCHEDULERS

#: The ``--schedulers`` help text of the subcommands that run pipeliners.
PIPELINER_HELP = f"comma-separated subset of {','.join(PIPELINERS)}"


# ----------------------------------------------------------------------
# Shared flag groups
# ----------------------------------------------------------------------
def _add_schedulers_argument(
    parser: argparse.ArgumentParser,
    help_text: str = PIPELINER_HELP,
    default: str = "sgi,most,rau",
) -> None:
    parser.add_argument(
        "--schedulers", default=default, help=f"{help_text} (default: {default})"
    )


def _scheduler_names(text: str, parser, allowed=PIPELINERS) -> list:
    """A ``--schedulers`` value, checked against the pipeliner table."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    unknown = [s for s in names if s not in allowed]
    if unknown:
        parser.error(
            f"unknown schedulers: {', '.join(unknown)} "
            f"(expected some of {', '.join(allowed)})"
        )
    return names


def _add_grid_arguments(
    parser: argparse.ArgumentParser,
    corpus: Tuple[str, str, str],
    limit_help: Optional[str],
    ilp_seconds: float,
    ilp_help: str = "MOST ILP budget per loop",
    schedulers_help: str = PIPELINER_HELP,
) -> None:
    """The (corpus × schedulers) grid group.  ``corpus`` is (flag, default,
    help); a bare name is an optional positional.  ``--schedulers`` is
    checked by :func:`_scheduler_names`; ``--limit`` is left out when
    ``limit_help`` is None."""
    flag, default, help_text = corpus
    nargs = {} if flag.startswith("-") else {"nargs": "?"}
    parser.add_argument(flag, default=default, help=help_text, **nargs)
    _add_schedulers_argument(parser, schedulers_help)
    if limit_help is not None:
        parser.add_argument(
            "--limit", type=int, default=None, metavar="N", help=limit_help
        )
    parser.add_argument(
        "--ilp-seconds", type=float, default=ilp_seconds,
        help=f"{ilp_help} (default: {ilp_seconds:g}s)",
    )


def _add_exec_arguments(
    parser: argparse.ArgumentParser,
    cache_dir: Optional[str] = None,
    cache: bool = True,
) -> None:
    """The engine group: ``--jobs``, plus ``--cache-dir`` (default
    ``cache_dir``) and ``--no-cache`` unless ``cache`` is off."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to fan cells out over (default: 1, inline)",
    )
    if not cache:
        return
    parser.add_argument(
        "--cache-dir", default=cache_dir, metavar="DIR",
        help="content-addressed result cache directory",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if --cache-dir is set",
    )


def _add_json_argument(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH", help=help_text
    )


def _write_json(target: Optional[str], payload: str, human: str) -> None:
    """``--json PATH|-``: ``-`` prints ``payload`` instead of ``human``; a
    PATH gets ``human`` on stdout and ``payload`` in the file, whose
    directory is created."""
    if target == "-":
        print(payload)
        return
    print(human)
    if target:
        path = pathlib.Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload + "\n")
        print(f"wrote {path}")


def _failed(header: str, problems: Sequence[str] = ()) -> int:
    """Report a failed check on stderr; returns the exit status, 1."""
    print(header, file=sys.stderr)
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1


def _experiment_config(args, parser, names: Sequence[str]) -> ExperimentConfig:
    """The experiments' config from ``--ilp-seconds`` and the engine group;
    an unknown name in ``names`` is a usage error."""
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    return ExperimentConfig(
        most_time_limit=args.ilp_seconds,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
    )


# ----------------------------------------------------------------------
# The experiment runner: ``python -m repro fig5 --ilp-seconds 20``
# ----------------------------------------------------------------------
def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment names, or 'all' for every one; --list names them "
        "and the subcommands",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the experiments and subcommands"
    )
    parser.add_argument(
        "--corpus", action="store_true",
        help="print the workload corpus profiles (Livermore + SPEC92-like) and exit",
    )
    parser.add_argument(
        "--ilp-seconds", type=float, default=10.0,
        help="ILP budget per loop (paper: 180s; default: 10s)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="verify every pipelined loop while experiments run; exit non-zero "
        "on any ERROR diagnostic",
    )
    _add_exec_arguments(parser)
    parser.add_argument(
        "--bench-json", action="store_true",
        help="also write each experiment's cell measurements as "
        "benchmarks/output/BENCH_<name>.json",
    )


def _print_listing() -> None:
    """The experiments, then the subcommands, each with its blurb."""
    width = max(len(name) for name in (*EXPERIMENTS, *SUBCOMMANDS))
    print("experiments:")
    for name, (_, blurb) in EXPERIMENTS.items():
        print(f"  {name.ljust(width)}  {blurb}")
    print("\nsubcommands:")
    for name, command in SUBCOMMANDS.items():
        print(f"  {name.ljust(width)}  {command.blurb}")


def _run_experiments(args, parser) -> int:
    if args.corpus:
        from .eval.corpus import livermore_profile, spec92_profile

        print(livermore_profile().formatted())
        print()
        print(spec92_profile().formatted())
        return 0
    if args.list or not args.experiments:
        _print_listing()
        return 0

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    config = _experiment_config(args, parser, names)
    if args.strict:
        from .verify import set_default_verify

        set_default_verify(True)
    for name in names:
        start = time.perf_counter()
        try:
            result = EXPERIMENTS[name][0](config)
        except Exception as exc:
            from .verify import VerificationError

            if args.strict and isinstance(exc, VerificationError):
                print(f"[{name}] verification failed:\n{exc}", file=sys.stderr)
                return 1
            raise
        print(result.formatted())
        if args.bench_json and result.cells:
            from .exec.bench import figure_report, write_bench_json

            path = write_bench_json(figure_report(result.name, result.cells))
            print(f"[{name}: wrote {path}]")
        print(f"\n[{name}: {time.perf_counter() - start:.1f}s]\n")
        sys.stdout.flush()
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def _add_verify_arguments(parser: argparse.ArgumentParser) -> None:
    _add_grid_arguments(
        parser, ("corpus", "all", "livermore, spec92 or all (default: all)"),
        None, 2.0, "MOST ILP budget per loop during the sweep",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print every diagnostic, warnings included",
    )


def _run_verify(args, parser) -> int:
    from .verify import verify_corpus

    schedulers = _scheduler_names(args.schedulers, parser)
    try:
        sweep = verify_corpus(
            args.corpus,
            schedulers=schedulers,
            scheduler_options={"most": {"time_limit": args.ilp_seconds, "engine": "scipy"}},
        )
    except ValueError as exc:  # unknown corpus
        parser.error(str(exc))
    print(sweep.formatted(verbose=args.verbose))
    return 0 if sweep.ok else 1


# ----------------------------------------------------------------------
# bench / sweep
# ----------------------------------------------------------------------
def _add_bench_arguments(parser: argparse.ArgumentParser, sweep: bool) -> None:
    from .exec.bench import DEFAULT_CACHE_DIR, DEFAULT_OUTPUT_DIR

    if sweep:
        parser.add_argument("corpus", help="corpus to sweep: livermore, spec92 or recbound")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: livermore + recbound, tighter solver budget",
    )
    _add_exec_arguments(parser, cache_dir=DEFAULT_CACHE_DIR)
    _add_schedulers_argument(
        parser, f"comma-separated subset of {','.join(SCHEDULERS)}",
        "sgi,most,rau,portfolio",
    )
    parser.add_argument(
        "--output-dir", default=str(DEFAULT_OUTPUT_DIR), metavar="DIR",
        help=f"where BENCH_*.json goes (default: {DEFAULT_OUTPUT_DIR})",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-cell deadline (default: 120s, 60s with --quick)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed (default: 0)")
    parser.add_argument(
        "--trace", action="store_true",
        help="run cells under the repro.obs recorder: obs counters land in "
        "the BENCH json, JSONL spools and a merged Chrome trace in --trace-dir",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace output directory (default: <output-dir>/trace; implies --trace)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="attribute every cell's achieved II to its binding constraint; "
        "explanations land in the BENCH json cells and binding counts in "
        "the summary",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="instead of benching, cProfile each scheduler's cells inline "
        "and print the top-20 cumulative-time table per scheduler",
    )
    parser.add_argument(
        "--history-dir", default="benchmarks/history", metavar="DIR",
        help="run-history store the finished BENCH payload is appended to "
        "(default: benchmarks/history)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not file this run in the run-history store",
    )


def _run_bench(args, parser, sweep: bool) -> int:
    from .exec.bench import BenchOptions, run_pipeline_bench, run_sweep

    trace = args.trace or args.trace_dir is not None
    trace_dir = args.trace_dir
    if trace and trace_dir is None:
        trace_dir = str(pathlib.Path(args.output_dir) / "trace")
    options = BenchOptions(
        quick=args.quick,
        schedulers=tuple(_scheduler_names(args.schedulers, parser, SCHEDULERS)),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        seed=args.seed,
        output_dir=args.output_dir,
        trace=trace,
        trace_dir=trace_dir,
        explain=args.explain,
        history_dir=None if args.no_history else pathlib.Path(args.history_dir),
    )
    if args.cell_timeout is not None:
        options.cell_timeout = args.cell_timeout
    if args.profile:
        from .exec.bench import profile_schedulers

        if sweep:
            options.corpora = (args.corpus,)
        for scheduler, table in profile_schedulers(options).items():
            print(f"=== cProfile: {scheduler} ===")
            print(table)
        return 0
    try:
        if sweep:
            report, path = run_sweep(args.corpus, options)
        else:
            report, path = run_pipeline_bench(options)
    except ValueError as exc:  # unknown corpus / scheduler name
        parser.error(str(exc))
    totals = report["totals"]
    cache = report["cache"]
    cache_line = (
        "cache disabled"
        if cache is None
        else f"cache {cache['hits']} hits / {cache['misses']} misses ({cache['dir']})"
    )
    print(
        f"\n{totals['cells']} cells in {report['wall_seconds']:.1f}s "
        f"(jobs={report['jobs']}): {totals['timeouts']} timeouts, "
        f"{totals['fallbacks']} fallbacks, {totals['errors']} errors; {cache_line}"
    )
    print(f"wrote {path}")
    return 1 if totals["errors"] else 0


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    _add_grid_arguments(
        parser,
        ("corpus", "livermore",
         "corpus to profile: livermore, spec92 or recbound (default: livermore)"),
        "profile only the first N loops of the corpus", 5.0,
    )
    _add_exec_arguments(parser, cache=False)
    parser.add_argument(
        "--max-nodes", type=int, default=4000,
        help="MOST ILP node budget per solve (default: 4000)",
    )
    parser.add_argument(
        "--trace-dir", default="benchmarks/output/trace", metavar="DIR",
        help="where JSONL spools and the merged trace.json go "
        "(default: benchmarks/output/trace)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=60.0, metavar="SECONDS",
        help="hard per-cell deadline (default: 60s)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed (default: 0)")
    parser.add_argument(
        "--check", action="store_true",
        help="validate the JSONL spools and merged Chrome trace; exit "
        "non-zero on schema or nesting problems",
    )


def _run_trace(args, parser) -> int:
    """Run the grid with tracing on and print the per-loop effort table
    behind the paper's §4.7 scheduling-time comparison.  MOST runs the
    ``trace`` preset, so its node and simplex counters are populated; the
    cache is bypassed because counters and timings must come from live
    solves."""
    from .exec.bench import SCHEDULER_PRESETS, merge_trace_dir
    from .exec.cells import Cell, corpus_loop_keys
    from .exec.runner import ExecEngine
    from .obs import format_effort_table, validate_chrome_trace_file

    schedulers = _scheduler_names(args.schedulers, parser)
    try:
        keys = corpus_loop_keys(args.corpus)
    except ValueError as exc:
        parser.error(str(exc))
    if args.limit is not None:
        keys = keys[: args.limit]

    most = {
        **SCHEDULER_PRESETS["trace"]["most"],
        "time_limit": args.ilp_seconds,
        "max_nodes": args.max_nodes,
    }
    cells = [
        Cell.make(
            key,
            scheduler,
            most if scheduler == "most" else None,
            seed=args.seed,
            simulate=False,
            verify=False,
            trace=True,
            trace_dir=args.trace_dir,
        )
        for key in keys
        for scheduler in schedulers
    ]
    engine = ExecEngine(jobs=args.jobs, cache=None, default_timeout=args.cell_timeout)
    results = engine.run(cells)
    ordered = [results[cell] for cell in cells]
    print(format_effort_table(ordered))

    merged = merge_trace_dir(args.trace_dir)
    if merged is not None:
        print(f"\nwrote {merged} (load in chrome://tracing or https://ui.perfetto.dev)")
    errors = sum(1 for res in ordered if res.error is not None)
    if errors:
        return _failed(f"{errors} cells errored")

    if args.check:
        if merged is None:
            return _failed("--check: no trace files were written")
        problems = validate_chrome_trace_file(merged)
        if problems:
            return _failed(f"--check: {merged} is invalid:", problems)
        traced = sum(1 for res in ordered if res.obs)
        if not traced:
            return _failed("--check: no cell produced obs counters")
        print(f"--check: {merged} valid; {traced}/{len(ordered)} cells traced")
    return 0


# ----------------------------------------------------------------------
# explain / analyze
# ----------------------------------------------------------------------
def _add_explain_arguments(parser: argparse.ArgumentParser) -> None:
    _add_grid_arguments(
        parser,
        ("corpus", "livermore",
         "corpus to explain: livermore, spec92 or recbound (default: livermore)"),
        "explain only the first N loops of the corpus", 5.0,
    )
    _add_json_argument(
        parser, "also write the explanations as JSON to this path ('-' for stdout)"
    )


def _run_explain(args, parser) -> int:
    from .obs.explain import explain_corpus, explanations_to_json, format_explanations

    schedulers = _scheduler_names(args.schedulers, parser)
    try:
        explanations = explain_corpus(
            args.corpus,
            schedulers=schedulers,
            scheduler_options={"most": {"time_limit": args.ilp_seconds}},
            limit=args.limit,
        )
    except ValueError as exc:  # unknown corpus
        parser.error(str(exc))
    _write_json(
        args.json_out, explanations_to_json(explanations), format_explanations(explanations)
    )
    return 0


def _add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    _add_grid_arguments(
        parser,
        ("corpus", "livermore", "livermore, spec92, recbound or all (default: livermore)"),
        "analyze only the first N loops of the corpus", 2.0,
        schedulers_help=f"{PIPELINER_HELP}, or 'none' for bounds only",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate every certificate with the independent checker and "
        "cross-check achieved IIs against the bounds (exit 1 on failure)",
    )
    _add_json_argument(parser, "also write the per-loop analysis as JSON ('-' for stdout)")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the table legend",
    )


def _run_analyze(args, parser) -> int:
    """Print, per loop, MinII → the refined certified bound → the II each
    pipeliner achieved.  ``--check`` validates every shipped certificate
    with the independent checker in ``repro.verify`` and cross-checks each
    achieved or proved-optimal II against the certified bounds."""
    from .analyze.api import analyze_corpus

    if args.schedulers.strip() == "none":
        schedulers = []
    else:
        schedulers = _scheduler_names(args.schedulers, parser)
    try:
        report = analyze_corpus(
            args.corpus,
            schedulers=schedulers,
            check=args.check,
            limit=args.limit,
            scheduler_options={"most": {"time_limit": args.ilp_seconds, "engine": "scipy"}},
        )
    except ValueError as exc:  # unknown corpus
        parser.error(str(exc))
    _write_json(
        args.json_out,
        json.dumps([e.to_dict() for e in report.entries], indent=1, sort_keys=True),
        report.formatted(verbose=args.verbose),
    )
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# diff / trend
# ----------------------------------------------------------------------
def _add_diff_arguments(parser: argparse.ArgumentParser) -> None:
    from .obs.diffbench import DEFAULT_TIME_TOLERANCE

    parser.add_argument("old", help="baseline bench json (file or directory)")
    parser.add_argument("new", help="fresh bench json (file or directory)")
    parser.add_argument(
        "--name", default="pipeline",
        help="which BENCH_<name>.json to resolve when old/new are "
        "directories (default: pipeline; e.g. 'service')",
    )
    parser.add_argument(
        "--time-tolerance", type=float, default=DEFAULT_TIME_TOLERANCE,
        help="per-scheduler schedule-time ratio that triggers a warning "
        f"(default: {DEFAULT_TIME_TOLERANCE})",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on quality regressions (default: warn only)",
    )
    parser.add_argument(
        "--trend", action="store_true",
        help="judge the fresh run against the stored run history too: a "
        "timing/latency step change starting at this run is escalated "
        "from warning to regression",
    )
    parser.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help="run-history root for --trend (default: benchmarks/history)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="list every aligned cell, changed or not",
    )
    _add_json_argument(parser, "write the full diff as JSON to this path ('-' for stdout)")


def _run_diff(args, parser) -> int:
    from .obs.diffbench import apply_trend_gating, diff_reports, load_bench

    new_payload = load_bench(args.new, args.name)
    diff = diff_reports(
        load_bench(args.old, args.name), new_payload, args.time_tolerance
    )
    gating = {}
    if args.trend:
        from .obs.history import DEFAULT_HISTORY_DIR
        from .obs.trend import trend_with_payload

        history_dir = args.history_dir or DEFAULT_HISTORY_DIR
        trend = trend_with_payload(args.name, new_payload, history_dir=history_dir)
        gating["trend"] = apply_trend_gating(diff, trend)
    # Gating adds regressions to ``diff``, so it is serialised after.
    payload = {**diff.to_dict(), **gating}
    _write_json(
        args.json_out,
        json.dumps(payload, indent=1, sort_keys=True),
        diff.formatted(verbose=args.verbose),
    )
    if diff.regressions and args.strict:
        return 1
    if diff.regressions:
        print(
            f"({len(diff.regressions)} regressions; warn-only, pass --strict to fail)",
            file=sys.stderr if args.json_out == "-" else sys.stdout,
        )
    return 0


def _add_trend_arguments(parser: argparse.ArgumentParser) -> None:
    from .obs.history import DEFAULT_HISTORY_DIR

    parser.add_argument(
        "name", nargs="?", default="pipeline",
        help="history series to judge: pipeline, service, micro, "
        "sweep_<corpus>, ... (default: pipeline)",
    )
    parser.add_argument(
        "--history-dir", default=str(DEFAULT_HISTORY_DIR), metavar="DIR",
        help=f"run-history root (default: {DEFAULT_HISTORY_DIR})",
    )
    parser.add_argument(
        "--last", type=int, default=20, metavar="N",
        help="judge only the most recent N stored runs (default: 20)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when any series shows a bad-direction step change or "
        "drift (timings/latency up, II up, hit rate down)",
    )
    _add_json_argument(parser, "write the full report as JSON ('-' for stdout)")
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="list every series, stable ones included",
    )


def _run_trend(args, parser) -> int:
    from .obs.trend import trend_report

    report = trend_report(args.name, history_dir=args.history_dir, last=args.last)
    _write_json(
        args.json_out,
        json.dumps(report.to_dict(), indent=1, sort_keys=True),
        report.formatted(verbose=args.verbose),
    )
    if not report.runs:
        print(f"no stored runs for {args.name!r} under {args.history_dir}",
              file=sys.stderr)
        return 0
    return 1 if args.check and not report.ok else 0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _add_report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--html", action="store_true",
        help="write the HTML dashboard (the default and only format; "
        "accepted for explicitness)",
    )
    parser.add_argument(
        "--output", default="benchmarks/output/report.html", metavar="PATH",
        help="where report.html goes (default: benchmarks/output/report.html)",
    )
    _add_grid_arguments(
        parser,
        ("--corpus", "livermore", "corpus for the II-explanation panel (default: livermore)"),
        "explain only the first N loops of the corpus", 5.0,
        schedulers_help=f"schedulers for the II-explanation panel: {PIPELINER_HELP}",
    )
    parser.add_argument(
        "--experiments", default="fig2,fig3,fig4,fig5,fig6,fig7",
        help="comma-separated experiment names for the figure-table panel, "
        "or 'none' (default: fig2..fig7)",
    )
    parser.add_argument(
        "--bench", default="benchmarks/output", metavar="PATH",
        help="BENCH json (file or directory) for the bench panel; skipped "
        "when absent (default: benchmarks/output)",
    )
    parser.add_argument(
        "--baseline", default="benchmarks/baseline", metavar="PATH",
        help="baseline BENCH json for the diff panel; skipped when absent "
        "(default: benchmarks/baseline)",
    )
    parser.add_argument(
        "--history-dir", default="benchmarks/history", metavar="DIR",
        help="run-history store for the trend panel; renders a placeholder "
        "when it holds fewer than two runs (default: benchmarks/history)",
    )
    parser.add_argument(
        "--history-last", type=int, default=20, metavar="N",
        help="trend panel looks at the last N stored runs (default: 20)",
    )
    _add_exec_arguments(parser)
    parser.add_argument(
        "--check", action="store_true",
        help="validate the written report (well-formedness, panel presence); "
        "exit non-zero on problems",
    )


def _run_report(args, parser) -> int:
    from .obs.diffbench import diff_reports, load_bench
    from .obs.explain import explain_corpus
    from .obs.html import validate_report_file, write_report
    from .obs.trend import history_panel_data

    schedulers = _scheduler_names(args.schedulers, parser)
    names = [] if args.experiments == "none" else [
        n.strip() for n in args.experiments.split(",") if n.strip()
    ]
    config = _experiment_config(args, parser, names)
    print(f"explaining {args.corpus} × {','.join(schedulers)} ...", flush=True)
    try:
        explanations = explain_corpus(
            args.corpus,
            schedulers=schedulers,
            scheduler_options={"most": {"time_limit": args.ilp_seconds}},
            limit=args.limit,
        )
    except ValueError as exc:
        parser.error(str(exc))

    tables, charts = [], []
    for name in names:
        print(f"running {name} ...", flush=True)
        result = EXPERIMENTS[name][0](config)
        tables.append(result.table)
        if result.chart:
            charts.append(result.chart)

    bench = diff = None
    try:
        bench = load_bench(args.bench)
    except (FileNotFoundError, OSError):
        print(f"no bench json under {args.bench}; bench panel skipped")
    if bench is not None:
        try:
            diff = diff_reports(load_bench(args.baseline), bench)
        except (FileNotFoundError, OSError):
            print(f"no baseline under {args.baseline}; diff panel skipped")

    history = history_panel_data(
        pathlib.Path(args.history_dir), last=args.history_last
    )
    meta = {
        "corpus": args.corpus,
        "schedulers": ",".join(schedulers),
        "experiments": ",".join(names) or "none",
    }
    path = write_report(
        args.output,
        meta=meta,
        explanations=explanations,
        tables=tables,
        charts=charts,
        diff=diff,
        bench=bench,
        history=history,
    )
    print(f"wrote {path}")

    if args.check:
        required = ["explanations"] if explanations else []
        if tables or charts:
            required.append("figures")
        if diff is not None:
            required.append("diff")
        if bench is not None:
            required.append("bench")
        # The history panel always renders (placeholder when <2 runs).
        required.append("history")
        problems = validate_report_file(path, required)
        if problems:
            return _failed(f"--check: {path} is invalid:", problems)
        print(f"--check: {path} valid ({', '.join(required) or 'no panels'})")
    return 0


# ----------------------------------------------------------------------
# fuzz
# ----------------------------------------------------------------------
def _add_fuzz_arguments(parser: argparse.ArgumentParser) -> None:
    from .fuzz import INJECTIONS
    from .fuzz.corpus import DEFAULT_CORPUS_DIR

    parser.add_argument(
        "--seconds", type=float, default=60.0,
        help="fuzzing wall-clock budget (default: 60)",
    )
    _add_exec_arguments(parser, cache=False)
    parser.add_argument("--seed", type=int, default=0, help="session seed (default: 0)")
    _add_schedulers_argument(parser)
    parser.add_argument(
        "--oracle", default=None, choices=("backend-agreement",),
        help="enable an extra oracle layer; 'backend-agreement' adds the "
        "portfolio scheduler (cross-check on) so every generated loop "
        "also races the CP and ILP backends against each other",
    )
    parser.add_argument(
        "--inject", default=None, choices=sorted(INJECTIONS),
        help="seed a known fault into the pipeline; the session then "
        "verifies the oracle catches it (exit 1 if it does not)",
    )
    parser.add_argument(
        "--max-ops", type=int, default=16,
        help="corpus-admission cap on generated loop size (default: 16)",
    )
    parser.add_argument(
        "--max-loops", type=int, default=None, metavar="N",
        help="stop after N generated loops even if time remains",
    )
    parser.add_argument(
        "--corpus-dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
        help=f"regression corpus directory (default: {DEFAULT_CORPUS_DIR})",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="do not write minimized reproducers into the corpus",
    )
    parser.add_argument(
        "--findings-dir", default=None, metavar="DIR",
        help="also copy new reproducers here (CI artifact upload)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=20.0, metavar="SECONDS",
        help="hard per-cell deadline (default: 20s)",
    )


def _run_fuzz(args, parser) -> int:
    """Without ``--inject``, any finding is a live bug and the exit code is
    non-zero; under ``--inject`` the seeded fault *must* be found (a
    calibration run of the oracle), so zero findings is the failure."""
    from .fuzz import FuzzConfig, run_fuzz

    schedulers = tuple(_scheduler_names(args.schedulers, parser))
    if args.oracle == "backend-agreement" and "portfolio" not in schedulers:
        schedulers = schedulers + ("portfolio",)
    config = FuzzConfig(
        seconds=args.seconds,
        jobs=args.jobs,
        seed=args.seed,
        schedulers=schedulers,
        max_ops=args.max_ops,
        cell_timeout=args.cell_timeout,
        inject=args.inject,
        corpus_dir=args.corpus_dir,
        write=not args.no_write,
        findings_dir=args.findings_dir,
        max_loops=args.max_loops,
    )
    report = run_fuzz(config, log=print)
    stats = report.stats
    print(
        f"\n{stats.loops} loops ({stats.cells} cells) in "
        f"{stats.wall_seconds:.1f}s: {stats.violations} violations, "
        f"{len(report.findings)} distinct findings, "
        f"coverage {stats.coverage_keys} keys, corpus {stats.corpus_size}"
    )
    if args.inject:
        caught = [f for f in report.findings if f.reproduced]
        if not caught:
            print(f"injected fault {args.inject!r} was NOT caught", file=sys.stderr)
            return 1
        print(f"injected fault {args.inject!r} caught and minimized")
        return 0
    return 1 if report.findings else 0


# ----------------------------------------------------------------------
# serve / cache
# ----------------------------------------------------------------------
def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    from .exec.cache import DEFAULT_CACHE_DIR

    parser.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="TCP port to listen on (0 = ephemeral; omit for no TCP listener)",
    )
    parser.add_argument(
        "--unix", default=None, metavar="PATH",
        help="unix socket path to listen on (daemon needs --port and/or --unix)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="persistent worker processes (0 = in-process threads; default: 2)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="bounded admission queue depth; beyond it requests are shed "
        "with an 'overloaded' + retry_after response (default: 64)",
    )
    parser.add_argument(
        "--batch-window-ms", type=float, default=5.0, metavar="MS",
        help="how long the dispatcher coalesces arrivals into one batch "
        "(default: 5ms)",
    )
    parser.add_argument(
        "--batch-max", type=int, default=32, metavar="N",
        help="max requests per dispatch batch (default: 32)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"disk tier of the result cache (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="run memory-only (no disk cache tier)",
    )
    parser.add_argument(
        "--lru-entries", type=int, default=1024, metavar="N",
        help="in-process LRU entry budget (default: 1024)",
    )
    parser.add_argument(
        "--lru-mb", type=float, default=64.0, metavar="MB",
        help="in-process LRU byte budget in MiB (default: 64)",
    )
    parser.add_argument(
        "--default-budget", type=float, default=60.0, metavar="SECONDS",
        help="per-request wall-clock budget when the request sets none "
        "(default: 60s)",
    )
    parser.add_argument(
        "--max-budget", type=float, default=300.0, metavar="SECONDS",
        help="server-side clamp on request budgets (default: 300s)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=60.0, metavar="SECONDS",
        help="max seconds SIGTERM waits for in-flight work (default: 60s)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="N",
        help="also serve Prometheus text metrics over HTTP on this port "
        "(0 = ephemeral; GET /metrics)",
    )
    parser.add_argument(
        "--slow-log", default=None, metavar="PATH",
        help="append requests slower than --slow-ms to this NDJSON file",
    )
    parser.add_argument(
        "--slow-ms", type=float, default=1000.0, metavar="MS",
        help="slow-request log latency threshold (default: 1000ms)",
    )
    parser.add_argument(
        "--gauge-interval", type=float, default=5.0, metavar="SECONDS",
        help="queue-depth/hit-rate gauge sampling period, 0 to disable "
        "(default: 5s)",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="boot an in-process daemon, load it over the wire protocol, "
        "write BENCH_service.json and exit non-zero on any protocol, "
        "cell, verify or equivalence problem",
    )
    parser.add_argument(
        "--requests", type=int, default=240, metavar="N",
        help="selftest: total requests across the warm + replay phases "
        "(default: 240)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=16, metavar="N",
        help="selftest: concurrent client connections (default: 16)",
    )
    parser.add_argument(
        "--budget", type=float, default=60.0, metavar="SECONDS",
        help="selftest: per-request budget (default: 60s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="selftest: replay-shuffle seed (default: 0)",
    )
    parser.add_argument(
        "--check-equivalence", action="store_true",
        help="selftest: re-run every distinct cell through the direct exec "
        "engine and fail on any result difference",
    )
    parser.add_argument(
        "--output-dir", default="benchmarks/output", metavar="DIR",
        help="selftest: where BENCH_service.json goes "
        "(default: benchmarks/output)",
    )
    parser.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help="selftest: also append BENCH_service to this run-history store "
        "(e.g. benchmarks/history; default: off)",
    )


def _run_serve(args, parser) -> int:
    from .serve.service import ServeConfig

    config = ServeConfig(
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        batch_window=args.batch_window_ms / 1e3,
        batch_max=args.batch_max,
        cache_dir=None if args.no_cache else args.cache_dir,
        lru_entries=args.lru_entries,
        lru_bytes=int(args.lru_mb * (1 << 20)),
        default_budget=args.default_budget,
        max_budget=args.max_budget,
        drain_timeout=args.drain_timeout,
        slow_log_path=args.slow_log,
        slow_ms=args.slow_ms,
        gauge_interval=args.gauge_interval,
    )

    if args.selftest:
        from .serve.loadgen import LoadgenOptions, format_summary, run_selftest

        options = LoadgenOptions(
            requests=args.requests,
            concurrency=args.concurrency,
            budget=args.budget,
            seed=args.seed,
            output_dir=args.output_dir,
            history_dir=args.history_dir,
        )
        report, path, problems = run_selftest(
            options,
            jobs=args.jobs,
            equivalence=args.check_equivalence,
            config=config,
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
        print(format_summary(report))
        print(f"wrote {path}")
        if problems:
            return _failed("selftest FAILED:", problems)
        print("selftest ok"
              + (" (daemon matches the direct engine)"
                 if args.check_equivalence else ""))
        return 0

    if args.port is None and args.unix is None:
        parser.error("daemon mode needs --port and/or --unix (or use --selftest)")
    from .serve.daemon import run_daemon

    return run_daemon(config, host=args.host, port=args.port, unix_path=args.unix,
                      metrics_port=args.metrics_port)


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    from .exec.cache import DEFAULT_CACHE_DIR

    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--prune", action="store_true",
        help="garbage-collect the cache down to --max-bytes",
    )
    parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="byte budget for --prune (also accepts --max-mb)",
    )
    parser.add_argument(
        "--max-mb", type=float, default=None, metavar="MB",
        help="byte budget for --prune, in MiB",
    )
    parser.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print the stats as JSON",
    )


def _run_cache(args, parser) -> int:
    from .exec.cache import ScheduleCache

    cache = ScheduleCache(args.cache_dir)
    if args.prune:
        max_bytes = args.max_bytes
        if max_bytes is None and args.max_mb is not None:
            max_bytes = int(args.max_mb * (1 << 20))
        if max_bytes is None:
            parser.error("--prune needs --max-bytes N or --max-mb MB")
        before = cache.disk_stats()
        pruned = cache.prune(max_bytes)
        print(
            f"pruned {pruned['removed']} of {before['entries']} entries "
            f"({pruned['freed_bytes']} bytes freed, "
            f"{pruned['tmp_removed']} stale tmp files); "
            f"{pruned['kept']} entries / {pruned['kept_bytes']} bytes kept"
        )
        return 0
    stats = cache.disk_stats()
    if args.json_out:
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0
    print(f"cache dir     {stats['dir']}")
    print(f"entries       {stats['entries']}")
    print(f"bytes         {stats['bytes']}")
    print(f"shards used   {stats['shards_used']} ({stats['shard_fill']:.2%} of 65536)")
    return 0


# ----------------------------------------------------------------------
# The subcommand table
# ----------------------------------------------------------------------
class Subcommand(NamedTuple):
    """One row of :data:`SUBCOMMANDS`."""

    blurb: str  # one line, for --list
    description: str  # the --help description
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, argparse.ArgumentParser], int]


_BENCH_DESCRIPTION = (
    "Time every (loop × scheduler) cell of the corpus grid "
    "and write the measurements as a BENCH json."
)

SUBCOMMANDS: Dict[str, Subcommand] = {
    "verify": Subcommand(
        "static verification sweep of every schedule, allocation and listing",
        "Independently verify every artifact the pipeliners "
        "produce over a workload corpus (exit 1 on ERROR diagnostics).",
        _add_verify_arguments,
        _run_verify,
    ),
    "bench": Subcommand(
        "time the (loop × scheduler) grid into BENCH_pipeline.json",
        _BENCH_DESCRIPTION,
        functools.partial(_add_bench_arguments, sweep=False),
        functools.partial(_run_bench, sweep=False),
    ),
    "sweep": Subcommand(
        "the bench grid over one corpus, into BENCH_sweep_<corpus>.json",
        _BENCH_DESCRIPTION,
        functools.partial(_add_bench_arguments, sweep=True),
        functools.partial(_run_bench, sweep=True),
    ),
    "trace": Subcommand(
        "search-effort table per loop, JSONL spools and a Chrome trace",
        "Profile every (loop × scheduler) cell under the "
        "repro.obs recorder: print the per-loop search-effort table and "
        "write JSONL spools plus a merged Chrome trace.",
        _add_trace_arguments,
        _run_trace,
    ),
    "explain": Subcommand(
        "attribute every cell's achieved II to its binding constraint",
        "Attribute every (loop × scheduler) cell's achieved II "
        "to its binding constraint.",
        _add_explain_arguments,
        _run_explain,
    ),
    "analyze": Subcommand(
        "certified refined II lower bounds per loop (--check validates them)",
        "Derive certified refined II lower bounds for every "
        "loop of a corpus and compare them with the achieved IIs.",
        _add_analyze_arguments,
        _run_analyze,
    ),
    "diff": Subcommand(
        "attributed regression diff of two BENCH json runs (the CI gate)",
        "Attributed diff of two BENCH_*.json runs",
        _add_diff_arguments,
        _run_diff,
    ),
    "trend": Subcommand(
        "classify run-history series: stable, noisy, drift or step change",
        "Classify every metric series of a stored run history "
        "as stable, noisy, drift or step_change (with the changepoint "
        "attributed to a commit range).",
        _add_trend_arguments,
        _run_trend,
    ),
    "report": Subcommand(
        "the self-contained report.html dashboard",
        "Assemble figure tables, per-loop II explanations and "
        "the bench diff into one self-contained report.html (inline CSS/JS, "
        "opens offline).",
        _add_report_arguments,
        _run_report,
    ),
    "fuzz": Subcommand(
        "coverage-guided differential fuzzing of the pipeliners",
        "Generate loops by mutation and crossover, run them "
        "through sgi, most and rau under a layered differential oracle "
        "(crash / independent verify / functional sim / MinII / proved "
        "optimality), and minimize any violation into a reproducer in "
        "the regression corpus.",
        _add_fuzz_arguments,
        _run_fuzz,
    ),
    "serve": Subcommand(
        "the NDJSON scheduling daemon (--selftest replays the corpora)",
        "Run the scheduling daemon: newline-delimited JSON "
        "requests over TCP and/or a unix socket, batched onto a persistent "
        "worker pool behind a two-tier (memory LRU + disk) result cache. "
        "--selftest instead boots an in-process daemon on a temporary unix "
        "socket, replays the committed corpora through the wire protocol "
        "at the requested concurrency and writes BENCH_service.json.",
        _add_serve_arguments,
        _run_serve,
    ),
    "cache": Subcommand(
        "disk result-cache statistics and --prune garbage collection",
        "Inspect the content-addressed schedule result cache "
        "(entries, bytes, shard fill) and optionally prune it to a byte "
        "budget, oldest entries first.",
        _add_cache_arguments,
        _run_cache,
    ),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        command = SUBCOMMANDS[argv[0]]
        parser = argparse.ArgumentParser(
            prog=f"python -m repro {argv[0]}", description=command.description
        )
        command.add_arguments(parser)
        return command.run(parser.parse_args(argv[1:]), parser)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Software Pipelining Showdown experiments.",
    )
    _add_experiment_arguments(parser)
    return _run_experiments(parser.parse_args(argv), parser)


if __name__ == "__main__":
    sys.exit(main())
