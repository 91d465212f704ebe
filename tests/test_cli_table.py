"""The CLI's subcommand table: flags, listing and the shared helpers.

``FLAGS`` is the flag inventory of every subcommand (``""`` is the
experiment runner) as the CLI defined it before the subcommand table
replaced the per-subcommand parsers: each flag's option strings,
``dest``, ``default``, ``type``, ``choices``, ``nargs`` and action class.
The table has to reproduce it exactly.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.__main__ import SUBCOMMANDS, main
from repro.eval import EXPERIMENTS

FLAGS = {
    '': [
        ((), 'experiments', 'None', 'None', None, '*', '_StoreAction'),
        (('--bench-json',), 'bench_json', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--cache-dir',), 'cache_dir', 'None', 'None', None, None, '_StoreAction'),
        (('--corpus',), 'corpus', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--ilp-seconds',), 'ilp_seconds', '10.0', 'float', None, None, '_StoreAction'),
        (('--jobs',), 'jobs', '1', 'int', None, None, '_StoreAction'),
        (('--list',), 'list', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--no-cache',), 'no_cache', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--strict',), 'strict', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'verify': [
        ((), 'corpus', "'all'", 'None', None, '?', '_StoreAction'),
        (('--ilp-seconds',), 'ilp_seconds', '2.0', 'float', None, None, '_StoreAction'),
        (('--schedulers',), 'schedulers', "'sgi,most,rau'", 'None', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
        (('-v', '--verbose'), 'verbose', 'False', 'None', None, 0, '_StoreTrueAction'),
    ],
    'bench': [
        (('--cache-dir',), 'cache_dir', "'.exec-cache'", 'None', None, None, '_StoreAction'),
        (('--cell-timeout',), 'cell_timeout', 'None', 'float', None, None, '_StoreAction'),
        (('--explain',), 'explain', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--history-dir',), 'history_dir', "'benchmarks/history'", 'None', None, None, '_StoreAction'),
        (('--jobs',), 'jobs', '1', 'int', None, None, '_StoreAction'),
        (('--no-cache',), 'no_cache', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--no-history',), 'no_history', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--output-dir',), 'output_dir', "'benchmarks/output'", 'None', None, None, '_StoreAction'),
        (('--profile',), 'profile', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--quick',), 'quick', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--schedulers',), 'schedulers', "'sgi,most,rau,portfolio'", 'None', None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', 'int', None, None, '_StoreAction'),
        (('--trace',), 'trace', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--trace-dir',), 'trace_dir', 'None', 'None', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'sweep': [
        ((), 'corpus', 'None', 'None', None, None, '_StoreAction'),
        (('--cache-dir',), 'cache_dir', "'.exec-cache'", 'None', None, None, '_StoreAction'),
        (('--cell-timeout',), 'cell_timeout', 'None', 'float', None, None, '_StoreAction'),
        (('--explain',), 'explain', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--history-dir',), 'history_dir', "'benchmarks/history'", 'None', None, None, '_StoreAction'),
        (('--jobs',), 'jobs', '1', 'int', None, None, '_StoreAction'),
        (('--no-cache',), 'no_cache', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--no-history',), 'no_history', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--output-dir',), 'output_dir', "'benchmarks/output'", 'None', None, None, '_StoreAction'),
        (('--profile',), 'profile', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--quick',), 'quick', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--schedulers',), 'schedulers', "'sgi,most,rau,portfolio'", 'None', None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', 'int', None, None, '_StoreAction'),
        (('--trace',), 'trace', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--trace-dir',), 'trace_dir', 'None', 'None', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'trace': [
        ((), 'corpus', "'livermore'", 'None', None, '?', '_StoreAction'),
        (('--cell-timeout',), 'cell_timeout', '60.0', 'float', None, None, '_StoreAction'),
        (('--check',), 'check', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--ilp-seconds',), 'ilp_seconds', '5.0', 'float', None, None, '_StoreAction'),
        (('--jobs',), 'jobs', '1', 'int', None, None, '_StoreAction'),
        (('--limit',), 'limit', 'None', 'int', None, None, '_StoreAction'),
        (('--max-nodes',), 'max_nodes', '4000', 'int', None, None, '_StoreAction'),
        (('--schedulers',), 'schedulers', "'sgi,most,rau'", 'None', None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', 'int', None, None, '_StoreAction'),
        (('--trace-dir',), 'trace_dir', "'benchmarks/output/trace'", 'None', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'explain': [
        ((), 'corpus', "'livermore'", 'None', None, '?', '_StoreAction'),
        (('--ilp-seconds',), 'ilp_seconds', '5.0', 'float', None, None, '_StoreAction'),
        (('--json',), 'json_out', 'None', 'None', None, None, '_StoreAction'),
        (('--limit',), 'limit', 'None', 'int', None, None, '_StoreAction'),
        (('--schedulers',), 'schedulers', "'sgi,most,rau'", 'None', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'analyze': [
        ((), 'corpus', "'livermore'", 'None', None, '?', '_StoreAction'),
        (('--check',), 'check', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--ilp-seconds',), 'ilp_seconds', '2.0', 'float', None, None, '_StoreAction'),
        (('--json',), 'json_out', 'None', 'None', None, None, '_StoreAction'),
        (('--limit',), 'limit', 'None', 'int', None, None, '_StoreAction'),
        (('--schedulers',), 'schedulers', "'sgi,most,rau'", 'None', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
        (('-v', '--verbose'), 'verbose', 'False', 'None', None, 0, '_StoreTrueAction'),
    ],
    'diff': [
        ((), 'old', 'None', 'None', None, None, '_StoreAction'),
        ((), 'new', 'None', 'None', None, None, '_StoreAction'),
        (('--history-dir',), 'history_dir', 'None', 'None', None, None, '_StoreAction'),
        (('--json',), 'json_out', 'None', 'None', None, None, '_StoreAction'),
        (('--name',), 'name', "'pipeline'", 'None', None, None, '_StoreAction'),
        (('--strict',), 'strict', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--time-tolerance',), 'time_tolerance', '2.0', 'float', None, None, '_StoreAction'),
        (('--trend',), 'trend', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--verbose', '-v'), 'verbose', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'trend': [
        ((), 'name', "'pipeline'", 'None', None, '?', '_StoreAction'),
        (('--check',), 'check', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--history-dir',), 'history_dir', "'benchmarks/history'", 'None', None, None, '_StoreAction'),
        (('--json',), 'json_out', 'None', 'None', None, None, '_StoreAction'),
        (('--last',), 'last', '20', 'int', None, None, '_StoreAction'),
        (('--verbose', '-v'), 'verbose', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'report': [
        (('--baseline',), 'baseline', "'benchmarks/baseline'", 'None', None, None, '_StoreAction'),
        (('--bench',), 'bench', "'benchmarks/output'", 'None', None, None, '_StoreAction'),
        (('--cache-dir',), 'cache_dir', 'None', 'None', None, None, '_StoreAction'),
        (('--check',), 'check', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--corpus',), 'corpus', "'livermore'", 'None', None, None, '_StoreAction'),
        (('--experiments',), 'experiments', "'fig2,fig3,fig4,fig5,fig6,fig7'", 'None', None, None, '_StoreAction'),
        (('--history-dir',), 'history_dir', "'benchmarks/history'", 'None', None, None, '_StoreAction'),
        (('--history-last',), 'history_last', '20', 'int', None, None, '_StoreAction'),
        (('--html',), 'html', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--ilp-seconds',), 'ilp_seconds', '5.0', 'float', None, None, '_StoreAction'),
        (('--jobs',), 'jobs', '1', 'int', None, None, '_StoreAction'),
        (('--limit',), 'limit', 'None', 'int', None, None, '_StoreAction'),
        (('--no-cache',), 'no_cache', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--output',), 'output', "'benchmarks/output/report.html'", 'None', None, None, '_StoreAction'),
        (('--schedulers',), 'schedulers', "'sgi,most,rau'", 'None', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'fuzz': [
        (('--cell-timeout',), 'cell_timeout', '20.0', 'float', None, None, '_StoreAction'),
        (('--corpus-dir',), 'corpus_dir', "'tests/fuzz_corpus'", 'None', None, None, '_StoreAction'),
        (('--findings-dir',), 'findings_dir', 'None', 'None', None, None, '_StoreAction'),
        (('--inject',), 'inject', 'None', 'None', ('latency', 'reg-clobber', 'sched-shift'), None, '_StoreAction'),
        (('--jobs',), 'jobs', '1', 'int', None, None, '_StoreAction'),
        (('--max-loops',), 'max_loops', 'None', 'int', None, None, '_StoreAction'),
        (('--max-ops',), 'max_ops', '16', 'int', None, None, '_StoreAction'),
        (('--no-write',), 'no_write', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--oracle',), 'oracle', 'None', 'None', ('backend-agreement',), None, '_StoreAction'),
        (('--schedulers',), 'schedulers', "'sgi,most,rau'", 'None', None, None, '_StoreAction'),
        (('--seconds',), 'seconds', '60.0', 'float', None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', 'int', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'serve': [
        (('--batch-max',), 'batch_max', '32', 'int', None, None, '_StoreAction'),
        (('--batch-window-ms',), 'batch_window_ms', '5.0', 'float', None, None, '_StoreAction'),
        (('--budget',), 'budget', '60.0', 'float', None, None, '_StoreAction'),
        (('--cache-dir',), 'cache_dir', "'.exec-cache'", 'None', None, None, '_StoreAction'),
        (('--check-equivalence',), 'check_equivalence', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--concurrency',), 'concurrency', '16', 'int', None, None, '_StoreAction'),
        (('--default-budget',), 'default_budget', '60.0', 'float', None, None, '_StoreAction'),
        (('--drain-timeout',), 'drain_timeout', '60.0', 'float', None, None, '_StoreAction'),
        (('--gauge-interval',), 'gauge_interval', '5.0', 'float', None, None, '_StoreAction'),
        (('--history-dir',), 'history_dir', 'None', 'None', None, None, '_StoreAction'),
        (('--host',), 'host', "'127.0.0.1'", 'None', None, None, '_StoreAction'),
        (('--jobs',), 'jobs', '2', 'int', None, None, '_StoreAction'),
        (('--lru-entries',), 'lru_entries', '1024', 'int', None, None, '_StoreAction'),
        (('--lru-mb',), 'lru_mb', '64.0', 'float', None, None, '_StoreAction'),
        (('--max-budget',), 'max_budget', '300.0', 'float', None, None, '_StoreAction'),
        (('--metrics-port',), 'metrics_port', 'None', 'int', None, None, '_StoreAction'),
        (('--no-cache',), 'no_cache', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--output-dir',), 'output_dir', "'benchmarks/output'", 'None', None, None, '_StoreAction'),
        (('--port',), 'port', 'None', 'int', None, None, '_StoreAction'),
        (('--queue-limit',), 'queue_limit', '64', 'int', None, None, '_StoreAction'),
        (('--requests',), 'requests', '240', 'int', None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', 'int', None, None, '_StoreAction'),
        (('--selftest',), 'selftest', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--slow-log',), 'slow_log', 'None', 'None', None, None, '_StoreAction'),
        (('--slow-ms',), 'slow_ms', '1000.0', 'float', None, None, '_StoreAction'),
        (('--unix',), 'unix', 'None', 'None', None, None, '_StoreAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
    'cache': [
        (('--cache-dir',), 'cache_dir', "'.exec-cache'", 'None', None, None, '_StoreAction'),
        (('--json',), 'json_out', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('--max-bytes',), 'max_bytes', 'None', 'int', None, None, '_StoreAction'),
        (('--max-mb',), 'max_mb', 'None', 'float', None, None, '_StoreAction'),
        (('--prune',), 'prune', 'False', 'None', None, 0, '_StoreTrueAction'),
        (('-h', '--help'), 'help', "'==SUPPRESS=='", 'None', None, 0, '_HelpAction'),
    ],
}


class _Parsed(Exception):
    """Raised in place of parsing, carrying the parser that was built."""


def _flag_inventory(parser):
    rows = [
        (
            tuple(a.option_strings), a.dest, repr(a.default),
            getattr(a.type, "__name__", repr(a.type)),
            None if a.choices is None else tuple(a.choices),
            a.nargs, type(a).__name__,
        )
        for a in parser._actions
    ]
    # Positionals in order, options sorted: help order is not the contract.
    return [r for r in rows if not r[0]] + sorted(r for r in rows if r[0])


def _parser_of(name, monkeypatch):
    def intercept(self, *args, **kwargs):
        raise _Parsed(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", intercept)
    with pytest.raises(_Parsed) as parsed:
        main([name] if name else [])
    return parsed.value.args[0]


@pytest.mark.parametrize("name", list(FLAGS))
def test_flag_inventory_is_unchanged(name, monkeypatch):
    assert _flag_inventory(_parser_of(name, monkeypatch)) == FLAGS[name]


def test_every_subcommand_has_an_inventory():
    assert set(FLAGS) == {"", *SUBCOMMANDS}


@pytest.mark.parametrize("argv", [["--list"], []])
def test_listing_names_experiments_then_subcommands(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    assert listed == [*EXPERIMENTS, *SUBCOMMANDS]
    for command in SUBCOMMANDS.values():
        assert command.blurb in out


def test_subcommand_help_uses_the_table_description(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explain", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert out.startswith("usage: python -m repro explain")
    assert SUBCOMMANDS["explain"].description in out


def _bench_payload():
    cell = {
        "loop": "livermore:lk01_hydro", "scheduler": "sgi", "options_json": "{}",
        "ii": 2, "schedule_seconds": 0.01, "timeout": False, "fallback": False,
        "sim_cycles": {"default": 100.0}, "cache_key": "k",
    }
    return {"name": "pipeline", "code_version": "abc", "cells": [cell]}


def test_diff_json_creates_its_directory(tmp_path, capsys):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(_bench_payload()))
    out = tmp_path / "new_dir" / "d.json"
    assert main(["diff", str(bench), str(bench), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["regressions"] == []
    assert f"wrote {out}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["diff", "trend"])
def test_module_mains_run_the_table_rows(command, tmp_path, capsys):
    from repro.obs import diffbench, trend

    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(_bench_payload()))
    module_main = {"diff": diffbench.main, "trend": trend.main}[command]
    argv = {
        "diff": [str(bench), str(bench), "--json", "-"],
        "trend": ["pipeline", "--history-dir", str(tmp_path), "--json", "-"],
    }[command]
    assert module_main(argv) == 0
    via_module = json.loads(capsys.readouterr().out)
    assert main([command, *argv]) == 0
    assert json.loads(capsys.readouterr().out) == via_module
