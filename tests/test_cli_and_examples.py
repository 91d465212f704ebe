"""Smoke tests: the CLI and every example script actually run."""

import subprocess
import sys

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9000"])


def run_example(name, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, f"examples/{name}", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "functional check: pipelined == sequential? True" in out
        assert "speedup" in out

    def test_memory_banks(self):
        out = run_example("memory_banks.py")
        assert "bank heuristics ENABLED" in out
        assert "speedup from the heuristics" in out

    def test_loop_transforms(self):
        out = run_example("loop_transforms.py")
        assert "faster steady state" in out
        assert "after load promotion" in out

    def test_ilp_anatomy(self):
        out = run_example("ilp_anatomy.py")
        assert "stage 2" in out
        assert "showdown" in out

    def test_livermore_showdown_subset(self):
        out = run_example(
            "livermore_showdown.py", "--kernels", "1,5,12", "--ilp-seconds", "5"
        )
        assert "lk05_tridiag" in out
        assert "columns:" in out

    def test_spec92_report_help(self):
        out = run_example("spec92_report.py", "--help")
        for name in EXPERIMENTS:
            assert name in out

    def test_register_pressure(self):
        out = run_example("register_pressure.py")
        assert "spilled after" in out
        assert out.count("functional check: True") == 2

    def test_corpus_flag(self, capsys):
        assert main(["--corpus"]) == 0
        out = capsys.readouterr().out
        assert "Livermore kernel corpus" in out
        assert "SPEC92fp-like loop corpus" in out
