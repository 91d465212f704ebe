"""The pipeliner table in repro.exec.cells: one place that parses, runs and
reads every scheduler."""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.driver as core_driver
from repro.core.bnb import BnBConfig
from repro.exec.cells import (
    PIPELINERS,
    SCHEDULERS,
    Cell,
    CellResult,
    corpus_entries,
    corpus_loop_keys,
    parse_options,
    read_outcome,
    run_pipeliner,
)
from repro.exec.runner import execute_cell
from repro.machine.descriptions import r8000
from repro.verify.api import corpus_loops


@pytest.fixture(scope="module")
def machine():
    return r8000()


class TestTable:
    def test_every_cell_scheduler_is_a_pipeliner_or_the_baseline(self):
        assert set(SCHEDULERS) == set(PIPELINERS) | {"baseline"}
        assert set(PIPELINERS) == {"sgi", "most", "rau", "portfolio"}

    @pytest.mark.parametrize("name", sorted(PIPELINERS))
    def test_every_pipeliner_rejects_unknown_keys_by_name(self, name):
        with pytest.raises(ValueError, match="no_such_knob"):
            parse_options(name, {"no_such_knob": 1})
        defaults = parse_options(name)
        assert dataclasses.is_dataclass(defaults)

    def test_unknown_pipeliner_is_an_error(self, machine):
        with pytest.raises(ValueError, match="unknown pipeliner 'gcc'"):
            parse_options("gcc", {})
        with pytest.raises(ValueError, match="unknown pipeliner 'baseline'"):
            read_outcome("baseline", None)

    def test_sgi_options_coerce_the_json_cell_form(self):
        options = parse_options("sgi", {"orders": ["FDMS"], "bnb": {"max_backtracks": 5}})
        assert options.orders == ("FDMS",)
        assert options.bnb == BnBConfig(max_backtracks=5)

    def test_portfolio_backends_are_checked_on_construction(self):
        with pytest.raises(ValueError, match="gurobi"):
            parse_options("portfolio", {"backends": "gurobi"})

    def test_driver_is_looked_up_at_call_time(self, machine, monkeypatch):
        calls = []
        original = core_driver.pipeline_loop

        def spy(loop, machine, options, verify=None):
            calls.append(options)
            return original(loop, machine, options, verify=verify)

        monkeypatch.setattr(core_driver, "pipeline_loop", spy)
        loop = corpus_entries("livermore", machine)[0][1]
        result = run_pipeliner("sgi", loop, machine, {"enable_membank": False})
        assert result.success
        assert len(calls) == 1 and calls[0].enable_membank is False


class TestOutcome:
    def test_rau_cell_and_explanation_agree_on_spill_rounds(self):
        # Rau94 spills 7 values on lk09 over three spill rounds, and the
        # bench cell and its explanation both report the three.
        cell = Cell.make("livermore:lk09_predict", "rau", simulate=False, explain=True)
        result = CellResult.from_dict(execute_cell(cell.to_dict(), in_worker=False))
        assert result.error is None
        assert result.spill_rounds == 3
        assert result.explanation["spill_rounds"] == result.spill_rounds

    def test_strict_rau_options(self):
        cell = Cell.make("livermore:lk12_firstdiff", "rau", {"budget_rato": 1.0})
        result = CellResult.from_dict(execute_cell(cell.to_dict(), in_worker=False))
        assert not result.success
        assert result.error is not None and "budget_rato" in result.error

    def test_optimal_pipeliners_report_optimality(self, machine):
        loop = dict(corpus_entries("livermore", machine))["livermore:lk01_hydro"]
        result = run_pipeliner("portfolio", loop, machine, {"time_limit": 5.0})
        outcome = read_outcome("portfolio", result)
        assert outcome.optimal and not outcome.fallback
        assert outcome.spill_rounds == 0
        assert outcome.backend_probes == [p.to_dict() for p in result.probes]


class TestCorpora:
    def test_all_is_the_three_committed_corpora(self):
        keys = corpus_loop_keys("all")
        assert keys == (
            corpus_loop_keys("livermore")
            + corpus_loop_keys("spec92")
            + corpus_loop_keys("recbound")
        )
        assert len(keys) == 58

    def test_verify_corpus_loops_follow_the_keys(self):
        names = [key.rpartition(":")[2].rpartition("/")[2] for key in corpus_loop_keys("all")]
        assert [loop.name for loop in corpus_loops("all")] == names
