"""Pin the optimal pipeliners to the committed quick-grid baseline.

Re-runs MOST and the portfolio on every quick-grid baseline cell that
finished in under a second, with the options stored in that cell's
``options_json``, and asserts the committed quality fields: II,
optimality, fallback, producer, stage count and registers.  Portfolio
cells also pin their probe trail (II, backend, answer, nodes), which the
deterministic node budgets make machine-independent.  Slow cells are left
out: their outcome can depend on how much of the wall-clock budget a
probe gets.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.exec.cells import resolve_loop
from repro.machine import r8000
from repro.most import MostOptions, most_pipeline_loop
from repro.portfolio.driver import PortfolioOptions, portfolio_pipeline_loop

BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "baseline" / "BENCH_pipeline.json"
)
FAST_CELL_SECONDS = 1.0


def _fast_cells(scheduler):
    cells = json.loads(BASELINE.read_text())["cells"]
    return [
        pytest.param(cell, id=cell["loop"])
        for cell in cells
        if cell["scheduler"] == scheduler
        and cell["wall_seconds"] < FAST_CELL_SECONDS
    ]


def _quality(result):
    return {
        "ii": result.ii,
        "optimal": result.optimal,
        "fallback": result.fallback_used,
        "producer": result.schedule.producer,
        "n_stages": result.schedule.n_stages,
        "registers_used": result.allocation.registers_used,
    }


def _committed(cell):
    return {name: cell[name] for name in (
        "ii", "optimal", "fallback", "producer", "n_stages", "registers_used",
    )}


@pytest.mark.parametrize("cell", _fast_cells("most"))
def test_most_matches_baseline(cell):
    machine = r8000()
    options = MostOptions.from_dict(json.loads(cell["options_json"]))
    result = most_pipeline_loop(resolve_loop(cell["loop"], machine), machine, options)
    assert _quality(result) == _committed(cell)


@pytest.mark.parametrize("cell", _fast_cells("portfolio"))
def test_portfolio_matches_baseline(cell):
    machine = r8000()
    options = PortfolioOptions.from_dict(json.loads(cell["options_json"]))
    result = portfolio_pipeline_loop(
        resolve_loop(cell["loop"], machine), machine, options
    )
    assert _quality(result) == _committed(cell)
    trail = [(p.ii, p.backend, p.answer, p.nodes) for p in result.probes]
    committed = [
        (p["ii"], p["backend"], p["answer"], p["nodes"])
        for p in cell["backend_probes"]
    ]
    assert trail == committed


def test_grid_has_fast_cells():
    # Guards the parametrisation: a baseline refresh that slowed every
    # cell past the threshold would silently turn this file into a no-op.
    assert len(_fast_cells("most")) >= 20
    assert len(_fast_cells("portfolio")) >= 20
