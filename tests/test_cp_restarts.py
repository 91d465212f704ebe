"""CP restarts over SGI's priority orders, and the incremental slot check.

``solve_cp`` runs the fail-first order, then each production order that
repeats none already run, each capped at ``max_nodes`` nodes; the first
sat or unsat ends the probe.  These tests pin the outcomes the restarts
buy on the two loops that motivated them (ora_trace, tomcatv_main), the
budget semantics the showdown bench reads back (node-exhausted vs
clock-stopped), and the bit-identity of the incremental live-slot check
against the full scan it replaced.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.minii import min_ii
from repro.core.priorities import production_orders
from repro.exec.cells import resolve_loop
from repro.machine.descriptions import r8000
from repro.obs import recording
from repro.portfolio import cp
from repro.portfolio import driver as portfolio_driver
from repro.portfolio.answer import SAT, UNKNOWN, UNSAT
from repro.portfolio.cp import (
    _CLOCK_STRIDE,
    DEFAULT_ORDER_NAME,
    _Search,
    default_order,
    solve_cp,
)
from repro.portfolio.driver import PortfolioOptions, portfolio_pipeline_loop
from repro.portfolio.formulation import build_modulo_formulation, check_witness
from repro.workloads.livermore import livermore_kernels
from repro.workloads.recbound import recbound_kernels
from repro.workloads.spec92 import spec92_suite

MACHINE = r8000()


def _formulation(key, ii):
    loop = resolve_loop(key, MACHINE)
    return loop, build_modulo_formulation(loop, MACHINE, ii)


def _distinct_orders(formulation, orders):
    distinct = [default_order(formulation)]
    for order in orders.values():
        if list(order) not in distinct:
            distinct.append(list(order))
    return distinct


class TestRestartOutcomes:
    def test_ora_trace_is_native_and_optimal_at_min_ii(self):
        loop = resolve_loop("spec92:ora/ora_trace", MACHINE)
        with recording() as rec:
            result = portfolio_pipeline_loop(loop, MACHINE, PortfolioOptions())
            counters = dict(rec.counters)
        assert not result.fallback_used
        assert result.ii == result.min_ii == 82
        assert result.optimal
        assert result.winning_backend == "cp"
        (probe,) = result.probes
        assert probe.answer == SAT
        # The fail-first order runs out its 20,000 nodes; FDMS decides.
        assert probe.nodes == 20_000 + 6_851
        assert probe.detail == "order=FDMS restarts=1"
        assert counters["portfolio.cp.restarts"] == 1

    def test_every_order_node_exhausted_is_unknown(self):
        loop, f = _formulation("spec92:tomcatv/tomcatv_main", 23)
        orders = production_orders(loop, MACHINE)
        answer = solve_cp(f, max_nodes=2_000, orders=orders)
        distinct = len(_distinct_orders(f, orders))
        assert distinct == 5
        assert answer.answer == UNKNOWN
        # A full cap per order: the showdown's ran_out_of_budget reads
        # nodes >= max_nodes as node-exhausted, not clock-stopped.
        assert answer.nodes == distinct * 2_000
        assert answer.detail.startswith(f"restarts={distinct - 1} stopped=nodes;")

    def test_clock_stopped_order_starts_no_further_order(self):
        loop, f = _formulation("spec92:tomcatv/tomcatv_main", 23)
        answer = solve_cp(
            f, time_limit=0.0, max_nodes=20_000,
            orders=production_orders(loop, MACHINE),
        )
        assert answer.answer == UNKNOWN
        assert answer.nodes == _CLOCK_STRIDE  # the first clock check fired
        assert answer.detail.startswith("restarts=0 stopped=clock;")

    def test_clock_expiring_between_orders_reads_as_a_clock_stop(self, monkeypatch):
        # The first order runs out of nodes (no clock check below node 256);
        # the clock then reads past the deadline, so no second order starts.
        # Its nodes are one cap, yet the answer must not pass for node-exhausted.
        loop, f = _formulation("spec92:tomcatv/tomcatv_main", 23)
        clock = {"now": 0.0}
        monkeypatch.setattr(cp, "time", SimpleNamespace(perf_counter=lambda: clock["now"]))
        run = _Search.run

        def run_then_tick(search, max_nodes, stop_at):
            status = run(search, max_nodes, stop_at)
            clock["now"] += 2.0
            return status

        monkeypatch.setattr(_Search, "run", run_then_tick)
        answer = solve_cp(
            f, time_limit=1.0, max_nodes=200, orders=production_orders(loop, MACHINE)
        )
        assert answer.answer == UNKNOWN
        assert answer.nodes == 200
        assert answer.detail.startswith("restarts=0 stopped=clock;")

    def test_restarts_never_turn_unknown_into_unsat(self):
        # rb_fan5 is infeasible at II 17 (the fail-first order proves it at
        # node 11,078, FDMS at 759), but no order finishes in 500 nodes.
        loop, f = _formulation("recbound:rb_fan5", 17)
        orders = production_orders(loop, MACHINE)
        assert solve_cp(f, max_nodes=200_000).answer == UNSAT
        answer = solve_cp(f, max_nodes=500, orders=orders)
        assert answer.answer == UNKNOWN
        assert answer.nodes == len(_distinct_orders(f, orders)) * 500
        proven = solve_cp(f, max_nodes=2_000, orders=orders)
        assert proven.answer == UNSAT
        assert proven.detail.startswith("order=FDMS restarts=1;")

    def test_definitive_answers_match_one_large_budget_run(self):
        loops = [lp for lp in livermore_kernels(MACHINE) + recbound_kernels(MACHINE)
                 if lp.n_ops <= 20]
        for loop in loops:
            orders = production_orders(loop, MACHINE)
            mii = min_ii(loop, MACHINE)
            for ii in range(max(1, mii - 1), mii + 2):
                f = build_modulo_formulation(loop, MACHINE, ii)
                if f.infeasible:
                    continue
                restarted = solve_cp(f, max_nodes=30, orders=orders)
                if not restarted.definitive:
                    continue
                reference = solve_cp(f, max_nodes=200_000)
                assert restarted.answer == reference.answer, (loop.name, ii)
                if restarted.answer == SAT:
                    assert check_witness(f, restarted.times) == []

    def test_first_order_decides_alone(self, machine, daxpy):
        f = build_modulo_formulation(daxpy, machine, min_ii(daxpy, machine))
        alone = solve_cp(f)
        restarted = solve_cp(f, orders=production_orders(daxpy, machine))
        assert restarted.answer == SAT
        assert (restarted.times, restarted.nodes) == (alone.times, alone.nodes)
        assert restarted.detail == f"order={DEFAULT_ORDER_NAME} restarts=0"


class TestOptionsValidation:
    def test_cross_check_of_one_backend_is_an_error(self):
        with pytest.raises(ValueError, match="at least two backends"):
            PortfolioOptions(cross_check=True)
        with pytest.raises(ValueError, match="at least two backends"):
            PortfolioOptions.from_dict({"backends": "ilp", "cross_check": True})
        assert PortfolioOptions(backends="cp,ilp", cross_check=True).cross_check

    def test_cross_check_of_one_usable_backend_is_an_error(self, monkeypatch, daxpy):
        # Without z3, "cp,smt" leaves CP alone: nothing to cross-check it against.
        monkeypatch.setattr(portfolio_driver, "smt_available", lambda: False)
        options = PortfolioOptions(backends="cp,smt", cross_check=True)
        with pytest.raises(ValueError, match="at least two usable backends"):
            portfolio_pipeline_loop(daxpy, MACHINE, options)

    def test_defaults_race_cp_alone(self):
        options = PortfolioOptions()
        assert options.backend_names() == ["cp"]
        assert options.max_nodes == 20_000


def _committed_loops():
    loops = livermore_kernels(MACHINE) + recbound_kernels(MACHINE)
    for bench in spec92_suite(MACHINE):
        loops.extend(bench.loops)
    return loops


def test_no_corpus_probe_stops_on_the_clock():
    # The showdown's portfolio-corpus options.  Its compile_s counts a loop
    # in wall seconds only when a probe stopped on the clock; every CP
    # unknown on the corpus must be node-exhausted, well inside the budget.
    options = PortfolioOptions(priority_branching=False)
    unknowns = 0
    for loop in _committed_loops():
        result = portfolio_pipeline_loop(loop, MACHINE, options, verify=False)
        for probe in result.probes:
            if probe.backend == "cp" and probe.answer == UNKNOWN:
                unknowns += 1
                assert "stopped=nodes" in probe.detail, (loop.name, probe.ii)
                assert probe.nodes >= options.max_nodes, (loop.name, probe.ii)
    assert unknowns > 0  # tomcatv_main's IIs 23-24


class _FullScanSearch(_Search):
    """The oracle: check every unfixed op for a live slot after each
    placement, as the search did before the incremental check."""

    def _suspects(self, placed, trail):
        return range(self.n)


def _sweep():
    for loop in _committed_loops():
        if loop.n_ops > 80:
            continue
        orders = production_orders(loop, MACHINE)
        mii = min_ii(loop, MACHINE)
        for ii in range(mii, mii + 4):
            f = build_modulo_formulation(loop, MACHINE, ii)
            if f.infeasible:
                continue
            yield loop.name, f, [default_order(f)] + list(orders.values())


def test_incremental_live_slot_check_is_bit_identical_to_full_scan():
    probes = 0
    for name, f, orders in _sweep():
        for order in orders:
            fast, full = _Search(f, order), _FullScanSearch(f, order)
            status = fast.run(1_000, None)
            assert status == full.run(1_000, None), (name, f.ii)
            assert (fast.nodes, fast.conflicts, fast.propagations) == (
                full.nodes, full.conflicts, full.propagations,
            ), (name, f.ii)
            if status == SAT:
                assert fast.lo == full.lo, (name, f.ii)
            probes += 1
    assert probes == 1_100
