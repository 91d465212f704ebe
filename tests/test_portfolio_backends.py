"""The CP and ILP portfolio backends: three-valued answers, determinism."""

from __future__ import annotations

import pytest

from repro.core import min_ii
from repro.ir import LoopBuilder
from repro.machine import single_issue
from repro.portfolio import build_modulo_formulation, check_witness
from repro.portfolio.answer import SAT, UNKNOWN, UNSAT, BackendAnswer
from repro.portfolio.cp import _Search, default_order, solve_cp
from repro.portfolio.ilp_backend import solve_ilp
from repro.workloads.livermore import livermore_kernels

from .conftest import build_daxpy, build_divider, build_recurrence_chain, build_sdot


def build_two_loads(machine):
    """Two independent loads: res_mii = 2 on a single-issue machine."""
    b = LoopBuilder("twoloads", machine=machine, trip_count=100)
    x = b.load("x", offset=0, stride=8)
    y = b.load("y", offset=0, stride=8)
    b.store("out", b.fadd(x, y), offset=0, stride=8)
    return b.build()


class TestCpBackend:
    @pytest.mark.parametrize(
        "builder", [build_daxpy, build_sdot, build_recurrence_chain, build_divider]
    )
    def test_sat_witness_passes_independent_check(self, machine, builder):
        loop = builder(machine)
        ii = min_ii(loop, machine)
        f = build_modulo_formulation(loop, machine, ii)
        answer = solve_cp(f)
        assert answer.answer == SAT
        assert answer.definitive
        assert check_witness(f, answer.times) == []

    def test_unsat_below_res_mii_is_proven(self):
        machine = single_issue()
        loop = build_two_loads(machine)
        assert min_ii(loop, machine) >= 2
        f = build_modulo_formulation(loop, machine, 1)
        if f.infeasible:
            pytest.skip("screened before search")
        answer = solve_cp(f)
        assert answer.answer == UNSAT  # exhaustive, not a budget artifact

    def test_unknown_on_node_budget(self, machine):
        loop = build_sdot(machine)
        ii = min_ii(loop, machine)
        f = build_modulo_formulation(loop, machine, ii)
        answer = solve_cp(f, max_nodes=1)
        assert answer.answer == UNKNOWN
        assert not answer.definitive
        assert answer.nodes <= 1

    def test_deterministic_across_runs(self, machine, rec1):
        ii = min_ii(rec1, machine)
        f = build_modulo_formulation(rec1, machine, ii)
        a = solve_cp(f)
        b = solve_cp(build_modulo_formulation(rec1, machine, ii))
        assert a.answer == b.answer == SAT
        assert a.times == b.times
        assert a.nodes == b.nodes

    def test_infeasible_formulation_short_circuits(self, machine, sdot):
        f = build_modulo_formulation(sdot, machine, 1, stages=1)
        answer = solve_cp(f)
        assert answer.answer == UNSAT
        assert answer.nodes == 0
        assert f.infeasible_reason in answer.detail

    def test_fail_first_order_is_width_sorted(self, machine, daxpy):
        ii = min_ii(daxpy, machine)
        f = build_modulo_formulation(daxpy, machine, ii)
        order = default_order(f)
        widths = [f.windows[op][1] - f.windows[op][0] for op in order]
        assert widths == sorted(widths)
        assert sorted(order) == list(range(f.n_ops))

    def test_own_table_slot_collision_regression(self, machine, divloop):
        """One op's long reservation table colliding with *itself* in a
        modulo slot must be rejected (the lk15 fpdiv bug): every sat the
        CP returns on a divide loop must survive the independent check.
        """
        mii = min_ii(divloop, machine)
        for ii in range(mii, mii + 3):
            f = build_modulo_formulation(divloop, machine, ii)
            if f.infeasible:
                continue
            answer = solve_cp(f)
            if answer.answer == SAT:
                assert check_witness(f, answer.times) == []

    def test_explicit_order_decides_when_fail_first_runs_out(self, machine):
        # lk07_eos at MinII: fail-first needs 59 nodes, the identity order 34.
        loop = next(lp for lp in livermore_kernels(machine) if lp.name == "lk07_eos")
        f = build_modulo_formulation(loop, machine, min_ii(loop, machine))
        identity = list(range(f.n_ops))
        answer = solve_cp(f, max_nodes=40, orders={"identity": identity})
        assert answer.answer == SAT
        assert answer.detail == "order=identity restarts=1"
        assert answer.nodes == 40 + 34
        alone = _Search(f, identity)
        assert alone.run(40, None) == SAT
        assert answer.times == dict(enumerate(alone.lo))
        assert check_witness(f, answer.times) == []


class TestIlpBackend:
    def test_sat_witness_passes_independent_check(self, machine, daxpy):
        ii = min_ii(daxpy, machine)
        f = build_modulo_formulation(daxpy, machine, ii)
        answer = solve_ilp(f, daxpy, time_limit=10.0)
        assert answer.answer == SAT
        assert check_witness(f, answer.times) == []

    def test_unsat_below_res_mii(self):
        machine = single_issue()
        loop = build_two_loads(machine)
        f = build_modulo_formulation(loop, machine, 1)
        if f.infeasible:
            pytest.skip("screened before solve")
        answer = solve_ilp(f, loop, time_limit=10.0)
        assert answer.answer == UNSAT

    def test_unknown_on_node_budget(self, machine, sdot):
        ii = min_ii(sdot, machine)
        f = build_modulo_formulation(sdot, machine, ii)
        answer = solve_ilp(f, sdot, max_nodes=0)
        assert answer.answer == UNKNOWN
        assert "limit" in answer.detail

    def test_infeasible_formulation_short_circuits(self, machine, sdot):
        f = build_modulo_formulation(sdot, machine, 1, stages=1)
        answer = solve_ilp(f, sdot)
        assert answer.answer == UNSAT
        assert answer.nodes == 0

    def test_branch_priority_accepted(self, machine, daxpy):
        from repro.core.priorities import production_orders

        ii = min_ii(daxpy, machine)
        f = build_modulo_formulation(daxpy, machine, ii)
        order = next(iter(production_orders(daxpy, machine).values()))
        answer = solve_ilp(f, daxpy, time_limit=10.0, branch_priority=order)
        assert answer.answer == SAT
        assert check_witness(f, answer.times) == []


class TestAnswerSemantics:
    def test_definitive_property(self):
        assert BackendAnswer(backend="cp", answer=SAT).definitive
        assert BackendAnswer(backend="cp", answer=UNSAT).definitive
        assert not BackendAnswer(backend="cp", answer=UNKNOWN).definitive

    def test_cp_and_ilp_agree_where_both_definitive(self, machine):
        for builder in (build_daxpy, build_recurrence_chain, build_divider):
            loop = builder(machine)
            mii = min_ii(loop, machine)
            for ii in (max(1, mii - 1), mii):
                f = build_modulo_formulation(loop, machine, ii)
                if f.infeasible:
                    continue
                cp = solve_cp(f, max_nodes=50_000, time_limit=2.0)
                ilp = solve_ilp(f, loop, max_nodes=20_000, time_limit=2.0)
                if cp.definitive and ilp.definitive:
                    assert cp.answer == ilp.answer, (loop.name, ii)
