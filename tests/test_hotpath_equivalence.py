"""Differential tests of the raw-speed campaign's hot-path rewrites.

The campaign's contract is *bit-identical outcomes, only speed moves*:

* :class:`PackedModuloReservationTable` must agree with the original
  :class:`DictModuloReservationTable` (kept in ``tests/reference_tables.py``)
  on every ``fits/place/remove/used_at``
  observation — hypothesis drives random reservation tables, IIs and
  availability maps through identical operation sequences on both;
* memoized :class:`SccDistanceTables` (parametric Pareto profiles) must
  match the per-II Floyd-Warshall on every corpus loop at MinII..MinII+4;
* the branch-and-bound scheduler must produce identical schedules *and*
  identical search effort (placements/backtracks/prunes) with the dict
  tables swapped back in underneath it.

A regression test for the ``_mem_at_slot`` fix rides along: the old
``List.remove`` bookkeeping corrupted co-resident-memory-op tracking when
one op cycled through place/unplace repeatedly under backtracking.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.bnb import BnBConfig, _Attempt
from repro.core.distances import SccDistanceTables
from repro.core.minii import min_ii
from repro.core.priorities import production_orders
from repro.machine.descriptions import r8000
from repro.machine.resources import (
    PackedModuloReservationTable,
    ReservationTable,
    ResourceUse,
)
from repro.workloads.livermore import livermore_kernels
from repro.workloads.recbound import recbound_kernels
from repro.workloads.spec92 import spec92_suite

from .reference_tables import DictModuloReservationTable, FloydWarshallDistances

MACHINE = r8000()

RESOURCES = ("issue", "mem", "fp", "fpdiv")

# A random reservation table: 1-5 uses over offsets 0-6, counts 1-3.
tables_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from(RESOURCES), st.integers(1, 3)),
    min_size=1,
    max_size=5,
).map(lambda uses: ReservationTable(ResourceUse(o, r, c) for o, r, c in uses))

availability_strategy = st.fixed_dictionaries(
    {name: st.integers(0 if name == "fpdiv" else 1, 4) for name in RESOURCES}
)

# An operation script: (table_index, cycle) probes; each probe tries to
# place if it fits, and every third successful placement is removed again.
script_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-20, 40)), min_size=1, max_size=40
)


class TestPackedVsDictMrt:
    @given(
        st.lists(tables_strategy, min_size=4, max_size=4),
        availability_strategy,
        st.integers(1, 12),
        script_strategy,
    )
    @settings(max_examples=200)
    def test_fits_place_remove_used_at_agree(self, tables, avail, ii, script):
        packed = PackedModuloReservationTable(ii, avail)
        plain = DictModuloReservationTable(ii, avail)
        placed = []
        for step, (t, cycle) in enumerate(script):
            table = tables[t]
            assert packed.fits(table, cycle) == plain.fits(table, cycle)
            if packed.fits(table, cycle):
                packed.place(table, cycle)
                plain.place(table, cycle)
                placed.append((table, cycle))
            if step % 3 == 2 and placed:
                table, cycle = placed.pop()
                packed.remove(table, cycle)
                plain.remove(table, cycle)
            for slot in range(ii):
                for resource in RESOURCES:
                    assert packed.used_at(slot, resource) == plain.used_at(slot, resource)

    @given(
        tables_strategy,
        availability_strategy,
        st.integers(1, 10),
        st.integers(-10, 20),
    )
    @settings(max_examples=200)
    def test_blocked_mask_matches_per_slot_probing(self, table, avail, ii, cycle):
        packed = PackedModuloReservationTable(ii, avail)
        if packed.fits(table, cycle):
            packed.place(table, cycle)
        lt = packed.lower(table)
        mask = packed.blocked_mask(lt)
        for slot in range(ii):
            assert bool((mask >> slot) & 1) == (not packed.fits_lowered(lt, slot))

    @given(tables_strategy, availability_strategy, st.integers(1, 8))
    @settings(max_examples=100)
    def test_remove_unplaced_raises_in_both(self, table, avail, ii):
        import pytest

        packed = PackedModuloReservationTable(ii, avail)
        plain = DictModuloReservationTable(ii, avail)
        with pytest.raises(ValueError):
            packed.remove(table, 0)
        with pytest.raises(ValueError):
            plain.remove(table, 0)

    def test_unknown_resource_raises_keyerror_in_both(self):
        import pytest

        table = ReservationTable.simple("warp_drive")
        for cls in (PackedModuloReservationTable, DictModuloReservationTable):
            mrt = cls(4, {"mem": 2})
            with pytest.raises(KeyError):
                mrt.fits(table, 0)

    def test_copy_is_independent_in_both(self):
        table = ReservationTable.simple("mem")
        for cls in (PackedModuloReservationTable, DictModuloReservationTable):
            mrt = cls(4, {"mem": 1})
            mrt.place(table, 0)
            clone = mrt.copy()
            clone.remove(table, 0)
            assert mrt.used_at(0, "mem") == 1
            assert clone.used_at(0, "mem") == 0


def _corpus():
    loops = livermore_kernels(MACHINE) + recbound_kernels(MACHINE)
    for bench in spec92_suite(MACHINE):
        loops.extend(bench.loops)
    return loops


class TestMemoizedDistances:
    def test_matches_per_ii_floyd_warshall_on_every_corpus_loop(self):
        for loop in _corpus():
            mii = min_ii(loop, MACHINE)
            for ii in range(mii, mii + 5):
                memoized = SccDistanceTables(loop, ii)
                legacy = FloydWarshallDistances(loop, ii)
                assert memoized.feasible == legacy.feasible, (loop.name, ii)
                for scc in loop.ddg.nontrivial_sccs():
                    for src in scc:
                        for dst in scc:
                            assert memoized.dist(src, dst) == legacy.dist(src, dst), (
                                loop.name,
                                ii,
                                src,
                                dst,
                            )

    def test_memo_is_shared_across_instances_of_one_loop(self):
        loop = next(lp for lp in livermore_kernels(MACHINE) if lp.ddg.nontrivial_sccs())
        SccDistanceTables.prime(loop)
        memo = loop.ddg._distance_memo
        SccDistanceTables(loop, min_ii(loop, MACHINE))
        assert loop.ddg._distance_memo is memo


class TestBnBWithDictTables:
    def test_search_outcome_identical_under_dict_tables(self, monkeypatch):
        """Swap the dict MRT underneath the B&B: same schedule, same effort."""
        import repro.core.bnb as bnb_module

        loops = livermore_kernels(MACHINE)[:8]
        results = {}
        for label, impl in (
            ("packed", PackedModuloReservationTable),
            ("dict", DictModuloReservationTable),
        ):
            monkeypatch.setattr(bnb_module, "ModuloReservationTable", impl)
            per_loop = {}
            for loop in loops:
                ii = min_ii(loop, MACHINE)
                order = production_orders(loop, MACHINE)["FDMS"]
                attempt = _Attempt(loop, MACHINE, ii, order, BnBConfig(), None)
                result = attempt.run()
                per_loop[loop.name] = (
                    result.times,
                    result.placements,
                    result.backtracks,
                    dict(result.prunes),
                    result.max_depth,
                )
            results[label] = per_loop
        assert results["packed"] == results["dict"]


class TestMemAtSlotRegression:
    def test_place_unplace_churn_keeps_slot_tracking_exact(self):
        """Regression for the ``List.remove`` bookkeeping in ``_mem_at_slot``.

        Two memory ops sharing a modulo slot, with one cycling through
        place/unplace as happens under backtracking: the co-residency map
        feeding ``_cycle_is_risky`` must track exactly the placed ops
        (the count-aware structure also makes unplace O(1) instead of a
        linear list scan).
        """
        loop = next(
            lp
            for lp in livermore_kernels(MACHINE)
            if sum(op.is_memory for op in lp.ops) >= 2
        )
        ii = min_ii(loop, MACHINE)
        order = production_orders(loop, MACHINE)["FDMS"]
        attempt = _Attempt(loop, MACHINE, ii, order, BnBConfig(), None)
        a, b = [op for op in range(loop.n_ops) if attempt._is_mem[op]][:2]
        slot = 3 % ii
        attempt._place(a, slot)
        attempt._place(b, slot + ii)  # same modulo slot, different cycle
        assert attempt._mem_at_slot[slot] == {a: 1, b: 1}
        for _ in range(3):  # backtracking churn on ``a`` only
            attempt._unplace(a)
            assert attempt._mem_at_slot[slot] == {b: 1}
            attempt._place(a, slot)
        assert attempt._mem_at_slot[slot] == {a: 1, b: 1}
        attempt._unplace(b)
        attempt._unplace(a)
        assert attempt._mem_at_slot[slot] == {}
