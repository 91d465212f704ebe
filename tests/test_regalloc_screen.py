"""The sweep-built interference graph and the MaxLive allocation screen.

``InterferenceGraph.build`` must give exactly the adjacency of the pairwise
``LiveRange.overlaps`` definition, kept here as the reference.  The screen
(``exceeds_register_file``) must only reject schedules whose allocation
fails, and MaxLive must never exceed the colours a successful allocation
uses.  Both are checked on random ranges and on Rau and SGI schedules of
every committed loop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import pipeline_loop
from repro.core.bnb import BnBConfig, modulo_schedule_bnb
from repro.core.minii import min_ii
from repro.core.pipestage import adjust_pipestages
from repro.core.priorities import production_orders
from repro.core.sched import Schedule
from repro.exec.cells import corpus_entries
from repro.ir import RegClass
from repro.machine import r8000
from repro.obs import recording
from repro.rau.scheduler import iterative_modulo_schedule, rau_pipeline_loop
from repro.regalloc import (
    InterferenceGraph,
    LiveRange,
    allocate_schedule,
    exceeds_register_file,
    rename_kernel,
)


def pairwise_adjacency(ranges, period):
    """The reference: every pair of ranges tested with ``overlaps``."""
    adjacency = {r.name: set() for r in ranges}
    for i, a in enumerate(ranges):
        for b in ranges[i + 1 :]:
            if a.overlaps(b, period):
                adjacency[a.name].add(b.name)
                adjacency[b.name].add(a.name)
    return adjacency


def naive_max_live(renamed, reg_class):
    """Most ranges of a class live in one cycle of the unrolled kernel."""
    period = renamed.period
    return max(
        sum(
            1
            for r in renamed.ranges
            if r.reg_class is reg_class
            and (r.length >= period or (cycle - r.start) % period < r.length)
        )
        for cycle in range(period)
    )


@st.composite
def cyclic_ranges(draw):
    period = draw(st.integers(1, 24))
    spans = draw(
        st.lists(
            st.tuples(st.integers(0, period - 1), st.integers(1, period + 2)),
            max_size=14,
        )
    )
    ranges = [
        LiveRange(f"r{i}", f"r{i}", RegClass.FP, start, length, 1, length)
        for i, (start, length) in enumerate(spans)
    ]
    return ranges, period


class TestSweepBuild:
    @given(cyclic_ranges())
    def test_random_ranges_match_pairwise_reference(self, case):
        ranges, period = case
        graph = InterferenceGraph.build(ranges, period)
        assert graph.adjacency == pairwise_adjacency(ranges, period)
        assert graph.nodes == ranges

    def test_empty_class(self):
        graph = InterferenceGraph.build([], 8)
        assert graph.nodes == [] and graph.adjacency == {}

    def test_boundary_lengths(self):
        ranges = [
            LiveRange("wrap", "wrap", RegClass.FP, 6, 4, 1, 4),  # [6,8)+[0,2)
            LiveRange("exact", "exact", RegClass.FP, 3, 8, 1, 8),  # == period
            LiveRange("long", "long", RegClass.FP, 5, 11, 1, 11),  # > period
            LiveRange("near", "near", RegClass.FP, 2, 1, 1, 1),
            LiveRange("touch", "touch", RegClass.FP, 1, 1, 1, 1),
        ]
        graph = InterferenceGraph.build(ranges, 8)
        assert graph.adjacency == pairwise_adjacency(ranges, 8)
        assert graph.adjacency["wrap"] == {"exact", "long", "touch"}


def _sgi_schedules(loop, machine, iis):
    order_name, order = next(iter(production_orders(loop, machine).items()))
    for ii in iis:
        found = modulo_schedule_bnb(loop, machine, ii, order, BnBConfig())
        if found.success:
            times = adjust_pipestages(loop, ii, found.times)
            yield Schedule(
                loop=loop, machine=machine, ii=ii, times=times,
                producer=f"sgi/{order_name}",
            )


def _rau_schedules(loop, machine, iis):
    for ii in iis:
        times = iterative_modulo_schedule(loop, machine, ii)
        if times is not None:
            yield Schedule(loop=loop, machine=machine, ii=ii, times=times, producer="rau94")


@pytest.fixture(scope="module")
def corpus_schedules():
    """(key, schedule) for Rau and SGI schedules at MinII..MinII+3 of every
    committed loop, where they exist; a loop with none there contributes
    the SGI pipeliner's schedule."""
    machine = r8000()
    schedules = []
    for key, loop in corpus_entries("all", machine):
        mii = min_ii(loop, machine)
        iis = range(mii, mii + 4)
        found = [*_sgi_schedules(loop, machine, iis), *_rau_schedules(loop, machine, iis)]
        if not found:
            found = [pipeline_loop(loop, machine).schedule]
        schedules.extend((key, schedule) for schedule in found)
    return machine, schedules


def test_every_loop_has_a_schedule(corpus_schedules):
    machine, schedules = corpus_schedules
    assert {key for key, _ in schedules} == {
        key for key, _ in corpus_entries("all", machine)
    }


def test_sweep_matches_pairwise_on_corpus_schedules(corpus_schedules):
    _, schedules = corpus_schedules
    for key, schedule in schedules:
        renamed = rename_kernel(schedule)
        for reg_class in RegClass:
            ranges = [r for r in renamed.ranges if r.reg_class is reg_class]
            graph = InterferenceGraph.build(ranges, renamed.period)
            assert graph.adjacency == pairwise_adjacency(ranges, renamed.period), (
                key, schedule.ii, reg_class,
            )


def test_screen_is_sound_on_corpus_schedules(corpus_schedules):
    machine, schedules = corpus_schedules
    screened = 0
    for key, schedule in schedules:
        where = (key, schedule.producer, schedule.ii)
        renamed = rename_kernel(schedule)
        for reg_class in RegClass:
            assert renamed.max_live[reg_class] == naive_max_live(renamed, reg_class), where
        allocation = allocate_schedule(schedule, machine)
        if exceeds_register_file(schedule, machine):
            screened += 1
            assert not allocation.success, where
        if allocation.success:
            assert renamed.max_live[RegClass.FP] <= allocation.fp_used, where
            assert renamed.max_live[RegClass.INT] <= allocation.int_used, where
    assert screened > 0  # the corpus exercises the rejecting side


def test_rau_on_mdljdp2_is_unchanged_by_the_screen():
    machine = r8000()
    loop = dict(corpus_entries("spec92", machine))["spec92:mdljdp2/mdljdp2_force"]
    with recording() as rec:
        result = rau_pipeline_loop(loop, machine)
    assert not result.success
    assert result.stats.attempts == 485
    assert result.stats.placements == 84_406
    assert result.spilled == [
        "cut1", "cut2", "v46", "v59", "v33", "v87", "v9", "v8", "v7", "v20",
        "v88", "v67", "v65", "cc", "sw", "v34", "v47", "v60", "v76", "v74",
        "v15", "v82", "v77", "v69", "v66", "v54", "v41", "v71", "v28", "v78",
        "v24", "v64", "v75", "v62", "v37", "v50", "v63", "v21", "v61", "v80",
        "v14",
    ]
    # Each spill round colours its first failure; the screen proves the rest.
    assert rec.counters["regalloc.screened"] > rec.counters["regalloc.colorings"]
