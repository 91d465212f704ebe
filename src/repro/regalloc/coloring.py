"""Chaitin-Briggs graph colouring over cyclic live ranges (Section 2.6).

The modulo-renamed live ranges feed "a standard global register allocator
that uses the Chaitin-Briggs algorithm with minor modifications"
[BrCoKeTo89, Briggs92]: build the interference graph, *simplify* by
repeatedly removing nodes of insignificant degree, push potential spills
optimistically, then *select* colours in reverse order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..ir.operations import RegClass
from ..obs import get_recorder
from .rename import LiveRange, RenamedKernel, rename_kernel


@dataclass
class InterferenceGraph:
    """Interference graph over one register class's live ranges."""

    nodes: List[LiveRange]
    adjacency: Dict[str, Set[str]]

    @classmethod
    def build(cls, ranges: Sequence[LiveRange], period: int) -> "InterferenceGraph":
        """Edges between every pair of cyclically overlapping ranges.

        Two ranges shorter than the period overlap exactly when one's start
        lies in the other's interval, so each range looks up, by bisection
        among the starts, the ranges starting inside its own cyclic window.
        A range covering the whole period interferes with every other one.
        """
        nodes = list(ranges)
        adjacency: Dict[str, Set[str]] = {r.name: set() for r in nodes}

        def link(i: int, j: int) -> None:
            adjacency[nodes[i].name].add(nodes[j].name)
            adjacency[nodes[j].name].add(nodes[i].name)

        for i, r in enumerate(nodes):
            if r.length >= period:
                for j in range(len(nodes)):
                    if j != i:
                        link(i, j)
        short = sorted(
            (r.start % period, i) for i, r in enumerate(nodes) if r.length < period
        )
        # Starts over two laps, so a window wrapping past the period is one
        # slice; a window shorter than the period meets each range once.
        laps = short + [(start + period, i) for start, i in short]
        starts = [start for start, _ in laps]
        for start, i in short:
            end = start + nodes[i].length
            for _, j in laps[bisect_left(starts, start) : bisect_left(starts, end)]:
                if j != i:
                    link(i, j)
        return cls(nodes=nodes, adjacency=adjacency)

    def degree(self, name: str) -> int:
        return len(self.adjacency[name])


@dataclass
class ColoringResult:
    assignment: Dict[str, int]  # live-range name -> colour
    uncolored: List[LiveRange]

    @property
    def success(self) -> bool:
        return not self.uncolored

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment.values())) if self.assignment else 0


def color_graph(graph: InterferenceGraph, k: int) -> ColoringResult:
    """Colour with at most ``k`` colours; optimistic (Briggs) spilling."""
    by_name = {r.name: r for r in graph.nodes}
    remaining: Set[str] = set(by_name)
    degree = {name: len(graph.adjacency[name] & remaining) for name in remaining}
    stack: List[str] = []
    simplify_steps = 0
    optimistic_pushes = 0

    while remaining:
        # Simplify: any node with degree < k is trivially colourable.
        trivial = [n for n in remaining if degree[n] < k]
        if trivial:
            # Deterministic order; removing low-degree nodes first.
            node = min(trivial, key=lambda n: (degree[n], n))
            simplify_steps += 1
        else:
            # Potential spill: push the worst cost/benefit node optimistically.
            node = max(remaining, key=lambda n: (by_name[n].spill_ratio, degree[n], n))
            optimistic_pushes += 1
        remaining.discard(node)
        stack.append(node)
        for neigh in graph.adjacency[node]:
            if neigh in remaining:
                degree[neigh] -= 1

    assignment: Dict[str, int] = {}
    uncolored: List[LiveRange] = []
    for node in reversed(stack):
        taken = {
            assignment[neigh]
            for neigh in graph.adjacency[node]
            if neigh in assignment
        }
        color = next((c for c in range(k) if c not in taken), None)
        if color is None:
            uncolored.append(by_name[node])
        else:
            assignment[node] = color
    rec = get_recorder()
    if rec.enabled:
        rec.counter("regalloc.colorings")
        rec.counter("regalloc.simplify_steps", simplify_steps)
        rec.counter("regalloc.optimistic_pushes", optimistic_pushes)
        rec.counter("regalloc.uncolored", len(uncolored))
    return ColoringResult(assignment=assignment, uncolored=uncolored)


@dataclass
class AllocationResult:
    """Outcome of register allocation for a modulo schedule."""

    success: bool
    kmin: int
    fp_assignment: Dict[str, int]
    int_assignment: Dict[str, int]
    fp_used: int
    int_used: int
    uncolored: List[LiveRange] = field(default_factory=list)
    renamed: Optional[RenamedKernel] = None

    @property
    def registers_used(self) -> int:
        """Total registers, the static measure of Figure 7."""
        return self.fp_used + self.int_used


def allocate(renamed: RenamedKernel, fp_regs: int, int_regs: int) -> AllocationResult:
    """Allocate registers for a renamed kernel; both classes must fit."""
    period = renamed.period
    results: Dict[RegClass, ColoringResult] = {}
    for reg_class, k in ((RegClass.FP, fp_regs), (RegClass.INT, int_regs)):
        ranges = [r for r in renamed.ranges if r.reg_class is reg_class]
        graph = InterferenceGraph.build(ranges, period)
        results[reg_class] = color_graph(graph, k)
    fp_result = results[RegClass.FP]
    int_result = results[RegClass.INT]
    uncolored = fp_result.uncolored + int_result.uncolored
    return AllocationResult(
        success=not uncolored,
        kmin=renamed.kmin,
        fp_assignment=fp_result.assignment,
        int_assignment=int_result.assignment,
        fp_used=fp_result.colors_used,
        int_used=int_result.colors_used,
        uncolored=uncolored,
        renamed=renamed,
    )


def allocate_schedule(schedule, machine) -> AllocationResult:
    """Convenience wrapper: rename then allocate against a machine's files."""
    with get_recorder().span(
        "regalloc.allocate", loop=schedule.loop.name, ii=schedule.ii
    ):
        renamed = rename_kernel(schedule)
        return allocate(renamed, machine.fp_regs, machine.int_regs)


def exceeds_register_file(schedule, machine) -> bool:
    """True when MaxLive alone proves ``schedule`` unallocatable.

    The ranges live in one cycle pairwise overlap, so they form a clique
    of the interference graph; a class with more of them than registers
    cannot be coloured, and :func:`allocate_schedule` would return
    ``success=False``.  Callers that read only ``.success`` of a failed
    allocation skip it when this holds.
    """
    max_live = rename_kernel(schedule).max_live
    screened = (
        max_live[RegClass.FP] > machine.fp_regs
        or max_live[RegClass.INT] > machine.int_regs
    )
    if screened:
        get_recorder().counter("regalloc.screened")
    return screened
