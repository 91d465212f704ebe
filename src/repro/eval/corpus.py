"""Corpus statistics: what the workload suites look like to a scheduler.

Summarises, per loop, the quantities that determine pipelining behaviour —
operation mix, memory reference count, recurrence structure, ResMII/RecMII
— so workload changes can be reviewed at a glance and documentation stays
honest about what each benchmark exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.minii import min_ii, rec_mii, res_mii
from ..exec.cells import corpus_entries
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from .report import Table


@dataclass(frozen=True)
class LoopProfile:
    """Scheduler-relevant shape of one loop."""

    name: str
    n_ops: int
    n_mem: int
    n_indirect: int
    n_fp: int
    n_recurrences: int
    res_mii: int
    rec_mii: int
    min_ii: int
    trip_count: int

    @property
    def bound(self) -> str:
        """Which lower bound dominates: resources or recurrences."""
        if self.rec_mii > self.res_mii:
            return "recurrence"
        if self.res_mii > self.rec_mii:
            return "resource"
        return "balanced"


def profile_loop(loop: Loop, machine: Optional[MachineDescription] = None) -> LoopProfile:
    machine = machine if machine is not None else r8000()
    mem_ops = loop.memory_ops()
    return LoopProfile(
        name=loop.name,
        n_ops=loop.n_ops,
        n_mem=len(mem_ops),
        n_indirect=sum(1 for op in mem_ops if not op.mem.is_direct),
        n_fp=sum(1 for op in loop.ops if op.opclass.is_float),
        n_recurrences=len(loop.ddg.nontrivial_sccs()),
        res_mii=res_mii(loop, machine),
        rec_mii=rec_mii(loop),
        min_ii=min_ii(loop, machine),
        trip_count=loop.trip_count,
    )


def corpus_table(
    loops: List[Loop], title: str, machine: Optional[MachineDescription] = None
) -> Table:
    table = Table(
        title,
        ["loop", "ops", "mem", "ind", "fp", "recs", "ResMII", "RecMII", "MinII", "bound", "trips"],
    )
    for loop in loops:
        p = profile_loop(loop, machine)
        table.add(
            p.name, p.n_ops, p.n_mem, p.n_indirect, p.n_fp, p.n_recurrences,
            p.res_mii, p.rec_mii, p.min_ii, p.bound, p.trip_count,
        )
    return table


def livermore_profile(machine: Optional[MachineDescription] = None) -> Table:
    loops = [loop for _, loop in corpus_entries("livermore", machine)]
    return corpus_table(loops, "Livermore kernel corpus", machine)


def spec92_profile(machine: Optional[MachineDescription] = None) -> Table:
    loops = [loop for _, loop in corpus_entries("spec92", machine)]
    return corpus_table(loops, "SPEC92fp-like loop corpus", machine)
