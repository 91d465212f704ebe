"""Modulo renaming (modulo variable expansion) and live-range construction.

The R8000 has no rotating register files, so the MIPSpro pipeliner borrows
Lam's *modulo renaming* (Section 2.6): if a value's lifetime exceeds II,
successive iterations' instances would clobber each other in a single
register, so the kernel is replicated ``kmin = max_v ceil(lifetime_v / II)``
times and each value gets one register per replica.

Live ranges are cyclic intervals on the unrolled kernel of ``U = kmin * II``
cycles; two ranges of the same register class interfere when their cyclic
intervals overlap.  Loop invariants are live for the whole kernel.

``RenamedKernel.max_live`` counts, per register class, the most ranges live
in one kernel cycle.  Ranges live in a common cycle pairwise overlap, so
they form a clique of the interference graph: no allocation with fewer
registers exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, NamedTuple, Tuple

from ..ir.ddg import Dependence, DepKind
from ..ir.loop import Loop
from ..ir.operations import OpClass, RegClass, result_reg_class
from ..core.sched import Schedule


@dataclass
class LiveRange:
    """One cyclic live interval on the unrolled kernel."""

    name: str  # renamed register, e.g. "v7@2"
    value: str  # the original virtual register
    reg_class: RegClass
    start: int  # cycle in [0, U)
    length: int  # cycles; U for invariants
    refs: int  # definition + uses, for the spill ratio of Section 2.8
    span: int  # the value's un-renamed lifetime in cycles
    is_invariant: bool = False
    carried: bool = False  # has a loop-carried use (not spillable simply)

    @property
    def spill_ratio(self) -> float:
        """Cycles spanned per reference: the spill priority of Section 2.8."""
        return self.span / max(self.refs, 1)

    def overlaps(self, other: "LiveRange", period: int) -> bool:
        """Cyclic interval overlap on a kernel of ``period`` cycles."""
        if self.length >= period or other.length >= period:
            return True
        return ((other.start - self.start) % period) < self.length or (
            (self.start - other.start) % period
        ) < other.length


def value_reg_class(loop: Loop, value: str) -> RegClass:
    """Register class of a virtual register.

    Values defined in the loop take the class of their defining operation's
    result; live-in values are integer only if used exclusively by integer
    operations (address arithmetic), floating-point otherwise.
    """
    for op in loop.ops:
        if value in op.dests:
            return result_reg_class(op.opclass)
    int_classes = (OpClass.IALU, OpClass.IMUL, OpClass.BRANCH)
    users = [op for op in loop.ops if value in op.srcs]
    if users and all(op.opclass in int_classes for op in users):
        return RegClass.INT
    return RegClass.FP


class ValueDef(NamedTuple):
    """A value defined in the loop body."""

    op: int  # defining operation index
    reg_class: RegClass
    uses: List[Dependence]  # flow arcs leaving the definition, in DDG order


def value_defs(loop: Loop) -> Dict[str, ValueDef]:
    """Every value the loop defines, in definition order, indexed in one
    pass over the DDG."""
    defs = loop.defs_of()
    uses: Dict[str, List[Dependence]] = {value: [] for value in defs}
    for arc in loop.ddg.arcs:
        if arc.kind is DepKind.FLOW and defs.get(arc.value) == arc.src:
            uses[arc.value].append(arc)
    return {
        value: ValueDef(d, result_reg_class(loop.ops[d].opclass), uses[value])
        for value, d in defs.items()
    }


@dataclass
class RenamedKernel:
    """The result of modulo renaming a schedule.

    ``ranges`` is built on first use, so a caller that needs only the
    pressure (``max_live``) never materialises the live ranges.
    """

    schedule: Schedule
    kmin: int  # kernel replication (unroll) factor
    lifetimes: Dict[str, int]  # original value -> lifetime in cycles
    max_live: Dict[RegClass, int]  # most ranges of a class live in one cycle
    values: Dict[str, ValueDef]
    invariants: Dict[str, Tuple[RegClass, int]]  # live-in -> (class, users)

    @property
    def period(self) -> int:
        return self.kmin * self.schedule.ii

    @cached_property
    def ranges(self) -> List[LiveRange]:
        """kmin replicas per defined value, then one range per invariant."""
        schedule, ii, period = self.schedule, self.schedule.ii, self.period
        ranges: List[LiveRange] = []
        for value, (d, cls, uses) in self.values.items():
            start = schedule.time(d)
            life = self.lifetimes[value]
            carried = any(arc.omega > 0 for arc in uses)
            for r in range(self.kmin):
                ranges.append(
                    LiveRange(
                        name=f"{value}@{r}",
                        value=value,
                        reg_class=cls,
                        start=(start + r * ii) % period,
                        length=life,
                        refs=1 + len(uses),
                        span=life,
                        carried=carried,
                    )
                )
        for value, (cls, used) in self.invariants.items():
            ranges.append(
                LiveRange(
                    name=f"{value}@in",
                    value=value,
                    reg_class=cls,
                    start=0,
                    length=period,
                    refs=used,
                    span=period,
                    is_invariant=True,
                )
            )
        return ranges


def rename_kernel(schedule: Schedule) -> RenamedKernel:
    """Compute the unroll factor, lifetimes and pressure for a schedule."""
    loop = schedule.loop
    ii = schedule.ii

    lifetimes: Dict[str, int] = {}
    defs = value_defs(loop)
    for value, (d, _, uses) in defs.items():
        start = schedule.time(d)
        end = max(
            (schedule.time(arc.dst) + ii * arc.omega for arc in uses),
            default=start + 1,  # dead in the kernel (result only needed at exit)
        )
        lifetimes[value] = max(end - start, 1)

    kmin = 1
    for value, life in lifetimes.items():
        kmin = max(kmin, math.ceil(life / ii))

    invariants: Dict[str, Tuple[RegClass, int]] = {}
    for value in sorted(loop.live_in):
        if value in defs:
            continue  # recurrences: the in-loop definition owns the register
        used = sum(1 for op in loop.ops if value in op.srcs)
        if used:
            invariants[value] = (value_reg_class(loop, value), used)

    # Per class: live instances in each modulo slot, as slot-to-slot
    # changes.  Every unrolled cycle sees the same count as its slot,
    # because the kmin replicas of a value start at every kernel cycle
    # congruent to its definition time.  A value live for ``laps`` whole
    # IIs and ``rest`` cycles covers every slot ``laps`` times and ``rest``
    # slots from its definition's once more; an invariant covers every slot.
    delta = {cls: [0] * (ii + 1) for cls in RegClass}
    for value, (d, cls, _) in defs.items():
        laps, rest = divmod(lifetimes[value], ii)
        first = schedule.time(d) % ii
        end = first + rest
        changes = delta[cls]
        changes[0] += laps
        changes[first] += 1
        if end > ii:  # wraps past the last slot
            changes[0] += 1
            end -= ii
        changes[end] -= 1
    for cls, _ in invariants.values():
        delta[cls][0] += 1
    max_live = {cls: max(accumulate(changes[:ii])) for cls, changes in delta.items()}
    return RenamedKernel(
        schedule=schedule,
        kmin=kmin,
        lifetimes=lifetimes,
        max_live=max_live,
        values=defs,
        invariants=invariants,
    )
