"""The backend-neutral modulo-scheduling formulation.

One candidate (loop, machine, II) pair induces one *formulation*: the
ASAP/ALAP issue window of every operation at a horizon of ``stages * II``
cycles, the dependence arcs (``sigma_dst - sigma_src >= latency -
II*omega``), and the modulo reservation rows (per resource and modulo
slot, summed reservation-table demand may not exceed availability).  The
ILP (:mod:`repro.portfolio.ilp_backend`), the CP backend
(:mod:`repro.portfolio.cp`) and the SMT backend
(:mod:`repro.portfolio.smt`) are all *encodings of this one object*, which
is what makes cross-backend agreement a meaningful oracle: a sat witness
of one backend must satisfy :func:`check_witness` here, and two definitive
answers at the same II must match.

The module deliberately imports nothing from :mod:`repro.ilp` or any
solver — it holds plain data plus the window computation, so every
backend (and the independent witness checker) can depend on it without
cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription


@dataclass(frozen=True)
class FormulationArc:
    """One dependence arc of the formulation.

    ``kind`` is the :class:`~repro.ir.ddg.DepKind` value string ("flow",
    "anti", "output", "mem") and ``value`` the carried register name for
    flow arcs — both kept so objective builders (buffer minimisation,
    lifetime tie-breaks) need no access to the original DDG.
    """

    src: int
    dst: int
    latency: int
    omega: int
    kind: str = "flow"
    value: Optional[str] = None

    def weight(self, ii: int) -> int:
        """The difference-constraint weight at this II."""
        return self.latency - ii * self.omega


@dataclass
class ModuloFormulation:
    """Everything a decision procedure needs to answer one (loop, II).

    ``windows[op]`` is the inclusive ASAP/ALAP issue range; ``arcs`` keeps
    the DDG's arc order (self-arcs included — they are either screened
    into ``infeasible`` or vacuous at this II); ``op_uses[op]`` lists the
    reservation-table demand ``(offset, resource, count)`` in machine
    table order.  ``infeasible`` short-circuits every backend: the windows
    collapsed (or a self-recurrence exceeded ``II*omega``), which this
    repo treats as a proven *unsat* at this II and horizon.
    """

    loop_name: str
    n_ops: int
    ii: int
    stages: int
    horizon: int
    windows: List[Tuple[int, int]] = field(default_factory=list)
    arcs: List[FormulationArc] = field(default_factory=list)
    op_uses: List[List[Tuple[int, str, int]]] = field(default_factory=list)
    availability: Dict[str, int] = field(default_factory=dict)
    infeasible: bool = False
    infeasible_reason: str = ""

    def domain(self, op: int) -> range:
        lo, hi = self.windows[op]
        return range(lo, hi + 1)

    def dep_arcs(self) -> List[FormulationArc]:
        """The non-self arcs — the difference constraints of the encoding."""
        return [arc for arc in self.arcs if arc.src != arc.dst]

    def flow_value_arcs(self) -> List[FormulationArc]:
        """Flow arcs carrying a named value (buffer/lifetime objectives)."""
        return [arc for arc in self.arcs if arc.kind == "flow" and arc.value]


def critical_path(loop: Loop) -> int:
    """Longest acyclic latency path (carried arcs excluded)."""
    heights = loop.ddg.height_map()
    return max(heights.values(), default=0) + 1


def default_horizon_stages(loop: Loop, machine: MachineDescription, ii: int) -> int:
    """Stage bound K: enough for the critical path plus slack."""
    return max(2, math.ceil((critical_path(loop) + 1) / ii) + 1)


def time_windows(loop: Loop, ii: int, horizon: int) -> Optional[List[Tuple[int, int]]]:
    """ASAP/ALAP windows per operation at this II and horizon.

    Longest-path relaxation over arc weights ``latency - II*omega``; no
    positive cycles exist at a feasible II, so ``n`` passes converge.
    Returns None when some window is empty (horizon too small or II
    infeasible).
    """
    n = loop.n_ops
    arcs = [
        (a.src, a.dst, a.latency - ii * a.omega)
        for a in loop.ddg.arcs
        if a.src != a.dst
    ]
    earliest = [0] * n
    for _ in range(n):
        changed = False
        for src, dst, w in arcs:
            if earliest[src] + w > earliest[dst]:
                earliest[dst] = earliest[src] + w
                changed = True
        if not changed:
            break
    latest = [horizon - 1] * n
    for _ in range(n):
        changed = False
        for src, dst, w in arcs:
            if latest[dst] - w < latest[src]:
                latest[src] = latest[dst] - w
                changed = True
        if not changed:
            break
    windows = list(zip(earliest, latest))
    if any(lo > hi for lo, hi in windows):
        return None
    return windows


def build_modulo_formulation(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    stages: Optional[int] = None,
) -> ModuloFormulation:
    """Build the neutral formulation of ``loop`` at candidate ``ii``.

    Performs the two feasibility screens every backend shares — the
    self-recurrence check (``latency > II*omega`` cannot be satisfied at
    any horizon) and the ASAP/ALAP window collapse — and marks the result
    ``infeasible`` instead of raising, mirroring how the MOST driver
    treats a collapsed formulation as a proven-infeasible II.
    """
    if stages is None:
        stages = default_horizon_stages(loop, machine, ii)
    horizon = stages * ii
    arcs = [
        FormulationArc(
            src=a.src,
            dst=a.dst,
            latency=a.latency,
            omega=a.omega,
            kind=a.kind.value,
            value=a.value,
        )
        for a in loop.ddg.arcs
    ]
    formulation = ModuloFormulation(
        loop_name=loop.name,
        n_ops=loop.n_ops,
        ii=ii,
        stages=stages,
        horizon=horizon,
        arcs=arcs,
        availability=dict(machine.availability),
    )
    for arc in loop.ddg.arcs:
        if arc.src == arc.dst and arc.latency > ii * arc.omega:
            formulation.infeasible = True
            formulation.infeasible_reason = (
                f"self-recurrence on op {arc.src}: latency {arc.latency} > "
                f"II*omega = {ii * arc.omega}"
            )
            return formulation
    windows = time_windows(loop, ii, horizon)
    if windows is None:
        formulation.infeasible = True
        formulation.infeasible_reason = "ASAP/ALAP windows collapsed at this horizon"
        return formulation
    formulation.windows = windows
    formulation.op_uses = [
        [
            (use.offset, use.resource, use.count)
            for use in machine.table(loop.ops[op].opclass).uses
        ]
        for op in range(loop.n_ops)
    ]
    return formulation


def check_witness(formulation: ModuloFormulation, times: Dict[int, int]) -> List[str]:
    """Independently check a sat witness against the formulation.

    Returns human-readable violation strings (empty = the witness is a
    genuine solution).  This is deliberately *not* any backend's own
    consistency code: it re-derives windows, dependences and modulo
    resource usage from the neutral data, so a backend that decodes its
    model wrong cannot also vouch for itself.
    """
    errors: List[str] = []
    if formulation.infeasible:
        errors.append(
            f"witness offered for a formulation proven infeasible "
            f"({formulation.infeasible_reason})"
        )
        return errors
    missing = sorted(set(range(formulation.n_ops)) - set(times))
    if missing:
        errors.append(f"ops {missing} are unplaced")
        return errors
    for op in range(formulation.n_ops):
        lo, hi = formulation.windows[op]
        t = times[op]
        if not lo <= t <= hi:
            errors.append(f"op {op} at t={t} outside window [{lo}, {hi}]")
    for arc in formulation.dep_arcs():
        slack = times[arc.dst] - times[arc.src] - arc.weight(formulation.ii)
        if slack < 0:
            errors.append(
                f"arc {arc.src}->{arc.dst} violated: "
                f"{times[arc.dst]} - {times[arc.src]} < {arc.weight(formulation.ii)}"
            )
    usage: Dict[Tuple[str, int], int] = {}
    for op in range(formulation.n_ops):
        for offset, resource, count in formulation.op_uses[op]:
            slot = (times[op] + offset) % formulation.ii
            usage[(resource, slot)] = usage.get((resource, slot), 0) + count
    for (resource, slot), demand in sorted(usage.items()):
        limit = formulation.availability.get(resource, 0)
        if demand > limit:
            errors.append(
                f"resource {resource} oversubscribed at slot {slot}: "
                f"{demand} > {limit}"
            )
    return errors
