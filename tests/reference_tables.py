"""Reference implementations the hot-path equivalence tests compare against.

Each is the plain original of an optimised structure in ``src/``, kept
here because nothing but the differential tests runs it:

* :class:`DictModuloReservationTable` — the ``List[Dict[str, int]]``
  probing modulo reservation table, against
  :class:`~repro.machine.resources.PackedModuloReservationTable`;
* :class:`FloydWarshallDistances` — per-II Floyd–Warshall over each
  strongly connected component, against the parametric profiles of
  :class:`~repro.core.distances.SccDistanceTables`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.loop import Loop
from repro.machine.resources import ReservationTable

NEG_INF = float("-inf")


class DictModuloReservationTable:
    """The original per-slot dict probing implementation.

    The differential-testing oracle for
    :class:`~repro.machine.resources.PackedModuloReservationTable`.  It
    also implements the lowered fast-path API (by ignoring the lowering)
    so the schedulers run unmodified against either implementation.
    """

    def __init__(self, ii: int, availability: Dict[str, int]):
        if ii <= 0:
            raise ValueError(f"II must be positive, got {ii}")
        self.ii = ii
        self.availability = dict(availability)
        self._used: List[Dict[str, int]] = [dict() for _ in range(ii)]

    def fits(self, table: ReservationTable, cycle: int) -> bool:
        """Can an operation with this reservation table issue at ``cycle``?

        An operation longer than II can collide with *itself* across
        iterations (several of its uses land in the same modulo slot), so
        pending usage is accumulated while checking.
        """
        pending: Dict[Tuple[int, str], int] = {}
        for u in table.uses:
            slot = (cycle + u.offset) % self.ii
            avail = self.availability.get(u.resource)
            if avail is None:
                raise KeyError(f"machine has no resource {u.resource!r}")
            key = (slot, u.resource)
            pending[key] = pending.get(key, 0) + u.count
            if self._used[slot].get(u.resource, 0) + pending[key] > avail:
                return False
        return True

    def place(self, table: ReservationTable, cycle: int) -> None:
        if not self.fits(table, cycle):
            raise ValueError(f"resource conflict placing op at cycle {cycle}")
        for u in table.uses:
            slot = (cycle + u.offset) % self.ii
            used = self._used[slot]
            used[u.resource] = used.get(u.resource, 0) + u.count

    def remove(self, table: ReservationTable, cycle: int) -> None:
        for u in table.uses:
            slot = (cycle + u.offset) % self.ii
            used = self._used[slot]
            remaining = used.get(u.resource, 0) - u.count
            if remaining < 0:
                raise ValueError(f"removing op at cycle {cycle} that was never placed")
            if remaining:
                used[u.resource] = remaining
            else:
                del used[u.resource]

    def used_at(self, slot: int, resource: str) -> int:
        return self._used[slot % self.ii].get(resource, 0)

    def copy(self) -> "DictModuloReservationTable":
        clone = DictModuloReservationTable(self.ii, self.availability)
        clone._used = [dict(d) for d in self._used]
        return clone

    # Lowered-API shims: `lower` returns the reservation table itself, so
    # the scheduler fast paths degrade to the probing implementation.
    def lower(self, table: ReservationTable) -> ReservationTable:
        return table

    def fits_lowered(self, table: ReservationTable, cycle: int) -> bool:
        return self.fits(table, cycle)

    def place_lowered(self, table: ReservationTable, cycle: int) -> None:
        for u in table.uses:
            slot = (cycle + u.offset) % self.ii
            used = self._used[slot]
            used[u.resource] = used.get(u.resource, 0) + u.count

    def remove_lowered(self, table: ReservationTable, cycle: int) -> None:
        self.remove(table, cycle)

    def blocked_mask(self, table: ReservationTable) -> int:
        blocked = 0
        for s in range(self.ii):
            if not self.fits(table, s):
                blocked |= 1 << s
        return blocked


class FloydWarshallDistances:
    """Per-SCC all-pairs longest paths at one II, by Floyd–Warshall."""

    def __init__(self, loop: Loop, ii: int):
        self.loop = loop
        self.feasible = True
        self._tables: Dict[int, Dict[Tuple[int, int], float]] = {}
        ddg = loop.ddg
        for scc in ddg.nontrivial_sccs():
            scc_id = ddg.scc_id(scc[0])
            dist: Dict[Tuple[int, int], float] = {}
            for u in scc:
                for arc in ddg.succs(u):
                    if ddg.scc_id(arc.dst) != scc_id:
                        continue
                    w = arc.latency - ii * arc.omega
                    if w > dist.get((u, arc.dst), NEG_INF):
                        dist[(u, arc.dst)] = w
            for k in scc:
                for i in scc:
                    ik = dist.get((i, k), NEG_INF)
                    if ik is NEG_INF:
                        continue
                    for j in scc:
                        kj = dist.get((k, j), NEG_INF)
                        if kj is not NEG_INF and ik + kj > dist.get((i, j), NEG_INF):
                            dist[(i, j)] = ik + kj
            self._tables[scc_id] = dist
            if any(dist.get((v, v), NEG_INF) > 0 for v in scc):
                self.feasible = False

    def dist(self, src: int, dst: int) -> Optional[int]:
        """Longest path ``src -> dst`` within their common SCC, or None."""
        ddg = self.loop.ddg
        scc_id = ddg.scc_id(src)
        if ddg.scc_id(dst) != scc_id or scc_id not in self._tables:
            return None
        value = self._tables[scc_id].get((src, dst))
        return None if value is None else int(value)
