"""A pure-python CP backend: propagate windows, filter slots, search.

The classic constraint-programming reading of modulo scheduling (surveyed
in Castañeda Lozano & Schulte, arXiv 1409.7628): each operation has an
integer issue-time variable over its ASAP/ALAP window, the dependence
arcs are difference constraints (bounds-consistent via longest-path
propagation), and the modulo reservation tables are a global resource
constraint filtered per modulo slot.  Search is chronological DFS with a
deterministic static order, restarted over a short list of orders: the
fail-first order, then the production compiler's priority orders (FDMS,
FDNMS, HMS, RHMS) — the standard CP cure for heavy-tailed search times,
and the orders the paper's heuristic and MOST already trust.  Like the
repo's other schedulers, the same inputs yield the same answer on any
machine, and a *node* budget per order (not the wall clock) is what
bounds reproducible runs.

Soundness contract (what the agreement oracle leans on):

* ``sat`` answers carry a witness that satisfies every window, arc and
  modulo resource row (checked independently by the caller);
* ``unsat`` is returned only when one order's search exhausted the full
  window space at this horizon — never when a budget stopped it;
* budget exhaustion (every order out of nodes, or the wall-clock
  backstop) is ``unknown``.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..obs import get_recorder
from .answer import SAT, UNKNOWN, UNSAT, BackendAnswer
from .formulation import ModuloFormulation

#: How many search nodes between wall-clock checks: the node budget is the
#: deterministic limit, the clock only a backstop against pathological
#: propagation cost per node.
_CLOCK_STRIDE = 256

#: How answers name the built-in fail-first order (:func:`default_order`).
DEFAULT_ORDER_NAME = "fail-first"


class _Search:
    """One DFS over a formulation; state is trailed for O(1) undo."""

    def __init__(self, formulation: ModuloFormulation, order: Sequence[int]):
        self.f = formulation
        self.n = formulation.n_ops
        self.ii = formulation.ii
        self.order = list(order)
        self.lo = [w[0] for w in formulation.windows]
        self.hi = [w[1] for w in formulation.windows]
        self.fixed = [False] * self.n
        # Difference arcs grouped by endpoint for incremental propagation.
        self.out_arcs: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        self.in_arcs: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        for arc in formulation.dep_arcs():
            w = arc.weight(self.ii)
            self.out_arcs[arc.src].append((arc.dst, w))
            self.in_arcs[arc.dst].append((arc.src, w))
        # The modulo reservation table as the room left in each cell, one
        # cell per (resource, modulo slot) at ``resource_id * ii + slot``.
        ii = self.ii
        names = sorted(formulation.availability)
        resource_id = {name: i for i, name in enumerate(names)}
        self.room = [formulation.availability[name] for name in names for _ in range(ii)]
        # ``demand[op][t % ii]``: the cells ``op`` issued at ``t`` takes,
        # with its summed count in each.  An op's *own* uses can stack: a
        # long unpipelined table (fpdiv busy for II+ cycles) can land two
        # of its reservations in one modulo slot, which is just as
        # over-subscribed as a clash with another op.
        self.demand: List[List[List[Tuple[int, int]]]] = []
        # Per resource id, every op's largest demand in one cell, largest
        # first: the ops a placement can starve of their last live slot.
        self.users: List[List[Tuple[int, int]]] = [[] for _ in names]
        for op, uses in enumerate(formulation.op_uses):
            per_residue = []
            for residue in range(ii):
                cells: Dict[int, int] = {}
                for offset, resource, count in uses:
                    cell = resource_id[resource] * ii + (residue + offset) % ii
                    cells[cell] = cells.get(cell, 0) + count
                per_residue.append(list(cells.items()))
            self.demand.append(per_residue)
            peaks: Dict[int, int] = {}
            for cell, count in per_residue[0]:
                rid = cell // ii
                peaks[rid] = max(peaks.get(rid, 0), count)
            for rid, peak in peaks.items():
                self.users[rid].append((peak, op))
        for users in self.users:
            users.sort(reverse=True)
        self.nodes = 0
        self.propagations = 0
        self.conflicts = 0
        self.stopped_by_clock = False

    # -- modulo resource filtering ------------------------------------
    def _slot_fits(self, op: int, t: int) -> bool:
        """Would fixing ``op`` at ``t`` keep every reservation row within
        availability, given the already-fixed ops?"""
        room = self.room
        for cell, count in self.demand[op][t % self.ii]:
            if room[cell] < count:
                return False
        return True

    def _has_live_slot(self, op: int) -> bool:
        """Does any value in ``op``'s current bounds fit the partial MRT?

        Bounds intervals are contiguous, so only ``min(width, ii)``
        residues need probing — beyond one full period the slots repeat.
        """
        lo, hi = self.lo[op], self.hi[op]
        for t in range(lo, min(hi, lo + self.ii - 1) + 1):
            if self._slot_fits(op, t):
                return True
        return False

    def _place(self, op: int, t: int) -> None:
        for cell, count in self.demand[op][t % self.ii]:
            self.room[cell] -= count

    def _unplace(self, op: int, t: int) -> None:
        for cell, count in self.demand[op][t % self.ii]:
            self.room[cell] += count

    def _suspects(self, placed: int, trail: List[Tuple[int, int, int]]) -> Iterable[int]:
        """The ops that may have lost their last live slot to ``placed``.

        Before the placement every unfixed op had a live slot (the parent
        node's propagation checked).  An op keeps it unless its bounds
        moved (it is on the trail) or a cell the placement took from has
        less room left than the op's largest demand in one cell of that
        resource.
        """
        suspects = {op for op, _, _ in trail}
        for cell, _ in self.demand[placed][self.lo[placed] % self.ii]:
            room = self.room[cell]
            for peak, op in self.users[cell // self.ii]:
                if peak <= room:
                    break
                suspects.add(op)
        return suspects

    # -- bounds propagation -------------------------------------------
    def _propagate(
        self, seed: int, trail: List[Tuple[int, int, int]], full_scan: bool
    ) -> bool:
        """Bounds-consistency fixpoint after fixing op ``seed``.

        Difference constraints only ever *raise* ``lo`` and *lower* ``hi``,
        so a worklist pass terminates; every change is trailed for undo.
        Returns False on a domain wipeout or an unfixed op left without
        a slot that fits the MRT (dead end).  ``full_scan`` checks every
        op for a live slot, not only :meth:`_suspects` (the first
        placement has no parent check to build on).
        """
        work = [seed]
        while work:
            src = work.pop()
            self.propagations += 1
            for dst, w in self.out_arcs[src]:
                floor = self.lo[src] + w
                if floor > self.lo[dst]:
                    trail.append((dst, self.lo[dst], self.hi[dst]))
                    self.lo[dst] = floor
                    if self.lo[dst] > self.hi[dst]:
                        return False
                    work.append(dst)
            for dst, w in self.in_arcs[src]:
                ceil = self.hi[src] - w
                if ceil < self.hi[dst]:
                    trail.append((dst, self.lo[dst], self.hi[dst]))
                    self.hi[dst] = ceil
                    if self.lo[dst] > self.hi[dst]:
                        return False
                    work.append(dst)
        # Modulo-resource lookahead: every unfixed op must retain at least
        # one issue cycle whose reservation demand still fits the MRT.
        suspects = range(self.n) if full_scan else self._suspects(seed, trail)
        for op in suspects:
            if not self.fixed[op] and not self._has_live_slot(op):
                return False
        return True

    def _undo(self, trail: List[Tuple[int, int, int]]) -> None:
        while trail:
            op, lo, hi = trail.pop()
            self.lo[op] = lo
            self.hi[op] = hi

    # -- search --------------------------------------------------------
    def run(self, max_nodes: int, stop_at: Optional[float]) -> str:
        """Search for at most ``max_nodes`` nodes or until the
        ``time.perf_counter()`` reading ``stop_at``; sat leaves the
        witness in ``self.lo``."""
        return self._dfs(0, max_nodes, stop_at)

    def _out_of_budget(self, max_nodes: int, stop_at: Optional[float]) -> bool:
        if self.nodes >= max_nodes:
            return True
        if (
            stop_at is not None
            and self.nodes % _CLOCK_STRIDE == 0
            and time.perf_counter() >= stop_at
        ):
            self.stopped_by_clock = True
            return True
        return False

    def _dfs(self, depth: int, max_nodes: int, stop_at: Optional[float]) -> str:
        if depth == len(self.order):
            return SAT
        op = self.order[depth]
        for t in range(self.lo[op], self.hi[op] + 1):
            self.nodes += 1
            if self._out_of_budget(max_nodes, stop_at):
                return UNKNOWN
            if not self._slot_fits(op, t):
                continue
            trail: List[Tuple[int, int, int]] = [(op, self.lo[op], self.hi[op])]
            self.lo[op] = self.hi[op] = t
            self.fixed[op] = True
            self._place(op, t)
            if self._propagate(op, trail, full_scan=depth == 0):
                status = self._dfs(depth + 1, max_nodes, stop_at)
                if status == SAT:
                    return SAT  # keep the trail: self.lo now holds the witness
            else:
                self.conflicts += 1
                status = UNSAT
            self._unplace(op, t)
            self.fixed[op] = False
            self._undo(trail)
            if status == UNKNOWN:
                return UNKNOWN
        return UNSAT


def default_order(formulation: ModuloFormulation) -> List[int]:
    """Static variable order: tightest window first, index as tie-break.

    Deterministic by construction (no hashing, no randomness), and a good
    proxy for the fail-first principle: critical-recurrence ops have the
    narrowest windows and get decided before the slack ones.
    """
    return sorted(
        range(formulation.n_ops),
        key=lambda op: (
            formulation.windows[op][1] - formulation.windows[op][0],
            op,
        ),
    )


def solve_cp(
    formulation: ModuloFormulation,
    time_limit: Optional[float] = None,
    max_nodes: int = 200_000,
    orders: Optional[Mapping[str, Sequence[int]]] = None,
) -> BackendAnswer:
    """Answer one formulation with the CP search, restarted over orders.

    The fail-first :func:`default_order` runs first, then each of
    ``orders`` (name -> op order, in trial order; the portfolio driver
    passes SGI's production orders) that repeats no order already run.
    Each run is a fresh search of at most ``max_nodes`` nodes, and the
    first sat or unsat ends the probe.  ``time_limit`` is the wall-clock
    backstop over the whole probe: once it fires, no further order
    starts.  The answer's nodes and seconds are summed over the runs, and
    its ``detail`` names the deciding order and the number of restarts;
    an unknown one says what stopped the last run (``stopped=nodes`` or
    ``stopped=clock``), since summed nodes cannot tell the two apart.
    """
    if formulation.infeasible:
        return BackendAnswer(
            backend="cp", answer=UNSAT, detail=formulation.infeasible_reason
        )
    if formulation.n_ops == 0:
        return BackendAnswer(backend="cp", answer=SAT, times={})
    start = time.perf_counter()
    stop_at = None if time_limit is None else start + time_limit
    candidates = [(DEFAULT_ORDER_NAME, default_order(formulation))]
    candidates.extend((orders or {}).items())
    tried: List[List[int]] = []
    nodes = conflicts = propagations = 0
    clock_stopped = False
    for name, order in candidates:
        order = list(order)
        if order in tried:
            continue
        if tried and stop_at is not None and time.perf_counter() >= stop_at:
            clock_stopped = True
            break
        tried.append(order)
        search = _Search(formulation, order)
        status = search.run(max_nodes, stop_at)
        nodes += search.nodes
        conflicts += search.conflicts
        propagations += search.propagations
        clock_stopped = search.stopped_by_clock
        if status != UNKNOWN or clock_stopped:
            break
    seconds = time.perf_counter() - start
    restarts = len(tried) - 1
    rec = get_recorder()
    if rec.enabled and restarts:
        rec.counter("portfolio.cp.restarts", restarts)
    if status == SAT:
        return BackendAnswer(
            backend="cp", answer=SAT,
            times={op: search.lo[op] for op in range(search.n)},
            seconds=seconds, nodes=nodes,
            detail=f"order={name} restarts={restarts}",
        )
    if status == UNSAT:
        ended = f"order={name} restarts={restarts}"
    else:
        stopped = "clock" if clock_stopped else "nodes"
        ended = f"restarts={restarts} stopped={stopped}"
    return BackendAnswer(
        backend="cp", answer=status, seconds=seconds, nodes=nodes,
        detail=f"{ended}; {conflicts} conflicts, {propagations} propagations",
    )
