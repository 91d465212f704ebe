"""Longest-path distance tables within strongly connected components.

Section 2.4: "A longest path table is kept and used to determine the number
of cycles by which two members [of a strongly connected component] must
precede or follow each other."  At a candidate II, arc weights are
``latency - II * omega``; ``dist(i, j)`` is the maximum weight of any path
from ``i`` to ``j`` using only intra-component arcs, so any legal schedule
satisfies ``t(j) >= t(i) + dist(i, j)``.

The distance at II is an affine function of II along any one path:
``L - II * W`` where ``L`` sums latencies and ``W`` sums omegas.  The
maximum over paths is therefore the upper envelope of a set of lines, and
the *path structure* — the Pareto frontier of ``(L, W)`` pairs per node
pair — does not depend on II at all.  :class:`SccDistanceTables` exploits
this: the frontier is computed once per dependence graph (one profile
Floyd–Warshall mirroring the numeric recursion exactly), cached on the
DDG, and re-evaluated per candidate II as a cheap max over a handful of
lines.  Re-running the II search, other priority orders, or other
schedulers against the same loop all hit the same cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.ddg import DDG
from ..ir.loop import Loop

NEG_INF = float("-inf")

#: Pareto frontiers larger than this abandon the parametric form for the
#: affected component and fall back to per-II Floyd–Warshall (deterministic
#: either way; frontiers this size have never been observed on real loops).
PROFILE_CAP = 96

# One (L, W) pair per Pareto-optimal path: distance at II is L - II * W.
_Profile = Tuple[Tuple[int, int], ...]


def _merge_profiles(base: List[Tuple[int, int]], extra: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Pareto frontier of ``base + extra`` under (max L, min W).

    A pair ``(L, W)`` is dominated by ``(L', W')`` when ``L' >= L`` and
    ``W' <= W``: the dominating line is at least as high for every II >= 0,
    so dropping the dominated pair never changes the evaluated maximum.
    """
    merged = sorted(set(base) | set(extra))  # by W asc, then L asc
    frontier: List[Tuple[int, int]] = []
    best_l: Optional[int] = None
    # Walk W ascending: a pair survives only if its L strictly exceeds every
    # L seen at smaller-or-equal W; ties on W keep only the largest L.
    for w, l in merged:
        if best_l is not None and l <= best_l:
            continue
        if frontier and frontier[-1][0] == w:
            frontier[-1] = (w, l)
        else:
            frontier.append((w, l))
        best_l = l
    return frontier


class _ParametricScc:
    """Pareto path profiles for one SCC, II-independent."""

    __slots__ = ("profiles", "fallback")

    def __init__(self, profiles: Dict[Tuple[int, int], _Profile], fallback: bool):
        self.profiles = profiles
        self.fallback = fallback


class _DistanceMemo:
    """Per-DDG container: parametric profiles + per-II evaluated tables."""

    __slots__ = ("sccs", "evaluated")

    def __init__(self) -> None:
        self.sccs: Dict[int, _ParametricScc] = {}
        # ii -> (feasible, {scc_id: {(i, j): dist}})
        self.evaluated: Dict[int, Tuple[bool, Dict[int, Dict[Tuple[int, int], float]]]] = {}


class SccDistanceTables:
    """Per-SCC all-pairs longest-path tables at a fixed II."""

    def __init__(self, loop: Loop, ii: int):
        self.loop = loop
        self.ii = ii
        self._feasible, self._tables = self._evaluate_memo()

    # ------------------------------------------------------------------
    # Memoized parametric path
    # ------------------------------------------------------------------
    @staticmethod
    def prime(loop: Loop) -> None:
        """Build (or reuse) the parametric path profiles for ``loop``.

        Called once at the head of an II search so every candidate II —
        and every later search over the same loop — evaluates the cached
        path structure instead of re-running Floyd–Warshall.
        """
        _distance_memo(loop.ddg, loop)

    def _evaluate_memo(self) -> Tuple[bool, Dict[int, Dict[Tuple[int, int], float]]]:
        memo = _distance_memo(self.loop.ddg, self.loop)
        cached = memo.evaluated.get(self.ii)
        if cached is not None:
            return cached
        ii = self.ii
        feasible = True
        tables: Dict[int, Dict[Tuple[int, int], float]] = {}
        for scc in self.loop.ddg.nontrivial_sccs():
            scc_id = self.loop.ddg.scc_id(scc[0])
            parametric = memo.sccs[scc_id]
            if parametric.fallback:
                table = self._floyd_warshall(scc)
            else:
                table = {
                    pair: max(l - ii * w for w, l in profile)
                    for pair, profile in parametric.profiles.items()
                }
            tables[scc_id] = table
            if any(table.get((v, v), NEG_INF) > 0 for v in scc):
                feasible = False
        memo.evaluated[ii] = (feasible, tables)
        return feasible, tables

    def _floyd_warshall(self, members: Tuple[int, ...]) -> Dict[Tuple[int, int], float]:
        ddg = self.loop.ddg
        scc_id = ddg.scc_id(members[0])
        dist: Dict[Tuple[int, int], float] = {}
        for u in members:
            for arc in ddg.succs(u):
                if ddg.scc_id(arc.dst) != scc_id:
                    continue
                w = arc.latency - self.ii * arc.omega
                key = (u, arc.dst)
                if w > dist.get(key, NEG_INF):
                    dist[key] = w
        for k in members:
            for i in members:
                ik = dist.get((i, k), NEG_INF)
                if ik is NEG_INF:
                    continue
                for j in members:
                    kj = dist.get((k, j), NEG_INF)
                    if kj is NEG_INF:
                        continue
                    if ik + kj > dist.get((i, j), NEG_INF):
                        dist[(i, j)] = ik + kj
        return dist

    @property
    def feasible(self) -> bool:
        """False when some recurrence cannot meet this II (positive cycle)."""
        return self._feasible

    def dist(self, src: int, dst: int) -> Optional[int]:
        """Longest path ``src -> dst`` within their common SCC, or None.

        None means no path: the pair imposes no precedence at this II.
        """
        scc_id = self.loop.ddg.scc_id(src)
        if self.loop.ddg.scc_id(dst) != scc_id:
            return None
        table = self._tables.get(scc_id)
        if table is None:
            return None
        value = table.get((src, dst))
        return None if value is None else int(value)


def _distance_memo(ddg: DDG, loop: Loop) -> _DistanceMemo:
    """The per-DDG :class:`_DistanceMemo`, built on first use.

    The DDG is immutable after construction, so caching on the instance is
    safe; everything scheduling the same loop object shares the profiles.
    """
    memo: Optional[_DistanceMemo] = getattr(ddg, "_distance_memo", None)
    if memo is None:
        memo = _DistanceMemo()
        for scc in ddg.nontrivial_sccs():
            scc_id = ddg.scc_id(scc[0])
            memo.sccs[scc_id] = _parametric_scc(ddg, scc, scc_id)
        ddg._distance_memo = memo  # type: ignore[attr-defined]
    return memo


def _parametric_scc(ddg: DDG, members: Tuple[int, ...], scc_id: int) -> _ParametricScc:
    """Profile Floyd–Warshall over one SCC.

    Mirrors :meth:`SccDistanceTables._floyd_warshall` line for line — same
    in-place update order, same reads — but carries Pareto frontiers of
    ``(W, L)`` pairs instead of numbers, so the numeric table at any II is
    exactly ``max(L - II * W)`` over each frontier.  (The in-place order
    matters when a component has positive cycles at small IIs: both
    recursions must consider the same walk set to stay bit-identical.)
    """
    prof: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for u in members:
        for arc in ddg.succs(u):
            if ddg.scc_id(arc.dst) != scc_id:
                continue
            key = (u, arc.dst)
            prof[key] = _merge_profiles(prof.get(key, []), [(arc.omega, arc.latency)])
    for k in members:
        for i in members:
            ik = prof.get((i, k))
            if not ik:
                continue
            for j in members:
                kj = prof.get((k, j))
                if not kj:
                    continue
                joined = [(w1 + w2, l1 + l2) for w1, l1 in ik for w2, l2 in kj]
                merged = _merge_profiles(prof.get((i, j), []), joined)
                if len(merged) > PROFILE_CAP:
                    return _ParametricScc({}, fallback=True)
                prof[(i, j)] = merged
    profiles = {pair: tuple(frontier) for pair, frontier in prof.items()}
    return _ParametricScc(profiles, fallback=False)
