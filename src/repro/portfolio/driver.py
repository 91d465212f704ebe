"""The shared II walk of the optimal pipeliners, and the portfolio race.

Both optimal pipeliners walk the II range the same way: MinII up to a
cap, II-optimality proven when every smaller II was proven infeasible, a
register-allocation failure moving on to the next II, and the heuristic
pipeliner as the backup (§4.4).  At each II the backend-neutral
formulation is answered by a :class:`Race`: a sequence of racers under one
shared :class:`SolveBudget`, where the first definitive sat/unsat answer
ends the round and an unknown answer hands over to the next racer.

* The portfolio (:func:`portfolio_pipeline_loop`) races backends: CP
  propagation, the time-indexed ILP, optionally Z3.  ``cross_check`` mode
  instead queries every backend and records the full probe trail, which
  is what the cross-backend agreement oracle audits.
* MOST (:func:`repro.most.most_pipeline_loop`) races the ILP alone, once
  per SGI production order, and runs a buffers or overhead post-pass on
  the winning schedule.

Budget discipline (the single-owner invariant): every racer asks the
shared budget for its slice, a slice can never exceed what remains, and a
racer overshooting its granted slice by more than the enforcement slack
is an assertion failure, so racers cannot over-spend the loop's budget no
matter how many are registered.  Every sat witness is re-derived by the
independent :func:`~repro.portfolio.formulation.check_witness` before the
walk accepts it.

Per-backend effort lands in ``repro.obs`` counters
(``portfolio.<backend>.seconds``, ``.sat``, ``.unsat``, ``.unknown``,
``.nodes``), so traced bench runs aggregate solver effort per backend in
BENCH_pipeline.json.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.driver import (
    PipelineResult,
    PipelinerOptions,
    StrictOptions,
    _maybe_verify,
    pipeline_loop,
)
from ..core.minii import min_ii as compute_min_ii
from ..core.priorities import production_orders
from ..core.sched import Schedule
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..obs import get_recorder
from ..regalloc.coloring import (
    AllocationResult,
    allocate_schedule,
    exceeds_register_file,
)
from .answer import SAT, UNSAT, BackendAnswer, ProbeRecord, probe_disagreements
from .cp import solve_cp
from .formulation import ModuloFormulation, build_modulo_formulation, check_witness
from .ilp_backend import solve_ilp
from .smt import smt_available, solve_smt

#: The study's limit on searches for optimal schedules ("we used 3
#: minutes").  This is the *single* definition of the paper's budget;
#: experiment configurations shrink it, but every deadline flows through
#: one :class:`SolveBudget` built from the options' ``time_limit``.
PAPER_TIME_LIMIT = 180.0

#: Backends every build of this repo can run.  ``smt`` joins the set only
#: when ``z3-solver`` is importable — requesting it without z3 is a clean
#: skip (recorded in the result), not an error, so one options dict works
#: on machines with and without the optional dependency.
ALWAYS_AVAILABLE = ("cp", "ilp")
KNOWN_BACKENDS = ("cp", "ilp", "smt")

#: A backend may overshoot its granted slice by at most this many seconds
#: plus half the slice (both CP and the ILP check their deadlines at node
#: granularity; a node can straddle the boundary).  Beyond that the
#: backend ignored its budget — the over-spend bug the single-owner
#: invariant exists to catch.
SLICE_GRACE = 1.0

#: The smallest slice the portfolio hands a backend: CP answers most
#: quick-grid probes in milliseconds.
PORTFOLIO_MIN_SLICE = 0.05


@dataclass
class SolveBudget:
    """Sole owner of the wall-clock budget for one loop.

    Every solver invocation asks this object for its slice; a slice can
    never exceed either the configured total or what actually remains, so
    racing backends, per-order ILP racers and MOST's post-pass cannot
    overshoot the budget no matter how the knobs are set.
    """

    total: float
    started: float = field(default_factory=time.perf_counter)

    def remaining(self) -> float:
        return max(0.0, self.started + self.total - time.perf_counter())

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def slice(self, parts: int = 1, floor: float = 0.0) -> float:
        """An even ``1/parts`` share of the total, capped by what remains.

        ``floor`` lifts tiny shares (many racers, small budget) so a solve
        is not pointlessly invoked with microseconds — but never above the
        remaining budget.
        """
        remaining = self.remaining()
        share = max(self.total / max(parts, 1), floor)
        share = min(share, remaining)
        assert share <= self.total + 1e-9, (
            f"budget slice {share:.3f}s exceeds configured total {self.total:.3f}s"
        )
        assert share <= remaining + 1e-9, (
            f"budget slice {share:.3f}s exceeds remaining {remaining:.3f}s"
        )
        return share


def available_backend_names() -> Tuple[str, ...]:
    """The backends runnable in this environment, in race order."""
    return KNOWN_BACKENDS if smt_available() else ALWAYS_AVAILABLE


def _parse_backends(spec: str) -> List[str]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = sorted(set(names) - set(KNOWN_BACKENDS))
    if unknown:
        raise ValueError(
            f"unknown portfolio backends: {', '.join(unknown)} "
            f"(known: {', '.join(KNOWN_BACKENDS)})"
        )
    if not names:
        raise ValueError("portfolio needs at least one backend")
    return names


@dataclass
class PortfolioOptions(StrictOptions):
    """Configuration of the portfolio pipeliner."""

    # Per-loop search budget shared by *all* backends across *all* IIs.
    time_limit: float = 20.0
    # Comma-separated race order.  The default deliberately omits smt:
    # z3's budget is wall-clock only, so letting it decide results would
    # make committed benchmarks machine-dependent; cross-check lanes and
    # the CI z3 matrix opt it in explicitly.
    backends: str = "cp,ilp"
    # Query every backend at every II (instead of stopping at the first
    # definitive answer) and record the full probe trail — the agreement
    # oracle's mode.  Costs roughly a factor of len(backends).
    cross_check: bool = False
    max_ops: int = 80  # loops beyond this go straight to the fallback
    ii_cap_factor: int = 2
    stages: Optional[int] = None
    fallback: bool = True  # use the heuristic pipeliner as backup
    max_nodes: int = 200_000  # deterministic per-solve budget (cp + ilp bnb)
    priority_branching: bool = True  # feed the ILP an SGI production order

    def __post_init__(self) -> None:
        self.backend_names()  # validate eagerly, inside the worker

    def backend_names(self) -> List[str]:
        return _parse_backends(self.backends)


@dataclass
class PortfolioStats:
    """Accumulated effort, total and per backend."""

    solves: int = 0
    nodes: int = 0
    seconds: float = 0.0
    ii_attempts: int = 0
    per_backend: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def charge(self, answer: BackendAnswer) -> None:
        self.solves += 1
        self.nodes += answer.nodes
        self.seconds += answer.seconds
        agg = self.per_backend.setdefault(
            answer.backend,
            {"solves": 0, "seconds": 0.0, "nodes": 0, "sat": 0, "unsat": 0, "unknown": 0},
        )
        agg["solves"] += 1
        agg["seconds"] += answer.seconds
        agg["nodes"] += answer.nodes
        agg[answer.answer] = agg.get(answer.answer, 0) + 1

    def backend_seconds(self) -> Dict[str, float]:
        return {name: agg["seconds"] for name, agg in sorted(self.per_backend.items())}


@dataclass
class PortfolioResult:
    """Outcome of an optimal pipeliner, MOST or the portfolio (possibly via fallback)."""

    success: bool
    schedule: Optional[Schedule]
    allocation: Optional[AllocationResult]
    loop: Loop
    min_ii: int
    optimal: bool = False  # II-optimality proven (every smaller II unsat)
    winning_backend: str = ""
    buffers: Optional[int] = None  # MOST's post-pass objective value
    fallback_used: bool = False
    fallback_result: Optional[PipelineResult] = None
    skipped_backends: Tuple[str, ...] = ()  # requested but unavailable (smt w/o z3)
    probes: List[ProbeRecord] = field(default_factory=list)
    disagreements: List[str] = field(default_factory=list)
    stats: PortfolioStats = field(default_factory=PortfolioStats)

    @property
    def ii(self) -> Optional[int]:
        return self.schedule.ii if self.schedule is not None else None


Racer = Callable[[ModuloFormulation, float], BackendAnswer]
#: ``(ii, winning sat answer, budget, stats) -> (times, objective value)``:
#: a re-solve of the winning II under a secondary objective.
PostPass = Callable[
    [int, BackendAnswer, SolveBudget, PortfolioStats],
    Tuple[Dict[int, int], Optional[int]],
]


@dataclass(frozen=True)
class Race:
    """Who answers each II of the walk, and what happens to the winner."""

    producer: str  # Schedule.producer prefix; the winning backend follows
    racers: Sequence[Tuple[str, Racer]]
    min_slice: float  # floor of a racer's even share of the budget
    cross_check: bool = False
    post_pass: Optional[PostPass] = None


def _backend_callable(
    name: str, loop: Loop, machine: MachineDescription, options: PortfolioOptions
) -> Racer:
    """Bind one backend name to a ``(formulation, time_limit) -> answer``."""
    if name == "cp":
        return lambda f, limit: solve_cp(
            f, time_limit=limit, max_nodes=options.max_nodes
        )
    if name == "ilp":
        order = (
            next(iter(production_orders(loop, machine).values()))
            if options.priority_branching
            else None
        )
        return lambda f, limit: solve_ilp(
            f,
            loop,
            time_limit=limit,
            max_nodes=options.max_nodes,
            branch_priority=order,
        )
    if name == "smt":
        return lambda f, limit: solve_smt(f, time_limit=limit)
    raise ValueError(f"unknown backend {name!r}")  # pragma: no cover - validated


def _probe_ii(
    formulation: ModuloFormulation,
    race: Race,
    budget: SolveBudget,
    stats: PortfolioStats,
    probes: List[ProbeRecord],
) -> Tuple[Optional[BackendAnswer], bool]:
    """Race the racers on one formulation under the shared budget.

    Sequential and deterministic: race order is the configured order,
    each invocation gets an even slice of the *total* budget capped by
    what remains (the single-owner invariant), and without
    ``cross_check`` the first definitive answer ends the round.  Returns
    the first sat answer whose witness passes the independent check (or
    None) and whether any racer proved the II infeasible.
    """
    rec = get_recorder()
    winner: Optional[BackendAnswer] = None
    proven_unsat = False
    for name, racer in race.racers:
        if budget.expired():
            break
        granted = budget.slice(parts=len(race.racers), floor=race.min_slice)
        answer = racer(formulation, granted)
        # Single-owner budget invariant: a slice is a ceiling, not a hint.
        # CP and the B&B check their deadline per node, so enforcement
        # slack is half a slice plus a constant; beyond it the racer
        # simply ignored the budget it was granted.
        assert answer.seconds <= granted + SLICE_GRACE + 0.5 * granted, (
            f"backend {name!r} spent {answer.seconds:.3f}s of a "
            f"{granted:.3f}s budget slice"
        )
        stats.charge(answer)
        witness_ok: Optional[bool] = None
        detail = answer.detail
        if answer.answer == SAT:
            errors = check_witness(formulation, answer.times or {})
            witness_ok = not errors
            if errors:
                detail = "; ".join(errors[:3])
            elif winner is None:
                winner = answer
        proven_unsat = proven_unsat or answer.answer == UNSAT
        probes.append(
            ProbeRecord(
                ii=formulation.ii,
                backend=name,
                answer=answer.answer,
                seconds=answer.seconds,
                nodes=answer.nodes,
                witness_ok=witness_ok,
                detail=detail,
            )
        )
        if rec.enabled:
            rec.counter(f"portfolio.{name}.seconds", answer.seconds)
            rec.counter(f"portfolio.{name}.nodes", answer.nodes)
            rec.counter(f"portfolio.{name}.{answer.answer}")
        if answer.definitive and not race.cross_check:
            break
    return winner, proven_unsat


def _search(
    loop: Loop,
    machine: MachineDescription,
    options,
    race: Race,
    mii: int,
    stats: PortfolioStats,
    probes: List[ProbeRecord],
) -> Optional[PortfolioResult]:
    """Walk MinII up to the cap; the first allocatable winner ends it."""
    budget = SolveBudget(total=options.time_limit)
    rec = get_recorder()
    # II-optimality is proven when every smaller II was proven infeasible
    # (MinII itself is a hard lower bound).
    smaller_proven_infeasible = True
    for ii in range(mii, options.ii_cap_factor * mii + 1):
        if budget.expired():
            break
        stats.ii_attempts += 1
        if rec.enabled:
            rec.counter("portfolio.ii_attempts")
            rec.event("portfolio.ii", loop=loop.name, ii=ii)
        formulation = build_modulo_formulation(loop, machine, ii, stages=options.stages)
        if formulation.infeasible:
            # The shared screen is a proof every backend would repeat;
            # record it once so the probe trail stays complete.
            probes.append(
                ProbeRecord(
                    ii=ii,
                    backend="screen",
                    answer=UNSAT,
                    detail=formulation.infeasible_reason,
                )
            )
            continue
        winner, proven_unsat = _probe_ii(formulation, race, budget, stats, probes)
        if winner is None:
            if not proven_unsat:
                smaller_proven_infeasible = False
            continue
        times, buffers = dict(winner.times or {}), None
        if race.post_pass is not None:
            times, buffers = race.post_pass(ii, winner, budget, stats)
        schedule = Schedule(
            loop=loop,
            machine=machine,
            ii=ii,
            times=times,
            producer=f"{race.producer}/{winner.backend}",
        )
        if not exceeds_register_file(schedule, machine):
            allocation = allocate_schedule(schedule, machine)
            if allocation.success:
                return PortfolioResult(
                    success=True,
                    schedule=schedule,
                    allocation=allocation,
                    loop=loop,
                    min_ii=mii,
                    optimal=smaller_proven_infeasible,
                    winning_backend=winner.backend,
                    buffers=buffers,
                )
        # Register allocation failed at this II (or MaxLive proves it
        # would): a larger II shortens relative lifetimes, so keep walking
        # the II range before resorting to the heuristic fallback.
        smaller_proven_infeasible = False
    return None


def walk_ii_range(
    loop: Loop,
    machine: MachineDescription,
    options,
    race: Race,
    verify: Optional[bool] = None,
) -> PortfolioResult:
    """The II walk both optimal pipeliners share.

    ``options`` is a :class:`PortfolioOptions` or a
    :class:`~repro.most.MostOptions`; the walk reads their common fields
    (``time_limit``, ``max_ops``, ``ii_cap_factor``, ``stages``,
    ``fallback``).  Loops over ``max_ops`` skip the race, and a walk that
    ends without an allocatable schedule falls back to the heuristic
    pipeliner.  ``verify`` cross-checks successful results with the
    independent ``repro.verify`` analyzers (``None`` = process default);
    ERROR diagnostics raise :class:`repro.verify.VerificationError`.
    """
    stats = PortfolioStats()
    probes: List[ProbeRecord] = []
    mii = compute_min_ii(loop, machine)
    result = None
    if loop.n_ops <= options.max_ops and race.racers:
        result = _search(loop, machine, options, race, mii, stats, probes)
    if result is None and options.fallback:
        # verify=False here: the wrapping result is verified below
        # instead, so the fallback schedule is not checked twice.
        fallback = pipeline_loop(
            loop, machine, PipelinerOptions(enable_membank=False), verify=False
        )
        result = PortfolioResult(
            success=fallback.success,
            schedule=fallback.schedule,
            allocation=fallback.allocation,
            loop=fallback.loop,
            min_ii=mii,
            fallback_used=True,
            fallback_result=fallback,
        )
    if result is None:
        result = PortfolioResult(
            success=False, schedule=None, allocation=None, loop=loop, min_ii=mii
        )
    result.probes = probes
    result.stats = stats
    result.disagreements = probe_disagreements(probes)
    rec = get_recorder()
    if rec.enabled and result.disagreements:
        rec.counter("portfolio.disagreements", len(result.disagreements))
    return _maybe_verify(result, machine, verify)


def portfolio_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[PortfolioOptions] = None,
    verify: Optional[bool] = None,
) -> PortfolioResult:
    """Schedule ``loop`` with the backend portfolio, falling back to heuristics."""
    machine = machine if machine is not None else r8000()
    options = options or PortfolioOptions()
    requested = options.backend_names()
    usable = [n for n in requested if n != "smt" or smt_available()]
    race = Race(
        producer="portfolio",
        racers=[
            (name, _backend_callable(name, loop, machine, options)) for name in usable
        ],
        min_slice=PORTFOLIO_MIN_SLICE,
        cross_check=options.cross_check,
    )
    result = walk_ii_range(loop, machine, options, race, verify)
    result.skipped_backends = tuple(n for n in requested if n not in usable)
    return result
