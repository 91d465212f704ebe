"""MOST: the optimal (ILP-based) pipeliner as a configuration of the shared walk.

Mirrors the adjusted McGill methodology of Section 3.3:

1. a *resource-constrained* schedule is sought first (the integrated
   register-optimal formulation was too slow to be usable);
2. a second solve minimises *buffers* — iteration overlap — under a time
   limit, accepting the best suboptimal solution found;
3. the solver's branch order follows the same multiple priority-order
   heuristics as the SGI pipeliner, tried in turn until one solves;
4. the heuristic pipeliner backs the whole thing up (Section 4.4): not
   every loop the SGI pipeliner schedules is reachable by MOST in
   reasonable time.

Steps 1, 3 and 4 are the portfolio's II walk
(:func:`repro.portfolio.driver.walk_ii_range`) racing the ILP alone: one
racer per SGI production order, where an unknown answer hands over to the
next order.  Step 2 is a post-pass on the winning schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.driver import StrictOptions
from ..core.priorities import production_orders
from ..core.sched import Schedule
from ..ilp.solver import SolverOptions, solve_milp
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..obs import get_recorder
from ..portfolio.driver import (
    PAPER_TIME_LIMIT,
    PortfolioResult,
    PortfolioStats,
    PostPass,
    Race,
    Racer,
    walk_ii_range,
)
from ..portfolio.ilp_backend import build_formulation, solve_ilp

#: The smallest slice an ILP racer gets: below a second the solver spends
#: its time setting up rather than searching.
MOST_MIN_SLICE = 1.0


@dataclass
class MostOptions(StrictOptions):
    """Configuration of the optimal pipeliner."""

    # Per-loop search budget; defaults to the paper's three minutes
    # (experiment configurations pass their own, much smaller, value).
    time_limit: float = PAPER_TIME_LIMIT
    minimize_buffers: bool = True
    # "overhead": minimise the stage count instead of buffers — the ILP
    # objective the paper's conclusions propose as future work (§5).
    objective: str = "buffers"
    integrated: bool = False  # single integrated solve (ablation, §3.3 adj. 1)
    engine: str = "bnb"  # "bnb" (ours) or "scipy" (HiGHS)
    priority_branching: bool = True  # §3.3 adjustment 3
    max_ops: int = 80  # loops beyond this go straight to the fallback
    ii_cap_factor: int = 2
    stages: Optional[int] = None
    fallback: bool = True  # use the heuristic pipeliner as backup
    max_nodes: int = 200_000


def _ilp_racers(
    loop: Loop, machine: MachineDescription, options: MostOptions
) -> List[Tuple[str, Racer]]:
    """One ILP racer per SGI production order (§3.3 adjustment 3).

    Stage 1 is a feasibility question, so a racer stops at the first
    schedule — unless the ``integrated`` ablation asks it to solve the
    buffer-optimal model in one go.
    """
    orders: List[Optional[List[int]]] = (
        list(production_orders(loop, machine).values())
        if options.priority_branching
        else [None]
    )

    def racer(order: Optional[List[int]]) -> Racer:
        return lambda f, limit: solve_ilp(
            f,
            loop,
            time_limit=limit,
            max_nodes=options.max_nodes,
            engine=options.engine,
            branch_priority=order,
            minimize_buffers=options.integrated,
        )

    return [("ilp", racer(order)) for order in orders]


def _post_pass(
    loop: Loop, machine: MachineDescription, options: MostOptions
) -> Optional[PostPass]:
    """Stage 2 on the winning witness: its buffers, or a secondary re-solve."""
    if options.integrated:
        # The racer already solved the buffer-optimal model.
        return lambda ii, winner, budget, stats: (
            dict(winner.times),
            None if winner.objective is None else int(round(winner.objective)),
        )
    if options.minimize_buffers:
        # Cap the secondary solve so one II cannot starve the rest of the
        # II range of solver time: at most a third of the budget, and
        # never more than remains of it.
        return lambda ii, winner, budget, stats: _optimise_secondary(
            loop, machine, ii, dict(winner.times), options, stats,
            budget.slice(parts=3),
        )
    return None


def most_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[MostOptions] = None,
    verify: Optional[bool] = None,
) -> PortfolioResult:
    """Schedule ``loop`` with the ILP pipeliner, falling back to heuristics.

    ``verify`` cross-checks successful results with the independent
    ``repro.verify`` analyzers (``None`` = process default); ERROR
    diagnostics raise :class:`repro.verify.VerificationError`.
    """
    machine = machine if machine is not None else r8000()
    options = options or MostOptions()
    race = Race(
        producer="most",
        racers=_ilp_racers(loop, machine, options),
        min_slice=MOST_MIN_SLICE,
        post_pass=_post_pass(loop, machine, options),
    )
    return walk_ii_range(loop, machine, options, race, verify)


def _optimise_secondary(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    initial_times: Dict[int, int],
    options: MostOptions,
    stats: PortfolioStats,
    time_limit: float,
):
    """Stage 2: re-solve with the secondary objective under the budget.

    Keeps the stage-1 schedule when the solver cannot improve on it in
    time ("it would accept the best suboptimal solution found, if any").
    The objective is buffers (§3.3) or, as the extension of §5, the stage
    count that loop overhead scales with.  ``time_limit`` is the slice of
    the loop's :class:`~repro.portfolio.driver.SolveBudget` this stage may
    consume.
    """
    if time_limit <= 0.5:
        return initial_times, None
    # The stage-1 schedule is a feasible incumbent: its own objective value
    # is a sound cutoff that prunes most of the minimisation tree.
    incumbent = Schedule(
        loop=loop, machine=machine, ii=ii, times=dict(initial_times), producer="most/stage1"
    )
    if options.objective == "overhead":
        formulation = build_formulation(
            loop,
            machine,
            ii,
            stages=options.stages,
            minimize_overhead=True,
            overhead_cutoff=incumbent.n_stages,
        )
    else:
        formulation = build_formulation(
            loop,
            machine,
            ii,
            stages=options.stages,
            minimize_buffers=True,
            buffer_cutoff=incumbent.buffer_count(),
        )
    if formulation.infeasible:
        return initial_times, None
    solver_options = SolverOptions(
        time_limit=time_limit,
        branch_priority=(
            formulation.branch_priority(
                next(iter(production_orders(loop, machine).values()))
            )
            if options.priority_branching
            else None
        ),
        engine=options.engine,
        max_nodes=options.max_nodes,
        branch_up_first=options.priority_branching,
    )
    with get_recorder().span("most.secondary", loop=loop.name, ii=ii):
        result = solve_milp(formulation.model, solver_options)
    stats.solves += 1
    stats.nodes += result.nodes
    stats.seconds += result.seconds
    if result.has_solution:
        return formulation.decode_times(result), int(round(result.objective))
    return initial_times, None
