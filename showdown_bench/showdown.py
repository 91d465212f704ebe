"""The showdown workloads: one pipeliner over every committed loop.

One process, one caller, one loop at a time (a closed loop), no threads.
For every loop a pass computes the certified bounds (``repro.analyze``),
calls the pipeliner with its production options (one exception, below)
and verification on, simulates the generated code, and checks it against
the sequential reference.  Each pipeliner call gets a freshly built ``Loop``, so the memos
the schedulers keep on a loop's dependence graph never carry over.

Calls into the program go through module attributes (``core_driver.
pipeline_loop``, not a name imported here), so the traced run's wrappers
(:mod:`layers`) see them.
"""

from __future__ import annotations

import math
import random
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import repro.analyze.bounds as bounds_mod
import repro.baseline.list_scheduler as list_mod
import repro.core.driver as core_driver
import repro.pipeline.emit as emit_mod
import repro.pipeline.overhead as overhead_mod
import repro.portfolio.driver as portfolio_driver
import repro.rau.scheduler as rau_driver
import repro.sim.functional as functional
import repro.sim.perf as perf
import repro.verify.api as verify_api
from repro.ir.loop import Loop
from repro.machine.descriptions import MachineDescription, r8000
from repro.obs import get_recorder
from repro.sim.layout import DataLayout
from repro.verify import VerificationError
from repro.workloads.livermore import livermore_kernels
from repro.workloads.recbound import recbound_kernels
from repro.workloads.spec92 import spec92_suite

from layers import Tracer, ran_out_of_budget

#: A loop that runs longer than this counts as a timeout, so one stuck loop
#: cannot hold the run past its 180 s limit.
CELL_DEADLINE_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    compile: Callable[[Loop, MachineDescription], Any]
    #: the driver's own effort counters, read from its result
    stats: Callable[[Any], Dict[str, int]]
    #: wall seconds of the call's work that ran out a wall-clock budget
    budget_s: Callable[[Any], float] = lambda result: 0.0


def _sgi_stats(result) -> Dict[str, int]:
    s = result.stats
    return {"attempts": s.attempts, "placements": s.placements, "backtracks": s.backtracks}


def _portfolio_stats(result) -> Dict[str, int]:
    s = result.stats
    out = {"solves": s.solves, "nodes": s.nodes, "ii_attempts": s.ii_attempts}
    if result.fallback_result is not None:
        out["fallback_placements"] = result.fallback_result.stats.placements
    return out


def _portfolio_budget_s(result) -> float:
    if not ran_out_of_budget(result):
        return 0.0
    return sum(probe.seconds for probe in result.probes if probe.backend != "screen")


def _rau_stats(result) -> Dict[str, int]:
    s = result.stats
    return {"attempts": s.attempts, "placements": s.placements, "evictions": s.evictions}


#: Left out: MOST, whose default 20 s per-loop budget puts the 30-loop quick
#: grid alone at ~190 s (its solver, ``repro.ilp``, is measured through
#: ``portfolio.ilp``); and the ``serve`` daemon, out of scope this round.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sgi-corpus",
            lambda loop, m: core_driver.pipeline_loop(
                loop, m, core_driver.PipelinerOptions(), verify=True
            ),
            _sgi_stats,
        ),
        # Production options except that the ILP does not branch in SGI's
        # priority order.  With it, the ILP's first probe on ora_trace (II 82)
        # finds a schedule at node 274, and its 10 s slice reaches 208-274
        # nodes on a 2-vCPU host: whether it decides flips with host speed,
        # and the loop's compile time with it by 10 s.  Without it the ILP
        # decides neither ora_trace nor tomcatv_main within 1,000 nodes, so
        # both always run out their budget and fall back, as in production
        # on a loaded host.
        Workload(
            "portfolio-corpus",
            lambda loop, m: portfolio_driver.portfolio_pipeline_loop(
                loop, m, portfolio_driver.PortfolioOptions(priority_branching=False),
                verify=True,
            ),
            _portfolio_stats,
            _portfolio_budget_s,
        ),
        Workload(
            "rau-corpus",
            lambda loop, m: rau_driver.rau_pipeline_loop(
                loop, m, rau_driver.RauOptions(), verify=True
            ),
            _rau_stats,
        ),
    )
}


def build_corpus(machine: MachineDescription) -> Dict[str, Loop]:
    """Every committed loop, freshly built, by registry key (58 loops)."""
    loops = {f"livermore:{loop.name}": loop for loop in livermore_kernels(machine)}
    for bench in spec92_suite(machine):
        loops.update({f"spec92:{bench.name}/{loop.name}": loop for loop in bench.loops})
    loops.update({f"recbound:{loop.name}": loop for loop in recbound_kernels(machine)})
    return loops


def loop_order(keys, seed: int) -> List[str]:
    """The seed's compile order of the given loop keys."""
    order = sorted(keys)
    random.Random(seed).shuffle(order)
    return order


class CellTimeout(Exception):
    """A loop exceeded :data:`CELL_DEADLINE_S`."""


class _Deadline:
    """SIGALRM deadline on the main thread (the benchmark starts no threads)."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        def on_alarm(signum, frame):
            raise CellTimeout()

        self._old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False


@dataclass
class Cell:
    """The outcome of compiling and checking one loop."""

    loop: str
    n_ops: int
    min_ii: int
    bound: int
    status: str = "scheduled"  # | no-schedule | wrong | timeout | exception
    ii: Optional[int] = None
    producer: str = ""
    registers: Optional[int] = None
    spilled: int = 0
    fallback: bool = False
    optimal_claim: bool = False
    sim_cycles: Optional[int] = None
    work: Dict[str, int] = field(default_factory=dict)
    detail: str = ""
    compile_s: float = 0.0
    #: what counting wall-budget time in wall seconds added to ``compile_s``
    budget_correction: float = 0.0

    def quality(self) -> Dict[str, Any]:
        """Every field that must repeat exactly for one code and seed."""
        return {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("work", "compile_s", "budget_correction", "detail")
        }


def _sim_cycles_unpipelined(loop: Loop, machine: MachineDescription, seed: int) -> int:
    """Cycles of the code a compiler emits when pipelining fails: the
    list-scheduled loop body, iterations back to back."""
    schedule = list_mod.list_schedule(loop, machine)
    layout = DataLayout(loop, trip_count=loop.trip_count, seed=seed)
    return perf.simulate_sequential_body(schedule, layout, machine).cycles


def _check(cell: Cell, result, machine: MachineDescription, seed: int) -> None:
    """The correctness gate; appends every violation to ``cell.detail``."""
    problems = []
    if cell.ii < cell.min_ii:
        problems.append(f"II {cell.ii} < MinII {cell.min_ii}")
    if cell.ii < cell.bound:
        problems.append(f"II {cell.ii} < certified bound {cell.bound}")
    emitted = emit_mod.emit_pipelined_code(result.schedule, result.allocation)
    report = verify_api.verify_result(result, emitted=emitted, machine=machine)
    problems.extend(f"verify {d.rule}: {d.message}" for d in report.errors[:3])
    trips = min(64, max(12, 3 * result.schedule.n_stages))
    layout = DataLayout(result.loop, trip_count=trips, seed=seed)
    reference = functional.run_sequential(result.loop, layout, trips)
    try:
        pipelined = functional.run_pipelined(result.schedule, result.allocation, layout, trips)
    except CellTimeout:
        raise
    except Exception as exc:  # a wrong allocation can leave a register unset
        problems.append(f"pipelined functional simulation failed: {exc!r}")
    else:
        if not reference.matches(pipelined):
            problems.append(
                f"functional simulation differs from the sequential reference at trips={trips}"
            )
    if problems:
        cell.status = "wrong"
        cell.detail = "; ".join(problems)


def run_cell(
    workload: Workload,
    key: str,
    analyzed: Loop,
    loop: Loop,
    machine: MachineDescription,
    seed: int,
    now: Callable[[], float] = time.perf_counter,
) -> Cell:
    """Bound, compile, check and simulate one loop.

    ``analyzed`` and ``loop`` are two fresh builds of the same loop, so the
    analysis warms nothing the pipeliner then reuses.
    """
    bounds = bounds_mod.compute_bounds(analyzed, machine)
    cell = Cell(key, loop.n_ops, bounds.min_ii, bounds.refined_bound)
    start, wall_start = now(), time.perf_counter()
    try:
        result = workload.compile(loop, machine)
    except VerificationError as exc:
        cell.compile_s = now() - start
        cell.status, cell.detail = "wrong", str(exc).splitlines()[0]
        return cell
    except CellTimeout:
        raise
    except Exception:
        cell.compile_s = now() - start
        cell.status = "exception"
        cell.detail = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        return cell
    clocked, wall = now() - start, time.perf_counter() - wall_start
    # Time spent running out a wall-clock budget counts in wall seconds; the
    # rest of the call is scaled like the clock scaled the whole call.
    budget = workload.budget_s(result)
    cell.budget_correction = budget - budget * clocked / wall
    cell.compile_s = clocked + cell.budget_correction
    cell.work = workload.stats(result)
    fallback = getattr(result, "fallback_result", None)
    cell.fallback = bool(getattr(result, "fallback_used", False))
    cell.optimal_claim = bool(getattr(result, "optimal", False))
    spilled = getattr(fallback or result, "spilled", None) or []
    cell.spilled = len(spilled)
    if not result.success:
        cell.status = "no-schedule"
        cell.sim_cycles = _sim_cycles_unpipelined(loop, machine, seed)
        return cell
    cell.ii = result.ii
    cell.producer = result.schedule.producer
    cell.registers = result.allocation.registers_used
    _check(cell, result, machine, seed)
    if cell.status == "wrong":
        return cell
    scheduled = result.schedule.loop
    overhead = overhead_mod.pipeline_overhead(result.schedule, result.allocation, machine)
    layout = DataLayout(scheduled, trip_count=scheduled.trip_count, seed=seed)
    cell.sim_cycles = perf.simulate_pipelined(
        result.schedule, layout, machine, overhead=overhead
    ).cycles
    return cell


@dataclass
class Pass:
    cells: List[Cell]
    run_s: float
    compile_s: float


def run_pass(
    workload: Workload,
    machine: MachineDescription,
    seed: int,
    tracer: Optional[Tracer] = None,
    keys: Optional[List[str]] = None,
    now: Callable[[], float] = time.perf_counter,
) -> Pass:
    """Compile every loop once, in the seed's order, timed by ``now``.

    ``keys`` restricts the pass to some loops (tests use small passes).
    """
    if get_recorder().enabled:
        raise RuntimeError("the repro.obs recorder must be off: it disables the B&B memo")
    frame = tracer.enter("exec") if tracer else None
    start = now()
    analyzed = build_corpus(machine)
    fresh = build_corpus(machine)
    cells = []
    for key in loop_order(keys if keys is not None else fresh, seed):
        if tracer:
            tracer.cell = key
        try:
            with _Deadline(CELL_DEADLINE_S):
                cell = run_cell(workload, key, analyzed[key], fresh[key], machine, seed, now)
        except CellTimeout:
            loop = fresh[key]
            cell = Cell(key, loop.n_ops, 0, 0, status="timeout",
                        detail=f"over {CELL_DEADLINE_S:.0f} s")
        cells.append(cell)
    run_s = now() - start + sum(cell.budget_correction for cell in cells)
    if tracer:
        tracer.cell = ""
        tracer.exit(frame)
    return Pass(cells, run_s, sum(cell.compile_s for cell in cells))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality_metrics(cells: List[Cell]) -> Dict[str, float]:
    """The per-pass quality metrics (shares are of loops attempted)."""
    n = len(cells)
    scheduled = [c for c in cells if c.status == "scheduled"]
    return {
        "scheduled_share": len(scheduled) / n,
        "native_share": sum(1 for c in scheduled if not c.fallback) / n,
        "optimal_share": sum(1 for c in scheduled if c.ii == c.bound) / n,
        "ii_ratio_geomean": geomean(c.ii / c.min_ii for c in scheduled),
        "sim_cycles_geomean": geomean(c.sim_cycles for c in cells if c.sim_cycles),
    }
