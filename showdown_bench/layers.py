"""Per-layer tracing for the showdown benchmark, applied from outside ``src/``.

:class:`Tracer` replaces each layer's public functions with wrappers that
record a span (layer, cell, parent, start, end) and read work counts from
arguments and return values.  Modules import these functions by name (for
example ``allocate_schedule`` is bound in ``repro.core.driver``,
``repro.portfolio.driver`` and ``repro.rau.scheduler``), so every binding
in every loaded ``repro.*`` module is replaced, and restored on exit.

The ``repro.obs`` recorder stays off.  An enabled recorder bypasses the
B&B attempt memo (``repro.core.bnb.modulo_schedule_bnb``), so a run with it
on would measure a different program than the untraced run.

A layer's self time is its spans' duration minus the part its child spans
cover.  ``exec`` is the benchmark's own per-pass span, so the self times
of all layers sum to the pass time (``run_s``), and the self times inside
the pipeliner call sum to ``compile_s``.  Durations are in the clock the
tracer is given (reference seconds in a run, see ``refclock.py``), except
that the solver calls of a pipeliner call that ran out its wall-clock budget
last their wall time: together they last the budget whatever the host's speed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Counts = Dict[str, float]
WorkReader = Callable[[tuple, dict, Any, Any], Counts]


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions that enter it and what it counts."""

    name: str
    targets: Tuple[Tuple[str, str], ...]
    #: end-to-end metric this layer's numbers should move, and on which workload
    moves: str
    #: reads work counts from (args, kwargs, result, pre-call state)
    work: Optional[WorkReader] = None
    #: snapshots state before the call, for readers that diff it
    pre: Optional[Callable[[tuple, dict], Any]] = None
    #: true when a call's result says it ran out its wall-clock budget
    ran_out: Optional[Callable[[Any], bool]] = None
    #: calls share their caller's wall-clock budget
    budgeted: bool = False
    #: (metric, numerator counter, denominator counter) ratios reported
    ratios: Tuple[Tuple[str, str, str], ...] = ()
    #: counters reported as metrics besides calls and self_s
    reported: Tuple[str, ...] = ()


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _bnb_memo_size(args: tuple, kwargs: dict) -> int:
    # A completed attempt is memoized on the loop's DDG; a call that adds no
    # entry was answered from the memo and searched nothing.
    memo = getattr(_arg(args, kwargs, 0, "loop").ddg, "_bnb_attempt_memo", None)
    return len(memo) if memo else 0


def _bnb_work(args: tuple, kwargs: dict, result: Any, before: int) -> Counts:
    if _bnb_memo_size(args, kwargs) == before:
        return {"memo_hits": 1}
    return {
        "searched": 1,
        "placements": result.placements,
        "succeeded": int(result.success),
    }


def _iisearch_work(args: tuple, kwargs: dict, result: Any, _: Any) -> Counts:
    return {"ii_attempts": sum(1 for attempt in result.attempted if not attempt.pruned)}


def _spill_work(args: tuple, kwargs: dict, result: Any, _: Any) -> Counts:
    # insert_spills returns the rewritten loop; count the values it spilled.
    if isinstance(result, list):
        return {}
    return {"values": len(_arg(args, kwargs, 2, "values"))}


def _success_work(args: tuple, kwargs: dict, result: Any, _: Any) -> Counts:
    return {"succeeded": int(result.success)}


def _answer_work(args: tuple, kwargs: dict, result: Any, _: Any) -> Counts:
    return {"nodes": result.nodes, "decided": int(result.definitive)}


def ran_out_of_budget(result: Any) -> bool:
    """True when a portfolio result has a probe that stopped on the clock.

    The probes of such a loop share the loop's wall-clock budget: a slower
    host spends longer in each probe and leaves less for the last one, so
    together they last the budget.  The benchmark counts them in wall seconds.
    """
    from repro.portfolio.driver import PortfolioOptions

    max_nodes = PortfolioOptions().max_nodes
    return any(
        probe.answer == "unknown" and probe.nodes < max_nodes
        for probe in result.probes
        if probe.backend != "screen"
    )


def _rau_placements(args: tuple, kwargs: dict) -> int:
    stats = _arg(args, kwargs, 4, "stats")
    return stats.placements if stats is not None else 0


def _rau_work(args: tuple, kwargs: dict, result: Any, before: int) -> Counts:
    return {
        "placements": _rau_placements(args, kwargs) - before,
        "succeeded": int(result is not None),
    }


def _sim_perf_work(args: tuple, kwargs: dict, result: Any, _: Any) -> Counts:
    return {"cycles": result.cycles}


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "core.driver",
        (("repro.core.driver", "pipeline_loop"),),
        moves="compile_s on sgi-corpus",
    ),
    Layer(
        "core.minii",
        (("repro.core.minii", "min_ii"),),
        moves="run_s, not compile_s",
    ),
    Layer(
        "core.iisearch",
        (("repro.core.iisearch", "search_ii"),),
        moves="compile_s on sgi-corpus",
        work=_iisearch_work,
        reported=("ii_attempts",),
    ),
    Layer(
        "core.bnb",
        (("repro.core.bnb", "modulo_schedule_bnb"),),
        moves="compile_s on sgi-corpus; predicted no change on rau-corpus",
        work=_bnb_work,
        pre=_bnb_memo_size,
        ratios=(("success_ratio", "succeeded", "searched"),),
        reported=("placements", "memo_hits"),
    ),
    Layer(
        "core.spill",
        (
            ("repro.core.spill", "choose_spill_candidates"),
            ("repro.core.spill", "insert_spills"),
        ),
        moves="compile_s and ii_ratio_geomean on sgi-corpus",
        work=_spill_work,
        reported=("values",),
    ),
    Layer(
        "regalloc",
        (("repro.regalloc.coloring", "allocate_schedule"),),
        moves="compile_s on rau-corpus and sgi-corpus; little effect on portfolio-corpus",
        work=_success_work,
        ratios=(("success_ratio", "succeeded", "calls"),),
    ),
    Layer(
        "portfolio.driver",
        (("repro.portfolio.driver", "portfolio_pipeline_loop"),),
        moves="compile_s on portfolio-corpus",
        ran_out=ran_out_of_budget,
    ),
    Layer(
        "portfolio.formulation",
        (
            ("repro.portfolio.formulation", "build_modulo_formulation"),
            ("repro.portfolio.formulation", "check_witness"),
        ),
        moves="compile_s on portfolio-corpus",
    ),
    Layer(
        "portfolio.cp",
        (("repro.portfolio.cp", "solve_cp"),),
        moves="compile_s, native_share and optimal_share on portfolio-corpus",
        work=_answer_work,
        budgeted=True,
        ratios=(("decided_ratio", "decided", "calls"),),
        reported=("nodes",),
    ),
    Layer(
        "portfolio.ilp",
        (("repro.portfolio.ilp_backend", "solve_ilp"),),
        moves="compile_s, native_share and optimal_share on portfolio-corpus",
        work=_answer_work,
        budgeted=True,
        ratios=(("decided_ratio", "decided", "calls"),),
        reported=("nodes",),
    ),
    Layer(
        "rau.driver",
        (("repro.rau.scheduler", "rau_pipeline_loop"),),
        moves="compile_s on rau-corpus",
    ),
    Layer(
        "rau",
        (("repro.rau.scheduler", "iterative_modulo_schedule"),),
        moves="compile_s on rau-corpus",
        work=_rau_work,
        pre=_rau_placements,
        ratios=(("success_ratio", "succeeded", "calls"),),
        reported=("placements",),
    ),
    Layer(
        "analyze",
        (
            ("repro.analyze.bounds", "compute_bounds"),
            ("repro.analyze.bounds", "schedulable_bound"),
        ),
        moves="run_s, not compile_s",
    ),
    Layer(
        "pipeline",
        (
            ("repro.pipeline.overhead", "pipeline_overhead"),
            ("repro.pipeline.emit", "emit_pipelined_code"),
        ),
        moves="run_s, not compile_s",
    ),
    Layer(
        "verify",
        (
            ("repro.verify.api", "verify_result"),
            ("repro.verify.api", "enforce_verified"),
        ),
        moves="run_s, not compile_s",
    ),
    Layer(
        "sim.perf",
        (
            ("repro.sim.perf", "simulate_pipelined"),
            ("repro.sim.perf", "simulate_sequential_body"),
        ),
        moves="run_s, not compile_s",
        work=_sim_perf_work,
        reported=("cycles",),
    ),
    Layer(
        "sim.functional",
        (
            ("repro.sim.functional", "run_sequential"),
            ("repro.sim.functional", "run_pipelined"),
        ),
        moves="run_s, not compile_s",
    ),
    # The benchmark's own code: corpus build, layouts and the gate.
    Layer("exec", (), moves="run_s, not compile_s"),
)

#: Layers whose span is one pipeliner call; time inside them is compile time.
DRIVER_LAYERS = frozenset({"core.driver", "portfolio.driver", "rau.driver"})
BUDGETED_LAYERS = frozenset(layer.name for layer in LAYERS if layer.budgeted)


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names: List[Tuple[str, str]] = [("trace.run_s", "s"), ("trace.compile_s", "s")]
    for layer in LAYERS:
        names.append((f"{layer.name}.calls", "count"))
        names.append((f"{layer.name}.self_s", "s"))
        names.extend((f"{layer.name}.{counter}", "count") for counter in layer.reported)
        names.extend((f"{layer.name}.{ratio}", "ratio") for ratio, _, _ in layer.ratios)
    return names


class _Frame:
    __slots__ = (
        "layer", "span_id", "parent", "start", "wall_start", "child", "extra",
        "in_compile", "budgeted_calls",
    )

    def __init__(self, layer, span_id, parent, start, in_compile):
        self.layer = layer
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.wall_start = time.perf_counter()
        self.child = 0.0  # duration of child spans
        self.extra = 0.0  # wall-budget corrections of descendant spans
        self.in_compile = in_compile
        #: (layer, in compile, duration, wall duration) of budgeted child calls
        self.budgeted_calls: List[Tuple[str, bool, float, float]] = []


class Tracer:
    """Spans and work counts for one traced pass over the corpus."""

    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self.now = now
        self.counts: Dict[str, Counts] = {layer.name: defaultdict(float) for layer in LAYERS}
        #: per-layer self time spent inside a pipeliner call
        self.compile_self: Dict[str, float] = defaultdict(float)
        #: per-cell work counts, for the repeatability report
        self.cell_counts: Dict[str, Counts] = {}
        #: (span id, parent id, layer, cell, start, end), kept in memory
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.cell = ""
        self._stack: List[_Frame] = []
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any]] = []
        self.originals: Dict[int, Any] = {}

    # -- spans ---------------------------------------------------------
    def enter(self, layer: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(
            layer,
            next(self._ids),
            parent.span_id if parent else 0,
            self.now(),
            layer in DRIVER_LAYERS or (parent is not None and parent.in_compile),
        )
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame, ran_out: bool = False) -> None:
        end, wall = self.now(), time.perf_counter() - frame.wall_start
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - wrappers always nest
            raise RuntimeError("trace spans exited out of order")
        clocked = end - frame.start
        duration = clocked + frame.extra
        own = duration - frame.child
        if ran_out:
            # The budgeted child calls last their wall time; this span and
            # its ancestors grow by as much, its own time does not change.
            for name, in_compile, child, child_wall in frame.budgeted_calls:
                self.counts[name]["self_s"] += child_wall - child
                if in_compile:
                    self.compile_self[name] += child_wall - child
                duration += child_wall - child
        counts = self.counts[frame.layer]
        counts["calls"] += 1
        counts["self_s"] += own
        if frame.in_compile:
            self.compile_self[frame.layer] += own
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.extra += duration - clocked
            if frame.layer in BUDGETED_LAYERS:
                parent.budgeted_calls.append((frame.layer, frame.in_compile, duration, wall))
        self.spans.append(
            (frame.span_id, frame.parent, frame.layer, self.cell, frame.start, end)
        )
        self._count_cell(f"{frame.layer}.calls", 1)

    def _count_cell(self, name: str, value: float) -> None:
        if self.cell:
            cell = self.cell_counts.setdefault(self.cell, {})
            cell[name] = cell.get(name, 0) + value

    # -- wrapping ------------------------------------------------------
    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = layer.pre(args, kwargs) if layer.pre is not None else None
            frame = tracer.enter(layer.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame)
                raise
            tracer.exit(frame, layer.ran_out is not None and layer.ran_out(result))
            if layer.work is not None:
                counts = tracer.counts[layer.name]
                for name, value in layer.work(args, kwargs, result, state).items():
                    counts[name] += value
                    tracer._count_cell(f"{layer.name}.{name}", value)
            return result

        wrapper.showdown_layer = layer.name  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Replace every ``repro.*`` binding of every layer function."""
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            for module_name, attr in layer.targets:
                fn = getattr(importlib.import_module(module_name), attr)
                self.originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(layer, fn)
        for _, module, attr, value in list(self._original_bindings()):
            setattr(module, attr, wrappers[id(value)])
            self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _original_bindings(self):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if self.originals.get(id(value)) is value:
                    yield name, module, attr, value

    def unwrapped_bindings(self) -> List[str]:
        """``module.attr`` of every loaded ``repro.*`` binding still original."""
        return sorted(f"{name}.{attr}" for name, _, attr, _ in self._original_bindings())

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except the two ``trace.*`` totals."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            counts = self.counts[layer.name]
            out[f"{layer.name}.calls"] = counts["calls"]
            out[f"{layer.name}.self_s"] = counts["self_s"]
            for counter in layer.reported:
                out[f"{layer.name}.{counter}"] = counts[counter]
            for ratio, num, den in layer.ratios:
                out[f"{layer.name}.{ratio}"] = counts[num] / counts[den] if counts[den] else 0.0
        return out

    def work_counts(self) -> Dict[str, float]:
        """Every deterministic count (no times), for repeatability checks."""
        return {
            f"{layer}.{name}": value
            for layer, counts in self.counts.items()
            for name, value in sorted(counts.items())
            if name != "self_s"
        }
