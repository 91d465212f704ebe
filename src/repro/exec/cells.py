"""Experiment cells: the unit of work the parallel engine fans out.

A *cell* is one (loop, scheduler, options) combination, exactly what the
sequential experiment drivers used to evaluate inline.  Cells reference
loops by *registry key* (``livermore:lk01_hydro``, ``spec92:alvinn/...``)
rather than by value: workers re-materialise the loop from the workload
modules, which keeps cells trivially picklable and lets the cache key
incorporate the loop IR's content hash — an edited kernel invalidates its
own entries automatically.

The module also holds the pipeliner table (:data:`PIPELINERS`): the one
place that knows which schedulers exist and how to parse the options of,
run and read the result of each.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000


# ----------------------------------------------------------------------
# The pipeliner table: name -> options class, driver, outcome reader
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What a pipeliner's result reports besides its schedule, under
    :class:`CellResult`'s field names.  The optimal pipeliners never spill:
    their spill rounds are the heuristic fallback's."""

    spill_rounds: int = 0
    optimal: bool = False
    fallback: bool = False
    order_name: str = ""
    backend_seconds: Dict[str, float] = field(default_factory=dict)
    backend_probes: List[Dict[str, Any]] = field(default_factory=list)


def _heuristic_outcome(result) -> Outcome:
    return Outcome(spill_rounds=result.spill_rounds, order_name=result.order_name)


def _walk_outcome(result) -> Outcome:
    fallback = result.fallback_result if result.fallback_used else None
    return Outcome(
        spill_rounds=fallback.spill_rounds if fallback is not None else 0,
        optimal=result.optimal,
        fallback=result.fallback_used,
        backend_seconds=result.stats.backend_seconds(),
        backend_probes=[probe.to_dict() for probe in result.probes],
    )


class Pipeliner(NamedTuple):
    """One row of the pipeliner table.  The options class and the driver
    live in ``module`` (under ``repro``) and are looked up at call time, so
    the table imports no scheduler and a rebound driver sees every call."""

    module: str
    options: str
    driver: str
    outcome: Callable[[Any], Outcome]


PIPELINERS: Dict[str, Pipeliner] = {
    "sgi": Pipeliner("core.driver", "PipelinerOptions", "pipeline_loop", _heuristic_outcome),
    "most": Pipeliner("most.scheduler", "MostOptions", "most_pipeline_loop", _walk_outcome),
    "rau": Pipeliner("rau.scheduler", "RauOptions", "rau_pipeline_loop", _heuristic_outcome),
    "portfolio": Pipeliner(
        "portfolio.driver", "PortfolioOptions", "portfolio_pipeline_loop", _walk_outcome
    ),
}

#: Every cell scheduler: the pipeliners, plus the list scheduler the runner
#: special-cases as the no-pipelining baseline.
SCHEDULERS = (*PIPELINERS, "baseline")


def _row(name: str) -> Pipeliner:
    if name not in PIPELINERS:
        raise ValueError(f"unknown pipeliner {name!r} (expected one of {', '.join(PIPELINERS)})")
    return PIPELINERS[name]


def _resolve(name: str, column: str) -> Any:
    row = _row(name)
    return getattr(importlib.import_module(f"..{row.module}", __package__), getattr(row, column))


def parse_options(name: str, data: Optional[Mapping[str, Any]] = None) -> Any:
    """The named pipeliner's options from a JSON-style mapping; unknown
    keys raise :class:`ValueError` naming them."""
    return _resolve(name, "options").from_dict(data or {})


def run_pipeliner(
    name: str,
    loop: Loop,
    machine: MachineDescription,
    options: Optional[Mapping[str, Any]] = None,
    verify: Optional[bool] = None,
):
    """Pipeline ``loop`` with the named pipeliner and JSON-style options."""
    driver = _resolve(name, "driver")
    return driver(loop, machine, parse_options(name, options), verify=verify)


def read_outcome(name: str, result) -> Outcome:
    """Spill rounds, proven optimality and fallback of a pipeliner's result."""
    return _row(name).outcome(result)


# ----------------------------------------------------------------------
# The loop registry: key -> Loop
# ----------------------------------------------------------------------
def _livermore(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.livermore import livermore_kernels

    for loop in livermore_kernels(machine):
        if loop.name == rest:
            return loop
    raise KeyError(f"no Livermore kernel named {rest!r}")


def _spec92(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.spec92 import spec92_suite

    bench_name, _, loop_name = rest.partition("/")
    for bench in spec92_suite(machine):
        if bench.name != bench_name:
            continue
        for loop in bench.loops:
            if loop.name == loop_name:
                return loop
        raise KeyError(f"benchmark {bench_name!r} has no loop {loop_name!r}")
    raise KeyError(f"no SPEC92 benchmark named {bench_name!r}")


def _scaling(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.generators import scaling_series

    return scaling_series([int(rest)], machine=machine)[0]


def _random(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.generators import random_loop

    return random_loop(int(rest), machine=machine)


def _fuzz(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.mutate import spec_from_token

    return spec_from_token(rest).build(machine)


def _recbound(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.recbound import recbound_kernel

    return recbound_kernel(rest, machine)


#: Loop sources by key prefix.  Tests may register extra sources (or shadow
#: existing ones) to model IR drift without editing workload modules.
LOOP_SOURCES: Dict[str, Callable[[str, MachineDescription], Loop]] = {
    "livermore": _livermore,
    "spec92": _spec92,
    "scaling": _scaling,
    "random": _random,
    "fuzz": _fuzz,
    "recbound": _recbound,
}

#: Sources whose keys are one-shot (fuzz tokens: every generated loop is a
#: new key, so memoising them would only grow the per-process memo without
#: ever hitting).
UNMEMOIZED_SOURCES = frozenset({"fuzz"})

_LOOP_MEMO: Dict[Tuple[str, str], Loop] = {}


def resolve_loop(key: str, machine: Optional[MachineDescription] = None) -> Loop:
    """Materialise the loop a registry key names (memoised per process)."""
    machine = machine if machine is not None else r8000()
    memo_key = (key, machine.name)
    if memo_key in _LOOP_MEMO:
        return _LOOP_MEMO[memo_key]
    prefix, _, rest = key.partition(":")
    try:
        source = LOOP_SOURCES[prefix]
    except KeyError:
        raise KeyError(
            f"unknown loop source {prefix!r} in {key!r} "
            f"(known: {', '.join(sorted(LOOP_SOURCES))})"
        ) from None
    loop = source(rest, machine)
    if prefix not in UNMEMOIZED_SOURCES:
        _LOOP_MEMO[memo_key] = loop
    return loop


def clear_loop_memo() -> None:
    """Drop the per-process loop memo (tests mutate ``LOOP_SOURCES``)."""
    _LOOP_MEMO.clear()


#: The committed corpora, in the order ``all`` concatenates them.
CORPORA = ("livermore", "spec92", "recbound")


def corpus_entries(
    corpus: str, machine: Optional[MachineDescription] = None
) -> List[Tuple[str, Loop]]:
    """(registry key, freshly built loop) for every loop of a named corpus:
    ``livermore``, ``spec92``, ``recbound`` or ``all``."""
    machine = machine if machine is not None else r8000()
    if corpus == "all":
        return [entry for name in CORPORA for entry in corpus_entries(name, machine)]
    if corpus == "livermore":
        from ..workloads.livermore import livermore_kernels

        return [(f"livermore:{loop.name}", loop) for loop in livermore_kernels(machine)]
    if corpus == "spec92":
        from ..workloads.spec92 import spec92_suite

        return [
            (f"spec92:{bench.name}/{loop.name}", loop)
            for bench in spec92_suite(machine)
            for loop in bench.loops
        ]
    if corpus == "recbound":
        from ..workloads.recbound import recbound_kernels

        return [(f"recbound:{loop.name}", loop) for loop in recbound_kernels(machine)]
    raise ValueError(
        f"unknown corpus {corpus!r} (expected {', '.join(CORPORA)} or all)"
    )


def corpus_loop_keys(corpus: str, machine: Optional[MachineDescription] = None) -> List[str]:
    """All registry keys of a named corpus (see :func:`corpus_entries`)."""
    return [key for key, _ in corpus_entries(corpus, machine)]


# ----------------------------------------------------------------------
# Cells and their results
# ----------------------------------------------------------------------
def canonical_options(options: Optional[Mapping[str, Any]]) -> str:
    """Canonical JSON for an options mapping (sorted keys, no whitespace)."""
    return json.dumps(dict(options or {}), sort_keys=True, separators=(",", ":"))


def _payload(record) -> Dict[str, Any]:
    """A dataclass record as a JSON-ready dict, in field order.

    Tuples become lists, and top-level lists and dicts are copied.
    """
    payload: Dict[str, Any] = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (tuple, list)):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(value)
        payload[f.name] = value
    return payload


def _from_payload(cls, data: Mapping[str, Any]):
    """The inverse of :func:`_payload`; keys that are not fields are ignored."""
    return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass(frozen=True)
class Cell:
    """One schedulable unit: a loop, a scheduler, and its options.

    ``options_json`` is canonical JSON so cells are hashable dict keys and
    byte-identical options always map to the same cache entry.  ``trips``
    lists extra trip counts to simulate beyond the loop's nominal one;
    ``timeout`` is the hard per-cell wall-clock deadline enforced in the
    worker.  ``trace`` records the scheduler's search through ``repro.obs``
    (folded counters plus a per-cell JSONL event spool when ``trace_dir``
    is set); it participates in the cache key — traced and untraced results
    differ in payload — but ``trace_dir`` is just an output location and
    does not.  ``explain`` additionally attributes the cell's achieved II
    to its binding constraint (:mod:`repro.obs.explain`); like ``trace``
    it changes the result payload and therefore the cache key.  ``oracle``
    runs the fuzzer's dynamic oracle layers after scheduling — independent
    re-verification into ``verify_errors`` and a functional-equivalence
    simulation against the sequential reference into ``funcsim_ok`` — and
    also participates in the cache key.  ``analyze`` computes the certified
    refined II lower bound (:mod:`repro.analyze`) on the pristine loop and
    stores it (plus the full certificate payload) in the result; it changes
    the result payload and therefore participates in the cache key.
    """

    loop: str
    scheduler: str
    options_json: str = "{}"
    trips: Tuple[int, ...] = ()
    seed: int = 0
    timeout: Optional[float] = None
    simulate: bool = True
    verify: Optional[bool] = None
    trace: bool = False
    trace_dir: Optional[str] = None
    explain: bool = False
    oracle: bool = False
    analyze: bool = False

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r} (expected one of {SCHEDULERS})"
            )
        object.__setattr__(self, "trips", tuple(self.trips))

    @classmethod
    def make(
        cls,
        loop: str,
        scheduler: str,
        options: Optional[Mapping[str, Any]] = None,
        **settings: Any,
    ) -> "Cell":
        """A cell from an options mapping; ``settings`` are the other fields."""
        return cls(loop, scheduler, canonical_options(options), **settings)

    @property
    def options(self) -> Dict[str, Any]:
        return json.loads(self.options_json)

    @property
    def label(self) -> str:
        opts = "" if self.options_json == "{}" else f" {self.options_json}"
        return f"{self.loop} × {self.scheduler}{opts}"

    def to_dict(self) -> Dict[str, Any]:
        return _payload(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Cell":
        return _from_payload(cls, data)


@dataclass
class CellResult:
    """Everything one cell's execution measured, JSON-serialisable.

    ``sim_cycles`` maps a trip-count label (``"default"`` or the decimal
    trip count) to simulated cycles including pipeline overhead.
    ``schedule_seconds`` is the scheduler-reported search time;
    ``wall_seconds`` the worker's wall clock for the whole cell.
    """

    loop: str
    scheduler: str
    options_json: str = "{}"
    success: bool = False
    error: Optional[str] = None
    n_ops: int = 0
    ii: Optional[int] = None
    min_ii: int = 0
    schedule_seconds: float = 0.0
    sched_wall_seconds: float = 0.0  # wall clock around the scheduler call only
    wall_seconds: float = 0.0
    timeout: bool = False
    fallback: bool = False
    optimal: bool = False
    producer: str = ""
    order_name: str = ""
    spill_rounds: int = 0
    n_stages: Optional[int] = None
    registers_used: Optional[int] = None
    overhead_cycles: Optional[int] = None
    sim_cycles: Dict[str, float] = field(default_factory=dict)
    # Search-effort counters folded from repro.obs when the cell was traced
    # (B&B nodes, ILP nodes, simplex iterations, ...), and the per-cell
    # JSONL event spool, when one was written.
    obs: Dict[str, float] = field(default_factory=dict)
    trace_file: Optional[str] = None
    # Binding-constraint attribution (repro.obs.explain) when the cell was
    # run with ``explain=True``: an IIExplanation.to_dict() payload.
    explanation: Optional[Dict[str, Any]] = None
    # Fuzz-oracle layers, filled when the cell was run with ``oracle=True``:
    # independent-verifier errors ("RULE: message" strings; empty = clean)
    # and whether the pipelined functional simulation matched the
    # sequential reference (None = oracle off or nothing to simulate).
    verify_errors: List[str] = field(default_factory=list)
    funcsim_ok: Optional[bool] = None
    funcsim_detail: str = ""
    # Certified refined II lower bound (repro.analyze) when the cell was run
    # with ``analyze=True``: the bound itself and the full LoopBounds payload
    # (certificates included), both computed on the pristine loop before any
    # seeded fault injection.
    refined_bound: Optional[int] = None
    bounds: Optional[Dict[str, Any]] = None
    # Portfolio cells only: per-backend solve seconds and the (II, backend,
    # answer) probe trail the cross-backend agreement oracle audits.
    backend_seconds: Dict[str, float] = field(default_factory=dict)
    backend_probes: List[Dict[str, Any]] = field(default_factory=list)
    # Filled in by the engine, not the worker:
    cache_hit: bool = False
    cache_key: str = ""
    attempts: int = 1

    def cycles(self, trips: Optional[int] = None) -> float:
        """Simulated cycles at a trip count requested by the cell."""
        label = "default" if trips is None else str(trips)
        try:
            return self.sim_cycles[label]
        except KeyError:
            raise KeyError(
                f"cell {self.loop} × {self.scheduler} did not simulate trips={label}"
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        return _payload(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        return _from_payload(cls, data)
