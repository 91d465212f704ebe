"""Pinned-seed microbenchmarks of the scheduler hot paths (perf CI lane).

Five timed kernels cover the scheduler inner loops — reservation-table
probing, distance-table construction and query, one full
branch-and-bound search, register allocation (modulo renaming,
interference graph, colouring) and a fixed number of CP search nodes —
so a per-change time series of ``schedule_seconds`` exists below the full
bench grid's noise floor.

Two entry points:

* ``pytest benchmarks/test_micro_hotpaths.py`` (or ``make bench-micro``)
  runs the suite, writes ``benchmarks/output/BENCH_micro.json``, and
  compares against the committed ``benchmarks/baseline/BENCH_micro.json``
  with deliberately generous thresholds — warn above 1.5x, fail above
  3x — so CI-runner noise doesn't flake the lane while real hot-path
  regressions still can't land silently.
* ``python benchmarks/test_micro_hotpaths.py --update-baseline`` refreshes
  the committed baseline after an intentional perf change.

Every kernel is deterministic (fixed loops, fixed II sequences, no RNG at
all) and reports the *best* of several repeats, which is the standard way
to damp scheduler-preemption noise out of wall-clock microbenchmarks.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time
import warnings
from typing import Callable, Dict, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.bnb import BnBConfig, modulo_schedule_bnb  # noqa: E402
from repro.core.distances import SccDistanceTables  # noqa: E402
from repro.core.minii import min_ii  # noqa: E402
from repro.core.priorities import order_by_name  # noqa: E402
from repro.core.sched import Schedule  # noqa: E402
from repro.machine.descriptions import r8000  # noqa: E402
from repro.machine.resources import ModuloReservationTable  # noqa: E402
from repro.portfolio.cp import solve_cp  # noqa: E402
from repro.portfolio.formulation import build_modulo_formulation  # noqa: E402
from repro.rau.scheduler import iterative_modulo_schedule  # noqa: E402
from repro.regalloc import allocate, rename_kernel  # noqa: E402
from repro.workloads.livermore import livermore_kernels  # noqa: E402
from repro.workloads.spec92 import spec92_suite  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "benchmarks" / "output" / "BENCH_micro.json"
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_micro.json"

WARN_RATIO = 1.5
FAIL_RATIO = 3.0
REPEATS = 5


def _loop(name: str):
    machine = r8000()
    for loop in livermore_kernels(machine):
        if loop.name == name:
            return loop, machine
    raise KeyError(name)


def bench_mrt_fits_place_remove() -> None:
    """Probe/place/remove churn over every opclass of the r8000 tables."""
    machine = r8000()
    loop, _ = _loop("lk09_predict")
    tables = [machine.table(op.opclass) for op in loop.ops]
    for ii in (4, 6, 9):
        mrt = ModuloReservationTable(ii, machine.availability)
        placed = []
        for rep in range(40):
            for op, table in enumerate(tables):
                cycle = (op * 3 + rep) % (4 * ii)
                if mrt.fits(table, cycle):
                    mrt.place(table, cycle)
                    placed.append((table, cycle))
            while placed:
                table, cycle = placed.pop()
                mrt.remove(table, cycle)


def bench_scc_distances() -> None:
    """Distance-table construction + full pair queries at MinII..MinII+4.

    Loops are rebuilt each repeat, so the timing includes the parametric
    profile construction, not just memo hits.
    """
    machine = r8000()
    for loop in livermore_kernels(machine):
        if not loop.ddg.nontrivial_sccs():
            continue
        mii = min_ii(loop, machine)
        for ii in range(mii, mii + 5):
            dists = SccDistanceTables(loop, ii)
            for scc in loop.ddg.nontrivial_sccs():
                for src in scc:
                    for dst in scc:
                        dists.dist(src, dst)


def bench_bnb_search() -> None:
    """One branch-and-bound search on a backtracking-heavy kernel."""
    loop, machine = _loop("lk14_pic1d")
    priority = order_by_name(loop, machine, "FDMS")
    mii = min_ii(loop, machine)
    for ii in (mii, mii + 1):
        modulo_schedule_bnb(loop, machine, ii, priority, BnBConfig())


@functools.lru_cache(maxsize=1)
def _allocation_schedules() -> Tuple[Schedule, ...]:
    """Rau94 schedules at MinII, built once outside the timing:
    fpppp_integrals allocates (91 ranges), mdljdp2_force does not (277)."""
    machine = r8000()
    loops = {loop.name: loop for bench in spec92_suite(machine) for loop in bench.loops}
    schedules = []
    for name in ("fpppp_integrals", "mdljdp2_force"):
        loop = loops[name]
        ii = min_ii(loop, machine)
        times = iterative_modulo_schedule(loop, machine, ii)
        assert times is not None, name
        schedules.append(Schedule(loop=loop, machine=machine, ii=ii, times=times))
    return tuple(schedules)


def bench_regalloc_allocate() -> None:
    """Rename + allocate one succeeding and one failing schedule."""
    for schedule in _allocation_schedules():
        machine = schedule.machine
        allocate(rename_kernel(schedule), machine.fp_regs, machine.int_regs)


@functools.lru_cache(maxsize=1)
def _cp_formulation():
    """tomcatv_main at MinII, where every CP order runs out its nodes."""
    machine = r8000()
    loops = {loop.name: loop for bench in spec92_suite(machine) for loop in bench.loops}
    loop = loops["tomcatv_main"]
    return build_modulo_formulation(loop, machine, min_ii(loop, machine))


def bench_cp_search() -> None:
    """5,000 nodes of the fail-first CP search: the cost per node."""
    answer = solve_cp(_cp_formulation(), max_nodes=5_000)
    assert answer.nodes == 5_000, answer


BENCHES: Dict[str, Callable[[], None]] = {
    "mrt_fits_place_remove": bench_mrt_fits_place_remove,
    "scc_distances": bench_scc_distances,
    "bnb_search": bench_bnb_search,
    "regalloc_allocate": bench_regalloc_allocate,
    "cp_search": bench_cp_search,
}


def run_micro_bench(repeats: int = REPEATS) -> Dict[str, float]:
    """Best-of-``repeats`` wall-clock seconds per kernel."""
    results: Dict[str, float] = {}
    for name, fn in BENCHES.items():
        fn()  # warm import/lowering caches out of the measurement
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
        results[name] = best
    return results


def build_report(benches: Dict[str, float]) -> Dict:
    import datetime

    from repro.exec.hashing import code_version
    from repro.obs.provenance import provenance

    return {
        "name": "micro",
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "code_version": code_version(),
        "provenance": provenance(),
        "machine": "r8000",
        "repeats": REPEATS,
        "benches": benches,
    }


def write_report(benches: Dict[str, float], path: pathlib.Path = OUTPUT_PATH) -> pathlib.Path:
    payload = build_report(benches)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def compare_to_baseline(
    benches: Dict[str, float], baseline_path: pathlib.Path = BASELINE_PATH
) -> Dict[str, Dict[str, float]]:
    """Per-kernel ratio vs the committed baseline, with verdicts."""
    if not baseline_path.exists():
        return {}
    baseline = json.loads(baseline_path.read_text())["benches"]
    report: Dict[str, Dict[str, float]] = {}
    for name, fresh in benches.items():
        base = baseline.get(name)
        if base is None or base <= 0:
            continue
        ratio = fresh / base
        verdict = "ok" if ratio <= WARN_RATIO else ("warn" if ratio <= FAIL_RATIO else "fail")
        report[name] = {"fresh": fresh, "baseline": base, "ratio": ratio, "verdict": verdict}
    return report


def test_micro_hotpaths_within_baseline():
    """The perf gate: no kernel may drift past 3x its committed baseline."""
    benches = run_micro_bench()
    write_report(benches)
    comparison = compare_to_baseline(benches)
    failed = []
    for name, entry in sorted(comparison.items()):
        line = (
            f"{name}: {entry['fresh']*1e3:.2f}ms vs baseline "
            f"{entry['baseline']*1e3:.2f}ms ({entry['ratio']:.2f}x)"
        )
        print(line)
        if entry["verdict"] == "fail":
            failed.append(line)
        elif entry["verdict"] == "warn":
            warnings.warn(f"perf drift (above {WARN_RATIO}x, below {FAIL_RATIO}x): {line}")
    assert not failed, (
        f"hot-path kernels regressed past the {FAIL_RATIO}x gate:\n" + "\n".join(failed)
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=f"write the fresh numbers to {BASELINE_PATH}",
    )
    parser.add_argument(
        "--repeats", type=int, default=REPEATS, metavar="N",
        help=f"repeats per kernel, best kept (default: {REPEATS})",
    )
    parser.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help="also file the run in the repro.obs.history store "
        "(e.g. benchmarks/history); off by default",
    )
    args = parser.parse_args(argv)
    benches = run_micro_bench(args.repeats)
    path = write_report(benches)
    print(f"wrote {path}")
    if args.history_dir:
        from repro.obs.history import append_history

        record = append_history(build_report(benches), history_dir=args.history_dir)
        print(f"history record {record}")
    for name, seconds in sorted(benches.items()):
        print(f"  {name}: {seconds*1e3:.2f}ms")
    if args.update_baseline:
        write_report(benches, BASELINE_PATH)
        print(f"baseline refreshed at {BASELINE_PATH}")
        return 0
    bad = 0
    for name, entry in sorted(compare_to_baseline(benches).items()):
        marker = {"ok": " ", "warn": "~", "fail": "!"}[entry["verdict"]]
        print(f"{marker} {name}: {entry['ratio']:.2f}x baseline")
        bad += entry["verdict"] == "fail"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
