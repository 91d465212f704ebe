#!/usr/bin/env python3
"""Showdown benchmark: one pipeliner over all 58 committed loops.

    python3 showdown_bench/run.py --workload sgi-corpus --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--seed`` sets the ``DataLayout`` seed and
the order loops are compiled in.  The run repeats whole passes over the
corpus until ``--seconds`` have elapsed (at least one) and reports medians
over passes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps every layer's functions (see ``layers.py``) and prints the per-layer
metrics.  The last line of standard output is one JSON object.

Times are in reference seconds (``refclock.py``): wall time corrected for
the shared host's speed, except that a solver running out a wall-clock
budget counts in wall seconds.  Set-up is importing the program and
building the machine and the corpus; it is measured in this process and in
two child processes, and the median is reported.

Exit status: 0 when every schedule passed the gate, 1 when a loop got a
wrong schedule (the loop is named), 2 when the program cannot be found.
A loop with no schedule is not an error; it counts in ``scheduled_share``.

Each run also compares its per-loop results and work counts with the last
run of the same workload, seed, trace mode and source code, stored under
``showdown_bench/results/``, and names every loop whose outcome changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
#: Set-up samples taken in child processes, besides the one in this process.
SETUP_CHILDREN = 2
#: Stop starting passes once one more would likely end past this.
RUN_CAP_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "compile_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "scheduled_share": "ratio",
    "native_share": "ratio",
    "optimal_share": "ratio",
    "ii_ratio_geomean": "ratio",
    "sim_cycles_geomean": "cycles",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(clock):
    """Import the program, build the machine and the corpus; return the
    showdown module, the machine and the reference seconds taken."""
    start = clock.now()
    import showdown

    machine = showdown.r8000()
    showdown.build_corpus(machine)
    return showdown, machine, clock.now() - start


def child_set_up_s() -> float:
    """One set-up in a fresh interpreter, in reference seconds."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "from refclock import ReferenceClock; import run; "
        "clock = ReferenceClock().start(); print(run.set_up(clock)[2]); clock.stop()"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def code_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeatability(record: dict, path: Path) -> list:
    """Differences from the previous run with the same key and code."""
    if not path.is_file():
        return ["no earlier run of this workload, seed, mode and code to compare"]
    before = json.loads(path.read_text())
    if before.get("code") != record["code"]:
        return ["source changed since the stored run; nothing compared"]
    lines = []
    old = {cell["loop"]: cell for cell in before["cells"]}
    for cell in record["cells"]:
        prev = old.get(cell["loop"])
        if prev is None:
            continue
        for part in ("quality", "work", "layers"):
            if prev.get(part) != cell.get(part):
                changed = sorted(
                    k for k in set(prev[part]) | set(cell[part])
                    if prev[part].get(k) != cell[part].get(k)
                )
                lines.append(f"{cell['loop']}: {part} changed ({', '.join(changed)})")
    if before.get("totals") != record["totals"]:
        lines.append("work-count totals changed")
    return lines or ["identical to the previous run: per-loop outcomes and work counts"]


def cell_line(cell) -> str:
    ii = "-" if cell.ii is None else str(cell.ii)
    return (
        f"  {cell.loop:<36} ops={cell.n_ops:<3} minii={cell.min_ii:<3} bound={cell.bound:<3} "
        f"ii={ii:<4} {cell.status:<11} {cell.producer:<22} compile={cell.compile_s:.3f}s"
        + (f"  [{cell.detail}]" if cell.detail else "")
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"showdown: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from refclock import ReferenceClock

    clock = ReferenceClock().start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock) -> int:
    showdown, machine, own_setup_s = set_up(clock)
    from layers import LAYERS, Tracer, metric_names

    if args.workload not in showdown.WORKLOADS:
        print(f"showdown: unknown workload {args.workload!r} "
              f"(known: {', '.join(showdown.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = showdown.WORKLOADS[args.workload]

    passes, tracers = [], []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        tracer = Tracer(clock.now) if args.trace else None
        if tracer:
            with tracer:
                passes.append(
                    showdown.run_pass(workload, machine, args.seed, tracer, now=clock.now)
                )
            tracers.append(tracer)
        else:
            passes.append(showdown.run_pass(workload, machine, args.seed, now=clock.now))
        elapsed, last = time.perf_counter() - began, time.perf_counter() - pass_began
        if elapsed >= args.seconds or elapsed + last > RUN_CAP_S:
            break

    cells = passes[0].cells
    print(f"{workload.name}: {len(cells)} loops x {len(passes)} pass(es), seed {args.seed}; "
          f"times in reference seconds ({clock.probes} host-speed probes, "
          f"{time.perf_counter() - began:.1f} s wall)")
    for cell in cells:
        print(cell_line(cell))
    bad = [c for p in passes for c in p.cells if c.status == "wrong"]
    failed = [c for p in passes for c in p.cells if c.status in ("wrong", "timeout", "exception")]
    no_schedule = [c for c in cells if c.status != "scheduled"]
    print(f"fail_share {len(no_schedule)}/{len(cells)} = {len(no_schedule) / len(cells):.4f}"
          + (f" ({', '.join(c.loop for c in no_schedule)})" if no_schedule else ""))
    fallbacks = [c for c in cells if c.fallback]
    print(f"fallback_share {len(fallbacks)}/{len(cells)} = {len(fallbacks) / len(cells):.4f}")
    for cell in bad:
        print(f"WRONG SCHEDULE: {cell.loop}: {cell.detail}")
        print(f"showdown: wrong schedule for {cell.loop}: {cell.detail}", file=sys.stderr)

    compile_s = statistics.median(p.compile_s for p in passes)
    run_s = statistics.median(p.run_s for p in passes)
    if args.trace:
        values = {"trace.run_s": run_s, "trace.compile_s": compile_s}
        per_pass = [t.metrics() for t in tracers]
        for name in per_pass[0]:
            values[name] = statistics.median(m[name] for m in per_pass)
        units = dict(metric_names())
        tracer = tracers[0]
        self_sum = sum(tracer.counts[layer.name]["self_s"] for layer in LAYERS)
        compile_sum = sum(tracer.compile_self.values())
        print(f"layer self times: sum {self_sum:.3f} s vs run_s {passes[0].run_s:.3f} s; "
              f"inside the pipeliner {compile_sum:.3f} s vs compile_s {passes[0].compile_s:.3f} s")
        print("layer ranking by self time inside the pipeliner (share of compile_s), "
              "and the end-to-end metric each layer should move:")
        moves = {layer.name: layer.moves for layer in LAYERS}
        for name, seconds in sorted(tracer.compile_self.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<22} {seconds:9.3f} s  {seconds / passes[0].compile_s:7.1%}"
                  f"  -> {moves[name]}")
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{workload.name}-seed{args.seed}.spans.jsonl"
        with spans.open("w") as out:
            for span in tracer.spans:
                out.write(json.dumps(dict(zip(("id", "parent", "layer", "cell", "start", "end"), span))) + "\n")
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        setup_s = statistics.median(
            [own_setup_s] + [child_set_up_s() for _ in range(SETUP_CHILDREN)]
        )
        values = {
            "setup_s": setup_s,
            "compile_s": compile_s,
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **showdown.quality_metrics(cells),
        }
        units = END_TO_END_UNITS

    for later in passes[1:]:
        for a, b in zip(cells, later.cells):
            if a.quality() != b.quality() or a.work != b.work:
                print(f"repeatability: {a.loop} differs between passes of this run")
    record = {
        "code": code_fingerprint(),
        "cells": [
            {
                "loop": c.loop,
                "quality": c.quality(),
                "work": c.work,
                "layers": tracers[0].cell_counts.get(c.loop, {}) if tracers else {},
            }
            for c in cells
        ],
        "totals": tracers[0].work_counts() if tracers else {},
    }
    RESULTS.mkdir(exist_ok=True)
    stored = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    for line in repeatability(record, stored):
        print(f"repeatability: {line}")
    stored.write_text(json.dumps(record, indent=1, sort_keys=True))

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(len(p.cells) for p in passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
