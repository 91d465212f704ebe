#!/usr/bin/env python3
"""Regenerate the paper's SPEC92 figures from the command line.

Runs any subset of the evaluation experiments against the SPEC92-like
corpus and prints the same tables and bar charts the benchmark harness
records (see EXPERIMENTS.md for the archived full runs).

Run:  python examples/spec92_report.py fig2 fig4
      python examples/spec92_report.py fig5 --ilp-seconds 20
      python examples/spec92_report.py all
"""

import argparse
import sys
import time

from repro.eval import EXPERIMENTS, ExperimentConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figures/sections to regenerate",
    )
    parser.add_argument(
        "--ilp-seconds",
        type=float,
        default=10.0,
        help="ILP solver budget per loop (the paper used 180s)",
    )
    args = parser.parse_args()

    names = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    config = ExperimentConfig(most_time_limit=args.ilp_seconds)
    for name in names:
        start = time.perf_counter()
        result = EXPERIMENTS[name][0](config)
        elapsed = time.perf_counter() - start
        print(result.formatted())
        print(f"\n[{name} regenerated in {elapsed:.1f}s]\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
