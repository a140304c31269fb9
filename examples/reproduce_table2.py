#!/usr/bin/env python3
"""Reproduce the paper's Table II.

Runs full Cayman, coupled-only Cayman, NOVIA, and QsCores on the selected
benchmarks (all 28 by default) and prints the Table II columns: speedups
over the baselines, kernel configuration counts (#SB/#PR), interface counts
(#C/#D/#S), the merging area savings, and Cayman's runtime, under both area
budgets (25% and 65% of the CVA6 tile).

Usage:
    python examples/reproduce_table2.py                 # all 28 benchmarks
    python examples/reproduce_table2.py atax fft 3mm    # a subset
    python examples/reproduce_table2.py --suite polybench
"""

import argparse
import sys
import time

from repro.reporting import generate_table2, render_table2
from repro.workloads import workload_names, workloads_by_suite


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmarks", nargs="*",
                        help="benchmark names (default: all)")
    parser.add_argument("--suite", choices=["polybench", "machsuite",
                                            "mediabench", "coremark-pro"],
                        help="run one suite only")
    parser.add_argument("--no-average", action="store_true",
                        help="omit the average row")
    args = parser.parse_args(argv)

    if args.suite:
        names = [w.name for w in workloads_by_suite(args.suite)]
    elif args.benchmarks:
        unknown = set(args.benchmarks) - set(workload_names())
        if unknown:
            parser.error(f"unknown benchmarks: {sorted(unknown)}")
        names = args.benchmarks
    else:
        names = None  # all

    def progress(name, status):
        if status == "done":
            print(f"  ran {name}", file=sys.stderr, flush=True)

    started = time.perf_counter()
    rows = generate_table2(names, progress=progress)
    elapsed = time.perf_counter() - started

    print()
    print(render_table2(rows, include_average=not args.no_average))
    print(f"\nS: small area budget (25% of CVA6), L: large (65%). "
          f"Total wall time: {elapsed:.1f}s")


if __name__ == "__main__":
    main()
