#!/usr/bin/env python3
"""Explore speedup-vs-area Pareto fronts (the paper's Fig. 6).

For a chosen benchmark, runs all four flows (NOVIA, QsCores, coupled-only
Cayman, full Cayman) and renders their Pareto fronts as an ASCII scatter
plot plus the raw series.

Usage:
    python examples/pareto_explorer.py            # default: fft
    python examples/pareto_explorer.py 3mm
    python examples/pareto_explorer.py --list
"""

import argparse

from repro.reporting import EvaluationEngine, series_from_record
from repro.workloads import workload_names

MARKERS = {"novia": "n", "qscores": "q", "coupled_only": "c", "cayman": "C"}


def ascii_plot(series, width=68, height=20):
    """Plot (area_ratio, speedup) points for all four flows."""
    all_points = [
        (a, s)
        for points in series.as_dict().values()
        for a, s in points
    ]
    if not all_points:
        return "(no solutions)"
    max_area = max(a for a, _ in all_points) * 1.05 + 1e-9
    max_speed = max(s for _, s in all_points) * 1.05 + 1e-9

    grid = [[" "] * width for _ in range(height)]
    for name, points in series.as_dict().items():
        mark = MARKERS[name]
        for area, speed in points:
            col = min(width - 1, int(area / max_area * (width - 1)))
            row = min(height - 1, int(speed / max_speed * (height - 1)))
            grid[height - 1 - row][col] = mark

    lines = [f"speedup (max {max_speed:.1f}x)"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width + f"> area (max {max_area:.2f} of CVA6)")
    lines.append("legend: n=NOVIA q=QsCores c=coupled-only Cayman C=full Cayman")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="fft")
    parser.add_argument("--list", action="store_true",
                        help="list available benchmarks")
    args = parser.parse_args(argv)

    if args.list:
        for name in workload_names():
            print(name)
        return

    print(f"Running all four flows on {args.benchmark}...\n")
    record = EvaluationEngine().evaluate([args.benchmark])[0]
    series = series_from_record(record)

    print(ascii_plot(series))
    print()
    for name, points in series.as_dict().items():
        coords = "  ".join(f"({a:.3f}, {s:.2f}x)" for a, s in points)
        print(f"{name:13}: {coords or '(no profitable solutions)'}")

    print("\nBest speedup per flow at the 65% budget:")
    for flow in record.flows:
        print(f"  {flow:13}: {record.speedup(flow, 0.65):.2f}x")


if __name__ == "__main__":
    main()
