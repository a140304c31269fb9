"""Regenerates the paper's Fig. 6 (experiment id: fig6): speedup-vs-area
Pareto fronts of NOVIA, QsCores, coupled-only Cayman, and full Cayman on
benchmarks from four different suites.

Shape claims checked (paper §IV-B):

* Cayman solutions dominate all baselines on every benchmark;
* NOVIA solutions sit in the lower-left corner (low speedup, low area);
* coupled-only Cayman trails full Cayman — except on loops-all, where FP
  loop-carried dependencies bound the achievable II and the interface
  specialization cannot help much.
"""

import pytest

from repro.reporting import (
    DEFAULT_FIG6_BENCHMARKS,
    dominance_check,
    generate_figure6,
    render_figure6,
)

_series_cache = {}


def _series(engine):
    if "series" not in _series_cache:
        _series_cache["series"] = generate_figure6(
            DEFAULT_FIG6_BENCHMARKS, engine=engine
        )
    return _series_cache["series"]


def test_fig6_pareto_fronts(benchmark, engine):
    series = benchmark.pedantic(
        _series, args=(engine,), rounds=1, iterations=1
    )
    print()
    print(render_figure6(series))
    assert {s.benchmark for s in series} == set(DEFAULT_FIG6_BENCHMARKS)
    for item in series:
        checks = dominance_check(item)
        for name, ok in checks.items():
            assert ok, f"{item.benchmark}: {name}"


def test_fig6_novia_lower_left(benchmark, engine):
    series = benchmark.pedantic(
        _series, args=(engine,), rounds=1, iterations=1
    )
    for item in series:
        if not item.novia or not item.cayman:
            continue
        best_novia = max(s for _, s in item.novia)
        best_cayman = max(s for _, s in item.cayman)
        assert best_novia <= best_cayman
        max_area_novia = max(a for a, _ in item.novia)
        max_area_cayman = max(a for a, _ in item.cayman)
        assert max_area_novia <= max_area_cayman


def test_fig6_coupled_only_gap(benchmark, engine):
    """coupled-only trails full Cayman for stream benchmarks; the gap is
    smallest for loops-all (RecMII-bound)."""

    def gaps():
        result = {}
        for item in _series(engine):
            best_full = max((s for _, s in item.cayman), default=1.0)
            best_coupled = max((s for _, s in item.coupled_only), default=1.0)
            result[item.benchmark] = best_full / best_coupled
        return result

    ratio = benchmark.pedantic(gaps, rounds=1, iterations=1)
    print()
    for name, value in sorted(ratio.items()):
        print(f"full/coupled-only speedup ratio {name}: {value:.2f}x")
    for name, value in ratio.items():
        assert value >= 0.99, name
    others = [v for k, v in ratio.items() if k != "loops-all-mid-10k-sp"]
    assert ratio["loops-all-mid-10k-sp"] <= max(others)
