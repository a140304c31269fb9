"""One merger per Pareto front: the front-wide pair and merged-unit caches
give exactly the results of a fresh merger per solution, with fewer pair
evaluations."""

import pytest

from repro.framework import Cayman
from repro.hls import DEFAULT_TECHLIB
from repro.merging import (
    AcceleratorMerger,
    MergedUnit,
    estimate_pair_saving,
    merge_pair,
)
from repro.merging.merge_driver import _UnionFind
from repro.selection.solution import Solution
from repro.telemetry import Telemetry, use
from repro.workloads.registry import get_workload

from .test_merging import THREE_IDENTICAL_LOOPS

PROGRAMS = ("atax", "bicg", "gramschmidt", "doitgen", "three-identical-loops")

MERGERS = {
    "default": {},
    "novia": {"min_match_fraction": 0.5},
    "qscores": {"min_match_fraction": 0.9},
    "one-step": {"max_steps": 1},
}


@pytest.fixture(scope="module")
def fronts():
    """Non-empty solutions of each program's selection front."""
    cayman = Cayman(merging=False)
    solved = {}
    for name in PROGRAMS:
        if name == "three-identical-loops":
            result = cayman.run(THREE_IDENTICAL_LOOPS, name=name)
        else:
            workload = get_workload(name)
            result = cayman.run(workload.source, entry=workload.entry,
                                name=name)
        solved[name] = [s for s in result.front if not s.is_empty]
    return solved


def outcome(merged):
    return (
        merged.area_after,
        merged.merge_steps,
        merged.width_recovered_area,
        [unit.name for unit in merged.units],
        [unit.member_names for unit in merged.units],
        [(unit.mux_area, unit.config_bits) for unit in merged.units],
        merged.unit_groups,
        merged.group_roots,
    )


def pairs_evaluated(run):
    tele = Telemetry()
    with use(tele):
        results = run()
    counters = tele.snapshot()["counters"]
    return results, counters.get("merging.pairs_evaluated", 0)


@pytest.mark.parametrize("knobs", sorted(MERGERS), ids=str)
@pytest.mark.parametrize("program", PROGRAMS)
def test_shared_merger_matches_fresh_mergers(fronts, program, knobs):
    # Each solution again with its accelerators reversed: units then meet
    # in the other order, and matching B onto A is not symmetric.
    front = fronts[program] + [
        Solution(solution.accelerators[::-1]) for solution in fronts[program]
    ]
    options = MERGERS[knobs]

    def shared():
        merger = AcceleratorMerger(DEFAULT_TECHLIB, **options)
        return [merger.merge(solution) for solution in front]

    def fresh():
        return [
            AcceleratorMerger(DEFAULT_TECHLIB, **options).merge(solution)
            for solution in front
        ]

    shared_results, shared_pairs = pairs_evaluated(shared)
    fresh_results, fresh_pairs = pairs_evaluated(fresh)
    assert [outcome(m) for m in shared_results] == [
        outcome(m) for m in fresh_results
    ]
    assert shared_pairs <= fresh_pairs
    if program == "atax":
        assert shared_pairs < fresh_pairs


def scan_merge(merger, solution):
    """The greedy loop written out plainly, without caches: every step
    rescans all pairs of the pool in order and takes the first largest
    positive saving. Returns steps, width-recovered area, unit names and
    unit groups."""
    pool = []
    for owner, accel in enumerate(solution.accelerators):
        for name, dfg in accel.units:
            label = f"{accel.config.kernel_name}/{name}"
            pool.append(MergedUnit(label, dfg, owner, [label]))
    uf = _UnionFind(len(solution.accelerators))
    steps, width = 0, 0.0
    while len(pool) >= 2 and (merger.max_steps is None
                              or steps < merger.max_steps):
        best, best_saving, best_match = None, 0.0, None
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                saving, match = estimate_pair_saving(
                    pool[i], pool[j], DEFAULT_TECHLIB)
                smaller = min(len(pool[i].index), len(pool[j].index))
                if len(match.positions) / max(1, smaller) < \
                        merger.min_match_fraction:
                    saving = 0.0
                if saving > best_saving:
                    best, best_saving, best_match = (i, j), saving, match
        if best is None:
            break
        i, j = best
        merged = merge_pair(pool[i], pool[j], DEFAULT_TECHLIB, best_match)
        uf.union(uf.find(pool[i].owner), uf.find(pool[j].owner))
        merged.owner = uf.find(pool[i].owner)
        pool = [u for k, u in enumerate(pool) if k not in (i, j)] + [merged]
        steps += 1
        width += best_match.width_recovered_area
    return (steps, width, [u.name for u in pool],
            [uf.find(u.owner) for u in pool])


@pytest.mark.parametrize("knobs", ["default", "novia"])
@pytest.mark.parametrize("program", ["three-identical-loops", "atax"])
def test_merger_takes_the_pairs_a_full_rescan_takes(fronts, program, knobs):
    """The merger's priority queue picks each step's pair exactly as a
    rescan of every pair with a strict ``>`` does, ties included."""
    merger = AcceleratorMerger(DEFAULT_TECHLIB, **MERGERS[knobs])
    for solution in fronts[program]:
        merged = merger.merge(solution)
        if len(merged.units) + merged.merge_steps > merger.max_units:
            continue
        assert scan_merge(merger, solution) == (
            merged.merge_steps, merged.width_recovered_area,
            [u.name for u in merged.units], merged.unit_groups,
        )


@pytest.mark.parametrize("program", ["three-identical-loops", "atax"])
def test_replayed_merges_evaluate_no_pair_again(fronts, program):
    """Merged units are keyed by derivation, so a solution whose merge
    sequence repeats an earlier one's evaluates no pair twice, merged
    units included."""
    solution = fronts[program][-1]
    merger = AcceleratorMerger(DEFAULT_TECHLIB)
    first, evaluated = pairs_evaluated(lambda: merger.merge(solution))
    again, evaluated_again = pairs_evaluated(lambda: merger.merge(solution))
    assert first.merge_steps > 0
    assert outcome(again) == outcome(first)
    assert evaluated > 0 and evaluated_again == 0
