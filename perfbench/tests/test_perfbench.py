"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import metrics, pools, programs, tracing
from repro.workloads.registry import get_workload, workload_names

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
#: A pool program that runs the full flow in a fraction of a second.
SMALL = "trisolv"


@pytest.fixture(scope="module")
def small_result():
    return programs.run_flow(get_workload(SMALL))


class TestMetricNames:
    def test_names_are_well_formed_and_unique(self):
        names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
        for name in names:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert len(names) == len(set(names))

    def test_agree_with_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert metrics.benchmark_entries() == {
            "end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]
        }
        assert [w["name"] for w in spec["workloads"]] == sorted(pools.POOLS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m.name: m.bound for m in metrics.END_TO_END}
        assert bounds["setup_s"] == max(bounds.values())


class TestPools:
    @pytest.mark.parametrize("workload", sorted(pools.POOLS))
    def test_every_pool_resolves(self, workload):
        assert pools.resolve_pool(workload, workload_names()) == list(
            pools.POOLS[workload])

    def test_unknown_name_is_an_error_not_a_smaller_pool(self):
        registered = [n for n in workload_names() if n != "cjpeg"]
        with pytest.raises(pools.PoolError, match="cjpeg"):
            pools.resolve_pool("merge-heavy", registered)

    def test_draw_is_seeded(self):
        pool = list(pools.SELECT_HEAVY)
        first = pools.draw(pool, random.Random(7))
        assert first == pools.draw(pool, random.Random(7))
        assert sorted(first) == sorted(pool)
        others = {tuple(pools.draw(pool, random.Random(s))) for s in range(5)}
        assert len(others) == 5


class TestFlowChecks:
    def test_seed_result_passes(self, small_result):
        assert programs.check_flow(small_result) == []

    def test_merged_area_above_unmerged_is_caught(self, small_result):
        merged = small_result.merged[0]
        saved = merged.area_after
        merged.area_after = merged.area_before + 1.0
        try:
            failures = programs.check_flow(small_result)
        finally:
            merged.area_after = saved
        assert any("above unmerged" in f for f in failures)

    def test_merged_saved_time_mismatch_is_caught(self, small_result):
        merged = small_result.merged[0]
        saved = merged.solution
        merged.solution = small_result.merged[-1].solution
        try:
            failures = programs.check_flow(small_result)
        finally:
            merged.solution = saved
        assert any("saved time" in f for f in failures)

    def test_unordered_front_is_caught(self, small_result):
        small_result.front.reverse()
        try:
            failures = programs.check_flow(small_result)
        finally:
            small_result.front.reverse()
        assert any("not ordered" in f for f in failures)


class TestVerifyChecks:
    def test_seed_program_passes(self):
        workload = get_workload(SMALL)
        outcome = programs.run_verify(workload)
        reference = programs.reference_run(workload)
        assert outcome.outputs and programs.check_verify(outcome, reference) == []

    def test_corrupted_outcome_is_caught(self):
        outcome = programs.VerifyOutcome(
            lint_exit=1, findings=1, violations=["claim broken"],
            returned=3, outputs={"x": b"\x01"},
        )
        failures = programs.check_verify(outcome, (4, {"x": b"\x02"}))
        assert len(failures) == 4


class TestTracing:
    def test_self_times_partition_nested_spans(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        tracer.run_program("p", outer)
        selfs = tracer.self_times()
        total = tracer.ends[0] - tracer.starts[0]
        assert min(selfs) >= 0.0
        assert sum(selfs) == pytest.approx(total, rel=1e-9)
        assert tracer.summary()["p"]["inner"][0] == 3

    def test_layer_self_times_sum_to_traced_wall(self):
        tracer = tracing.Tracer()
        workload = get_workload(SMALL)
        with tracer.installed():
            start = time.perf_counter()
            tracer.run_program(SMALL, programs.run_flow, workload)
            wall = time.perf_counter() - start
        totals = tracer.summary()[SMALL]
        assert sum(self_s for _, self_s in totals.values()) == pytest.approx(
            wall, rel=0.05)
        unattributed = totals[tracing.PROGRAM_SPAN][1]
        assert unattributed < 0.1 * wall
        assert totals["merging.match_units"][0] > 0

    def test_targets_are_restored(self):
        def snapshot():
            owners = [tracing._resolve(m, p) for m, p, _ in tracing.TARGETS]
            return ([getattr(owner, attr) for owner, attr in owners],
                    [sorted(vars(owner)) for owner, _ in owners])

        before = snapshot()
        with tracing.Tracer().installed():
            pass
        after = snapshot()
        assert all(a is b for a, b in zip(before[0], after[0]))
        assert before[1] == after[1]

    def test_tracing_does_not_change_results(self, small_result):
        plain = programs.flow_outcome(small_result)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = programs.flow_outcome(tracer.run_program(
                SMALL, programs.run_flow, get_workload(SMALL)))
        assert traced.digest == plain.digest
        assert (traced.speedup_b25, traced.speedup_b65) == (
            plain.speedup_b25, plain.speedup_b65)


class TestCommand:
    def test_fails_without_the_program_sources(self, tmp_path):
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert done.stdout == ""
        assert len(done.stderr.strip().splitlines()) == 1

    def test_unknown_workload_is_rejected(self):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", "nope"],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2 and done.stdout == ""
