"""Tests for the parallel, persistently-cached evaluation engine."""

import json
import os

import pytest

from repro import framework
from repro.baselines import Novia, QsCores
from repro.framework import Cayman
from repro.frontend import compile_source
from repro.model import AcceleratorModel
from repro.reporting import bench
from repro.reporting.bench import (
    BenchCache,
    EvaluationEngine,
    FlowParams,
    WorkloadRecord,
    budget_metrics,
    build_report,
    cache_key,
    compare_reports,
    default_tag,
    load_report,
    module_ir_hash,
    run_comparison,
    write_report,
)
from repro.reporting.figure6 import generate_figure6
from repro.reporting.table2 import generate_table2
from repro.telemetry import Telemetry, use as use_telemetry
from repro.workloads import get_workload

NAMES = ["trisolv", "bicg"]


def compiled(name):
    """A fresh compile of workload ``name``."""
    return compile_source(get_workload(name).source, name)


def record_key(name, params):
    """The record key the engine derives for ``name``."""
    return cache_key(name, params, module_ir_hash(compiled(name)))


@pytest.fixture(scope="module")
def params():
    return FlowParams()


@pytest.fixture(scope="module")
def serial_records(params):
    engine = EvaluationEngine(params)
    return engine.evaluate(NAMES, jobs=1)


@pytest.fixture(scope="module")
def fresh_results(params):
    """Each workload's four flow results, run outside any engine."""
    return {
        name: run_comparison(name, compiled(name), params)[0]
        for name in NAMES
    }


class TestCacheKey:
    def test_ir_hash_stable_within_process(self):
        # Regression: raw prints embed a process-global value-name counter,
        # so an un-canonicalized hash changed on every recompute.
        assert module_ir_hash(compiled("trisolv")) == module_ir_hash(
            compiled("trisolv")
        )

    def test_key_depends_on_params(self, params):
        ir = module_ir_hash(compiled("trisolv"))
        base = cache_key("trisolv", params, ir_hash=ir)
        assert base == cache_key("trisolv", params, ir_hash=ir)
        assert base != cache_key(
            "trisolv", FlowParams(alpha=1.2), ir_hash=ir
        )
        assert base != cache_key(
            "trisolv", FlowParams(budgets=(0.25,)), ir_hash=ir
        )
        assert base != cache_key("trisolv", params, ir_hash="0" * 64)
        assert base != cache_key("bicg", params, ir_hash=ir)


class TestRecords:
    def test_roundtrip(self, serial_records):
        for record in serial_records:
            clone = WorkloadRecord.from_dict(
                json.loads(json.dumps(record.to_dict()))
            )
            assert clone.to_dict() == record.to_dict()

    def test_speedups_present_for_all_flows_and_budgets(
        self, serial_records, params
    ):
        for record in serial_records:
            for flow in ("cayman", "coupled_only", "novia", "qscores"):
                for budget in params.budgets:
                    assert record.speedup(flow, budget) >= 1.0

    def test_stage_and_selector_instrumentation(self, serial_records):
        for record in serial_records:
            for stage in ("compile", "profile", "analysis", "selection",
                          "merging", "flow_cayman", "flow_novia"):
                assert record.stage_seconds[stage] >= 0.0
            assert record.selector_stats["cayman"]["evaluated_vertices"] > 0

    def test_table2_metrics_match_a_fresh_comparison(
        self, serial_records, fresh_results, params
    ):
        for record in serial_records:
            for budget in params.budgets:
                assert record.table2[format(budget, ".6g")] == budget_metrics(
                    fresh_results[record.name], budget
                )

    def test_fig6_series_match_a_fresh_comparison(
        self, serial_records, fresh_results
    ):
        for record in serial_records:
            for flow, result in fresh_results[record.name].items():
                assert record.flows[flow]["pareto"] == [
                    list(point) for point in result.pareto_points()
                ]


class TestPersistentCache:
    def test_cold_then_warm(self, tmp_path, params, serial_records):
        cache_dir = str(tmp_path / "cache")
        cold = EvaluationEngine(params, cache=BenchCache(cache_dir))
        cold_records = cold.evaluate(NAMES)
        assert cold.misses == len(NAMES) and cold.hits == 0

        warm = EvaluationEngine(params, cache=BenchCache(cache_dir))
        warm_records = warm.evaluate(NAMES)
        assert warm.hits == len(NAMES) and warm.misses == 0
        # The warm engine never ran a flow.
        assert warm.telemetry_snapshots == {}
        for a, b in zip(cold_records, warm_records):
            assert a.to_dict() == b.to_dict()
        # Warm results equal the plain serial (uncached) evaluation too.
        for a, b in zip(serial_records, warm_records):
            assert a.flows == b.flows and a.table2 == b.table2

    def test_serial_reports_read_a_warm_cache(
        self, tmp_path, params, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        EvaluationEngine(params, cache=BenchCache(cache_dir)).evaluate(NAMES)

        def run(*args, **kwargs):
            raise AssertionError("a flow ran on a warm cache")

        monkeypatch.setattr(bench, "run_comparison", run)
        warm = EvaluationEngine(params, cache=BenchCache(cache_dir))
        rows = generate_table2(NAMES, engine=warm, jobs=1)
        series = generate_figure6(NAMES, engine=warm, jobs=1)
        assert [r.benchmark for r in rows] == NAMES
        assert [s.benchmark for s in series] == NAMES
        assert warm.misses == 0 and warm.hits == 2 * len(NAMES)

    def test_warm_bench_runs_no_ablation(self, tmp_path, monkeypatch):
        """A warm ``repro bench`` serves every proof-ablation section from
        its cache directory and reports the same sections."""
        from repro.cli import main

        def bench_report(tag):
            assert main([
                "bench", *NAMES, "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(tmp_path), "--tag", tag, "--quiet",
                "--no-interp-bench", "--ablation-count", str(len(NAMES)),
            ]) == 0
            return load_report(str(tmp_path / f"BENCH_{tag}.json"))

        cold = bench_report("cold")

        def price(*args, **kwargs):
            raise AssertionError("an ablation ran on a warm cache")

        monkeypatch.setattr(bench, "_price", price)
        warm = bench_report("warm")
        assert compare_reports(cold, warm) == []
        for section in bench.ABLATION_SECTIONS:
            assert sorted(warm[section]) == sorted(NAMES)
            assert warm[section] == cold[section]
        assert warm["cache"]["hits"] == len(NAMES)

    def test_corrupt_entry_is_a_miss(self, tmp_path, params):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        key = record_key("trisolv", params)
        (cache_dir / f"{key}.json").write_text("{ not json")
        engine = EvaluationEngine(params, cache=BenchCache(str(cache_dir)))
        [record] = engine.evaluate(["trisolv"])
        assert record.key == key
        assert engine.misses == 1 and engine.cache.misses == 1

    def test_estimator_version_mismatch_is_a_miss(self, tmp_path, params):
        cache_dir = str(tmp_path / "cache")
        engine = EvaluationEngine(params, cache=BenchCache(cache_dir))
        [record] = engine.evaluate(["trisolv"])
        stale = dict(record.to_dict(), estimator_version="0-stale")
        path = os.path.join(cache_dir, f"{record.key}.json")
        with open(path, "w") as handle:
            json.dump(stale, handle)
        fresh = EvaluationEngine(params, cache=BenchCache(cache_dir))
        [again] = fresh.evaluate(["trisolv"])
        assert fresh.misses == 1 and fresh.cache.misses == 1
        assert again.estimator_version == record.estimator_version


class TestParallelDeterminism:
    def test_parallel_results_identical_to_serial(
        self, params, serial_records
    ):
        parallel_engine = EvaluationEngine(params)
        parallel_records = parallel_engine.evaluate(NAMES, jobs=2)
        serial_payload = build_report(
            serial_records, EvaluationEngine(params), "serial", 0.0
        )
        parallel_payload = build_report(
            parallel_records, parallel_engine, "parallel", 0.0
        )
        assert compare_reports(serial_payload, parallel_payload) == []
        # Bit-for-bit on the deterministic sections, including after a JSON
        # roundtrip (what the CI smoke job compares).
        roundtrip = json.loads(json.dumps(parallel_payload))
        assert compare_reports(serial_payload, roundtrip) == []
        for a, b in zip(serial_records, parallel_records):
            assert a.key == b.key
            assert a.flows == b.flows
            assert a.table2 == b.table2
            assert a.selector_stats == b.selector_stats


class TestReports:
    def test_write_load_compare(self, tmp_path, params, serial_records):
        engine = EvaluationEngine(params)
        payload = build_report(serial_records, engine, "t", 1.0)
        path = write_report(payload, directory=str(tmp_path))
        assert os.path.basename(path) == "BENCH_t.json"
        loaded = load_report(path)
        assert loaded["schema_version"] == payload["schema_version"]
        assert compare_reports(payload, loaded) == []

    def test_compare_detects_tampering(self, params, serial_records):
        engine = EvaluationEngine(params)
        payload = build_report(serial_records, engine, "t", 1.0)
        tampered = json.loads(json.dumps(payload))
        name = NAMES[0]
        flows = tampered["workloads"][name]["flows"]
        flows["cayman"]["speedups"]["0.65"] += 0.001
        problems = compare_reports(payload, tampered)
        assert problems and name in problems[0]

    def test_compare_detects_missing_workload(self, params, serial_records):
        engine = EvaluationEngine(params)
        payload = build_report(serial_records, engine, "t", 1.0)
        shrunk = json.loads(json.dumps(payload))
        del shrunk["workloads"][NAMES[0]]
        assert compare_reports(payload, shrunk)

    def test_compare_checks_only_exact_elision_counts(self, params):
        stat = {"instructions": 10, "proven_accesses": 1,
                "total_accesses": 2, "elided": 3, "checked": 4,
                "elided_inst_per_s": 1.0e6}
        engine = EvaluationEngine(params)
        engine.sections["interp_elision"] = {"w": stat}
        left = build_report([], engine, "t", 1.0)
        right = json.loads(json.dumps(left))
        right["interp_elision"]["w"]["elided_inst_per_s"] = 2.0e6
        assert compare_reports(left, right) == []
        right["interp_elision"]["w"]["checked"] = 5
        assert compare_reports(left, right) == [
            "interp_elision/w: checked differs (4 vs 5)"
        ]
        del right["interp_elision"]["w"]
        assert compare_reports(left, right) == [
            "interp_elision/w: in only one report"
        ]

    def test_default_tag_stable(self, params):
        assert default_tag(params) == default_tag(FlowParams())
        assert default_tag(params) != default_tag(FlowParams(alpha=1.3))


class TestBenchCacheStats:
    def test_zero_total_guard(self, tmp_path):
        cache = BenchCache(str(tmp_path / "cache"))
        assert cache.hit_rate() == 0.0
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["hit_rate"] == 0.0

    def test_get_counts_hits_and_misses(self, tmp_path, params):
        cache_dir = str(tmp_path / "cache")
        engine = EvaluationEngine(params, cache=BenchCache(cache_dir))
        [record] = engine.evaluate(["trisolv"])
        warm = BenchCache(cache_dir)
        assert warm.get(record.key) is not None
        assert warm.get("0" * 64) is None
        # Reads count nothing; the engine tallies each record lookup.
        assert warm.hits == 0 and warm.misses == 0
        EvaluationEngine(params, cache=warm).evaluate(["trisolv", "bicg"])
        assert warm.hits == 1 and warm.misses == 1
        assert warm.hit_rate() == 0.5
        assert warm.stats()["directory"] == cache_dir

    def test_engine_cache_stats_include_disk(self, tmp_path, params):
        engine = EvaluationEngine(params, cache=BenchCache(str(tmp_path)))
        stats = engine.cache_stats()
        assert stats["hit_rate"] == 0.0
        assert stats["disk"] == engine.cache.stats()
        assert "disk" not in EvaluationEngine(params).cache_stats()


class TestTelemetrySection:
    def test_serial_and_parallel_counters_bit_identical(self, params):
        serial = EvaluationEngine(params)
        serial.evaluate(NAMES, jobs=1)
        parallel = EvaluationEngine(params)
        parallel.evaluate(NAMES, jobs=2)
        s = serial.telemetry_section(NAMES)
        p = parallel.telemetry_section(NAMES)
        # Counters (including float-valued ones) must agree bit-for-bit;
        # timings are wall-clock and deliberately not compared.
        assert s["merged"]["counters"] == p["merged"]["counters"]
        for name in NAMES:
            assert (s["workloads"][name]["counters"]
                    == p["workloads"][name]["counters"])
        merged = s["merged"]["counters"]
        assert merged["interp.instructions"] > 0
        assert merged["selection.vertices_evaluated"] > 0

    def test_report_contains_merged_telemetry(self, params):
        engine = EvaluationEngine(params)
        records = engine.evaluate(NAMES[:1])
        payload = build_report(records, engine, "t", 1.0)
        section = payload["telemetry"]
        assert NAMES[0] in section["workloads"]
        assert section["merged"]["counters"]["model.candidates"] > 0
        assert "cache" in section

    def test_cache_hits_contribute_no_snapshot(self, tmp_path, params):
        cache_dir = str(tmp_path / "cache")
        cold = EvaluationEngine(params, cache=BenchCache(cache_dir))
        cold.evaluate(NAMES[:1])
        warm = EvaluationEngine(params, cache=BenchCache(cache_dir))
        warm.evaluate(NAMES[:1])
        assert warm.telemetry_snapshots == {}
        section = warm.telemetry_section(NAMES[:1])
        assert section["workloads"] == {}
        assert section["merged"]["counters"] == {}

    def test_compare_reports_ignores_telemetry(self, params, serial_records):
        engine = EvaluationEngine(params)
        payload = build_report(serial_records, engine, "t", 1.0)
        other = json.loads(json.dumps(payload))
        other["telemetry"] = {"workloads": {}, "merged": {
            "counters": {}, "timings": {}}, "cache": {}}
        assert compare_reports(payload, other) == []


#: Workloads whose shared-front comparison is checked against standalone
#: flow runs: three PolyBench kernels and one MediaBench application.
SHARED_FRONT = ["trisolv", "bicg", "atax", "epic"]


def _standalone_flows(params):
    """The four flows as standalone runners, built independently of
    :func:`run_comparison`."""
    return {
        "cayman": Cayman(alpha=params.alpha, beta=params.beta,
                         prune_threshold=params.prune_threshold),
        "coupled_only": Cayman(alpha=params.alpha, beta=params.beta,
                               prune_threshold=params.prune_threshold,
                               coupled_only=True),
        "novia": Novia(alpha=params.alpha,
                       prune_threshold=params.prune_threshold),
        "qscores": QsCores(alpha=params.alpha,
                           prune_threshold=params.prune_threshold),
    }


class TestSharedFront:
    """``run_comparison`` compiles and profiles a workload once and runs
    the other flows' back halves on the cayman flow's front half; that
    sharing must change no result."""

    @pytest.mark.parametrize("name", SHARED_FRONT)
    def test_each_flow_equals_its_standalone_run(self, params, name):
        workload = get_workload(name)
        shared, _ = run_comparison(name, compiled(name), params)
        for flow, runner in _standalone_flows(params).items():
            alone = runner.run(workload.source, entry=workload.entry,
                               name=name)
            result = shared[flow]
            assert result.module is shared["cayman"].module
            for budget in params.budgets:
                assert (result.speedup_under_budget(budget)
                        == alone.speedup_under_budget(budget)), (flow, budget)
            assert result.pareto_points() == alone.pareto_points(), flow
            assert (result.best_under_budget(0.65).saving_pct
                    == alone.best_under_budget(0.65).saving_pct), flow
            if flow in ("cayman", "coupled_only"):
                assert result.selector.stats() == alone.selector.stats()

    def test_one_compile_and_profile_per_comparison(self, params):
        name = "atax"
        workload = get_workload(name)
        compared = Telemetry()
        with use_telemetry(compared):
            module = compiled(name)
        run_comparison(name, module, params, telemetry=compared)
        counters = compared.snapshot()["counters"]
        assert counters["frontend.compiles"] == 1
        assert counters["interp.runs"] == 1
        assert counters["interp.compiles"] == 1
        lone = Telemetry()
        Cayman(telemetry=lone).run(workload.source, entry=workload.entry,
                                   name=name)
        assert (counters["dataflow.solves"]
                == lone.snapshot()["counters"]["dataflow.solves"])

    def test_back_half_stages_cover_its_run(self, params):
        name = "trisolv"
        front = Cayman().run(get_workload(name).source, name=name)
        for runner in _standalone_flows(params).values():
            back = runner.run_back(front.module, front.profile, front.wpst,
                                   name=name)
            assert set(back.stage_seconds) == {
                "analysis", "selection", "merging"}
            assert back.wpst is front.wpst


class TestOneTaskPerWorkload:
    """One task per workload compiles it once, and that module serves the
    keys, the flows, the ablation sections and the elision probe."""

    def test_one_compile_and_shared_facts_cold_and_warm(
        self, tmp_path, params, monkeypatch
    ):
        compiles = []

        def counting_compile(source, name="module", optimize=True):
            compiles.append(name)
            return compile_source(source, name, optimize)

        # The task compiles through the bench module; a flow handed a
        # source string would compile through the framework module.
        monkeypatch.setattr(bench, "compile_source", counting_compile)
        monkeypatch.setattr(framework, "compile_source", counting_compile)
        comparisons = []

        def recording_comparison(*args, **kwargs):
            results = run_comparison(*args, **kwargs)
            comparisons.append(results[0])
            return results

        monkeypatch.setattr(bench, "run_comparison", recording_comparison)
        ablation_models = []

        class RecordingModel(AcceleratorModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                ablation_models.append(self)

        monkeypatch.setattr(bench, "AcceleratorModel", RecordingModel)

        def evaluate():
            engine = EvaluationEngine(
                params, cache=BenchCache(str(tmp_path / "cache"))
            )
            engine.evaluate(NAMES, ablation_count=len(NAMES),
                            interp_bench_count=len(NAMES))
            assert sorted(engine.sections) == sorted(
                ("interp_elision", *bench.ABLATION_SECTIONS)
            )
            for section in engine.sections.values():
                assert list(section) == NAMES
            return engine

        cold = evaluate()
        assert sorted(compiles) == sorted(NAMES)
        assert cold.misses == len(NAMES)
        assert len(comparisons) == len(NAMES)
        for results in comparisons:
            cayman = results["cayman"]
            priced = [model for model in ablation_models
                      if model.module is cayman.module]
            # One model holding every proof, one per ablated proof.
            assert len(priced) == 1 + len(bench.ABLATIONS)
            for model in priced:
                assert model.facts is cayman.selector.model.facts

        compiles.clear()
        comparisons.clear()
        warm = evaluate()
        assert sorted(compiles) == sorted(NAMES)
        assert comparisons == []
        assert warm.hits == len(NAMES) and warm.telemetry_snapshots == {}
