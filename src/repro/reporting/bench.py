"""Parallel, persistently-cached evaluation engine behind ``repro bench``.

The engine runs the workload × flow matrix (full Cayman, coupled-only
Cayman, NOVIA, QsCores) and reduces each workload to a serializable
:class:`WorkloadRecord`: per-budget speedups for every flow, the merged
Pareto series, Table II metrics, ``CandidateSelector.stats()`` counters, and
per-stage wall times.

Records are memoized at two levels:

* in-process, as full :class:`BenchmarkComparison` objects (what ``table2``
  and ``fig6`` consume through :class:`~.runner.ComparisonRunner`);
* on disk, content-keyed — the cache key hashes the workload name, the
  optimized IR of its module, the flow parameters (α, β, prune threshold,
  budgets), and :data:`~repro.model.estimator.ESTIMATOR_VERSION` — so re-runs
  and CI only pay for what actually changed.

Cache misses can be fanned out across a ``concurrent.futures`` process pool
(``repro bench --jobs N``); results are deterministic, so parallel runs are
bit-for-bit identical to serial ones (modulo wall times, which are reported
but never part of the cached identity or determinism comparisons).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.common import BaselineResult
from ..baselines.novia import Novia
from ..baselines.qscores import QsCores
from ..framework import Cayman, CaymanResult
from ..model.estimator import ESTIMATOR_VERSION
from ..telemetry import Telemetry, merge_snapshots, use as use_telemetry
from ..workloads import get_workload

#: Bumped whenever the on-disk record layout changes (old entries are
#: silently treated as misses).
CACHE_SCHEMA_VERSION = 1
#: Schema of the ``BENCH_<tag>.json`` report files.
BENCH_SCHEMA_VERSION = 1

#: The four flows of the paper's evaluation, in reporting order.
FLOW_NAMES = ("cayman", "coupled_only", "novia", "qscores")

#: The paper's small (25%) and large (65%) area budgets.
DEFAULT_BUDGETS = (0.25, 0.65)

#: Default persistent cache location (overridable per-engine and via CLI).
DEFAULT_CACHE_DIR = ".repro-cache"


def _budget_key(budget: float) -> str:
    """Stable string key for a budget ratio (JSON object keys)."""
    return format(budget, ".6g")


@dataclass(frozen=True)
class FlowParams:
    """Everything that parameterizes one evaluation of the flow matrix."""

    alpha: float = 1.1
    beta: float = 4.0
    prune_threshold: float = 0.001
    budgets: Tuple[float, ...] = DEFAULT_BUDGETS

    def as_dict(self) -> Dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "prune_threshold": self.prune_threshold,
            "budgets": list(self.budgets),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "FlowParams":
        return cls(
            alpha=payload["alpha"],
            beta=payload["beta"],
            prune_threshold=payload["prune_threshold"],
            budgets=tuple(payload["budgets"]),
        )


@dataclass
class BenchmarkComparison:
    """All four flows' results for one workload."""

    name: str
    suite: str
    cayman: CaymanResult
    coupled_only: CaymanResult
    novia: BaselineResult
    qscores: BaselineResult
    #: Flow-level wall times measured around each flow run.
    flow_seconds: Dict[str, float] = field(default_factory=dict)

    def speedups(self, budget_ratio: float) -> Dict[str, float]:
        return {
            "cayman": self.cayman.speedup_under_budget(budget_ratio),
            "coupled_only": self.coupled_only.speedup_under_budget(budget_ratio),
            "novia": self.novia.speedup_under_budget(budget_ratio),
            "qscores": self.qscores.speedup_under_budget(budget_ratio),
        }

    def result_for(self, flow: str):
        return getattr(self, flow)


def run_comparison(
    name: str,
    params: FlowParams,
    telemetry: Optional[Telemetry] = None,
) -> BenchmarkComparison:
    """Run all four flows on one workload (the single execution path).

    ``telemetry`` (when given) is installed as the ambient sink for the
    whole comparison, so every flow's counters land in one per-workload
    snapshot.  Serial and parallel bench runs both evaluate each workload
    against its own fresh :class:`Telemetry`, which keeps merged counters
    bit-identical regardless of ``--jobs`` (identical additions in
    identical order).
    """
    from ..telemetry import current as current_telemetry

    tele = telemetry if telemetry is not None else current_telemetry()
    workload = get_workload(name)
    flow_seconds: Dict[str, float] = {}

    def timed(flow: str, runner):
        started = time.perf_counter()
        with tele.span(f"bench.flow:{flow}", workload=name):
            result = runner.run(
                workload.source, entry=workload.entry, name=name
            )
        flow_seconds[flow] = time.perf_counter() - started
        return result

    with use_telemetry(tele):
        cayman = timed("cayman", Cayman(
            alpha=params.alpha, beta=params.beta,
            prune_threshold=params.prune_threshold,
        ))
        coupled = timed("coupled_only", Cayman(
            alpha=params.alpha, beta=params.beta,
            prune_threshold=params.prune_threshold, coupled_only=True,
        ))
        novia = timed("novia", Novia(
            alpha=params.alpha, prune_threshold=params.prune_threshold,
        ))
        qscores = timed("qscores", QsCores(
            alpha=params.alpha, prune_threshold=params.prune_threshold,
        ))
    return BenchmarkComparison(
        name=name,
        suite=workload.suite,
        cayman=cayman,
        coupled_only=coupled,
        novia=novia,
        qscores=qscores,
        flow_seconds=flow_seconds,
    )


# Cache keying ------------------------------------------------------------------


#: Auto-generated SSA value names (``%v<N>``, possibly ``.M``-deduplicated by
#: the printer).  Their numbers come from a process-global counter, so they
#: must be canonicalized before the IR text can serve as a content key.
_AUTO_VALUE_NAME = re.compile(r"%v\d+(?:\.\d+)?\b")


def _canonicalize_ir(text: str) -> str:
    """Renumber auto-generated value names by order of first appearance."""
    mapping: Dict[str, str] = {}

    def substitute(match: "re.Match") -> str:
        token = match.group(0)
        if token not in mapping:
            mapping[token] = f"%t{len(mapping)}"
        return mapping[token]

    return _AUTO_VALUE_NAME.sub(substitute, text)


def module_ir_hash(name: str) -> str:
    """SHA-256 of the workload's optimized, name-canonicalized IR text."""
    from ..frontend.lowering import compile_source
    from ..ir.printer import print_module

    workload = get_workload(name)
    module = compile_source(workload.source, name)
    text = _canonicalize_ir(print_module(module))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(name: str, params: FlowParams, ir_hash: Optional[str] = None) -> str:
    """Content key of one workload evaluation.

    Any change to the workload's optimized IR, the flow parameters, the
    estimator version, or the record schema produces a different key.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "workload": name,
        "ir": ir_hash if ir_hash is not None else module_ir_hash(name),
        "params": params.as_dict(),
        "estimator_version": ESTIMATOR_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# Records ------------------------------------------------------------------------


def budget_metrics(comparison: BenchmarkComparison, budget: float) -> Dict:
    """Table II metrics of one workload under one area budget."""
    best = comparison.cayman.best_under_budget(budget)
    solution = best.solution
    totals = solution.interface_totals()
    cayman_speedup = best.speedup(comparison.cayman.total_seconds)
    novia_speedup = comparison.novia.speedup_under_budget(budget)
    qscores_speedup = comparison.qscores.speedup_under_budget(budget)
    return {
        "over_novia": cayman_speedup / max(novia_speedup, 1e-12),
        "over_qscores": cayman_speedup / max(qscores_speedup, 1e-12),
        "seq_blocks": solution.seq_block_total(),
        "pipelined_regions": solution.pipelined_region_total(),
        "coupled": totals.get("coupled", 0),
        "decoupled": totals.get("decoupled", 0),
        "scratchpad": totals.get("scratchpad", 0),
        "saving_pct": best.saving_pct,
        "cayman_speedup": cayman_speedup,
    }


@dataclass
class WorkloadRecord:
    """Serializable reduction of one workload's four-flow evaluation.

    Everything except ``stage_seconds``/``runtime_seconds`` (wall times) is a
    deterministic function of the cache key's inputs; determinism comparisons
    look only at the deterministic part (see :func:`compare_reports`).
    """

    name: str
    suite: str
    key: str
    estimator_version: str
    #: flow name → {"speedups": {budget: x}, "pareto": [[area, speedup], ...]}
    flows: Dict[str, Dict]
    #: budget key → Table II metrics (see :func:`budget_metrics`).
    table2: Dict[str, Dict]
    #: selector counters for the two Cayman flows.
    selector_stats: Dict[str, Dict[str, int]]
    #: per-stage wall times (compile/profile/analysis/selection/merging of
    #: the full Cayman flow, plus per-flow totals).
    stage_seconds: Dict[str, float]
    runtime_seconds: float

    def speedup(self, flow: str, budget: float) -> float:
        return self.flows[flow]["speedups"][_budget_key(budget)]

    def to_dict(self) -> Dict:
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "name": self.name,
            "suite": self.suite,
            "key": self.key,
            "estimator_version": self.estimator_version,
            "flows": self.flows,
            "table2": self.table2,
            "selector_stats": self.selector_stats,
            "stage_seconds": self.stage_seconds,
            "runtime_seconds": self.runtime_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "WorkloadRecord":
        return cls(
            name=payload["name"],
            suite=payload["suite"],
            key=payload["key"],
            estimator_version=payload["estimator_version"],
            flows=payload["flows"],
            table2=payload["table2"],
            selector_stats=payload["selector_stats"],
            stage_seconds=payload["stage_seconds"],
            runtime_seconds=payload["runtime_seconds"],
        )


def record_from_comparison(
    comparison: BenchmarkComparison, params: FlowParams, key: str
) -> WorkloadRecord:
    flows: Dict[str, Dict] = {}
    for flow in FLOW_NAMES:
        result = comparison.result_for(flow)
        flows[flow] = {
            "speedups": {
                _budget_key(b): result.speedup_under_budget(b)
                for b in params.budgets
            },
            "pareto": [list(point) for point in result.pareto_points()],
        }
    table2 = {
        _budget_key(b): budget_metrics(comparison, b) for b in params.budgets
    }
    stage_seconds = dict(comparison.cayman.stage_seconds)
    for flow, seconds in comparison.flow_seconds.items():
        stage_seconds[f"flow_{flow}"] = seconds
    return WorkloadRecord(
        name=comparison.name,
        suite=comparison.suite,
        key=key,
        estimator_version=ESTIMATOR_VERSION,
        flows=flows,
        table2=table2,
        selector_stats={
            "cayman": comparison.cayman.selector.stats(),
            "coupled_only": comparison.coupled_only.selector.stats(),
        },
        stage_seconds=stage_seconds,
        runtime_seconds=comparison.cayman.runtime_seconds,
    )


# Persistent cache ---------------------------------------------------------------


def _hit_rate(hits: int, misses: int) -> float:
    """``hits / (hits + misses)`` with a zero-total guard."""
    total = hits + misses
    return (hits / total) if total else 0.0


class BenchCache:
    """Content-keyed on-disk store of :class:`WorkloadRecord` JSON blobs."""

    def __init__(self, directory: str = DEFAULT_CACHE_DIR):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[WorkloadRecord]:
        record = self._load(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def _load(self, key: str) -> Optional[WorkloadRecord]:
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if payload.get("estimator_version") != ESTIMATOR_VERSION:
            return None
        return WorkloadRecord.from_dict(payload)

    def hit_rate(self) -> float:
        return _hit_rate(self.hits, self.misses)

    def stats(self) -> Dict:
        """Disk-level lookup statistics of this cache instance."""
        return {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
        }

    def put(self, record: WorkloadRecord) -> None:
        os.makedirs(self.directory, exist_ok=True)
        # Atomic publish so a crashed/parallel writer never leaves a torn
        # JSON file behind.
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{record.key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record.to_dict(), handle, sort_keys=True)
            os.replace(tmp, self._path(record.key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# Process-pool worker (module-level so it pickles) -------------------------------


def _evaluate_worker(name: str, params_payload: Dict) -> Dict:
    params = FlowParams.from_dict(params_payload)
    key = cache_key(name, params)
    tele = Telemetry()
    comparison = run_comparison(name, params, telemetry=tele)
    record = record_from_comparison(comparison, params, key)
    return {"record": record.to_dict(), "telemetry": tele.snapshot()}


# The engine ---------------------------------------------------------------------


class EvaluationEngine:
    """Runs, caches, and parallelizes workload evaluations.

    ``table2``/``fig6`` (through :class:`~.runner.ComparisonRunner`) and
    ``repro bench`` all execute through this engine, so they share one cached
    execution path.
    """

    def __init__(
        self,
        params: Optional[FlowParams] = None,
        cache: Optional[BenchCache] = None,
    ):
        self.params = params or FlowParams()
        self.cache = cache
        self._comparisons: Dict[str, BenchmarkComparison] = {}
        self._records: Dict[str, WorkloadRecord] = {}
        self._keys: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.hit_names: set = set()
        #: name → deterministic ``Telemetry.snapshot()`` of the workload's
        #: evaluation (absent for cache hits, which never execute the flows).
        self.telemetry_snapshots: Dict[str, Dict] = {}

    # Keys ----------------------------------------------------------------------

    def key_for(self, name: str) -> str:
        if name not in self._keys:
            self._keys[name] = cache_key(name, self.params)
        return self._keys[name]

    # Full-object path (table2/fig6) --------------------------------------------

    def comparison(self, name: str) -> BenchmarkComparison:
        """Full (non-serializable) four-flow results, memoized per process.

        Also derives and persists the workload's record so a later ``bench``
        run over the same cache directory starts warm.
        """
        if name not in self._comparisons:
            tele = Telemetry()
            comparison = run_comparison(name, self.params, telemetry=tele)
            self.telemetry_snapshots[name] = tele.snapshot()
            self._comparisons[name] = comparison
            record = record_from_comparison(
                comparison, self.params, self.key_for(name)
            )
            self._remember(record)
        return self._comparisons[name]

    # Record path (bench) --------------------------------------------------------

    def cached_record(self, name: str) -> Optional[WorkloadRecord]:
        """The workload's record if it is already known, else ``None``."""
        if name in self._records:
            return self._records[name]
        if self.cache is not None:
            record = self.cache.get(self.key_for(name))
            if record is not None:
                self._records[name] = record
                return record
        return None

    def record(self, name: str) -> WorkloadRecord:
        """One workload's record: cache hit or a fresh serial evaluation."""
        cached = self.cached_record(name)
        if cached is not None:
            self.hits += 1
            self.hit_names.add(name)
            return cached
        self.misses += 1
        tele = Telemetry()
        comparison = run_comparison(name, self.params, telemetry=tele)
        self.telemetry_snapshots[name] = tele.snapshot()
        record = record_from_comparison(
            comparison, self.params, self.key_for(name)
        )
        self._remember(record)
        return record

    def evaluate(
        self,
        names: Sequence[str],
        jobs: int = 1,
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> List[WorkloadRecord]:
        """Evaluate many workloads, fanning cache misses across a pool.

        ``progress`` (if given) is called with ``(name, status)`` where
        status is ``"hit"``, ``"run"``, or ``"done"``.  Results come back in
        input order and are identical whether ``jobs`` is 1 or N.
        """
        records: Dict[str, WorkloadRecord] = {}
        missing: List[str] = []
        for name in names:
            cached = self.cached_record(name)
            if cached is not None:
                self.hits += 1
                self.hit_names.add(name)
                records[name] = cached
                if progress:
                    progress(name, "hit")
            else:
                missing.append(name)
                if progress:
                    progress(name, "run")
        if missing:
            self.misses += len(missing)
            if jobs > 1 and len(missing) > 1:
                payload = self.params.as_dict()
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = {
                        name: pool.submit(_evaluate_worker, name, payload)
                        for name in missing
                    }
                    for name in missing:
                        payload_out = futures[name].result()
                        record = WorkloadRecord.from_dict(
                            payload_out["record"]
                        )
                        self.telemetry_snapshots[name] = (
                            payload_out["telemetry"]
                        )
                        self._remember(record)
                        records[name] = record
                        if progress:
                            progress(name, "done")
            else:
                for name in missing:
                    # One fresh Telemetry per workload — exactly what each
                    # pool worker does — so serial and parallel runs perform
                    # identical counter additions in identical order.
                    tele = Telemetry()
                    comparison = run_comparison(
                        name, self.params, telemetry=tele
                    )
                    self.telemetry_snapshots[name] = tele.snapshot()
                    record = record_from_comparison(
                        comparison, self.params, self.key_for(name)
                    )
                    self._remember(record)
                    records[name] = record
                    if progress:
                        progress(name, "done")
        return [records[name] for name in names]

    def _remember(self, record: WorkloadRecord) -> None:
        self._records[record.name] = record
        if self.cache is not None:
            self.cache.put(record)

    def cache_stats(self) -> Dict:
        stats = {
            "directory": self.cache.directory if self.cache else None,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": _hit_rate(self.hits, self.misses),
        }
        if self.cache is not None:
            stats["disk"] = self.cache.stats()
        return stats

    def telemetry_section(self, names: Sequence[str]) -> Dict:
        """The ``telemetry`` section of a bench report.

        Per-workload snapshots plus their merge, folded in ``names`` order
        so serial and parallel runs produce bit-identical counters (float
        addition is order-sensitive; the order here is fixed by the input
        list, never by completion order).  Cache hits skip evaluation and
        therefore contribute no snapshot.
        """
        ordered = [n for n in names if n in self.telemetry_snapshots]
        return {
            "workloads": {
                name: self.telemetry_snapshots[name] for name in ordered
            },
            "merged": merge_snapshots(
                [self.telemetry_snapshots[name] for name in ordered]
            ),
            "cache": self.cache_stats(),
        }


# Interpreter-throughput probe ---------------------------------------------------


def interp_elision_stats(names: Sequence[str]) -> Dict[str, Dict]:
    """Interpreter throughput: bounds-check elision and engine comparison.

    Runs each workload under the compiled engine twice — all accesses
    checked, then with statically proven accesses elided — and once more
    per engine (reference vs compiled, both elided) so the compile-once
    engine's gain is tracked per PR.  Compiled-engine timings exclude the
    one-time translation cost (``Interpreter.precompile``): the metric is
    steady-state execution throughput.  Wall-clock throughput is
    environment-dependent and never part of determinism comparisons; the
    instruction and elision counts are exact.
    """
    from ..dataflow import BoundsAnalysis
    from ..frontend.lowering import compile_source
    from ..interp.interpreter import Interpreter

    stats: Dict[str, Dict] = {}
    for name in names:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        bounds = BoundsAnalysis(module)

        def throughput(bounds_arg, engine="compiled"):
            interp = Interpreter(module, bounds=bounds_arg, engine=engine)
            interp.precompile()
            started = time.perf_counter()
            interp.run(workload.entry)
            seconds = max(1e-9, time.perf_counter() - started)
            return interp.instructions / seconds, interp

        # Best of three alternating runs: single-shot timings on a busy
        # host are noisier than the few-percent effect being measured.
        baseline_rate = elided_rate = reference_rate = 0.0
        for _ in range(3):
            rate, _interp = throughput(None)
            baseline_rate = max(baseline_rate, rate)
            rate, elided = throughput(bounds)
            elided_rate = max(elided_rate, rate)
        # The reference engine is an order of magnitude slower; one run is
        # enough for the speedup headline and keeps full-suite probes fast.
        reference_rate, _interp = throughput(bounds, engine="reference")

        proven, total = bounds.module_coverage()
        stats[name] = {
            "instructions": elided.instructions,
            "proven_accesses": proven,
            "total_accesses": total,
            "elided": elided.elided_accesses,
            "checked": elided.checked_accesses,
            "baseline_inst_per_s": baseline_rate,
            "elided_inst_per_s": elided_rate,
            "reference_inst_per_s": reference_rate,
            "compiled_inst_per_s": elided_rate,
            "engine_speedup": (
                elided_rate / reference_rate if reference_rate else 0.0
            ),
        }
    return stats


# Datapath-narrowing area probe --------------------------------------------------


def area_narrowing_stats(names: Sequence[str]) -> Dict[str, Dict]:
    """Type-width vs bitwidth-proven datapath area, at equal latency.

    Compiles each workload and prices every function's per-block DFGs
    twice — once at type widths (``narrow_widths=False`` pricing) and once
    at the bitwidth-proven widths — then list-schedules both variants.
    Narrowing only shrinks operator area (delay is width-invariant at or
    below 32 bits, see ``docs/bitwidth.md``), so the proven-width schedule
    is expected to be exactly as long; ``latency_equal`` records that.
    Every field is an exact count or a deterministic area sum, so the
    whole section participates in ``compare_reports``.
    """
    from ..dataflow import ModuleBitwidthAnalysis
    from ..frontend.lowering import compile_source
    from ..hls.dfg import DFG
    from ..hls.scheduling import AccessTiming, schedule_dfg
    from ..hls.techlib import DEFAULT_TECHLIB

    def timing(_node):
        # Fixed contention-free access timing: identical for both variants,
        # so any latency difference is attributable to operator widths.
        return AccessTiming(latency=2, port=None)

    stats: Dict[str, Dict] = {}
    for name in names:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        bitwidth = ModuleBitwidthAnalysis(module)
        int_ops = narrowed_ops = 0
        type_area = proven_area = 0.0
        latency_type = latency_proven = 0
        for func in module.defined_functions():
            summary = bitwidth.function_summary(func)
            int_ops += int(summary["int_ops"])
            narrowed_ops += int(summary["narrowed_ops"])
            type_area += summary["type_area_um2"]
            proven_area += summary["proven_area_um2"]
            widths = bitwidth.width_map(func)
            for block in func.blocks:
                wide = DFG.from_blocks([block])
                if not wide.nodes:
                    continue
                narrow = DFG.from_blocks([block], widths=widths)
                latency_type += schedule_dfg(
                    wide, DEFAULT_TECHLIB, timing
                ).length
                latency_proven += schedule_dfg(
                    narrow, DEFAULT_TECHLIB, timing
                ).length
        saving = (1.0 - proven_area / type_area) if type_area else 0.0
        stats[name] = {
            "int_ops": int_ops,
            "narrowed_ops": narrowed_ops,
            "type_area_um2": round(type_area, 6),
            "proven_area_um2": round(proven_area, 6),
            "saving_pct": round(100.0 * saving, 3),
            "latency_type": latency_type,
            "latency_proven": latency_proven,
            "latency_equal": latency_type == latency_proven,
        }
    return stats


# Pipeline-II dependence-vector probe --------------------------------------------


def pipeline_ii_stats(names: Sequence[str]) -> Dict[str, Dict]:
    """Before/after pipeline II with proven dependence distances, equal area.

    Pipelines every innermost loop of each workload twice over the *same*
    body DFG (so area is identical by construction): once with the legacy
    1-D windowed dependence test (``vector_distances=False``) and once with
    the affine dependence-vector engine.  A recurrence of latency L at
    proven distance d only forces II ≥ ceil(L / d), so proven distances > 1
    lower the recurrence-constrained II.  Access timing is fixed
    (contention-free, latency 2) to isolate the recurrence effect; latency
    is evaluated at the interval-proven trip bound (nominal 100 when
    unproven).  Every field is an exact count, so the whole section
    participates in :func:`compare_reports`.
    """
    from ..dataflow import ModuleIntervalAnalysis, PointsToAnalysis
    from ..frontend.lowering import compile_source
    from ..hls.dfg import DFG
    from ..hls.pipeline import pipeline_loop
    from ..hls.scheduling import AccessTiming
    from ..hls.techlib import DEFAULT_TECHLIB
    from ..model.estimator import FunctionContext, loop_recurrences

    def timing(_node):
        return AccessTiming(latency=2, port=None)

    stats: Dict[str, Dict] = {}
    for name in names:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        intervals = ModuleIntervalAnalysis(module)
        points_to = PointsToAnalysis(module)
        loops: List[Dict] = []
        for func in module.defined_functions():
            contexts = {
                variant: FunctionContext(
                    func, points_to=points_to, intervals=intervals,
                    vector_distances=variant,
                )
                for variant in (False, True)
            }
            after = contexts[True]
            # The two contexts build separate Loop objects over the same
            # blocks; match them by their (identical) block sets.
            before_by_blocks = {
                frozenset(l.blocks): l for l in contexts[False].loop_info.loops
            }
            for loop in after.loop_info.loops:
                if not loop.is_innermost:
                    continue
                dfg = DFG.from_blocks(
                    after.ordered_blocks(loop.blocks), may_alias=after.may_alias
                )
                if not dfg.nodes:
                    continue
                before_loop = before_by_blocks[frozenset(loop.blocks)]
                trip = after.static_trip_bound(loop) or 100

                def pipelined(ctx, ctx_loop):
                    return pipeline_loop(
                        dfg, DEFAULT_TECHLIB, timing,
                        recurrences=loop_recurrences(ctx_loop, dfg, ctx),
                    )

                before = pipelined(contexts[False], before_loop)
                result = pipelined(after, loop)
                loops.append({
                    "function": func.name,
                    "loop": loop.name,
                    "trip": trip,
                    "depth": result.depth,
                    "rec_mii_before": before.rec_mii,
                    "rec_mii_after": result.rec_mii,
                    "ii_before": before.ii,
                    "ii_after": result.ii,
                    "latency_before": round(before.latency(trip), 3),
                    "latency_after": round(result.latency(trip), 3),
                })
        loops.sort(key=lambda entry: (entry["function"], entry["loop"]))
        stats[name] = {
            "loops": loops,
            "pipelined_loops": len(loops),
            "improved_loops": sum(
                1 for e in loops if e["ii_after"] < e["ii_before"]
            ),
            "ii_before_total": sum(e["ii_before"] for e in loops),
            "ii_after_total": sum(e["ii_after"] for e in loops),
        }
    return stats


# Scratchpad-banking soundness probe ---------------------------------------------


def spad_banking_stats(names: Sequence[str]) -> Dict[str, Dict]:
    """Before/after pipeline II with proven banking verdicts, equal area.

    For every innermost loop with a legal unroll factor > 1, probes each
    global-array scratchpad group with the bank-conflict analysis at the
    largest legal factor ``U`` and pipelines the *same* body DFG twice:
    once with the historically-optimistic port budget (``2·U`` ports per
    group — the claimed cyclic-``U`` banking, every bank dual-ported) and
    once with the proven budget (``2·banks`` of the cheapest
    conflict-free scheme, or ``2`` — one dual-ported bank — when no
    scheme is provable and the group must serialize).  Both variants
    price the same claimed banks, so area is identical by construction;
    each access carries occupancy ``U`` (its unrolled lane replicas).
    An II increase is therefore a *soundness* delta: cycles the old
    model hid behind bank conflicts it never checked.  Every field is an
    exact count, so the whole section participates in
    :func:`compare_reports`.
    """
    from ..analysis.banking import probe_function
    from ..dataflow import ModuleIntervalAnalysis, PointsToAnalysis
    from ..frontend.lowering import compile_source
    from ..hls.dfg import DFG
    from ..hls.pipeline import pipeline_loop
    from ..hls.scheduling import AccessTiming
    from ..hls.techlib import DEFAULT_TECHLIB
    from ..model.estimator import FunctionContext, loop_recurrences

    stats: Dict[str, Dict] = {}
    for name in names:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        intervals = ModuleIntervalAnalysis(module)
        points_to = PointsToAnalysis(module)
        loops: List[Dict] = []
        for func in module.defined_functions():
            ctx = FunctionContext(
                func, points_to=points_to, intervals=intervals
            )
            probes = probe_function(ctx.memdep)
            by_loop: Dict = {}
            for probe in probes:
                by_loop.setdefault(probe.loop, []).append(probe)
            for loop in ctx.loop_info.loops:
                if loop not in by_loop:
                    continue
                factor = max(p.factor for p in by_loop[loop])
                verdicts = {
                    p.base: p.verdict for p in by_loop[loop]
                    if p.factor == factor
                }
                dfg = DFG.from_blocks(
                    ctx.ordered_blocks(loop.blocks), may_alias=ctx.may_alias
                )
                if not dfg.nodes:
                    continue
                bases = {base.name: base for base in verdicts}
                ports_before = {
                    base_name: 2 * factor for base_name in bases
                }
                ports_after = {}
                occupancy_after = {}
                groups = []
                for base_name in sorted(bases):
                    verdict = verdicts[bases[base_name]]
                    banks = verdict.best.banks if verdict.proven else 1
                    ports_after[base_name] = 2 * banks
                    # A proven scheme bounds the distinct simultaneous
                    # addresses by its bank count (a broadcast load
                    # collapses to one); an unproven group issues all
                    # ``factor`` lane replicas serially.
                    occupancy_after[base_name] = (
                        min(factor, banks) if verdict.proven else factor
                    )
                    groups.append({
                        "base": base_name,
                        "scheme": (
                            verdict.best.label if verdict.proven
                            else "serialized"
                        ),
                        "banks_claimed": factor,
                        "banks_proven": banks,
                    })

                def make_timing(occupancies):
                    def timing(node):
                        info = ctx.access.info(node.inst)
                        base = getattr(info, "base", None)
                        if base in verdicts:
                            return AccessTiming(
                                latency=2, port=base.name,
                                occupancy=occupancies[base.name],
                            )
                        return AccessTiming(latency=2, port=None)
                    return timing

                recurrences = loop_recurrences(loop, dfg, ctx)
                before = pipeline_loop(
                    dfg, DEFAULT_TECHLIB,
                    make_timing({b: factor for b in bases}),
                    port_counts=ports_before, recurrences=recurrences,
                )
                after = pipeline_loop(
                    dfg, DEFAULT_TECHLIB, make_timing(occupancy_after),
                    port_counts=ports_after, recurrences=recurrences,
                )
                trip = ctx.static_trip_bound(loop) or 100
                loops.append({
                    "function": func.name,
                    "loop": loop.name,
                    "factor": factor,
                    "trip": trip,
                    "groups": groups,
                    "ii_before": before.ii,
                    "ii_after": after.ii,
                    "latency_before": round(before.latency(trip), 3),
                    "latency_after": round(after.latency(trip), 3),
                })
        loops.sort(key=lambda entry: (entry["function"], entry["loop"]))
        all_groups = [g for e in loops for g in e["groups"]]
        stats[name] = {
            "loops": loops,
            "probed_loops": len(loops),
            "groups": len(all_groups),
            "proven_groups": sum(
                1 for g in all_groups if g["scheme"] != "serialized"
            ),
            "serialized_groups": sum(
                1 for g in all_groups if g["scheme"] == "serialized"
            ),
            "regressed_loops": sum(
                1 for e in loops if e["ii_after"] > e["ii_before"]
            ),
            "ii_before_total": sum(e["ii_before"] for e in loops),
            "ii_after_total": sum(e["ii_after"] for e in loops),
        }
    return stats


# Reuse-buffer probe --------------------------------------------------------------


def reuse_buffers_stats(names: Sequence[str]) -> Dict[str, Dict]:
    """Before/after port pressure and pipeline II with proven reuse pairs.

    For every innermost loop with a global-array scratchpad group, probes
    the data-reuse analysis and pipelines the *same* body DFG twice: once
    with every group access on a dual-ported scratchpad port, and once
    with each provably-reusing consumer fed from a shift-register tap
    (latency 1, no port) instead — exactly the lowering the estimator
    applies.  A port-count or II drop is therefore the measured payoff of
    the proof; workloads without provable reuse report identical
    before/after numbers.  Every field is an exact count, so the whole
    section participates in :func:`compare_reports`.
    """
    from ..analysis.reuse import select_buffers
    from ..analysis.reuse import probe_function as reuse_probes
    from ..dataflow import ModuleIntervalAnalysis, PointsToAnalysis
    from ..frontend.lowering import compile_source
    from ..hls.dfg import DFG
    from ..hls.pipeline import pipeline_loop
    from ..hls.scheduling import AccessTiming
    from ..hls.techlib import DEFAULT_TECHLIB, SPAD_LATENCY
    from ..ir import Load, Store
    from ..model.estimator import FunctionContext, loop_recurrences

    stats: Dict[str, Dict] = {}
    for name in names:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        intervals = ModuleIntervalAnalysis(module)
        points_to = PointsToAnalysis(module)
        loops: List[Dict] = []
        pairs_proven = pairs_unknown = pairs_broken = 0
        for func in module.defined_functions():
            ctx = FunctionContext(
                func, points_to=points_to, intervals=intervals
            )
            probes = reuse_probes(ctx.memdep)
            by_loop: Dict = {}
            for probe in probes:
                by_loop.setdefault(probe.loop, []).append(probe)
            for loop in ctx.loop_info.loops:
                if loop not in by_loop:
                    continue
                loop_probes = by_loop[loop]
                # Value names carry a process-global counter; label the
                # loop's accesses by textual position instead so the
                # section is bit-identical across runs (--compare-to).
                stable: Dict = {}
                for block in ctx.ordered_blocks(loop.blocks):
                    for inst in block.instructions:
                        if isinstance(inst, (Load, Store)):
                            kind = "ld" if isinstance(inst, Load) else "st"
                            stable[inst] = f"{kind}{len(stable)}"
                buffered: Dict = {}
                groups: List[Dict] = []
                register_bits = 0
                for probe in loop_probes:
                    verdict = probe.verdict
                    pairs_proven += len(verdict.pairs)
                    pairs_unknown += len(verdict.unknown)
                    pairs_broken += len(verdict.broken)
                    chosen, _over = select_buffers(verdict)
                    chains: Dict = {}
                    for inst, pair in chosen.items():
                        buffered[inst] = pair
                        depth, bits = chains.get(pair.producer.inst, (0, 0))
                        chains[pair.producer.inst] = (
                            max(depth, pair.depth()),
                            max(bits, 8 * pair.consumer.element_size),
                        )
                    register_bits += sum(
                        depth * bits for depth, bits in chains.values()
                    )
                    groups.append({
                        "base": verdict.base_name,
                        "pairs": [
                            dict(
                                p.to_dict(),
                                producer=stable.get(
                                    p.producer.inst, p.producer.inst.name or "?"
                                ),
                                consumer=stable.get(
                                    p.consumer.inst, p.consumer.inst.name or "?"
                                ),
                            )
                            for p in verdict.pairs
                        ],
                        "unknown": len(verdict.unknown),
                        "broken": len(verdict.broken),
                        "buffered": sorted(
                            stable.get(inst, inst.name or "?")
                            for inst in chosen
                        ),
                    })
                dfg = DFG.from_blocks(
                    ctx.ordered_blocks(loop.blocks), may_alias=ctx.may_alias
                )
                if not dfg.nodes:
                    continue
                bases = {p.base for p in loop_probes}
                members = [
                    node.inst for node in dfg.nodes
                    if isinstance(node.inst, (Load, Store))
                    and getattr(ctx.access.info(node.inst), "base", None)
                    in bases
                ]
                ports_before = len(members)
                ports_after = ports_before - sum(
                    1 for inst in members if inst in buffered
                )

                def make_timing(use_buffers):
                    def timing(node):
                        info = ctx.access.info(node.inst)
                        base = getattr(info, "base", None)
                        if base in bases:
                            if use_buffers and node.inst in buffered:
                                # Register tap: single cycle, no port.
                                return AccessTiming(latency=1, port=None)
                            return AccessTiming(
                                latency=SPAD_LATENCY, port=base.name,
                                occupancy=1,
                            )
                        return AccessTiming(latency=2, port=None)
                    return timing

                ports = {base.name: 2 for base in bases}
                recurrences = loop_recurrences(loop, dfg, ctx)
                before = pipeline_loop(
                    dfg, DEFAULT_TECHLIB, make_timing(False),
                    port_counts=ports, recurrences=recurrences,
                )
                after = pipeline_loop(
                    dfg, DEFAULT_TECHLIB, make_timing(True),
                    port_counts=ports, recurrences=recurrences,
                )
                trip = ctx.static_trip_bound(loop) or 100
                loops.append({
                    "function": func.name,
                    "loop": loop.name,
                    "trip": trip,
                    "groups": groups,
                    "port_accesses_before": ports_before,
                    "port_accesses_after": ports_after,
                    "register_bits": register_bits,
                    "ii_before": before.ii,
                    "ii_after": after.ii,
                    "latency_before": round(before.latency(trip), 3),
                    "latency_after": round(after.latency(trip), 3),
                })
        loops.sort(key=lambda entry: (entry["function"], entry["loop"]))
        stats[name] = {
            "loops": loops,
            "probed_loops": len(loops),
            "pairs_proven": pairs_proven,
            "pairs_unknown": pairs_unknown,
            "pairs_broken": pairs_broken,
            "buffered_consumers": sum(
                e["port_accesses_before"] - e["port_accesses_after"]
                for e in loops
            ),
            "register_bits": sum(e["register_bits"] for e in loops),
            "improved_loops": sum(
                1 for e in loops
                if e["port_accesses_after"] < e["port_accesses_before"]
                or e["ii_after"] < e["ii_before"]
            ),
            "ports_before_total": sum(
                e["port_accesses_before"] for e in loops
            ),
            "ports_after_total": sum(
                e["port_accesses_after"] for e in loops
            ),
            "ii_before_total": sum(e["ii_before"] for e in loops),
            "ii_after_total": sum(e["ii_after"] for e in loops),
        }
    return stats


# BENCH_<tag>.json reports -------------------------------------------------------


def build_report(
    records: Sequence[WorkloadRecord],
    engine: EvaluationEngine,
    tag: str,
    wall_seconds: float,
    interp_elision: Optional[Dict[str, Dict]] = None,
    area_narrowing: Optional[Dict[str, Dict]] = None,
    pipeline_ii: Optional[Dict[str, Dict]] = None,
    spad_banking: Optional[Dict[str, Dict]] = None,
    reuse_buffers: Optional[Dict[str, Dict]] = None,
    telemetry: Optional[Dict] = None,
) -> Dict:
    """The machine-readable bench payload (see docs/benchmarking.md)."""
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tag": tag,
        "generated_unix": time.time(),
        "params": engine.params.as_dict(),
        "estimator_version": ESTIMATOR_VERSION,
        "cache": engine.cache_stats(),
        "wall_seconds": wall_seconds,
        "workloads": {
            record.name: dict(
                record.to_dict(), cached=(record.name in engine.hit_names)
            )
            for record in records
        },
    }
    if interp_elision is not None:
        payload["interp_elision"] = interp_elision
    if area_narrowing is not None:
        payload["area_narrowing"] = area_narrowing
    if pipeline_ii is not None:
        payload["pipeline_ii"] = pipeline_ii
    if spad_banking is not None:
        payload["spad_banking"] = spad_banking
    if reuse_buffers is not None:
        payload["reuse_buffers"] = reuse_buffers
    if telemetry is None:
        telemetry = engine.telemetry_section([r.name for r in records])
    payload["telemetry"] = telemetry
    return payload


def write_report(payload: Dict, directory: str = ".") -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{payload['tag']}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def compare_reports(left: Dict, right: Dict) -> List[str]:
    """Determinism check: the *deterministic* sections must match bit-for-bit.

    Compares per-workload flow speedups/Pareto series, Table II metrics, and
    selector counters; wall times, cache statistics, and the ``telemetry``
    section (its ``timings`` are wall-clock aggregates, and its coverage
    depends on which workloads were cache hits) are expected to differ
    between runs and are ignored.  Returns human-readable mismatch
    descriptions (empty = identical).
    """
    problems: List[str] = []
    left_workloads = left.get("workloads", {})
    right_workloads = right.get("workloads", {})
    for name in sorted(set(left_workloads) | set(right_workloads)):
        if name not in left_workloads or name not in right_workloads:
            problems.append(f"{name}: present in only one report")
            continue
        a, b = left_workloads[name], right_workloads[name]
        for section in ("key", "flows", "table2", "selector_stats"):
            if a.get(section) != b.get(section):
                problems.append(f"{name}: section {section!r} differs")
    left_interp = left.get("interp_elision")
    right_interp = right.get("interp_elision")
    if left_interp is not None and right_interp is not None:
        exact = ("instructions", "proven_accesses", "total_accesses",
                 "elided", "checked")
        for name in sorted(set(left_interp) | set(right_interp)):
            a = left_interp.get(name)
            b = right_interp.get(name)
            if a is None or b is None:
                problems.append(f"interp_elision/{name}: in only one report")
                continue
            for key in exact:
                if a.get(key) != b.get(key):
                    problems.append(
                        f"interp_elision/{name}: {key} differs "
                        f"({a.get(key)} vs {b.get(key)})"
                    )
    left_narrow = left.get("area_narrowing")
    right_narrow = right.get("area_narrowing")
    if left_narrow is not None and right_narrow is not None:
        # Every field is deterministic (exact counts, frozen-techlib area
        # sums, schedule lengths) — compare the whole per-workload dict.
        for name in sorted(set(left_narrow) | set(right_narrow)):
            a = left_narrow.get(name)
            b = right_narrow.get(name)
            if a is None or b is None:
                problems.append(f"area_narrowing/{name}: in only one report")
            elif a != b:
                problems.append(f"area_narrowing/{name}: differs")
    left_ii = left.get("pipeline_ii")
    right_ii = right.get("pipeline_ii")
    if left_ii is not None and right_ii is not None:
        # Exact counts throughout (IIs, depths, trip bounds): full compare.
        for name in sorted(set(left_ii) | set(right_ii)):
            a = left_ii.get(name)
            b = right_ii.get(name)
            if a is None or b is None:
                problems.append(f"pipeline_ii/{name}: in only one report")
            elif a != b:
                problems.append(f"pipeline_ii/{name}: differs")
    left_banking = left.get("spad_banking")
    right_banking = right.get("spad_banking")
    if left_banking is not None and right_banking is not None:
        # Exact counts throughout (IIs, bank counts, verdicts): full compare.
        for name in sorted(set(left_banking) | set(right_banking)):
            a = left_banking.get(name)
            b = right_banking.get(name)
            if a is None or b is None:
                problems.append(f"spad_banking/{name}: in only one report")
            elif a != b:
                problems.append(f"spad_banking/{name}: differs")
    left_reuse = left.get("reuse_buffers")
    right_reuse = right.get("reuse_buffers")
    if left_reuse is not None and right_reuse is not None:
        # Exact counts throughout (IIs, port counts, distances): full
        # compare.
        for name in sorted(set(left_reuse) | set(right_reuse)):
            a = left_reuse.get(name)
            b = right_reuse.get(name)
            if a is None or b is None:
                problems.append(f"reuse_buffers/{name}: in only one report")
            elif a != b:
                problems.append(f"reuse_buffers/{name}: differs")
    return problems


def default_tag(params: FlowParams) -> str:
    """A short params-derived tag so differing configs never clobber."""
    blob = json.dumps(params.as_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:8]
