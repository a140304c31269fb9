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
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.banking import probe_function as probe_banking
from ..analysis.facts import ModuleFacts
from ..analysis.loops import Loop
from ..analysis.reuse import probe_function as probe_reuse
from ..analysis.reuse import select_buffers
from ..baselines.common import BaselineResult
from ..baselines.novia import Novia
from ..baselines.qscores import QsCores
from ..framework import Cayman, CaymanResult
from ..frontend.lowering import compile_source
from ..hls.dfg import DFG
from ..hls.pipeline import pipeline_loop
from ..hls.scheduling import AccessTiming, schedule_dfg
from ..hls.techlib import DEFAULT_TECHLIB, SPAD_LATENCY
from ..ir import Load, Store
from ..model.estimator import ESTIMATOR_VERSION, loop_recurrences
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
    from ..interp.interpreter import Interpreter

    stats: Dict[str, Dict] = {}
    for name in names:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        bounds = ModuleFacts.of(module).bounds

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


# Proof ablations ----------------------------------------------------------------
#
# Each ablation section prices the same datapath units twice, without and
# with one proof, so the difference is that proof's measured payoff.  The
# driver compiles and analyses each workload once, builds each unit's DFG
# once, prices it both ways and writes the common fields and totals; a
# section supplies only its probe set, what differs between its two sides
# and its extra fields.  Wherever a proof does not change an access, its
# timing is fixed (contention-free, latency 2); loop latency is evaluated
# at the interval-proven trip bound (nominal 100 when unproven).  Every
# field is an exact count or a deterministic area sum, so each section is
# compared whole by :func:`compare_reports`.


def _fixed_timing(_node) -> AccessTiming:
    return AccessTiming(latency=2, port=None)


class _Side(NamedTuple):
    """What one side of an ablation prices a unit with."""

    timing: Callable = _fixed_timing
    ports: Optional[Dict[str, int]] = None
    recurrences: Optional[List] = None
    #: Replaces the unit's shared DFG (the proven-width block datapath).
    dfg: Optional[DFG] = None


class _Function:
    """One function's analyses and unit DFGs, shared by every ablation."""

    def __init__(self, func, facts: ModuleFacts):
        self.func = func
        self.facts = facts
        self.ctx = facts.context(func)
        self._dfgs: Dict = {}

    def dfg(self, unit) -> DFG:
        """The shared DFG of a loop body or of one basic block."""
        if unit not in self._dfgs:
            self._dfgs[unit] = (
                DFG.from_blocks(
                    self.ctx.ordered_blocks(unit.blocks),
                    may_alias=self.ctx.may_alias,
                )
                if isinstance(unit, Loop) else DFG.from_blocks([unit])
            )
        return self._dfgs[unit]

    def group_timing(self, bases, grouped: Callable) -> Callable:
        """Access timing that prices each access to a group in ``bases``
        as ``grouped(node, base)`` and every other access as fixed."""
        def timing(node):
            base = getattr(self.ctx.access.info(node.inst), "base", None)
            if base in bases:
                return grouped(node, base)
            return _fixed_timing(node)
        return timing


def _count(items, predicate: Callable) -> int:
    return sum(1 for item in items if predicate(item))


def _probes_by_loop(probe_function: Callable) -> Callable:
    """A probe set: each loop with the probes ``probe_function`` (a
    banking or reuse ``probe_function``) returns for it."""
    def probe(fn: _Function) -> Dict:
        by_loop: Dict = {}
        for found in probe_function(fn.ctx):
            by_loop.setdefault(found.loop, []).append(found)
        return by_loop
    return probe


def _narrowing_probe(fn: _Function) -> Dict:
    """Every basic block, with its function's bitwidth-proven widths."""
    return dict.fromkeys(fn.func.blocks, fn.ctx.widths)


def _narrowing_sides(fn: _Function, block, widths, dfg):
    """The block at type widths before and at the proven widths after.
    Narrowing only shrinks operator area (delay is width-invariant at or
    below 32 bits, see ``docs/bitwidth.md``), so both schedules should be
    equally long."""
    return {}, _Side(), _Side(dfg=DFG.from_blocks([block], widths=widths))


def _narrowing_summary(rows: List[Dict], functions) -> Dict:
    summaries = [
        fn.facts.bitwidth.function_summary(fn.func) for fn in functions
    ]
    type_area = sum((s["type_area_um2"] for s in summaries), 0.0)
    proven_area = sum((s["proven_area_um2"] for s in summaries), 0.0)
    saving = (1.0 - proven_area / type_area) if type_area else 0.0
    latency_type = sum(row["latency_before"] for row in rows)
    latency_proven = sum(row["latency_after"] for row in rows)
    return {
        "int_ops": sum(int(s["int_ops"]) for s in summaries),
        "narrowed_ops": sum(int(s["narrowed_ops"]) for s in summaries),
        "type_area_um2": round(type_area, 6),
        "proven_area_um2": round(proven_area, 6),
        "saving_pct": round(100.0 * saving, 3),
        "latency_type": latency_type,
        "latency_proven": latency_proven,
        "latency_equal": latency_type == latency_proven,
    }


def _innermost_probe(fn: _Function) -> Dict:
    """Every innermost loop."""
    return {
        loop: None for loop in fn.ctx.loop_info.loops if loop.is_innermost
    }


def _dependence_sides(fn: _Function, loop, _state, dfg):
    """Dependence proofs off before (every recurrence at distance 1) and
    the proven distances after.  A recurrence of latency L at proven
    distance d only forces II ≥ ceil(L / d), so proven distances > 1
    lower the II."""
    recurrences = loop_recurrences(loop, dfg, fn.ctx)
    return {}, _Side(
        recurrences=[(load, store, 1) for load, store, _ in recurrences]
    ), _Side(recurrences=recurrences)


def _banking_sides(fn: _Function, loop, probes, dfg):
    """At the loop's largest legal unroll factor ``U``, each global-array
    group gets the historically-optimistic budget before (``2·U`` ports,
    the claimed cyclic-``U`` banking with every bank dual-ported) and the
    proven budget after (``2·banks`` of the cheapest conflict-free scheme,
    or ``2`` when none is provable and the group serializes).  Both sides
    price the same claimed banks, so an II increase is cycles the old
    model hid behind unchecked conflicts."""
    factor = max(p.factor for p in probes)
    verdicts = {p.base: p.verdict for p in probes if p.factor == factor}
    groups: List[Dict] = []
    ports: Dict[str, int] = {}
    occupancy: Dict[str, int] = {}
    for base in sorted(verdicts, key=lambda b: b.name):
        verdict = verdicts[base]
        banks = verdict.best.banks if verdict.proven else 1
        ports[base.name] = 2 * banks
        # A proven scheme bounds the distinct simultaneous addresses by its
        # bank count (a broadcast load collapses to one); an unproven group
        # issues all ``factor`` lane replicas serially.
        occupancy[base.name] = min(factor, banks) if verdict.proven else factor
        groups.append({
            "base": base.name,
            "scheme": verdict.best.label if verdict.proven else "serialized",
            "banks_claimed": factor,
            "banks_proven": banks,
        })
    recurrences = loop_recurrences(loop, dfg, fn.ctx)
    claimed = fn.group_timing(verdicts, lambda node, base: AccessTiming(
        latency=2, port=base.name, occupancy=factor,
    ))
    proven = fn.group_timing(verdicts, lambda node, base: AccessTiming(
        latency=2, port=base.name, occupancy=occupancy[base.name],
    ))
    return {"factor": factor, "groups": groups}, _Side(
        claimed, {name: 2 * factor for name in ports}, recurrences,
    ), _Side(proven, ports, recurrences)


def _banking_summary(rows: List[Dict], _functions) -> Dict:
    groups = [g for row in rows for g in row["groups"]]
    serialized = _count(groups, lambda g: g["scheme"] == "serialized")
    return {
        "groups": len(groups),
        "proven_groups": len(groups) - serialized,
        "serialized_groups": serialized,
        "regressed_loops": _count(
            rows, lambda r: r["ii_after"] > r["ii_before"]
        ),
    }


def _reuse_sides(fn: _Function, loop, probes, dfg):
    """Each group access takes a dual-ported scratchpad port before, and
    each provably-reusing consumer is fed from a shift-register tap
    (latency 1, no port) after, exactly the lowering the estimator
    applies."""
    # Value names carry a process-global counter; label the loop's
    # accesses by textual position instead so the section is
    # bit-identical across runs (--compare-to).
    labels: Dict = {}
    for block in fn.ctx.ordered_blocks(loop.blocks):
        for inst in block.instructions:
            if isinstance(inst, (Load, Store)):
                kind = "ld" if isinstance(inst, Load) else "st"
                labels[inst] = f"{kind}{len(labels)}"

    def label(inst):
        return labels.get(inst, inst.name or "?")

    buffered: Dict = {}
    groups: List[Dict] = []
    register_bits = 0
    for probe in probes:
        verdict = probe.verdict
        chosen, _over = select_buffers(verdict)
        chains: Dict = {}
        for inst, pair in chosen.items():
            buffered[inst] = pair
            depth, bits = chains.get(pair.producer.inst, (0, 0))
            chains[pair.producer.inst] = (
                max(depth, pair.depth()),
                max(bits, 8 * pair.consumer.element_size),
            )
        register_bits += sum(depth * bits for depth, bits in chains.values())
        groups.append({
            "base": verdict.base_name,
            "pairs": [
                dict(p.to_dict(), producer=label(p.producer.inst),
                     consumer=label(p.consumer.inst))
                for p in verdict.pairs
            ],
            "unknown": len(verdict.unknown),
            "broken": len(verdict.broken),
            "buffered": sorted(label(inst) for inst in chosen),
        })
    bases = {p.base for p in probes}
    members = [
        node.inst for node in dfg.nodes
        if isinstance(node.inst, (Load, Store))
        and getattr(fn.ctx.access.info(node.inst), "base", None) in bases
    ]

    def spad(node, base):
        return AccessTiming(latency=SPAD_LATENCY, port=base.name)

    def tapped(node, base):
        if node.inst in buffered:
            return AccessTiming(latency=1, port=None)
        return spad(node, base)

    ports = {base.name: 2 for base in bases}
    recurrences = loop_recurrences(loop, dfg, fn.ctx)
    return {
        "groups": groups,
        "port_accesses_before": len(members),
        "port_accesses_after": _count(
            members, lambda inst: inst not in buffered
        ),
        "register_bits": register_bits,
    }, _Side(fn.group_timing(bases, spad), ports, recurrences), _Side(
        fn.group_timing(bases, tapped), ports, recurrences,
    )


def _reuse_summary(rows: List[Dict], _functions) -> Dict:
    groups = [g for row in rows for g in row["groups"]]
    return {
        "pairs_proven": sum(len(g["pairs"]) for g in groups),
        "pairs_unknown": sum(g["unknown"] for g in groups),
        "pairs_broken": sum(g["broken"] for g in groups),
        "buffered_consumers": sum(
            r["port_accesses_before"] - r["port_accesses_after"] for r in rows
        ),
        "register_bits": sum(r["register_bits"] for r in rows),
        "improved_loops": _count(rows, lambda r: (
            r["port_accesses_after"] < r["port_accesses_before"]
            or r["ii_after"] < r["ii_before"]
        )),
        "ports_before_total": sum(r["port_accesses_before"] for r in rows),
        "ports_after_total": sum(r["port_accesses_after"] for r in rows),
    }


class _Ablation(NamedTuple):
    """One proof-ablation section of a bench report."""

    #: ``_Function`` → {unit: probe state}: the probed loops or blocks.
    probe: Callable
    #: ``(_Function, unit, state, dfg)`` → (row fields, before, after).
    sides: Callable
    #: ``(rows, functions)`` → the section's own per-workload fields.
    summary: Callable
    #: Key counting the listed loops; None for block units, which are
    #: list-scheduled, summed and not listed.
    loops: Optional[str] = "probed_loops"
    #: ``(before, after)`` pipeline results → extra per-loop fields.
    results: Optional[Callable] = None


#: The proof-ablation sections of a bench report, in report order.
ABLATIONS: Dict[str, _Ablation] = {
    "area_narrowing": _Ablation(
        _narrowing_probe, _narrowing_sides, _narrowing_summary, loops=None,
    ),
    "pipeline_ii": _Ablation(
        _innermost_probe, _dependence_sides,
        lambda rows, _functions: {"improved_loops": _count(
            rows, lambda r: r["ii_after"] < r["ii_before"]
        )},
        loops="pipelined_loops", results=lambda before, after: {
            "depth": after.depth,
            "rec_mii_before": before.rec_mii,
            "rec_mii_after": after.rec_mii,
        },
    ),
    "spad_banking": _Ablation(
        _probes_by_loop(probe_banking), _banking_sides, _banking_summary,
    ),
    "reuse_buffers": _Ablation(
        _probes_by_loop(probe_reuse), _reuse_sides, _reuse_summary,
    ),
}
ABLATION_SECTIONS = tuple(ABLATIONS)


def _ablate(ablation: _Ablation, functions: List[_Function]) -> Dict:
    """One section's entry for the workload of ``functions``."""
    rows: List[Dict] = []
    for fn in functions:
        for unit, state in ablation.probe(fn).items():
            dfg = fn.dfg(unit)
            if not dfg.nodes:
                continue
            row, before, after = ablation.sides(fn, unit, state, dfg)
            if ablation.loops is None:
                row["latency_before"], row["latency_after"] = (
                    schedule_dfg(
                        side.dfg or dfg, DEFAULT_TECHLIB, side.timing
                    ).length
                    for side in (before, after)
                )
                rows.append(row)
                continue
            first, second = (
                pipeline_loop(
                    dfg, DEFAULT_TECHLIB, side.timing,
                    port_counts=side.ports, recurrences=side.recurrences,
                )
                for side in (before, after)
            )
            trip = fn.ctx.static_trip_bound(unit) or 100
            row.update(
                function=fn.func.name, loop=unit.name, trip=trip,
                ii_before=first.ii, ii_after=second.ii,
                latency_before=round(first.latency(trip), 3),
                latency_after=round(second.latency(trip), 3),
            )
            if ablation.results is not None:
                row.update(ablation.results(first, second))
            rows.append(row)
    if ablation.loops is None:
        return ablation.summary(rows, functions)
    rows.sort(key=lambda row: (row["function"], row["loop"]))
    return {
        "loops": rows,
        ablation.loops: len(rows),
        **ablation.summary(rows, functions),
        "ii_before_total": sum(row["ii_before"] for row in rows),
        "ii_after_total": sum(row["ii_after"] for row in rows),
    }


def ablation_stats(names: Sequence[str]) -> Dict[str, Dict[str, Dict]]:
    """Every proof-ablation section over ``names``: section → workload →
    stats.  Each workload is compiled and analysed once for all of them."""
    stats: Dict[str, Dict[str, Dict]] = {s: {} for s in ABLATION_SECTIONS}
    for name in names:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        facts = ModuleFacts.of(module)
        functions = [
            _Function(func, facts) for func in module.defined_functions()
        ]
        for section, ablation in ABLATIONS.items():
            stats[section][name] = _ablate(ablation, functions)
    return stats


# BENCH_<tag>.json reports -------------------------------------------------------


def build_report(
    records: Sequence[WorkloadRecord],
    engine: EvaluationEngine,
    tag: str,
    wall_seconds: float,
    sections: Optional[Dict[str, Dict[str, Dict]]] = None,
    telemetry: Optional[Dict] = None,
) -> Dict:
    """The machine-readable bench payload (see docs/benchmarking.md).

    ``sections`` holds the probe sections that ran (``interp_elision`` and
    the :data:`ABLATION_SECTIONS`), each by name; a probe that did not run
    is absent from the report."""
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
    payload.update(sections or {})
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


#: Probe sections compared by :func:`compare_reports`: section → the
#: per-workload fields that are deterministic (None: all of them).  The
#: elision probe's throughputs are wall-clock rates; its counts are exact.
_COMPARED_SECTIONS: Dict[str, Optional[Tuple[str, ...]]] = {
    "interp_elision": (
        "instructions", "proven_accesses", "total_accesses", "elided",
        "checked",
    ),
    **dict.fromkeys(ABLATION_SECTIONS),
}


def compare_reports(left: Dict, right: Dict) -> List[str]:
    """Determinism check: the *deterministic* sections must match bit-for-bit.

    Compares per-workload flow speedups/Pareto series, Table II metrics,
    selector counters and the deterministic fields of every probe section
    both reports carry; wall times, cache statistics, and the ``telemetry``
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
    for section, fields in _COMPARED_SECTIONS.items():
        left_section = left.get(section)
        right_section = right.get(section)
        if left_section is None or right_section is None:
            continue
        for name in sorted(set(left_section) | set(right_section)):
            a = left_section.get(name)
            b = right_section.get(name)
            if a is None or b is None:
                problems.append(f"{section}/{name}: in only one report")
            elif fields is None:
                if a != b:
                    problems.append(f"{section}/{name}: differs")
            else:
                problems.extend(
                    f"{section}/{name}: {key} differs "
                    f"({a.get(key)} vs {b.get(key)})"
                    for key in fields if a.get(key) != b.get(key)
                )
    return problems


def default_tag(params: FlowParams) -> str:
    """A short params-derived tag so differing configs never clobber."""
    blob = json.dumps(params.as_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:8]
