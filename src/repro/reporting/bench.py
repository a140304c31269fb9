"""Parallel, persistently-cached evaluation engine behind every report.

The engine runs the workload × flow matrix (full Cayman, coupled-only
Cayman, NOVIA, QsCores) and reduces each workload to a serializable
:class:`WorkloadRecord`: per-budget speedups for every flow, the merged
Pareto series, Table II metrics, ``CandidateSelector.stats()`` counters, and
per-stage wall times.  ``repro bench``, ``table2`` and ``fig6`` all read
records from :meth:`EvaluationEngine.evaluate`; no report keeps the flows'
full results.

Each workload is one task (:func:`_evaluate`): it compiles the workload
once, and that module serves the cache keys, the flows, the proof-ablation
sections and the interpreter elision probe.

Records are memoized at two levels:

* in-process, per engine;
* on disk, content-keyed — the cache key hashes the workload name, the
  optimized IR of the task's module, the flow parameters (α, β, prune
  threshold, budgets), and :data:`~repro.model.estimator.ESTIMATOR_VERSION`
  — so re-runs and CI only pay for what actually changed.

Tasks can be fanned out across a ``concurrent.futures`` process pool
(``--jobs N``); results are deterministic, so parallel runs are
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
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..analysis.banking import probe_function as probe_banking
from ..analysis.facts import ModuleFacts
from ..analysis.loops import Loop
from ..analysis.reuse import probe_function as probe_reuse
from ..baselines.novia import Novia
from ..baselines.qscores import QsCores
from ..framework import Cayman, CaymanResult
from ..frontend.lowering import compile_source
from ..ir import Load, Module, Store, print_module
from ..model import (
    AcceleratorModel, InterfaceAssignment, InterfaceKind, InterfacePlan,
    LoopPlan,
)
from ..model.estimator import ESTIMATOR_VERSION, PROOFS
from ..telemetry import Telemetry, merge_snapshots, use as use_telemetry
from ..workloads import get_workload

#: Bumped whenever the on-disk record layout changes (old entries are
#: silently treated as misses).
CACHE_SCHEMA_VERSION = 2
#: Schema of the ``BENCH_<tag>.json`` report files.
BENCH_SCHEMA_VERSION = 1

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
        return dict(asdict(self), budgets=list(self.budgets))


def run_comparison(
    name: str,
    module: Module,
    params: FlowParams,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Dict[str, CaymanResult], Dict[str, float]]:
    """Run the paper's four flows on workload ``name``'s compiled
    ``module``: ``(results, seconds)``, each keyed by flow name in
    reporting order (``cayman``, ``coupled_only``, ``novia``,
    ``qscores``), ``seconds`` holding the wall time measured around each
    flow run.

    The ``cayman`` flow profiles the module and runs whole; the other
    three run only their back halves (:meth:`Cayman.run_back`) on its
    module, profile and wPST, so the workload is profiled once.

    ``telemetry`` (when given) is installed as the ambient sink for the
    whole comparison, so every flow's counters land in one per-workload
    snapshot.
    """
    from ..telemetry import current as current_telemetry

    tele = telemetry if telemetry is not None else current_telemetry()
    workload = get_workload(name)
    runners = {
        "cayman": Cayman(
            alpha=params.alpha, beta=params.beta,
            prune_threshold=params.prune_threshold,
        ),
        "coupled_only": Cayman(
            alpha=params.alpha, beta=params.beta,
            prune_threshold=params.prune_threshold, coupled_only=True,
        ),
        "novia": Novia(
            alpha=params.alpha, prune_threshold=params.prune_threshold,
        ),
        "qscores": QsCores(
            alpha=params.alpha, prune_threshold=params.prune_threshold,
        ),
    }
    results: Dict[str, CaymanResult] = {}
    seconds: Dict[str, float] = {}
    with use_telemetry(tele):
        for flow, runner in runners.items():
            started = time.perf_counter()
            with tele.span(f"bench.flow:{flow}", workload=name):
                if flow == "cayman":
                    results[flow] = runner.run(
                        module, entry=workload.entry, name=name
                    )
                else:
                    front = results["cayman"]
                    results[flow] = runner.run_back(
                        front.module, front.profile, front.wpst, name=name
                    )
            seconds[flow] = time.perf_counter() - started
    return results, seconds


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


def module_ir_hash(module: Module) -> str:
    """SHA-256 of ``module``'s name-canonicalized IR text."""
    text = _canonicalize_ir(print_module(module))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(name: str, params: Optional[FlowParams], ir_hash: str) -> str:
    """Content key of one workload evaluation, from ``ir_hash``, the
    :func:`module_ir_hash` of its optimized module.  Without ``params`` it
    keys the workload's proof-ablation sections, which read the IR and the
    estimator but not the flow parameters.

    Any change to the workload's optimized IR, the flow parameters, the
    estimator version, or the record schema produces a different key.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "workload": name,
        "ir": ir_hash,
        "estimator_version": ESTIMATOR_VERSION,
        **({"kind": "ablation"} if params is None
           else {"params": params.as_dict()}),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# Records ------------------------------------------------------------------------


def budget_metrics(results: Dict[str, CaymanResult], budget: float) -> Dict:
    """Table II metrics of one workload's flow ``results`` (see
    :func:`run_comparison`) under one area budget."""
    cayman = results["cayman"]
    best = cayman.best_under_budget(budget)
    solution = best.solution
    totals = solution.interface_totals()
    cayman_speedup = best.speedup(cayman.total_seconds)
    novia_speedup = results["novia"].speedup_under_budget(budget)
    qscores_speedup = results["qscores"].speedup_under_budget(budget)
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
        return {"schema": CACHE_SCHEMA_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: Dict) -> "WorkloadRecord":
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


# Persistent cache ---------------------------------------------------------------


def _hit_rate(hits: int, misses: int) -> float:
    """``hits / (hits + misses)`` with a zero-total guard."""
    total = hits + misses
    return (hits / total) if total else 0.0


class BenchCache:
    """Content-keyed on-disk store of :class:`WorkloadRecord` JSON blobs,
    and of each workload's proof-ablation sections.  Reads count nothing,
    so pool workers may read and write it; the engine tallies each record
    lookup into the hit statistics (:meth:`count`)."""

    def __init__(self, directory: str = DEFAULT_CACHE_DIR):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[WorkloadRecord]:
        payload = self._read(key)
        return None if payload is None else WorkloadRecord.from_dict(payload)

    def count(self, hit: bool) -> None:
        """Tally one record lookup."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def _read(self, key: str) -> Optional[Dict]:
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if payload.get("estimator_version") != ESTIMATOR_VERSION:
            return None
        return payload

    def get_ablation(self, key: str) -> Optional[Dict[str, Dict]]:
        """Section → stats stored under a params-free :func:`cache_key`."""
        payload = self._read(key)
        return None if payload is None else payload.get("ablation")

    def put_ablation(self, key: str, sections: Dict[str, Dict]) -> None:
        self._publish(key, {
            "schema": CACHE_SCHEMA_VERSION,
            "estimator_version": ESTIMATOR_VERSION,
            "ablation": sections,
        })

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
        self._publish(record.key, record.to_dict())

    def _publish(self, key: str, payload: Dict) -> None:
        os.makedirs(self.directory, exist_ok=True)
        # Atomic publish so a crashed/parallel writer never leaves a torn
        # JSON file behind.
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# One workload's task (module-level so the process pool pickles it) ------------


def _evaluate(
    task: Tuple[str, bool, bool],
    params: FlowParams,
    cache: Optional[BenchCache],
) -> Tuple[WorkloadRecord, Optional[Dict], Dict[str, Dict]]:
    """The only path from a workload name to what the reports read.

    ``task`` is ``(name, ablate, probe_interp)``; the result is
    ``(record, snapshot, sections)``.  The task compiles the workload once
    and keys its record and its ablation sections by that module's IR,
    hashed before any flow touches it.  A record that ``cache`` does not
    hold is computed by the four flows on the module; ``snapshot`` is None
    when the cache held it.  When ``ablate``, the proof-ablation sections,
    unless ``cache`` holds them, are priced on the same module, so they
    share the flows' :class:`ModuleFacts`; when ``probe_interp``, the
    elision probe runs on it too.  ``sections`` maps each probe section to
    this workload's entry.

    Serial runs call this in-process and pool workers call it in a child,
    each against a fresh :class:`Telemetry`, so merged counters are
    bit-identical whatever ``jobs`` is (identical additions in identical
    order).  The snapshot covers the compile and the flows; the probes
    run outside it.
    """
    name, ablate, probe_interp = task
    workload = get_workload(name)
    tele = Telemetry()
    started = time.perf_counter()
    with use_telemetry(tele):
        module = compile_source(workload.source, name)
    compile_seconds = time.perf_counter() - started
    ir_hash = module_ir_hash(module)
    key = cache_key(name, params, ir_hash)
    record = cache.get(key) if cache is not None else None
    snapshot = None
    if record is None:
        results, seconds = run_comparison(
            name, module, params, telemetry=tele
        )
        snapshot = tele.snapshot()
        record = _reduce(name, key, params, results, seconds, compile_seconds)
        if cache is not None:
            cache.put(record)
    sections: Dict[str, Dict] = {}
    if ablate:
        key = cache_key(name, None, ir_hash)
        ablation = cache.get_ablation(key) if cache is not None else None
        if ablation is None:
            ablation = ablation_sections(module)
            if cache is not None:
                cache.put_ablation(key, ablation)
        sections.update(ablation)
    if probe_interp:
        sections["interp_elision"] = elision_stats(module, workload.entry)
    return record, snapshot, sections


def _reduce(name: str, key: str, params: FlowParams, results: Dict,
            seconds: Dict, compile_seconds: float) -> WorkloadRecord:
    """One workload's flow ``results`` reduced to its record.  The cayman
    flow ran on a compiled module, so the task's compile replaces its
    empty compile stage."""
    cayman = results["cayman"]
    flows = {
        flow: {
            "speedups": {
                _budget_key(b): result.speedup_under_budget(b)
                for b in params.budgets
            },
            "pareto": [list(point) for point in result.pareto_points()],
        }
        for flow, result in results.items()
    }
    stage_seconds = dict(cayman.stage_seconds, compile=compile_seconds)
    for flow, flow_seconds in seconds.items():
        stage_seconds[f"flow_{flow}"] = flow_seconds
    return WorkloadRecord(
        name=name,
        suite=get_workload(name).suite,
        key=key,
        estimator_version=ESTIMATOR_VERSION,
        flows=flows,
        table2={
            _budget_key(b): budget_metrics(results, b) for b in params.budgets
        },
        selector_stats={
            flow: results[flow].selector.stats()
            for flow in ("cayman", "coupled_only")
        },
        stage_seconds=stage_seconds,
        runtime_seconds=(
            cayman.runtime_seconds - cayman.stage_seconds["compile"]
            + compile_seconds
        ),
    )


# The engine ---------------------------------------------------------------------


class EvaluationEngine:
    """Runs, caches, and parallelizes workload evaluations.

    ``table2``, ``fig6`` and ``repro bench`` all get their workload records
    from :meth:`evaluate`, so they share one cached execution path.
    """

    def __init__(
        self,
        params: Optional[FlowParams] = None,
        cache: Optional[BenchCache] = None,
    ):
        self.params = params or FlowParams()
        self.cache = cache
        self._records: Dict[str, WorkloadRecord] = {}
        self.hits = 0
        self.misses = 0
        self.hit_names: set = set()
        #: name → deterministic ``Telemetry.snapshot()`` of the workload's
        #: evaluation (absent for cache hits, which never execute the flows).
        self.telemetry_snapshots: Dict[str, Dict] = {}
        #: Probe section → workload → entry, for the probes that ran.
        self.sections: Dict[str, Dict[str, Dict]] = {}

    def evaluate(
        self,
        names: Sequence[str],
        jobs: int = 1,
        progress: Optional[Callable[[str, str], None]] = None,
        ablation_count: int = 0,
        interp_bench_count: int = 0,
    ) -> List[WorkloadRecord]:
        """Evaluate many workloads, one task each, fanned across a pool.

        The first ``ablation_count`` workloads also get the proof-ablation
        sections and the first ``interp_bench_count`` the elision probe,
        both kept in :attr:`sections`.  A workload whose record this engine
        already holds is served from memory unless it is probed; every
        other workload runs its task.  ``progress`` (if given) is called
        with ``(name, status)`` as each workload's record arrives: ``"hit"``
        when it was served from memory or disk, ``"done"`` when its flows
        ran.  Results come back in input order and are identical whether
        ``jobs`` is 1 or N.
        """
        records: Dict[str, WorkloadRecord] = {}
        tasks = []
        for index, name in enumerate(names):
            task = (name, index < ablation_count, index < interp_bench_count)
            if name in self._records and not any(task[1:]):
                records[name] = self._records[name]
                self._hit(name, progress)
            else:
                tasks.append(task)
        parallel = jobs > 1 and len(tasks) > 1
        with ProcessPoolExecutor(jobs) if parallel else nullcontext() as pool:
            run = pool.map if parallel else map
            outcomes = run(
                _evaluate, tasks, repeat(self.params), repeat(self.cache)
            )
            for (name, *_), (record, snapshot, sections) in zip(
                tasks, outcomes
            ):
                for section, entry in sections.items():
                    self.sections.setdefault(section, {})[name] = entry
                self._records[name] = records[name] = record
                if self.cache is not None:
                    self.cache.count(snapshot is None)
                if snapshot is None:
                    self._hit(name, progress)
                else:
                    self.misses += 1
                    self.telemetry_snapshots[name] = snapshot
                    if progress:
                        progress(name, "done")
        return [records[name] for name in names]

    def _hit(self, name: str, progress) -> None:
        self.hits += 1
        self.hit_names.add(name)
        if progress:
            progress(name, "hit")

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


def elision_stats(module: Module, entry: str) -> Dict:
    """Interpreter throughput on ``module``: bounds-check elision and
    engine comparison.

    Runs ``entry`` under the compiled engine twice — all accesses
    checked, then with statically proven accesses elided — and once more
    per engine (reference vs compiled, both elided) so the compile-once
    engine's gain is tracked per PR.  Compiled-engine timings exclude the
    one-time translation cost (``Interpreter.precompile``): the metric is
    steady-state execution throughput.  Wall-clock throughput is
    environment-dependent and never part of determinism comparisons; the
    instruction and elision counts are exact.
    """
    from ..interp.interpreter import Interpreter

    bounds = ModuleFacts.of(module).bounds

    def throughput(bounds_arg, engine="compiled"):
        interp = Interpreter(module, bounds=bounds_arg, engine=engine)
        interp.precompile()
        started = time.perf_counter()
        interp.run(entry)
        seconds = max(1e-9, time.perf_counter() - started)
        return interp.instructions / seconds, interp

    # Best of three alternating runs: single-shot timings on a busy host
    # are noisier than the few-percent effect being measured.
    baseline_rate = elided_rate = 0.0
    for _ in range(3):
        rate, _interp = throughput(None)
        baseline_rate = max(baseline_rate, rate)
        rate, elided = throughput(bounds)
        elided_rate = max(elided_rate, rate)
    # The reference engine is an order of magnitude slower; one run is
    # enough for the speedup headline and keeps full-suite probes fast.
    reference_rate, _interp = throughput(bounds, engine="reference")

    proven, total = bounds.module_coverage()
    return {
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


# Proof ablations ----------------------------------------------------------------
#
# Each ablation section prices its probed units with the estimator's own
# lowering, twice: by an ``AcceleratorModel`` holding every proof (after)
# and by one without the section's proof (before), so the difference is
# that proof's measured payoff.  Both sides lower one premise: each probed
# global-array group sits in its own scratchpad and every other access is
# decoupled.  A probed loop is a pipelined unit, unrolled by the section's
# factor; its row reads II, RecMII, depth (after), area (µm²) and latency
# at the interval-proven trip bound (nominal 100 when unproven) off both
# sides.  A basic block is a sequential unit.  Every field is an exact
# count or a deterministic area sum, so each section is compared whole by
# :func:`compare_reports`.


def _count(items, predicate: Callable) -> int:
    return sum(1 for item in items if predicate(item))


def _price(model: AcceleratorModel, ctx, unit, factor: int, partitions):
    """``(plan, result, area)`` of ``unit`` as ``model`` lowers it, or None
    without a datapath.  In the plan each access to a base in
    ``partitions`` sits in that base's scratchpad claiming that many
    banks, and every other access is decoupled."""
    blocks = unit.blocks if isinstance(unit, Loop) else [unit]
    plan = InterfacePlan()
    for info in ctx.access.accesses_in(blocks):
        spad = info.base in partitions
        plan.assign(InterfaceAssignment(
            info.inst,
            InterfaceKind.SCRATCHPAD if spad else InterfaceKind.DECOUPLED,
            spad_group=info.base if spad else None,
            partitions=partitions.get(info.base, 1),
        ))
    if isinstance(unit, Loop):
        model.prove_plan(plan, ctx, {unit: LoopPlan(unit, factor, True)})
        priced = model.pipelined_unit(
            unit, factor, factor, plan, plan.port_counts(), ctx
        )
    else:
        priced = model.sequential_unit(unit, plan, plan.port_counts(), ctx)
    return None if priced is None else (plan, *priced[1:])


def _port_accesses(plan: InterfacePlan) -> int:
    """Scratchpad accesses that take a port (not fed by a reuse tap)."""
    return sum(not a.reuse_buffered for a in plan.assignments.values()
               if a.kind is InterfaceKind.SCRATCHPAD)


def _by_loop(probes) -> Dict:
    """Each probed loop with its banking or reuse probes."""
    by_loop: Dict = {}
    for probe in probes:
        by_loop.setdefault(probe.loop, []).append(probe)
    return by_loop


def _narrowing_summary(rows: List[Dict], facts: ModuleFacts) -> Dict:
    """The blocks at type widths before and at the proven widths after.
    Narrowing only shrinks operator area (delay is width-invariant at or
    below 32 bits, see ``docs/bitwidth.md``), so both schedules should be
    equally long."""
    summaries = [
        facts.bitwidth.function_summary(func)
        for func in facts.module.defined_functions()
    ]
    type_area = round(sum(row["area_before"] for row in rows), 3)
    proven_area = round(sum(row["area_after"] for row in rows), 3)
    saving = (1.0 - proven_area / type_area) if type_area else 0.0
    latency_type = sum(row["latency_before"] for row in rows)
    latency_proven = sum(row["latency_after"] for row in rows)
    return {
        "int_ops": sum(int(s["int_ops"]) for s in summaries),
        "narrowed_ops": sum(int(s["narrowed_ops"]) for s in summaries),
        "type_area_um2": type_area,
        "proven_area_um2": proven_area,
        "saving_pct": round(100.0 * saving, 3),
        "latency_type": latency_type,
        "latency_proven": latency_proven,
        "latency_equal": latency_type == latency_proven,
    }


def _banking_premise(probes) -> Tuple[int, Dict]:
    """The loop's largest legal unroll factor ``U``, each group probed at
    it claiming ``U`` banks.  Before, every claimed bank is trusted as a
    parallel dual-ported bank; after, a group gets the banks of its
    cheapest conflict-free scheme, or serializes through one bank when
    none is provable."""
    factor = max(p.factor for p in probes)
    return factor, {p.base: factor for p in probes if p.factor == factor}


def _banking_fields(_ctx, _loop, probes, before, after) -> Dict:
    claimed = before[0].spad_groups()
    groups: List[Dict] = []
    for base, members in sorted(
        after[0].spad_groups().items(), key=lambda item: item[0].name
    ):
        proven = members[0].banking_proven
        groups.append({
            "base": base.name,
            "scheme": members[0].banking.label if proven else "serialized",
            "banks_claimed": max(a.partitions for a in claimed[base]),
            "banks_proven": max(a.proven_partitions for a in members),
        })
    return {"factor": max(p.factor for p in probes), "groups": groups}


def _banking_summary(rows: List[Dict], _facts) -> Dict:
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


def _reuse_fields(ctx, loop, probes, before, after) -> Dict:
    """Before, every group access takes a scratchpad port; after, each
    provably-reusing consumer is fed from a shift-register tap."""
    # Value names carry a process-global counter; label the loop's
    # accesses by textual position instead so the section is
    # bit-identical across runs (--compare-to).
    accesses = [
        inst for block in ctx.ordered_blocks(loop.blocks)
        for inst in block.instructions if isinstance(inst, (Load, Store))
    ]
    label = {
        inst: f"{'ld' if isinstance(inst, Load) else 'st'}{index}"
        for index, inst in enumerate(accesses)
    }
    plan = after[0]
    spads = plan.spad_groups()
    groups = []
    for probe in probes:
        verdict = probe.verdict
        groups.append({
            "base": verdict.base_name,
            "pairs": [
                dict(p.to_dict(), producer=label[p.producer.inst],
                     consumer=label[p.consumer.inst])
                for p in verdict.pairs
            ],
            "unknown": len(verdict.unknown),
            "broken": len(verdict.broken),
            "buffered": sorted(
                label[a.inst] for a in spads[probe.base] if a.reuse_buffered
            ),
        })
    return {
        "groups": groups,
        "port_accesses_before": _port_accesses(before[0]),
        "port_accesses_after": _port_accesses(plan),
        "register_bits": sum(
            depth * bits for depth, bits in plan.reuse_chains()
        ),
    }


def _reuse_summary(rows: List[Dict], _facts) -> Dict:
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

    #: The estimator proof the before side is priced without.
    proof: str
    #: ``FunctionContext`` → {unit: probes}: the probed loops or blocks.
    probe: Callable
    #: ``(rows, facts)`` → the section's own per-workload fields.
    summary: Callable
    #: Key counting the listed loops; None for block units, which are
    #: summed and not listed.
    loops: Optional[str] = "probed_loops"
    #: ``probes`` → ``(unroll factor, {base: claimed partitions})``.
    premise: Callable = lambda _probes: (1, {})
    #: ``(ctx, unit, probes, before, after)`` → extra per-unit fields; each
    #: side is the ``(plan, result, area)`` it priced.
    fields: Callable = lambda *_args: {}


#: The proof-ablation sections of a bench report, in report order.
ABLATIONS: Dict[str, _Ablation] = {
    "area_narrowing": _Ablation(
        "bitwidth", lambda ctx: dict.fromkeys(ctx.func.blocks),
        _narrowing_summary, loops=None,
    ),
    # Proven dependence distances against every recurrence at distance 1:
    # a recurrence of latency L at distance d only forces II ≥ ceil(L / d).
    "pipeline_ii": _Ablation(
        "dependence",
        lambda ctx: dict.fromkeys(
            loop for loop in ctx.loop_info.loops if loop.is_innermost
        ),
        lambda rows, _facts: {"improved_loops": _count(
            rows, lambda r: r["ii_after"] < r["ii_before"]
        )},
        loops="pipelined_loops",
    ),
    "spad_banking": _Ablation(
        "banking", lambda ctx: _by_loop(probe_banking(ctx)), _banking_summary,
        premise=_banking_premise, fields=_banking_fields,
    ),
    "reuse_buffers": _Ablation(
        "reuse", lambda ctx: _by_loop(probe_reuse(ctx)), _reuse_summary,
        premise=lambda probes: (1, {p.base: 1 for p in probes}),
        fields=_reuse_fields,
    ),
}
ABLATION_SECTIONS = tuple(ABLATIONS)


def _ablate(ablation: _Ablation, models, contexts) -> Dict:
    """One section's entry for the workload of ``contexts``, priced by the
    ``(before, after)`` ``models``."""
    rows: List[Dict] = []
    for ctx in contexts:
        for unit, probes in ablation.probe(ctx).items():
            factor, partitions = ablation.premise(probes)
            before, after = (
                _price(model, ctx, unit, factor, partitions)
                for model in models
            )
            if before is None:
                continue
            (_, first, first_area), (_, second, second_area) = before, after
            row = {
                "area_before": round(first_area.total, 3),
                "area_after": round(second_area.total, 3),
            }
            if isinstance(unit, Loop):
                trip = ctx.static_trip_bound(unit) or 100
                row.update(
                    function=ctx.func.name, loop=unit.name, trip=trip,
                    ii_before=first.ii, ii_after=second.ii, depth=second.depth,
                    rec_mii_before=first.rec_mii, rec_mii_after=second.rec_mii,
                    latency_before=round(first.latency(trip / factor), 3),
                    latency_after=round(second.latency(trip / factor), 3),
                )
            else:
                row.update(
                    latency_before=first.length, latency_after=second.length
                )
            row.update(ablation.fields(ctx, unit, probes, before, after))
            rows.append(row)
    facts = models[1].facts
    if ablation.loops is None:
        return ablation.summary(rows, facts)
    rows.sort(key=lambda row: (row["function"], row["loop"]))
    return {
        "loops": rows,
        ablation.loops: len(rows),
        **ablation.summary(rows, facts),
        **{
            f"{key}_total": round(sum(row[key] for row in rows), 3)
            for key in ("ii_before", "ii_after", "area_before", "area_after")
        },
    }


def ablation_sections(module: Module) -> Dict[str, Dict]:
    """Section → stats of one compiled module.  Every section shares the
    model that holds every proof, and every model shares the module's
    :class:`ModuleFacts`, so a module the flows have analysed is not
    analysed again."""
    full = AcceleratorModel(module, profile=None)
    contexts = [full.context(f) for f in module.defined_functions()]
    sections = {}
    for section, ablation in ABLATIONS.items():
        proofs = set(PROOFS) - {ablation.proof}
        ablated = AcceleratorModel(module, profile=None, proofs=proofs)
        sections[section] = _ablate(ablation, (ablated, full), contexts)
    return sections


# BENCH_<tag>.json reports -------------------------------------------------------


def build_report(
    records: Sequence[WorkloadRecord],
    engine: EvaluationEngine,
    tag: str,
    wall_seconds: float,
) -> Dict:
    """The machine-readable bench payload (see docs/benchmarking.md).

    It carries ``engine``'s probe sections that ran (``interp_elision``
    and the :data:`ABLATION_SECTIONS`), each by name; a probe that did
    not run is absent from the report."""
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
    payload.update(engine.sections)
    payload["telemetry"] = engine.telemetry_section([r.name for r in records])
    return payload


def write_report(payload: Dict, directory: str = ".") -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{payload['tag']}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict:
    """The report at ``path``; a ``ValueError`` unless it is JSON shaped
    like a report: an object whose ``workloads`` and compared sections
    are objects of objects."""
    with open(path) as handle:
        payload = json.load(handle)
    tables = [payload.get(section, {})
              for section in ("workloads", *_COMPARED_SECTIONS)
              ] if isinstance(payload, dict) else [None]
    if not all(isinstance(table, dict) and all(
            isinstance(entry, dict) for entry in table.values())
            for table in tables):
        raise ValueError("not a bench report (want an object whose "
                         "workloads and sections are objects of objects)")
    return payload


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
