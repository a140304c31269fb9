"""Cayman end-to-end driver (paper Fig. 1).

Pipeline: mini-C source (or IR module) → wPST construction → profiling and
program analysis → accelerator-model-driven candidate selection (Algorithm
1) → accelerator merging → Pareto-optimal solutions of merged accelerators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from .analysis.wpst import WPST
from .diagnostics import LintResult, run_lint
from .frontend.lowering import compile_source
from .hls.techlib import CVA6_TILE_AREA_UM2, DEFAULT_TECHLIB, TechLibrary
from .interp.profiler import RegionProfile, profile_module
from .ir import Module
from .merging.merge_driver import AcceleratorMerger, MergedSolution
from .model.estimator import AcceleratorModel
from .selection.knapsack import CandidateSelector
from .selection.pruning import PruneHeuristic
from .selection.solution import EMPTY_SOLUTION, Solution
from .telemetry import Telemetry, current as current_telemetry, use as use_telemetry

#: Pipeline stages of one :meth:`Cayman.run`, in execution order.  ``lint``
#: only appears when the driver runs with ``lint=True``.
PIPELINE_STAGES = ("compile", "profile", "analysis", "selection", "merging",
                   "lint")


@dataclass
class CaymanResult:
    """Everything produced by one Cayman run."""

    module: Module
    wpst: WPST
    profile: RegionProfile
    selector: CandidateSelector
    front: List[Solution]
    merged: List[MergedSolution]
    runtime_seconds: float = 0.0
    #: Lint findings over the compiled module (populated when the driver
    #: runs with ``lint=True``); ``None`` when linting was skipped.
    diagnostics: Optional["LintResult"] = None
    #: Wall time per pipeline stage (compile, profile, analysis, selection,
    #: merging, and lint when enabled), derived from the run's stage spans
    #: and feeding the bench harness's stage instrumentation.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: The telemetry context the run recorded into (the installed ambient
    #: context, or a run-local one when none was installed).
    telemetry: Optional["Telemetry"] = None

    @property
    def total_seconds(self) -> float:
        return self.profile.total_seconds

    def best_under_budget(self, budget_ratio: float) -> MergedSolution:
        """Best merged solution whose *merged* area fits the budget.

        ``budget_ratio`` is relative to the CVA6 tile area (paper §IV-A).
        """
        budget = budget_ratio * CVA6_TILE_AREA_UM2
        best: Optional[MergedSolution] = None
        for candidate in self.merged:
            if candidate.area_after > budget:
                continue
            if best is None or candidate.saved_seconds > best.saved_seconds:
                best = candidate
        if best is None:
            empty = EMPTY_SOLUTION
            best = MergedSolution(
                solution=empty, area_before=0.0, area_after=0.0, merge_steps=0
            )
        return best

    def speedup_under_budget(self, budget_ratio: float) -> float:
        return self.best_under_budget(budget_ratio).speedup(self.total_seconds)

    def pareto_points(self):
        """(area_ratio, speedup) Pareto series of the merged front (Fig. 6).

        Merging rescales areas, so the raw merged set can contain dominated
        points; they are pruned for presentation.
        """
        points = [
            (
                merged.area_after / CVA6_TILE_AREA_UM2,
                merged.speedup(self.total_seconds),
            )
            for merged in self.merged
        ]
        return _prune_dominated(points)


class Cayman:
    """The Cayman framework front door.

    Parameters mirror the paper's knobs: ``alpha`` is the front filter base,
    ``beta`` the scratchpad count/footprint threshold, ``prune_threshold``
    the hotspot cutoff, and ``coupled_only`` the Fig. 6 ablation that
    restricts every access to the coupled interface.

    A run has two halves.  The front half (compile, profile, wPST) depends
    only on the program.  The back half (model, selection, merging,
    optional lint) is where flows differ, through two per-flow hooks:
    :meth:`build_model` builds the model that prices each region, and
    :attr:`MIN_MATCH_FRACTION` sets how much of two units must match for
    the merger to share them.  The NOVIA and QsCores baselines
    (:mod:`repro.baselines`) override both; :meth:`run_back` runs a flow's
    back half on another run's front half.
    """

    #: Smallest fraction of the smaller unit's ops that must match for two
    #: units to share hardware (the merger's ``min_match_fraction``); 0
    #: lets any match merge.
    MIN_MATCH_FRACTION = 0.0

    def __init__(
        self,
        techlib: TechLibrary = DEFAULT_TECHLIB,
        alpha: float = 1.1,
        beta: float = 4.0,
        prune_threshold: float = 0.001,
        unroll_factors: Sequence[int] = (1, 2, 4, 8),
        coupled_only: bool = False,
        merging: bool = True,
        area_cap_ratio: float = 2.0,
        lint: bool = False,
        telemetry: Optional[Telemetry] = None,
    ):
        self.techlib = techlib
        self.alpha = alpha
        self.beta = beta
        self.prune_threshold = prune_threshold
        self.unroll_factors = tuple(unroll_factors)
        self.coupled_only = coupled_only
        self.merging = merging
        self.area_cap_ratio = area_cap_ratio
        self.lint = lint
        self.telemetry = telemetry

    def build_model(self, module: Module, profile: RegionProfile):
        """The model that prices this flow's candidate regions."""
        return AcceleratorModel(
            module,
            profile,
            techlib=self.techlib,
            beta=self.beta,
            unroll_factors=self.unroll_factors,
            coupled_only=self.coupled_only,
        )

    def run(
        self,
        program: Union[str, Module],
        entry: str = "main",
        args: Optional[List] = None,
        setup: Optional[Callable] = None,
        name: str = "app",
    ) -> CaymanResult:
        """Run the full flow on a mini-C source string or an IR module."""

        def front_half(stage):
            with stage("compile"):
                module = (
                    compile_source(program, name)
                    if isinstance(program, str) else program
                )
            with stage("profile"):
                profile = profile_module(
                    module, entry=entry, args=args, setup=setup
                )
            return module, profile, None

        return self._run(front_half, entry, name)

    def run_back(
        self,
        module: Module,
        profile: RegionProfile,
        wpst: WPST,
        name: str = "app",
    ) -> CaymanResult:
        """Run only the back half (model, selection, merging, optional
        lint) on another run's module, profile and wPST, which it reads and
        does not change."""
        return self._run(
            lambda stage: (module, profile, wpst), wpst.entry_function, name
        )

    def _run(self, front_half, entry: str, name: str) -> CaymanResult:
        """``front_half(stage)`` opens the front half's stages and returns
        ``(module, profile, wpst)``; a ``None`` wPST is built in the
        analysis stage."""
        tele = self.telemetry if self.telemetry is not None else current_telemetry()
        if not tele.enabled:
            # Stage spans are the source of ``stage_seconds``, so the run
            # always records into a real context — a run-local one when no
            # ambient telemetry is installed.
            tele = Telemetry()
        stage_spans: Dict[str, "object"] = {}

        def stage(stage_name: str):
            span = tele.span(f"stage:{stage_name}")
            stage_spans[stage_name] = span
            return span

        with use_telemetry(tele), tele.span(
            "cayman.run", workload=name, entry=entry,
            coupled_only=self.coupled_only,
        ) as root:
            started = time.perf_counter()
            module, profile, wpst = front_half(stage)
            with stage("analysis"):
                if wpst is None:
                    wpst = WPST(module, entry_function=entry)
                model = self.build_model(module, profile)
            with stage("selection"):
                selector = CandidateSelector(
                    wpst,
                    model,
                    prune=PruneHeuristic(profile, self.prune_threshold),
                    alpha=self.alpha,
                    area_cap=self.area_cap_ratio * CVA6_TILE_AREA_UM2,
                )
                front = selector.run()
            with stage("merging") as merging_span:
                merger = AcceleratorMerger(
                    self.techlib, min_match_fraction=self.MIN_MATCH_FRACTION
                )
                merged: List[MergedSolution] = []
                for solution in front:
                    if solution.is_empty:
                        continue
                    if self.merging:
                        merged.append(merger.merge(solution))
                    else:
                        merged.append(
                            MergedSolution(
                                solution=solution,
                                area_before=solution.area,
                                area_after=solution.area,
                                merge_steps=0,
                            )
                        )
                merging_span.set("solutions", len(merged))
            diagnostics: Optional[LintResult] = None
            if self.lint:
                with stage("lint") as lint_span:
                    diagnostics = run_lint(
                        module, profile=profile, wpst=wpst, model=model
                    )
                    lint_span.set("findings", len(diagnostics.diagnostics))
            runtime_seconds = time.perf_counter() - started
            root.set("front_size", len(front))

        stage_seconds = {
            stage_name: span.duration_s
            for stage_name, span in stage_spans.items()
        }
        # The stages are contiguous and cover the whole run, so their sum
        # must account for (almost) all of the runtime — anything else means
        # a stage was dropped from the accounting (the pre-telemetry code
        # lost the lint stage exactly this way).
        accounted = sum(stage_seconds.values())
        assert runtime_seconds + 1e-9 >= accounted, (
            f"stage times exceed runtime: {accounted} > {runtime_seconds}"
        )
        assert runtime_seconds - accounted <= max(0.05, 0.1 * runtime_seconds), (
            f"unattributed stage time: stages sum to {accounted:.6f}s "
            f"of {runtime_seconds:.6f}s"
        )
        return CaymanResult(
            module=module,
            wpst=wpst,
            profile=profile,
            selector=selector,
            front=front,
            merged=merged,
            runtime_seconds=runtime_seconds,
            diagnostics=diagnostics,
            stage_seconds=stage_seconds,
            telemetry=tele,
        )

def _prune_dominated(points):
    """Keep the Pareto-optimal (area, speedup) points, sorted by area."""
    best = []
    top = float("-inf")
    for area, speedup in sorted(points):
        if speedup > top:
            best.append((area, speedup))
            top = speedup
    return best
