"""The lint engine: runs registered rules over a compiled application.

:class:`LintContext` carries the module plus lazily-built (and test
pre-seedable) per-function analyses; :func:`run_lint` evaluates every
applicable rule and aggregates the findings into a
:class:`~repro.diagnostics.core.LintResult`.

Layer dispatch:

* ``ir`` rules always run;
* ``analysis`` rules run when their declared ``requires`` (``profile``,
  ``wpst``) are satisfied by the inputs;
* ``config`` rules run when an :class:`~repro.model.estimator.AcceleratorModel`
  and a wPST are supplied — every configuration the model would generate
  for every region vertex is checked;
* ``merge`` rules run pairwise over datapath units and are invoked from
  the merge driver, not from :func:`run_lint`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..analysis.access_patterns import AccessPatternAnalysis
from ..analysis.callgraph import CallGraph
from ..analysis.facts import ModuleFacts
from ..analysis.loops import LoopInfo
from ..analysis.memdep import MemoryDependenceAnalysis
from ..dataflow import (
    BoundsAnalysis,
    ModuleBitwidthAnalysis,
    ModuleIntervalAnalysis,
    PointsToAnalysis,
)
from ..ir import Function, Module
from .core import LintResult
from .registry import Rule, all_rules


class LintContext:
    """Module plus per-function analyses shared by the rule checkers.

    Analyses come from the module's shared facts
    (:class:`~repro.analysis.facts.ModuleFacts`), so lint reads the very
    intervals, points-to, bounds, bitwidth and per-function contexts the
    model prices.  The per-function analyses are fetched lazily into plain
    dicts so tests can pre-seed them with stubs (e.g. an access analysis
    that deliberately misclassifies a stream) to exercise the consistency
    rules; a test that stubs the access analysis of a rule reading the
    dependence analysis seeds ``_memdep`` too.
    """

    def __init__(self, module: Module, profile=None, wpst=None):
        self.module = module
        self.profile = profile
        self.wpst = wpst
        self._facts: Optional[ModuleFacts] = None
        self._access: Dict[Function, AccessPatternAnalysis] = {}
        self._memdep: Dict[Function, MemoryDependenceAnalysis] = {}
        self._callgraph: Optional[CallGraph] = None

    @property
    def facts(self) -> ModuleFacts:
        if self._facts is None:
            self._facts = ModuleFacts.of(self.module)
        return self._facts

    def access(self, func: Function) -> AccessPatternAnalysis:
        if func not in self._access:
            self._access[func] = self.facts.context(func).access
        return self._access[func]

    def memdep(self, func: Function) -> MemoryDependenceAnalysis:
        if func not in self._memdep:
            self._memdep[func] = self.facts.context(func).memdep
        return self._memdep[func]

    def loop_info(self, func: Function) -> LoopInfo:
        return LoopInfo.of(func)

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph(self.module)
        return self._callgraph

    @property
    def intervals(self) -> ModuleIntervalAnalysis:
        return self.facts.intervals

    @property
    def pointsto(self) -> PointsToAnalysis:
        return self.facts.points_to

    @property
    def bounds(self) -> BoundsAnalysis:
        return self.facts.bounds

    @property
    def bitwidth(self) -> ModuleBitwidthAnalysis:
        return self.facts.bitwidth

    @property
    def available_inputs(self) -> frozenset:
        inputs = set()
        if self.profile is not None:
            inputs.add("profile")
        if self.wpst is not None:
            inputs.add("wpst")
        return frozenset(inputs)


def _applicable(entry: Rule, ctx: LintContext) -> bool:
    return entry.requires <= ctx.available_inputs


def run_lint(
    module: Module,
    profile=None,
    wpst=None,
    model=None,
    rules: Optional[Iterable[str]] = None,
    context: Optional[LintContext] = None,
) -> LintResult:
    """Run the diagnostics engine over ``module``.

    ``rules`` optionally restricts the run to a set of rule codes.
    ``model`` (an :class:`AcceleratorModel`) enables the config layer: the
    engine replays the model's configuration generation for every wPST
    region vertex and checks each configuration for legality.  ``context``
    lets callers (mainly tests) supply a pre-seeded :class:`LintContext`.
    """
    ctx = context if context is not None else LintContext(
        module, profile=profile, wpst=wpst
    )
    wanted = set(rules) if rules is not None else None
    result = LintResult()

    selected: List[Rule] = []
    for entry in all_rules():
        if wanted is not None and entry.code not in wanted:
            continue
        selected.append(entry)

    for entry in selected:
        if entry.layer not in ("ir", "analysis"):
            continue
        if not _applicable(entry, ctx):
            continue
        result.extend(entry.checker(ctx))
        result.checked_rules.append(entry.code)

    config_rules = [e for e in selected if e.layer == "config"]
    if model is not None and ctx.wpst is not None and config_rules:
        for code in sorted(e.code for e in config_rules):
            result.checked_rules.append(code)
        seen_diags = set()
        for node in ctx.wpst.region_vertices():
            region = node.region
            if region is None or not model.is_candidate_region(region):
                continue
            for config in model.generate_configs(region):
                for entry in config_rules:
                    for diag in entry.checker(config, model):
                        # Different configs of one region repeat the same
                        # finding; report each distinct finding once.
                        if diag not in seen_diags:
                            seen_diags.add(diag)
                            result.diagnostics.append(diag)

    return result
