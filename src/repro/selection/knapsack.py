"""Algorithm 1: dynamic-programming candidate selection over the wPST.

Selection is a tree knapsack: every region vertex is an item whose profit and
weight come from the accelerator model; selecting a vertex excludes all of
its descendants (kernels must not overlap).  For each vertex ``v`` the DP
computes ``F[v]``, the Pareto front of solutions accelerating kernels from
``v``'s subtree:

* ``bb`` vertex:        F[v] = filter(pareto(accel(v, R)))
* ``ctrl-flow`` vertex: F[v] = filter(pareto(accel(v, R) ∪ ⊗_u F[u]))
* other vertices:       F[v] = filter(⊗_u F[u])

where ``⊗`` combines fronts from sibling subtrees by pairwise union and
``filter(α)`` keeps fronts geometrically spaced (≤ log_α A entries).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.wpst import WPST, WPSTNode
from ..model.estimator import AcceleratorModel
from ..telemetry import current as current_telemetry
from .pruning import PruneHeuristic
from .solution import (
    EMPTY_SOLUTION,
    Solution,
    combine,
    filter_front,
    pareto,
)


class CandidateSelector:
    """Runs Algorithm 1 and exposes the resulting Pareto front."""

    def __init__(
        self,
        wpst: WPST,
        model: AcceleratorModel,
        prune: Optional[PruneHeuristic] = None,
        alpha: float = 1.1,
        area_cap: Optional[float] = None,
    ):
        if alpha <= 1.0:
            raise ValueError("filter alpha must be > 1")
        self.wpst = wpst
        self.model = model
        self.prune = prune
        self.alpha = alpha
        self.area_cap = area_cap
        self.fronts: Dict[WPSTNode, List[Solution]] = {}
        self.evaluated_vertices = 0
        self.pruned_vertices = 0

    def stats(self) -> Dict[str, int]:
        """Search-space accounting of one Algorithm 1 run."""
        return {
            "evaluated_vertices": self.evaluated_vertices,
            "pruned_vertices": self.pruned_vertices,
        }

    # Public API -----------------------------------------------------------------

    def run(self) -> List[Solution]:
        """Execute the DP from the root; returns F[root]."""
        if self.wpst.root in self.fronts:
            return self.fronts[self.wpst.root]
        tele = current_telemetry()
        with tele.span("selection.dp") as span:
            front = self._dp(self.wpst.root)
            if tele.enabled:
                span.set("front_size", len(front))
                tele.count(
                    "selection.vertices_evaluated", self.evaluated_vertices
                )
                tele.count("selection.vertices_pruned", self.pruned_vertices)
        return front

    def best_under_budget(self, area_budget: float) -> Solution:
        """Highest-gain solution within the budget (empty if none fits)."""
        front = self.fronts.get(self.wpst.root) or self.run()
        best = EMPTY_SOLUTION
        for solution in front:
            if solution.area <= area_budget and (
                solution.saved_seconds > best.saved_seconds
            ):
                best = solution
        return best

    # The DP -----------------------------------------------------------------------

    def _dp(self, vertex: WPSTNode) -> List[Solution]:
        if vertex in self.fronts:
            return self.fronts[vertex]
        if self.prune is not None and self.prune.prune(vertex):
            self.pruned_vertices += 1
            front = [EMPTY_SOLUTION]
            self.fronts[vertex] = front
            return front
        self.evaluated_vertices += 1

        if vertex.kind == "bb":
            front = self._filter(pareto(self._accel_solutions(vertex)))
        else:
            front = [EMPTY_SOLUTION]
            for child in vertex.children:
                child_front = self._dp(child)
                front = self._filter(
                    combine(front, child_front, area_cap=self.area_cap)
                )
            if vertex.kind == "ctrl-flow":
                front = self._filter(
                    pareto(list(front) + self._accel_solutions(vertex))
                )
        self.fronts[vertex] = front
        return front

    def _accel_solutions(self, vertex: WPSTNode) -> List[Solution]:
        solutions = [EMPTY_SOLUTION]
        for estimate in self.model.candidates(vertex):
            if self.area_cap is not None and estimate.area > self.area_cap:
                continue
            solutions.append(Solution((estimate,)))
        return solutions

    def _filter(self, front: List[Solution]) -> List[Solution]:
        return filter_front(front, self.alpha)


def select_candidates(
    wpst: WPST,
    model: AcceleratorModel,
    profile=None,
    alpha: float = 1.1,
    prune_threshold: float = 0.001,
    area_cap: Optional[float] = None,
) -> CandidateSelector:
    """Convenience constructor: build the pruner and run Algorithm 1."""
    prune = (
        PruneHeuristic(profile, prune_threshold) if profile is not None else None
    )
    selector = CandidateSelector(
        wpst, model, prune=prune, alpha=alpha, area_cap=area_cap
    )
    selector.run()
    return selector
