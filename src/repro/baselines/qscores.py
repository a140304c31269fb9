"""QsCores-style off-core accelerator synthesis baseline [23].

QsCores (quasi-specific cores) automatically extracts hot program regions
into off-core accelerators, but — as characterized in the paper's Table I —

* synthesizes only **sequential** control logic (no loop pipelining or
  unrolling), and
* moves data through a **scan-chain interface** with high latency and low
  bandwidth ([22], [23]),
* shares hardware only among **almost identical** regions.

The baseline reuses Cayman's wPST + DP selection machinery with a model
restricted accordingly, which is generous to QsCores (its published
selection is greedier) and therefore a conservative comparison.
"""

from __future__ import annotations

from ..framework import Cayman
from ..hls.techlib import DEFAULT_TECHLIB, TechLibrary
from ..model.estimator import AcceleratorModel


class QsCoresModel(AcceleratorModel):
    """Accelerator model restricted to QsCores' capabilities."""

    INTERFACE_MODES = ("scanchain",)

    def __init__(self, module, profile, techlib=DEFAULT_TECHLIB, **kwargs):
        kwargs.setdefault("unroll_factors", (1,))
        kwargs.setdefault("pipeline_innermost", False)
        super().__init__(module, profile, techlib=techlib, **kwargs)


class QsCores(Cayman):
    """QsCores baseline flow: Cayman's pipeline with the restricted model."""

    #: Only regions whose datapaths are ≥90% identical may share hardware.
    MIN_MATCH_FRACTION = 0.9

    def __init__(
        self,
        techlib: TechLibrary = DEFAULT_TECHLIB,
        alpha: float = 1.1,
        prune_threshold: float = 0.001,
        area_cap_ratio: float = 2.0,
    ):
        super().__init__(techlib, alpha=alpha, prune_threshold=prune_threshold,
                         area_cap_ratio=area_cap_ratio)

    def build_model(self, module, profile) -> QsCoresModel:
        return QsCoresModel(module, profile, techlib=self.techlib)
