"""Reimplemented state-of-the-art baselines: NOVIA [21] and QsCores [23]."""

from .novia import Novia, NoviaModel, compute_subdfg
from .qscores import QsCores, QsCoresModel

__all__ = [
    "Novia", "NoviaModel", "compute_subdfg",
    "QsCores", "QsCoresModel",
]
