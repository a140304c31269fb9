"""Program pools of the three workloads and the seeded draw over them.

Each pool entry carries the share that admitted the program, measured on
the seed commit (2-core x86 container, Python 3.11, one process, stage
spans of ``Cayman.run`` or the verify path's own timers):

* ``merge-heavy``: share of ``Cayman.run`` spent in the merging stage;
  admitted at >= 40%.
* ``select-heavy``: the same merging share; admitted for a low merging
  share and a dominant estimator DP (selection stage 54-84%).
* ``verify``: share of the verify path spent in the interpreter
  (profiling plus the sanitized run); admitted at >= 50% and >= 100k
  sanitized instructions.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List

MERGE_HEAVY: Dict[str, float] = {
    "cjpeg": 0.74,
    "cjpeg-rose7-preset": 0.70,
    "epic": 0.69,
    "deriche": 0.53,
    "linear-alg-mid-100x100-sp": 0.56,
    "loops-all-mid-10k-sp": 0.50,
    "gramschmidt": 0.50,
    "doitgen": 0.54,
    "atax": 0.53,
    "3mm": 0.50,
    "bicg": 0.47,
}

SELECT_HEAVY: Dict[str, float] = {
    "parser-125k": 0.01,
    "zip-test": 0.10,
    "fft": 0.10,
    "md": 0.22,
    "nw": 0.20,
    "trisolv": 0.11,
    "spmv": 0.31,
    "floyd-warshall": 0.09,
    "seidel-1d": 0.17,
    "wave-lag": 0.07,
    "conv-dilated": 0.31,
    "iir-interleaved": 0.13,
    "fwd-store-load": 0.04,
    "reuse-breaker": 0.03,
    "smooth-alias": 0.04,
    "bitwidth-adversary": 0.00,
}

VERIFY: Dict[str, float] = {
    "cjpeg-rose7-preset": 0.79,
    "cjpeg": 0.79,
    "nnet-test": 0.88,
    "parser-125k": 0.78,
    "zip-test": 0.75,
    "epic": 0.84,
    "jacobi-2d": 0.82,
    "loops-all-mid-10k-sp": 0.70,
    "3mm": 0.76,
    "doitgen": 0.77,
    "floyd-warshall": 0.83,
}

POOLS: Dict[str, Dict[str, float]] = {
    "merge-heavy": MERGE_HEAVY,
    "select-heavy": SELECT_HEAVY,
    "verify": VERIFY,
}


class PoolError(ValueError):
    """A pool names a program the registry does not have."""


def resolve_pool(workload: str, registered: Iterable[str]) -> List[str]:
    """The pool's program names, each checked against the registry.

    Raises :class:`PoolError` instead of running a smaller pool when any
    name is unknown.
    """
    pool = list(POOLS[workload])
    known = set(registered)
    missing = [name for name in pool if name not in known]
    if missing:
        raise PoolError(
            f"pool {workload!r} names unregistered programs: "
            + ", ".join(missing)
        )
    return pool


def draw(pool: List[str], rng: random.Random) -> List[str]:
    """One seeded draw of the whole pool without replacement.

    Every pass runs the full pool so that ``wall_s`` does not depend on
    the seed; the seed sets the order in which the programs run.
    """
    return rng.sample(pool, len(pool))
