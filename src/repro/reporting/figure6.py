"""Fig. 6 regeneration: speedup-vs-area Pareto fronts for NOVIA, QsCores,
coupled-only Cayman, and full Cayman on benchmarks from different suites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .bench import EvaluationEngine, WorkloadRecord
from .formats import render_series

#: One benchmark per suite, as in the paper's figure.
DEFAULT_FIG6_BENCHMARKS = ("3mm", "fft", "epic", "loops-all-mid-10k-sp")

Point = Tuple[float, float]  # (area ratio to CVA6, speedup)


@dataclass
class Figure6Series:
    """All four Pareto series for one benchmark."""

    benchmark: str
    novia: List[Point]
    qscores: List[Point]
    coupled_only: List[Point]
    cayman: List[Point]

    def as_dict(self) -> Dict[str, List[Point]]:
        return {
            "novia": self.novia,
            "qscores": self.qscores,
            "coupled_only": self.coupled_only,
            "cayman": self.cayman,
        }


def series_from_record(record: WorkloadRecord) -> Figure6Series:
    """Fig. 6 series from a (possibly cache-loaded) bench record."""

    def points(flow: str) -> List[Point]:
        return [tuple(point) for point in record.flows[flow]["pareto"]]

    return Figure6Series(
        benchmark=record.name,
        novia=points("novia"),
        qscores=points("qscores"),
        coupled_only=points("coupled_only"),
        cayman=points("cayman"),
    )


def generate_figure6(
    benchmarks: Sequence[str] = DEFAULT_FIG6_BENCHMARKS,
    engine: Optional[EvaluationEngine] = None,
    jobs: int = 1,
) -> List[Figure6Series]:
    """Fig. 6 series of ``benchmarks``, built from ``engine``'s records."""
    engine = engine or EvaluationEngine()
    records = engine.evaluate(benchmarks, jobs=jobs)
    return [series_from_record(record) for record in records]


def render_figure6(series: Sequence[Figure6Series]) -> str:
    lines: List[str] = []
    for item in series:
        lines.append(f"== {item.benchmark} ==")
        for name, points in item.as_dict().items():
            lines.extend(render_series(name, points))
        lines.append("")
    return "\n".join(lines)


def dominance_check(series: Figure6Series) -> Dict[str, bool]:
    """Shape assertions the paper's figure supports.

    * Cayman's best point beats every baseline's best point.
    * NOVIA stays in the low-area corner (its largest solution is smaller
      than Cayman's largest).
    """
    def best(points: List[Point]) -> float:
        return max((s for _, s in points), default=1.0)

    def max_area(points: List[Point]) -> float:
        return max((a for a, _ in points), default=0.0)

    return {
        "cayman_beats_novia": best(series.cayman) >= best(series.novia),
        "cayman_beats_qscores": best(series.cayman) >= best(series.qscores),
        "cayman_beats_coupled_only": best(series.cayman)
        >= best(series.coupled_only),
        "novia_low_area": max_area(series.novia) <= max(
            max_area(series.cayman), 1e-9
        ),
    }
