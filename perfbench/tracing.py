"""Spans around the calls into each ``repro`` layer, recorded from outside.

The tracer swaps a timing wrapper in at the module attribute (or class
attribute, for methods) that each caller resolves, for the traced pass
only, and puts the original back afterwards; the untraced passes run the
unmodified code.  A span records its name, start, end, parent and the
program it ran for.  A span's self time is its duration minus the
durations of its direct children: calls are synchronous and single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, attribute path, span name)`` per traced call site.  Two
#: entries share a span name where two callers resolve the same function
#: through different modules (the flow through ``repro.framework``, the
#: verify path through the ``repro`` package).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro", "compile_source", "frontend.compile_source"),
    ("repro.framework", "compile_source", "frontend.compile_source"),
    ("repro.opt", "optimize_module", "opt.optimize_module"),
    ("repro", "profile_module", "interp.profile_module"),
    ("repro.framework", "profile_module", "interp.profile_module"),
    ("repro.interp.sanitizer", "SanitizingInterpreter.__init__",
     "interp.sanitize"),
    ("repro.interp.sanitizer", "SanitizingInterpreter.run", "interp.sanitize"),
    ("repro.analysis.wpst", "WPST.__init__", "analysis.wpst"),
    ("repro.analysis.banking", "BankingAnalysis.verdict",
     "analysis.banking_probe"),
    ("repro.analysis.reuse", "ReuseAnalysis.verdict", "analysis.reuse_probe"),
    ("repro.dataflow.interval", "IntervalAnalysis.__init__",
     "dataflow.intervals"),
    ("repro.dataflow.bitwidth", "BitwidthAnalysis.__init__",
     "dataflow.bitwidth"),
    ("repro.dataflow.pointsto", "PointsToAnalysis.__init__",
     "dataflow.pointsto"),
    ("repro.dataflow.bounds", "BoundsAnalysis.__init__", "dataflow.bounds"),
    ("repro.model.estimator", "AcceleratorModel.candidates",
     "model.candidates"),
    ("repro.model.estimator", "AcceleratorModel.context", "model.context"),
    ("repro.model.estimator", "AcceleratorModel.estimate", "model.estimate"),
    ("repro.model.estimator", "pipeline_loop", "hls.pipeline_loop"),
    ("repro.model.estimator", "schedule_dfg", "hls.schedule_dfg"),
    ("repro.hls.pipeline", "schedule_dfg", "hls.schedule_dfg"),
    ("repro.selection.knapsack", "CandidateSelector.run", "selection.run"),
    ("repro.merging.merge_driver", "AcceleratorMerger.merge", "merging.merge"),
    ("repro.merging.merge_driver", "estimate_pair_saving",
     "merging.estimate_pair_saving"),
    ("repro.merging.dfg_merge", "match_units", "merging.match_units"),
    ("repro.diagnostics", "run_lint", "diagnostics.run_lint"),
)

#: Span name of the benchmark's own per-program root span; its self time is
#: the part of a program's run no layer span covers.
PROGRAM_SPAN = "program"


class PairRepeats:
    """Counts calls on a ``(dfg_a, dfg_b)`` pair already seen in the same
    program.  Pairs are compared by identity, and references are held so
    that no id is reused while the program runs."""

    def __init__(self):
        self.calls = 0
        self.repeats = 0
        self._seen: Dict[Tuple[int, int], Tuple[object, object]] = {}

    def reset(self) -> None:
        self._seen.clear()

    def __call__(self, dfg_a, dfg_b, *args, **kwargs) -> None:
        self.calls += 1
        key = (id(dfg_a), id(dfg_b))
        if key in self._seen:
            self.repeats += 1
        else:
            self._seen[key] = (dfg_a, dfg_b)


class Tracer:
    """Records spans in memory; :meth:`installed` patches the targets.

    Spans are kept as parallel lists of plain values rather than one
    object per span, so that hundreds of thousands of spans add nothing
    for the garbage collector to traverse.
    """

    def __init__(self):
        #: Per span, in start order: name, program, parent index (-1 for a
        #: root), start and end (``time.perf_counter`` seconds).
        self.names: List[str] = []
        self.programs: List[Optional[str]] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.match_repeats = PairRepeats()
        self._stack: List[int] = []
        self._program: Optional[str] = None

    # Recording ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.programs.append(self._program)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                if observe is not None:
                    observe(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def run_program(self, program: str, fn: Callable, *args):
        """Run ``fn(*args)`` as one program under a root span."""
        self._program = program
        index = self._open(PROGRAM_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._program = None
            self.match_repeats.reset()

    # Patching -----------------------------------------------------------------

    def installed(self):
        """Context manager: every target wrapped inside the block."""
        return _Installed(self)

    # Results ------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time per span, in start order."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        selfs = list(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                selfs[parent] -= duration
        return selfs

    def summary(self) -> Dict[str, Dict[str, Tuple[int, float]]]:
        """``program -> name -> (calls, total self seconds)``."""
        totals: Dict[str, Dict[str, List]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0]))
        for name, program, self_s in zip(self.names, self.programs,
                                         self.self_times()):
            entry = totals[program][name]
            entry[0] += 1
            entry[1] += self_s
        return {
            program: {name: tuple(entry) for name, entry in names.items()}
            for program, names in totals.items()
        }


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class _Installed:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        #: ``(owner, attribute, original or None)``; None marks a method
        #: the class inherits, whose override is deleted on exit.
        self._saved: List[Tuple[object, str, Optional[Callable]]] = []

    def __enter__(self) -> Tracer:
        try:
            for module_name, path, name in TARGETS:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                inherited = isinstance(owner, type) and attr not in vars(owner)
                self._saved.append(
                    (owner, attr, None if inherited else original))
                observe = (self._tracer.match_repeats
                           if name == "merging.match_units" else None)
                setattr(owner, attr, self._tracer.wrap(name, original, observe))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        # Undo in reverse, so a name wrapped twice gets its first original.
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
