"""What one program of each workload runs, and the checks on its outputs.

Every call into ``repro`` goes through a module attribute looked up at
call time (``repro.compile_source``, ``repro.diagnostics.run_lint``, ...)
so that the tracer's wrappers, installed at those attributes, see it.
Checks return a list of failure messages; an empty list means the
program's outputs are correct.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import repro
import repro.diagnostics
import repro.interp.sanitizer
import repro.model
from repro.ir.types import sizeof

#: Area budgets of Table II, as shares of the CVA6 tile area.
BUDGETS = (0.25, 0.65)


@dataclass
class FlowOutcome:
    """The parts of one ``Cayman().run`` the benchmark reports and checks."""

    #: ``(area_after, saved_seconds)`` per merged solution, in front order.
    digest: Tuple[Tuple[float, float], ...]
    speedup_b25: float
    speedup_b65: float
    #: Merged-area saving of the 65%-budget solution, in percent.
    saving_pct_b65: float
    front_len: int
    failures: List[str] = field(default_factory=list)


def run_flow(workload) -> object:
    """The full Cayman flow with default knobs."""
    return repro.Cayman().run(
        workload.source, entry=workload.entry, name=workload.name
    )


def check_flow(result) -> List[str]:
    """Output checks on one flow result (a :class:`repro.CaymanResult`)."""
    failures: List[str] = []
    front = result.front
    for before, after in zip(front, front[1:]):
        if not (before.area < after.area
                and before.saved_seconds < after.saved_seconds):
            failures.append(
                "front not ordered by area with rising saved time: "
                f"({before.area}, {before.saved_seconds}) then "
                f"({after.area}, {after.saved_seconds})"
            )
            break
    unmerged = [solution for solution in front if not solution.is_empty]
    if len(unmerged) != len(result.merged):
        failures.append(
            f"{len(result.merged)} merged solutions for "
            f"{len(unmerged)} non-empty front solutions"
        )
    for solution, merged in zip(unmerged, result.merged):
        if merged.area_after > merged.area_before:
            failures.append(
                f"merged area {merged.area_after} above unmerged "
                f"{merged.area_before}"
            )
        if merged.saved_seconds != solution.saved_seconds:
            failures.append(
                f"merged saved time {merged.saved_seconds} differs from "
                f"unmerged {solution.saved_seconds}"
            )
    total = result.total_seconds
    speedups = [result.speedup_under_budget(budget) for budget in BUDGETS]
    speedups += [merged.speedup(total) for merged in result.merged]
    low = [value for value in speedups if not value >= 1.0]
    if low:
        failures.append(f"speedup below 1: {low[0]}")
    return failures


def flow_outcome(result) -> FlowOutcome:
    best = result.best_under_budget(BUDGETS[1])
    return FlowOutcome(
        digest=tuple(
            (merged.area_after, merged.saved_seconds)
            for merged in result.merged
        ),
        speedup_b25=result.speedup_under_budget(BUDGETS[0]),
        speedup_b65=result.speedup_under_budget(BUDGETS[1]),
        saving_pct_b65=best.saving_pct,
        front_len=len(result.front),
        failures=check_flow(result),
    )


@dataclass
class VerifyOutcome:
    """The parts of one verify-path run the benchmark reports and checks."""

    lint_exit: int
    findings: int
    violations: List[str]
    returned: object
    #: Bytes of each ``Workload.outputs`` global after the sanitized run.
    outputs: Dict[str, bytes]

    @property
    def digest(self) -> Tuple:
        hashed = hashlib.sha256()
        for name in sorted(self.outputs):
            hashed.update(name.encode())
            hashed.update(self.outputs[name])
        return (self.lint_exit, self.findings, len(self.violations),
                self.returned, hashed.hexdigest())


def _read_outputs(interp, module, names) -> Dict[str, bytes]:
    outputs = {}
    for name in names:
        size = sizeof(module.get_global(name).allocated_type)
        address = interp.address_of_global(name)
        outputs[name] = bytes(interp.memory.data[address:address + size])
    return outputs


def run_verify(workload) -> VerifyOutcome:
    """Compile, profile, lint with the model's config layer, and execute
    under the sanitizer with every claim checked (no selection, no
    merging)."""
    module = repro.compile_source(workload.source, workload.name)
    profile = repro.profile_module(module, entry=workload.entry)
    wpst = repro.WPST(module, entry_function=workload.entry)
    model = repro.model.AcceleratorModel(module, profile)
    lint = repro.diagnostics.run_lint(
        module, profile=profile, wpst=wpst, model=model
    )
    sanitizer = repro.interp.sanitizer.SanitizingInterpreter(
        module, fail_fast=False
    )
    returned = sanitizer.run(workload.entry)
    return VerifyOutcome(
        lint_exit=lint.exit_code(),
        findings=len(lint.diagnostics),
        violations=list(sanitizer.violations),
        returned=returned,
        outputs=_read_outputs(sanitizer, module, workload.outputs),
    )


def reference_run(workload) -> Tuple[object, Dict[str, bytes]]:
    """Return value and output globals from the reference interpreter, on
    a module compiled afresh."""
    module = repro.compile_source(workload.source, workload.name)
    interp = repro.Interpreter(module, engine="reference")
    returned = interp.run(workload.entry)
    return returned, _read_outputs(interp, module, workload.outputs)


def check_verify(outcome: VerifyOutcome,
                 reference: Tuple[object, Dict[str, bytes]]) -> List[str]:
    """Output checks on one verify run; ``reference`` is
    :func:`reference_run`'s result for the same program."""
    failures: List[str] = []
    if outcome.violations:
        failures.append(
            f"{len(outcome.violations)} sanitizer violations, first: "
            f"{outcome.violations[0]}"
        )
    if outcome.lint_exit != 0:
        failures.append(f"lint exit code {outcome.lint_exit}")
    returned, outputs = reference
    if outcome.returned != returned:
        failures.append(f"returned {outcome.returned!r}, reference {returned!r}")
    for name, expected in outputs.items():
        if outcome.outputs.get(name) != expected:
            failures.append(f"output {name} differs from the reference")
    return failures
