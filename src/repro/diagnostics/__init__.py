"""Cayman Lint: rule-based static diagnostics for IR, wPST/analyses, and
accelerator configurations.

The engine complements the structural IR verifier with semantic checks at
three layers of the flow (paper §III-B/III-C/III-E):

* **IR rules** (``IR0xx``) flag well-formed but meaningless or unsupported
  IR — unreachable blocks, dead stores, undef reads, statically
  out-of-bounds constant indices, effect-free infinite loops, recursion;
* **analysis rules** (``AN0xx``) cross-check the wPST, profile, and
  memory analyses feeding candidate selection;
* **config/merge rules** (``CF0xx``) re-check the legality of every
  accelerator configuration the model generates (legal by construction).

Entry points: :func:`run_lint` for whole-module linting, the ``repro
lint`` CLI subcommand, and :class:`LintPassManager` for per-pass
verification inside the optimization pipeline.
"""

from .core import Diagnostic, LintResult, Location, Severity
from .config_rules import config_diagnostics, merge_pair_diagnostics
from .engine import LintContext, run_lint
from .passes import LintPassManager, PassVerificationError
from .registry import Rule, all_rules, get_rule, rule, rules_for_layer
from .render import render_json, render_text

__all__ = [
    "Diagnostic", "LintResult", "Location", "Severity",
    "config_diagnostics", "merge_pair_diagnostics",
    "LintContext", "run_lint",
    "LintPassManager", "PassVerificationError",
    "Rule", "all_rules", "get_rule", "rule", "rules_for_layer",
    "render_json", "render_text",
]
