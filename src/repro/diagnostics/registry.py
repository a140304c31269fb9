"""Rule registry: every diagnostic rule registers itself here.

A rule is a checker function plus metadata (stable code, default severity,
the layer it runs on, and its rationale).  Layers:

* ``ir``       — checkers run per module over the IR (signature
  ``fn(ctx) -> Iterable[Diagnostic]``);
* ``analysis`` — checkers over the wPST / program analyses (same signature;
  may require a profile or wPST, declared via ``requires``);
* ``config``   — accelerator-configuration legality checkers (signature
  ``fn(config, model) -> Iterable[Diagnostic]``, ``model`` being the
  accelerator model that built ``config``);
* ``merge``    — checkers over a pair of datapath units considered for
  merging (signature ``fn(name_a, dfg_a, name_b, dfg_b) -> Iterable``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from .core import Severity

LAYERS = ("ir", "analysis", "config", "merge")


@dataclass(frozen=True)
class Rule:
    """Metadata plus checker for one diagnostic rule."""

    code: str
    name: str
    layer: str
    severity: Severity
    description: str
    paper_ref: str = ""
    requires: FrozenSet[str] = field(default_factory=frozenset)
    checker: Optional[Callable] = None


_RULES: Dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    layer: str,
    severity: Severity,
    description: str,
    paper_ref: str = "",
    requires=(),
):
    """Decorator registering a checker function as a diagnostic rule."""
    if layer not in LAYERS:
        raise ValueError(f"unknown rule layer {layer!r}")

    def decorate(fn: Callable) -> Callable:
        if code in _RULES:
            raise ValueError(f"duplicate rule code {code}")
        _RULES[code] = Rule(
            code=code,
            name=name,
            layer=layer,
            severity=severity,
            description=description,
            paper_ref=paper_ref,
            requires=frozenset(requires),
            checker=fn,
        )
        fn.rule_code = code
        return fn

    return decorate


def _ensure_loaded() -> None:
    """Import the rule modules so their decorators run."""
    from . import analysis_rules, config_rules, ir_rules  # noqa: F401


def all_rules() -> List[Rule]:
    _ensure_loaded()
    return sorted(_RULES.values(), key=lambda r: r.code)


def rules_for_layer(layer: str) -> List[Rule]:
    return [r for r in all_rules() if r.layer == layer]


def get_rule(code: str) -> Rule:
    _ensure_loaded()
    try:
        return _RULES[code]
    except KeyError:
        raise KeyError(
            f"unknown rule {code!r}; registered: {sorted(_RULES)}"
        ) from None
