"""Reuse rule tests (RU001/RU002): forged or may-alias claims are
rejected, the proving estimator's own configs are clean, over-budget
chains surface as INFO, and both rules carry catalog entries."""

import pytest

from repro.analysis import WPST
from repro.diagnostics import Severity, run_lint
from repro.diagnostics.config_rules import check_reuse_claims
from repro.diagnostics.registry import get_rule
from repro.frontend import compile_source
from repro.ir import Load
from repro.interp import profile_module
from repro.model import AcceleratorModel, InterfaceKind
from repro.workloads import get_workload

# The synthetic reuse workloads touch each element only a few times per
# invocation; the default reuse-factor gate (beta=4) would deny them a
# scratchpad and leave nothing for the rules to inspect.
BETA = 0.5

LAG_SOURCE = """
float H[512];
float G[512];
void k(int n) {
  lag: for (int i = 100; i < n; i++) {
    G[i] = H[i] * 0.5f + H[i - 100] * 0.5f;
  }
}
void main() { k(512); }
"""


def build(name):
    workload = get_workload(name)
    return build_source(workload.source, workload.name, workload.entry)


def build_source(source, name, entry="main"):
    module = compile_source(source, name)
    profile = profile_module(module, entry=entry)
    wpst = WPST(module, entry_function=entry)
    model = AcceleratorModel(module, profile, beta=BETA)
    return module, profile, wpst, model


def lint_of(module, profile, wpst, model):
    return run_lint(module, profile=profile, wpst=wpst, model=model)


def spad_configs(wpst, model, func_name):
    for node in wpst.region_vertices():
        region = node.region
        if region is None or region.function.name != func_name:
            continue
        for config in model.generate_configs(region):
            if config.plan is None:
                continue
            if any(a.kind is InterfaceKind.SCRATCHPAD
                   for a in config.plan.assignments.values()):
                yield config


class TestRU001ClaimSoundness:
    def test_fires_on_forged_distance(self):
        """Shortening a proven claim by one iteration must be rejected —
        the residue test disproves the forged distance."""
        module, profile, wpst, model = build("stencil-reuse-3")
        config = next(
            c for c in spad_configs(wpst, model, "stencil")
            if any(a.reuse_buffered for a in c.plan.assignments.values())
        )
        forged = next(
            a for a in config.plan.assignments.values()
            if a.reuse_distance is not None
        )
        forged.reuse_distance += 1
        diags = list(check_reuse_claims(config, model))
        assert diags
        assert all(d.severity is Severity.ERROR for d in diags)
        assert any("unproven" in d.message for d in diags)

    def test_fires_on_may_alias_claim(self):
        """Claiming reuse across a may-alias store surfaces the analysis'
        own degradation reason in the message."""
        module, profile, wpst, model = build("reuse-breaker")
        config = next(spad_configs(wpst, model, "brk"))
        loads = [
            a for a in config.plan.assignments.values()
            if a.kind is InterfaceKind.SCRATCHPAD and isinstance(a.inst, Load)
        ]
        assert len(loads) >= 2
        consumer, producer = loads[0], loads[1]
        consumer.reuse_source = producer.inst
        consumer.reuse_distance = 1
        diags = list(check_reuse_claims(config, model))
        assert diags
        assert any("may-alias" in d.message for d in diags)

    def test_clean_on_proving_model(self):
        """The estimator only claims pairs it proved, so its own configs
        re-prove under the lint."""
        result = lint_of(*build("stencil-reuse-3"))
        assert "RU001" in result.checked_rules
        assert not [d for d in result.diagnostics if d.code == "RU001"]

    def test_clean_when_nothing_claimed(self):
        result = lint_of(*build("reuse-breaker"))
        assert "RU001" in result.checked_rules
        assert not [d for d in result.diagnostics if d.code == "RU001"]


class TestRU002DepthBudget:
    def test_fires_on_over_budget_chain(self):
        """A provable distance-100 pair needs a 100-stage chain — over the
        64-register budget, reported as INFO, never an error."""
        result = lint_of(*build_source(LAG_SOURCE, "reuse-lag"))
        found = [d for d in result.diagnostics if d.code == "RU002"]
        assert found
        assert all(d.severity is Severity.INFO for d in found)
        assert any("exceeds" in d.message and "budget" in d.message
                   for d in found)

    def test_clean_when_chains_fit(self):
        """stencil-reuse-3's deepest chain is two registers: everything
        provable is exploited, nothing left to report."""
        result = lint_of(*build("stencil-reuse-3"))
        assert "RU002" in result.checked_rules
        assert not [d for d in result.diagnostics if d.code == "RU002"]


class TestCatalog:
    @pytest.mark.parametrize("code", ["RU001", "RU002"])
    def test_explainable(self, code):
        entry = get_rule(code)
        assert entry is not None
        assert entry.layer == "config"
        assert "reuse" in entry.description.lower()
        assert entry.paper_ref

    def test_severities(self):
        assert get_rule("RU001").severity is Severity.ERROR
        assert get_rule("RU002").severity is Severity.INFO
