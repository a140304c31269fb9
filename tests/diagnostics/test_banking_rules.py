"""Banking rule tests (BK001/BK002): the optimistic model's claims are
flagged, the proving model's configs are clean, and both rules carry
catalog entries for ``--explain``."""

import pytest

from repro.analysis import WPST
from repro.diagnostics import Severity, run_lint
from repro.diagnostics.registry import get_rule
from repro.frontend import compile_source
from repro.interp import profile_module
from repro.model import AcceleratorModel
from repro.model.estimator import PROOFS
from repro.workloads import get_workload


#: Every estimator proof but banking.
NO_BANKING = set(PROOFS) - {"banking"}


def lint(name, **model_kwargs):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    profile = profile_module(module, entry=workload.entry)
    wpst = WPST(module, entry_function=workload.entry)
    model = AcceleratorModel(module, profile, **model_kwargs)
    return run_lint(module, profile=profile, wpst=wpst, model=model)


def codes(result):
    return {d.code for d in result.diagnostics}


class TestBK001ConflictClaim:
    def test_fires_on_optimistic_model(self):
        """Without the banking proof the model makes the historical
        claims: cyclic-U banking of A[2*i] — a provable conflict the lint
        must reject."""
        result = lint("stride2-collider", proofs=NO_BANKING)
        found = [d for d in result.diagnostics if d.code == "BK001"]
        assert found, f"BK001 missing; got {codes(result)}"
        assert all(d.severity is Severity.ERROR for d in found)
        assert any("provable bank conflict" in d.message for d in found)
        assert any("A" in d.message for d in found)

    def test_clean_on_proving_model(self):
        """The sound model serializes what it cannot prove, so its own
        configurations never claim a conflicted scheme."""
        result = lint("stride2-collider")
        assert "BK001" in result.checked_rules
        assert not [d for d in result.diagnostics if d.code == "BK001"]

    def test_clean_on_conflict_free_workload(self):
        result = lint("bank-transpose", proofs=NO_BANKING)
        bk1 = [d for d in result.diagnostics if d.code == "BK001"]
        # bank-transpose's claimed cyclic schemes on T *are* conflicted:
        # the optimistic model is flagged here too.
        assert bk1
        result = lint("trisolv", proofs=NO_BANKING)
        assert not [d for d in result.diagnostics if d.code == "BK001"]


class TestBK002Overprovision:
    def test_fires_on_optimistic_model(self):
        """Claimed banks the proof cannot back are surplus area: INFO."""
        result = lint("stride2-collider", proofs=NO_BANKING)
        found = [d for d in result.diagnostics if d.code == "BK002"]
        assert found
        assert all(d.severity is Severity.INFO for d in found)
        assert any("no provable scheme" in d.message or
                   "proven scheme" in d.message for d in found)

    def test_clean_on_proving_model(self):
        """_apply_banking already shrinks proven groups and the serialized
        ones keep their claim deliberately (area parity) — but the rule
        only reports what the scheduler cannot use."""
        result = lint("bank-transpose")
        assert "BK002" in result.checked_rules
        assert not [d for d in result.diagnostics if d.code == "BK001"]


class TestCatalog:
    @pytest.mark.parametrize("code", ["BK001", "BK002"])
    def test_explainable(self, code):
        entry = get_rule(code)
        assert entry is not None
        assert entry.layer == "config"
        assert "bank" in entry.description.lower()
        assert entry.paper_ref

    def test_severities(self):
        assert get_rule("BK001").severity is Severity.ERROR
        assert get_rule("BK002").severity is Severity.INFO
