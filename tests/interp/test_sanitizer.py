"""Sanitizing-interpreter tests: clean workloads stay clean under the
points-to model, and the blanket-restrict model (the ``alias`` injection)
is caught red-handed on a deliberately aliasing workload."""

import pytest

from repro.frontend import compile_source
from repro.interp.sanitizer import SanitizerError, SanitizingInterpreter
from repro.model import AcceleratorModel
from repro.model.estimator import PROOFS
from repro.workloads import get_workload

from ..conftest import sanitize_both


def sanitize(name, **kwargs):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    interp = SanitizingInterpreter(module, fail_fast=False, **kwargs)
    interp.run(workload.entry)
    return interp


# A cross-section of the registry: dense PolyBench kernels, the triangular /
# elimination kernels whose outer-loop dependences the pre-dataflow model
# missed, and the aliasing stress workload.
CLEAN_UNDER_POINTS_TO = [
    "trisolv",
    "bicg",
    "cholesky",
    "lu",
    "gramschmidt",
    "nw",
    "linear-alg-mid-100x100-sp",
    "smooth-alias",
    # Dependence-vector stress cases: symbolic strides / symbolic lags whose
    # proven distances the runtime conflict trace must confirm.
    "seidel-1d",
    "wave-lag",
    "conv-dilated",
    "iir-interleaved",
]


class TestPointsToModelSound:
    @pytest.mark.parametrize("name", CLEAN_UNDER_POINTS_TO)
    def test_zero_violations(self, name):
        interp = sanitize(name)
        assert interp.violations == []
        assert interp.values_checked > 0
        assert interp.accesses_checked > 0


class TestRestrictModelUnsound:
    def test_aliasing_workload_flags_restrict_model(self):
        """smooth-alias calls smooth(buf, buf, 96): dst and src are one
        buffer, so the restrict model's independence claim is violated."""
        interp = sanitize("smooth-alias", inject_unsound="alias")
        assert interp.violations, "restrict model escaped the sanitizer"
        assert any(
            "restrict" in v and ("alias" in v or "dependence" in v)
            for v in interp.violations
        )

    def test_points_to_model_clean_on_same_workload(self):
        assert sanitize("smooth-alias").violations == []

    def test_fail_fast_raises(self):
        workload = get_workload("smooth-alias")
        module = compile_source(workload.source, workload.name)
        interp = SanitizingInterpreter(module, inject_unsound="alias")
        with pytest.raises(SanitizerError):
            interp.run(workload.entry)


def test_unknown_injected_claim_names_the_valid_claims():
    workload = get_workload("trisolv")
    module = compile_source(workload.source, workload.name)
    with pytest.raises(ValueError, match="'restrict'; valid claims: "
                       "bitwidth, dependence, banking, reuse, alias"):
        SanitizingInterpreter(module, inject_unsound="restrict")


def test_every_estimator_proof_has_a_sanitizer_claim():
    """The soundness contract: each proof the estimator can price is a
    claim kind the sanitizer checks and can inject."""
    assert set(PROOFS) <= set(SanitizingInterpreter.CLAIMS)


def test_unknown_estimator_proof_names_the_valid_proofs():
    workload = get_workload("trisolv")
    module = compile_source(workload.source, workload.name)
    with pytest.raises(ValueError, match="'alias'; valid proofs: "
                       "bitwidth, banking, reuse"):
        AcceleratorModel(module, profile=None, proofs=("bitwidth", "alias"))


class TestDependenceDistances:
    def test_observed_distances_cover_claims(self):
        """wave-lag's recurrence W[j] <- W[j-6] must be observed at exactly
        the vector-proven distance 6, never closer."""
        interp = sanitize("wave-lag")
        assert interp.violations == []
        assert interp.conflicts_observed > 0
        assert 6 in {d for d in interp.observed_distances.values()}

    @pytest.mark.parametrize(
        "name", ["wave-lag", "seidel-1d", "conv-dilated", "smooth-alias"]
    )
    def test_injected_overclaim_is_caught(self, name):
        """Inflating every claimed distance by one turns each claim into an
        over-claim; the runtime trace must flag it on any workload whose
        recurrence runs at exactly its proven distance."""
        interp = sanitize(name, inject_unsound="dependence")
        assert interp.violations, (
            f"unsound dependence claim escaped the sanitizer on {name}"
        )
        assert any("dependence-distance" in v for v in interp.violations)

    def test_injection_is_noted(self):
        interp = sanitize("wave-lag", inject_unsound="dependence")
        assert any("inject-unsound-dependence" in n for n in interp.notes)


class TestEntryGating:
    def test_out_of_seed_entry_voids_claims(self):
        """Driving a kernel directly with arguments outside the seeded
        ranges must skip validation (the claims are conditional), not
        report bogus violations."""
        module = compile_source(
            """
int A[8];
int kernel(int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + A[i]; }
  return s;
}
int main() { return kernel(4); }
""",
            "gated",
        )
        # The seeded range is [4, 4].
        runs = sanitize_both(module, [("kernel", [8])])
        assert runs["reference"][0] == runs["compiled"][0]
        interp = runs["compiled"][1]
        assert interp.violations == []
        assert interp.notes
        assert interp.values_checked == interp.accesses_checked == 0


class TestBankingClaims:
    """Every claimed-conflict-free banking scheme is validated with
    concrete per-slot bank indices; the adversarial injection re-claims
    provably-conflicted schemes and must be caught."""

    BANK_WORKLOADS = ["stride2-collider", "bank-transpose", "dual-interleave"]

    @pytest.mark.parametrize("name", BANK_WORKLOADS)
    def test_proven_claims_hold_at_runtime(self, name):
        interp = sanitize(name)
        assert interp.violations == []
        assert interp.bank_claim_count > 0, "no banking claim was registered"
        assert interp.bank_checks > 0, "no bank index was ever checked"

    @pytest.mark.parametrize(
        "name", ["stride2-collider", "bank-transpose", "dual-interleave",
                 "trisolv"]
    )
    def test_injected_unsound_banking_is_caught(self, name):
        """Re-claiming provably-conflicted schemes as conflict-free must
        produce violations on any workload whose lanes really collide
        (A[2*i] in the collider, the row-pitch cyclic schemes elsewhere)."""
        interp = sanitize(name, inject_unsound="banking")
        assert interp.violations, "unsound banking claim escaped the sanitizer"
        assert any("bank-conflict" in v for v in interp.violations)
        assert any("claimed conflict-free" in v for v in interp.violations)

    def test_injection_is_noted(self):
        interp = sanitize("stride2-collider", inject_unsound="banking")
        assert any("inject-unsound-banking" in n for n in interp.notes)

    def test_injection_fail_fast_raises(self):
        workload = get_workload("stride2-collider")
        module = compile_source(workload.source, workload.name)
        interp = SanitizingInterpreter(module, inject_unsound="banking")
        with pytest.raises(SanitizerError):
            interp.run(workload.entry)

    def test_clean_runs_stay_clean_without_injection(self):
        """The same registry workload that fails under injection is clean
        when only the genuinely-proven claims are checked."""
        interp = sanitize("trisolv")
        assert interp.violations == []
        assert interp.bank_claim_count > 0


class TestReuseClaims:
    """Every proven reuse pair is validated concretely: the consumer's
    address at iteration i must equal the producer's at i-d, and no byte
    of the buffered element may be overwritten in between.  The
    adversarial injection shortens claimed distances and must be caught
    on workloads whose window really moves."""

    REUSE_WORKLOADS = [
        "stencil-reuse-3", "fwd-store-load", "trisolv", "seidel-1d"
    ]

    @pytest.mark.parametrize("name", REUSE_WORKLOADS)
    def test_proven_pairs_hold_at_runtime(self, name):
        interp = sanitize(name)
        assert interp.violations == []
        assert interp.reuse_claim_count > 0, "no reuse pair was registered"
        assert interp.reuse_checks > 0, "no reuse pair was ever checked"

    def test_breaker_registers_no_claims(self):
        """reuse-breaker's may-alias store degrades every candidate to
        unknown: nothing is claimed, nothing is checked."""
        interp = sanitize("reuse-breaker")
        assert interp.violations == []
        assert interp.reuse_claim_count == 0
        assert interp.reuse_checks == 0

    @pytest.mark.parametrize("name", ["stencil-reuse-3", "fwd-store-load"])
    def test_injected_unsound_reuse_is_caught(self, name):
        """Shortening a moving-window distance by one makes the tap read a
        neighboring element — a concrete address mismatch every steady
        iteration."""
        interp = sanitize(name, inject_unsound="reuse")
        assert interp.violations, "unsound reuse claim escaped the sanitizer"
        assert any("reuse-address" in v for v in interp.violations)

    def test_breaker_clean_under_injection(self):
        """No claims registered means nothing to shorten: the injection is
        a no-op on the degraded workload."""
        interp = sanitize("reuse-breaker", inject_unsound="reuse")
        assert interp.violations == []

    def test_injection_is_noted(self):
        interp = sanitize("stencil-reuse-3", inject_unsound="reuse")
        assert any("inject-unsound-reuse" in n for n in interp.notes)

    def test_injection_fail_fast_raises(self):
        workload = get_workload("stencil-reuse-3")
        module = compile_source(workload.source, workload.name)
        interp = SanitizingInterpreter(module, inject_unsound="reuse")
        with pytest.raises(SanitizerError):
            interp.run(workload.entry)

    def test_report_mentions_reuse_checks(self):
        interp = sanitize("stencil-reuse-3")
        assert "reuse" in interp.report()
