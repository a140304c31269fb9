"""Runtime cross-validation of the bitwidth analysis: the sanitizer's
known-bits and demanded-bits checks stay clean on real workloads, the
deliberate unsound-claim injection is caught, and the narrowed-datapath
interpreter reproduces the plain interpreter bit-for-bit."""

import pytest

from repro.frontend import compile_source
from repro.interp import Interpreter, NarrowingInterpreter
from repro.interp.sanitizer import SanitizerError, SanitizingInterpreter
from repro.workloads import get_workload


def sanitize(name, **kwargs):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    interp = SanitizingInterpreter(module, fail_fast=False, **kwargs)
    interp.run(workload.entry)
    return interp


BITWIDTH_CROSS_SECTION = [
    "bitwidth-adversary",
    "trisolv",
    "bicg",
    "nw",
    "gramschmidt",
    "smooth-alias",
]


class TestBitwidthClaimsSound:
    @pytest.mark.parametrize("name", BITWIDTH_CROSS_SECTION)
    def test_zero_bitwidth_violations(self, name):
        interp = sanitize(name)
        assert interp.violations == []
        assert interp.bits_checked > 0

    def test_adversary_exercises_demanded_reexecution(self):
        # The LCG kernel mixes masks, shifts, casts, and negation: the
        # demanded-bits shadow re-execution must actually fire.
        interp = sanitize("bitwidth-adversary")
        assert interp.demanded_checked > 0


class TestUnsoundInjectionCaught:
    def test_injected_claim_fails_on_adversary(self):
        """Marking one unknown bit per instruction as known-zero is a
        deliberately unsound claim; the alternating-parity LCG state must
        expose it at runtime."""
        interp = sanitize("bitwidth-adversary", inject_unsound="bitwidth")
        assert any(v.startswith("known-bits") for v in interp.violations)

    def test_injection_is_recorded_as_note(self):
        interp = sanitize("bitwidth-adversary", inject_unsound="bitwidth")
        assert any("inject" in note for note in interp.notes)

    def test_fail_fast_raises_on_injection(self):
        workload = get_workload("bitwidth-adversary")
        module = compile_source(workload.source, workload.name)
        interp = SanitizingInterpreter(module, inject_unsound="bitwidth")
        with pytest.raises(SanitizerError):
            interp.run(workload.entry)


NARROWING_WORKLOADS = ["trisolv", "bicg", "nw", "bitwidth-adversary"]


class TestNarrowingInterpreter:
    @pytest.mark.parametrize("name", NARROWING_WORKLOADS)
    def test_outputs_bit_identical(self, name):
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        plain = Interpreter(module)
        plain_result = plain.run(workload.entry)
        narrowed = NarrowingInterpreter(module)
        narrowed_result = narrowed.run(workload.entry)
        assert narrowed_result == plain_result
        assert bytes(narrowed.memory.data) == bytes(plain.memory.data)

    @pytest.mark.parametrize("name", NARROWING_WORKLOADS)
    def test_narrowing_actually_happens(self, name):
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        narrowed = NarrowingInterpreter(module)
        narrowed.run(workload.entry)
        assert narrowed.narrowed_results > 0
