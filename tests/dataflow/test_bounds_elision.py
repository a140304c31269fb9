"""Bounds proofs + interpreter check elision, including the acceptance
gates: >=50% proven accesses on PolyBench kernels and bit-identical
elided execution."""

import pytest

from repro.dataflow import BoundsAnalysis, ModuleIntervalAnalysis
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.workloads import get_workload

# PolyBench workloads the interval analysis must substantially cover.
POLYBENCH_PROOF_TARGETS = ["trisolv", "bicg", "atax", "mvt", "cholesky"]


def bounds_of(module):
    return BoundsAnalysis(module, ModuleIntervalAnalysis(module))


def build(name):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    return workload, module


class TestCoverage:
    @pytest.mark.parametrize("name", POLYBENCH_PROOF_TARGETS)
    def test_at_least_half_of_accesses_proven(self, name):
        _, module = build(name)
        bounds = bounds_of(module)
        proven, total = bounds.module_coverage()
        assert total > 0
        assert proven / total >= 0.5, (
            f"{name}: only {proven}/{total} accesses proven in-bounds"
        )

    def test_windows_are_superset_of_proofs(self):
        _, module = build("trisolv")
        bounds = bounds_of(module)
        assert set(bounds.proven) <= set(bounds.windows)
        for inst, window in bounds.proven.items():
            assert window.is_proven
            assert not window.definitely_out_of_bounds


class TestElision:
    @pytest.mark.parametrize("name", ["trisolv", "bicg"])
    def test_elided_run_bit_identical(self, name):
        workload, module = build(name)
        baseline = Interpreter(module)
        base_result = baseline.run(workload.entry)
        elided = Interpreter(module, bounds=bounds_of(module))
        elided_result = elided.run(workload.entry)
        assert elided.elided_accesses > 0
        assert elided_result == base_result
        assert elided.instructions == baseline.instructions
        # Full memory image must match byte for byte: the elided fast path
        # may not change a single observable effect.
        assert elided.memory.data == baseline.memory.data

    def test_elision_accounting_consistent(self):
        workload, module = build("trisolv")
        bounds = bounds_of(module)
        interp = Interpreter(module, bounds=bounds)
        interp.run(workload.entry)
        assert interp.elided_accesses + interp.checked_accesses > 0
        proven, total = bounds.module_coverage()
        if proven == total:
            assert interp.checked_accesses == 0


OOB_SOURCE = """
int A[4];
int kernel(int i) { return A[i + 16]; }
int main() { return kernel(0); }
"""


class TestOutOfBounds:
    def test_definite_oob_window_detected(self):
        module = compile_source(OOB_SOURCE, "t")
        bounds = bounds_of(module)
        oob = bounds.out_of_bounds()
        assert len(oob) == 1
        window = oob[0]
        assert window.root.name == "A"
        assert not window.is_proven
        assert window.definitely_out_of_bounds

    def test_oob_access_never_proven_nor_elided(self):
        module = compile_source(OOB_SOURCE, "t")
        bounds = bounds_of(module)
        assert bounds.out_of_bounds()[0].inst not in bounds.proven
