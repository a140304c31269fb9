"""Structural characteristics the paper relies on, checked per workload.

These tests pin the *reasons* each benchmark behaves the way Table II and
Fig. 6 report: loops-all is dominated by FP loop-carried dependencies, spmv
gathers (non-stream accesses), PolyBench kernels stream, cjpeg has many
distinct similar regions (merging fodder), and so on.
"""

import pytest

from repro.analysis import (
    AccessPatternAnalysis,
    MemoryDependenceAnalysis,
    WPST,
)
from repro.frontend import compile_source
from repro.workloads import get_workload


def analyses_for(name):
    workload = get_workload(name)
    module = compile_source(workload.source, name)
    return module


class TestLoopsAll:
    """Paper §IV-B: loops-all's loops 'commonly have loop-carried
    dependencies between floating-point operations, restricting the
    achievable pipeline II'."""

    def test_fp_recurrences_dominate(self):
        module = analyses_for("loops-all-mid-10k-sp")
        recurrence_loops = 0
        total_loops = 0
        for func in module.defined_functions():
            if func.name in ("main", "init"):
                continue
            apa = AccessPatternAnalysis(func)
            for loop in apa.loop_info.loops:
                total_loops += 1
                has_fp_phi_recurrence = any(
                    phi.type.is_float for phi in loop.header.phis()
                )
                md = MemoryDependenceAnalysis(apa)
                if has_fp_phi_recurrence or md.recurrence_deps(loop):
                    recurrence_loops += 1
        assert total_loops >= 14
        assert recurrence_loops / total_loops > 0.7

    def test_hotspots_evenly_distributed(self):
        """No single kernel dominates (paper: 'even-distributed hotspots')."""
        from repro.interp import profile_module

        workload = get_workload("loops-all-mid-10k-sp")
        module = compile_source(workload.source, workload.name)
        profile = profile_module(module)
        shares = []
        for func in module.defined_functions():
            if func.name in ("main", "init"):
                continue
            cycles = sum(profile.block_cycles(b) for b in func.blocks)
            shares.append(cycles / profile.total_cycles)
        assert max(shares) < 0.35


class TestSpmv:
    def test_gather_is_not_stream(self):
        module = analyses_for("spmv")
        func = module.get_function("spmv")
        apa = AccessPatternAnalysis(func)
        gathers = [
            a for a in apa.accesses()
            if a.base is not None and a.base.name == "vec"
        ]
        assert gathers
        assert all(not g.is_stream for g in gathers)

    def test_ellpack_arrays_stream(self):
        module = analyses_for("spmv")
        func = module.get_function("spmv")
        apa = AccessPatternAnalysis(func)
        for a in apa.accesses():
            if a.base is not None and a.base.name in ("nzval", "cols"):
                assert a.is_stream


class TestPolybenchStreams:
    @pytest.mark.parametrize("name,kernel", [
        ("atax", "atax"), ("bicg", "bicg"), ("mvt", "mvt"),
        ("jacobi-2d", "jacobi"),
    ])
    def test_kernels_fully_stream(self, name, kernel):
        module = analyses_for(name)
        func = module.get_function(kernel)
        apa = AccessPatternAnalysis(func)
        accesses = apa.accesses()
        assert accesses
        assert all(a.is_stream for a in accesses)


class TestCjpegStructure:
    def test_many_distinct_regions(self):
        """cjpeg's pipeline has many ctrl-flow regions across functions —
        the raw material for Table II's high merge savings."""
        module = analyses_for("cjpeg")
        wpst = WPST(module)
        regions_per_function = {}
        for node in wpst.ctrl_flow_vertices():
            regions_per_function.setdefault(node.function.name, 0)
            regions_per_function[node.function.name] += 1
        assert len(regions_per_function) >= 5
        assert sum(regions_per_function.values()) >= 20

    def test_dct_blocks_similar(self):
        """The two matmul-like DCT passes should merge almost perfectly."""
        from repro.hls import DEFAULT_TECHLIB, DFG
        from repro.merging import match_units, op_index

        module = analyses_for("cjpeg")
        func = module.get_function("dct_block")
        apa = AccessPatternAnalysis(func)
        loops = {l.name: l for l in apa.loop_info.loops}
        a = DFG.from_blocks(sorted(loops["rowdot"].blocks, key=lambda b: b.name))
        b = DFG.from_blocks(sorted(loops["coldot"].blocks, key=lambda b: b.name))
        match = match_units(op_index(a), op_index(b), DEFAULT_TECHLIB)
        assert len(match.positions) >= 0.8 * min(len(a), len(b))


class TestNwBranches:
    def test_dp_kernel_has_conditionals(self):
        """nw's max-of-three creates the control flow that distinguishes
        OCA-class candidates from NOVIA's straight-line DFGs."""
        module = analyses_for("nw")
        func = module.get_function("nw")
        from repro.ir import CondBranch

        inner_branches = sum(
            1 for inst in func.instructions() if isinstance(inst, CondBranch)
        )
        assert inner_branches >= 4


class TestDeriche:
    def test_recursive_filter_has_ssa_recurrences(self):
        """The IIR passes carry ym1/ym2 across iterations (phi recurrences),
        which bounds II regardless of interface choice."""
        module = analyses_for("deriche")
        func = module.get_function("deriche")
        apa = AccessPatternAnalysis(func)
        inner = [l for l in apa.loop_info.loops if l.is_innermost]
        fp_recurrent = [
            l for l in inner
            if sum(1 for phi in l.header.phis() if phi.type.is_float) >= 2
        ]
        assert len(fp_recurrent) >= 4
