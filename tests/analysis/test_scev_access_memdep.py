"""Tests for scalar evolution, access-pattern analysis, and memory
dependences — the analyses behind Fig. 2d of the paper."""

import pytest

from repro.frontend import compile_source
from repro.analysis import (
    AccessPatternAnalysis,
    LoopInfo,
    MemoryDependenceAnalysis,
    SCEVAddRec,
    SCEVConstant,
    SCEVUnknown,
    ScalarEvolution,
    scev_add,
    scev_mul_const,
    scev_sub,
)
from repro.ir import Load, Store


def analyze(source, fname="f"):
    module = compile_source(source, optimize=False)
    func = module.get_function(fname)
    apa = AccessPatternAnalysis(func)
    return func, apa


FIG2D = """
float A[50][60]; float B[50][60]; float z[50];
void f(int n, int m) {
  outer: for (int i = 0; i < n; i++) {
    dot_product: for (int j = 0; j < m; j++) {
      z[i] += A[i][j] * B[i][j];
    }
  }
}
"""


def loops_of(apa):
    loops = {l.name: l for l in apa.loop_info.loops}
    return loops["outer"], loops["dot_product"]


def access_by_name(apa, global_name, kind):
    for info in apa.accesses():
        if info.base is not None and info.base.name == global_name:
            if (kind == "load") == info.is_load:
                return info
    raise AssertionError(f"no {kind} of {global_name}")


class TestSCEVAlgebra:
    def test_constant_fold(self):
        assert scev_add(SCEVConstant(2), SCEVConstant(3)) == SCEVConstant(5)
        assert scev_mul_const(SCEVConstant(4), 3) == SCEVConstant(12)
        assert scev_sub(SCEVConstant(4), SCEVConstant(4)) == SCEVConstant(0)

    def test_zero_identities(self):
        c = SCEVConstant(7)
        assert scev_add(c, SCEVConstant(0)) == c
        assert scev_mul_const(c, 1) is c
        assert scev_mul_const(c, 0) == SCEVConstant(0)

    def test_addrec_zero_step_normalizes(self):
        func, apa = analyze(FIG2D)
        outer, inner = loops_of(apa)
        rec = SCEVAddRec(outer, SCEVConstant(3), SCEVConstant(4))
        delta = scev_sub(rec, rec)
        assert delta == SCEVConstant(0)


class TestInductionSCEV:
    def test_simple_induction(self):
        func, apa = analyze(
            "void f(int n) { loop: for (int i = 5; i < n; i += 2) {} }"
        )
        loop = apa.loop_info.loops[0]
        phi = loop.induction_phi()
        scev = apa.scev.scev_of(phi)
        assert isinstance(scev, SCEVAddRec)
        assert scev.base == SCEVConstant(5)
        assert scev.step == SCEVConstant(2)

    def test_nested_addrec(self):
        func, apa = analyze(FIG2D)
        outer, inner = loops_of(apa)
        info = access_by_name(apa, "A", "load")
        levels = info.addrec_levels()
        assert levels is not None
        assert [(l.name, s) for l, s in levels] == [
            ("outer", 240), ("dot_product", 4)
        ]


class TestAccessPatterns:
    def test_stream_classification(self):
        func, apa = analyze(FIG2D)
        for info in apa.accesses():
            assert info.is_stream  # all Fig. 2d accesses are streams

    def test_strides(self):
        func, apa = analyze(FIG2D)
        outer, inner = loops_of(apa)
        a = access_by_name(apa, "A", "load")
        z_ld = access_by_name(apa, "z", "load")
        assert a.stride_in(inner) == 4
        assert a.stride_in(outer) == 240
        assert z_ld.stride_in(inner) == 0
        assert z_ld.stride_in(outer) == 4

    def test_footprints_match_paper(self):
        """Paper Fig. 2d: ld A/ld B footprint M, ld z/st z footprint 1."""
        func, apa = analyze(FIG2D)
        outer, inner = loops_of(apa)
        M = 60
        assert access_by_name(apa, "A", "load").footprint_in(inner, M) == M
        assert access_by_name(apa, "B", "load").footprint_in(inner, M) == M
        assert access_by_name(apa, "z", "load").footprint_in(inner, M) == 1
        assert access_by_name(apa, "z", "store").footprint_in(inner, M) == 1

    def test_irregular_access_not_stream(self):
        func, apa = analyze(
            """
            float v[64]; int idx[64]; float out[64];
            void f(int n) {
              for (int i = 0; i < n; i++) out[i] = v[idx[i]];
            }
            """
        )
        gather = None
        for info in apa.accesses():
            if info.base is not None and info.base.name == "v":
                gather = info
        assert gather is not None
        assert not gather.is_stream

    def test_argument_base(self):
        func, apa = analyze(
            "void f(float p[16], int n) { for (int i = 0; i < n; i++) p[i] = 0.0f; }"
        )
        store = next(a for a in apa.accesses() if a.is_store)
        assert store.base is func.arguments[0]
        assert store.is_stream


class TestMemDep:
    def test_fig2d_loop_carried_dependency(self):
        """Paper: one loop-carried dependency between st z and ld z."""
        func, apa = analyze(FIG2D)
        md = MemoryDependenceAnalysis(apa)
        outer, inner = loops_of(apa)
        flows = md.recurrence_deps(inner)
        assert len(flows) == 1
        dep = flows[0]
        assert dep.source.base.name == "z" and dep.sink.base.name == "z"
        assert dep.distance == 1

    def test_outer_loop_has_no_carried_dep(self):
        func, apa = analyze(FIG2D)
        md = MemoryDependenceAnalysis(apa)
        outer, inner = loops_of(apa)
        assert not md.has_loop_carried_dependence(outer)

    def test_streaming_store_no_dep(self):
        func, apa = analyze(
            "float y[64]; float x[64];"
            "void f(int n) { for (int i = 0; i < n; i++) y[i] = 2.0f * x[i]; }"
        )
        md = MemoryDependenceAnalysis(apa)
        assert not md.has_loop_carried_dependence(apa.loop_info.loops[0])

    def test_shifted_recurrence_distance(self):
        func, apa = analyze(
            "float v[64];"
            "void f(int n) { for (int i = 2; i < n; i++) v[i] = v[i-2] + 1.0f; }"
        )
        md = MemoryDependenceAnalysis(apa)
        flows = md.recurrence_deps(apa.loop_info.loops[0])
        assert len(flows) == 1
        assert flows[0].distance == 2

    def test_disjoint_offsets_no_dep(self):
        func, apa = analyze(
            "float v[64];"
            "void f(int n) { for (int i = 0; i < n; i++) { v[0] = v[1] + 1.0f; } }"
        )
        md = MemoryDependenceAnalysis(apa)
        flows = md.recurrence_deps(apa.loop_info.loops[0])
        assert not flows  # store v[0] never feeds load v[1]

    def test_different_bases_never_conflict(self):
        func, apa = analyze(
            "float a[8]; float b[8];"
            "void f(int n) { for (int i = 0; i < n; i++) a[0] = b[0] + 1.0f; }"
        )
        md = MemoryDependenceAnalysis(apa)
        assert not md.recurrence_deps(apa.loop_info.loops[0])

    def test_unknown_base_is_conservative(self):
        func, apa = analyze(
            """
            float v[64]; int idx[64];
            void f(int n) {
              for (int i = 0; i < n; i++) v[idx[i]] = v[idx[i]] + 1.0f;
            }
            """
        )
        md = MemoryDependenceAnalysis(apa)
        assert md.has_loop_carried_dependence(apa.loop_info.loops[0])

    def test_loop_carried_follows_instruction_order_on_registry(self):
        """``loop.blocks`` is a set; enumerating it would make the order of
        dependences, and the source/sink orientation of store/store pairs,
        vary with memory layout.  Pairs must follow instruction order: the
        pair keys ascend, and a store earlier in the function is the
        source."""
        from repro.dataflow import ModuleIntervalAnalysis, PointsToAnalysis
        from repro.model.estimator import FunctionContext
        from repro.workloads import get_workload, workload_names

        for name in workload_names():
            workload = get_workload(name)
            module = compile_source(workload.source, workload.name)
            intervals = ModuleIntervalAnalysis(module)
            points_to = PointsToAnalysis(module)
            for func in module.defined_functions():
                ctx = FunctionContext(
                    func, points_to=points_to, intervals=intervals
                )
                position = {
                    inst: i for i, inst in enumerate(func.instructions())
                }
                for loop in ctx.loop_info.loops:
                    keys = []
                    for dep in ctx.memdep.loop_carried(loop):
                        src = position[dep.source.inst]
                        snk = position[dep.sink.inst]
                        first = min(src, snk)
                        keys.append((first, max(src, snk)))
                        if dep.sink.is_store:
                            assert src == first, (name, loop.name, dep)
                    assert keys == sorted(keys), (name, loop.name)


class TestStreamExtractionAgreement:
    """``is_stream`` reuses the shared affine-subscript extraction
    (``affine_addrec_levels``) instead of re-peeling the SCEV itself;
    the two must never diverge: every stream has an extractable nest
    with loop-invariant steps, and anything the extraction rejects is
    never a stream."""

    def _check_agreement(self, apa):
        from repro.analysis.loops import LoopInfo as _LI

        for info in apa.accesses():
            levels = info.affine_addrec_levels()
            if info.is_stream:
                assert info.base is not None
                assert levels is not None, (
                    f"{info!r} is a stream but the shared extraction "
                    "rejects its subscript"
                )
                if info.loop_info is not None and info.inst.parent:
                    loop = info.loop_info.innermost_loop(info.inst.parent)
                    while loop is not None:
                        assert all(
                            step.is_invariant_in(loop)
                            for _, step in levels
                        )
                        loop = loop.parent
            elif info.base is not None and levels is None:
                assert not info.is_stream

    def test_agreement_on_fig2d(self):
        _func, apa = analyze(FIG2D)
        self._check_agreement(apa)

    def test_agreement_across_workload_registry(self):
        from repro.workloads import get_workload, workload_names

        for name in workload_names():
            workload = get_workload(name)
            module = compile_source(workload.source, workload.name)
            for func in module.defined_functions():
                self._check_agreement(AccessPatternAnalysis(func))

    def test_symbolic_stride_linearized_is_stream(self):
        """``A[i*n + j]``: the inner step is the *symbolic* byte pitch
        4n — constant-only peeling misclassified this as irregular; the
        shared extraction accepts loop-invariant symbolic steps."""
        _func, apa = analyze(
            """
            float A[4096]; float s;
            void f(int n) {
              rows: for (int i = 0; i < n; i++) {
                cols: for (int j = 0; j < n; j++) {
                  s += A[i * n + j];
                }
              }
            }
            """
        )
        load = next(
            a for a in apa.accesses()
            if a.base is not None and a.base.name == "A"
        )
        assert load.affine_addrec_levels() is not None
        assert load.is_stream

    def test_indirect_subscript_rejected_by_both(self):
        _func, apa = analyze(
            """
            float v[64]; int idx[64]; float out[64];
            void f(int n) {
              g: for (int i = 0; i < n; i++) out[i] = v[idx[i]];
            }
            """
        )
        gather = next(
            a for a in apa.accesses()
            if a.base is not None and a.base.name == "v"
        )
        # The loaded index contributes no induction level: the extraction
        # yields an empty nest and the loop-variant residual sinks it.
        assert gather.affine_addrec_levels() == []
        assert not gather.is_stream
