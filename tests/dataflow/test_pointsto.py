"""Andersen points-to tests: site discovery, aliasing verdicts, and the
external-argument conservatism the restrict model lacks."""

from repro.dataflow import PointsToAnalysis
from repro.frontend import compile_source
from repro.ir import GetElementPtr, Load, Store


def pointer_args(func):
    return [a for a in func.arguments if a.type.is_pointer]


TWO_GLOBALS = """
float A[8];
float B[8];
int main() {
  for (int i = 0; i < 8; i = i + 1) { B[i] = A[i]; }
  return 0;
}
"""


class TestGlobals:
    def test_each_global_points_to_own_site(self):
        module = compile_source(TWO_GLOBALS, "t")
        pta = PointsToAnalysis(module)
        a = module.globals["A"]
        b = module.globals["B"]
        assert pta.site_labels(a) == ["@A"]
        assert pta.site_labels(b) == ["@B"]
        assert not pta.may_alias(a, b)
        assert pta.may_alias(a, a)

    def test_gep_inherits_base_sites(self):
        module = compile_source(TWO_GLOBALS, "t")
        pta = PointsToAnalysis(module)
        geps = [
            inst
            for inst in module.get_function("main").instructions()
            if isinstance(inst, GetElementPtr)
        ]
        assert geps
        for gep in geps:
            assert pta.points_to(gep) == pta.points_to(gep.base)


CALLED_KERNEL = """
float A[16]; float B[16];
void kernel(float *dst, float *src, int n) {
  for (int i = 0; i < n; i = i + 1) { dst[i] = src[i]; }
}
int main() { kernel(B, A, 16); return 0; }
"""


class TestCalls:
    def test_arguments_resolve_to_actual_globals(self):
        module = compile_source(CALLED_KERNEL, "t")
        pta = PointsToAnalysis(module)
        dst, src = pointer_args(module.get_function("kernel"))
        assert pta.site_labels(dst) == ["@B"]
        assert pta.site_labels(src) == ["@A"]
        assert not pta.may_alias(dst, src)

    def test_aliased_call_merges_sites(self):
        source = CALLED_KERNEL.replace("kernel(B, A, 16)", "kernel(A, A, 16)")
        module = compile_source(source, "t")
        pta = PointsToAnalysis(module)
        dst, src = pointer_args(module.get_function("kernel"))
        assert pta.site_labels(dst) == ["@A"]
        assert pta.may_alias(dst, src)


UNCALLED_KERNEL = """
void kernel(float *dst, float *src, int n) {
  for (int i = 0; i < n; i = i + 1) { dst[i] = src[i]; }
}
"""


class TestExternalArguments:
    def test_external_args_may_alias_each_other(self):
        """No intra-module caller: the two pointer arguments could be bound
        to one buffer — exactly what blanket restrict denied."""
        module = compile_source(UNCALLED_KERNEL, "t")
        pta = PointsToAnalysis(module)
        dst, src = pointer_args(module.get_function("kernel"))
        assert all(s.is_external for s in pta.points_to(dst))
        assert pta.may_alias(dst, src)


class TestAccessBases:
    def test_store_and_load_bases_disambiguated(self):
        module = compile_source(TWO_GLOBALS, "t")
        pta = PointsToAnalysis(module)
        main = module.get_function("main")
        stores = [i for i in main.instructions() if isinstance(i, Store)]
        loads = [i for i in main.instructions() if isinstance(i, Load)]
        assert stores and loads
        assert not pta.may_alias(stores[0].pointer, loads[0].pointer)
