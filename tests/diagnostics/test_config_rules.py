"""One firing and one clean case for every config/merge rule (CF001–CF005)."""

from types import SimpleNamespace

import pytest

from repro.diagnostics import Severity
from repro.diagnostics.config_rules import (
    check_merge_signatures,
    check_pipelined_calls,
    check_scratchpad_capacity,
    check_unroll_distance,
    check_unroll_legality,
    check_unroll_trip_count,
    config_diagnostics,
    merge_pair_diagnostics,
)
from repro.frontend.lowering import compile_source
from repro.interp.profiler import profile_module
from repro.ir import Call, Load
from repro.model.config import AcceleratorConfig, LoopPlan
from repro.model.estimator import AcceleratorModel
from repro.model.interfaces import (
    InterfaceAssignment,
    InterfaceKind,
    InterfacePlan,
)


SOURCE = """
int A[64]; int B[64]; int C[64];
void prefix(int n) {
  for (int i = 1; i < n; i = i + 1) A[i] = A[i-1] + A[i];
}
void saxpy(int n, int k) {
  for (int i = 0; i < n; i = i + 1) B[i] = k * A[i];
}
void siv2(int n) {
  for (int i = 2; i < n; i = i + 1) C[i] = C[i-2] + 1;
}
int main() {
  for (int i = 0; i < 64; i = i + 1) { A[i] = i; C[i] = i; }
  for (int r = 0; r < 4; r = r + 1) { prefix(64); saxpy(64, 3); siv2(64); }
  return B[10];
}
"""


@pytest.fixture(scope="module")
def setup():
    module = compile_source(SOURCE, "cfg")
    profile = profile_module(module, entry="main")
    model = AcceleratorModel(module, profile)
    return SimpleNamespace(module=module, profile=profile, model=model)


def region_of(setup, func_name):
    from repro.analysis.wpst import WPST

    wpst = WPST(setup.module)
    for node in wpst.region_vertices():
        if node.region is not None and node.region.function.name == func_name:
            return node.region
    raise AssertionError(f"no region in {func_name}")


def loop_of(setup, func_name):
    ctx = setup.model.context(setup.module.get_function(func_name))
    return ctx.loop_info.loops[0]


def config_with_plan(setup, func_name, unroll=1, pipelined=False):
    loop = loop_of(setup, func_name)
    return AcceleratorConfig(
        region=region_of(setup, func_name),
        loop_plans={loop: LoopPlan(loop=loop, unroll=unroll,
                                   pipelined=pipelined)},
    )


class TestUnrollLegality:
    def test_fires_on_dependent_loop(self, setup):
        config = config_with_plan(setup, "prefix", unroll=4)
        found = list(check_unroll_legality(config, setup.model))
        assert [d.code for d in found] == ["CF001"]
        assert found[0].severity is Severity.ERROR

    def test_clean_on_independent_loop(self, setup):
        config = config_with_plan(setup, "saxpy", unroll=4)
        assert list(check_unroll_legality(config, setup.model)) == []


class TestUnrollDistance:
    def test_fires_when_factor_exceeds_distance(self, setup):
        # siv2 carries C[i] <- C[i-2]: proven distance 2, so x4 races.
        config = config_with_plan(setup, "siv2", unroll=4)
        found = list(check_unroll_distance(config, setup.model))
        assert [d.code for d in found] == ["IR010"]
        assert found[0].severity is Severity.ERROR
        assert "distance 2" in found[0].message

    def test_clean_within_proven_distance(self, setup):
        config = config_with_plan(setup, "siv2", unroll=2)
        found = list(check_unroll_distance(config, setup.model))
        assert not [d for d in found if d.code == "IR010"]
        assert found == []


class TestUnrollTripCount:
    def test_fires_when_factor_exceeds_trips(self, setup):
        config = config_with_plan(setup, "saxpy", unroll=128)
        found = list(check_unroll_trip_count(config, setup.model))
        assert [d.code for d in found] == ["CF002"]

    def test_clean_within_trips(self, setup):
        config = config_with_plan(setup, "saxpy", unroll=4)
        assert list(
            check_unroll_trip_count(config, setup.model)
        ) == []


class TestScratchpadCapacity:
    def _config(self, setup, spad_bytes):
        func = setup.module.get_function("saxpy")
        load = next(
            inst for block in func.blocks for inst in block.instructions
            if isinstance(inst, Load)
        )
        plan = InterfacePlan()
        plan.assign(InterfaceAssignment(
            inst=load, kind=InterfaceKind.SCRATCHPAD,
            spad_group=object(), spad_bytes=spad_bytes,
        ))
        return AcceleratorConfig(region=region_of(setup, "saxpy"), plan=plan)

    def test_fires_when_footprint_exceeds_capacity(self, setup):
        config = self._config(setup, spad_bytes=1 << 20)
        found = list(check_scratchpad_capacity(config, setup.model))
        assert [d.code for d in found] == ["CF003"]

    def test_clean_within_capacity(self, setup):
        config = self._config(setup, spad_bytes=256)
        found = list(check_scratchpad_capacity(config, setup.model))
        assert not [d for d in found if d.code == "CF003"]
        assert found == []


class TestPipelinedCalls:
    def _call_loop_config(self, setup, pipelined):
        func = setup.module.get_function("main")
        ctx = setup.model.context(func)
        loop = next(
            l for l in ctx.loop_info.loops
            if any(isinstance(i, Call)
                   for b in l.blocks for i in b.instructions)
        )
        return AcceleratorConfig(
            region=region_of(setup, "main"),
            loop_plans={loop: LoopPlan(loop=loop, pipelined=pipelined)},
        )

    def test_fires_on_pipelined_loop_with_call(self, setup):
        config = self._call_loop_config(setup, pipelined=True)
        found = list(check_pipelined_calls(config, setup.model))
        assert found and all(d.code == "CF005" for d in found)

    def test_clean_when_not_pipelined(self, setup):
        config = self._call_loop_config(setup, pipelined=False)
        found = list(check_pipelined_calls(config, setup.model))
        assert not [d for d in found if d.code == "CF005"]
        assert found == []


def fake_dfg(*ops):
    return SimpleNamespace(nodes=[
        SimpleNamespace(resource=resource, bits=bits) for resource, bits in ops
    ])


class TestMergeSignatures:
    def test_fires_on_disjoint_signatures(self):
        dfg_a = fake_dfg(("int_add", 32), ("int_mul", 32))
        dfg_b = fake_dfg(("fp_add", 32), ("fp_mul", 32))
        found = merge_pair_diagnostics("acc0", dfg_a, "acc1", dfg_b)
        assert [d.code for d in found] == ["CF004"]

    def test_clean_on_shared_signatures(self):
        dfg_a = fake_dfg(("int_add", 32), ("int_mul", 32))
        dfg_b = fake_dfg(("int_add", 32), ("fp_mul", 32))
        assert merge_pair_diagnostics("acc0", dfg_a, "acc1", dfg_b) == []

    def test_direct_checker_matches_helper(self):
        dfg_a = fake_dfg(("int_add", 32))
        dfg_b = fake_dfg(("fp_add", 32))
        assert len(list(check_merge_signatures("a", dfg_a, "b", dfg_b))) == 1


class TestHelpers:
    def test_config_diagnostics_runs_all_config_rules(self, setup):
        config = config_with_plan(setup, "prefix", unroll=4)
        found = config_diagnostics(config, setup.model)
        assert any(d.code == "CF001" for d in found)

    def test_trip_count_overrun_is_only_a_warning(self, setup):
        config = config_with_plan(setup, "saxpy", unroll=128)
        found = config_diagnostics(config, setup.model)
        assert any(d.code == "CF002" for d in found)
        assert not [d for d in found if d.severity is Severity.ERROR]
