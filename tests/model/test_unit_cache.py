"""The estimator's unit synthesis caches.

``AcceleratorModel`` synthesizes each loop pipeline and basic-block
schedule once per interface-timing signature and shares the result across
every config of a run.  These tests pin that sharing to be invisible:

* every estimate equals one made with the unit caches emptied first, under
  each model variant that changes what a unit's schedule reads;
* the signature ignores how scratchpad groups are numbered but not whether
  their banking is proven, nor any port timing field; the key tells an
  unrolled loop from lanes of an unrolled outer loop;
* no Pareto solution holds one unit DFG object twice, which the merger's
  per-DFG derivation serials rely on.
"""

import contextlib
import dataclasses

import pytest

from repro import Cayman
from repro.analysis import WPST
from repro.baselines.qscores import QsCoresModel
from repro.frontend import compile_source
from repro.interp import profile_module
from repro.model import AcceleratorModel, InterfaceKind
from repro.model.config import AcceleratorConfig, LoopPlan
from repro.model.estimator import PROOFS
from repro.model.interfaces import InterfacePlan
from repro.workloads import get_workload

CROSS_SECTION = (
    "atax", "seidel-1d", "stride2-collider", "stencil-reuse-3",
    "conv-dilated", "cjpeg",
)

VARIANTS = {
    "default": (AcceleratorModel, {}),
    "qscores": (QsCoresModel, {}),
    "type-widths": (
        AcceleratorModel, {"proofs": set(PROOFS) - {"bitwidth"}}
    ),
    "no-banking-proofs": (
        AcceleratorModel, {"proofs": set(PROOFS) - {"banking"}}
    ),
    "no-reuse-proofs": (
        AcceleratorModel, {"proofs": set(PROOFS) - {"reuse"}}
    ),
    "no-dependence-proofs": (
        AcceleratorModel, {"proofs": set(PROOFS) - {"dependence"}}
    ),
}

_PROGRAMS = {}


def program(name):
    """Compiled module, profile and wPST of a workload, built once."""
    if name not in _PROGRAMS:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        profile = profile_module(module, entry=workload.entry)
        _PROGRAMS[name] = (
            module, profile, WPST(module, entry_function=workload.entry)
        )
    return _PROGRAMS[name]


def unit_count(model):
    return len(model._pipelined_units) + len(model._sequential_units)


@contextlib.contextmanager
def empty_unit_caches(model):
    """Estimate inside the block as if no unit had been synthesized yet."""
    saved = (
        model._unit_dfgs, model._pipelined_units, model._sequential_units
    )
    model._unit_dfgs, model._pipelined_units, model._sequential_units = (
        {}, {}, {}
    )
    try:
        yield
    finally:
        (model._unit_dfgs, model._pipelined_units,
         model._sequential_units) = saved


def configs(model, wpst):
    """``(config, ctx)`` for every config of every region the model
    would estimate."""
    for node in wpst.region_vertices():
        region = node.region
        if (region is None or not model.is_candidate_region(region)
                or model.profile.region_count(region) <= 0):
            continue
        ctx = model.context(region.function)
        for config in model.generate_configs(region):
            yield config, ctx


def fingerprint(estimate):
    if estimate is None:
        return None
    return (
        estimate.cycles,
        estimate.area,
        estimate.breakdown,
        estimate.reports,
        [
            (name, len(dfg.nodes), dfg.resource_histogram())
            for name, dfg in estimate.units
        ],
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", CROSS_SECTION)
def test_shared_estimates_equal_fresh_ones(name, variant):
    module, profile, wpst = program(name)
    cls, kwargs = VARIANTS[variant]
    model = cls(module, profile, **kwargs)
    checked = reused = 0
    for config, ctx in configs(model, wpst):
        with empty_unit_caches(model):
            fresh = model.estimate(config, ctx)
        before = unit_count(model)
        shared = model.estimate(config, ctx)
        assert fingerprint(shared) == fingerprint(fresh), config.describe()
        checked += 1
        if shared is not None and unit_count(model) - before < len(
                shared.units):
            reused += 1
    assert checked
    assert reused, "no config reused a unit: the check is vacuous"


def copy_plan(plan, order=None, cls=InterfacePlan, **changes_by_group):
    """A deep copy of ``plan`` as a ``cls``; ``order`` reorders the
    assignments, and ``changes_by_group[group_name]`` replaces fields of
    that scratchpad group's assignments."""
    assignments = list(plan.assignments.values())
    if order is not None:
        assignments.sort(key=order)
    copy = cls()
    for assignment in assignments:
        name = getattr(assignment.spad_group, "name", None)
        copy.assign(dataclasses.replace(
            assignment, **changes_by_group.get(name, {})
        ))
    return copy


#: Unroll-by-8 pipeline of stride2-collider's ``gather`` loop: its body
#: reads scratchpads R (banking proven) and A (serialized).
COLLIDER_U8 = ("stride2-collider", "region:rep", "u8/full")


def find_config(name, region, label):
    """A fresh model and the config labelled ``label`` of the region named
    ``region`` on workload ``name``."""
    module, profile, wpst = program(name)
    model = AcceleratorModel(module, profile)
    for config, ctx in configs(model, wpst):
        if config.region.name == region and config.label == label:
            return model, config, ctx
    raise AssertionError(f"no {label} config of {region} on {name}")


def with_plan(config, plan):
    return AcceleratorConfig(
        region=config.region, loop_plans=config.loop_plans, plan=plan,
        label=config.label,
    )


def pipe_report(estimate):
    (report,) = [r for r in estimate.reports if r.kind == "pipelined"]
    return report


class TestSignature:
    def test_group_numbering_does_not_split_the_cache(self):
        model, config, ctx = find_config(*COLLIDER_U8)
        plan = config.plan
        groups = {
            getattr(a.spad_group, "name", None)
            for a in plan.assignments.values()
            if a.kind is InterfaceKind.SCRATCHPAD
        }
        assert groups == {"R", "A"}
        # Number A's scratchpad before R's.
        renumbered = copy_plan(
            plan, order=lambda a: getattr(a.spad_group, "name", None) != "A"
        )
        assert renumbered.spad_port_names() != plan.spad_port_names()
        assert sorted(renumbered.port_counts().values()) == sorted(
            plan.port_counts().values()
        )

        first = model.estimate(config, ctx)
        before = unit_count(model)
        second = model.estimate(with_plan(config, renumbered), ctx)
        assert unit_count(model) == before
        assert fingerprint(second) == fingerprint(first)
        assert [dfg for _, dfg in second.units] == [
            dfg for _, dfg in first.units
        ]

    def test_serialized_banking_misses_and_raises_ii(self):
        model, config, ctx = find_config(*COLLIDER_U8)
        proven = [
            a for a in config.plan.assignments.values()
            if getattr(a.spad_group, "name", None) == "R"
        ]
        assert all(a.banking_proven and a.partitions > 1 for a in proven)
        serialized = copy_plan(config.plan, R={"banking_proven": False})

        first = model.estimate(config, ctx)
        before = unit_count(model)
        second = model.estimate(with_plan(config, serialized), ctx)
        assert unit_count(model) == before + 1
        assert pipe_report(second).ii > pipe_report(first).ii
        with empty_unit_caches(model):
            fresh = model.estimate(with_plan(config, serialized), ctx)
        assert fingerprint(fresh) == fingerprint(second)

    @pytest.mark.parametrize("field", ["latency", "occupancy"])
    def test_each_port_timing_field_splits_the_cache(self, field):
        model, config, ctx = find_config(
            "atax", "region:ax", "u1/coupled_only"
        )

        class Slower(InterfacePlan):
            def access_timing(self, node):
                timing = super().access_timing(node)
                if timing.port is None:
                    return timing
                return dataclasses.replace(
                    timing, **{field: getattr(timing, field) + 2}
                )

        slower = with_plan(config, copy_plan(config.plan, cls=Slower))
        first = model.estimate(config, ctx)
        before = unit_count(model)
        second = model.estimate(slower, ctx)
        assert unit_count(model) > before
        assert fingerprint(second) != fingerprint(first)
        with empty_unit_caches(model):
            assert fingerprint(model.estimate(slower, ctx)) == \
                fingerprint(second)

    def test_unroll_and_lanes_of_one_replication_miss(self):
        """Two lanes from an unrolled outer loop and two from the unrolled
        loop itself replicate the body alike, but only the latter halves
        the carried distance, so the recurrence bound differs."""
        module = compile_source(LAG2_SOURCE, "lag2")
        profile = profile_module(module)
        model = AcceleratorModel(module, profile)
        func = module.functions["lag"]
        ctx = model.context(func)
        (outer,) = [l for l in ctx.loop_info.loops if not l.is_innermost]
        (inner,) = [l for l in ctx.loop_info.loops if l.is_innermost]
        region = next(
            node.region for node in WPST(module).region_vertices()
            if node.region is not None and node.region.function is func
            and outer.blocks <= node.region.blocks
        )
        plan = model.build_config(region, ctx, 1, "coupled_only").plan

        def estimate(outer_unroll, inner_unroll):
            config = AcceleratorConfig(
                region=region,
                loop_plans={
                    outer: LoopPlan(outer, outer_unroll, pipelined=False),
                    inner: LoopPlan(inner, inner_unroll, pipelined=True),
                },
                plan=plan,
            )
            return pipe_report(model.estimate(config, ctx))

        lanes, unrolled = estimate(2, 1), estimate(1, 2)
        assert unrolled.ii > lanes.ii
        with empty_unit_caches(model):
            assert estimate(1, 2) == unrolled


#: A distance-2 recurrence along ``j`` inside an unroll-legal ``i`` loop.
LAG2_SOURCE = """
float A[16][34];
void lag() {
  for (int i = 0; i < 16; i++) {
    for (int j = 2; j < 34; j++) {
      A[i][j] = A[i][j - 2] * 0.5f + 1.0f;
    }
  }
}
int main() {
  for (int i = 0; i < 16; i++) {
    for (int j = 0; j < 34; j++) { A[i][j] = (float)(i + j); }
  }
  lag();
  return 0;
}
"""


@pytest.mark.parametrize("name", CROSS_SECTION)
def test_no_solution_holds_a_unit_dfg_twice(name):
    workload = get_workload(name)
    result = Cayman().run(workload.source, entry=workload.entry, name=name)
    for solution in result.front:
        dfgs = [
            id(dfg)
            for accel in solution.accelerators for _, dfg in accel.units
        ]
        assert len(dfgs) == len(set(dfgs)), solution
