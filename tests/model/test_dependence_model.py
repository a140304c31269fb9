"""Model-layer dependence tests: leaving ``"dependence"`` out of the
estimator's ``proofs`` prices every memory recurrence at distance 1 and
unrolls no loop that carries a memory dependence, while the full model
uses the proven distances for both."""

import pytest

from repro.analysis import WPST
from repro.frontend import compile_source
from repro.hls.transform import max_safe_unroll
from repro.interp import profile_module
from repro.model import AcceleratorModel
from repro.model.estimator import PROOFS
from repro.workloads import get_workload

#: Workloads whose recurrences have proven distances above 1.
WORKLOADS = ("wave-lag", "seidel-1d")

#: Every estimator proof but dependence.
NO_DEPENDENCE = set(PROOFS) - {"dependence"}


@pytest.fixture(scope="module", params=WORKLOADS)
def program(request):
    workload = get_workload(request.param)
    module = compile_source(workload.source, workload.name)
    profile = profile_module(module, entry=workload.entry)
    wpst = WPST(module, entry_function=workload.entry)
    full = AcceleratorModel(module, profile)
    ablated = AcceleratorModel(module, profile, proofs=NO_DEPENDENCE)
    regions = [
        node.region for node in wpst.region_vertices()
        if full.is_candidate_region(node.region)
    ]
    return full, ablated, regions


def carried_unrolls(model, regions):
    """``(config, loop)`` of every unroll of a loop carrying a memory
    dependence among ``model``'s configs."""
    found = []
    for region in regions:
        memdep = model.context(region.function).memdep
        for config in model.generate_configs(region):
            for plan in config.loop_plans.values():
                if (plan.unroll > 1
                        and max_safe_unroll(plan.loop, memdep) is not None):
                    found.append((config.label, plan.loop.name))
    return found


def test_distance_one_never_lowers_a_pipelined_ii(program):
    full, ablated, regions = program
    pairs = []
    for region in regions:
        ctx = full.context(region.function)
        for config in full.generate_configs(region):
            proven = full.estimate(config, ctx)
            if proven is None:
                continue
            unproven = ablated.estimate(config, ctx)
            pairs.extend(
                (before.ii, after.ii)
                for before, after in zip(unproven.reports, proven.reports)
                if after.kind == "pipelined"
            )
    assert pairs
    assert all(before >= after for before, after in pairs), pairs
    assert any(before > after for before, after in pairs)


def test_no_carried_dependence_loop_is_unrolled(program):
    full, ablated, regions = program
    assert carried_unrolls(ablated, regions) == []
    # The proven distances are what admit those unrolls in the full model.
    assert carried_unrolls(full, regions)
