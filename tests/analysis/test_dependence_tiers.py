"""Which tier decides each access pair across the whole registry.

Every loop of every workload is asked for its loop-carried dependences
through the module's facts bundle, under telemetry.  Distinct bases are
settled by the points-to verdicts; every same-base pair goes to the affine
tester, or stays carried with unknown distance (``conservative``) when the
tester cannot decide it.
"""

from repro.analysis.facts import ModuleFacts
from repro.frontend import compile_source
from repro.telemetry import Telemetry, use
from repro.workloads import all_workloads

TIERS = {"vector", "alias", "base_disjoint", "unknown_base", "conservative"}


def test_registry_pairs_are_decided_by_the_remaining_tiers():
    tele = Telemetry()
    with use(tele):
        for workload in all_workloads():
            module = compile_source(workload.source, workload.name)
            facts = ModuleFacts.of(module)
            for func in module.defined_functions():
                ctx = facts.context(func)
                for loop in ctx.loop_info.loops:
                    ctx.memdep.loop_carried(loop)
    prefix = "dependence.tier."
    tiers = {
        name[len(prefix):]: value
        for name, value in tele.snapshot()["counters"].items()
        if name.startswith(prefix)
    }
    assert set(tiers) <= TIERS
    assert tiers == {
        "vector": 816, "base_disjoint": 621, "conservative": 66, "alias": 4,
    }
    assert sum(tiers.values()) == 1507
