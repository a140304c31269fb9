"""Config dedup before estimation.

``AcceleratorModel._candidates_uncached`` skips a config whose
``estimate_key`` equals an earlier config's of the same region. These
tests pin that the key is complete, so the skip is invisible: configs
with equal keys get equal estimates, and the candidates equal those of
estimating every config.
"""

import dataclasses

import pytest

from repro.model import AcceleratorModel, InterfaceKind, InterfacePlan
from repro.model.estimator import estimate_key

from .test_unit_cache import CROSS_SECTION, VARIANTS, configs, fingerprint
from .test_unit_cache import program, with_plan

#: Per assignment field, a change to a scratchpad access (None: the field
#: does not apply to it).
CHANGES = {
    "kind": lambda a: InterfaceKind.COUPLED,
    "spad_bytes": lambda a: 2 * a.spad_bytes + 64,
    "partitions": lambda a: a.partitions + 1,
    "banking_proven": lambda a: not a.banking_proven,
    "reuse_distance": lambda a: (
        None if a.reuse_distance is None else a.reuse_distance + 1),
    "reuse_depth": lambda a: a.reuse_depth + 1 if a.reuse_buffered else None,
    "reuse_bits": lambda a: a.reuse_bits + 8 if a.reuse_buffered else None,
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", CROSS_SECTION)
def test_equal_keys_give_equal_estimates(name, variant):
    module, profile, wpst = program(name)
    cls, kwargs = VARIANTS[variant]
    model = cls(module, profile, **kwargs)
    first = {}
    repeats = 0
    for config, ctx in configs(model, wpst):
        key = (config.region, estimate_key(config))
        estimate = fingerprint(model.estimate(config, ctx))
        if key in first:
            assert estimate == first[key], config.describe()
            repeats += 1
        else:
            first[key] = estimate
    if variant == "default":
        assert repeats, "no two configs share a key: the check is vacuous"


def estimate_every_config(model, region):
    """The candidates as estimated without the dedup: every config, then
    only the first of each ``(cycles, area)``."""
    ctx = model.context(region.function)
    seen, kept = set(), []
    for config in model.generate_configs(region):
        estimate = model.estimate(config, ctx)
        if estimate is None or not estimate.is_profitable:
            continue
        signature = (round(estimate.cycles), round(estimate.area))
        if signature not in seen:
            seen.add(signature)
            kept.append(estimate)
    return kept


@pytest.mark.parametrize("name", CROSS_SECTION)
def test_candidates_equal_estimating_every_config(name):
    module, profile, wpst = program(name)
    cls, kwargs = VARIANTS["default"]
    model = cls(module, profile, **kwargs)
    for node in wpst.region_vertices():
        expected = []
        if node.region is not None and model.is_candidate_region(node.region) \
                and profile.region_count(node.region) > 0:
            expected = estimate_every_config(model, node.region)
        got = model.candidates(node)
        assert [(e.config.label, fingerprint(e)) for e in got] == [
            (e.config.label, fingerprint(e)) for e in expected
        ]


@pytest.mark.parametrize("field", sorted(CHANGES))
def test_a_field_that_moves_the_estimate_moves_the_key(field):
    """Change one field of one scratchpad access: whenever the estimate
    moves, so does the key, and some change does move the estimate. A low
    reuse-factor gate (``beta``) hands these workloads scratchpads, and
    stencil-reuse-3 its reuse buffers."""
    moved = 0
    for name in CROSS_SECTION:
        module, profile, wpst = program(name)
        model = AcceleratorModel(module, profile, beta=0.5)
        for config, ctx in configs(model, wpst):
            before = fingerprint(model.estimate(config, ctx))
            for inst, access in config.plan.assignments.items():
                if access.kind is not InterfaceKind.SCRATCHPAD:
                    continue
                value = CHANGES[field](access)
                if value is None:
                    continue
                plan = InterfacePlan()
                for other in config.plan.assignments.values():
                    plan.assign(dataclasses.replace(
                        other, **({field: value} if other is access else {})
                    ))
                changed = with_plan(config, plan)
                if fingerprint(model.estimate(changed, ctx)) != before:
                    assert estimate_key(changed) != estimate_key(config)
                    moved += 1
                break
    assert moved, f"no change of {field} moved an estimate"
