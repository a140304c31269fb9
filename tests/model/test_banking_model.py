"""Model-layer banking tests: stable scratchpad port names, verdict-gated
port counts (unproven claims serialize), the reproduction without the
banking proof of the historical optimism, and the per-bank ceil-division
area math (satellite: banked totals never undercut the unbanked buffer)."""

import re

import pytest

from repro.analysis import WPST
from repro.frontend import compile_source
from repro.hls import DEFAULT_TECHLIB
from repro.interp import profile_module
from repro.ir import Load, Store
from repro.model import (
    AcceleratorModel,
    InterfaceAssignment,
    InterfaceKind,
    InterfacePlan,
)
from repro.workloads import get_workload


def build_model(name, **kwargs):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    profile = profile_module(module, entry=workload.entry)
    return module, AcceleratorModel(module, profile, **kwargs)


def spad_configs(module, model, func_name):
    """All generated configs for ``func_name`` that use a scratchpad."""
    wpst = WPST(module, entry_function="main")
    configs = []
    for node in wpst.region_vertices():
        region = node.region
        if region is None or region.function.name != func_name:
            continue
        for config in model.generate_configs(region):
            if config.plan is None:
                continue
            if any(a.kind is InterfaceKind.SCRATCHPAD
                   for a in config.plan.assignments.values()):
                configs.append(config)
    return configs


def max_unroll(config):
    return max((p.unroll for p in config.loop_plans.values()), default=1)


class TestStablePortNames:
    """Satellite: port names must come from a stable per-function group
    index, never from object identity — two builds of the same module
    must agree."""

    def collect(self):
        module, model = build_model("stride2-collider")
        names = set()
        for config in spad_configs(module, model, "collide"):
            names.update(config.plan.spad_port_names().values())
        return names

    def test_names_follow_indexed_pattern(self):
        names = self.collect()
        assert names
        for name in names:
            assert re.fullmatch(r"spad:\d+:\w+", name), name

    def test_names_identical_across_independent_builds(self):
        assert self.collect() == self.collect()


class TestVerdictGatedPorts:
    def named_ports(self, config):
        port_names = config.plan.spad_port_names()
        by_base = {}
        for group, name in port_names.items():
            base = name.split(":")[-1]
            by_base[base] = config.plan.port_counts().get(name)
        return by_base

    def test_unproven_group_serializes_proven_group_keeps_banks(self):
        """stride2-collider at u8: R[i] proves cyclic-8 (16 ports), the
        A[2*i] claim is unprovable and degrades to one dual-ported bank."""
        module, model = build_model("stride2-collider")
        configs = [c for c in spad_configs(module, model, "collide")
                   if max_unroll(c) == 8]
        assert configs
        for config in configs:
            ports = self.named_ports(config)
            assert ports["A"] == 2
            assert ports["R"] == 16

    def test_unproven_claim_keeps_area_banks(self):
        """The unproven group still *prices* the claimed banks: area is a
        hardware claim, ports are a scheduling guarantee."""
        module, model = build_model("stride2-collider")
        for config in spad_configs(module, model, "collide"):
            if max_unroll(config) != 8:
                continue
            for a in config.plan.assignments.values():
                if a.kind is not InterfaceKind.SCRATCHPAD:
                    continue
                name = config.plan.spad_port_names()[a.spad_group]
                if name.endswith(":A"):
                    assert not a.banking_proven
                    assert a.partitions == 8  # claimed, priced
                    assert a.proven_partitions == 1  # scheduled
                    assert a.banking_verdict is not None
                    assert a.banking_verdict.best is None

    def test_no_banking_proof_is_historical_optimism(self):
        module, model = build_model(
            "stride2-collider", proofs=("bitwidth", "reuse")
        )
        configs = [c for c in spad_configs(module, model, "collide")
                   if max_unroll(c) == 8]
        assert configs
        for config in configs:
            ports = self.named_ports(config)
            # The old model trusted the claim: 2 x unroll ports everywhere.
            assert ports["A"] == 16
            assert ports["R"] == 16


class TestBroadcastDeprovision:
    def test_broadcast_load_shrinks_to_one_bank(self):
        """atax's inner product broadcasts tmp[i] across lanes: the proven
        scheme is cyclic-1, so the model builds one bank, not unroll-many."""
        module, model = build_model("atax")
        shrunk = False
        for config in spad_configs(module, model, "atax"):
            if max_unroll(config) < 2:
                continue
            for a in config.plan.assignments.values():
                if (a.kind is InterfaceKind.SCRATCHPAD and a.banking_proven
                        and a.banking is not None
                        and a.banking.banks == 1
                        and max_unroll(config) > 1):
                    shrunk = True
        assert shrunk


def spad_plan(inst, bytes_, partitions):
    plan = InterfacePlan()
    plan.assign(InterfaceAssignment(
        inst=inst, kind=InterfaceKind.SCRATCHPAD, spad_group="G",
        spad_bytes=bytes_, partitions=partitions,
    ))
    return plan


@pytest.fixture(scope="module")
def any_inst():
    module = compile_source(
        """
        float x[16];
        int main() { for (int i = 0; i < 16; i++) x[i] = 1.0f; return 0; }
        """
    )
    for func in module.functions.values():
        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, (Load, Store)):
                    return inst
    raise AssertionError("no memory access")


class TestBankedAreaMath:
    """Satellite: per-bank ceil-division sizing — splitting a buffer into
    banks never *reduces* total SRAM (base cost per bank), and more
    claimed banks never cost less."""

    @pytest.mark.parametrize("bytes_", [64, 1000, 4096, 5000])
    def test_banked_total_at_least_unbanked(self, any_inst, bytes_):
        unbanked = spad_plan(any_inst, bytes_, 1).interface_area(
            DEFAULT_TECHLIB
        )
        for partitions in (2, 4, 8):
            banked = spad_plan(any_inst, bytes_, partitions).interface_area(
                DEFAULT_TECHLIB
            )
            assert banked >= unbanked

    @pytest.mark.parametrize("bytes_", [64, 1000, 4096])
    def test_area_monotone_in_partitions(self, any_inst, bytes_):
        areas = [
            spad_plan(any_inst, bytes_, p).interface_area(DEFAULT_TECHLIB)
            for p in (1, 2, 4, 8, 16)
        ]
        assert areas == sorted(areas)

    def test_ceil_division_covers_odd_footprints(self, any_inst):
        # 1000 bytes over 8 banks: each bank holds ceil(1000/8) = 125 bytes;
        # 8 * 125 = 1000, never 8 * 124 = 992 (which would drop data).
        area_8 = spad_plan(any_inst, 1000, 8).interface_area(DEFAULT_TECHLIB)
        area_exact = spad_plan(any_inst, 8 * 125, 8).interface_area(
            DEFAULT_TECHLIB
        )
        assert area_8 == area_exact
