"""Model-layer reuse tests: proven pairs become shift-register buffers
(port-free timing, partitions dropped to one, register-chain area),
banking verdicts only cover the remaining port accesses, estimates price
the buffer warm-up, and leaving ``"reuse"`` out of the estimator's
``proofs`` reproduces the buffer-less behavior exactly."""

import pytest

from repro.analysis import WPST
from repro.frontend import compile_source
from repro.hls import DEFAULT_TECHLIB
from repro.interp import profile_module
from repro.model import AcceleratorModel, InterfaceKind
from repro.model.estimator import ESTIMATOR_VERSION
from repro.workloads import get_workload


#: Every estimator proof but reuse.
NO_REUSE = ("bitwidth", "banking")


def build_model(name, **kwargs):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    profile = profile_module(module, entry=workload.entry)
    # The reuse workloads read each element only a handful of times, so the
    # default reuse-factor gate (beta=4) would never hand them a scratchpad.
    kwargs.setdefault("beta", 0.5)
    return module, AcceleratorModel(module, profile, **kwargs)


class _Node:
    """Minimal DFG-node stand-in for ``InterfacePlan.access_timing``."""

    def __init__(self, inst):
        self.inst = inst


def spad_configs(module, model, func_name):
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


def buffered_assignments(config):
    return [
        a for a in config.plan.assignments.values() if a.reuse_buffered
    ]


class TestBufferedAssignments:
    def test_stencil_consumers_are_buffered(self):
        module, model = build_model("stencil-reuse-3")
        configs = spad_configs(module, model, "stencil")
        assert configs
        buffered = max(
            (buffered_assignments(c) for c in configs), key=len
        )
        # Two of the three window taps chain to the leading load.
        assert len(buffered) == 2
        assert sorted(a.reuse_distance for a in buffered) == [1, 2]
        sources = {a.reuse_source for a in buffered}
        assert len(sources) == 1
        for a in buffered:
            assert a.partitions == 1
            assert a.reuse_depth >= a.reuse_distance
            assert a.reuse_bits == 32  # float element

    def test_buffered_timing_is_port_free(self):
        module, model = build_model("stencil-reuse-3")
        for config in spad_configs(module, model, "stencil"):
            for assignment in buffered_assignments(config):
                timing = config.plan.access_timing(_Node(assignment.inst))
                assert timing.port is None
                assert timing.latency == 1

    def test_register_chain_area_is_priced(self):
        module, model = build_model("stencil-reuse-3")
        config = max(
            spad_configs(module, model, "stencil"),
            key=lambda c: len(buffered_assignments(c)),
        )
        area = config.plan.reuse_register_area(DEFAULT_TECHLIB)
        buffered = buffered_assignments(config)
        depth = max(a.reuse_depth for a in buffered)
        assert area == pytest.approx(
            DEFAULT_TECHLIB.register_area(32) * depth
        )
        assert config.plan.interface_area(DEFAULT_TECHLIB) >= area

    def test_breaker_never_buffered(self):
        module, model = build_model("reuse-breaker")
        for config in spad_configs(module, model, "brk"):
            assert buffered_assignments(config) == []


class TestProveReuseFlag:
    def test_flag_off_reproduces_portful_plans(self):
        module, model = build_model("stencil-reuse-3", proofs=NO_REUSE)
        for config in spad_configs(module, model, "stencil"):
            assert buffered_assignments(config) == []
            for a in config.plan.assignments.values():
                assert a.reuse_source is None
                assert a.reuse_distance is None

    def test_buffers_reduce_port_pressure(self):
        module_on, model_on = build_model("stencil-reuse-3")
        module_off, model_off = build_model(
            "stencil-reuse-3", proofs=NO_REUSE
        )

        def spad_ports(module, model):
            total = {}
            for config in spad_configs(module, model, "stencil"):
                for port, count in config.plan.port_counts().items():
                    if port.startswith("spad:"):
                        key = (config.label, port)
                        total[key] = count
            return total

        on = spad_ports(module_on, model_on)
        off = spad_ports(module_off, model_off)
        assert set(on) == set(off)
        assert all(on[key] <= off[key] for key in on)

    def test_estimator_version_bumped(self):
        assert ESTIMATOR_VERSION == "6"


class TestEstimates:
    def test_estimates_stay_finite_and_comparable(self):
        module, model = build_model("stencil-reuse-3")
        wpst = WPST(module, entry_function="main")
        node = next(
            n for n in wpst.region_vertices()
            if n.region is not None
            and n.region.function.name == "stencil"
        )
        ctx = model.context(node.region.function)
        estimates = [
            model.estimate(config, ctx)
            for config in model.generate_configs(node.region)
            if config.plan is not None
        ]
        assert estimates
        for est in estimates:
            assert est.cycles > 0
            assert est.area > 0
