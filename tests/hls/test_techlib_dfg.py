"""Tests for the technology library and DFG extraction."""

import pytest

from repro.frontend import compile_source
from repro.hls import (
    DEFAULT_TECHLIB,
    DFG,
    OpInfo,
    TechLibrary,
)
from repro.ir import Load, Store


class TestTechLibrary:
    def test_relative_areas(self):
        lib = DEFAULT_TECHLIB
        assert lib.area("fmul") > lib.area("mul") > lib.area("add") > lib.area("and")
        assert lib.area("fdiv") > lib.area("fadd")

    def test_width_scaling(self):
        lib = DEFAULT_TECHLIB
        assert lib.area("add", 64) > lib.area("add", 32)
        assert lib.op("fadd", 64).cycles == lib.op("fadd", 32).cycles

    def test_latencies(self):
        lib = DEFAULT_TECHLIB
        assert lib.latency_cycles("add") == 0        # chainable
        assert lib.latency_cycles("fadd") >= 1
        assert lib.latency_cycles("fdiv") > lib.latency_cycles("fmul")

    def test_unknown_resource(self):
        with pytest.raises(KeyError):
            DEFAULT_TECHLIB.op("quantum")

    def test_frequency(self):
        assert TechLibrary(clock_ns=2.0).frequency_hz == 500e6
        with pytest.raises(ValueError):
            TechLibrary(clock_ns=0)

    def test_component_areas(self):
        lib = DEFAULT_TECHLIB
        assert lib.scratchpad_area(1024) > lib.scratchpad_area(64)
        assert lib.mux_area(32, 4) > lib.mux_area(32, 2)
        assert lib.mux_area(32, 1) == 0
        assert lib.fsm_area(10) > lib.fsm_area(2)
        assert lib.register_area(64) == 2 * lib.register_area(32)

    def test_dma_cycles(self):
        lib = DEFAULT_TECHLIB
        assert lib.dma_cycles(8) == 1
        assert lib.dma_cycles(9) == 2
        assert lib.dma_cycles(0) == 1


def block_dfg(source, fname, block_name):
    module = compile_source(source, optimize=False)
    func = module.get_function(fname)
    return DFG.from_blocks([func.block_by_name(block_name)])


class TestDFG:
    SRC = """
    float a[16]; float b[16]; float c[16];
    void f(int i) {
      c[i] = a[i] * b[i] + a[i];
    }
    """

    def test_extraction(self):
        dfg = block_dfg(self.SRC, "f", "entry")
        resources = dfg.resource_histogram()
        assert resources.get("load", 0) == 3
        assert resources.get("store", 0) == 1
        assert resources.get("fmul", 0) == 1
        assert resources.get("fadd", 0) == 1
        assert "control" not in resources

    def test_data_edges(self):
        dfg = block_dfg(self.SRC, "f", "entry")
        store = next(n for n in dfg.nodes if isinstance(n.inst, Store))
        fadd = next(n for n in dfg.nodes if n.resource == "fadd")
        assert fadd in store.preds

    def test_topological_order(self):
        dfg = block_dfg(self.SRC, "f", "entry")
        order = dfg.topological_order()
        position = {n: i for i, n in enumerate(order)}
        for node in dfg.nodes:
            for pred in node.all_preds():
                assert position[pred] < position[node]

    def test_memory_ordering_edges_default(self):
        src = """
        float v[8];
        void f() { v[0] = 1.0f; float x = v[0]; v[1] = x + 1.0f; }
        """
        dfg = block_dfg(src, "f", "entry")
        load = next(n for n in dfg.nodes if isinstance(n.inst, Load))
        first_store = next(n for n in dfg.nodes if isinstance(n.inst, Store))
        assert first_store in load.order_preds

    def test_may_alias_hook_removes_edges(self):
        src = """
        float a[8]; float b[8];
        void f() { a[0] = 1.0f; float x = b[0]; b[1] = x; }
        """
        module = compile_source(src, optimize=False)
        func = module.get_function("f")
        never = lambda i, j: False
        dfg = DFG.from_blocks([func.entry], may_alias=never)
        load = next(n for n in dfg.nodes if isinstance(n.inst, Load))
        assert not load.order_preds

    def test_replicate(self):
        dfg = block_dfg(self.SRC, "f", "entry")
        unrolled = dfg.replicate(4)
        assert len(unrolled) == 4 * len(dfg)
        copies = {n.copy for n in unrolled.nodes}
        assert copies == {0, 1, 2, 3}
        # no cross-copy edges
        for node in unrolled.nodes:
            for pred in node.all_preds():
                assert pred.copy == node.copy

    def test_replicate_identity(self):
        dfg = block_dfg(self.SRC, "f", "entry")
        assert dfg.replicate(1) is dfg

    def test_memory_and_compute_partitions(self):
        dfg = block_dfg(self.SRC, "f", "entry")
        assert len(dfg.memory_nodes()) == 4
