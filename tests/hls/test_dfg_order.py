"""A DFG is fixed once built: its topological order is computed once and
read by scheduling, the recurrence bound and RTL, and each node's
resource class and width are set when the node is made."""

import sys
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import Novia
from repro.framework import Cayman
from repro.hls import DEFAULT_TECHLIB, DFG, AccessTiming
from repro.hls import pipeline
from repro.hls.dfg import DFGNode, type_bits
from repro.hls.scheduling import critical_path_cycles
from repro.ir import (
    F32, I32, VOID, ArrayType, IRBuilder, Load, Module, Store, resource_class,
)
from repro.workloads.registry import get_workload, workload_names


def kahn_order(dfg, first_in_first_out=False):
    """A fresh Kahn sort, ready nodes taken last in first out (as
    :meth:`DFG.topological_order` takes them) or first in first out."""
    indegree = {node: len(node.preds) + len(node.order_preds)
                for node in dfg.nodes}
    ready = deque(node for node in dfg.nodes if indegree[node] == 0)
    order = []
    while ready:
        node = ready.popleft() if first_in_first_out else ready.pop()
        order.append(node)
        for succ in node.succs:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    assert len(order) == len(dfg.nodes)
    return order


def reference_critical_path(dfg, techlib, access_timing, source, sink):
    """The longest ``source`` to ``sink`` latency, swept over a whole
    topological order of its own (a different one from the DFG's)."""

    def latency(node):
        if node.is_memory:
            return max(1, access_timing(node).latency)
        info = techlib.op(node.resource, node.bits)
        return info.cycles if info.cycles > 0 else info.delay_ns / techlib.clock_ns

    longest = {}
    for node in kahn_order(dfg, first_in_first_out=True):
        if node is source:
            longest[node] = latency(node)
            continue
        reached = [longest[pred] for pred in node.preds + node.order_preds
                   if pred in longest]
        if reached:
            longest[node] = max(reached) + latency(node)
    if sink not in longest:
        return 1
    return max(1, round(longest[sink]))


@pytest.mark.parametrize("name", workload_names())
def test_critical_path_matches_a_full_sweep_on_every_priced_recurrence(
    name, monkeypatch
):
    priced = []

    def checked(dfg, techlib, access_timing, source, sink):
        cycles = critical_path_cycles(dfg, techlib, access_timing, source, sink)
        assert cycles == reference_critical_path(
            dfg, techlib, access_timing, source, sink)
        priced.append(cycles)
        return cycles

    monkeypatch.setattr(pipeline, "critical_path_cycles", checked)
    workload = get_workload(name)
    Cayman(merging=False).run(
        workload.source, entry=workload.entry, name=name)
    if name in ("atax", "gramschmidt", "seidel-1d", "iir-interleaved"):
        assert priced


def _instructions():
    """One instruction per kind of latency: a load, a store, an integer
    add, a float multiply."""
    module = Module("m")
    module.add_global("A", ArrayType(F32, 8))
    func = module.add_function("f", VOID, [I32, F32], ["i", "x"])
    b = IRBuilder(func.add_block("entry"))
    i, x = func.arguments
    slot = b.gep(module.globals["A"], [IRBuilder.const_i32(0), i], "slot")
    loaded = b.load(slot, "v")
    product = b.fmul(loaded, x, "p")
    total = b.add(i, IRBuilder.const_i32(1), "t")
    b.store(product, slot)
    b.ret()
    return [inst for inst in func.entry.instructions
            if isinstance(inst, (Load, Store)) or inst in (product, total)]


INSTRUCTIONS = _instructions()


@st.composite
def random_dag(draw):
    """A random DAG of data and order edges, its nodes listed out of order
    so that list order is not a topological order."""
    count = draw(st.integers(1, 14))
    nodes = []
    for copy in range(count):
        inst = draw(st.sampled_from(INSTRUCTIONS))
        node = DFGNode(inst, copy)
        for pred in nodes:
            edge = draw(st.integers(0, 5))
            if edge == 0:
                node.preds.append(pred)
            elif edge == 1:
                node.order_preds.append(pred)
            else:
                continue
            pred.succs.append(node)
        nodes.append(node)
    shuffled = draw(st.permutations(nodes))
    return DFG(list(shuffled))


def _timing(node):
    return AccessTiming(latency=1 + node.copy % 3, port=None)


@given(random_dag(), st.data())
@settings(max_examples=150, deadline=None)
def test_critical_path_matches_a_full_sweep_on_random_dags(dfg, data):
    source = data.draw(st.sampled_from(dfg.nodes))
    sink = data.draw(st.sampled_from(dfg.nodes))
    assert critical_path_cycles(
        dfg, DEFAULT_TECHLIB, _timing, source, sink
    ) == reference_critical_path(dfg, DEFAULT_TECHLIB, _timing, source, sink)


@given(random_dag())
@settings(max_examples=60, deadline=None)
def test_topological_order_is_computed_once(dfg):
    order = dfg.topological_order()
    assert dfg.topological_order() is order
    assert order == kahn_order(dfg)


def test_a_cyclic_graph_is_rejected():
    first, second = (DFGNode(inst) for inst in INSTRUCTIONS[:2])
    first.preds.append(second)
    second.preds.append(first)
    first.succs.append(second)
    second.succs.append(first)
    with pytest.raises(ValueError):
        DFG([first, second]).topological_order()


def type_width(inst):
    """The width a node of ``inst`` has without a proven width."""
    if inst.type.is_void:
        return type_bits(inst.value.type) if isinstance(inst, Store) else 1
    return type_bits(inst.type)


def assert_node_attributes(dfg, built_width):
    """``built_width`` maps each node to the width it was built with."""
    for node in dfg.nodes:
        assert node.resource == resource_class(node.inst)
        width = built_width[node]
        assert node.bits == (type_width(node.inst) if width is None else width)
        assert node.is_memory == isinstance(node.inst, (Load, Store))


def build_every_dfg(name, monkeypatch):
    """Run Cayman (merged units' DFGs included) and Novia on workload
    ``name``; return each DFG built, filed by the constructor that built
    it, and the width each node was built with."""
    built = {}
    built_width = {}
    init, node_init = DFG.__init__, DFGNode.__init__

    def recording(dfg, nodes):
        init(dfg, nodes)
        # Every constructor ends in ``DFG(nodes)``: file it by caller.
        built.setdefault(sys._getframe(1).f_code.co_name, []).append(dfg)

    def recording_node(node, inst, copy=0, width=None):
        node_init(node, inst, copy, width)
        built_width[node] = width

    monkeypatch.setattr(DFG, "__init__", recording)
    monkeypatch.setattr(DFGNode, "__init__", recording_node)
    workload = get_workload(name)
    result = Cayman().run(workload.source, entry=workload.entry, name=name)
    for merged in result.merged:
        for unit in merged.units:
            unit.dfg
    Novia().run(workload.source, entry=workload.entry, name=name)
    monkeypatch.undo()
    return built, built_width


@pytest.mark.parametrize("name", ["atax", "gramschmidt", "cjpeg"])
def test_every_constructor_sets_node_attributes(name, monkeypatch):
    """Nodes from ``from_blocks`` (with proven widths), ``replicate``,
    ``_OpIndex.to_dfg`` and Novia's ``compute_subdfg`` all carry their
    instruction's resource class, width and memory flag."""
    built, built_width = build_every_dfg(name, monkeypatch)
    assert {"from_blocks", "replicate", "to_dfg", "compute_subdfg"} <= set(
        built)
    for dfgs in built.values():
        for dfg in dfgs:
            assert_node_attributes(dfg, built_width)
    assert any(built_width[node] is not None
               for dfg in built["from_blocks"] for node in dfg.nodes)


def test_memory_nodes_are_listed_once(monkeypatch):
    """A DFG lists its memory nodes once: every call returns the same
    list, equal to a fresh scan of the nodes, whichever constructor built
    the DFG."""
    built, _ = build_every_dfg("gramschmidt", monkeypatch)
    for constructor in ("from_blocks", "replicate", "to_dfg"):
        assert built[constructor], constructor
        for dfg in built[constructor]:
            nodes = dfg.memory_nodes()
            assert dfg.memory_nodes() is nodes
            assert nodes == [node for node in dfg.nodes if node.is_memory]
    assert any(dfg.memory_nodes() for dfg in built["to_dfg"])


def test_replicas_keep_a_proven_width():
    """A replica of a node built with a proven width has that width, not
    its type's."""
    func = Module("m").add_function("f", I32, [I32], ["n"])
    builder = IRBuilder(func.add_block("entry"))
    total = builder.add(func.arguments[0], IRBuilder.const_i32(3), "t")
    builder.ret(builder.mul(total, total, "s"))
    dfg = DFG.from_blocks([func.entry], widths={total: 9})
    replicas = dfg.replicate(3)
    assert [node.bits for node in dfg.nodes] == [9, 32]
    assert [node.bits for node in replicas.nodes] == [9, 32] * 3
