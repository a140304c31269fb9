"""Data-flow graph extraction for HLS scheduling and accelerator merging."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..ir import (
    Alloca,
    BasicBlock,
    Branch,
    CondBranch,
    Instruction,
    Load,
    Phi,
    Return,
    Store,
    resource_class,
)


def type_bits(ty) -> int:
    """Datapath width of a value of type ``ty``, with explicit fallbacks:
    scalar types carry their declared width, pointers are flat 64-bit byte
    addresses, and anything else (aggregates never materialize as SSA
    values) conservatively occupies one 32-bit word."""
    if ty.is_pointer:
        return 64
    bits = getattr(ty, "bits", None)
    if bits is not None:
        return bits
    return 32


class DFGNode:
    """One operation instance in a data-flow graph.

    ``copy`` distinguishes replicas introduced by loop unrolling; the
    underlying IR instruction is shared between replicas.  ``width``, when
    given, overrides the type-derived width with a (narrower) proven width
    from the bitwidth analysis.  ``resource``, ``bits`` and ``is_memory``
    are derived once here, since the instruction never changes.
    """

    __slots__ = ("inst", "copy", "preds", "succs", "order_preds",
                 "resource", "bits", "is_memory")

    def __init__(
        self, inst: Instruction, copy: int = 0, width: Optional[int] = None
    ):
        self.inst = inst
        self.copy = copy
        self.preds: List["DFGNode"] = []      # data dependences
        self.succs: List["DFGNode"] = []
        self.order_preds: List["DFGNode"] = []  # memory-ordering dependences
        self.resource: str = resource_class(inst)
        self.bits: int = width if width is not None else _type_width(inst)
        self.is_memory: bool = isinstance(inst, (Load, Store))

    def all_preds(self) -> List["DFGNode"]:
        return self.preds + self.order_preds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DFGNode {self.resource} %{self.inst.name}#{self.copy}>"


def _type_width(inst: Instruction) -> int:
    """The datapath width of ``inst``'s type: a store carries its stored
    value's width, any other void instruction one bit."""
    ty = inst.type
    if ty.is_void:
        if isinstance(inst, Store):
            return type_bits(inst.value.type)
        return 1
    return type_bits(ty)


# Instructions that never become datapath nodes.
_EXCLUDED = (Branch, CondBranch, Return, Alloca)


class DFG:
    """A DAG of datapath operations extracted from straight-line IR.

    Data edges follow SSA def-use; memory-ordering edges serialize accesses
    that may conflict (store→load, load→store, store→store on the same or
    unknown base object) to preserve program semantics during scheduling.
    ``may_alias`` customizes the conflict test (the access-pattern analysis
    provides a precise one); by default distinct instruction pairs conflict
    whenever at least one is a store.  ``widths`` optionally maps
    instructions to proven datapath widths (bitwidth analysis); a store
    node takes the width proven for its stored value.

    Nodes and edges are fixed once ``DFG(nodes)`` is built: every
    constructor wires its nodes first, and nothing edits them after.  So
    the topological order (and anything else derived from the graph) is
    computed once and shared by every reader.
    """

    def __init__(self, nodes: List[DFGNode]):
        self.nodes = nodes
        self._order: Optional[List[DFGNode]] = None
        self._memory: Optional[List[DFGNode]] = None

    @classmethod
    def from_blocks(
        cls,
        blocks: Sequence[BasicBlock],
        may_alias=None,
        include_phis: bool = False,
        widths: Optional[Mapping[Instruction, int]] = None,
    ) -> "DFG":
        nodes: List[DFGNode] = []
        node_of: Dict[Instruction, DFGNode] = {}
        block_set = set(blocks)
        last_accesses: List[DFGNode] = []

        for block in blocks:
            for inst in block.instructions:
                if isinstance(inst, _EXCLUDED):
                    continue
                if isinstance(inst, Phi) and not include_phis:
                    continue
                width = None
                if widths is not None:
                    source = inst.value if isinstance(inst, Store) else inst
                    width = widths.get(source)
                node = DFGNode(inst, width=width)
                nodes.append(node)
                node_of[inst] = node
                for operand in inst.operands:
                    if isinstance(operand, Instruction) and operand in node_of:
                        pred = node_of[operand]
                        node.preds.append(pred)
                        pred.succs.append(node)
                if node.is_memory:
                    for earlier in last_accesses:
                        if _conflicts(earlier, node, may_alias):
                            node.order_preds.append(earlier)
                            earlier.succs.append(node)
                    last_accesses.append(node)
        return cls(nodes)

    def replicate(self, factor: int) -> "DFG":
        """``factor`` independent copies of this DFG (loop-unrolling model).

        Copies carry no cross-copy data edges — only unroll-legal loops
        (without loop-carried dependencies) are replicated (paper §III-C).
        """
        if factor <= 1:
            return self
        nodes: List[DFGNode] = []
        for copy in range(factor):
            clone_of: Dict[DFGNode, DFGNode] = {}
            for node in self.nodes:
                clone = DFGNode(node.inst, copy, node.bits)
                clone_of[node] = clone
                clone.preds = [clone_of[p] for p in node.preds]
                clone.order_preds = [clone_of[p] for p in node.order_preds]
                for pred in clone.preds + clone.order_preds:
                    pred.succs.append(clone)
                nodes.append(clone)
        return DFG(nodes)

    # Queries ---------------------------------------------------------------------

    def memory_nodes(self) -> List[DFGNode]:
        """The load and store nodes in node order; the same list on every
        call."""
        if self._memory is None:
            self._memory = [n for n in self.nodes if n.is_memory]
        return self._memory

    def topological_order(self) -> List[DFGNode]:
        """A topological order of the nodes; the same list on every call."""
        if self._order is None:
            indegree = {node: len(node.all_preds()) for node in self.nodes}
            ready = [node for node in self.nodes if indegree[node] == 0]
            order: List[DFGNode] = []
            while ready:
                node = ready.pop()
                order.append(node)
                for succ in node.succs:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        ready.append(succ)
            if len(order) != len(self.nodes):
                raise ValueError("DFG contains a cycle")
            self._order = order
        return self._order

    def resource_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for node in self.nodes:
            histogram[node.resource] = histogram.get(node.resource, 0) + 1
        return histogram

    def __len__(self) -> int:
        return len(self.nodes)


def _conflicts(first: DFGNode, second: DFGNode, may_alias) -> bool:
    if not (isinstance(first.inst, Store) or isinstance(second.inst, Store)):
        return False
    if may_alias is not None:
        return may_alias(first.inst, second.inst)
    return True
