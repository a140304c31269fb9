"""Whole-application program structure tree (wPST), paper §III-B.

The wPST extends the per-function PSTs with a *root* vertex for the entire
application and one *function* vertex per defined function.  Its region
vertices (``bb`` and ``ctrl-flow``) are the legal acceleration candidates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..ir import BasicBlock, Function, Module
from .regions import ProgramStructureTree, Region


class WPSTNode:
    """One vertex of the wPST."""

    def __init__(
        self,
        kind: str,
        name: str,
        function: Optional[Function] = None,
        region: Optional[Region] = None,
    ):
        if kind not in ("root", "function", "ctrl-flow", "bb"):
            raise ValueError(f"invalid wPST vertex kind {kind!r}")
        self.kind = kind
        self.name = name
        self.function = function
        self.region = region
        self.parent: Optional["WPSTNode"] = None
        self.children: List["WPSTNode"] = []

    def add_child(self, child: "WPSTNode") -> None:
        child.parent = self
        self.children.append(child)

    @property
    def is_region(self) -> bool:
        """True for vertices that are legal acceleration candidates."""
        return self.kind in ("ctrl-flow", "bb")

    @property
    def block(self) -> Optional[BasicBlock]:
        """The basic block of a ``bb`` vertex."""
        if self.kind == "bb" and self.region is not None:
            return self.region.entry
        return None

    def walk(self) -> Iterator["WPSTNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WPSTNode {self.kind} {self.name}>"


class WPST:
    """The whole-application program structure tree of a module."""

    def __init__(self, module: Module, entry_function: str = "main"):
        self.module = module
        self.entry_function = entry_function
        self.root = WPSTNode("root", module.name)
        self.psts: Dict[str, ProgramStructureTree] = {}
        self.function_nodes: Dict[str, WPSTNode] = {}
        self._build()

    def _build(self) -> None:
        for func in self.module.defined_functions():
            pst = ProgramStructureTree(func)
            self.psts[func.name] = pst
            func_node = WPSTNode("function", func.name, function=func)
            self.root.add_child(func_node)
            self.function_nodes[func.name] = func_node
            for region in sorted(pst.top_level, key=lambda r: r.entry.name):
                func_node.add_child(self._build_region_node(region))

    def _build_region_node(self, region: Region) -> WPSTNode:
        node = WPSTNode(region.kind, region.name, function=region.function,
                        region=region)
        for child in sorted(region.children, key=lambda r: (r.kind, r.entry.name)):
            node.add_child(self._build_region_node(child))
        return node

    # Queries --------------------------------------------------------------------

    def region_vertices(self) -> List[WPSTNode]:
        """All ``bb`` and ``ctrl-flow`` vertices (the acceleration candidates)."""
        return [node for node in self.root.walk() if node.is_region]

    def ctrl_flow_vertices(self) -> List[WPSTNode]:
        return [n for n in self.region_vertices() if n.kind == "ctrl-flow"]

    def dump(self) -> str:
        """Indented textual rendering of the whole tree."""
        lines: List[str] = []

        def visit(node: WPSTNode, depth: int) -> None:
            lines.append("  " * depth + f"[{node.kind}] {node.name}")
            for child in node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)
