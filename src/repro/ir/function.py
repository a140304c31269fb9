"""Functions and basic blocks of the repro IR."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, TYPE_CHECKING

from .instructions import Branch, Call, CondBranch, Instruction, Phi
from .types import FunctionType, Type
from .values import Argument, Value

if TYPE_CHECKING:  # pragma: no cover
    from .module import Module


class BasicBlock:
    """A maximal straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # Mutation -----------------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"block {self.name} already has a terminator")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        """Insert ``inst`` just before this block's terminator (or append)."""
        inst.parent = self
        if self.is_terminated:
            self.instructions.insert(len(self.instructions) - 1, inst)
        else:
            self.instructions.append(inst)
        return inst

    def insert_front(self, inst: Instruction) -> Instruction:
        """Insert at the front (after any existing phis if ``inst`` is not a phi)."""
        inst.parent = self
        if isinstance(inst, Phi):
            self.instructions.insert(0, inst)
        else:
            index = len(list(self.phis()))
            self.instructions.insert(index, inst)
        return inst

    # Structure ------------------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return term.successors  # type: ignore[attr-defined]

    @property
    def predecessors(self) -> List["BasicBlock"]:
        """Blocks of the parent function that branch here, in function
        order, each once.  Rebuilt from every block on each read, so it
        stays right while a pass edits the CFG; a reader of a fixed CFG
        takes :meth:`Function.predecessor_map` once instead."""
        if self.parent is None:
            return []
        return self.parent.predecessor_map()[self]

    @property
    def has_call(self) -> bool:
        return any(isinstance(inst, Call) for inst in self.instructions)

    def phis(self) -> Iterator[Phi]:
        for inst in self.instructions:
            if isinstance(inst, Phi):
                yield inst
            else:
                break

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        """Retarget this block's terminator from ``old`` to ``new``."""
        term = self.terminator
        if isinstance(term, Branch):
            if term.target is old:
                term.target = new
        elif isinstance(term, CondBranch):
            if term.true_target is old:
                term.true_target = new
            if term.false_target is old:
                term.false_target = new

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines.extend(f"  {inst}" for inst in self.instructions)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function(Value):
    """An IR function: an argument list plus an ordered list of basic blocks.

    The first block is the entry block.  ``Function`` is itself a value (of
    :class:`~repro.ir.types.FunctionType`) so :class:`Call` instructions can
    reference it directly.
    """

    def __init__(
        self,
        name: str,
        return_type: Type,
        param_types: List[Type],
        param_names: Optional[List[str]] = None,
        parent: Optional["Module"] = None,
    ):
        super().__init__(FunctionType(return_type, tuple(param_types)), name)
        if param_names is None:
            param_names = [f"arg{i}" for i in range(len(param_types))]
        if len(param_names) != len(param_types):
            raise ValueError("param_names length mismatch")
        self.arguments = [
            Argument(ty, nm, i)
            for i, (ty, nm) in enumerate(zip(param_types, param_names))
        ]
        self.blocks: List[BasicBlock] = []
        self.parent = parent
        self._block_names: set = set()

    @property
    def return_type(self) -> Type:
        return self.type.return_type  # type: ignore[attr-defined]

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    def add_block(self, name: str = "bb") -> BasicBlock:
        unique = name
        counter = 0
        while unique in self._block_names:
            counter += 1
            unique = f"{name}.{counter}"
        self._block_names.add(unique)
        block = BasicBlock(unique, self)
        self.blocks.append(block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        self._block_names.discard(block.name)
        block.parent = None

    def block_by_name(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"no block named {name} in {self.name}")

    def predecessor_map(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Every block's predecessors (function order, each once), from one
        pass over the blocks: a snapshot of the CFG as it is now."""
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors:
                listed = preds.get(succ)
                if listed is not None and (not listed or listed[-1] is not block):
                    listed.append(block)
        return preds

    def reverse_postorder(self) -> List[BasicBlock]:
        """Blocks reachable from the entry, in reverse post-order of a
        depth-first search that takes each block's successors in order."""
        postorder: List[BasicBlock] = []
        visited = {self.entry}
        stack = [(self.entry, iter(self.entry.successors))]
        while stack:
            block, succs = stack[-1]
            for succ in succs:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.successors)))
                    break
            else:
                stack.pop()
                postorder.append(block)
        postorder.reverse()
        return postorder

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    @property
    def ref(self) -> str:
        return f"@{self.name}"

    def __str__(self) -> str:
        params = ", ".join(
            f"{arg.type} %{arg.name}" for arg in self.arguments
        )
        header = f"func {self.return_type} @{self.name}({params})"
        if self.is_declaration:
            return header + ";"
        body = "\n".join(str(block) for block in self.blocks)
        return f"{header} {{\n{body}\n}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function @{self.name} ({len(self.blocks)} blocks)>"
