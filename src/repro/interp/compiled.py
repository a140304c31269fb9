"""Compile-once execution engine: each IR function as one Python function.

Where the reference interpreter (``interpreter.py``) re-decides everything
per executed instruction, this module translates each IR function once
(``docs/interpreter.md`` has the details).  SSA values are locals, phis one
tuple assignment per edge, and each Load/Store is checked or not per
elision mode (one program per mode, cached on the interpreter).

* **Structured control flow**: each natural loop is a ``while True:`` (back
  edges ``continue``, its exit ``break``) and every other block is emitted
  once, in place, placed by the dominator tree as in Ramsey's "Beyond
  Relooper" (Calyx's ``seq``/``if``/``while`` shape).  A function Python
  cannot express so (irreducible, a jump no ``if``/``break``/``continue``
  reaches, over 20 nested loops or 99 indentation levels) gets the
  **dispatch shape**: a ``while True:`` over a local block index, built
  from the same per-block code.
* **Derived counters** (Knuth-Stevenson / Ball-Larus optimal edge
  profiling): only function entries and the chords off a spanning tree of
  the CFG plus a virtual exit→entry edge are counted.  After each top-level
  call ``_flush`` derives every edge and block count by flow conservation,
  and the rest as per-block constants times block counts.  A profiled block
  that calls keeps a dynamic cycle delta (its cycles include the callee's).

Every successful run is **bit-identical** to the reference: results,
memory, ``cycles``, ``instructions``, access counts and ``ProfileCounters``.
The divergence is *error timing*: the instruction limit is checked against
a lower bound at loop headers and function entries, and exactly once the
top-level call returns; a run within it never raises.  A run that raises
leaves the counters as they were.  Instrumentation is source lines
(``Interpreter._compile_result``, ``_compile_access``, ``_compile_edge``)
spliced in where the reference's ``_execute`` and ``_on_block_transition``
overrides run.
"""

from __future__ import annotations

import math
import struct
from itertools import takewhile
from typing import Dict, List, Optional, Tuple

from ..analysis.cfg import predecessor_map, reverse_postorder
from ..analysis.loops import LoopInfo
from ..ir import (
    Alloca, ArrayType, BinaryOp, Call, Cast, Constant, FCmp, FloatType,
    Function, GetElementPtr, GlobalVariable, ICmp, Load, Phi, PointerType,
    Return, Select, Store, UnaryOp, UndefValue, resource_class, sizeof,
)
from .cpu_model import instruction_cycles
from .interpreter import ExecutionLimitExceeded, InterpreterError, _c_div, _c_rem
from .memory import MemoryError_

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

_ICMP_OP = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_FCMP_OP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}
_PYOP = {
    "fadd": "+", "fsub": "-", "fmul": "*", "fdiv": "/", "add": "+", "sub": "-",
    "mul": "*", "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>",
    "neg": "-", "not": "~",
}

#: CPython 3.11 compiles 20 nested ``while`` statements but not 21, and 99
#: indentation levels but not 100.
_MAX_LOOPS, _MAX_INDENT = 20, 99

#: The virtual exit node every return edge enters.
_EXIT = object()


def _wrap_expr(expr: str, bits: int) -> str:
    """Source for two's-complement wrap of ``expr``; mirrors ``_wrap_int``."""
    if bits <= 1:
        return f"(({expr}) & 1)"
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    return f"(((({expr}) & {mask}) ^ {sign}) - {sign})"


def _round32(expr: str) -> str:
    """Source rounding a float to storable float32 precision."""
    return f"_UPK4(_PK4({expr}))[0]"


def _raise(message: str) -> str:
    return f"raise InterpreterError({message!r})"


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _phis(block) -> List:
    """The block's leading phis, which the edges into it assign."""
    return list(takewhile(lambda inst: isinstance(inst, Phi), block.instructions))


def _tail(block) -> List:
    """The block's instructions from the first non-phi on."""
    return block.instructions[len(_phis(block)):]


class _Unstructured(Exception):
    """A CFG shape structured emission cannot express."""


class CompiledProgram:
    """All defined functions of a module compiled for one elision mode.

    Instances are created lazily by :meth:`Interpreter._program` and cached
    per ``elide`` flag; ``invoke`` runs one top-level call and derives the
    counters into the owning interpreter.  ``shapes`` maps each function to
    ``"structured"`` or ``"dispatch"``.
    """

    def __init__(self, interp, elide: bool):
        self.interp = interp
        self.elide = elide
        self.profile = interp.profile
        # The limit lower bound finished activations retired, and their own
        # cycles (a profiled call block reads the delta over its calls).
        self._ic, self._cy = [0], [0]
        self._bound: Dict[int, str] = {}
        memory = interp.memory
        self.ns: Dict = {
            "InterpreterError": InterpreterError, "MemoryError_": MemoryError_,
            "_c_div": _c_div, "_c_rem": _c_rem, "_sqrt": math.sqrt,
            "_PK4": _F32.pack, "_UPK4": _F32.unpack, "_UPF4": _F32.unpack_from,
            "_PKI4": _F32.pack_into, "_UPF8": _F64.unpack_from,
            "_PKI8": _F64.pack_into, "_ifb": int.from_bytes,
            # ``data`` is mutated in place and never reassigned.
            "D": memory.data, "ALLOC": memory.allocate,
            "IC": self._ic, "CY": self._cy, "MX": 0, "LIM": self._limit,
        }
        self._mem_size = memory.size
        defined = list(interp.module.defined_functions())
        self._func_index = {func: fi for fi, func in enumerate(defined)}
        self._callees = {inst.callee for func in defined
                         for inst in func.instructions() if isinstance(inst, Call)}
        #: per function: (func, cells, weights, flows, blocks), see _counting
        self._counts: List[Tuple] = []
        self.shapes: Dict[Function, str] = {}
        name = getattr(interp.module, "name", "module")
        chunks: List[str] = []
        for fi, func in enumerate(defined):
            chunks.append(_FunctionCompiler(self, fi, func).emit())
            code = compile(
                chunks[-1], f"<repro-compiled:{name}:elide={elide}>", "exec"
            )
            exec(code, self.ns)
        self._invokers = {func: self.ns[f"_f{fi}"] for func, fi in self._func_index.items()}
        self.source = "\n".join(chunks)  # kept for debugging / docs examples

    # Namespace plumbing -------------------------------------------------------

    def bind(self, obj, prefix: str) -> str:
        """Bind a Python object into the generated code's namespace; an
        object bound again keeps its first name."""
        name = self._bound.get(id(obj))
        if name is None:
            name = f"{prefix}{len(self._bound) + 1}"
            self._bound[id(obj)] = name
            self.ns[name] = obj
        return name

    # Execution ----------------------------------------------------------------

    def _limit(self) -> None:
        raise ExecutionLimitExceeded(f"exceeded {self.interp.max_instructions} instructions")

    def invoke(self, func: Function, args: List):
        """Run one top-level call of ``func`` and derive the counters."""
        interp = self.interp
        self.ns["MX"] = interp.max_instructions - interp.instructions
        self._ic[0] = self._cy[0] = 0
        try:
            result = self._invokers[func](*args)
        except BaseException:
            for counts in self._counts:  # open activations break conservation
                counts[1][:] = [0] * len(counts[1])
            raise
        self._flush()
        if interp.instructions > interp.max_instructions:
            self._limit()
        return result

    def _flush(self) -> None:
        """Derive the totals, and under profiling the edge and block
        counts, from the counter cells; then clear the cells."""
        interp = self.interp
        tally = interp._tally or []
        totals = [0] * (4 + len(tally))
        for func, cells, weights, flows, blocks in self._counts:
            if not cells[0]:  # never entered: every cell is zero
                continue
            for n, weight in zip(cells, weights):
                if n:
                    for row, w in enumerate(weight):
                        totals[row] += n * w
            if self.profile:
                _record(interp.counters, func, cells, flows, blocks)
            cells[:] = [0] * len(cells)
        interp.instructions += totals[0]
        interp.cycles += totals[1]
        interp.elided_accesses += totals[2]
        interp.checked_accesses += totals[3]
        for cell, n in enumerate(totals[4:]):
            tally[cell] += n


def _record(counters, func, cells, flows, blocks) -> None:
    """Add one function's edge, block and entry counts; a zero count is
    never written."""
    counts: Dict = {}
    for n, flow in zip(cells, flows):
        if n:
            for key, coeff in flow:
                counts[key] = counts.get(key, 0) + coeff * n
    edges = counters.edge_count
    for key, n in counts.items():
        if n and isinstance(key, tuple):
            edges[key] = edges.get(key, 0) + n
    for block, insts, own, delta in blocks:
        n = counts.get(block)
        if n:
            for table, value in (
                (counters.block_count, n), (counters.block_instructions, n * insts),
                (counters.block_cycles, float(n * own + (cells[delta] if delta else 0))),
            ):
                table[block] = table.get(block, 0) + value
    entries = counters.func_entry_count
    entries[func] = entries.get(func, 0) + cells[0]


def _chords(entry, order, edges, depth_of):
    """Split ``edges`` into a spanning tree that keeps deeper loops' edges
    and the chords off it.  Return the chords, the virtual exit→entry edge
    first, and each chord's unit flow around its cycle through the tree:
    the signed coefficient of each edge's count and each block's inflow."""
    leader = {node: node for node in [*order, _EXIT]}

    def find(node):
        while leader[node] is not node:
            leader[node] = node = leader[leader[node]]
        return node

    chords, adjacent = [(_EXIT, entry)], {node: [] for node in leader}
    for edge in sorted(edges, key=lambda e: -min(map(depth_of, e))):
        a, b = find(edge[0]), find(edge[1])
        if a is b:
            chords.append(edge)
        else:
            leader[a] = b
            adjacent[edge[0]].append((edge[1], edge))
            adjacent[edge[1]].append((edge[0], edge))
    parent, depth, stack = {}, {entry: 0}, [entry]
    while stack:
        node = stack.pop()
        for other, edge in adjacent[node]:
            if other not in depth:
                parent[other], depth[other] = (node, edge), depth[node] + 1
                stack.append(other)
    flows = []
    for tail, head in chords:
        flow = {(tail, head): 1, head: 1}
        a, b = head, tail  # the flow returns from head to tail through the tree
        while a is not b and a in depth and b in depth:
            if depth[a] >= depth[b]:  # the path runs a -> up
                up, edge = parent[a]
                sign = 1 if edge[0] is a else -1
                node, a = (up if sign > 0 else a), up
            else:  # the path runs up -> b
                up, edge = parent[b]
                sign = 1 if edge[1] is b else -1
                node, b = (b if sign > 0 else up), up
            flow[edge] = flow.get(edge, 0) + sign
            flow[node] = flow.get(node, 0) + sign
        flows.append([
            (key, coeff) for key, coeff in flow.items()
            if coeff and key is not _EXIT and not (isinstance(key, tuple) and _EXIT in key)
        ])
    return chords, flows


class _FunctionCompiler:
    """Translates one IR function into the source of one Python function."""

    def __init__(self, program: CompiledProgram, fi: int, func: Function):
        self.program, self.interp, self.bind = program, program.interp, program.bind
        self.fi, self.func, self.elide = fi, func, program.elide
        self._mem_size = program._mem_size
        self._tmp = 0
        self.local: Dict = {}
        for value in [*func.arguments, *func.instructions()]:
            if not value.type.is_void:
                self.local[value] = f"v{len(self.local)}"
        self._shape()
        self._counting()
        self.body = {block: self._block_body(block) for block in self.order}
        self._edges: Dict[Tuple, List[str]] = {}

    def _shape(self) -> None:
        """The CFG facts emission places blocks by, over the reachable
        blocks in reverse postorder."""
        self.order = reverse_postorder(self.func)
        rpo = self.rpo = {block: i for i, block in enumerate(self.order)}
        self.loops = LoopInfo.of(self.func)
        domtree = self.loops.domtree
        preds = predecessor_map(self.func)
        self.heads = set()  # targets of retreating edges: the limit checks
        self.fpreds: Dict = {}  # forward predecessors
        self.reducible = True
        for block in self.order:
            self.fpreds[block] = []
            for pred in dict.fromkeys(p for p in preds[block] if p in rpo):
                if rpo[pred] < rpo[block]:
                    self.fpreds[block].append(pred)
                else:
                    self.heads.add(block)
                    self.reducible &= domtree.dominates(block, pred)
        # A block outside the innermost loop around its idom exits that
        # loop.  Exits other exits lead to, and exits leading on beyond the
        # exits, go after the loop's ``while``, reached by ``break``; so
        # does the exit dominating the most code if no exit does and the
        # loop leaves only to its exits.  Others, such as returns, stay in
        # place.  A block several forward edges rejoin at follows its
        # idom's code.
        exits: Dict = {}
        for block in self.order[1:]:
            loop = self.loops.innermost_loop(domtree.idom[block])
            if loop is not None and block not in loop.blocks:
                exits.setdefault(loop.header, []).append(block)
        self.after: Dict = {}
        for head, found in exits.items():
            reach = {block: self._reach(block) for block in found}
            keep = {b for b in found if any(b in out for out, _ in reach.values())
                    or not reach[b][0] <= set(found)}
            if not keep and not self._reach(head)[0]:
                keep = {max(found, key=lambda b: reach[b][1])}
            self.after[head] = [b for b in found if b in keep]
        self.tails = {block for after in self.after.values() for block in after}
        self.merges: Dict = {}
        for block in self.order:
            if len(self.fpreds[block]) > 1 and block not in self.tails:
                self.merges.setdefault(domtree.idom[block], []).append(block)

    def _reach(self, block) -> Tuple[set, int]:
        """The blocks edges from the code ``block`` dominates leave to, and
        how many blocks that code is."""
        inside, stack = set(), [block]
        while stack:
            inside.add(stack[-1])
            stack.extend(self.loops.domtree.children(stack.pop()))
        return {s for b in inside for s in b.successors if s not in inside}, len(inside)

    # Counting -------------------------------------------------------------

    def _counting(self) -> None:
        """Pick the chords, weigh them, and register the counter cells:
        entries, the chords, then each profiled call block's cycle delta."""
        program, func = self.program, self.func
        edges, rows, self.delta = [], {}, {}
        width = 4 + len(self.interp._tally or ())
        for block in self.order:
            if isinstance(block.terminator, Return):
                edges.append((block, _EXIT))
            edges += [(block, succ) for succ in dict.fromkeys(block.successors)]
            # Per execution: instructions, own cycles, elided and checked
            # accesses, then each _compile_tally cell.
            tail = _tail(block)
            rows[block] = row = [len(tail), 0, 0, 0] + [0] * (width - 4)
            for inst in tail:
                row[1] += instruction_cycles(resource_class(inst))
                if isinstance(inst, (Load, Store)):
                    row[3 - self._elided(inst)] += 1
                for cell, n in enumerate(self.interp._compile_tally(inst)):
                    row[4 + cell] += n
            if program.profile and any(isinstance(inst, Call) for inst in tail):
                self.delta[block] = len(self.delta)

        def depth_of(node):
            loop = self.loops.innermost_loop(node)
            return loop.depth if loop is not None else 0

        chords, flows = _chords(func.entry, self.order, edges, depth_of)
        self.chord = {edge: k for k, edge in enumerate(chords)}
        weights = [
            [sum(c * rows[k][r] for k, c in flow if k in rows) for r in range(width)]
            for flow in flows
        ]
        #: own cycles per unit of each chord, which a called function sums
        self.beta = [weight[1] for weight in weights]
        self.needs_cy = program.profile and func in program._callees
        for block in self.delta:  # delta cells follow the chord cells
            self.delta[block] += len(chords)
        cells = program.ns[f"P{self.fi}"] = [0] * (len(chords) + len(self.delta))
        blocks = [(b, *rows[b][:2], self.delta.get(b)) for b in self.order]
        program._counts.append((func, cells, weights, flows, blocks))

    def _elided(self, inst) -> bool:
        return self.elide and inst in self.interp._proven

    def _count(self, edge) -> List[str]:
        """Count ``edge`` when it is a chord."""
        k = self.chord.get(edge)
        if k is None:
            return []
        lines = [f"P{self.fi}[{k}] += 1"]
        if self.needs_cy and self.beta[k]:
            lines.append(f"cy += {self.beta[k]}")
        return lines

    # Helpers ------------------------------------------------------------------

    def temp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def expr(self, value) -> str:
        """Source expression for an operand — the compile-time-specialized
        equivalent of the reference engine's ``_value``."""
        if isinstance(value, Constant):
            v = value.value
            if isinstance(v, float):
                # Bind floats as objects: repr round-trips but inf/nan don't.
                return self.bind(v, "K")
            return repr(v)
        if isinstance(value, GlobalVariable):
            return repr(self.interp.global_addresses[value])
        if isinstance(value, UndefValue):
            return "0"
        return self.local[value]

    # Per-block code -----------------------------------------------------------

    def _block_body(self, block) -> List[str]:
        """The block's code up to its terminator: the limit check at a loop
        header, the instructions, and a profiled call block's cycle delta."""
        body: List[str] = []
        tail, term = _tail(block), block.terminator
        if block in self.heads:
            body += [f"ic += {len(tail)}", "if ic > mx: LIM()"]
        if not block.instructions:
            return body + [_raise(f"block {block.name} is empty")]
        delta = self.delta.get(block)
        if delta is not None:
            body.append("_cyin = CY[0]")
        for inst in tail[:-1] if term is not None else tail:
            self.emit_inst(body, inst)
        if delta is not None:
            body.append(f"P{self.fi}[{delta}] += CY[0] - _cyin")
        if term is None:
            body.append(_raise(f"block {block.name} fell through"))
        return body

    def _edge(self, block, target) -> List[str]:
        """Phi copies, chord count and edge instrumentation of one edge."""
        lines = self._edges.get((block, target))
        if lines is None:
            phis, lines = _phis(target), []
            if phis:
                lines.append(
                    ", ".join(self.local[phi] for phi in phis) + " = "
                    + ", ".join(self.expr(phi.incoming_for(block)) for phi in phis)
                )
            lines += self._count((block, target))
            lines += self.interp._compile_edge(block, target, self.bind)
            self._edges[(block, target)] = lines
        return lines

    def _block(self, block, ctx) -> Tuple[List[str], bool]:
        """The block's code and exits, and whether control can fall off its
        end; ``ctx`` None emits dispatch jumps."""
        lines = list(self.body[block])
        term = block.terminator
        if term is None:
            return lines, False
        if isinstance(term, Return):
            lines += self._count((block, _EXIT))
            if self.needs_cy:
                lines.append("CY[0] += cy")
            if self.heads:
                lines.append("IC[0] += ic")
            value = "None" if term.value is None else self.expr(term.value)
            return lines + [f"return {value}"], False
        targets = list(dict.fromkeys(term.successors))
        if len(targets) == 1:
            more, falls = self._jump(block, targets[0], ctx)
            return lines + more, falls
        cond = self.expr(term.condition)
        on_true, true_falls = self._jump(block, term.true_target, ctx)
        on_false, false_falls = self._jump(block, term.false_target, ctx)
        if not true_falls:  # the other arm needs no ``else``
            return lines + [f"if {cond}:", *_indent(on_true), *on_false], false_falls
        if not false_falls:
            return lines + [f"if not {cond}:", *_indent(on_false), *on_true], True
        lines += [f"if {cond}:", *_indent(on_true or ["pass"]),
                  "else:", *_indent(on_false or ["pass"])]
        return lines, True

    # Structured emission ------------------------------------------------------
    #
    # ``ctx`` is (the block control reaches by falling off the code being
    # emitted, the innermost loop's header, the block after that loop's
    # ``while``, the loop depth, [whether that loop breaks]).

    def _jump(self, block, target, ctx) -> Tuple[List[str], bool]:
        lines = self._edge(block, target)
        if ctx is None:
            return lines + [f"_b = {self.rpo[target]}", "continue"], False
        follow, head, exit_, loops, broke = ctx
        if target is follow:
            return lines, True
        if target is head:
            return lines + ["continue"], False
        if target is exit_:
            broke[0] = True
            return lines + ["break"], False
        if self.fpreds[target] == [block] and target not in self.tails:
            more, falls = self._tree(target, ctx)
            return lines + more, falls
        raise _Unstructured

    def _tree(self, block, ctx) -> Tuple[List[str], bool]:
        """``block``, the blocks only it leads to, and the blocks its code
        rejoins at; a loop header wraps its loop in a ``while``."""
        follow, _, _, loops, _ = ctx
        merges = self.merges.get(block, [])
        loop = self.loops.loop_for_header(block)
        if loop is None:
            return self._sequence(block, merges, ctx)
        if loops == _MAX_LOOPS:
            raise _Unstructured
        after, broke = self.after.get(block, []), [False]
        body, _ = self._sequence(
            block, merges,
            (block, block, after[0] if after else follow, loops + 1, broke),
        )
        lines = ["while True:", *_indent(body)]
        if not after:
            return lines, broke[0]
        more, falls = self._sequence(None, after, ctx)
        return lines + more, falls

    def _sequence(self, block, merges, ctx) -> Tuple[List[str], bool]:
        """``block`` then each of ``merges``, each falling into the next."""
        follow, head, exit_, loops, broke = ctx
        chain = [*merges, follow]
        lines, falls = [], True
        if block is not None:
            lines, falls = self._block(block, (chain[0], head, exit_, loops, broke))
        for merge, after in zip(merges, chain[1:]):
            more, falls = self._tree(merge, (after, head, exit_, loops, broke))
            lines += more
        return lines, falls

    def _structured(self) -> List[str]:
        if not self.reducible:
            raise _Unstructured
        lines, _ = self._tree(self.func.entry, (None, None, None, 0, [False]))
        # The body sits one level under the ``def``.
        if max(len(line) - len(line.lstrip(" ")) for line in lines) // 4 >= _MAX_INDENT:
            raise _Unstructured
        return lines

    def _dispatch(self) -> List[str]:
        lines = [f"_b = {self.rpo[self.func.entry]}", "while True:"]
        for block in self.order:
            lines.append(f"    if _b == {self.rpo[block]}:")
            lines += _indent(_indent(self._block(block, None)[0]))
        return lines

    def emit(self) -> str:
        """The function's source: count the entry, set up the limit check,
        run the entry edge's instrumentation, then the body."""
        fi, func = self.fi, self.func
        lines = [f"P{fi}[0] += 1"]
        if self.needs_cy:
            lines.append(f"cy = {self.beta[0]}")
        if self.heads:
            lines += ["ic = 0", "mx = MX - IC[0]", "if mx < 0: LIM()"]
        else:
            lines.append("if IC[0] > MX: LIM()")
        lines += self.interp._compile_edge(None, func.entry, self.bind)
        try:
            body, shape = self._structured(), "structured"
        except (_Unstructured, RecursionError):
            body, shape = self._dispatch(), "dispatch"
        self.program.shapes[func] = shape
        params = ", ".join(self.local[arg] for arg in func.arguments)
        return "\n".join([f"def _f{fi}({params}):", *_indent(lines + body), ""])

    # Per-instruction code ------------------------------------------------------

    def emit_inst(self, body: List[str], inst) -> None:
        dst = self.local.get(inst)  # None for a void instruction
        if isinstance(inst, BinaryOp):
            self._emit_binary(body, inst, dst)
        elif isinstance(inst, (Load, Store)):
            self._emit_access(body, inst, dst)
        elif isinstance(inst, GetElementPtr):
            self._emit_gep(body, inst, dst)
        elif isinstance(inst, (ICmp, FCmp)):
            op = (_ICMP_OP if isinstance(inst, ICmp) else _FCMP_OP)[inst.predicate]
            lhs, rhs = self.expr(inst.operands[0]), self.expr(inst.operands[1])
            body.append(f"{dst} = 1 if {lhs} {op} {rhs} else 0")
        elif isinstance(inst, Select):
            cond, a, b = (self.expr(op) for op in inst.operands)
            body.append(f"{dst} = {a} if {cond} else {b}")
        elif isinstance(inst, Cast):
            self._emit_cast(body, inst, dst)
        elif isinstance(inst, UnaryOp):
            self._emit_unary(body, inst, dst)
        elif isinstance(inst, Alloca):
            body.append(f"{dst} = ALLOC({self.bind(inst.allocated_type, 'TY')})")
        elif isinstance(inst, Call):
            callee = inst.callee
            if callee.is_declaration:
                body.append(_raise(f"call to undefined function {callee.name}"))
                return
            args = ", ".join(self.expr(op) for op in inst.operands)
            call = f"_f{self.program._func_index[callee]}({args})"
            body.append(call if dst is None else f"{dst} = {call}")
        else:
            body.append(_raise(f"cannot execute {inst.opcode}"))
            return
        if dst is not None:
            operands = [self.expr(op) for op in inst.operands]
            body.extend(self.interp._compile_result(inst, dst, operands, self.bind))

    def _nonzero(self, body: List[str], value, message: str) -> str:
        """A temp holding divisor ``value``; raises ``message`` on zero."""
        t = self.temp()
        body.append(f"{t} = {self.expr(value)}")
        if not (isinstance(value, Constant) and value.value != 0):
            body.append(f"if {t} == 0: {_raise(message)}")
        return t

    def _emit_binary(self, body: List[str], inst, dst: str) -> None:
        op, bits = inst.opcode, inst.type.bits
        lhs, rhs = self.expr(inst.lhs), self.expr(inst.rhs)
        if op in ("fadd", "fsub", "fmul", "fdiv"):
            if op == "fdiv":
                rhs = self._nonzero(body, inst.rhs, "float division by zero")
            e = f"{lhs} {_PYOP[op]} {rhs}"
            body.append(f"{dst} = {_round32(e) if bits == 32 else e}")
            return
        if op in ("div", "rem"):
            kind = "division" if op == "div" else "remainder"
            t = self._nonzero(body, inst.rhs, f"integer {kind} by zero")
            e = f"_c_{op}({lhs}, {t})"
            body.append(f"{dst} = {_wrap_expr(e, bits)}")
            return
        if op in ("shl", "shr"):  # out-of-range amounts trap, as in the reference
            amount = inst.rhs.value if isinstance(inst.rhs, Constant) else None
            if amount is not None and not 0 <= amount < bits:
                body.append(_raise(f"{op} amount {amount} out of range for i{bits}"))
                return
            if amount is None:
                t = self.temp()
                body.append(f"{t} = {rhs}")
                body.append(f"if {t} < 0 or {t} >= {bits}: raise InterpreterError("
                            f'"{op} amount %d out of range for i{bits}" % {t})')
                rhs = t
        body.append(f"{dst} = {_wrap_expr(f'{lhs} {_PYOP[op]} {rhs}', bits)}")

    def _emit_access(self, body: List[str], inst, dst: Optional[str]) -> None:
        """Address temp, access instrumentation, the bounds check unless
        the access is elided, then the load or store itself."""
        ty = inst.type if isinstance(inst, Load) else inst.value.type
        nbytes = sizeof(ty)
        t = self.temp()
        body.append(f"{t} = {self.expr(inst.pointer)}")
        body.extend(self.interp._compile_access(inst, t, self.bind))
        if not self._elided(inst):
            body.append(
                f"if {t} < 64 or {t} + {nbytes} > {self._mem_size}: raise MemoryError_("
                f'"access at %d (%d bytes) out of range" % ({t}, {nbytes}))'
            )
        if isinstance(inst, Store):
            value = self.expr(inst.value)
            if isinstance(ty, FloatType):
                body.append(f"_PKI{nbytes}(D, {t}, float({value}))")
            else:
                body.append(f"D[{t}:{t} + {nbytes}] = (int({value}) & "
                            f'{(1 << 8 * nbytes) - 1}).to_bytes({nbytes}, "little")')
        elif isinstance(ty, FloatType):
            body.append(f"{dst} = _UPF{nbytes}(D, {t})[0]")
        elif isinstance(ty, PointerType):
            body.append(f'{dst} = _ifb(D[{t}:{t} + 8], "little")')
        else:  # sign-extend from ``ty.bits`` (i1 keeps its low bit)
            raw, sign = self.temp(), 1 << (ty.bits - 1)
            body.append(f'{raw} = _ifb(D[{t}:{t} + {nbytes}], "little")')
            body.append(f"{dst} = {raw} & 1" if ty.bits == 1
                        else f"{dst} = ({raw} & {sign - 1}) - ({raw} & {sign})")

    def _emit_gep(self, body: List[str], inst, dst: str) -> None:
        terms, offset, ty = [self.expr(inst.base)], 0, inst.base.type.pointee
        for level, index in enumerate(inst.indices):
            if level > 0:
                if not isinstance(ty, ArrayType):
                    body.append(_raise("gep descends into non-array"))
                    return
                ty = ty.element
            size = sizeof(ty)
            if isinstance(index, Constant):
                offset += index.value * size
            else:
                terms.append(self.expr(index) + (f" * {size}" if size != 1 else ""))
        if offset:
            terms.append(repr(offset))
        body.append(f"{dst} = {' + '.join(terms)}")

    def _emit_cast(self, body: List[str], inst, dst: str) -> None:
        op, bits = inst.opcode, inst.type.bits
        value = self.expr(inst.operands[0])
        if op == "sitofp":
            e = f"float({value})"
            body.append(f"{dst} = {_round32(e) if bits == 32 else e}")
        elif op == "fptosi":
            body.append(f"{dst} = {_wrap_expr(f'int({value})', bits)}")
        elif op == "zext":
            t = self.temp()
            body.append(f"{t} = {value}")
            body.append(f"if {t} < 0: {t} &= {(1 << inst.operands[0].type.bits) - 1}")
            body.append(f"{dst} = {_wrap_expr(t, bits)}")
        elif op in ("sext", "trunc"):
            body.append(f"{dst} = {_wrap_expr(value, bits)}")
        else:  # fptrunc rounds to float32; fpext keeps the value
            body.append(f"{dst} = {_round32(value) if op == 'fptrunc' else value}")

    def _emit_unary(self, body: List[str], inst, dst: str) -> None:
        op, bits = inst.opcode, inst.type.bits
        value = self.expr(inst.operands[0])
        if op == "fneg":
            body.append(f"{dst} = -({value})")
        elif op == "fsqrt":
            t = self.temp()
            body.append(f"{t} = {value}")
            body.append(f"if {t} < 0: {_raise('fsqrt of a negative value')}")
            e = f"_sqrt({t})"
            body.append(f"{dst} = {_round32(e) if bits == 32 else e}")
        elif op == "fabs":
            body.append(f"{dst} = abs({value})")
        else:  # neg / not
            body.append(f"{dst} = {_wrap_expr(f'{_PYOP[op]}({value})', bits)}")
