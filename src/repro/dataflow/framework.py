"""Generic forward-dataflow engine over IR functions.

A :class:`ForwardDataflow` client describes a lattice (initial state, join,
equality via ``==``) and transfer functions; the engine runs a worklist
solver over the CFG in reverse post-order until a fixpoint.  Loop headers —
the only blocks where states can keep growing — are *widened* after a
configurable number of visits so analyses over unbounded lattices (e.g.
integer intervals) terminate.  After convergence an optional bounded
*narrowing* phase re-propagates without widening to claw back precision the
widening threw away.

Determinism: the solver iterates blocks strictly by reverse-post-order
index, never by set or id order, so results are identical across runs.

:class:`EnvDataflow` is the engine for map lattices (one fact per SSA
value, as the interval and known-bits analyses use).  Its states share
every fact object that did not change: a join copies one side and joins
only the values whose two facts are different objects, and an edge carries
its refinements as a small overlay instead of a copy of the predecessor's
whole state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir import BasicBlock, Function, Instruction, Phi, Value
from ..analysis.cfg import predecessor_map, reverse_postorder
from ..analysis.loops import LoopInfo
from ..telemetry import current as current_telemetry


class ForwardDataflow:
    """Worklist solver skeleton; subclasses supply the lattice.

    Subclass hooks:

    * :meth:`initial_state` — state at the function entry;
    * :meth:`boundary_state` — state for blocks with no analyzed
      predecessors (defaults to :meth:`initial_state`);
    * :meth:`transfer` — out-state of a block given its in-state;
    * :meth:`edge_transfer` — what holds along one CFG edge only (branch
      refinement, phi binding), as an overlay over the predecessor's
      out-state, which it must not mutate (default: none);
    * :meth:`join` — least upper bound of two states;
    * :meth:`merge_edges` — the in-state from the analyzed incoming edges
      (default: join the predecessors' out-states, for clients without
      overlays);
    * :meth:`widen` — extrapolate ``old ∇ new`` at loop headers;
    * :meth:`copy_state` — defensive copy (default: identity, safe for
      immutable states).

    States are compared with ``==`` to detect the fixpoint.
    """

    #: Joins at a widen point before widening kicks in.
    widen_after: int = 3
    #: Bounded narrowing sweeps after convergence (0 disables).
    narrow_passes: int = 2

    def __init__(self, func: Function):
        self.func = func
        self.loop_info = LoopInfo.of(func)
        self.rpo: List[BasicBlock] = reverse_postorder(func)
        self.rpo_index: Dict[BasicBlock, int] = {
            b: i for i, b in enumerate(self.rpo)
        }
        self.preds = predecessor_map(func)
        self._preds_in_rpo: Dict[BasicBlock, List[BasicBlock]] = {
            block: sorted(
                preds, key=lambda b: self.rpo_index.get(b, 1 << 30)
            )
            for block, preds in self.preds.items()
        }
        self._succ_indices: Dict[BasicBlock, List[int]] = {
            block: [
                self.rpo_index[succ] for succ in block.successors
                if succ in self.rpo_index
            ]
            for block in self.rpo
        }
        #: Facts joined (not shared by identity) during the last solve.
        self.values_joined = 0
        self.in_states: Dict[BasicBlock, Any] = {}
        self.out_states: Dict[BasicBlock, Any] = {}
        self._widen_points = {
            loop.header for loop in self.loop_info.loops
        }

    # Lattice hooks ----------------------------------------------------------

    def initial_state(self):
        raise NotImplementedError

    def boundary_state(self):
        return self.initial_state()

    def transfer(self, block: BasicBlock, state):
        raise NotImplementedError

    def edge_transfer(self, pred: BasicBlock, succ: BasicBlock, state):
        return None

    def join(self, a, b):
        raise NotImplementedError

    def merge_edges(self, edges: List[Tuple[Any, Any]]):
        """Join of the ``(out_state, overlay)`` pairs of the analyzed
        incoming edges, in predecessor RPO order (never empty)."""
        state = None
        for edge_state, _overlay in edges:
            state = edge_state if state is None else self.join(state, edge_state)
        return state

    def widen(self, old, new, block: Optional[BasicBlock] = None):
        """Extrapolate ``old ∇ new`` at loop-header ``block``; clients may
        use ``block`` to widen only values the loop itself modifies."""
        return new

    def copy_state(self, state):
        return state

    # Solver -----------------------------------------------------------------

    def _in_state_of(self, block: BasicBlock):
        """Join of all analyzed incoming edges (None when none analyzed)."""
        edges = []
        for pred in self._preds_in_rpo[block]:
            if pred in self.out_states:
                out = self.out_states[pred]
                edges.append((out, self.edge_transfer(pred, block, out)))
        return self.merge_edges(edges) if edges else None

    def solve(self) -> "ForwardDataflow":
        entry = self.func.entry
        visits: Dict[BasicBlock, int] = {}
        # Worklist of RPO indices; a set mirror keeps membership O(1).
        pending = list(range(len(self.rpo)))
        pending_set = set(pending)
        guard = 0
        widenings = 0
        self.values_joined = 0
        max_steps = 200 * (len(self.rpo) + 1)
        while pending:
            guard += 1
            if guard > max_steps:  # pragma: no cover - widening guarantees exit
                raise RuntimeError(
                    f"dataflow solver did not converge on @{self.func.name}"
                )
            index = pending.pop(0)
            pending_set.discard(index)
            block = self.rpo[index]
            if block is entry:
                state = self.initial_state()
            else:
                state = self._in_state_of(block)
                if state is None:
                    state = self.boundary_state()
            visits[block] = visits.get(block, 0) + 1
            old_in = self.in_states.get(block)
            if block in self._widen_points and old_in is not None:
                joined = self.join(old_in, state)
                if visits[block] > self.widen_after:
                    state = self.widen(old_in, joined, block)
                    widenings += 1
                else:
                    state = joined
            self.in_states[block] = state
            out = self.transfer(block, self.copy_state(state))
            if block in self.out_states and out == self.out_states[block]:
                continue
            self.out_states[block] = out
            for succ_index in self._succ_indices[block]:
                if succ_index not in pending_set:
                    pending_set.add(succ_index)
                    pending.append(succ_index)
        narrow_sweeps = 0
        for _ in range(self.narrow_passes):
            narrow_sweeps += 1
            if not self._narrow_once():
                break
        tele = current_telemetry()
        if tele.enabled:
            # One batched update per solve keeps the per-visit path clean.
            tele.count("dataflow.solves")
            tele.count("dataflow.worklist_iterations", guard)
            tele.count("dataflow.widenings", widenings)
            tele.count("dataflow.narrow_sweeps", narrow_sweeps)
            tele.count("dataflow.values_joined", self.values_joined)
        return self

    def _narrow_once(self) -> bool:
        """One descending sweep without widening; True when anything moved."""
        changed = False
        for block in self.rpo:
            if block is self.func.entry:
                state = self.initial_state()
            else:
                state = self._in_state_of(block)
                if state is None:
                    state = self.boundary_state()
            if state != self.in_states.get(block):
                self.in_states[block] = state
                changed = True
            out = self.transfer(block, self.copy_state(state))
            if out != self.out_states.get(block):
                self.out_states[block] = out
                changed = True
        return changed


class FactEnv:
    """A map-lattice state: SSA value → fact.

    Facts are immutable values with ``join`` and ``==``; a value without an
    entry has no fact yet.  A stored state is never mutated: a client
    writes only to an env it made in the current step.
    """

    __slots__ = ("values",)

    def __init__(self, values: Optional[Dict[Value, Any]] = None):
        self.values = values if values is not None else {}

    def copy(self) -> "FactEnv":
        return FactEnv(dict(self.values))

    def __eq__(self, other):
        return isinstance(other, FactEnv) and self.values == other.values

    def __hash__(self):  # pragma: no cover - not used as dict key
        raise TypeError("unhashable")


class EnvDataflow(ForwardDataflow):
    """Forward dataflow over :class:`FactEnv` states.

    Clients supply :meth:`transfer_inst`, :meth:`fact_of` and :meth:`top`,
    and optionally a branch refinement (:meth:`edge_refinement`,
    :meth:`refine_edge`).  An edge's facts are an overlay over the
    predecessor's out-state: the refined operands, then the phi bindings.

    The sharing rule: a fact object that did not change is reused, never
    rebuilt, so a join whose two sides hold the same object for a value
    keeps it without calling ``join``.  Fact ``join`` and ``refine``
    methods return an operand itself when the result equals it.
    """

    def __init__(self, func: Function):
        super().__init__(func)
        self._edge_plans: Dict[Tuple[BasicBlock, BasicBlock], Tuple] = {}

    # Lattice hooks ----------------------------------------------------------

    def initial_state(self) -> FactEnv:
        return FactEnv()

    def copy_state(self, state: FactEnv) -> FactEnv:
        return state.copy()

    def join(self, a: FactEnv, b: FactEnv) -> FactEnv:
        """Key order: ``a``'s keys, then ``b``'s new keys in ``b``'s order."""
        values = dict(a.values)
        self._join_into(values, b.values, None)
        return FactEnv(values)

    def merge_edges(self, edges):
        """The in-state copied once from the first edge (not at all for a
        lone edge without refinements), every further edge joined into it
        in place."""
        (first, overlay), rest = edges[0], edges[1:]
        if not rest and not overlay:
            return first
        values = dict(first.values)
        if overlay:
            values.update(overlay)
        for state, overlay in rest:
            self._join_into(values, state.values, overlay)
        return FactEnv(values)

    def _join_into(self, values: Dict, other: Dict, overlay) -> None:
        """``values ⊔= other ⊕ overlay`` in place; a key keeps its position,
        and new keys follow in ``other``'s order, then the overlay's."""
        saved = [
            (key, values.get(key), fact) for key, fact in overlay.items()
        ] if overlay else ()
        joined = 0
        get = values.get
        for key, right in other.items():
            left = get(key)
            if left is None:
                values[key] = right
            elif left is not right:
                values[key] = left.join(right)
                joined += 1
        for key, left, right in saved:
            if left is None or left is right:
                values[key] = right
            else:
                values[key] = left.join(right)
                joined += 1
        self.values_joined += joined

    def transfer(self, block: BasicBlock, env: FactEnv) -> FactEnv:
        """Facts of the block's instructions in order.  A fact equal to
        the one in the block's previous out-state keeps that object, so
        successor joins and the fixpoint test see it by identity."""
        previous = self.out_states.get(block)
        kept = previous.values if previous is not None else {}
        values = env.values
        for inst in block.instructions:
            if isinstance(inst, Phi):
                # Bound by edge_transfer; ⊤ when no analyzed edge bound it.
                if inst.type.is_int and inst not in values:
                    values[inst] = self.top(inst)
                continue
            fact = self.transfer_inst(inst, env)
            if fact is not None:
                old = kept.get(inst)
                values[inst] = old if old is not None and old == fact else fact
        return env

    def edge_transfer(
        self, pred: BasicBlock, succ: BasicBlock, env: FactEnv
    ) -> Dict[Value, Any]:
        plan = self._edge_plans.get((pred, succ))
        if plan is None:
            plan = self._edge_plans[pred, succ] = (
                self.edge_refinement(pred, succ),
                [
                    (phi, phi.incoming_for(pred))
                    for phi in succ.phis() if phi.type.is_int
                ],
            )
        refinement, bindings = plan
        overlay = {} if refinement is None else self.refine_edge(
            refinement, env
        )
        fact_of = self.fact_of
        for phi, incoming in bindings:
            # Bindings see the edge's refinement and earlier bindings.
            fact = overlay.get(incoming)
            overlay[phi] = fact if fact is not None else fact_of(incoming, env)
        return overlay

    # Client hooks -----------------------------------------------------------

    def transfer_inst(self, inst: Instruction, env: FactEnv):
        """The fact of ``inst`` given the facts before it (None: no fact)."""
        raise NotImplementedError

    def fact_of(self, value: Value, env: FactEnv):
        """The fact of an operand ``value`` in ``env``."""
        raise NotImplementedError

    def top(self, value: Value):
        """The fact that claims nothing about ``value``."""
        raise NotImplementedError

    def edge_refinement(self, pred: BasicBlock, succ: BasicBlock):
        """What the branch from ``pred`` tells on the edge to ``succ``, in
        a form :meth:`refine_edge` reads; None when nothing (the default).
        Computed once per edge."""
        return None

    def refine_edge(self, refinement, env: FactEnv) -> Dict[Value, Any]:
        """The refined operand facts along an edge, as a fresh overlay."""
        raise NotImplementedError
