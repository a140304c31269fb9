"""Forward map-lattice dataflow over IR functions.

:class:`EnvDataflow` keeps one fact per SSA value — the state of a program
point is a plain ``dict`` from value to fact — and runs a worklist solver
over the CFG in reverse post-order until a fixpoint.  Loop headers — the
only blocks where states can keep growing — are *widened* after a
configurable number of visits so analyses over unbounded lattices (e.g.
integer intervals) terminate.  After convergence a bounded *narrowing*
phase re-propagates without widening to claw back precision the widening
threw away.

Determinism: the solver iterates blocks strictly by reverse-post-order
index, never by set or id order, so results are identical across runs.

States share every fact object that did not change: a join copies one side
and joins only the values whose two facts are different objects, and an
edge carries its refinements as a small overlay instead of a copy of the
predecessor's whole state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..ir import BasicBlock, Function, Instruction, Phi, Value
from ..analysis.cfg import predecessor_map, reverse_postorder
from ..analysis.loops import LoopInfo
from ..telemetry import current as current_telemetry


class EnvDataflow:
    """Worklist solver over ``dict`` states (SSA value → fact).

    Clients supply :meth:`transfer_inst`, :meth:`fact_of` and :meth:`top`,
    and optionally a branch refinement (:meth:`edge_refinement`,
    :meth:`refine_edge`) and a loop-header :meth:`widen`.  An edge's facts
    are an overlay over the predecessor's out-state: the refined operands,
    then the phi bindings.  Facts are immutable values with ``join`` and
    ``==``; a value without an entry has no fact yet.  A stored state is
    never mutated: the solver writes only to a state it made in the
    current step.  States are compared with ``==`` to detect the fixpoint.

    The sharing rule: a fact object that did not change is reused, never
    rebuilt, so a join whose two sides hold the same object for a value
    keeps it without calling ``join``.  Fact ``join`` and ``refine``
    methods return an operand itself when the result equals it.
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
        self.in_states: Dict[BasicBlock, Dict[Value, Any]] = {}
        self.out_states: Dict[BasicBlock, Dict[Value, Any]] = {}
        self._widen_points = {
            loop.header for loop in self.loop_info.loops
        }
        self._edge_plans: Dict[Tuple[BasicBlock, BasicBlock], Tuple] = {}

    # Client hooks -----------------------------------------------------------

    def transfer_inst(self, inst: Instruction, env: Dict[Value, Any]):
        """The fact of ``inst`` given the facts before it (None: no fact)."""
        raise NotImplementedError

    def fact_of(self, value: Value, env: Dict[Value, Any]):
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

    def refine_edge(self, refinement, env: Dict[Value, Any]) -> Dict[Value, Any]:
        """The refined operand facts along an edge, as a fresh overlay."""
        raise NotImplementedError

    def widen(self, old: Dict, new: Dict, block: BasicBlock) -> Dict:
        """Extrapolate ``old ∇ new`` at loop-header ``block`` as a fresh
        state (default: ``new``, for finite-height facts); clients may use
        ``block`` to widen only values the loop itself modifies."""
        return new

    # Lattice ----------------------------------------------------------------

    def join(self, a: Dict, b: Dict) -> Dict:
        """Key order: ``a``'s keys, then ``b``'s new keys in ``b``'s order."""
        values = dict(a)
        self._join_into(values, b, None)
        return values

    def merge_edges(self, edges: List[Tuple[Dict, Dict]]) -> Dict:
        """The in-state from the ``(out_state, overlay)`` pairs of the
        analyzed incoming edges, in predecessor RPO order (never empty):
        copied once from the first edge (not at all for a lone edge without
        refinements), every further edge joined into it in place."""
        (first, overlay), rest = edges[0], edges[1:]
        if not rest and not overlay:
            return first
        values = dict(first)
        if overlay:
            values.update(overlay)
        for state, overlay in rest:
            self._join_into(values, state, overlay)
        return values

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

    # Solver -----------------------------------------------------------------

    def _in_state(self, block: BasicBlock) -> Dict:
        """The merge of the block's analyzed incoming edges; empty at the
        entry and where no incoming edge is analyzed yet."""
        if block is self.func.entry:
            return {}
        edges = []
        for pred in self._preds_in_rpo[block]:
            out = self.out_states.get(pred)
            if out is not None:
                edges.append((out, self._edge_overlay(pred, block, out)))
        return self.merge_edges(edges) if edges else {}

    def _edge_overlay(
        self, pred: BasicBlock, succ: BasicBlock, env: Dict
    ) -> Dict[Value, Any]:
        """What holds along ``pred → succ`` only: the branch refinement,
        then the phi bindings, over ``pred``'s out-state ``env``."""
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

    def _transfer(self, block: BasicBlock, values: Dict) -> Dict:
        """Facts of the block's instructions in order, written into
        ``values`` (a copy of the in-state).  A fact equal to the one in
        the block's previous out-state keeps that object, so successor
        joins and the fixpoint test see it by identity."""
        kept = self.out_states.get(block) or {}
        for inst in block.instructions:
            if isinstance(inst, Phi):
                # Bound on the edge; ⊤ when no analyzed edge bound it.
                if inst.type.is_int and inst not in values:
                    values[inst] = self.top(inst)
                continue
            fact = self.transfer_inst(inst, values)
            if fact is not None:
                old = kept.get(inst)
                values[inst] = old if old is not None and old == fact else fact
        return values

    def solve(self) -> "EnvDataflow":
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
            state = self._in_state(block)
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
            out = self._transfer(block, dict(state))
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
            state = self._in_state(block)
            if state != self.in_states.get(block):
                self.in_states[block] = state
                changed = True
            out = self._transfer(block, dict(state))
            if out != self.out_states.get(block):
                self.out_states[block] = out
                changed = True
        return changed
