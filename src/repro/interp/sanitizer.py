"""Sanitizing interpreter: cross-validates static analysis claims at runtime.

``--sanitize`` execution keeps every memory bounds check *and* additionally
verifies, against observed behavior, each claim the dataflow layer makes:

* **value ranges** — every integer SSA value produced at runtime must lie in
  its statically inferred interval;
* **known bits** — every integer SSA value must satisfy its claimed
  known-zero/known-one masks (``u & zeros == 0`` and ``u & ones == ones``
  over the unsigned representation);
* **demanded bits** — for every pure integer op, re-executing it with each
  operand replaced by its demanded-bits truncation (high bits
  sign-reconstructed, exactly what a narrowed datapath would carry) must
  reproduce every demanded bit of the original result;
* **bounds proofs** — every access the bounds analysis proved in-bounds must
  land inside its root object's storage and claimed offset window;
* **alias facts** — two base pointers the active alias model claims disjoint
  must never touch a common byte;
* **dependence distances** — every observed cross-iteration conflict on a
  loop must be covered by a claimed dependence whose distance is no larger
  than the observed one (a missing or over-claimed dependence is unsound);
* **reuse pairs** — every pair the reuse analysis proved (consumer at
  iteration ``i`` addresses the element the producer addressed at
  ``i − d``) must hold concretely: the consumer's runtime address must
  equal the producer's recorded address ``d`` iterations back, and no
  store may have touched the buffered bytes since the record was taken.

Any discrepancy is a *soundness violation*: the analyses must be
conservative, so runtime behavior outside their claims means the analysis is
wrong.  Violations are collected in ``violations`` and raised as
:class:`SanitizerError` at the end of the run (``fail_fast=False`` collects
without raising).

Claims come from the module's shared :class:`ModuleFacts`; ``inject_unsound``
perturbs one kind of :attr:`SanitizingInterpreter.CLAIMS` on purpose, a
self-test the run must fail (``alias`` is the historical ``restrict`` model).

The claims are conditional on the interprocedural argument seeds (ranges
joined over intra-module call sites).  A top-level entry invoked with
arguments outside its seeds — possible only by driving a kernel directly
instead of through ``main`` — voids those claims; the sanitizer then skips
validation and records a note.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir import (
    BinaryOp,
    Cast,
    Constant,
    FCmp,
    Function,
    GlobalVariable,
    ICmp,
    Instruction,
    Load,
    Module,
    Select,
    Store,
    UnaryOp,
    UndefValue,
)
from ..analysis.banking import CONFLICT_FREE, CONFLICTED, probe_function
from ..analysis.callgraph import CallGraph
from ..analysis.facts import ModuleFacts
from ..analysis.loops import Loop
from ..analysis.reuse import probe_function as reuse_probes
from ..dataflow import Interval, KnownBits, demanded_truncate
from .interpreter import Interpreter
from .shadow import LoopTrack, access_bytes as _access_bytes, plan_tracks


class SanitizerError(Exception):
    """At least one static claim was contradicted by runtime behavior."""


class _BankClaim:
    """One claimed-conflict-free banking scheme to validate at runtime.

    The claim: unrolling ``loop`` by ``factor`` and banking the scratchpad
    group of ``base`` with the scheme, the lane replicas of each member
    access (the accesses of ``factor`` consecutive iterations — one cycle
    slot) land in pairwise-distinct banks.  ``state`` tracks, per access
    instruction, the banks observed in the current slot.
    """

    __slots__ = ("loop", "base", "factor", "kind", "banks", "word",
                 "block_bytes", "label", "state")

    def __init__(self, loop, base, factor, kind, banks, word, block_bytes):
        self.loop = loop
        self.base = base
        self.factor = factor
        self.kind = kind
        self.banks = banks
        self.word = word
        self.block_bytes = block_bytes
        self.label = f"{kind}-{banks}"
        self.state: Dict = {}

    def bank_of(self, offset: int) -> int:
        if self.kind == "cyclic":
            return (offset // self.word) % self.banks
        # Block index by quotient (unclamped): pairwise distinctness is
        # what the claim promises, and it is alignment-independent.
        return offset // self.block_bytes


class _ReuseClaim:
    """One proven reuse pair to validate at runtime.

    The claim: every time ``consumer`` executes at iteration ``i`` of
    ``loop``, it addresses exactly the element ``producer`` addressed at
    iteration ``i − distance``, and no store has touched those bytes in
    between.  ``history`` records the producer's (address, write-seq)
    per iteration, pruned to the claim's window.
    """

    __slots__ = ("loop", "base", "producer", "consumer", "distance",
                 "history")

    def __init__(self, loop, base, producer, consumer, distance):
        self.loop = loop
        self.base = base
        self.producer = producer
        self.consumer = consumer
        self.distance = distance
        self.history: Dict[int, Tuple[int, int]] = {}


class SanitizingInterpreter(Interpreter):
    """Interpreter that validates every dataflow claim while executing.

    ``inject_unsound`` names a claim kind of :attr:`CLAIMS` to perturb
    deliberately (a self-test the run must fail), or None.
    """

    def __init__(
        self,
        module: Module,
        memory_size: int = 1 << 22,
        max_instructions: int = 200_000_000,
        profile: bool = False,
        fail_fast: bool = True,
        inject_unsound: Optional[str] = None,
        engine: str = "compiled",
    ):
        if inject_unsound not in (None, *self.CLAIMS):
            raise ValueError(f"unknown claim {inject_unsound!r}; valid "
                             f"claims: {', '.join(self.CLAIMS)}")
        super().__init__(
            module, memory_size, max_instructions, profile, bounds=None,
            engine=engine,
        )
        self.fail_fast = fail_fast
        self.inject_unsound = inject_unsound
        #: the alias model named in violation texts
        self._alias_model = ("restrict" if inject_unsound == "alias"
                             else "points-to")
        self.violations: List[str] = []
        self.notes: List[str] = []
        self._seen: Set[Tuple] = set()
        #: one cell, read by the compiled engine's generated checks
        self._claims_active = [True]
        self._trace_blocks = True

        # The claims are the module's shared facts, the same objects the
        # model and lint read; an injection perturbs the copies below.
        self.facts = facts = ModuleFacts.of(module)
        self.intervals = facts.intervals
        self.bounds = facts.bounds
        self.bitwidth = facts.bitwidth
        # Never elide in sanitize mode: the base class elides only accesses
        # in ``_proven``, built from the bounds passed up (None), so
        # self.bounds stays analysis-only.

        #: expected interval per int-typed SSA value, at its definition
        self._expected: Dict = {}
        #: claimed KnownBits per int-typed instruction
        self._claimed_bits: Dict[Instruction, KnownBits] = {}
        #: claimed demanded mask per int-typed value (insts and args)
        self._demanded_mask: Dict = {}
        #: loops containing each block, in ``LoopInfo`` discovery order
        #: (the layout position of each loop's first latch), not by
        #: nesting: an inner loop whose latch comes first is listed before
        #: its outer loop, as in jacobi-2d.  Both engines check dependence
        #: conflicts level by level in this order, so violations follow it.
        self._loops_of_block: Dict = {}
        #: loop header → Loop
        self._header_loops: Dict = {}
        #: per loop: claimed dependence pair → claimed distance
        self._dep_claims: Dict[Loop, Dict[FrozenSet[Instruction], int]] = {}
        #: per function: [(base_a, base_b)] claimed never-overlapping
        self._disjoint_claims: List[Tuple] = []
        #: access instruction → its base pointer value (None if unknown)
        self._access_base: Dict[Instruction, Optional[object]] = {}
        #: access instruction → banking claims it participates in
        self._bank_claims: Dict[Instruction, List[_BankClaim]] = {}
        #: loop → its banking claims (slot state resets on fresh entry)
        self._bank_claims_by_loop: Dict[Loop, List[_BankClaim]] = {}
        #: schemes the analysis proved *conflicted* — promoted to bogus
        #: conflict-free claims by the ``banking`` injection
        self._conflicted_bank_schemes: List[Tuple] = []
        #: access instruction → reuse claims it produces records for
        self._reuse_producers: Dict[Instruction, List[_ReuseClaim]] = {}
        #: access instruction → reuse claims it must satisfy as consumer
        self._reuse_consumers: Dict[Instruction, List[_ReuseClaim]] = {}
        #: loop → its reuse claims (history resets on fresh entry)
        self._reuse_claims_by_loop: Dict[Loop, List[_ReuseClaim]] = {}

        for func in module.defined_functions():
            self._prepare_function(func)

        if inject_unsound is not None:
            self.CLAIMS[inject_unsound][1](self)

        # Runtime trackers.
        self._loop_iter: Dict[Loop, int] = {}
        self._last_write: Dict[Loop, Dict[int, Tuple[Instruction, int]]] = {}
        self._last_read: Dict[Loop, Dict[int, Tuple[Instruction, int]]] = {}
        self._touched: Dict = {}  # base value → set of byte addresses
        #: (base, access bytes) → access start addresses (compiled engine)
        self._starts: Dict[Tuple, Set[int]] = {}
        #: byte address → sequence number of the last store touching it;
        #: maintained only while reuse claims exist (clobber detection)
        self._write_seq: Dict[int, int] = {}
        self._access_seq = 0
        self._track_reuse_writes = bool(self._reuse_consumers)
        #: (loop, dep pair) → smallest carried distance observed at runtime;
        #: soundness demands claimed ≤ every entry here (the property tests
        #: and the ``deps`` report consume this trace).
        self.observed_distances: Dict[
            Tuple[Loop, FrozenSet[Instruction]], int
        ] = {}

        # Compiled-engine plan: the checks every execution of an
        # instruction makes are derived per block into ``_tally`` (values,
        # known bits, accesses, bank indices) and settled after each
        # top-level call; ``_tracks`` holds the loops some check reads the
        # clock of; only bases in a disjointness claim record starts.
        self._tally = [0] * 4
        self._claimed_bases = {
            base for pair in self._disjoint_claims for base in pair
        }
        self._tracks = self._plan_tracks()

        # Stats for reporting.
        self.values_checked = 0
        self.accesses_checked = 0
        self.conflicts_observed = 0
        self.bits_checked = 0
        self.demanded_checked = 0
        self.bank_checks = 0
        self.bank_claim_count = sum(
            len(claims) for claims in self._bank_claims_by_loop.values()
        )
        self.reuse_checks = 0
        self.reuse_claim_count = sum(
            len(claims) for claims in self._reuse_claims_by_loop.values()
        )

    # Claim construction -----------------------------------------------------

    def _prepare_function(self, func: Function) -> None:
        analysis = self.intervals.for_function(func)
        for inst in func.instructions():
            if inst.type.is_int:
                self._expected[inst] = analysis.interval_of(inst)
        for arg, interval in analysis.arg_intervals.items():
            self._expected[arg] = interval
        ctx = self.facts.context(func)
        for loop in ctx.loop_info.loops:
            self._header_loops[loop.header] = loop
            for block in loop.blocks:
                self._loops_of_block.setdefault(block, []).append(loop)
        for read, _inject in self.CLAIMS.values():
            read(self, ctx)

    def _read_bitwidth(self, ctx) -> None:
        """Known and demanded bits of every int value."""
        bw = self.bitwidth.for_function(ctx.func)
        for inst in ctx.func.instructions():
            if inst.type.is_int:
                self._claimed_bits[inst] = bw.known(inst)
                self._demanded_mask[inst] = bw.demanded(inst)
        for arg in ctx.func.arguments:
            if arg.type.is_int:
                self._demanded_mask[arg] = bw.demanded(arg)

    def _inject_bitwidth(self) -> None:
        """Claim the lowest *unknown* bit of every int instruction zero."""
        for inst, kb in list(self._claimed_bits.items()):
            unknown = ((1 << kb.bits) - 1) & ~(kb.zeros | kb.ones)
            if unknown:
                low = unknown & -unknown
                self._claimed_bits[inst] = KnownBits(
                    kb.bits, kb.zeros | low, kb.ones
                )
        self.notes.append("inject-unsound-bitwidth: one known-zero bit "
                          "deliberately mis-claimed per instruction "
                          "(sanitizer self-test)")

    def _read_dependence(self, ctx) -> None:
        """Per loop, access pair → carried distance (one dependence each)."""
        for loop in ctx.loop_info.loops:
            self._dep_claims[loop] = {
                frozenset((dep.source.inst, dep.sink.inst)):
                    dep.effective_distance
                for dep in ctx.memdep.loop_carried(loop)
            }

    def _inject_dependence(self) -> None:
        """Over-claim every carried distance by one: a recurrence running at
        exactly its proven minimal distance must trip the distance check."""
        for claims in self._dep_claims.values():
            for key in claims:
                claims[key] += 1
        self.notes.append("inject-unsound-dependence: every claimed carried-"
                          "dependence distance deliberately inflated by one "
                          "(sanitizer self-test)")

    def _read_banking(self, ctx) -> None:
        """Each probed scheme proved conflict-free (global arrays only); the
        conflicted ones are kept for the injection."""
        for probe in probe_function(ctx):
            verdict = probe.verdict
            insts = [a.inst for a in probe.accesses]
            for sv in verdict.schemes:
                block_bytes = None
                if sv.scheme.kind == "block":
                    block_bytes = verdict.block_bytes(sv.scheme.banks)
                    if block_bytes is None:
                        continue
                args = (
                    probe.loop, probe.base, probe.factor, sv.scheme.kind,
                    sv.scheme.banks, verdict.word_bytes, block_bytes, insts,
                )
                if sv.status == CONFLICT_FREE:
                    self._register_bank_claim(*args)
                elif sv.status == CONFLICTED:
                    self._conflicted_bank_schemes.append(args)

    def _inject_banking(self) -> None:
        """Claim every scheme proved *conflicted* conflict-free."""
        for args in self._conflicted_bank_schemes:
            self._register_bank_claim(*args)
        self.notes.append(f"inject-unsound-banking: "
                          f"{len(self._conflicted_bank_schemes)} provably-"
                          "conflicted banking scheme(s) deliberately claimed "
                          "conflict-free (sanitizer self-test)")

    def _register_bank_claim(
        self, loop, base, factor, kind, banks, word, block_bytes, insts
    ) -> None:
        claim = _BankClaim(loop, base, factor, kind, banks, word, block_bytes)
        self._bank_claims_by_loop.setdefault(loop, []).append(claim)
        for inst in insts:
            self._bank_claims.setdefault(inst, []).append(claim)

    def _read_reuse(self, ctx) -> None:
        """Each reuse pair the probes prove (global arrays only)."""
        for probe in reuse_probes(ctx):
            for pair in probe.verdict.pairs:
                claim = _ReuseClaim(
                    probe.loop, probe.base,
                    pair.producer.inst, pair.consumer.inst, pair.distance,
                )
                for index, key in ((self._reuse_claims_by_loop, probe.loop),
                                   (self._reuse_producers, claim.producer),
                                   (self._reuse_consumers, claim.consumer)):
                    index.setdefault(key, []).append(claim)

    def _inject_reuse(self) -> None:
        """Shorten every proven reuse distance by one iteration."""
        claims = [c for cs in self._reuse_claims_by_loop.values() for c in cs]
        for claim in claims:
            claim.distance = max(0, claim.distance - 1)
        self.notes.append(f"inject-unsound-reuse: {len(claims)} claimed reuse "
                          "distance(s) deliberately shortened by one "
                          "(sanitizer self-test)")

    def _read_alias(self, ctx) -> None:
        """Each access's base, and each base pair points-to proves disjoint."""
        firsts = {}  # base → its first access
        for info in ctx.access.accesses():
            self._access_base[info.inst] = info.base
            if info.base is not None:
                firsts.setdefault(info.base, info)
        self._disjoint_claims.extend(
            (a.base, b.base) for a, b in combinations(firsts.values(), 2)
            if ctx.memdep.bases_may_overlap(a, b) is False
        )

    def _inject_alias(self) -> None:
        """The historical blanket-``restrict`` model: every pair of distinct
        bases is disjoint, so each dependence carried only through a pair
        points-to cannot separate (``via_alias``) is dropped."""
        bases: Dict[Function, Dict] = {}  # in order of first access
        for inst, base in self._access_base.items():
            if base is not None:
                bases.setdefault(inst.parent.parent, {})[base] = None
        self._disjoint_claims = [pair for group in bases.values()
                                 for pair in combinations(group, 2)]
        for loop, claims in self._dep_claims.items():
            memdep = self.facts.context(loop.header.parent).memdep
            for dep in memdep.loop_carried(loop):
                if dep.via_alias:
                    del claims[frozenset((dep.source.inst, dep.sink.inst))]

    #: Claim kind → (reader, injection).  The reader copies one function's
    #: claims from its facts context; the injection perturbs that copy so
    #: the kind's gate workload must fail, and notes it (except ``alias``).
    CLAIMS = {
        "bitwidth": (_read_bitwidth, _inject_bitwidth),
        "dependence": (_read_dependence, _inject_dependence),
        "banking": (_read_banking, _inject_banking),
        "reuse": (_read_reuse, _inject_reuse),
        "alias": (_read_alias, _inject_alias),
    }

    def _plan_tracks(self) -> Dict[Loop, LoopTrack]:
        """A track per loop that contains a store (a conflict level) or
        carries a banking or reuse claim (iteration-indexed state)."""
        loops = []
        for loop, claims in self._dep_claims.items():
            if not any(isinstance(inst, Store) for block in loop.blocks
                       for inst in block.instructions):
                if (loop not in self._bank_claims_by_loop
                        and loop not in self._reuse_claims_by_loop):
                    continue
                claims = None  # no store: no conflict to observe
            loops.append((loop, claims))
        graph = CallGraph(self.module)
        recursive = {f for f in self.module.defined_functions()
                     if graph.is_recursive(f)}
        factors = {loop: [claim.factor for claim in claims]
                   for loop, claims in self._bank_claims_by_loop.items()}
        return plan_tracks(loops, recursive, factors)

    # Entry gating ------------------------------------------------------------

    def call_function(self, func: Function, args: List):
        if self._depth:
            return super().call_function(func, args)
        if not self._args_in_seeds(self.intervals, func, args):
            self._claims_active[0] = False
            self.notes.append(
                f"entry @{func.name} invoked outside its seeded argument "
                f"ranges; static claims are vacuous and were not validated"
            )
        try:
            return super().call_function(func, args)
        finally:
            self._settle_tally()

    def _settle_tally(self) -> None:
        """Move the compiled engine's per-block check counts into the
        stats; they count only while the claims are active."""
        tally = self._tally
        if self._claims_active[0]:
            self.values_checked += tally[0]
            self.bits_checked += tally[1]
            self.accesses_checked += tally[2]
            self.bank_checks += tally[3]
        tally[:] = [0] * len(tally)

    # Violation plumbing ------------------------------------------------------

    def _violation(self, key: Tuple, message: str) -> None:
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(message)

    # Loop-iteration tracking -------------------------------------------------

    def _on_block_transition(self, func, prev_block, block) -> None:
        loop = self._header_loops.get(block)
        if loop is None:
            return
        if prev_block is not None and prev_block in loop.blocks:
            self._loop_iter[loop] = self._loop_iter.get(loop, 0) + 1
        else:
            # Fresh entry: prior instances' accesses are not loop-carried
            # relative to this instance.
            self._loop_iter[loop] = 0
            self._last_write[loop] = {}
            self._last_read[loop] = {}
            for claim in self._bank_claims_by_loop.get(loop, ()):
                claim.state.clear()
            for claim in self._reuse_claims_by_loop.get(loop, ()):
                claim.history.clear()

    # Per-instruction validation ----------------------------------------------

    def _execute(self, inst: Instruction, env: Dict):
        if isinstance(inst, (Load, Store)):
            self._validate_access(inst, self._value(env, inst.pointer))
        result = super()._execute(inst, env)
        self._check_result(inst, result, env)
        return result

    def _check_result(self, inst: Instruction, result, env: Dict) -> None:
        """Interval, known-bits, and demanded-bits validation of one
        produced value on the reference engine.  ``env`` maps each
        non-constant operand of ``inst`` to its runtime value."""
        if (
            self._claims_active[0]
            and result is not None
            and inst.type.is_int
        ):
            expected = self._expected.get(inst)
            if expected is not None:
                self.values_checked += 1
                if not expected.contains(result):
                    self._interval_violation(inst, result, expected)
            claimed = self._claimed_bits.get(inst)
            if claimed is not None:
                self.bits_checked += 1
                if not claimed.check(result):
                    self._known_bits_violation(inst, result, claimed)
            self._check_demanded(inst, env, result)

    #: Instruction classes safe to re-execute against a shadow environment:
    #: pure value computations whose base-class ``_execute`` only reads
    #: operands (no memory, counters, or control effects).
    _PURE_INT = (BinaryOp, ICmp, FCmp, Select, Cast, UnaryOp)

    def _check_demanded(self, inst: Instruction, env: Dict, result) -> None:
        """Single-step demanded-bits validation: replace every operand by
        its demanded-bits truncation (the value a narrowed datapath would
        reconstruct) and re-execute; all demanded result bits must agree."""
        demand = self._demanded_mask.get(inst)
        if not demand or not isinstance(inst, self._PURE_INT):
            return
        shadow = {}
        narrowed = False
        for op in inst.operands:
            if isinstance(op, Constant):
                continue
            if op not in env:
                return
            val = env[op]
            if op.type.is_int:
                val = demanded_truncate(
                    val, self._demanded_mask.get(op, 0), op.type.bits
                )
                narrowed = narrowed or val != env[op]
            shadow[op] = val
        if not narrowed:
            return  # every truncation is the identity — nothing to test
        self._reexecute_narrowed(inst, shadow, result, demand)

    def _reexecute_narrowed(
        self, inst: Instruction, shadow: Dict, result, demand: int
    ) -> None:
        """Re-execute ``inst`` on the narrowed operands in ``shadow``."""
        self.demanded_checked += 1
        alt_result = Interpreter._execute(self, inst, shadow)
        if (alt_result ^ result) & demand:
            self._violation(
                ("demanded", inst),
                f"demanded-bits violation: %{inst.name} narrowed operands "
                f"produce {alt_result} vs {result} on demanded mask "
                f"{demand:#x} in @{inst.parent.parent.name}",
            )

    def _interval_violation(self, inst: Instruction, result, expected) -> None:
        self._violation(
            ("interval", inst),
            f"interval violation: %{inst.name} = {result} "
            f"outside inferred {expected} in "
            f"@{inst.parent.parent.name}",
        )

    def _known_bits_violation(
        self, inst: Instruction, result, claimed: KnownBits
    ) -> None:
        self._violation(
            ("known-bits", inst),
            f"known-bits violation: %{inst.name} = {result} "
            f"contradicts claimed {claimed!r} in "
            f"@{inst.parent.parent.name}",
        )

    def _validate_access(self, inst, address: int) -> None:
        if not self._claims_active[0]:
            return
        nbytes = _access_bytes(inst)
        self.accesses_checked += 1

        proof = self.bounds.proven.get(inst)
        if proof is not None and isinstance(proof.root, GlobalVariable):
            root_addr = self.global_addresses[proof.root]
            offset = address - root_addr
            if (
                offset < proof.offset.lo
                or offset + nbytes > proof.offset.hi + proof.access_size
                or offset + nbytes > proof.root_size
            ):
                self._bounds_violation(inst, proof, offset)

        base = self._access_base.get(inst)
        if base is not None:
            self._touched.setdefault(base, set()).update(
                range(address, address + nbytes)
            )

        is_store = isinstance(inst, Store)
        bank_claims = self._bank_claims.get(inst)
        if bank_claims:
            self._check_banks(inst, address, is_store, bank_claims)
        if is_store and self._track_reuse_writes:
            self._record_write(address, nbytes)
        for claim in self._reuse_producers.get(inst, ()):
            self._record_reuse(
                claim, address, self._loop_iter.get(claim.loop, 0)
            )
        for claim in self._reuse_consumers.get(inst, ()):
            self._check_reuse(
                claim, inst, address, nbytes,
                self._loop_iter.get(claim.loop, 0),
            )
        for loop in self._loops_of_block.get(inst.parent, ()):
            iteration = self._loop_iter.get(loop, 0)
            writes = self._last_write.setdefault(loop, {})
            reads = self._last_read.setdefault(loop, {})
            claims = self._dep_claims.get(loop, {})
            for byte in range(address, address + nbytes):
                last_w = writes.get(byte)
                if last_w is not None and last_w[1] < iteration:
                    self._check_conflict(
                        loop, claims, last_w[0], inst, iteration - last_w[1]
                    )
                if is_store:
                    last_r = reads.get(byte)
                    if last_r is not None and last_r[1] < iteration:
                        self._check_conflict(
                            loop, claims, last_r[0], inst, iteration - last_r[1]
                        )
                    writes[byte] = (inst, iteration)
                else:
                    reads[byte] = (inst, iteration)

    def _bounds_violation(self, inst, proof, offset: int) -> None:
        self._violation(
            ("bounds", inst),
            f"bounds-proof violation: {inst.opcode} %{inst.name or '?'} "
            f"at @{proof.root.name}+{offset} outside proven window "
            f"{proof.offset} (size {proof.root_size})",
        )

    def _check_banks(
        self, inst, address: int, is_store: bool, claims: List[_BankClaim]
    ) -> None:
        """Validate claimed-conflict-free banking schemes on one access.

        The ``factor`` consecutive iterations of the claim loop form one
        unrolled cycle slot; the claim promises this instruction's
        executions within a slot hit pairwise-distinct banks (loads may
        broadcast the same address).  Concrete bank indices are recorded
        per slot and any repeat contradicts the static proof.
        """
        for claim in claims:
            base_addr = self.global_addresses.get(claim.base)
            if base_addr is None:
                continue
            slot = self._loop_iter.get(claim.loop, 0) // claim.factor
            entry = claim.state.get(inst)
            if entry is None or entry[0] != slot:
                entry = (slot, {})
                claim.state[inst] = entry
            bank = claim.bank_of(address - base_addr)
            seen = entry[1]
            self.bank_checks += 1
            prior = seen.get(bank)
            if prior is None:
                seen[bank] = address
            elif prior != address or is_store:
                self._bank_violation(claim, inst, prior, address, bank)

    def _bank_violation(self, claim, inst, prior: int, address: int,
                        bank: int) -> None:
        self._violation(
            ("bank", claim.loop.header, inst, claim.label),
            f"bank-conflict violation: {inst.opcode} "
            f"%{inst.name or '?'} lanes at addresses {prior} and "
            f"{address} share bank {bank} of claimed "
            f"conflict-free {claim.label} banking on "
            f"@{getattr(claim.base, 'name', '?')} "
            f"(loop {claim.loop.header.name}, unroll "
            f"x{claim.factor})",
        )

    def _record_write(self, address: int, nbytes: int) -> None:
        """Stamp the stored bytes for reuse clobber detection."""
        self._access_seq += 1
        seq = self._access_seq
        for byte in range(address, address + nbytes):
            self._write_seq[byte] = seq

    def _record_reuse(self, claim: _ReuseClaim, address: int,
                      iteration: int) -> None:
        """Record a producer execution, after the store's own write-seq
        bump: the producer's own write is part of the recorded state, not
        a clobber."""
        claim.history[iteration] = (address, self._access_seq)
        if len(claim.history) > claim.distance + 2:
            cutoff = iteration - claim.distance - 1
            for key in [k for k in claim.history if k < cutoff]:
                del claim.history[key]

    def _check_reuse(
        self, claim: _ReuseClaim, inst, address: int, nbytes: int,
        iteration: int,
    ) -> None:
        """Validate one proven reuse pair on one consumer execution at
        ``iteration`` of the claim loop.

        The producer's recorded address ``distance`` iterations back must
        equal the consumer's runtime address (buffer warm-up — no record
        yet — makes the claim vacuous), and no store may have touched the
        buffered bytes since the record was taken.
        """
        record = claim.history.get(iteration - claim.distance)
        if record is None:
            return  # warm-up: the tap is not live this early
        self.reuse_checks += 1
        rec_addr, rec_seq = record
        base_name = getattr(claim.base, "name", "?")
        if rec_addr != address:
            self._violation(
                ("reuse-addr", claim.loop.header, claim.producer,
                 claim.consumer),
                f"reuse-address violation: load %{inst.name or '?'} at "
                f"address {address} claims the element "
                f"%{claim.producer.name or '?'} touched {claim.distance} "
                f"iteration(s) earlier, which was address {rec_addr} "
                f"(loop {claim.loop.header.name}, @{base_name})",
            )
            return
        for byte in range(address, address + nbytes):
            if self._write_seq.get(byte, 0) > rec_seq:
                self._violation(
                    ("reuse-clobber", claim.loop.header, claim.producer,
                     claim.consumer),
                    f"reuse-clobber violation: the element buffered for "
                    f"load %{inst.name or '?'} was overwritten after "
                    f"producer %{claim.producer.name or '?'} recorded it "
                    f"{claim.distance} iteration(s) earlier "
                    f"(loop {claim.loop.header.name}, @{base_name})",
                )
                return

    def _check_conflict(
        self,
        loop: Loop,
        claims: Dict[FrozenSet[Instruction], int],
        earlier: Instruction,
        later: Instruction,
        distance: int,
        weight: int = 1,
    ) -> None:
        """One observed conflict; ``weight`` counts it for that many
        identical byte conflicts (the bytes of one element)."""
        if not (isinstance(earlier, Store) or isinstance(later, Store)):
            return
        self.conflicts_observed += weight
        key = frozenset((earlier, later))
        trace_key = (loop, key)
        prior = self.observed_distances.get(trace_key)
        if prior is None or distance < prior:
            self.observed_distances[trace_key] = distance
        claimed = claims.get(key)
        if claimed is None:
            self._violation(
                ("missing-dep", loop.header, key),
                f"missing dependence: observed loop-carried conflict "
                f"between {earlier.opcode} %{earlier.name or '?'} and "
                f"{later.opcode} %{later.name or '?'} at distance "
                f"{distance} in loop {loop.header.name}, but the "
                f"{self._alias_model} model claims independence",
            )
        elif claimed > distance:
            self._violation(
                ("dep-distance", loop.header, key),
                f"dependence-distance violation: claimed distance "
                f"{claimed} but observed {distance} between "
                f"{earlier.opcode} %{earlier.name or '?'} and "
                f"{later.opcode} %{later.name or '?'} in loop "
                f"{loop.header.name}",
            )

    # Compiled-engine instrumentation ------------------------------------------
    #
    # Each check is decided when its instruction is compiled and emitted as
    # source with its claim constants inline.  A check that cannot fail on
    # the compiled engine gets no code, only the rare paths (violations,
    # reuse records, byte-keyed conflicts) stay calls, and the checks every
    # execution makes are counted per block through ``_compile_tally``.  The
    # results, counters and violations equal the reference engine's exactly.

    #: Instruction classes whose compiled code always wraps an int result
    #: into its type's range.  ``Select`` and ``Call`` can pass an unwrapped
    #: constant through, so they keep their interval check.
    _WRAPPED = (BinaryOp, Cast, Load, ICmp, FCmp, UnaryOp)

    def _compile_tally(self, inst: Instruction) -> Tuple[int, ...]:
        values = bits = accesses = banks = 0
        if inst.type.is_int:
            values = int(inst in self._expected)
            bits = int(inst in self._claimed_bits)
        if isinstance(inst, (Load, Store)):
            accesses = 1
            banks = len(self._checkable_bank_claims(inst))
        return (values, bits, accesses, banks)

    def _checkable_bank_claims(self, inst) -> List[_BankClaim]:
        """The banking claims on ``inst`` whose base has a known address."""
        return [
            claim for claim in self._bank_claims.get(inst, ())
            if claim.base in self.global_addresses
        ]

    def _compile_edge(self, prev_block, block, bind) -> List[str]:
        """A jump into a tracked loop's header from its body counts an
        iteration; every other entry, function entry included, is fresh."""
        track = self._tracks.get(self._header_loops.get(block))
        if track is None:
            return []
        clock, step = bind(track.clock, "TR"), track.clock.step
        if prev_block is not None and prev_block in track.loop.blocks:
            return [f"{clock}.serial += 1"]
        fresh = (f"{clock}.serial + 1" if step == 1
                 else f"({clock}.serial // {step} + 1) * {step}")
        return [f"{clock}.base = {clock}.serial = {fresh}"]

    def _compile_result(self, inst: Instruction, dst: str, operands,
                        bind) -> List[str]:
        if not inst.type.is_int:
            return []
        checks = []
        expected = self._expected.get(inst)
        if expected is not None and not (
            isinstance(inst, self._WRAPPED)
            and Interval.of_type(inst.type.bits).subset_of(expected)
        ):  # a wrapped result covered by the interval always lies inside
            tests = [f"{dst} < {expected.lo}"] if expected.lo is not None else []
            if expected.hi is not None:
                tests.append(f"{dst} > {expected.hi}")
            if tests:
                report = partial(self._interval_violation, inst,
                                 expected=expected)
                checks.append(f"if {' or '.join(tests)}: "
                              f"{bind(report, 'IV')}({dst})")
        claimed = self._claimed_bits.get(inst)
        if claimed is not None and (claimed.zeros or claimed.ones):
            tests = [f"{dst} & {claimed.zeros}"] if claimed.zeros else []
            if claimed.ones:
                tests.append(f"{dst} & {claimed.ones} != {claimed.ones}")
            report = partial(self._known_bits_violation, inst, claimed=claimed)
            checks.append(f"if {' or '.join(tests)}: "
                          f"{bind(report, 'KB')}({dst})")
        narrowing = self._narrowing_operands(inst)
        if narrowing:
            # ``demanded_truncate`` leaves a value unchanged exactly when it
            # lies in ``[-H, H)``, ``H`` half the demanded width's range, so
            # the check runs only when some operand leaves its range.
            tests = []
            for index, op_demand, _ in narrowing:
                half = 1 << (op_demand.bit_length() - 1)
                tests.append(f"not {-half} <= {operands[index]} < {half}")
            check = partial(self._check_narrowed, inst, narrowing)
            checks.append(f"if {' or '.join(tests)}: "
                          f"{bind(check, 'DM')}({dst}, {', '.join(operands)})")
        return self._guarded(checks, bind)

    def _guarded(self, lines: List[str], bind) -> List[str]:
        """``lines`` behind the claims-active guard; nothing if empty."""
        if not lines:
            return []
        return [f"if {bind(self._claims_active, 'CA')}[0]:",
                *("    " + line for line in lines)]

    def _check_narrowed(self, inst: Instruction, narrowing: Tuple, result,
                        *values) -> None:
        """Compiled demanded-bits check: re-execute ``inst`` only when a
        demanded-bits truncation changes an operand's value."""
        narrowed = list(values)
        for index, op_demand, bits in narrowing:
            narrowed[index] = demanded_truncate(values[index], op_demand, bits)
        if tuple(narrowed) != values:
            shadow = {op: narrowed[index]
                      for index, op in enumerate(inst.operands)
                      if not isinstance(op, Constant)}
            self._reexecute_narrowed(inst, shadow, result,
                                     self._demanded_mask[inst])

    def _narrowing_operands(self, inst: Instruction) -> Tuple:
        """``(index, demand, bits)`` of each operand whose demanded-bits
        truncation can change its value; empty when the demanded-bits
        check of ``inst`` can never re-execute it."""
        demand = self._demanded_mask.get(inst)
        if not demand or not isinstance(inst, self._PURE_INT):
            return ()
        narrowing = []
        for index, op in enumerate(inst.operands):
            if isinstance(op, Constant):
                continue
            if isinstance(op, (GlobalVariable, UndefValue)):
                return ()  # not an SSA value: the reference skips the check
            if op.type.is_int:
                op_demand = self._demanded_mask.get(op, 0)
                if 0 < op_demand.bit_length() < op.type.bits:
                    narrowing.append((index, op_demand, op.type.bits))
        return tuple(narrowing)

    def _compile_access(self, inst: Instruction, addr: str,
                        bind) -> List[str]:
        """The checks of one access in the reference's order: bounds window,
        disjointness start set, banking, reuse, then loop conflicts."""
        is_store = isinstance(inst, Store)
        nbytes = _access_bytes(inst)
        lines: List[str] = []
        proof = self.bounds.proven.get(inst)
        if proof is not None and isinstance(proof.root, GlobalVariable):
            # The proven window, as its first and last valid start address.
            root = self.global_addresses[proof.root]
            first = root + proof.offset.lo
            last = root + min(proof.offset.hi + proof.access_size,
                              proof.root_size) - nbytes
            report = bind(partial(self._bounds_violation, inst, proof), "BV")
            lines.append(f"if not {first} <= {addr} <= {last}: "
                         f"{report}({addr} - {root})")
        base = self._access_base.get(inst)
        if base in self._claimed_bases:
            starts = self._starts.setdefault((base, nbytes), set())
            lines.append(f"{bind(starts, 'ST')}.add({addr})")
        hoisted: Dict[str, str] = {}

        def hoist(expr):  # one evaluation of each expression per access
            if expr not in hoisted:
                hoisted[expr] = f"{addr}h{len(hoisted)}"
                lines.append(f"{hoisted[expr]} = {expr}")
            return hoisted[expr]

        def serial(clock):
            return hoist(f"{bind(clock, 'TR')}.serial")

        for claim in self._checkable_bank_claims(inst):
            # Per bank: the cycle slot that last hit it, and its address
            # then.  An unclamped block index may fall outside the banks.
            offset = f"({addr} - {self.global_addresses[claim.base]})"
            if claim.kind == "cyclic":
                index = f"{hoist(f'{offset} // {claim.word}')} % {claim.banks}"
                held, first = [None] * claim.banks, [None] * claim.banks
            else:
                index = hoist(f"{offset} // {claim.block_bytes}")
                held, first = defaultdict(type(None)), {}
            clock = self._tracks[claim.loop].clock
            cycle = hoist(f"{serial(clock)} // {claim.factor}")
            held, first = bind(held, "SL"), bind(first, "SA")
            report = bind(partial(self._bank_violation, claim, inst), "BK")
            bank, prior = f"{addr}b", f"{first}[{addr}b]"
            lines += [f"{bank} = {index}",
                      f"if {held}[{bank}] != {cycle}: "
                      f"{held}[{bank}] = {cycle}; {prior} = {addr}",
                      f"{'else' if is_store else f'elif {prior} != {addr}'}: "
                      f"{report}({prior}, {addr}, {bank})"]
        if is_store and self._track_reuse_writes:
            lines.append(f"{bind(self._record_write, 'RW')}({addr}, {nbytes})")
        for claim in self._reuse_producers.get(inst, ()):
            record = bind(partial(self._record_reuse, claim), "RR")
            lines.append(f"{record}({addr}, "
                         f"{serial(self._tracks[claim.loop].clock)})")
        for claim in self._reuse_consumers.get(inst, ()):
            # A record stamped below the base dates from an earlier entry.
            clock = self._tracks[claim.loop].clock
            check = bind(partial(self._check_reuse, claim, inst), "RC")
            lines.append(f"if {serial(clock)} - {claim.distance} >= "
                         f"{bind(clock, 'TR')}.base: "
                         f"{check}({addr}, {nbytes}, {serial(clock)})")
        levels = tuple(
            track for track in map(self._tracks.get,
                                   self._loops_of_block.get(inst.parent, ()))
            if track is not None and track.claims is not None
        )
        if levels:
            lines += self._conflict_lines(inst, addr, levels, serial, bind)
        return self._guarded(lines, bind)

    def _conflict_lines(self, inst, addr: str, levels: Tuple[LoopTrack, ...],
                        serial, bind) -> List[str]:
        """One probe of each shadow, each level's checks in the reference's
        order, then the access's own entry; a misaligned address, or an
        access in a byte-keyed level, takes the level-by-level call."""
        slow = bind(partial(self._conflicts_by_level, inst, levels), "CB")
        if not all(track.size for track in levels):
            return [f"{slow}({addr})"]
        is_store, size = isinstance(inst, Store), levels[0].size
        shadows = {id(track.shadow): track.shadow for track in levels}
        probes: Dict[int, List[str]] = {}
        body: List[str] = []
        for key, shadow in shadows.items():
            probes[key] = [f"{addr}{kind}{len(probes)}"
                           for kind in "wr"[:1 + is_store]]
            body += [f"{name} = {bind(table, 'SH')}.get({addr})"
                     for name, table in zip(probes[key], shadow)]
        for track in levels:
            s, at = serial(track.clock), track.level + 1
            base = f"{bind(track.clock, 'TR')}.base"
            for prior in probes[id(track.shadow)]:
                # This check's last new conflict: its earlier instruction and
                # the pair's least distance then.  A conflict of that pair at
                # no less a distance only adds its weight.
                last = [None, None]
                seen = bind(last, "LC")
                new = bind(partial(self._first_conflict, track, inst, last),
                           "CC")
                stamp = f"{prior}[{at}]"
                body += [
                    f"if {prior} is not None and {base} <= {stamp} < {s}:",
                    f"    if {prior}[0] is {seen}[0] and {s} - {stamp} >= "
                    f"{seen}[1]: {bind(self, 'SZ')}.conflicts_observed += "
                    f"{size}",
                    f"    else: {new}({prior}[0], {s} - {stamp})",
                ]
        entry = [bind(inst, "I"), *["0"] * (levels[0].width - 1)]
        for track in levels:
            entry[track.level + 1] = serial(track.clock)
        for shadow in shadows.values():
            table = bind(shadow[0 if is_store else 1], "SH")
            body.append(f"{table}[{addr}] = ({', '.join(entry)})")
        # Re-keying a level to bytes zeroes its size: from then on only the
        # accesses inside that level take the call.
        gate = " and ".join([f"not {addr} % {size}", *(
            f"{bind(track, 'LT')}.size" for track in levels)])
        return [f"if {gate}:", *("    " + line for line in body),
                f"else: {slow}({addr})"]

    def _conflicts_by_level(self, inst, levels: Tuple[LoopTrack, ...],
                            addr: int) -> None:
        """The conflict checks of one access, level by level, where the
        inline ones cannot run: a misaligned address re-keys its levels to
        bytes, and a byte-keyed level checks each byte."""
        is_store, nbytes = isinstance(inst, Store), _access_bytes(inst)
        entry = [inst, *[0] * (levels[0].width - 1)]
        for track in levels:
            entry[track.level + 1] = track.clock.serial
            if track.size and addr % track.size:
                track.to_bytes()
        entry = tuple(entry)
        records = []  # written last: the levels may share a shadow
        for track in levels:
            at, now, base = (track.level + 1, track.clock.serial,
                             track.clock.base)
            keys = (addr,) if track.size else range(addr, addr + nbytes)
            for key in keys:
                for table in track.shadow[:1 + is_store]:
                    prior = table.get(key)
                    if prior is not None and base <= prior[at] < now:
                        self._check_conflict(track.loop, track.claims,
                                             prior[0], inst, now - prior[at],
                                             track.size or 1)
            records.append((track.shadow[0 if is_store else 1], keys))
        for table, keys in records:
            table.update(dict.fromkeys(keys, entry))

    def _first_conflict(self, track: LoopTrack, later, last: list, earlier,
                        distance: int) -> None:
        """An element conflict an inline check cannot count alone: check it,
        and remember its pair's least distance in ``last``."""
        self._check_conflict(track.loop, track.claims, earlier, later,
                             distance, track.size)
        last[:] = earlier, self.observed_distances[
            (track.loop, frozenset((earlier, later)))]

    # Finalization ------------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List] = None):
        result = super().run(entry, args)
        self._finalize()
        return result

    def _finalize(self) -> None:
        # The compiled engine records start addresses; expand them to bytes.
        for (base, nbytes), starts in self._starts.items():
            touched = self._touched.setdefault(base, set())
            for start in starts:
                touched.update(range(start, start + nbytes))
            starts.clear()
        if self._claims_active[0]:
            for base_a, base_b in self._disjoint_claims:
                touched_a = self._touched.get(base_a)
                touched_b = self._touched.get(base_b)
                if touched_a and touched_b and touched_a & touched_b:
                    name_a = getattr(base_a, "name", "?")
                    name_b = getattr(base_b, "name", "?")
                    self._violation(
                        ("alias", base_a, base_b),
                        f"alias violation: bases %{name_a} and %{name_b} "
                        f"claimed disjoint by the {self._alias_model} "
                        f"model but touched "
                        f"{len(touched_a & touched_b)} common bytes",
                    )
        if self.violations and self.fail_fast:
            raise SanitizerError(
                f"{len(self.violations)} soundness violation(s):\n  "
                + "\n  ".join(self.violations)
            )

    def report(self) -> str:
        lines = [
            f"sanitize: {self.values_checked} value-range checks, "
            f"{self.bits_checked} known-bits checks, "
            f"{self.demanded_checked} demanded-bits re-executions, "
            f"{self.accesses_checked} access checks, "
            f"{self.conflicts_observed} loop-carried conflicts observed, "
            f"{self.bank_checks} bank-index checks against "
            f"{self.bank_claim_count} banking claims, "
            f"{self.reuse_checks} reuse-pair checks against "
            f"{self.reuse_claim_count} reuse claims, "
            f"{len(self._disjoint_claims)} disjointness claims",
            f"sanitize: {len(self.violations)} violation(s)",
        ]
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)
