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

import math
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
    sizeof,
)
from ..analysis.banking import CONFLICT_FREE, CONFLICTED, probe_function
from ..analysis.facts import ModuleFacts
from ..analysis.loops import Loop
from ..analysis.reuse import probe_function as reuse_probes
from ..dataflow import Interval, KnownBits, demanded_truncate
from .interpreter import Interpreter


def _access_bytes(inst) -> int:
    """Bytes a Load or Store moves."""
    return sizeof(inst.type if isinstance(inst, Load) else inst.value.type)


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


class _LoopTrack:
    """Compiled-engine state of one loop the sanitizer watches.

    ``iteration`` counts back edges since the loop's last fresh entry.  A
    loop containing a store also tracks conflicts: ``claims`` is its
    claimed dependence distances, and ``writes``/``reads`` map each
    location to the (instruction, iteration) of its last write and read.
    When every access in the loop is ``size`` bytes, a location is the
    start address of a ``size``-aligned element; otherwise (``size`` 0) it
    is a byte.  ``bank_slots`` and ``reuse_claims`` hold the banking and
    reuse state a fresh entry resets.
    """

    __slots__ = ("loop", "claims", "size", "iteration", "writes", "reads",
                 "bank_slots", "reuse_claims")

    def __init__(self, loop, claims, size, reuse_claims):
        self.loop = loop
        self.claims = claims
        self.size = size
        self.iteration = 0
        self.writes: Dict[int, Tuple[Instruction, int]] = {}
        self.reads: Dict[int, Tuple[Instruction, int]] = {}
        #: per (banking claim, access) in this loop: [slot, bank → address]
        self.bank_slots: List[list] = []
        self.reuse_claims = reuse_claims

    def enter(self) -> None:
        """Fresh entry: prior instances' accesses are not loop-carried
        relative to this instance."""
        self.iteration = 0
        self.writes.clear()
        self.reads.clear()
        for slot in self.bank_slots:
            slot[0] = None
        for claim in self.reuse_claims:
            claim.history.clear()

    def to_bytes(self) -> None:
        """Re-key element locations to bytes (after a misaligned access)."""
        size = self.size
        for table in (self.writes, self.reads):
            entries = list(table.items())
            table.clear()
            for address, entry in entries:
                for byte in range(address, address + size):
                    table[byte] = entry
        self.size = 0


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
        self._claims_active = True
        self._trace_blocks = True

        # The claims are the module's shared facts, the same objects the
        # model and lint read; an injection perturbs the copies below.
        self.facts = facts = ModuleFacts.of(module)
        self.intervals = facts.intervals
        self.bounds = facts.bounds
        self.bitwidth = facts.bitwidth
        # Never elide in sanitize mode: self.bounds stays analysis-only and
        # the base class keeps _elide_enabled False (we pass bounds=None up).

        #: expected interval per int-typed SSA value, at its definition
        self._expected: Dict = {}
        #: claimed KnownBits per int-typed instruction
        self._claimed_bits: Dict[Instruction, KnownBits] = {}
        #: claimed demanded mask per int-typed value (insts and args)
        self._demanded_mask: Dict = {}
        #: loops containing each block, innermost last
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
        # instruction makes are counted per block into ``_tally`` (values,
        # known bits, accesses, bank indices) and settled after each
        # top-level call; ``_tracks`` holds the loops some hook reads the
        # iteration of; only bases in a disjointness claim record bytes.
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

    def _plan_tracks(self) -> Dict[Loop, _LoopTrack]:
        """A track per loop that contains a store (conflicts) or carries a
        banking or reuse claim (iteration-indexed state)."""
        tracks: Dict[Loop, _LoopTrack] = {}
        for loop, claims in self._dep_claims.items():
            reuse_claims = tuple(self._reuse_claims_by_loop.get(loop, ()))
            accesses = [
                inst for block in loop.blocks for inst in block.instructions
                if isinstance(inst, (Load, Store))
            ]
            if not any(isinstance(inst, Store) for inst in accesses):
                if loop not in self._bank_claims_by_loop and not reuse_claims:
                    continue
                claims = None  # no store: no conflict to observe
            sizes = {_access_bytes(inst) for inst in accesses}
            size = sizes.pop() if len(sizes) == 1 else 0
            tracks[loop] = _LoopTrack(loop, claims, size, reuse_claims)
        return tracks

    # Entry gating ------------------------------------------------------------

    def call_function(self, func: Function, args: List):
        if self._depth:
            return super().call_function(func, args)
        if not self._entry_args_in_seeds(func, args):
            self._claims_active = False
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
        if self._claims_active:
            self.values_checked += tally[0]
            self.bits_checked += tally[1]
            self.accesses_checked += tally[2]
            self.bank_checks += tally[3]
        tally[:] = [0] * len(tally)

    def _entry_args_in_seeds(self, func: Function, args: List) -> bool:
        analysis = self.intervals.for_function(func)
        for formal, actual in zip(func.arguments, args):
            seeded = analysis.arg_intervals.get(formal)
            if seeded is not None and not seeded.contains(actual):
                return False
        return True

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
            self._claims_active
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
        if not self._claims_active:
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
    # Each hook is specialised when its instruction is compiled.  A check
    # that cannot fail on the compiled engine gets no code, claim constants
    # are bound into the closure, and the checks every execution makes are
    # counted per block through ``_compile_tally``.  The results, counters
    # and violations equal the reference engine's exactly.

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

    def _compile_block_hook(self, func: Function, block):
        track = self._tracks.get(self._header_loops.get(block))
        if track is None:
            return None
        body = track.loop.blocks

        def hook(prev_block):
            if prev_block is not None and prev_block in body:
                track.iteration += 1
            else:
                track.enter()

        return hook

    def _compile_result_hook(self, inst: Instruction):
        if not inst.type.is_int:
            return None
        expected = self._expected.get(inst)
        if (
            expected is not None
            and isinstance(inst, self._WRAPPED)
            and Interval.of_type(inst.type.bits).subset_of(expected)
        ):
            expected = None  # the wrapped result always lies inside
        claimed = self._claimed_bits.get(inst)
        if claimed is not None and not (claimed.zeros or claimed.ones):
            claimed = None  # nothing claimed known
        narrowing = self._narrowing_operands(inst)
        if expected is None and claimed is None and not narrowing:
            return None

        if expected is not None:
            lo = -math.inf if expected.lo is None else expected.lo
            hi = math.inf if expected.hi is None else expected.hi
        if claimed is not None:
            mask = (1 << claimed.bits) - 1
            zeros, ones = claimed.zeros, claimed.ones
        demand = self._demanded_mask.get(inst)
        shadow_ops = [
            (index, op) for index, op in enumerate(inst.operands)
            if not isinstance(op, Constant)
        ]

        def hook(result, *values):
            if not self._claims_active:
                return result
            if expected is not None and not lo <= result <= hi:
                self._interval_violation(inst, result, expected)
            if claimed is not None:
                known = result & mask
                if known & zeros or known & ones != ones:
                    self._known_bits_violation(inst, result, claimed)
            if narrowing:
                narrowed = list(values)
                for index, op_demand, bits in narrowing:
                    narrowed[index] = demanded_truncate(
                        values[index], op_demand, bits
                    )
                if tuple(narrowed) != values:
                    shadow = {op: narrowed[index] for index, op in shadow_ops}
                    self._reexecute_narrowed(inst, shadow, result, demand)
            return result

        return hook

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

    def _compile_access_hook(self, inst: Instruction):
        is_store = isinstance(inst, Store)
        nbytes = _access_bytes(inst)
        first = last = root = None
        proof = self.bounds.proven.get(inst)
        if proof is not None and isinstance(proof.root, GlobalVariable):
            # The proven window, as its first and last valid start address.
            root = self.global_addresses[proof.root]
            first = root + proof.offset.lo
            last = root + min(proof.offset.hi + proof.access_size,
                              proof.root_size) - nbytes
        base = self._access_base.get(inst)
        touched = None
        if base in self._claimed_bases:
            touched = self._touched.setdefault(base, set())
        banks = []
        for claim in self._checkable_bank_claims(inst):
            track = self._tracks[claim.loop]
            slot = [None, {}]
            track.bank_slots.append(slot)
            cyclic = claim.kind == "cyclic"
            banks.append((
                claim, track, slot, claim.factor,
                self.global_addresses[claim.base],
                claim.word if cyclic else claim.block_bytes,
                claim.banks if cyclic else 0,
            ))
        record_write = is_store and self._track_reuse_writes
        producers = [
            (claim, self._tracks[claim.loop])
            for claim in self._reuse_producers.get(inst, ())
        ]
        consumers = [
            (claim, self._tracks[claim.loop])
            for claim in self._reuse_consumers.get(inst, ())
        ]
        tracks = []
        for loop in self._loops_of_block.get(inst.parent, ()):
            track = self._tracks.get(loop)
            if track is not None and track.claims is not None:
                tracks.append((track, track.writes, track.reads))
        if not (first is not None or touched is not None or banks
                or record_write or producers or consumers or tracks):
            return None

        def hook(address):
            if not self._claims_active:
                return
            if first is not None and not first <= address <= last:
                self._bounds_violation(inst, proof, address - root)
            if touched is not None:
                touched.update(range(address, address + nbytes))
            for claim, track, slot, factor, base_addr, divisor, modulus \
                    in banks:
                seen = slot[1]
                if slot[0] != track.iteration // factor:
                    slot[0] = track.iteration // factor
                    seen.clear()
                bank = (address - base_addr) // divisor
                if modulus:
                    bank %= modulus
                prior = seen.get(bank)
                if prior is None:
                    seen[bank] = address
                elif prior != address or is_store:
                    self._bank_violation(claim, inst, prior, address, bank)
            if record_write:
                self._record_write(address, nbytes)
            for claim, track in producers:
                self._record_reuse(claim, address, track.iteration)
            for claim, track in consumers:
                self._check_reuse(
                    claim, inst, address, nbytes, track.iteration
                )
            for track, writes, reads in tracks:
                size = track.size
                if size and address % size:
                    track.to_bytes()
                    size = 0
                if size:
                    keys = (address,)
                else:  # byte keys, as the reference does it
                    keys, size = range(address, address + nbytes), 1
                iteration = track.iteration
                for key in keys:
                    prev = writes.get(key)
                    if prev is not None and prev[1] < iteration:
                        self._check_conflict(
                            track.loop, track.claims, prev[0], inst,
                            iteration - prev[1], size,
                        )
                    if is_store:
                        prev = reads.get(key)
                        if prev is not None and prev[1] < iteration:
                            self._check_conflict(
                                track.loop, track.claims, prev[0], inst,
                                iteration - prev[1], size,
                            )
                        writes[key] = (inst, iteration)
                    else:
                        reads[key] = (inst, iteration)

        return hook

    # Finalization ------------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List] = None):
        result = super().run(entry, args)
        self._finalize()
        return result

    def _finalize(self) -> None:
        if self._claims_active:
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
