"""Accelerator-configuration legality rules (codes ``CF0xx``).

These are the checks behind the paper's legality claims: unrolling is only
valid without loop-carried dependences (§III-C), unroll factors beyond the
trip count waste area, scratchpad interfaces must fit the buffer capacity,
pipelined regions must be call-free, and merging two datapaths only pays
when their operation signatures can share functional units (§III-E).

Every checker takes ``(config, model)`` and reads the analyses of the
:class:`~repro.model.estimator.AcceleratorModel` that built the config:
``model.context(config.region.function)``, ``model.profile`` and
``model.max_spad_bytes``.  The model's configs are legal by construction;
lint's config layer re-checks every one it generates.  The banking and
reuse rules derive their verdicts through the model's own
``banking_verdict``/``reuse_groups`` whatever ``model.proofs`` holds, so
an optimistic model's claims are still flagged.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..hls.transform import max_safe_unroll, unroll_legal
from ..ir import Call
from .core import Diagnostic, Location, Severity
from .registry import rule


def _loop_loc(config, loop, detail: str) -> Location:
    return Location(
        function=config.region.function.name,
        block=loop.header.name,
        detail=detail,
    )


def _trip_count(loop, model) -> Optional[float]:
    trip = model.profile.trip_count(loop)
    if trip > 0:
        return trip
    return loop.trip_count_estimate()


@rule(
    "CF001",
    "unroll-with-carried-dependence",
    layer="config",
    severity=Severity.ERROR,
    description=(
        "Configuration unrolls a loop beyond what its loop-carried "
        "dependences permit; replicated iterations would race on the "
        "dependence.  Factor-aware: a carried dependence with a proven "
        "minimal distance ≥ the unroll factor is legal (the dependence "
        "crosses unrolled groups)."
    ),
    paper_ref="§III-C (unroll only loops without carried dependencies)",
)
def check_unroll_legality(config, model) -> Iterator[Diagnostic]:
    memdep = model.context(config.region.function).memdep
    for plan in config.loop_plans.values():
        if plan.unroll <= 1:
            continue
        if not unroll_legal(plan.loop, memdep, plan.unroll):
            yield Diagnostic(
                code="CF001",
                severity=Severity.ERROR,
                location=_loop_loc(config, plan.loop,
                                   f"unroll x{plan.unroll}"),
                message=(
                    f"loop {plan.loop.name} is unrolled x{plan.unroll} but "
                    "carries a dependence between iterations"
                ),
                suggestion="unroll an enclosing dependence-free loop instead",
            )


@rule(
    "IR010",
    "unroll-factor-breaks-carried-dependence",
    layer="config",
    severity=Severity.ERROR,
    description=(
        "Unroll factor exceeds the proven minimal distance of a carried "
        "memory dependence: iterations t..t+F-1 run as one parallel group, "
        "so a dependence spanning fewer than F iterations would be "
        "violated inside the group.  The limit is the smallest distance "
        "the affine dependence-vector analysis proved (1 for dependences "
        "of unknown distance)."
    ),
    paper_ref="§III-C (unrolling legality from dependence distances)",
)
def check_unroll_distance(config, model) -> Iterator[Diagnostic]:
    memdep = model.context(config.region.function).memdep
    for plan in config.loop_plans.values():
        if plan.unroll <= 1:
            continue
        limit = max_safe_unroll(plan.loop, memdep)
        if limit is not None and plan.unroll > limit:
            yield Diagnostic(
                code="IR010",
                severity=Severity.ERROR,
                location=_loop_loc(config, plan.loop,
                                   f"unroll x{plan.unroll} > distance {limit}"),
                message=(
                    f"unroll factor {plan.unroll} of loop {plan.loop.name} "
                    f"exceeds the proven minimal carried-dependence "
                    f"distance {limit}"
                ),
                suggestion=(
                    f"cap the factor at {limit}, or unroll an enclosing "
                    "dependence-free loop instead"
                ),
            )


@rule(
    "CF002",
    "unroll-exceeds-trip-count",
    layer="config",
    severity=Severity.WARNING,
    description=(
        "Unroll factor exceeds the loop's (profiled or static) trip count; "
        "the extra lanes never run but still cost area."
    ),
    paper_ref="§III-C (configuration generation bounds factors by trips)",
)
def check_unroll_trip_count(config, model) -> Iterator[Diagnostic]:
    for plan in config.loop_plans.values():
        if plan.unroll <= 1:
            continue
        trip = _trip_count(plan.loop, model)
        if trip is not None and trip > 0 and plan.unroll > trip:
            yield Diagnostic(
                code="CF002",
                severity=Severity.WARNING,
                location=_loop_loc(config, plan.loop,
                                   f"unroll x{plan.unroll}"),
                message=(
                    f"unroll factor {plan.unroll} exceeds the trip count "
                    f"{trip:.0f} of loop {plan.loop.name}"
                ),
                suggestion=f"cap the factor at {int(trip)}",
            )


@rule(
    "CF003",
    "scratchpad-capacity-exceeded",
    layer="config",
    severity=Severity.ERROR,
    description=(
        "A scratchpad interface footprint exceeds the buffer capacity; the "
        "DMA preload cannot stage the working set."
    ),
    paper_ref="§III-C (scratchpad legality requires a bounded footprint)",
)
def check_scratchpad_capacity(config, model) -> Iterator[Diagnostic]:
    for assignment in config.plan.assignments.values():
        if assignment.kind.value != "scratchpad":
            continue
        if assignment.spad_bytes > model.max_spad_bytes:
            inst = assignment.inst
            yield Diagnostic(
                code="CF003",
                severity=Severity.ERROR,
                location=Location(
                    function=config.region.function.name,
                    block=inst.parent.name if inst.parent else None,
                    instruction=inst.ref,
                    detail=f"{assignment.spad_bytes} bytes",
                ),
                message=(
                    f"scratchpad footprint {assignment.spad_bytes} bytes "
                    f"exceeds the {model.max_spad_bytes}-byte capacity"
                ),
                suggestion="fall back to a coupled or decoupled interface",
            )


@rule(
    "CF005",
    "pipelined-region-with-call",
    layer="config",
    severity=Severity.ERROR,
    description=(
        "A pipelined loop contains a call; calls cannot be scheduled into "
        "a pipelined datapath."
    ),
    paper_ref="§III-C (only loop regions P and blocks B are synthesized)",
)
def check_pipelined_calls(config, model) -> Iterator[Diagnostic]:
    for plan in config.loop_plans.values():
        if not plan.pipelined:
            continue
        for block in plan.loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, Call):
                    yield Diagnostic(
                        code="CF005",
                        severity=Severity.ERROR,
                        location=_loop_loc(
                            config, plan.loop,
                            f"call @{inst.callee.name}",
                        ),
                        message=(
                            f"pipelined loop {plan.loop.name} contains a "
                            f"call to @{inst.callee.name}"
                        ),
                        suggestion="inline the callee or do not pipeline",
                    )


def _spad_group_verdicts(config, model):
    """Yield ``(group, assignments, verdict)`` for every scratchpad group
    of the configuration, derived by the model's own banking pass."""
    ctx = model.context(config.region.function)
    for group, assignments in config.plan.spad_groups().items():
        yield group, assignments, model.banking_verdict(
            group, assignments, ctx, config.loop_plans
        )


def _group_loc(config, group, detail: str) -> Location:
    return Location(
        function=config.region.function.name,
        detail=f"scratchpad group {getattr(group, 'name', group)}: {detail}",
    )


@rule(
    "BK001",
    "claimed-banking-has-provable-conflict",
    layer="config",
    severity=Severity.ERROR,
    description=(
        "A scratchpad group claims a conflict-free banking scheme, but the "
        "static bank-conflict analysis proves two simultaneous lane "
        "replicas of one access land in the same bank (their address delta "
        "is ≡ 0 modulo the cyclic scheme, or falls inside one block): the "
        "claimed parallel ports would collide every cycle slot.  A bare "
        "partition claim with no scheme attached is checked as the "
        "implicit cyclic scheme of that order."
    ),
    paper_ref="§III-C (scratchpad partitioning for parallel access)",
)
def check_banking_conflict(config, model) -> Iterator[Diagnostic]:
    from ..analysis.banking import CONFLICTED, BankingScheme

    for group, assignments, verdict in _spad_group_verdicts(config, model):
        claimed = max(a.partitions for a in assignments)
        if claimed <= 1:
            continue
        if not any(a.banking_proven for a in assignments):
            continue  # already serialized by the estimator: sound
        scheme = next(
            (a.banking for a in assignments if a.banking is not None),
            BankingScheme("cyclic", claimed),
        )
        status = verdict.status_of(scheme)
        if status == CONFLICTED:
            reason = next(
                (e.reason for e in verdict.schemes
                 if e.scheme == scheme), "")
            yield Diagnostic(
                code="BK001",
                severity=Severity.ERROR,
                location=_group_loc(config, group, scheme.label),
                message=(
                    f"claimed {scheme.label} banking of group "
                    f"{verdict.base_name} has a provable bank conflict: "
                    f"{reason}"
                ),
                suggestion=(
                    "serialize the group (drop the partition claim) or "
                    "pick a proven scheme from `repro banks`"
                ),
            )


@rule(
    "BK002",
    "banks-over-provisioned",
    layer="config",
    severity=Severity.INFO,
    description=(
        "A scratchpad group builds more banks than the proven parallelism "
        "can use: either the cheapest conflict-free scheme needs fewer "
        "banks (e.g. broadcast loads prove with one), or no scheme is "
        "provable at all and the scheduler serializes onto one dual-ported "
        "bank.  The surplus banks cost SRAM base area without adding "
        "usable ports."
    ),
    paper_ref="§III-C (banking should match exploitable parallelism)",
)
def check_banking_overprovision(config, model) -> Iterator[Diagnostic]:
    for group, assignments, verdict in _spad_group_verdicts(config, model):
        claimed = max(a.partitions for a in assignments)
        usable = verdict.best.banks if verdict.proven else 1
        if claimed > usable:
            detail = (
                f"proven scheme {verdict.best.label}"
                if verdict.proven else "no provable scheme"
            )
            yield Diagnostic(
                code="BK002",
                severity=Severity.INFO,
                location=_group_loc(
                    config, group, f"{claimed} banks, {usable} usable"
                ),
                message=(
                    f"group {verdict.base_name} builds {claimed} banks but "
                    f"only {usable} can be used in parallel ({detail})"
                ),
                suggestion=f"size the group at {usable} bank(s)",
            )


@rule(
    "RU001",
    "claimed-reuse-pair-unproven",
    layer="config",
    severity=Severity.ERROR,
    description=(
        "An interface assignment claims a shift-register reuse pair — the "
        "consumer is fed from a register tap a fixed number of iterations "
        "behind its producer instead of a scratchpad port — but "
        "re-deriving the proof fails: the SIV residue test shows a "
        "provable address mismatch at the claimed distance, or an "
        "intervening (possibly may-alias) store can clobber the buffered "
        "element before the consumer reads it.  The buffer would silently "
        "forward a stale or wrong value every iteration."
    ),
    paper_ref="§III-C (data access optimization must preserve semantics)",
)
def check_reuse_claims(config, model) -> Iterator[Diagnostic]:
    claims = [
        a for a in config.plan.assignments.values()
        if a.reuse_distance is not None
    ]
    if not claims:
        return
    ctx = model.context(config.region.function)
    verdicts = {
        (group, loop): verdict
        for group, loop, _members, verdict, _lanes
        in model.reuse_groups(config.plan, ctx, config.loop_plans)
    }
    for assignment in claims:
        inst = assignment.inst
        loop = ctx.loop_info.innermost_loop(inst.parent)
        verdict = verdicts.get((assignment.spad_group, loop))
        if verdict is not None and any(
            p.consumer.inst is inst
            and p.producer.inst is assignment.reuse_source
            and p.distance == assignment.reuse_distance
            for p in verdict.pairs
        ):
            continue  # the claim re-proves: sound
        producer = assignment.reuse_source
        producer_name = getattr(producer, "name", None) or "?"
        if verdict is None:
            reason = (
                "the enclosing loop is not analyzable (contains a call "
                "or is not a pipelined innermost loop)"
            )
        else:
            reason = (
                f"no proof of distance {assignment.reuse_distance} from "
                f"%{producer_name} (residue test disproves the pair)"
            )
            for cand in list(verdict.broken) + list(verdict.unknown):
                if cand.consumer.inst is inst and (
                    cand.producer is None
                    or cand.producer.inst is producer
                ):
                    reason = cand.reason
                    break
        yield Diagnostic(
            code="RU001",
            severity=Severity.ERROR,
            location=Location(
                function=config.region.function.name,
                block=inst.parent.name if inst.parent else None,
                instruction=inst.ref,
                detail=(
                    f"claimed reuse of %{producer_name} at distance "
                    f"{assignment.reuse_distance}"
                ),
            ),
            message=(
                f"claimed reuse pair %{producer_name} -> "
                f"%{inst.name or '?'} at distance "
                f"{assignment.reuse_distance} is unproven: {reason}"
            ),
            suggestion=(
                "drop the reuse claim; only pairs the analysis proves "
                "may bypass the scratchpad port"
            ),
        )


@rule(
    "RU002",
    "provable-reuse-over-depth-budget",
    layer="config",
    severity=Severity.INFO,
    description=(
        "A load provably reuses an element a recent iteration touched, "
        "but the configuration leaves it on a scratchpad port because the "
        "shift-register chain it needs (distance plus unrolled lane taps) "
        "exceeds the register-depth budget.  The reuse is sound — only "
        "too expensive under the current lane count — so reducing the "
        "unroll factor or raising the budget would convert the port "
        "access into a register tap."
    ),
    paper_ref="§III-C (reuse buffers trade registers for port pressure)",
)
def check_reuse_unexploited(config, model) -> Iterator[Diagnostic]:
    from ..analysis.reuse import MAX_REUSE_DEPTH, select_buffers

    ctx = model.context(config.region.function)
    for group, _loop, members, verdict, lanes in model.reuse_groups(
        config.plan, ctx, config.loop_plans
    ):
        if not verdict.pairs:
            continue
        _chosen, over_budget = select_buffers(verdict, lanes=lanes)
        by_inst = {a.inst: a for a in members}
        for pair in over_budget:
            assignment = by_inst.get(pair.consumer.inst)
            if assignment is not None and assignment.reuse_buffered:
                continue  # exploited after all (e.g. a custom budget)
            consumer_name = getattr(pair.consumer.inst, "name", None) or "?"
            producer_name = getattr(pair.producer.inst, "name", None) or "?"
            yield Diagnostic(
                code="RU002",
                severity=Severity.INFO,
                location=_group_loc(
                    config, group,
                    f"depth {pair.depth(lanes)} > budget {MAX_REUSE_DEPTH}",
                ),
                message=(
                    f"load %{consumer_name} provably reuses "
                    f"%{producer_name} at distance {pair.distance}, but "
                    f"the {pair.depth(lanes)}-stage chain "
                    f"({lanes} lane(s)) exceeds the "
                    f"{MAX_REUSE_DEPTH}-register budget"
                ),
                suggestion=(
                    "reduce the unroll factor so the lane taps fit, or "
                    "raise the depth budget"
                ),
            )


@rule(
    "CF004",
    "merge-without-shared-signatures",
    layer="merge",
    severity=Severity.WARNING,
    description=(
        "Two datapath units considered for merging share no operation "
        "signature (resource class x width); merging them can only add "
        "mux/config overhead."
    ),
    paper_ref="§III-E (merging shares functional units of matching class)",
)
def check_merge_signatures(name_a, dfg_a, name_b, dfg_b) -> Iterator[Diagnostic]:
    from ..merging.opmatch import op_keys

    keys_a = op_keys(dfg_a)
    keys_b = op_keys(dfg_b)
    if keys_a and keys_b and not (keys_a & keys_b):
        yield Diagnostic(
            code="CF004",
            severity=Severity.WARNING,
            location=Location(detail=f"{name_a} + {name_b}"),
            message=(
                f"units {name_a} and {name_b} share no operation "
                "signatures; a merge cannot save functional-unit area"
            ),
            suggestion="skip this pair during merging",
        )


def config_diagnostics(config, model) -> List[Diagnostic]:
    """Run every config-layer rule on one configuration ``model`` built."""
    from .registry import rules_for_layer

    found: List[Diagnostic] = []
    for entry in rules_for_layer("config"):
        found.extend(entry.checker(config, model))
    return found


def merge_pair_diagnostics(name_a, dfg_a, name_b, dfg_b) -> List[Diagnostic]:
    """Run the merge-layer rules on one candidate unit pair."""
    return list(check_merge_signatures(name_a, dfg_a, name_b, dfg_b))
