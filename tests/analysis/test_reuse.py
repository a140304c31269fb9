"""Data-reuse analysis tests: exact SIV/ZIV pair proofs on stencils and
accumulators, store-to-load forwarding, the degradations (may-alias
stores, indirect subscripts, conditional clobbers), provable disproofs
that never surface as pairs, buffer selection under trip/depth budgets,
and lane-aware depths under unrolling."""

import pytest

from repro.analysis.facts import FunctionContext
from repro.analysis.reuse import (
    BROKEN,
    FORWARD,
    MAX_REUSE_DEPTH,
    SELF_REUSE,
    UNKNOWN,
    ReuseAnalysis,
    probe_function,
    select_buffers,
)
from repro.dataflow import ModuleIntervalAnalysis, PointsToAnalysis
from repro.frontend import compile_source
from repro.workloads import get_workload


def probes_for(source, func_name, name="reuse"):
    module = compile_source(source, name)
    return probe_function(FunctionContext(
        module.get_function(func_name),
        points_to=PointsToAnalysis(module),
        intervals=ModuleIntervalAnalysis(module),
    ))


def workload_probes(name, func_name):
    workload = get_workload(name)
    return probes_for(workload.source, func_name, name=workload.name)


def probe_of(probes, base):
    for p in probes:
        if p.verdict.base_name == base:
            return p
    raise AssertionError(
        f"no probe for base {base!r} in "
        f"{[p.verdict.base_name for p in probes]}"
    )


class TestSelfReuse:
    def test_stencil_three_point_pairs(self):
        probes = workload_probes("stencil-reuse-3", "stencil")
        verdict = probe_of(probes, "Xs").verdict
        assert not verdict.unknown and not verdict.broken
        distances = sorted(p.distance for p in verdict.pairs)
        assert distances == [1, 1, 2]
        assert all(p.kind == SELF_REUSE for p in verdict.pairs)
        # Every pair carries the interval-proven trip bound of the loop.
        assert all(p.trip is not None and p.trip > 2 for p in verdict.pairs)

    def test_negative_distance_never_claimed(self):
        # X[i+1] read after X[i]: the roles only prove one way around.
        probes = probes_for(
            """
            float X[64];
            float Y[64];
            void k(int n) {
              shift: for (int i = 0; i + 1 < n; i++) {
                Y[i] = X[i] + X[i + 1];
              }
            }
            void main() { k(63); }
            """,
            "k",
        )
        verdict = probe_of(probes, "X").verdict
        assert len(verdict.pairs) == 1
        assert verdict.pairs[0].distance == 1
        assert all(p.distance > 0 for p in verdict.pairs)


class TestForwarding:
    def test_store_to_load_distance_two(self):
        probes = workload_probes("fwd-store-load", "fwd")
        verdict = probe_of(probes, "F").verdict
        forwards = [p for p in verdict.pairs if p.kind == FORWARD]
        assert len(forwards) == 1
        assert forwards[0].distance == 2
        assert forwards[0].producer.is_store
        assert forwards[0].consumer.is_load

    def test_ziv_accumulator_forwarding(self):
        # trisolv's substitution loop stores x[i] and re-loads it next
        # iteration at the same (inner-loop-invariant) address: ZIV d=1.
        probes = workload_probes("trisolv", "trisolv")
        verdict = probe_of(probes, "x").verdict
        assert any(
            p.kind == FORWARD and p.distance == 1 for p in verdict.pairs
        )


class TestDegradations:
    def test_may_alias_store_degrades_to_unknown(self):
        probes = workload_probes("reuse-breaker", "brk")
        verdict = probe_of(probes, "Bk").verdict
        assert not verdict.pairs
        assert verdict.unknown
        assert all(c.status == UNKNOWN for c in verdict.unknown)
        assert any("may-alias" in c.reason for c in verdict.unknown)

    def test_indirect_subscript_degrades_to_unknown(self):
        probes = probes_for(
            """
            float A[64];
            int idx[64];
            float s;
            void k(int n) {
              gather: for (int i = 1; i < n; i++) {
                s = s + A[idx[i]] + A[i - 1] + A[i];
              }
            }
            void main() { k(64); }
            """,
            "k",
        )
        verdict = probe_of(probes, "A").verdict
        assert any(
            "non-affine or indirect" in c.reason for c in verdict.unknown
        )
        # The affine A[i] -> A[i-1] pair still proves alongside.
        assert any(p.distance == 1 for p in verdict.pairs)

    def test_conditional_clobber_degrades_to_unknown(self):
        probes = probes_for(
            """
            float X[64];
            float Y[64];
            void k(int n) {
              acc: for (int i = 2; i < n; i++) {
                Y[i] = X[i] + X[i - 2];
                if (Y[i] > 1.0f) { X[i - 1] = 0.0f; }
              }
            }
            void main() { k(64); }
            """,
            "k",
        )
        verdict = probe_of(probes, "X").verdict
        # The d=2 pair crosses the conditionally-stored element X[i-1]
        # (hit at k=1, strictly inside the window): unknown, not broken.
        assert not any(p.distance == 2 for p in verdict.pairs)
        assert any(
            c.status == UNKNOWN and "conditional store" in c.reason
            for c in verdict.unknown
        )


class TestProvenBreaks:
    def test_same_iteration_overwrite_breaks_pair(self):
        probes = probes_for(
            """
            float X[64];
            float Y[64];
            void k(int n) {
              upd: for (int i = 1; i < n; i++) {
                X[i] = X[i] * 2.0f;
                Y[i] = X[i - 1];
              }
            }
            void main() { k(64); }
            """,
            "k",
        )
        verdict = probe_of(probes, "X").verdict
        # Candidate: load X[i] feeds load X[i-1] one iteration later — but
        # the store X[i] after the producer load clobbers the element
        # before the tap would be read.  Proven broken, never a pair.
        assert not any(
            p.kind == SELF_REUSE and p.distance == 1 for p in verdict.pairs
        )
        assert any(c.status == BROKEN for c in verdict.broken)
        # The store-to-load pair (store X[i] -> load X[i-1]) still proves.
        assert any(
            p.kind == FORWARD and p.distance == 1 for p in verdict.pairs
        )


class TestSelection:
    def test_max_distance_wins_per_consumer(self):
        probes = workload_probes("stencil-reuse-3", "stencil")
        verdict = probe_of(probes, "Xs").verdict
        chosen, over = select_buffers(verdict)
        assert not over
        # X[i-2] chains to the leading X[i] load (d=2), not to X[i-1].
        assert sorted(p.distance for p in chosen.values()) == [1, 2]
        producers = {p.producer.inst for p in chosen.values()}
        assert len(producers) == 1  # one register chain serves both taps

    def test_depth_is_lane_aware(self):
        probes = workload_probes("stencil-reuse-3", "stencil")
        verdict = probe_of(probes, "Xs").verdict
        pair = max(verdict.pairs, key=lambda p: p.distance)
        assert pair.depth() == pair.distance
        assert pair.depth(lanes=4) == pair.distance + 3

    def test_over_budget_pairs_are_reported_not_chosen(self):
        probes = probes_for(
            """
            float H[512];
            float G[512];
            void k(int n) {
              lag: for (int i = 100; i < n; i++) {
                G[i] = H[i] * 0.5f + H[i - 100] * 0.5f;
              }
            }
            void main() { k(512); }
            """,
            "k",
        )
        verdict = probe_of(probes, "H").verdict
        assert any(p.distance == 100 for p in verdict.pairs)
        chosen, over = select_buffers(verdict)
        assert not chosen
        assert [p.distance for p in over] == [100]
        assert over[0].depth() > MAX_REUSE_DEPTH
        # A budget that fits the chain flips it back to chosen.
        chosen, over = select_buffers(verdict, max_depth=128)
        assert not over and len(chosen) == 1

    def test_unproven_trip_blocks_selection(self):
        # Without an interval analysis the trip bound is unprovable: the
        # address math still proves, but no buffer may be selected (the
        # warm-up would be unbounded).
        module = compile_source(
            """
            float Q[256];
            float R[256];
            void k(int n) {
              acc: for (int i = 1; i < n; i++) {
                R[i] = Q[i] + Q[i - 1];
              }
            }
            void main() { k(256); }
            """,
            "reuse",
        )
        ctx = FunctionContext(
            module.get_function("k"), points_to=PointsToAnalysis(module)
        )
        probes = probe_function(ctx)
        verdict = probe_of(probes, "Q").verdict
        assert verdict.pairs  # proven address math but unproven trip
        assert all(p.trip is None for p in verdict.pairs)
        chosen, over = select_buffers(verdict)
        assert not chosen and not over


class TestProbeFunction:
    def test_loops_with_calls_are_skipped(self):
        probes = probes_for(
            """
            float Z[64];
            float W[64];
            void touch(int i) { W[i] = Z[i]; }
            void k(int n) {
              acc: for (int i = 1; i < n; i++) {
                Z[i] = Z[i - 1] + 1.0f;
                touch(i);
              }
            }
            void main() { k(64); }
            """,
            "k",
        )
        assert probes == []

    def test_probes_are_deterministically_sorted(self):
        probes = workload_probes("stencil-reuse-3", "stencil")
        keys = [
            (p.function, p.loop.name, p.verdict.base_name) for p in probes
        ]
        assert keys == sorted(keys)

    def test_store_only_groups_not_probed(self):
        probes = workload_probes("stencil-reuse-3", "stencil")
        assert all(p.verdict.base_name != "Ys" for p in probes)

    def test_verdict_serialization_round_trips(self):
        probes = workload_probes("fwd-store-load", "fwd")
        payload = probe_of(probes, "F").to_dict()
        assert payload["pairs"]
        pair = payload["pairs"][0]
        assert pair["kind"] == FORWARD
        assert pair["distance"] == 2
        assert pair["status"] == "proven"
