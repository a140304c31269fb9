"""Bank-conflict analysis tests: the verdict lattice on real strides
(cyclic residue proofs, block-scheme slot enumeration, pigeonhole,
broadcast lanes), the unknown degradations (non-affine, unresolvable),
the whole-function probe, and the is_stream interplay the banking layer
relies on (satellite: linearized and non-affine subscripts)."""

import pytest

from repro.analysis.banking import (
    CONFLICT_FREE,
    CONFLICTED,
    UNKNOWN,
    BankingAnalysis,
    BankingScheme,
    GroupAccess,
    probe_function,
)
from repro.analysis.facts import FunctionContext
from repro.dataflow import ModuleIntervalAnalysis, PointsToAnalysis
from repro.frontend import compile_source
from repro.workloads import get_workload


def build(source, name="bank"):
    return compile_source(source, name)


def context_for(module, func_name):
    """Fresh analyses of one function (not the module's memoized facts)."""
    return FunctionContext(
        module.get_function(func_name),
        points_to=PointsToAnalysis(module),
        intervals=ModuleIntervalAnalysis(module),
    )


def probes_for(module, func_name):
    return probe_function(context_for(module, func_name))


def workload_probes(name, func_name):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    return probes_for(module, func_name)


def find_probe(probes, loop_frag, base, factor):
    for p in probes:
        if (loop_frag in p.loop.name and p.verdict.base_name == base
                and p.factor == factor):
            return p
    raise AssertionError(
        f"no probe ({loop_frag!r}, {base!r}, x{factor}) in "
        f"{[(p.loop.name, p.verdict.base_name, p.factor) for p in probes]}"
    )


def loop_named(access, fragment):
    for loop in access.loop_info.loops:
        if fragment in loop.name:
            return loop
    raise AssertionError(f"no loop matching {fragment!r}")


def status_of(verdict, label):
    for entry in verdict.schemes:
        if entry.scheme.label == label:
            return entry
    raise AssertionError(f"no scheme {label} in {verdict.to_dict()}")


class TestSchemeEnumeration:
    def test_powers_of_two_cyclic_and_block(self):
        analysis = BankingAnalysis(resolver=None)
        labels = [s.label for s in analysis.candidate_schemes(8)]
        assert labels == [
            "cyclic-1", "cyclic-2", "block-2", "cyclic-4", "block-4",
            "cyclic-8", "block-8",
        ]

    def test_single_lane_only_trivial_scheme(self):
        analysis = BankingAnalysis(resolver=None)
        assert [s.label for s in analysis.candidate_schemes(1)] == ["cyclic-1"]


class TestStrideOneProves:
    """A unit-stride float stream unrolled by U proves cyclic-U: lane
    deltas are 1, 2, 3 words — never ≡ 0 mod U."""

    def test_init_loop_proves_every_factor(self):
        probes = workload_probes("stride2-collider", "init")
        for factor in (2, 4, 8):
            p = find_probe(probes, "for", "A", factor)
            assert p.verdict.proven
            assert p.verdict.best.label == f"cyclic-{factor}"
            entry = status_of(p.verdict, f"cyclic-{factor}")
            assert entry.status == CONFLICT_FREE


class TestStrideTwoCollider:
    """A[2*i]: every lane delta is an even word count, so every cyclic
    power-of-two scheme collides, and adjacent lanes fall inside one
    block — nothing is provable, the group serializes."""

    @pytest.fixture(scope="class")
    def probes(self):
        return workload_probes("stride2-collider", "collide")

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_no_scheme_provable(self, probes, factor):
        p = find_probe(probes, "gather", "A", factor)
        assert p.verdict.best is None
        assert not p.verdict.proven
        assert all(e.status != CONFLICT_FREE for e in p.verdict.schemes
                   if e.scheme.banks > 1)

    def test_cyclic_residue_reason_is_exact(self, probes):
        p = find_probe(probes, "gather", "A", 2)
        entry = status_of(p.verdict, "cyclic-2")
        assert entry.status == CONFLICTED
        assert "delta of 2 words" in entry.reason
        assert "mod 2" in entry.reason

    def test_pigeonhole_fires_on_small_banks(self, probes):
        # 8 distinct lanes cannot fit 2 banks under any scheme.
        p = find_probe(probes, "gather", "A", 8)
        entry = status_of(p.verdict, "cyclic-2")
        assert entry.status == CONFLICTED
        assert "pigeonhole" in entry.reason

    def test_destination_stream_still_proves(self, probes):
        # R[i] in the same loop is unit-stride: proven despite the
        # serialized neighbour group.
        for factor in (2, 4, 8):
            p = find_probe(probes, "gather", "R", factor)
            assert p.verdict.proven
            assert p.verdict.best.label == f"cyclic-{factor}"


class TestBankTranspose:
    """T[r*24 + c] column sweep: the 24-word row pitch shares a factor
    with every power-of-two cyclic bank count, but the four row slices
    are a full block apart — block-4 proves where cyclic cannot."""

    @pytest.fixture(scope="class")
    def probes(self):
        return workload_probes("bank-transpose", "colsum")

    def test_cyclic_conflicted_block_proven(self, probes):
        p = find_probe(probes, "rows_l", "T", 4)
        assert status_of(p.verdict, "cyclic-4").status == CONFLICTED
        assert "24 words" in status_of(p.verdict, "cyclic-4").reason
        assert status_of(p.verdict, "block-4").status == CONFLICT_FREE
        assert p.verdict.best.label == "block-4"

    def test_probe_carries_group_geometry(self, probes):
        p = find_probe(probes, "rows_l", "T", 4)
        assert p.verdict.lanes == 4
        assert p.verdict.word_bytes == 4
        assert p.verdict.footprint_bytes == 96 * 4


class TestDualInterleave:
    """Two groups in one loop get independent verdicts: S[i] proves
    cyclic, D[2*i] and D[2*i+1] serialize."""

    @pytest.fixture(scope="class")
    def probes(self):
        return workload_probes("dual-interleave", "gath")

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_mixed_verdicts(self, probes, factor):
        assert find_probe(probes, "mix", "S", factor).verdict.proven
        assert not find_probe(probes, "mix", "D", factor).verdict.proven


BROADCAST_SOURCE = """
float s[8]; float out[64];
void bcast(int n) {
  bl: for (int i = 0; i < n; i = i + 1) out[i] = out[i] * 0.5f + s[0];
}
void sink(int n) {
  sl: for (int i = 0; i < n; i = i + 1) s[0] = s[0] + 1.0f;
}
int main() {
  for (int i = 0; i < 64; i = i + 1) out[i] = (float)i;
  s[0] = 1.0f;
  bcast(64);
  sink(8);
  return 0;
}
"""


class TestBroadcastLanes:
    def test_broadcast_load_proves_one_bank(self):
        """Equal-address load lanes collapse: s[0] read by every lane is
        a broadcast, proven with a single bank."""
        probes = probes_for(build(BROADCAST_SOURCE), "bcast")
        p = find_probe(probes, "bl", "s", 4)
        assert p.verdict.proven
        assert p.verdict.best.label == "cyclic-1"

    def test_broadcast_store_is_proven_conflict(self):
        """Equal-address *store* lanes always collide.  probe_function
        never produces this shape (the carried dependence makes the
        unroll illegal), so drive the verdict directly."""
        module = compile_source(BROADCAST_SOURCE, "bank", optimize=False)
        ctx = context_for(module, "sink")
        loop = loop_named(ctx.access, "sl")
        store = next(
            info for info in ctx.access.accesses_in(loop.blocks)
            if info.is_store and getattr(info.base, "name", "") == "s"
        )
        verdict = ctx.banking.verdict(
            store.base, [GroupAccess(store, ((loop, 2),))]
        )
        assert verdict.best is None
        assert all(e.status == CONFLICTED for e in verdict.schemes)
        assert "store lanes share an address" in verdict.schemes[0].reason


NONAFFINE_SOURCE = """
int idx[64]; float A[64]; float R[64];
void gather(int n) {
  g: for (int i = 0; i < n; i = i + 1) R[i] = A[idx[i]] * 0.5f;
}
int main() {
  for (int i = 0; i < 64; i = i + 1) { idx[i] = (63 - i); A[i] = (float)i; }
  gather(64);
  return 0;
}
"""


class TestNonAffineSerializes:
    """Satellite: indirect subscripts are not streams, and soundness
    demands they serialize — unknown is treated exactly like conflicted."""

    @pytest.fixture(scope="class")
    def setup(self):
        module = build(NONAFFINE_SOURCE)
        ctx = context_for(module, "gather")
        return ctx.access, probe_function(ctx)

    def test_not_a_stream(self, setup):
        access, _ = setup
        loop = loop_named(access, "g")
        load = next(
            info for info in access.accesses_in(loop.blocks)
            if getattr(info.base, "name", "") == "A"
        )
        assert not load.is_stream
        # The offset is affine *in the loaded symbol* — no addrec levels,
        # and the residual varies every iteration.
        assert not load.affine_addrec_levels()

    def test_verdict_unknown_and_serialized(self, setup):
        _, probes = setup
        p = find_probe(probes, "g", "A", 4)
        assert p.verdict.best is None
        entry = status_of(p.verdict, "cyclic-4")
        assert entry.status == UNKNOWN
        assert "non-affine" in entry.reason

    def test_affine_neighbours_still_prove(self, setup):
        _, probes = setup
        assert find_probe(probes, "g", "idx", 4).verdict.proven
        assert find_probe(probes, "g", "R", 4).verdict.proven


LINEARIZED_SOURCE = """
float A[1024]; float Rv[32];
void lin(int n) {
  outer: for (int i = 0; i < n; i = i + 1) {
    inner: for (int j = 0; j < n; j = j + 1) {
      Rv[i] = Rv[i] + A[i * n + j];
    }
  }
}
int main() {
  for (int i = 0; i < 1024; i = i + 1) A[i] = (float)i;
  lin(32);
  return 0;
}
"""


class TestLinearizedStream:
    """Satellite: A[i*n + j] is a stream (symbolic outer step n stays
    loop-invariant), and the banking analysis reads the same affine nest."""

    def test_linearized_is_stream(self):
        module = build(LINEARIZED_SOURCE)
        access = context_for(module, "lin").access
        loop = loop_named(access, "inner")
        load = next(
            info for info in access.accesses_in(loop.blocks)
            if getattr(info.base, "name", "") == "A"
        )
        assert load.is_stream
        levels = load.affine_addrec_levels()
        assert levels is not None and len(levels) == 2

    def test_inner_unroll_proves_cyclic(self):
        # The inner dimension is unit-stride: word deltas 1..U-1.
        probes = probes_for(build(LINEARIZED_SOURCE), "lin")
        p = find_probe(probes, "inner", "A", 4)
        assert p.verdict.proven
        assert p.verdict.best.label == "cyclic-4"

    def test_partial_resolution_still_banks(self):
        """Called with two row pitches, ``n`` is no longer a proven
        constant: the outer coefficient of ``A[i*n + j]`` stays unresolved,
        so the dependence tester has no form for the load.  Banking only
        needs the unrolled inner loop's coefficient and still proves
        cyclic-4."""
        source = LINEARIZED_SOURCE.replace("lin(32);", "lin(16); lin(32);")
        module = build(source)
        ctx = context_for(module, "lin")
        access = ctx.access
        loop = loop_named(access, "inner")
        load = next(
            info for info in access.accesses_in(loop.blocks)
            if getattr(info.base, "name", "") == "A"
        )
        assert load.is_stream
        assert ctx.resolver.full(load) is None
        assert None in ctx.resolver.of(load).coeffs.values()
        p = find_probe(probe_function(ctx), "inner", "A", 4)
        assert p.verdict.best.label == "cyclic-4"


class TestProbeShape:
    def test_probe_sorted_and_deterministic(self):
        # Same module, fresh analyses: bit-identical probe reports.
        workload = get_workload("stride2-collider")
        module = compile_source(workload.source, workload.name)
        first = [p.to_dict() for p in probes_for(module, "collide")]
        second = [p.to_dict() for p in probes_for(module, "collide")]
        assert first == second
        keys = [(d["function"], d["loop"], d["base"], d["factor"])
                for d in first]
        assert keys == sorted(keys)

    def test_semantics_stable_across_compiles(self):
        # Fresh compiles renumber SSA values; everything the verdicts
        # *decide* must still match exactly.
        def semantic(probes):
            return [
                (d["function"], d["loop"], d["base"], d["factor"],
                 d["lanes"], d["word_bytes"], d["footprint_bytes"],
                 tuple((s["scheme"], s["status"]) for s in d["schemes"]),
                 d["best"])
                for d in (p.to_dict() for p in probes)
            ]

        assert semantic(workload_probes("stride2-collider", "collide")) == \
            semantic(workload_probes("stride2-collider", "collide"))

    def test_to_dict_is_flat_and_json_ready(self):
        import json

        p = workload_probes("bank-transpose", "colsum")[0]
        d = p.to_dict()
        for key in ("function", "loop", "factor", "accesses", "base",
                    "lanes", "word_bytes", "schemes", "best"):
            assert key in d
        json.dumps(d)  # no live IR objects leak into the report

    def test_verdict_cached_per_analysis(self):
        module = build(BROADCAST_SOURCE)
        ctx = context_for(module, "bcast")
        loop = loop_named(ctx.access, "bl")
        load = next(
            info for info in ctx.access.accesses_in(loop.blocks)
            if getattr(info.base, "name", "") == "s"
        )
        analysis = ctx.banking
        members = [GroupAccess(load, ((loop, 4),))]
        assert analysis.verdict(load.base, members) is analysis.verdict(
            load.base, members
        )

    def test_status_of_unlisted_scheme_is_unknown(self):
        module = build(BROADCAST_SOURCE)
        ctx = context_for(module, "bcast")
        loop = loop_named(ctx.access, "bl")
        load = next(
            info for info in ctx.access.accesses_in(loop.blocks)
            if getattr(info.base, "name", "") == "s"
        )
        analysis = ctx.banking
        verdict = analysis.verdict(load.base, [GroupAccess(load, ((loop, 2),))])
        assert verdict.status_of(BankingScheme("cyclic", 64)) == UNKNOWN
