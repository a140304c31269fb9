"""Compiled-engine equivalence: the closure-compiled execution engine must
be bit-identical to the reference interpreter — results, final memory image,
``cycles``, ``instructions``, elided/checked access counts, and every
``ProfileCounters`` field — including under the sanitizer and the
narrowing interpreter.
"""

import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.facts import ModuleFacts
from repro.dataflow import Interval
from repro.dataflow.bounds import AccessWindow
from repro.frontend import compile_source
from repro.interp import Interpreter, InterpreterError, NarrowingInterpreter
from repro.interp.sanitizer import SanitizingInterpreter
from repro.ir import I32, Module
from repro.ir.parser import parse_module
from repro.workloads import get_workload

from ..conftest import sanitize_both, sanitized_output

# Registry cross-section: PolyBench dense/triangular kernels, a MachSuite
# kernel with calls, and the synthetic soundness stress workloads.
CROSS_SECTION = [
    "trisolv", "bicg", "nw", "jacobi-2d", "fft",
    "bitwidth-adversary", "wave-lag", "smooth-alias",
]


def run_both(name, *, profile=False, elide=True):
    """Run one workload under both engines on the same module object (so
    profile counters are keyed by identical block objects) and return the
    two interpreters plus their results."""
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    bounds = ModuleFacts.of(module).bounds if elide else None
    out = {}
    for engine in ("reference", "compiled"):
        interp = Interpreter(
            module, bounds=bounds, profile=profile, engine=engine
        )
        out[engine] = (interp.run(workload.entry), interp)
    return out


def assert_identical(out):
    (ref_result, ref), (cmp_result, cmp_) = out["reference"], out["compiled"]
    assert ref_result == cmp_result
    assert ref.memory.data == cmp_.memory.data
    assert ref.cycles == cmp_.cycles
    assert ref.instructions == cmp_.instructions
    assert ref.elided_accesses == cmp_.elided_accesses
    assert ref.checked_accesses == cmp_.checked_accesses


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", CROSS_SECTION)
    def test_bit_identical_elided(self, name):
        assert_identical(run_both(name, elide=True))

    @pytest.mark.parametrize("name", ["trisolv", "wave-lag"])
    def test_bit_identical_fully_checked(self, name):
        out = run_both(name, elide=False)
        assert_identical(out)
        assert out["compiled"][1].elided_accesses == 0

    # parser-125k calls from inside loops, so its call blocks' cycles come
    # from the compiled engine's dynamic deltas.
    @pytest.mark.parametrize("name", [
        "trisolv", "nw", "fft", "parser-125k", "zip-test", "floyd-warshall",
    ])
    def test_profile_counters_identical(self, name):
        out = run_both(name, profile=True)
        assert_identical(out)
        assert_counters_identical(out["reference"][1], out["compiled"][1])


def assert_counters_identical(ref, cmp_):
    ref, cmp_ = ref.counters, cmp_.counters
    assert ref.block_count == cmp_.block_count
    assert ref.block_instructions == cmp_.block_instructions
    assert ref.block_cycles == cmp_.block_cycles
    assert ref.edge_count == cmp_.edge_count
    assert ref.func_entry_count == cmp_.func_entry_count


def run_module_both(module, args=(), entry="main"):
    """Profile ``entry`` of ``module`` under both engines and check that
    they agree on everything; return the compiled program's shapes."""
    out = {}
    for engine in ("reference", "compiled"):
        interp = Interpreter(module, profile=True, engine=engine)
        out[engine] = (interp.run(entry, list(args)), interp)
    assert_identical(out)
    assert_counters_identical(out["reference"][1], out["compiled"][1])
    (program,) = out["compiled"][1]._programs.values()
    return {func.name: shape for func, shape in program.shapes.items()}


# Two blocks that branch to each other, both entered from ``entry``: a loop
# with two entries, which no ``while`` can express.
IRREDUCIBLE = """
func i32 @main(i32 %n) {
entry:
  %c = icmp slt i32 %n, 3
  condbr %c, left, right
left:
  %a = phi i32 [%n, entry], [%b1, right]
  %a1 = add i32 %a, 1
  %ca = icmp slt i32 %a1, 20
  condbr %ca, right, done
right:
  %b = phi i32 [%n, entry], [%a1, left]
  %b1 = add i32 %b, 2
  %cb = icmp slt i32 %b1, 20
  condbr %cb, left, done
done:
  %r = phi i32 [%a1, left], [%b1, right]
  ret %r
}
"""


def loop_nest(depth):
    """``main(n)``: ``depth`` nested loops of ``n`` trips, the innermost of
    three, counting its iterations."""
    heads = "".join(
        f"for (int i{k} = 0; i{k} < {'3' if k == depth - 1 else 'n'}; i{k}++) "
        for k in range(depth)
    )
    return f"int main(int n) {{ int s = 0; {heads}s = s + i{depth - 1}; return s; }}"


def else_if_chain(length):
    """``main(x)``: an ``else if`` chain of ``length`` tests."""
    arms = " else ".join(
        f"if (x == {k}) r = {3 * k + 1};" for k in range(length)
    )
    return f"int main(int x) {{ int r = 0; {arms} else r = -1; return r; }}"


class TestEmissionShapes:
    def test_irreducible_function_dispatches(self):
        module = parse_module(IRREDUCIBLE)
        for n in (0, 5):
            assert run_module_both(module, [n]) == {"main": "dispatch"}

    @pytest.mark.parametrize("depth, shape", [
        (20, "structured"), (21, "dispatch"),
    ])
    def test_loop_nest_past_the_nesting_limit_dispatches(self, depth, shape):
        module = compile_source(loop_nest(depth), "nest")
        assert run_module_both(module, [1]) == {"main": shape}

    @pytest.mark.parametrize("length, shape", [
        (30, "structured"), (120, "dispatch"),
    ])
    def test_deep_else_if_chain_dispatches(self, length, shape):
        module = compile_source(else_if_chain(length), "chain")
        for x in (0, 17, length - 1, length + 5):
            assert run_module_both(module, [x]) == {"main": shape}

    @pytest.mark.parametrize("name", CROSS_SECTION)
    def test_registry_programs_are_structured(self, name):
        workload = get_workload(name)
        interp = Interpreter(compile_source(workload.source, name), profile=True)
        interp.precompile()
        (program,) = interp._programs.values()
        assert set(program.shapes.values()) == {"structured"}


# The instruction limit: a run past it raises, a run within it never does.
LIMITED = {
    "call-free loop": (
        "int main() { int s = 0; for (int i = 0; i < 500; i++) s += i;"
        " return s; }"
    ),
    "recursive chain": (
        "int f(int n) { if (n == 0) return 0; return f(n - 1) + 2; }"
        " int main() { return f(60); }"
    ),
    "straight-line tail": (
        "int A[4]; int main() { int s = 0; for (int i = 0; i < 20; i++)"
        " s += i; A[0] = s; A[1] = s * 3; A[2] = A[0] + A[1];"
        " A[3] = A[2] - 7; return A[3]; }"
    ),
}


@pytest.mark.parametrize("name", list(LIMITED))
def test_instruction_limit_is_exact(name):
    from repro.interp import ExecutionLimitExceeded

    module = compile_source(LIMITED[name], "limit")
    reference = Interpreter(module, engine="reference")
    result = reference.run("main")
    total = reference.instructions
    at_limit = Interpreter(module, max_instructions=total)
    assert at_limit.run("main") == result
    assert at_limit.instructions == total
    # Past the limit at the last instruction, and midway through the run.
    for limit in (total - 1, total // 2):
        with pytest.raises(ExecutionLimitExceeded):
            Interpreter(module, max_instructions=limit).run("main")


#: Sanitizer modes: no injection, then each claim kind injected.
SANITIZER_MODES = (None, *SanitizingInterpreter.CLAIMS)


def assert_sanitized_identical(runs):
    """Reference and compiled sanitized runs report, count and compute
    exactly the same."""
    (ref_out, ref), (cmp_out, cmp_) = runs["reference"], runs["compiled"]
    assert ref_out == cmp_out
    assert ref.instructions == cmp_.instructions
    assert ref.cycles == cmp_.cycles
    assert bytes(ref.memory.data) == bytes(cmp_.memory.data)


# Loops the compiled sanitizer hooks cannot key by element.  ``k`` is
# driven directly with two pointers into ``A``, so its accesses overlap.
MIXED_SIZES = """
int A[32];
void k(int *p, long *q) {
  for (int i = 0; i < 8; i++) {
    p[i + 1] = p[i] + 1;
    q[i / 2] = q[i / 2] + 2;
  }
}
int main() { for (int i = 0; i < 32; i++) A[i] = i; return 0; }
"""

MISALIGNED = """
int A[32];
void k(int *p, int *r) {
  for (int i = 0; i < 8; i++) p[i + 1] = p[i] + r[i];
}
int main() { for (int i = 0; i < 32; i++) A[i] = i; return 0; }
"""

# A literal beyond i32 as a return value and as a select operand.  The
# frontend types it long, as C does, and wraps it where it converts to
# int, as a trunc does at run time, so the call's i32 interval claim holds
# and both engines sanitize it clean.
UNWRAPPED = """
int A[4];
int wide(int k) { if (k > 2) return 7; return 3000000000; }
int main() {
  for (int i = 0; i < 4; i++) A[i] = i;
  return wide(A[1]) + (A[1] > 2 ? A[2] : 3000000000);
}
"""


# ``k``'s entry block is its loop header, so only the invoker's function
# entry starts a fresh instance of the loop; ``main`` runs ``k`` twice.
ENTRY_HEADER = """
@A = global [8 x i32]

@N = global i32

func void @k() {
head:
  %i = load i32 @N
  %c = icmp slt i32 %i, 8
  condbr %c, body, exit
body:
  %p = gep i32* @A, 0, %i
  store %i, %p
  %j = add i32 %i, 1
  store %j, @N
  br head
exit:
  ret
}

func i32 @main() {
entry:
  store 0, @N
  call @k()
  store 2, @N
  call @k()
  ret 0
}
"""

# The shadow table: one per function that cannot recurse, serial-stamped.
# ``f`` recurses inside its loop: each inner activation enters that loop
# afresh, except the innermost, which stores in another loop instead.
RECURSIVE = """
int A[8];
int f(int n) {
  if (n == 0) {
    for (int j = 0; j < n + 3; j++) A[j] = A[j + 1] + j;
    return 0;
  }
  int s = 0;
  for (int i = 0; i < 4; i++) {
    A[0] = A[0] + i;
    s += f(n - 1);
    A[1] = A[0] + s;
  }
  return s + A[1];
}
int main() { return f(2); }
"""

# ``k``'s outer loop mixes long and int accesses (byte-keyed) around an
# int-only inner loop (element-keyed); ``p`` and ``q`` overlap.
NESTED_SIZES = """
int A[32];
void k(int *p, long *q) {
  for (int r = 0; r < 4; r++) {
    q[r] = q[r + 1] + 1;
    for (int i = 0; i < 8; i++) p[i + 1] = p[i] + r;
  }
}
int main() { for (int i = 0; i < 32; i++) A[i] = i; return 0; }
"""

# With ``m`` misaligned, its first access, after the first inner loop has
# run, re-keys the outer loop alone to bytes.
REKEYED = """
int A[64];
void k(int *p, int *m) {
  for (int r = 0; r < 3; r++) {
    for (int i = 0; i < 8; i++) p[i + 1] = p[i] + r;
    m[r] = m[r] + 1;
  }
}
int main() { for (int i = 0; i < 64; i++) A[i] = i; return 0; }
"""

# Two sibling loops share a clock and a shadow; with ``m`` misaligned,
# only the first is re-keyed to bytes, and the second checks inline.
SIBLINGS = """
int A[64];
void k(int *p, int *m) {
  for (int r = 0; r < 3; r++) m[r + 1] = m[r] + 1;
  for (int i = 0; i < 8; i++) p[i + 1] = p[i] + i;
}
int main() { for (int i = 0; i < 64; i++) A[i] = i; return 0; }
"""

# Some of the inner loop's banking claims unroll it by its whole trip
# count, so each entry fills one cycle slot, and each outer iteration
# enters it afresh.
BANKED = """
int A[64]; int B[64];
int main() {
  for (int r = 0; r < 3; r++)
    for (int i = 0; i < 4; i++) B[i] = A[i] + r;
  return B[5];
}
"""

# The same store/load pair conflicts at distance 1 on every iteration.
REPEATED = """
int A[16];
int main() {
  for (int r = 0; r < 5; r++)
    for (int i = 1; i < 16; i++) A[i] = A[i - 1] + 1;
  return A[15];
}
"""

#: Names the sanitizer binds into generated code: the claims-active cell
#: its checks read and the loop tracks its edges update.
SANITIZER_NAMES = re.compile(r"\b(?:CA|TR)\d+\b")


def compiled_source(interp):
    interp.precompile()
    (program,) = interp._programs.values()
    return program.source


class TestInstrumentedEquivalence:
    @pytest.mark.parametrize("name", ["trisolv", "smooth-alias", "wave-lag"])
    def test_sanitizer_identical(self, name):
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        for claim in SANITIZER_MODES:
            assert_sanitized_identical(
                sanitize_both(
                    module, [(workload.entry, ())], inject_unsound=claim
                )
            )

    @pytest.mark.parametrize("source, offsets", [
        (MIXED_SIZES, (0, 4)),
        (MISALIGNED, (0, 2)),
    ], ids=["mixed-sizes", "misaligned"])
    def test_sanitizer_identical_on_byte_fallback(self, source, offsets):
        module = compile_source(source, "fallback")
        base = Interpreter(module).address_of_global("A")
        calls = [("main", ()), ("k", [base + offset for offset in offsets])]
        runs = sanitize_both(module, calls)
        assert_sanitized_identical(runs)
        assert runs["compiled"][1].conflicts_observed > 0

    def test_shadow_identical_under_recursion(self):
        runs = sanitize_both(compile_source(RECURSIVE, "recursive"))
        assert_sanitized_identical(runs)
        assert runs["compiled"][1].conflicts_observed > 0

    @pytest.mark.parametrize("source, offsets", [
        (NESTED_SIZES, (0, 0)),
        (REKEYED, (0, 2)),
    ], ids=["byte-outer-element-inner", "rekeyed-mid-run"])
    def test_shadow_identical_per_level_keying(self, source, offsets):
        module = compile_source(source, "levels")
        base = Interpreter(module).address_of_global("A")
        calls = [("main", ()), ("k", [base + offset for offset in offsets])]
        runs = sanitize_both(module, calls)
        assert_sanitized_identical(runs)
        assert runs["compiled"][1].conflicts_observed > 0

    def test_rekeying_one_loop_leaves_its_sibling_inline(self):
        module = compile_source(SIBLINGS, "siblings")
        base = Interpreter(module).address_of_global("A")
        calls = [("main", ()), ("k", [base, base + 2])]
        assert_sanitized_identical(sanitize_both(module, calls))
        interp = SanitizingInterpreter(module, fail_fast=False)
        by_level, slow = interp._conflicts_by_level, set()

        def counted(inst, levels, addr):
            slow.update(track.loop for track in levels)
            by_level(inst, levels, addr)

        interp._conflicts_by_level = counted
        for entry, args in calls:
            interp.run(entry, list(args))
        assert interp.conflicts_observed > 0
        assert len(slow) == 1  # the misaligned loop only

    @pytest.mark.parametrize("claim", [None, "banking"])
    def test_bank_slots_identical_across_fresh_entries(self, claim):
        runs = sanitize_both(compile_source(BANKED, "banked"),
                             inject_unsound=claim)
        assert_sanitized_identical(runs)
        interp = runs["compiled"][1]
        assert any(bank.factor == 4 and bank.loop.depth == 2
                   for banks in interp._bank_claims_by_loop.values()
                   for bank in banks)
        assert bool(interp.violations) == (claim == "banking")

    def test_repeated_conflict_counts_every_time(self):
        runs = sanitize_both(compile_source(REPEATED, "repeated"))
        assert_sanitized_identical(runs)
        interp = runs["compiled"][1]
        # 5 instances of 14 carried iterations; each element conflict
        # counts its 4 bytes.
        assert interp.conflicts_observed >= 5 * 14 * 4

    def test_sanitizer_identical_on_entry_header(self):
        runs = sanitize_both(parse_module(ENTRY_HEADER))
        assert_sanitized_identical(runs)
        assert runs["compiled"][1].conflicts_observed > 0

    @pytest.mark.parametrize("claim", ["interval-lo", "interval-hi", "bounds"])
    def test_sanitizer_identical_on_broken_claims(self, claim):
        # No injection mode breaks value ranges or bounds proofs, so break
        # them on each interpreter before it compiles or runs anything.
        workload = get_workload("trisolv")
        module = compile_source(workload.source, workload.name)
        runs = {}
        for engine in ("reference", "compiled"):
            interp = SanitizingInterpreter(
                module, fail_fast=False, engine=engine
            )
            if claim == "bounds":  # each window shifted off the elements
                interp.bounds = SimpleNamespace(
                    intervals=interp.bounds.intervals,
                    proven={
                        inst: AccessWindow(
                            inst, w.root, Interval.constant(w.offset.lo + 1),
                            w.access_size, w.root_size,
                        )
                        for inst, w in interp.bounds.proven.items()
                    },
                )
            else:
                broken = (Interval(1, None) if claim == "interval-lo"
                          else Interval(None, -1))
                interp._expected = dict.fromkeys(interp._expected, broken)
            returned = interp.run(workload.entry)
            runs[engine] = (sanitized_output(interp, returned), interp)
        assert_sanitized_identical(runs)
        assert runs["compiled"][0]["violations"]

    def test_only_instrumented_interpreters_emit_code(self):
        workload = get_workload("trisolv")
        module = compile_source(workload.source, workload.name)
        assert SANITIZER_NAMES.search(
            compiled_source(SanitizingInterpreter(module))
        )
        assert not SANITIZER_NAMES.search(compiled_source(Interpreter(module)))
        assert re.search(
            r"\b(v\d+) = H\d+\(\1\)",
            compiled_source(NarrowingInterpreter(module)),
        )

    def test_sanitizer_identical_on_unwrapped_results(self):
        module = compile_source(UNWRAPPED, "unwrapped")
        assert_sanitized_identical(sanitize_both(module))

    def test_literals_past_i32_wrap_and_sanitize_clean(self):
        runs = sanitize_both(compile_source(UNWRAPPED, "unwrapped"))
        for engine, (output, interp) in runs.items():
            assert interp.violations == [], engine
            # wide() returns 3000000000 wrapped to int; adding the long
            # 3000000000 gives 1705032704, which fits int.
            assert output["returned"] == 1705032704, engine

    def test_sanitizer_injection_caught_on_compiled_engine(self):
        workload = get_workload("bitwidth-adversary")
        counts = {}
        for engine in ("reference", "compiled"):
            module = compile_source(workload.source, workload.name)
            interp = SanitizingInterpreter(
                module, fail_fast=False, inject_unsound="bitwidth",
                engine=engine,
            )
            interp.run(workload.entry)
            counts[engine] = len(interp.violations)
        assert counts["compiled"] > 0
        assert counts["reference"] == counts["compiled"]

    @pytest.mark.parametrize("name", ["trisolv", "bitwidth-adversary"])
    def test_narrowing_identical(self, name):
        workload = get_workload(name)
        out = {}
        for engine in ("reference", "compiled"):
            module = compile_source(workload.source, workload.name)
            interp = NarrowingInterpreter(module, engine=engine)
            result = interp.run(workload.entry)
            assert interp.narrowing_active, "narrowing must actually engage"
            out[engine] = (
                result, interp.instructions, interp.cycles,
                bytes(interp.memory.data),
            )
        assert out["reference"] == out["compiled"]


class TestErrorSemantics:
    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize("amount", ["40", "-1", "n"])
    def test_shift_amount_out_of_range_traps(self, engine, amount):
        # i32 shifts by >= 32 (or negative) must trap, matching lint rule
        # IR008's provable-overflow verdict — not silently produce a value.
        source = f"int main(int n) {{ int x = 3; return x << ({amount}); }}"
        module = compile_source(source, "shift", optimize=False)
        interp = Interpreter(module, engine=engine)
        with pytest.raises(InterpreterError, match="out of range"):
            interp.run("main", [40])

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_in_range_shift_still_works(self, engine):
        module = compile_source(
            "int main(int n) { int x = 3; return x << n; }",
            "shift", optimize=False,
        )
        interp = Interpreter(module, engine=engine)
        assert interp.run("main", [4]) == 48

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_empty_block_is_an_interpreter_error(self, engine):
        # Malformed IR (unverified): an empty entry block must raise a
        # proper InterpreterError, not a bare IndexError.
        module = Module("m")
        func = module.add_function("f", I32, [])
        func.add_block("entry")
        interp = Interpreter(module, engine=engine)
        with pytest.raises(InterpreterError, match="block entry is empty"):
            interp.run("f")

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_instruction_limit_enforced(self, engine):
        from repro.interp import ExecutionLimitExceeded

        module = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 100000; i++) s += i;"
            " return s; }",
            "limit", optimize=False,
        )
        interp = Interpreter(module, max_instructions=1000, engine=engine)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run("main")


# Randomized equivalence: generated integer programs with data-dependent
# control flow must execute identically under both engines.

constants = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
small_constants = st.integers(min_value=-64, max_value=64)


@st.composite
def branchy_programs(draw):
    """``int main()``: a chain of integer defs followed by a loop that
    conditionally re-accumulates them — exercises phis, condbr, and every
    specialized binary-op shape."""
    count = draw(st.integers(min_value=1, max_value=8))
    statements = []
    for index in range(count):
        def operand():
            if index and draw(st.booleans()):
                return f"v{draw(st.integers(min_value=0, max_value=index - 1))}"
            return str(draw(constants if draw(st.booleans()) else small_constants))

        kind = draw(st.sampled_from(("binary", "shift", "divmod")))
        if kind == "binary":
            op = draw(st.sampled_from(("+", "-", "*", "&", "|", "^")))
            expr = f"{operand()} {op} {operand()}"
        elif kind == "shift":
            amount = draw(st.integers(min_value=0, max_value=31))
            expr = f"{operand()} {draw(st.sampled_from(('<<', '>>')))} {amount}"
        else:
            divisor = draw(st.integers(min_value=1, max_value=1000))
            expr = f"{operand()} {draw(st.sampled_from(('/', '%')))} {divisor}"
        statements.append(f"  int v{index} = {expr};")
    body = "\n".join(statements)
    trip = draw(st.integers(min_value=0, max_value=20))
    threshold = draw(small_constants)
    return (
        "int main() {\n"
        f"{body}\n"
        "  int acc = 0;\n"
        f"  for (int i = 0; i < {trip}; i++) {{\n"
        f"    if (v{count - 1} > {threshold}) acc += v{draw(st.integers(min_value=0, max_value=count - 1))};\n"
        "    else acc -= i;\n"
        "  }\n"
        f"  return acc + v{count - 1};\n"
        "}\n"
    )


@given(branchy_programs())
@settings(max_examples=40, deadline=None)
def test_random_programs_execute_identically(source):
    module = compile_source(source, "prop", optimize=False)
    runs = {}
    for engine in ("reference", "compiled"):
        interp = Interpreter(module, profile=True, engine=engine)
        result = interp.run("main")
        runs[engine] = (
            result, interp.instructions, interp.cycles,
            dict(interp.counters.block_count),
            dict(interp.counters.block_instructions),
            dict(interp.counters.edge_count),
        )
    assert runs["reference"] == runs["compiled"], source


# Runs that never end: only the checks inside the run can stop them.
RUNAWAY = {
    "loop": "int main(int n) { int s = 0; while (n > 0) s += n; return s; }",
    "loop of calls": (
        "int g(int n) { int s = 0; for (int i = 0; i < n; i++) s += i;"
        " return s; } int main(int n) { int t = 0; while (n > 0) t += g(n);"
        " return t; }"
    ),
}


@pytest.mark.parametrize("engine", ["reference", "compiled"])
@pytest.mark.parametrize("name", list(RUNAWAY))
def test_runaway_run_hits_the_limit(name, engine):
    from repro.interp import ExecutionLimitExceeded

    module = compile_source(RUNAWAY[name], "runaway")
    interp = Interpreter(module, max_instructions=20_000, engine=engine)
    with pytest.raises(ExecutionLimitExceeded):
        interp.run("main", [50])


@st.composite
def nested_programs(draw, depth=0, loops=0):
    """Statements nesting ``for``/``while`` loops and ``if``s with
    ``break``, ``continue``, early ``return`` and calls, over ``int s``;
    ``s`` only grows, so every loop ends."""
    statements = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(
            ("for", "if", "while", "break", "continue", "return", "call", "set")
        ))
        small = draw(st.integers(min_value=0, max_value=5))
        if kind in ("for", "while", "if") and depth < 3:
            body = draw(nested_programs(depth + 1, loops + (kind != "if")))
            if kind == "for":
                i = f"i{depth}"
                statements.append(
                    f"for (int {i} = 0; {i} < {small}; {i}++) {{ s = s + {i}; {body} }}"
                )
            elif kind == "while":
                statements.append(f"while (s < {8 * small}) {{ s = s + 3; {body} }}")
            else:
                other = draw(nested_programs(depth + 1, loops))
                statements.append(
                    f"if (s % 3 == {small % 3}) {{ {body} }} else {{ {other} }}"
                )
        elif kind == "break" and loops:
            statements.append(f"if (s > {10 * small}) break;")
        elif kind == "continue" and loops:
            statements.append(f"if ((s & 3) == {small % 4}) {{ s = s + 1; continue; }}")
        elif kind == "return":
            statements.append(f"if (s > {40 * small + 20}) return s + {small};")
        elif kind == "call":
            statements.append(f"s = s + f(s % 7);")
        else:
            statements.append(f"s = s + {2 * small + 1}; A[s & 7] = s;")
    return " ".join(statements)


@given(nested_programs(), st.booleans(), st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_nested_control_flow_executes_identically(body, optimize, n):
    source = (
        "int A[8]; int f(int x) { int t = 0; for (int j = 0; j < x; j++)"
        " { if (j == 3) break; t = t + j; } return t; }"
        f" int main(int n) {{ int s = n; {body} return s; }}"
    )
    module = compile_source(source, "nested", optimize=optimize)
    run_module_both(module, [n])
