"""Property tests for the bitwidth analysis.

On random integer programs: every runtime value satisfies its claimed
known-bits masks (``value & known_zero_mask == 0`` against the unsigned
image), narrowing operands to their demanded bits never changes a
demanded result bit (the sanitizer re-executes every pure op to check
exactly that), and the narrowed-datapath interpreter reproduces the
plain interpreter's observable results bit-for-bit.
"""

from hypothesis import given, settings, strategies as st

from repro.dataflow import KnownBits, demanded_truncate
from repro.frontend import compile_source
from repro.interp import Interpreter, NarrowingInterpreter

from ..conftest import sanitize_both

OPS = ("+", "-", "*", "&", "|", "^")
SHIFTS = ("<<", ">>")

constants = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
small_constants = st.integers(min_value=-64, max_value=64)


@st.composite
def integer_programs(draw):
    """``int main()`` chaining integer assignments through arithmetic,
    bitwise logic, literal-amount shifts, nonzero literal div/mod, and
    byte masks, ending in an observable store + return."""
    count = draw(st.integers(min_value=1, max_value=10))
    statements = []
    for index in range(count):
        def operand():
            if index and draw(st.booleans()):
                return f"v{draw(st.integers(min_value=0, max_value=index - 1))}"
            return str(draw(constants if draw(st.booleans()) else small_constants))

        kind = draw(st.sampled_from(("binary", "shift", "divmod", "mask")))
        if kind == "binary":
            expr = f"{operand()} {draw(st.sampled_from(OPS))} {operand()}"
        elif kind == "shift":
            # Shift amounts >= 32 trap on 32-bit values; stay in range so
            # the generated programs execute to completion.
            amount = draw(st.integers(min_value=0, max_value=31))
            expr = f"{operand()} {draw(st.sampled_from(SHIFTS))} {amount}"
        elif kind == "divmod":
            divisor = draw(st.integers(min_value=1, max_value=1000))
            op = draw(st.sampled_from(("/", "%")))
            expr = f"{operand()} {op} {divisor}"
        else:
            mask = draw(st.sampled_from((255, 1023, 15, 65535)))
            expr = f"{operand()} & {mask}"
        statements.append(f"  int v{index} = {expr};")
    body = "\n".join(statements)
    return (
        "int out[2];\n"
        f"int main() {{\n{body}\n"
        f"  out[0] = v{count - 1};\n  return v{draw(st.integers(0, count - 1))};\n}}\n"
    )


@given(integer_programs())
@settings(max_examples=40, deadline=None)
def test_runtime_values_satisfy_claimed_masks(source):
    module = compile_source(source, "prop", optimize=False)
    runs = sanitize_both(module)
    assert runs["reference"][0] == runs["compiled"][0], source
    interp = runs["compiled"][1]
    # The sanitizer checks value & zeros == 0 and value & ones == ones on
    # every integer result, and re-executes every pure op with
    # demanded-truncated operands; neither direction may report anything.
    assert interp.bits_checked > 0
    bitwidth_violations = [
        v for v in interp.violations
        if v.startswith("known-bits") or v.startswith("demanded")
    ]
    assert bitwidth_violations == [], f"{bitwidth_violations}\n{source}"


@given(integer_programs())
@settings(max_examples=25, deadline=None)
def test_narrowed_datapath_is_bit_identical(source):
    module = compile_source(source, "prop", optimize=False)
    plain = Interpreter(module)
    plain_result = plain.run("main")
    narrowed = NarrowingInterpreter(module)
    narrowed_result = narrowed.run("main")
    assert narrowed_result == plain_result, source
    assert bytes(narrowed.memory.data) == bytes(plain.memory.data), source


@given(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
@settings(max_examples=200, deadline=None)
def test_demanded_truncate_agrees_on_demanded_bits(value, demand):
    got = demanded_truncate(value, demand, 32)
    assert (got ^ value) & demand == 0


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=200, deadline=None)
def test_known_bits_add_abstracts_concrete_add(a, b, za, zb):
    # Claim bits of a/b known where the masks say so; the abstract add
    # must cover the concrete sum of any conforming values.
    ka = KnownBits(8, zeros=za & ~a, ones=a & za)
    kb = KnownBits(8, zeros=zb & ~b, ones=b & zb)
    assert ka.check(a) and kb.check(b)
    assert ka.add(kb).check((a + b) & 0xFF)
