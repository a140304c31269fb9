"""Word-level known-bits and shared-fact joins against bit-level oracles.

``KnownBits`` adds with LLVM's word formula and counts leading/trailing
bits and arithmetic shifts with word operations.  The oracles below are
the bit-by-bit loops those replaced: a three-valued ripple-carry adder and
per-bit scans.  They must agree exactly, exhaustively at widths 1-4 and on
seeded random operands at 8, 16, 32 and 64 bits.

The env join of :class:`~repro.dataflow.framework.EnvDataflow` shares
fact objects instead of re-joining them; the reference is the key-by-key
join every value went through before, compared in values and key order.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow import Interval, IntervalAnalysis, KnownBits
from repro.dataflow.interval import BOTTOM
from repro.frontend import compile_source


def ripple_add(a, b, carry):
    """Exact three-valued ripple-carry ``a + b + carry``: per bit, the set
    of possible sum bits and carries over every unknown operand bit."""
    zeros = ones = 0
    carries = {carry}
    for i in range(a.bits):
        abit, bbit = a._bit(i), b._bit(i)
        sums = set()
        nxt = set()
        for av in (0, 1) if abit is None else (abit,):
            for bv in (0, 1) if bbit is None else (bbit,):
                for cv in carries:
                    total = av + bv + cv
                    sums.add(total & 1)
                    nxt.add(total >> 1)
        if sums == {0}:
            zeros |= 1 << i
        elif sums == {1}:
            ones |= 1 << i
        carries = nxt
    return KnownBits(a.bits, zeros, ones)


def ripple_sub(a, b):
    return ripple_add(a, b.bnot(), 1)


def scan_leading(mask, bits):
    count = 0
    for i in range(bits - 1, -1, -1):
        if not (mask >> i) & 1:
            break
        count += 1
    return count


def scan_trailing(mask, bits):
    count = 0
    for i in range(bits):
        if not (mask >> i) & 1:
            break
        count += 1
    return count


def scan_shr(a, amount):
    """Arithmetic shift, bit by bit: result bit i copies source bit
    ``min(i + amount, bits - 1)``."""
    zeros = ones = 0
    for i in range(a.bits):
        src = a._bit(min(i + amount, a.bits - 1))
        if src == 0:
            zeros |= 1 << i
        elif src == 1:
            ones |= 1 << i
    return KnownBits(a.bits, zeros, ones)


def all_known_bits(bits):
    """Every KnownBits of the width: each bit 0, 1 or unknown."""
    for digits in itertools.product((0, 1, None), repeat=bits):
        zeros = sum(1 << i for i, d in enumerate(digits) if d == 0)
        ones = sum(1 << i for i, d in enumerate(digits) if d == 1)
        yield KnownBits(bits, zeros, ones)


def random_known_bits(rng, bits):
    value = rng.getrandbits(bits)
    # Mix sparse, dense and full knowledge so carries both stop and run.
    known = rng.getrandbits(bits) | rng.choice(
        (0, rng.getrandbits(bits), (1 << bits) - 1)
    )
    return KnownBits(bits, known & ~value, known & value)


def assert_word_ops_match(a, b):
    assert a.add(b) == ripple_add(a, b, 0), (a, b)
    assert a.sub(b) == ripple_sub(a, b), (a, b)
    assert a.neg() == ripple_sub(KnownBits.constant(0, a.bits), a), a


def assert_scans_match(a):
    bits = a.bits
    assert a.leading_zeros() == scan_leading(a.zeros, bits)
    assert a.leading_ones() == scan_leading(a.ones, bits)
    assert a.trailing_zeros() == scan_trailing(a.zeros, bits)
    if bits > 1:
        for amount in (0, 1, bits - 1, bits, bits + 3, 63):
            shifted = a.shr(KnownBits.constant(amount, 8))
            # The shifter reads the amount's low six bits.
            assert shifted == scan_shr(a, amount & 63), (a, amount)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_word_add_sub_neg_match_ripple_exhaustively(bits):
    values = list(all_known_bits(bits))
    for a in values:
        assert_scans_match(a)
        for b in values:
            assert_word_ops_match(a, b)


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_word_ops_match_oracles_on_random_operands(bits):
    rng = random.Random(bits)
    for _ in range(400):
        a = random_known_bits(rng, bits)
        b = random_known_bits(rng, bits)
        assert_word_ops_match(a, b)
        assert_scans_match(a)


# Shared-fact env join ---------------------------------------------------------


def keyed_join(a, b):
    """Reference join: every key of ``a`` in order, each fact joined with
    ``b``'s when it has one, then ``b``'s new keys in ``b``'s order."""
    values = {}
    for key, left in a.items():
        right = b.get(key)
        values[key] = left if right is None else left.join(right)
    for key, right in b.items():
        if key not in values:
            values[key] = right
    return values


@pytest.fixture(scope="module")
def analysis():
    module = compile_source("int f(int n) { return n + 1; }", "join")
    return IntervalAnalysis(module.get_function("f"))


bounds = st.one_of(st.none(), st.integers(min_value=-8, max_value=8))
intervals = st.one_of(
    st.just(BOTTOM),
    st.builds(Interval, bounds, bounds).filter(
        lambda iv: iv.lo is None or iv.hi is None or iv.lo <= iv.hi
    ),
)
KEYS = tuple(f"v{i}" for i in range(8))


@st.composite
def env_pairs(draw):
    """``(a, b)`` over shuffled key subsets; a key of both sides holds the
    same object, an equal copy or an unrelated interval."""
    def keys():
        return draw(st.permutations(KEYS))[:draw(st.integers(0, len(KEYS)))]

    a = {key: draw(intervals) for key in keys()}
    b = {}
    for key in keys():
        choice = draw(st.sampled_from(("same", "copy", "new")))
        if key in a and choice == "same":
            b[key] = a[key]
        elif key in a and choice == "copy":
            b[key] = Interval(a[key].lo, a[key].hi)
        else:
            b[key] = draw(intervals)
    return a, b


def _as_items(values):
    return [
        (key, fact.is_bottom, fact.lo, fact.hi) for key, fact in values.items()
    ]


@settings(max_examples=200, deadline=None)
@given(env_pairs())
def test_shared_join_equals_keyed_join(analysis, pair):
    a, b = pair
    joined = analysis.join(dict(a), dict(b))
    assert _as_items(joined) == _as_items(keyed_join(a, b))


@settings(max_examples=200, deadline=None)
@given(st.lists(env_pairs(), min_size=1, max_size=4))
def test_overlay_merge_equals_copy_then_join(analysis, edges):
    # Each pair is (predecessor out-state, edge overlay).  The reference
    # copies the out-state, writes the overlay into it, then joins.
    expected = None
    for out, overlay in edges:
        edge = dict(out)
        edge.update(overlay)
        expected = edge if expected is None else keyed_join(expected, edge)
    merged = analysis.merge_edges(
        [(dict(out), dict(overlay)) for out, overlay in edges]
    )
    assert _as_items(merged) == _as_items(expected)
