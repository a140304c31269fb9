"""A merged unit's positional form is derived from its parents': ``by_key``
shares every list the merge does not extend.  The derived form, and the
bound's prefix sums over it, must equal one built from scratch from the
same entries, and deriving it must leave both parents as they were."""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.hls import DEFAULT_TECHLIB, DFG, TechLibrary
from repro.ir import I32, IRBuilder, Module
from repro.merging import AcceleratorMerger, match_units, op_index
from repro.merging.opmatch import _OpIndex

from .test_lazy_merging import (  # noqa: F401  (a module fixture)
    MERGE_HEAVY, merge_heavy_fronts, tied_pool,
)


class _ScaledTechlib(TechLibrary):
    """A second techlib: every area doubled, so its prefix sums differ."""

    def area(self, resource, bits=32):
        return 2.0 * super().area(resource, bits)


SCALED = _ScaledTechlib()


def from_scratch(index):
    """``index``'s entries in a fresh positional form."""
    by_key = {}
    for position, key in enumerate(index.keys):
        by_key.setdefault(key, []).append(position)
    return _OpIndex(index.keys, index.bits, index.preds, index.order_preds,
                    index.origins, by_key)


def snapshot(index):
    """Copies of what a merge must not change in a parent."""
    tops = index._tops
    return (
        {key: list(positions) for key, positions in index.by_key.items()},
        list(index.bits), list(index.keys),
        None if tops is None else
        (tops[0], {key: list(prefix) for key, prefix in tops[1].items()}),
    )


def assert_equal_tops(derived, rebuilt, techlib):
    tops, expected = derived.tops(techlib), rebuilt.tops(techlib)
    assert tops == expected
    # The bound sums over keys in dict order, so the order is pinned too.
    assert list(tops) == list(expected)


@contextmanager
def checked_merges():
    """Check every :meth:`_OpIndex.merged` call made inside the block.

    The merged form handed back is checked under the default techlib
    only, so its later bound queries are served as they would be
    unchecked; a twin derived from the same parents is checked under a
    second techlib and then back under the default one."""
    derive = _OpIndex.merged
    stats = {"merges": 0}

    def checked(parent, other, positions):
        before = snapshot(parent), snapshot(other)
        merged = derive(parent, other, positions)
        twin = derive(parent, other, positions)
        assert (snapshot(parent), snapshot(other)) == before
        rebuilt = from_scratch(merged)
        assert merged.by_key == rebuilt.by_key
        assert list(merged.by_key) == list(rebuilt.by_key)
        stats["merges"] += 1
        assert_equal_tops(merged, rebuilt, DEFAULT_TECHLIB)
        assert_equal_tops(twin, rebuilt, SCALED)
        assert_equal_tops(twin, rebuilt, DEFAULT_TECHLIB)
        return merged

    with mock.patch.object(_OpIndex, "merged", checked):
        yield stats


def _merge_all(solutions, **options):
    merger = AcceleratorMerger(DEFAULT_TECHLIB, **options)
    return [merger.merge(solution) for solution in solutions]


@pytest.mark.parametrize("name", MERGE_HEAVY)
def test_every_merge_on_merge_heavy_matches_a_rebuilt_index(
    merge_heavy_fronts, name
):
    front = merge_heavy_fronts[name]
    with checked_merges() as stats:
        merged = _merge_all(front)
    assert stats["merges"] == sum(m.merge_steps for m in merged) > 0


@given(tied_pool(), st.sampled_from([0.0, 0.5]))
@settings(max_examples=60, deadline=None)
def test_every_merge_on_random_pools_matches_a_rebuilt_index(
    solution, fraction
):
    with checked_merges() as stats:
        merged = _merge_all([solution], min_match_fraction=fraction)
    assert stats["merges"] == merged[0].merge_steps


def _unit(add_bits, extra=False):
    """``n + 3``, its square and, with ``extra``, an ``xor`` of the two;
    the add carries a proven width of ``add_bits``."""
    func = Module("m").add_function("f", I32, [I32], ["n"])
    builder = IRBuilder(func.add_block("entry"))
    total = builder.add(func.arguments[0], IRBuilder.const_i32(3), "t")
    square = builder.mul(total, total, "s")
    if extra:
        builder._binop("xor", total, square, "x")
    builder.ret(square)
    return DFG.from_blocks([func.entry], widths={total: add_bits})


def test_widened_and_extended_keys_match_a_rebuilt_index():
    """B's wider add widens A's, and B's xor extends a key: the merged
    prefix sums price the add at its new width, while the mul's position
    list is A's own."""
    index_a, index_b = op_index(_unit(8)), op_index(_unit(16, extra=True))
    tops_a = index_a.tops(DEFAULT_TECHLIB)
    before = snapshot(index_a)
    match = match_units(index_a, index_b, DEFAULT_TECHLIB)
    merged = index_a.merged(index_b, match.positions)
    assert snapshot(index_a) == before
    rebuilt = from_scratch(merged)
    add, mul, xor = ("add", 0), ("mul", 0), ("xor", 0)
    assert merged.bits[index_a.by_key[add][0]] == 16
    assert merged.by_key[mul] is index_a.by_key[mul]
    assert merged.by_key[xor] == [len(index_a)]
    assert merged.tops(DEFAULT_TECHLIB)[add] != tops_a[add]
    assert_equal_tops(merged, rebuilt, DEFAULT_TECHLIB)
    assert_equal_tops(merged, rebuilt, SCALED)


def test_extending_a_key_copies_the_parents_list():
    """B's unmatched add extends A's add list: the merged list is a new
    one, and A's stays as it was."""
    index_a = op_index(_unit(8))
    index_b = op_index(_unit(8, extra=True))
    twice = index_a.merged(index_b, [])
    add = ("add", 0)
    assert twice.by_key[add] == [0, len(index_a)]
    assert twice.by_key[add] is not index_a.by_key[add]
    assert index_a.by_key[add] == [0]
