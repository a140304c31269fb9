"""Operation matching between two datapath units (paper §III-E).

Merging two basic-block datapaths shares functional units of the same
resource class.  Integer compute ops match across *proven* widths: an
11-bit and a 14-bit adder share one 14-bit unit (the narrower member is
zero-extended onto it by a sliver of glue logic), instead of the historical
binary 32/64 bucketing.  Float ops and memory port logic keep exact width
classes — an f32 adder never absorbs an f64 one.  A matched operation pair
needs operand multiplexers unless its producers are matched to each other
as well — so the matcher greedily prefers pairs whose operands are already
matched, maximizing shared wiring and minimizing mux overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple
from weakref import WeakKeyDictionary

from ..hls.dfg import DFG, DFGNode
from ..hls.techlib import CONFIG_BIT_AREA_UM2, TechLibrary

#: Integer resource classes whose instances merge at ``max(width_a,
#: width_b)`` with zero-extend glue on the narrower member's operands.
_INT_MERGEABLE = frozenset({
    "add", "sub", "and", "or", "xor", "shl", "shr", "neg", "not",
    "icmp", "select", "mul", "div", "rem", "gep", "phi",
    "sext", "zext", "trunc",
})


@dataclass
class MatchResult:
    """Outcome of matching unit B onto unit A."""

    pairs: List[Tuple[DFGNode, DFGNode]] = field(default_factory=list)
    #: ``(position_a, position_b)`` per entry of ``pairs``: where the two
    #: nodes sit in their DFGs' node lists.
    positions: List[Tuple[int, int]] = field(default_factory=list)
    shared_area: float = 0.0       # functional-unit area saved by sharing
    mux_area: float = 0.0          # multiplexers inserted on shared inputs
    config_bits: int = 0           # reconfiguration bit registers for muxes
    width_glue_area: float = 0.0   # zero-extend glue for width-mixed pairs
    width_recovered_area: float = 0.0  # saving the binary bucketing missed

    @property
    def net_saving(self) -> float:
        return self.shared_area - self.mux_area - self.width_glue_area - (
            self.config_bits * CONFIG_BIT_AREA_UM2
        )


def _bucket(bits: int) -> int:
    """The legacy binary width class (pre-bitwidth-analysis behavior)."""
    return 64 if bits > 32 else 32


def _op_key(resource: str, bits: int) -> Tuple[str, int]:
    # Integer compute ops share across widths (the shared unit is sized at
    # the max); float ops and memory port logic share by exact width class.
    if resource in _INT_MERGEABLE:
        return (resource, 0)
    return (resource, _bucket(bits))


class _OpIndex:
    """What matching reads of one DFG, aligned with ``dfg.nodes``: each
    node's op key and width, and the positions of each op key's nodes in
    program order."""

    __slots__ = ("keys", "bits", "by_key", "_tops")

    def __init__(self, keys: List[Tuple[str, int]], bits: List[int]):
        self.keys = keys
        self.bits = bits
        self.by_key: Dict[Tuple[str, int], List[int]] = {}
        for position, key in enumerate(keys):
            self.by_key.setdefault(key, []).append(position)
        #: ``(techlib, {key: prefix sums of the key's FU areas, largest
        #: first})``, built on the first bound query.
        self._tops = None

    @classmethod
    def of(cls, dfg: DFG) -> "_OpIndex":
        bits = [node.bits for node in dfg.nodes]
        keys = [
            _op_key(node.resource, width)
            for node, width in zip(dfg.nodes, bits)
        ]
        return cls(keys, bits)

    def tops(self, techlib: TechLibrary) -> Dict[Tuple[str, int], List[float]]:
        """Per op key, entry ``k - 1`` is the summed FU area of the key's
        ``k`` largest nodes."""
        if self._tops is None or self._tops[0] is not techlib:
            widths: Dict[Tuple[str, int], List[int]] = {}
            for key, width in zip(self.keys, self.bits):
                widths.setdefault(key, []).append(width)
            tops: Dict[Tuple[str, int], List[float]] = {}
            for key, values in widths.items():
                # Area is nondecreasing in width: widest first is largest
                # first, and equal widths repeat one area lookup.
                values.sort(reverse=True)
                resource = key[0]
                prefix = tops[key] = []
                total = 0.0
                last = None
                for width in values:
                    if width != last:
                        area, last = techlib.area(resource, width), width
                    total += area
                    prefix.append(total)
            self._tops = (techlib, tops)
        return self._tops[1]


#: A DFG's nodes never change once it is built, so its index is computed
#: on its first match (or derived when the DFG is a merge) and reused by
#: every later one.
_INDEXES: "WeakKeyDictionary[DFG, _OpIndex]" = WeakKeyDictionary()


def _op_index(dfg: DFG) -> _OpIndex:
    index = _INDEXES.get(dfg)
    if index is None:
        index = _INDEXES[dfg] = _OpIndex.of(dfg)
    return index


def index_merged(
    merged: DFG, unit_a: DFG, unit_b: DFG, match: "MatchResult"
) -> None:
    """Record ``merged``'s index, derived from its parents' indexes.

    ``merged`` holds A's nodes, each matched one widened to the pair's max
    width, then B's unmatched nodes, in order. A matched pair shares its
    op key, and widening keeps a width class, so only widths change."""
    index_a, index_b = _op_index(unit_a), _op_index(unit_b)
    bits = list(index_a.bits)
    matched_b = set()
    for position_a, position_b in match.positions:
        bits[position_a] = max(bits[position_a], index_b.bits[position_b])
        matched_b.add(position_b)
    keys = list(index_a.keys)
    for position_b, key in enumerate(index_b.keys):
        if position_b not in matched_b:
            keys.append(key)
            bits.append(index_b.bits[position_b])
    _INDEXES[merged] = _OpIndex(keys, bits)


#: Relative slack on :func:`saving_bound`. Matching sums a few thousand
#: float terms at most, so its rounding stays many orders below this.
BOUND_SLACK = 1e-9


def saving_bound(
    unit_a: DFG, unit_b: DFG, techlib: TechLibrary
) -> Tuple[float, int]:
    """An upper bound on ``match_units(unit_a, unit_b).net_saving``, and
    the most pairs that match can hold.

    A pair shares one op key and saves ``area(resource, min(bits))``,
    since area is nondecreasing in width, so a key whose sides have ``k =
    min(count_a, count_b)`` nodes saves at most the smaller of each side's
    ``k`` largest FU areas. Mux, glue and config bits only subtract. The
    slack keeps the bound above the exact saving under float rounding."""
    tops_a, tops_b = _op_index(unit_a).tops(techlib), _op_index(unit_b).tops(techlib)
    if len(tops_b) < len(tops_a):
        tops_a, tops_b = tops_b, tops_a
    bound = spread = 0.0
    pairs = 0
    for key, prefix_a in tops_a.items():
        prefix_b = tops_b.get(key)
        if prefix_b is None:
            continue
        k = min(len(prefix_a), len(prefix_b))
        top_a, top_b = prefix_a[k - 1], prefix_b[k - 1]
        bound += top_a if top_a < top_b else top_b
        spread += top_a + top_b
        pairs += k
    return bound + BOUND_SLACK * spread, pairs


def op_keys(dfg: DFG) -> Set[Tuple[str, int]]:
    """The op keys (resource class x width class) ``dfg``'s nodes match by."""
    return {_op_key(node.resource, node.bits) for node in dfg.nodes}


def match_units(
    unit_a: DFG, unit_b: DFG, techlib: TechLibrary
) -> MatchResult:
    """Greedy producer-aware matching of ``unit_b``'s ops onto ``unit_a``."""
    result = MatchResult()
    index_a, index_b = _op_index(unit_a), _op_index(unit_b)
    nodes_a, nodes_b = unit_a.nodes, unit_b.nodes
    # Only B ops whose key A also has can match. ``left`` counts the A ops
    # of each key still unmatched; a key with none left matches no more.
    left = {
        key: len(positions)
        for key, positions in index_a.by_key.items()
        if key in index_b.by_key
    }
    order = sorted(
        position for key in left for position in index_b.by_key[key]
    )

    matched_a: Set[DFGNode] = set()
    matched_b: Dict[DFGNode, DFGNode] = {}
    #: ``(resource, bits_a, bits_b)`` per entry of ``result.pairs``.
    widths: List[Tuple[str, int, int]] = []

    # Single pass in program order: producers precede consumers, so matched
    # producer pairs steer their consumers toward mux-free matches.
    for position_b in order:
        key = index_b.keys[position_b]
        if not left[key]:
            continue
        node_b = nodes_b[position_b]
        bits_b = index_b.bits[position_b]
        # Operand slots whose producer is already matched, with its partner.
        wanted = [
            (slot, matched_b[pred])
            for slot, pred in enumerate(node_b.preds)
            if pred in matched_b
        ]
        # No candidate can beat a perfect score, and a later one that only
        # ties it never replaces the first.
        perfect = (len(wanted), 0)
        best = None
        best_score = None
        for position_a in index_a.by_key[key]:
            node_a = nodes_a[position_a]
            if node_a in matched_a:
                continue
            bits_a = index_a.bits[position_a]
            # Prefer already-matched producers, then the closest width (a
            # wider partner wastes shared-unit bits, a narrower one buys
            # less) — deterministic because program order breaks ties.
            preds_a = node_a.preds
            bonus = 0
            for slot, partner in wanted:
                if slot < len(preds_a) and preds_a[slot] is partner:
                    bonus += 1
            score = (bonus, -abs(bits_a - bits_b))
            if best_score is None or score > best_score:
                best, best_score, best_bits = node_a, score, bits_a
                best_position = position_a
                if score == perfect:
                    break
        if best is None:
            continue
        left[key] -= 1
        matched_a.add(best)
        matched_b[node_b] = best
        result.pairs.append((best, node_b))
        result.positions.append((best_position, position_b))
        widths.append((key[0], best_bits, bits_b))

    for (node_a, node_b), (resource, bits_a, bits_b) in zip(
        result.pairs, widths
    ):
        shared_bits = max(bits_a, bits_b)
        # Sharing keeps one instance at the max width: the saving is the
        # smaller member's area.
        saved = (
            techlib.area(resource, bits_a)
            + techlib.area(resource, bits_b)
            - techlib.area(resource, shared_bits)
        )
        result.shared_area += saved
        if bits_a != bits_b:
            result.width_glue_area += techlib.area("zext", shared_bits)
        if resource in _INT_MERGEABLE:
            if _bucket(bits_a) != _bucket(bits_b):
                # The binary bucketing could not merge this pair at all.
                result.width_recovered_area += saved
            else:
                # It could, but would have billed the bucket width.
                result.width_recovered_area += (
                    techlib.area(resource, _bucket(shared_bits))
                    - techlib.area(resource, shared_bits)
                )
        # One mux per operand position whose producers differ.
        arity = max(len(node_a.preds), len(node_b.preds))
        for slot in range(arity):
            prod_a = node_a.preds[slot] if slot < len(node_a.preds) else None
            prod_b = node_b.preds[slot] if slot < len(node_b.preds) else None
            if prod_b is not None and matched_b.get(prod_b) is prod_a and prod_a is not None:
                continue  # shared wire, no mux
            result.mux_area += techlib.mux_area(shared_bits, 2)
            result.config_bits += 1
    return result


def unit_fu_area(unit: DFG, techlib: TechLibrary) -> float:
    """Raw functional-unit area of one datapath unit (no sharing)."""
    total = 0.0
    for node in unit.nodes:
        total += techlib.area(node.resource, node.bits)
    return total
