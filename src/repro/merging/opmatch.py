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

Matching, its bound and merging read a unit's positional form
(:class:`_OpIndex`), never DFG nodes: :func:`op_index` builds a DFG's,
:meth:`_OpIndex.merged` a merged unit's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple
from weakref import WeakKeyDictionary

from ..hls.dfg import DFG, DFGNode
from ..hls.techlib import CONFIG_BIT_AREA_UM2, TechLibrary
from ..ir import Instruction

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

    #: ``(position_a, position_b)`` per matched op pair, in B's order.
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
    """The positional form of a datapath unit: what matching, bounds, area
    and merging read. Entry ``i`` is the unit's ``i``-th op: its op key and
    width, the positions of its data and memory-order predecessors, and
    its ``(inst, copy)`` origin. ``by_key`` lists each op key's positions
    in program order, keys in order of first position."""

    __slots__ = (
        "keys", "bits", "preds", "order_preds", "origins", "by_key", "_tops")

    def __init__(
        self, keys: List[Tuple[str, int]], bits: List[int],
        preds: List[Tuple[int, ...]], order_preds: List[Tuple[int, ...]],
        origins: List[Tuple[Instruction, int]],
        by_key: Dict[Tuple[str, int], List[int]],
    ):
        self.keys = keys
        self.bits = bits
        self.preds = preds
        self.order_preds = order_preds
        self.origins = origins
        self.by_key = by_key
        #: ``(techlib, {key: prefix sums of the key's FU areas, largest
        #: first})``, built on the first bound query.
        self._tops = None

    def __len__(self) -> int:
        return len(self.keys)

    def merged(
        self, other: "_OpIndex", positions: List[Tuple[int, int]]
    ) -> "_OpIndex":
        """``other`` merged onto this unit by the matched ``(position,
        position_in_other)`` pairs: these entries, each matched one widened
        to its pair's max width (which keeps its key), then ``other``'s
        unmatched entries, predecessors remapped onto the new positions.
        ``by_key`` shares this unit's list of every key ``other``'s
        unmatched entries do not extend and copies the others."""
        bits = list(self.bits)
        # ``other``'s position -> its position in the merged unit.
        where = [-1] * len(other)
        for position, position_other in positions:
            width = other.bits[position_other]
            if width > bits[position]:
                bits[position] = width
            where[position_other] = position
        unmatched = [p for p, new in enumerate(where) if new < 0]
        by_key = dict(self.by_key)
        extended: Dict[Tuple[str, int], List[int]] = {}
        for new, p in enumerate(unmatched, len(self)):
            where[p] = new
            key = other.keys[p]
            grown = extended.get(key)
            if grown is None:
                grown = extended[key] = by_key[key] = list(
                    self.by_key.get(key, ()))
            grown.append(new)

        def remapped(edges):
            return [tuple(map(where.__getitem__, edges[p])) for p in unmatched]

        return _OpIndex(
            self.keys + [other.keys[p] for p in unmatched],
            bits + [other.bits[p] for p in unmatched],
            self.preds + remapped(other.preds),
            self.order_preds + remapped(other.order_preds),
            self.origins + [other.origins[p] for p in unmatched],
            by_key,
        )

    def to_dfg(self) -> DFG:
        """A fresh DFG of the unit, one node per entry in position order.
        Each node is added to its data, then its order predecessors'
        ``succs``, node by node, as :meth:`DFG.replicate` wires them."""
        nodes = [
            DFGNode(inst, copy, width)
            for (inst, copy), width in zip(self.origins, self.bits)
        ]
        for node, preds, order_preds in zip(
            nodes, self.preds, self.order_preds
        ):
            node.preds = [nodes[p] for p in preds]
            node.order_preds = [nodes[p] for p in order_preds]
            for pred in node.preds + node.order_preds:
                pred.succs.append(node)
        return DFG(nodes)

    def fu_area(self, techlib: TechLibrary) -> float:
        """Raw functional-unit area of the unit (no sharing)."""
        total = 0.0
        for key, width in zip(self.keys, self.bits):
            total += techlib.area(key[0], width)
        return total

    def tops(self, techlib: TechLibrary) -> Dict[Tuple[str, int], List[float]]:
        """Per op key, in ``by_key`` order, entry ``k - 1`` is the summed FU
        area of the key's ``k`` largest nodes."""
        if self._tops is None or self._tops[0] is not techlib:
            tops: Dict[Tuple[str, int], List[float]] = {}
            for key, positions in self.by_key.items():
                # Area is nondecreasing in width: widest first is largest
                # first, and equal widths repeat one area lookup.
                values = sorted(
                    (self.bits[p] for p in positions), reverse=True)
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


#: A DFG's nodes never change once it is built, so its positional form is
#: built once and shared by every unit built on it.
_INDEXES: "WeakKeyDictionary[DFG, _OpIndex]" = WeakKeyDictionary()


def op_index(dfg: DFG) -> _OpIndex:
    """``dfg``'s positional form; the same object on every call."""
    index = _INDEXES.get(dfg)
    if index is None:
        nodes = dfg.nodes
        position = {node: i for i, node in enumerate(nodes)}
        keys = [_op_key(node.resource, node.bits) for node in nodes]
        by_key: Dict[Tuple[str, int], List[int]] = {}
        for i, key in enumerate(keys):
            by_key.setdefault(key, []).append(i)
        index = _INDEXES[dfg] = _OpIndex(
            keys,
            [node.bits for node in nodes],
            [tuple(position[p] for p in node.preds) for node in nodes],
            [tuple(position[p] for p in node.order_preds) for node in nodes],
            [(node.inst, node.copy) for node in nodes],
            by_key,
        )
    return index


#: Relative slack on :func:`saving_bound`. Matching sums a few thousand
#: float terms at most, so its rounding stays many orders below this.
BOUND_SLACK = 1e-9


def saving_bound(
    index_a: _OpIndex, index_b: _OpIndex, techlib: TechLibrary
) -> Tuple[float, int]:
    """An upper bound on ``match_units(index_a, index_b).net_saving``, and
    the most pairs that match can hold.

    A pair shares one op key and saves ``area(resource, min(bits))``,
    since area is nondecreasing in width, so a key whose sides have ``k =
    min(count_a, count_b)`` nodes saves at most the smaller of each side's
    ``k`` largest FU areas. Mux, glue and config bits only subtract. The
    slack keeps the bound above the exact saving under float rounding."""
    tops_a, tops_b = index_a.tops(techlib), index_b.tops(techlib)
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
    index_a: _OpIndex, index_b: _OpIndex, techlib: TechLibrary
) -> MatchResult:
    """Greedy producer-aware matching of unit B's ops onto unit A's."""
    result = MatchResult()
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

    matched_a: Set[int] = set()
    #: B position -> the A position it is matched to.
    matched_b: Dict[int, int] = {}
    #: ``(resource, bits_a, bits_b)`` per entry of ``result.positions``.
    widths: List[Tuple[str, int, int]] = []

    # Single pass in program order: producers precede consumers, so matched
    # producer pairs steer their consumers toward mux-free matches.
    for position_b in order:
        key = index_b.keys[position_b]
        if not left[key]:
            continue
        bits_b = index_b.bits[position_b]
        # Operand slots whose producer is already matched, with its partner.
        wanted = [
            (slot, matched_b[pred])
            for slot, pred in enumerate(index_b.preds[position_b])
            if pred in matched_b
        ]
        # No candidate can beat a perfect score, and a later one that only
        # ties it never replaces the first.
        perfect = (len(wanted), 0)
        best = None
        best_score = None
        for position_a in index_a.by_key[key]:
            if position_a in matched_a:
                continue
            bits_a = index_a.bits[position_a]
            # Prefer already-matched producers, then the closest width (a
            # wider partner wastes shared-unit bits, a narrower one buys
            # less) — deterministic because program order breaks ties.
            preds_a = index_a.preds[position_a]
            bonus = 0
            for slot, partner in wanted:
                if slot < len(preds_a) and preds_a[slot] == partner:
                    bonus += 1
            score = (bonus, -abs(bits_a - bits_b))
            if best_score is None or score > best_score:
                best, best_score, best_bits = position_a, score, bits_a
                if score == perfect:
                    break
        if best is None:
            continue
        left[key] -= 1
        matched_a.add(best)
        matched_b[position_b] = best
        result.positions.append((best, position_b))
        widths.append((key[0], best_bits, bits_b))

    area = techlib.area
    shared_area = mux_area = glue_area = recovered_area = 0.0
    config_bits = 0
    for (position_a, position_b), (resource, bits_a, bits_b) in zip(
        result.positions, widths
    ):
        shared_bits = max(bits_a, bits_b)
        # Sharing keeps one instance at the max width: the saving is the
        # smaller member's area.
        saved = (
            area(resource, bits_a)
            + area(resource, bits_b)
            - area(resource, shared_bits)
        )
        shared_area += saved
        if bits_a != bits_b:
            glue_area += area("zext", shared_bits)
        if resource in _INT_MERGEABLE:
            if _bucket(bits_a) != _bucket(bits_b):
                # The binary bucketing could not merge this pair at all.
                recovered_area += saved
            else:
                # It could, but would have billed the bucket width.
                recovered_area += (
                    area(resource, _bucket(shared_bits))
                    - area(resource, shared_bits)
                )
        mux = techlib.mux_area(shared_bits, 2)
        # One mux per operand position whose producers differ.
        preds_a, preds_b = index_a.preds[position_a], index_b.preds[position_b]
        for slot in range(max(len(preds_a), len(preds_b))):
            if (
                slot < len(preds_a) and slot < len(preds_b)
                and matched_b.get(preds_b[slot]) == preds_a[slot]
            ):
                continue  # shared wire, no mux
            mux_area += mux
            config_bits += 1
    result.shared_area = shared_area
    result.mux_area = mux_area
    result.width_glue_area = glue_area
    result.width_recovered_area = recovered_area
    result.config_bits = config_bits
    return result
