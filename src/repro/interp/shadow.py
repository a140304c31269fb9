"""The compiled sanitizer's loop state: loop clocks and one shadow table.

The sanitizer's dependence check needs, at each access and for each loop
around it that contains a store (a *level*), the last write of each
location by an instruction of that loop since the loop's last fresh
entry, and how many of the loop's iterations ago it ran; a store also
needs the last read.  The reference engine keeps one table per loop and
clears it on each fresh entry.  The compiled engine keeps these instead:

* **Clocks.**  A loop's :class:`Clock` stamps its iterations with a
  serial that only grows: a back edge adds one, and a fresh entry moves
  the clock's ``base`` past every serial issued so far.  The iteration is
  ``serial - base``, a stamp below ``base`` dates from an earlier entry,
  and nothing is ever cleared.
* **One shadow per function.**  Each entry is ``(instruction, stamp per
  level...)``, one stamp per loop depth, zero-padded.  An access makes one
  probe for the last write (a store one more for the last read), checks
  each of its levels against that entry, then stores its own.  A function
  that cannot recurse is inside at most one loop of each depth at a time,
  so its levels of one depth share a clock and all its levels the
  shadow: an entry's stamp at a depth is then current only if its writer
  ran in the reader's current loop instance there.  In a function that
  can recurse each loop keeps its own clock and shadow, so an inner
  activation's accesses leave the outer one's entries, as the reference's
  per-loop tables do.
* **Per-level keying.**  While every access of a level is N bytes and
  aligned, the shadow is keyed by element start address and one element
  conflict counts N identical byte conflicts.  A level that mixes access
  sizes keys its own shadow by byte from the start; the first misaligned
  access of a level moves that level's live entries to its own
  byte-keyed shadow for good (:meth:`LoopTrack.to_bytes`), and only the
  accesses inside that level stop checking inline.

The sanitizer emits the checks that read and write this state.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..analysis.loops import Loop, LoopInfo
from ..ir import Load, Store, sizeof


def access_bytes(inst) -> int:
    """Bytes a Load or Store moves."""
    return sizeof(inst.type if isinstance(inst, Load) else inst.value.type)


class Clock:
    """Iteration stamps of the loops sharing it; a fresh entry moves
    ``base`` and ``serial`` to the next multiple of ``step``, so
    ``serial // f`` names one unrolled cycle slot for each banking factor
    ``f`` dividing ``step``."""

    __slots__ = ("serial", "base", "step")

    def __init__(self):
        self.serial = self.base = 0
        self.step = 1


class LoopTrack:
    """One loop the sanitizer watches: its ``clock``, and for a level its
    claimed dependence distances (``claims``, None for a loop without a
    store), depth ``level`` and ``shadow``, a (writes, reads) pair keyed
    by ``size``-byte element, or by byte when ``size`` is 0.  ``width`` is
    the length of its function's entries."""

    __slots__ = ("loop", "clock", "claims", "size", "level", "shadow",
                 "width")

    def __init__(self, loop, clock, claims, size, shadow):
        self.loop, self.clock, self.claims = loop, clock, claims
        self.size, self.shadow, self.level = size, shadow, loop.depth - 1
        loops = LoopInfo.of(loop.header.parent).loops
        self.width = 1 + max(other.depth for other in loops)

    def to_bytes(self) -> None:
        """Re-key this level to bytes for good: its live entries move to a
        byte-keyed shadow of its own."""
        at, base, old = self.level + 1, self.clock.base, self.shadow
        self.shadow = ({}, {})
        for table, new in zip(old, self.shadow):
            for address, entry in table.items():
                if entry[at] >= base:
                    new.update(dict.fromkeys(
                        range(address, address + self.size), entry))
        self.size = 0


def plan_tracks(
    loops: Iterable[Tuple[Loop, Optional[Dict]]],
    recursive: Set,
    factors: Dict[Loop, List[int]],
) -> Dict[Loop, LoopTrack]:
    """A track for each ``(loop, claims)``, claims None for a loop without
    a store; ``recursive`` holds the functions that can recurse, and
    ``factors`` each loop's banking unroll factors."""
    tracks: Dict[Loop, LoopTrack] = {}
    clocks: Dict = {}
    shadows: Dict = {}
    for loop, claims in loops:
        func = loop.header.parent
        own = claims is None or func in recursive
        clock = clocks.setdefault(loop if own else (func, loop.depth),
                                  Clock())
        clock.step = lcm(clock.step, *factors.get(loop, ()))
        sizes = {access_bytes(inst) for block in loop.blocks
                 for inst in block.instructions
                 if isinstance(inst, (Load, Store))}
        size = sizes.pop() if len(sizes) == 1 else 0
        shadow = (shadows.setdefault(loop if own else func, ({}, {}))
                  if size else ({}, {}))
        tracks[loop] = LoopTrack(loop, clock, claims, size, shadow)
    return tracks
