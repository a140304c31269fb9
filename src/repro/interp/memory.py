"""Flat byte-addressable memory for the IR interpreter."""

from __future__ import annotations

import struct

from ..ir import FloatType, IntType, PointerType, Type, sizeof


class MemoryError_(Exception):
    """Out-of-bounds or misaligned access in interpreter memory."""


class FlatMemory:
    """A single linear address space with bump allocation.

    Address 0 is kept unmapped so that null-pointer dereferences trap.
    """

    def __init__(self, size: int = 1 << 22):
        self.size = size
        self.data = bytearray(size)
        self.brk = 64  # small unmapped guard region at the bottom

    def allocate(self, ty: Type, align: int = 8) -> int:
        """Reserve storage for a value of type ``ty``; returns the address."""
        nbytes = sizeof(ty)
        self.brk = (self.brk + align - 1) // align * align
        address = self.brk
        self.brk += nbytes
        if self.brk > self.size:
            raise MemoryError_(
                f"out of interpreter memory ({self.brk} > {self.size})"
            )
        return address

    def _check(self, address: int, nbytes: int) -> None:
        if address < 64 or address + nbytes > self.size:
            raise MemoryError_(f"access at {address} ({nbytes} bytes) out of range")

    # Typed accessors --------------------------------------------------------
    #
    # ``load``/``store`` range-check every access.  The ``*_unchecked``
    # variants skip the check; the interpreter routes an access here only
    # when the dataflow layer proved it in-bounds relative to a root object
    # whose allocation was itself range-checked (see repro.dataflow.bounds).

    def load_unchecked(self, address: int, ty: Type):
        if isinstance(ty, IntType):
            nbytes = max(1, (ty.bits + 7) // 8)
            raw = int.from_bytes(self.data[address:address + nbytes], "little")
            sign_bit = 1 << (ty.bits - 1)
            return (raw & (sign_bit - 1)) - (raw & sign_bit) if ty.bits > 1 else raw & 1
        if isinstance(ty, FloatType):
            fmt = "<f" if ty.bits == 32 else "<d"
            return struct.unpack_from(fmt, self.data, address)[0]
        if isinstance(ty, PointerType):
            return int.from_bytes(self.data[address:address + 8], "little")
        raise MemoryError_(f"cannot load type {ty}")

    def store_unchecked(self, address: int, ty: Type, value) -> None:
        if isinstance(ty, IntType):
            nbytes = max(1, (ty.bits + 7) // 8)
            mask = (1 << (8 * nbytes)) - 1
            self.data[address:address + nbytes] = (int(value) & mask).to_bytes(
                nbytes, "little"
            )
            return
        if isinstance(ty, FloatType):
            fmt = "<f" if ty.bits == 32 else "<d"
            struct.pack_into(fmt, self.data, address, float(value))
            return
        if isinstance(ty, PointerType):
            self.data[address:address + 8] = (int(value) & ((1 << 64) - 1)).to_bytes(
                8, "little"
            )
            return
        raise MemoryError_(f"cannot store type {ty}")

    def load(self, address: int, ty: Type):
        self._check(address, sizeof(ty))
        return self.load_unchecked(address, ty)

    def store(self, address: int, ty: Type, value) -> None:
        self._check(address, sizeof(ty))
        self.store_unchecked(address, ty, value)

    # Bulk helpers used by workload input generators ---------------------------

    def write_array_f(self, address: int, values, bits: int = 32) -> None:
        self._check(address, (bits // 8) * len(values))
        fmt = "<%d%s" % (len(values), "f" if bits == 32 else "d")
        struct.pack_into(fmt, self.data, address, *values)

    def read_array_f(self, address: int, count: int, bits: int = 32):
        self._check(address, (bits // 8) * count)
        fmt = "<%d%s" % (count, "f" if bits == 32 else "d")
        return list(struct.unpack_from(fmt, self.data, address))

    def write_array_i(self, address: int, values, bits: int = 32) -> None:
        nbytes = bits // 8
        self._check(address, nbytes * len(values))
        mask = (1 << bits) - 1
        for i, value in enumerate(values):
            self.data[address + i * nbytes:address + (i + 1) * nbytes] = (
                (int(value) & mask).to_bytes(nbytes, "little")
            )

    def read_array_i(self, address: int, count: int, bits: int = 32):
        nbytes = bits // 8
        self._check(address, nbytes * count)
        result = []
        sign_bit = 1 << (bits - 1)
        for i in range(count):
            raw = int.from_bytes(
                self.data[address + i * nbytes:address + (i + 1) * nbytes], "little"
            )
            result.append((raw & (sign_bit - 1)) - (raw & sign_bit))
        return result
