"""Shadow state for the dynamic sanitizer: initialized-byte tracking.

compute-sanitizer's memcheck keeps two shadow maps per allocation —
*addressable* and *initialized*.  Our global memory already knows the
exact allocation table (the bump allocator records every
``cudaMalloc``), so addressability is answered directly by
:meth:`repro.functional.memory.GlobalMemory.allocation_containing`;
the shadow only needs the second map: one byte of shadow per byte of
payload, flipped to 1 the first time the byte is written.

The map is one dense ``bytearray`` beside the store's own
(:meth:`GlobalMemory.dense`), byte *i* standing for address
``GLOBAL_BASE + i``.  The shadow attaches to a :class:`GlobalMemory`
(``gm.shadow``) and is fed by ``gm.write`` itself, so host ``memcpy``s,
``memset``s and scalar-tier kernel stores all mark initialization with
no extra plumbing; the megablock tier, which scatters into the store's
buffer directly, scatters its marks into a NumPy view of
:meth:`ShadowMemory.dense` the same way — one map, every tier writes
it in place.  Shard workers carry it per allocation with
:meth:`snapshot`/:meth:`restore` so a fanned-out launch starts from
the parent's initialization state.

Soundness stance: a byte is only ever marked *initialized*, never
unmarked — frees keep their marks (a re-used address range would be
freshly tracked only if the allocator recycled addresses, which the
bump allocator never does).  Monotonicity is what lets
:func:`repro.analysis.ranges.prove_launch` turn a launch-time
"interval fully initialized" check into a whole-launch INIT proof.
Bytes between allocations may get marked by an out-of-bounds store;
nothing reads them (the sanitizer reports such accesses as S601 and
checks initialization of in-bounds loads only).
"""

from __future__ import annotations

from repro.functional.memory import GLOBAL_BASE, GlobalMemory


class ShadowMemory:
    """The initialized-byte map of one global memory."""

    def __init__(self, gm: GlobalMemory) -> None:
        self._gm = gm
        self._marks = bytearray()

    def dense(self) -> bytearray:
        """The map itself, grown here to the store's current span: 0/1
        per byte of ``gm.dense()[0]``.  Like the store's buffer it
        cannot grow while a NumPy view of it is alive — drop the view
        before the next allocation."""
        short = len(self._gm.dense()[0]) - len(self._marks)
        if short > 0:
            self._marks += bytes(short)
        return self._marks

    def mark_initialized(self, addr: int, nbytes: int) -> None:
        """Record that ``[addr, addr+nbytes)`` now holds written data
        (the part inside the store's span; the sanitizer reports
        anything beyond as out-of-bounds instead of tracking it)."""
        marks = self.dense()
        lo = max(addr - GLOBAL_BASE, 0)
        hi = min(addr - GLOBAL_BASE + nbytes, len(marks))
        if lo < hi:
            marks[lo:hi] = b"\x01" * (hi - lo)

    def range_initialized(self, addr: int, nbytes: int) -> bool:
        """True iff ``[addr, addr+nbytes)`` lies inside one live
        allocation and every byte of it was written."""
        if nbytes <= 0:
            return True
        span = self._gm.allocation_containing(addr)
        if span is None or addr + nbytes > span[0] + span[1]:
            return False
        lo = addr - GLOBAL_BASE
        return self.dense().find(0, lo, lo + nbytes) < 0

    # -- shard transport -----------------------------------------------
    def snapshot(self) -> dict[int, bytes]:
        """``{allocation base: its marks}`` of every live allocation
        with a written byte."""
        marks = self.dense()
        state = {}
        for base, size in self._gm.allocations.items():
            lo = base - GLOBAL_BASE
            if marks.find(1, lo, lo + size) >= 0:
                state[base] = bytes(marks[lo:lo + size])
        return state

    def restore(self, state: dict[int, bytes]) -> None:
        """Replace the map with a :meth:`snapshot` image."""
        self._marks = bytearray()
        marks = self.dense()
        for base, image in state.items():
            lo = int(base) - GLOBAL_BASE
            marks[lo:lo + len(image)] = image


def attach_shadow(gm: GlobalMemory) -> ShadowMemory:
    """Attach (or return the existing) shadow tracker of *gm*.

    Must run before the workload's host uploads: ``gm.write`` marks
    initialization only while a shadow is attached, and there is no
    way to reconstruct which bytes of a pre-existing page were written
    deliberately versus materialised by a read.
    """
    if gm.shadow is None:
        gm.shadow = ShadowMemory(gm)
    return gm.shadow
