"""Shadow state for the dynamic sanitizer: initialized-byte tracking.

compute-sanitizer's memcheck keeps two shadow maps per allocation —
*addressable* and *initialized*.  Our global memory already knows the
exact allocation table (the bump allocator records every
``cudaMalloc``), so addressability is answered directly by
:meth:`repro.functional.memory.GlobalMemory.allocation_containing`;
the shadow only needs the second map: one byte of shadow per byte of
payload, flipped to 1 the first time the byte is written.

The shadow attaches to a :class:`GlobalMemory` (``gm.shadow``) and is
fed by ``gm.write`` itself, so host ``memcpy``s, ``memset``s and
scalar-tier kernel stores all mark initialization with no extra
plumbing.  The megablock tier scatters into the store's buffer without
going through ``gm.write``, so it keeps a dense twin of the shadow:
:meth:`dense_init` exports it as a flat ``uint8`` array for vectorized
gathers and :meth:`absorb_dense` folds the chunk's store marks back.
Shard workers serialize the maps with :meth:`snapshot`/:meth:`restore`
so a fanned-out launch starts from the parent's initialization state.

Soundness stance: a byte is only ever marked *initialized*, never
unmarked — frees keep their map (a re-used address range would be
freshly tracked only if the allocator recycled addresses, which the
bump allocator never does).  Monotonicity is what lets
:func:`repro.analysis.ranges.prove_launch` turn a launch-time
"interval fully initialized" check into a whole-launch INIT proof.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import GlobalMemory


class ShadowMemory:
    """Per-allocation initialized-byte maps for one global memory."""

    def __init__(self, gm: GlobalMemory) -> None:
        self._gm = gm
        #: allocation base -> one shadow byte (0/1) per payload byte.
        self._maps: dict[int, bytearray] = {}
        #: allocation bases proven fully initialized (fast-path skip).
        self._full: set[int] = set()

    # -- marking -------------------------------------------------------
    def _map_for(self, base: int, size: int) -> bytearray:
        shadow = self._maps.get(base)
        if shadow is None or len(shadow) != size:
            shadow = bytearray(size)
            self._maps[base] = shadow
            self._full.discard(base)
        return shadow

    def mark_initialized(self, addr: int, nbytes: int) -> None:
        """Record that ``[addr, addr+nbytes)`` now holds written data.

        Ranges (or parts of ranges) outside any live allocation are
        ignored — the sanitizer reports those as out-of-bounds findings
        instead of tracking them.
        """
        gm = self._gm
        end = addr + nbytes
        while addr < end:
            span = gm.allocation_containing(addr)
            if span is None:
                addr += 1  # skip the unallocated byte, re-probe
                continue
            base, size = span
            if base in self._full:
                addr = base + size
                continue
            lo = addr - base
            hi = min(end - base, size)
            shadow = self._map_for(base, size)
            shadow[lo:hi] = b"\x01" * (hi - lo)
            addr = base + hi

    # -- queries -------------------------------------------------------
    def range_initialized(self, addr: int, nbytes: int) -> bool:
        """True iff every byte of ``[addr, addr+nbytes)`` was written."""
        if nbytes <= 0:
            return True
        span = self._gm.allocation_containing(addr)
        if span is None:
            return False
        base, size = span
        if addr + nbytes > base + size:
            return False  # straddles the allocation end
        if base in self._full:
            return True
        shadow = self._maps.get(base)
        if shadow is None:
            return False
        lo = addr - base
        window = shadow[lo:lo + nbytes]
        if 0 in window:
            return False
        if len(shadow) == size and 0 not in shadow:
            self._full.add(base)
        return True

    # -- dense export / absorb (megablock tier) ------------------------
    def dense_init(self, lo: int, span: int) -> np.ndarray:
        """Flat 0/1 ``uint8`` map over ``[lo, lo+span)`` for gathers."""
        dense = np.zeros(max(span, 0), np.uint8)
        for base, shadow in self._maps.items():
            start = base - lo
            if start >= span or start + len(shadow) <= 0:
                continue
            src = np.frombuffer(bytes(shadow), np.uint8)
            a = max(start, 0)
            b = min(start + len(shadow), span)
            dense[a:b] = src[a - start:b - start]
        return dense

    def absorb_dense(self, lo: int, dense: np.ndarray) -> None:
        """Mark every byte set in *dense* (a :meth:`dense_init`-shaped
        array mutated by the megablock tier's stores) as initialized."""
        for base, size in self._gm.allocations.items():
            a = base - lo
            b = a + size
            if a >= len(dense) or b <= 0:
                continue
            a0, b0 = max(a, 0), min(b, len(dense))
            window = dense[a0:b0]
            if not window.any():
                continue
            shadow = self._map_for(base, size)
            view = np.frombuffer(shadow, np.uint8)
            np.maximum(view[a0 - a:b0 - a], window,
                       out=view[a0 - a:b0 - a])
            self._full.discard(base)

    # -- shard transport -----------------------------------------------
    def snapshot(self) -> dict[int, bytes]:
        return {base: bytes(shadow)
                for base, shadow in self._maps.items()}

    def restore(self, state: dict[int, bytes]) -> None:
        self._maps = {int(base): bytearray(shadow)
                      for base, shadow in state.items()}
        self._full = set()


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
