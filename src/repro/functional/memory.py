"""Memory spaces for the functional simulator.

Global memory is one dense byte store with a bump allocator — the
same role ``cudaMalloc``'d device memory plays on hardware.  Allocation
sizes are tracked so the debug tool can do what the paper describes:
"we also modified GPGPU-Sim to obtain the size of any GPU memory buffers
pointed to by these pointers".

Shared, local, param and const spaces are small linear arenas.
"""

from __future__ import annotations

import bisect
import hashlib
import struct

from repro.errors import SimulationFault

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
GLOBAL_BASE = 0x1000_0000
_BASE_PAGE = GLOBAL_BASE >> PAGE_BITS

#: Recognisable fill byte for the ``"poison"`` uninitialised-read
#: policy (the classic debug-heap pattern).
POISON_BYTE = 0xCD

#: Valid :attr:`GlobalMemory.uninit_read` policies.
UNINIT_READ_POLICIES = ("zeros", "poison", "raise")


class GlobalMemory:
    """Dense global memory with allocation tracking.

    One contiguous ``bytearray`` backs ``[GLOBAL_BASE, _next)`` in
    whole pages; :meth:`allocate` grows it in place.  Every tier
    executes against that buffer itself (the megablock tier through a
    NumPy view of it, see :meth:`dense`), so there is exactly one copy
    of device memory.  Addresses outside the span auto-page into a
    small overflow dict, which a later :meth:`allocate` folds into the
    buffer when the span reaches them.

    :attr:`uninit_read` selects what a read from a never-written page
    returns: ``"zeros"`` (the historical silent default), ``"poison"``
    (pages materialise filled with :data:`POISON_BYTE`, so stale reads
    compute recognisably wrong values instead of quietly-correct
    zeros), or ``"raise"`` (a :class:`SimulationFault`).  The policy
    fills pages as the span grows over them, so set it before the first
    allocation.  The sanitizer switches a runtime to poison so
    uninitialised data can never masquerade as a legitimate zero.

    :attr:`shadow` is an optional per-byte initialized-state tracker
    (:class:`repro.sanitize.shadow.ShadowMemory`); when attached, every
    :meth:`write` — host memcpys and kernel stores alike — marks its
    range initialized.
    """

    def __init__(self, *, uninit_read: str = "zeros") -> None:
        if uninit_read not in UNINIT_READ_POLICIES:
            raise ValueError(
                f"unknown uninit_read policy {uninit_read!r}; expected "
                f"one of {UNINIT_READ_POLICIES}")
        self._buf = bytearray()
        #: One flag per page of ``_buf``: set by the first write.  Keeps
        #: the ``"raise"`` policy and the sparse :meth:`snapshot`.
        self._written = bytearray()
        #: Auto-paged pages outside the dense span.
        self._overflow: dict[int, bytearray] = {}
        self._next = GLOBAL_BASE
        self._allocations: dict[int, int] = {}
        self._bases: list[int] = []  # sorted allocation bases
        self.uninit_read = uninit_read
        self.shadow = None

    # -- allocation ----------------------------------------------------
    def allocate(self, nbytes: int, align: int = 256) -> int:
        if nbytes <= 0:
            raise SimulationFault(f"cannot allocate {nbytes} bytes")
        base = (self._next + align - 1) // align * align
        self._grow(base + nbytes)
        self._next = base + nbytes
        self._allocations[base] = nbytes
        bisect.insort(self._bases, base)
        return base

    def fresh_page(self) -> bytes:
        """What a never-written page holds under :attr:`uninit_read`."""
        fill = POISON_BYTE if self.uninit_read == "poison" else 0
        return bytes([fill]) * PAGE_SIZE

    def _grow(self, end: int) -> None:
        """Extend the dense span to cover ``[GLOBAL_BASE, end)``.

        Resizes in place: a ``bytearray`` refuses that while a NumPy
        view of it is alive (``BufferError``), so a stale megablock
        view can never silently write to a dead buffer.
        """
        have = len(self._written)
        need = (end - GLOBAL_BASE + PAGE_SIZE - 1) >> PAGE_BITS
        if need <= have:
            return
        grown = need - have
        self._buf += self.fresh_page() * grown
        self._written += bytes(grown)
        for page_id in [pid for pid in self._overflow
                        if have <= pid - _BASE_PAGE < need]:
            index = page_id - _BASE_PAGE
            offset = index << PAGE_BITS
            self._buf[offset:offset + PAGE_SIZE] = \
                self._overflow.pop(page_id)
            self._written[index] = 1

    def free(self, addr: int) -> None:
        if addr not in self._allocations:
            raise SimulationFault(f"free of unallocated address {addr:#x}")
        del self._allocations[addr]
        index = bisect.bisect_left(self._bases, addr)
        del self._bases[index]

    def allocation_containing(self, addr: int) -> tuple[int, int] | None:
        """Return (base, size) of the allocation holding *addr*, if any.

        Allocations never overlap (bump allocator), so the only candidate
        is the allocation with the greatest base <= addr — found by
        bisection over the sorted base list, not a dict scan.
        """
        index = bisect.bisect_right(self._bases, addr) - 1
        if index < 0:
            return None
        base = self._bases[index]
        size = self._allocations[base]
        if addr < base + size:
            return base, size
        return None

    @property
    def allocations(self) -> dict[int, int]:
        return dict(self._allocations)

    def dense(self) -> tuple[bytearray, bytearray]:
        """``(buffer, written)``: the store itself and its page flags.

        ``buffer[i]`` is the byte at ``GLOBAL_BASE + i``; its length is
        a whole number of pages.  A store through it must set
        ``written[i >> PAGE_BITS]``.  Drop every view of either before
        the next :meth:`allocate`.
        """
        return self._buf, self._written

    def iter_pages(self):
        """``(page_id, bytes)`` pairs of every written page.

        The shard executor diffs a worker's final pages against the
        image it started from to extract byte-exact write runs.
        """
        buf = self._buf
        for index, flag in enumerate(self._written):
            if flag:
                offset = index << PAGE_BITS
                yield (_BASE_PAGE + index,
                       bytes(buf[offset:offset + PAGE_SIZE]))
        for page_id, page in self._overflow.items():
            yield page_id, bytes(page)

    # -- byte access ---------------------------------------------------
    def _never_written(self, page_id: int):
        base = page_id << PAGE_BITS
        raise SimulationFault(
            f"read of never-written global page "
            f"[{base:#x}, {base + PAGE_SIZE:#x}) "
            "(uninit_read policy: raise)")

    def _page(self, page_id: int, *,
              for_read: bool = False) -> tuple[bytearray, int]:
        """``(buffer, offset)`` of one page, in the span or outside it."""
        index = page_id - _BASE_PAGE
        if 0 <= index < len(self._written):
            if for_read:
                if not self._written[index] \
                        and self.uninit_read == "raise":
                    self._never_written(page_id)
            else:
                self._written[index] = 1
            return self._buf, index << PAGE_BITS
        page = self._overflow.get(page_id)
        if page is None:
            if for_read and self.uninit_read == "raise":
                self._never_written(page_id)
            page = bytearray(self.fresh_page())
            self._overflow[page_id] = page
        return page, 0

    def read(self, addr: int, nbytes: int) -> bytes:
        """Bytes at ``[addr, addr+nbytes)``; never-written pages read as
        :attr:`uninit_read` says, inside the span or outside it."""
        offset = addr - GLOBAL_BASE
        end = offset + nbytes
        if 0 <= offset and end <= len(self._buf):
            if self.uninit_read == "raise":
                gap = self._written.find(
                    0, offset >> PAGE_BITS,
                    (end + PAGE_SIZE - 1) >> PAGE_BITS)
                if gap >= 0:
                    self._never_written(_BASE_PAGE + gap)
            return bytes(self._buf[offset:end])
        # Outside (or straddling the end of) the span: page by page.
        out = bytearray()
        page_id = addr >> PAGE_BITS
        offset = addr & (PAGE_SIZE - 1)
        while nbytes:
            take = min(nbytes, PAGE_SIZE - offset)
            buf, start = self._page(page_id, for_read=True)
            out += buf[start + offset:start + offset + take]
            nbytes -= take
            page_id += 1
            offset = 0
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Store *data* at *addr*, marking its pages written (and its
        bytes initialized, when a shadow is attached)."""
        nbytes = len(data)
        if self.shadow is not None:
            self.shadow.mark_initialized(addr, nbytes)
        offset = addr - GLOBAL_BASE
        end = offset + nbytes
        if 0 <= offset and end <= len(self._buf):
            if nbytes:
                self._buf[offset:end] = data
                first = offset >> PAGE_BITS
                last = (end - 1) >> PAGE_BITS
                if first == last:
                    self._written[first] = 1
                else:
                    self._written[first:last + 1] = \
                        b"\x01" * (last + 1 - first)
            return
        page_id = addr >> PAGE_BITS
        offset = addr & (PAGE_SIZE - 1)
        pos = 0
        while pos < nbytes:
            take = min(nbytes - pos, PAGE_SIZE - offset)
            buf, start = self._page(page_id)
            buf[start + offset:start + offset + take] = \
                data[pos:pos + take]
            pos += take
            page_id += 1
            offset = 0

    def read_uint(self, addr: int, nbytes: int) -> int:
        return int.from_bytes(self.read(addr, nbytes), "little")

    def write_uint(self, addr: int, value: int, nbytes: int) -> None:
        self.write(addr, (value & ((1 << (8 * nbytes)) - 1))
                   .to_bytes(nbytes, "little"))

    def digest(self) -> str:
        """SHA-256 over every allocation in address order: its base
        (8 bytes little-endian) then its bytes.  The one architectural
        digest job results, bisection and fault campaigns compare."""
        hasher = hashlib.sha256()
        for base in sorted(self.allocations):
            hasher.update(base.to_bytes(8, "little"))
            hasher.update(self.read(base, self.allocations[base]))
        return hasher.hexdigest()

    # -- snapshot (checkpoint Data2) ------------------------------------
    def snapshot(self) -> dict:
        """``{"pages": {page_id: bytes}, "next", "allocations"}`` — the
        written pages only; the format checkpoints and shard tasks
        carry."""
        return {
            "pages": dict(self.iter_pages()),
            "next": self._next,
            "allocations": dict(self._allocations),
        }

    def restore(self, state: dict) -> None:
        """Replace the whole store with a :meth:`snapshot` image."""
        pages = {int(pid): bytearray(data)
                 for pid, data in state["pages"].items()}
        for pid, page in pages.items():
            if len(page) != PAGE_SIZE:  # would shift the dense span
                raise SimulationFault(
                    f"snapshot page {pid:#x} holds {len(page)} bytes, "
                    f"not {PAGE_SIZE}")
        self._next = state["next"]
        self._allocations = {int(a): s
                             for a, s in state["allocations"].items()}
        self._bases = sorted(self._allocations)
        self._buf = bytearray()
        self._written = bytearray()
        self._overflow = pages
        self._grow(self._next)


class LinearMemory:
    """A fixed-size little arena (shared/local/param/const spaces)."""

    def __init__(self, size: int) -> None:
        self.data = bytearray(size)

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > len(self.data):
            raise SimulationFault(
                f"access [{addr}, {addr + nbytes}) outside arena of "
                f"{len(self.data)} bytes")

    def read(self, addr: int, nbytes: int) -> bytes:
        self._check(addr, nbytes)
        return bytes(self.data[addr:addr + nbytes])

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self.data[addr:addr + len(data)] = data

    def read_uint(self, addr: int, nbytes: int) -> int:
        self._check(addr, nbytes)
        return int.from_bytes(self.data[addr:addr + nbytes], "little")

    def write_uint(self, addr: int, value: int, nbytes: int) -> None:
        self._check(addr, nbytes)
        self.data[addr:addr + nbytes] = (
            (value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little"))


class CudaArray:
    """A 2D texture-backing array of float32 texels (point sampling).

    Channels beyond the first read as zero; LeNet's texture use in cuDNN
    is single-channel float data, which is all our kernels exercise.
    """

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.data = bytearray(4 * width * height)

    def upload(self, raw: bytes) -> None:
        if len(raw) != len(self.data):
            raise SimulationFault(
                f"cudaArray upload size {len(raw)} != {len(self.data)}")
        self.data[:] = raw

    def download(self) -> bytes:
        return bytes(self.data)

    def fetch(self, x: int, y: int) -> float:
        """Point-sample with clamp-to-edge addressing."""
        xi = min(self.width - 1, max(0, x))
        yi = min(self.height - 1, max(0, y))
        offset = 4 * (yi * self.width + xi)
        return struct.unpack_from("<f", self.data, offset)[0]
