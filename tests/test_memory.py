"""Memory-space tests: dense global memory, arenas, cudaArrays."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationFault
from repro.functional.memory import (
    GLOBAL_BASE, PAGE_SIZE, POISON_BYTE, UNINIT_READ_POLICIES, CudaArray,
    GlobalMemory, LinearMemory)

_FILL = {"zeros": 0, "poison": POISON_BYTE}


class TestGlobalMemory:
    def test_allocate_aligned(self):
        gm = GlobalMemory()
        a = gm.allocate(100)
        b = gm.allocate(10)
        assert a >= GLOBAL_BASE and a % 256 == 0
        assert b >= a + 100 and b % 256 == 0

    def test_allocate_zero_raises(self):
        with pytest.raises(SimulationFault):
            GlobalMemory().allocate(0)

    def test_rw_roundtrip_cross_page(self):
        gm = GlobalMemory()
        addr = gm.allocate(3 * PAGE_SIZE)
        data = bytes(range(256)) * 40
        start = addr + PAGE_SIZE - 100  # straddles two page boundaries
        gm.write(start, data)
        assert gm.read(start, len(data)) == data

    def test_uninitialized_reads_zero(self):
        gm = GlobalMemory()
        addr = gm.allocate(64)
        assert gm.read(addr, 64) == bytes(64)

    def test_uint_roundtrip(self):
        gm = GlobalMemory()
        addr = gm.allocate(16)
        gm.write_uint(addr, 0xDEADBEEFCAFEF00D, 8)
        assert gm.read_uint(addr, 8) == 0xDEADBEEFCAFEF00D
        assert gm.read_uint(addr, 4) == 0xCAFEF00D

    def test_allocation_containing(self):
        gm = GlobalMemory()
        addr = gm.allocate(100)
        assert gm.allocation_containing(addr) == (addr, 100)
        assert gm.allocation_containing(addr + 99) == (addr, 100)
        assert gm.allocation_containing(addr + 100) is None

    def test_allocation_containing_many_allocations(self):
        # The lookup bisects a sorted base list; probe hits in every
        # allocation, misses in the alignment gaps between them, and
        # misses past both ends.
        gm = GlobalMemory()
        sizes = [100, 1, 256, 300, 17]
        bases = [gm.allocate(size) for size in sizes]
        for base, size in zip(bases, sizes):
            assert gm.allocation_containing(base) == (base, size)
            assert gm.allocation_containing(base + size - 1) == (base, size)
            assert gm.allocation_containing(base + size // 2) == (base, size)
        for prev, nxt, size in zip(bases, bases[1:], sizes):
            if prev + size < nxt:  # alignment left a gap
                assert gm.allocation_containing(prev + size) is None
                assert gm.allocation_containing(nxt - 1) is None
        assert gm.allocation_containing(bases[0] - 1) is None
        assert gm.allocation_containing(bases[-1] + sizes[-1]) is None
        # Freeing a middle allocation leaves its neighbours findable.
        gm.free(bases[2])
        assert gm.allocation_containing(bases[2]) is None
        assert gm.allocation_containing(bases[1]) == (bases[1], sizes[1])
        assert gm.allocation_containing(bases[3]) == (bases[3], sizes[3])

    def test_free(self):
        gm = GlobalMemory()
        addr = gm.allocate(8)
        gm.free(addr)
        assert gm.allocation_containing(addr) is None
        with pytest.raises(SimulationFault):
            gm.free(addr)

    def test_snapshot_restore(self):
        gm = GlobalMemory()
        addr = gm.allocate(32)
        gm.write(addr, b"hello world, simulator!")
        snap = gm.snapshot()
        gm.write(addr, bytes(32))
        gm.restore(snap)
        assert gm.read(addr, 23) == b"hello world, simulator!"

    @pytest.mark.parametrize("policy", sorted(_FILL))
    def test_fill_policy_across_pages_and_the_span_end(self, policy):
        fill = bytes([_FILL[policy]])
        gm = GlobalMemory(uninit_read=policy)
        base = gm.allocate(2 * PAGE_SIZE)       # span: exactly two pages
        gm.write(base + PAGE_SIZE - 2, b"ab")   # page 0 written, 1 not
        assert gm.read(base + PAGE_SIZE - 2, 4) == b"ab" + fill * 2
        end = base + 2 * PAGE_SIZE
        assert gm.read(end - 2, 4) == fill * 4  # last page + overflow
        gm.write(end - 1, b"xy")                # straddles the span end
        assert gm.read(end - 2, 4) == fill + b"xy" + fill
        assert gm.read_uint(end - 1, 2) == int.from_bytes(b"xy", "little")

    def test_raise_policy_across_pages_and_the_span_end(self):
        gm = GlobalMemory(uninit_read="raise")
        base = gm.allocate(2 * PAGE_SIZE)
        gm.write(base + PAGE_SIZE - 2, b"ab")
        assert gm.read(base + PAGE_SIZE - 2, 2) == b"ab"
        with pytest.raises(SimulationFault, match="never-written"):
            gm.read(base + PAGE_SIZE - 2, 4)    # into unwritten page 1
        gm.write(base + 2 * PAGE_SIZE - 1, b"x")
        assert gm.read(base + PAGE_SIZE - 2, 4) == b"ab\x00\x00"
        with pytest.raises(SimulationFault, match="never-written"):
            gm.read(base + 2 * PAGE_SIZE - 1, 2)  # past the span end
        with pytest.raises(SimulationFault, match="never-written"):
            gm.read(GLOBAL_BASE - 8, 4)         # below the span

    def test_overflow_page_survives_the_span_growing_over_it(self):
        gm = GlobalMemory(uninit_read="poison")
        base = gm.allocate(16)
        far = base + 5 * PAGE_SIZE + 40
        gm.write(far, b"kept")                  # auto-paged, outside span
        assert gm.read(far, 4) == b"kept"
        gm.allocate(8 * PAGE_SIZE)              # span now covers it
        assert gm.read(far - 2, 8) == b"\xcd\xcdkept\xcd\xcd"
        buf, written = gm.dense()
        assert buf[far - GLOBAL_BASE:far - GLOBAL_BASE + 4] == b"kept"
        assert written[(far - GLOBAL_BASE) // PAGE_SIZE] == 1

    @pytest.mark.parametrize("policy", UNINIT_READ_POLICIES)
    def test_snapshot_restore_round_trip_per_policy(self, policy):
        gm = GlobalMemory(uninit_read=policy)
        base = gm.allocate(3 * PAGE_SIZE)
        gm.write(base + PAGE_SIZE + 7, b"middle")
        gm.write(base + 9 * PAGE_SIZE, b"outside")
        snap = gm.snapshot()
        assert sorted(snap) == ["allocations", "next", "pages"]
        assert sorted(snap["pages"]) == [
            (base + PAGE_SIZE) // PAGE_SIZE, (base + 9 * PAGE_SIZE) // PAGE_SIZE]
        assert all(len(page) == PAGE_SIZE and isinstance(page, bytes)
                   for page in snap["pages"].values())
        twin = GlobalMemory(uninit_read=policy)
        twin.restore(snap)
        assert twin.snapshot() == snap
        assert twin.read(base + PAGE_SIZE + 7, 6) == b"middle"
        assert twin.read(base + 9 * PAGE_SIZE, 7) == b"outside"
        assert twin.allocate(16) == gm.allocate(16)
        if policy == "raise":
            with pytest.raises(SimulationFault, match="never-written"):
                twin.read(base, 4)
        else:
            assert twin.read(base, 4) == bytes([_FILL[policy]]) * 4

    def test_restore_loads_a_page_dict_from_the_sparse_store(self):
        # The pre-dense store snapshotted read-materialised pages and
        # pages past the allocated span alike; both must still load.
        first = GLOBAL_BASE // PAGE_SIZE
        state = {"pages": {first: b"\x01" * PAGE_SIZE,
                           first + 1: bytes(PAGE_SIZE),
                           first + 7: b"\x07" * PAGE_SIZE},
                 "next": GLOBAL_BASE + PAGE_SIZE + 100,
                 "allocations": {GLOBAL_BASE: PAGE_SIZE + 100}}
        gm = GlobalMemory()
        gm.restore(state)
        assert gm.read(GLOBAL_BASE + PAGE_SIZE - 1, 2) == b"\x01\x00"
        assert gm.read(GLOBAL_BASE + 7 * PAGE_SIZE, 1) == b"\x07"
        assert gm.snapshot() == state
        assert gm.allocate(8) == GLOBAL_BASE + PAGE_SIZE + 256
        state["pages"][first + 1] = b"short"
        with pytest.raises(SimulationFault, match="snapshot page"):
            gm.restore(state)
        assert gm.read(GLOBAL_BASE, 1) == b"\x01"   # untouched

    @given(offset=st.integers(min_value=0, max_value=3 * PAGE_SIZE),
           payload=st.binary(min_size=1, max_size=600))
    @settings(max_examples=30, deadline=None)
    def test_rw_roundtrip_property(self, offset, payload):
        gm = GlobalMemory()
        base = gm.allocate(4 * PAGE_SIZE)
        gm.write(base + offset, payload)
        assert gm.read(base + offset, len(payload)) == payload


class TestLinearMemory:
    def test_bounds_checked(self):
        arena = LinearMemory(16)
        arena.write_uint(12, 7, 4)
        assert arena.read_uint(12, 4) == 7
        with pytest.raises(SimulationFault):
            arena.read(13, 4)
        with pytest.raises(SimulationFault):
            arena.write(-1, b"x")


class TestCudaArray:
    def test_fetch_and_clamp(self):
        array = CudaArray(4, 2)
        texels = np.arange(8, dtype=np.float32)
        array.upload(texels.tobytes())
        assert array.fetch(0, 0) == 0.0
        assert array.fetch(3, 1) == 7.0
        # clamp-to-edge addressing
        assert array.fetch(-5, 0) == 0.0
        assert array.fetch(99, 1) == 7.0
        assert array.fetch(2, 99) == 6.0

    def test_upload_size_mismatch(self):
        with pytest.raises(SimulationFault):
            CudaArray(2, 2).upload(b"123")

    def test_download(self):
        array = CudaArray(2, 1)
        array.upload(np.float32([1.5, -2.5]).tobytes())
        assert np.frombuffer(array.download(),
                             dtype=np.float32).tolist() == [1.5, -2.5]
