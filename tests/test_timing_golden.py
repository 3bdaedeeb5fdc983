"""Performance mode simulates what it simulated before.

``tools/timing_fingerprint.py`` digests every launch's ``KernelStats``
and interval series; its ``GOLDEN`` table was computed on the commit
before the issue loop became event-driven.  A timing-model change that
means to keep the simulated numbers must leave every digest equal (and
one that means to move them recomputes the table, saying so).

Also here: the launches the old loop got wrong or must still refuse.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cuda.runtime import FunctionalBackend
from repro.errors import TimingDeadlockError
from repro.ptx.builder import PTXBuilder, f32
from repro.timing import TINY, TimingBackend

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import timing_fingerprint  # noqa: E402

#: ``fig09-fft`` (the paper's DRAM case study, seconds) runs in CI's
#: perf-harness job instead.  ``blend32-tiny`` is the live-source case
#: (tests/test_timing_stream.py pins that it cannot record).
QUICK = sorted(set(timing_fingerprint.CASES) - {"fig09-fft"})


@pytest.mark.parametrize("case", QUICK)
def test_simulated_numbers_equal_the_golden_digest(case):
    cycles, digest, _launches = timing_fingerprint.fingerprint(case)
    assert (cycles, digest) == timing_fingerprint.GOLDEN[case]


def _exit_after_park() -> str:
    """Warp 1 works for a while and exits; warp 0 goes straight to the
    barrier and is parked there long before."""
    b = PTXBuilder("exit_after_park", [("out", "u64")])
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    late = b.reg("pred")
    b.ins("setp.ge.u32", late, tid, "32")
    acc = b.imm_f32(1.0)
    with b.if_then(late):
        for _ in range(8):
            b.ins("fma.rn.f32", acc, acc, f32(1.5), f32(0.25))
        b.exit()
    b.bar_sync()
    b.store_global_f32(b.elem_addr(out, tid), acc)
    return b.build()


def _run_exit_after_park(backend) -> np.ndarray:
    runtime = CudaRuntime(backend=backend)
    runtime.load_ptx(_exit_after_park(), "park.cu")
    out = runtime.upload_f32(np.zeros(64, np.float32))
    runtime.launch("exit_after_park", 1, 64, [out])
    runtime.synchronize()
    return runtime.download_f32(out, 64)


def test_a_warp_that_exits_releases_the_warps_parked_for_it():
    """Section III-D.2's class of bug: the barrier was re-evaluated only
    when a warp *issued* ``bar``, so a sibling that retired afterwards
    left the parked warps waiting for ever (TimingDeadlockError)."""
    timed = _run_exit_after_park(TimingBackend(TINY))
    for tier in ("megablock", "superblock", "reference"):
        expected = _run_exit_after_park(FunctionalBackend(fast_mode=tier))
        assert timed.tobytes() == expected.tobytes()
    assert (timed[:32] == 1.0).all() and not timed[32:].any()


def test_a_dropped_memory_response_still_deadlocks():
    """A warp whose response never comes never wakes, nothing else is
    in flight, and the loop must say so rather than spin or finish."""
    backend = TimingBackend(TINY, mem_fault_filter=lambda req:
                            not req.is_write)
    with pytest.raises(TimingDeadlockError, match="no progress"):
        timing_fingerprint.run_blend(CudaRuntime(backend=backend))
