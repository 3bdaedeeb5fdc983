"""Seeded-defect kernel corpus: ground truth for the sanitizer.

Each entry plants exactly one class of memory/synchronization defect
in an otherwise well-formed kernel and records where the sanitizer
must report it — ``(rule, defect instruction)``.  The CI gate runs
every defect through every execution tier (reference, fastpath,
superblock, megablock) and through a 2-shard service fan-out, and
requires the expected finding at the expected pc each time; the
``CLEAN`` entries must produce zero findings everywhere, pinning the
false-positive rate of the shipped checks to zero on known-good code.

The geometries are chosen so the *static* range proofs fail exactly at
the planted site (otherwise the dynamic check would be skipped and the
corpus would only test the prover): out-of-bounds entries launch more
threads than the allocation covers, the uninitialized entry leaves the
upper half of its input unwritten, and so on.  Every defect spans two
CTAs so a 2-shard run genuinely splits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.cuda.runtime import CudaRuntime, FunctionalBackend
from repro.ptx.builder import PTXBuilder
from repro.ptx.parser import parse_module

#: Lane/thread geometry shared by the corpus kernels.
_WARP = 32


# ----------------------------------------------------------------------
# Kernel builders
# ----------------------------------------------------------------------
def _copy_kernel(name: str, *, offset: int = 0) -> str:
    """``out[gtid] = in[gtid]`` (optionally with a byte offset)."""
    b = PTXBuilder(name, [("src", "u64"), ("dst", "u64")])
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    gtid = b.global_tid_x()
    value = b.load_global_f32(b.elem_addr(src, gtid), offset=offset)
    b.store_global_f32(b.elem_addr(dst, gtid), value)
    return b.build()


def _copy_v2_kernel(name: str, *, offset: int = 0) -> str:
    """``out[2*gtid .. 2*gtid+1] = in[...]`` as one ``v2`` load and one
    ``v2`` store per thread: each is a single 8-byte access."""
    b = PTXBuilder(name, [("src", "u64"), ("dst", "u64")])
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    gtid = b.global_tid_x()
    x, y = b.regs("f32", 2)
    b.ins("ld.global.v2.f32", f"{{{x}, {y}}}",
          f"[{b.elem_addr(src, gtid, elem_bytes=8)}+{offset}]")
    b.ins("st.global.v2.f32",
          f"[{b.elem_addr(dst, gtid, elem_bytes=8)}]", f"{{{x}, {y}}}")
    return b.build()


def _misaligned_v2() -> str:
    """Every element is 4-byte aligned; the 8-byte access is not."""
    return _copy_v2_kernel("misaligned_v2", offset=4)


def _oob_v2_straddle() -> str:
    """The last thread's load starts inside the allocation and ends
    4 bytes past it: out of bounds as an access, not per element."""
    return _copy_v2_kernel("oob_v2_straddle")


def _ww_race() -> str:
    """Every thread of the CTA stores to shared byte 0 — then a barrier
    and a read-back, so only the colliding store is wrong."""
    b = PTXBuilder("ww_race", [("dst", "u64")])
    b.shared("buf", "f32", _WARP)
    dst = b.ld_param("u64", "dst")
    tid = b.special("%tid.x")
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    value = b.reg("f32")
    b.ins("cvt.rn.f32.u32", value, tid)
    b.ins("st.shared.f32", f"[{base}]", value)  # all lanes, same bytes
    b.bar_sync()
    got = b.reg("f32")
    b.ins("ld.shared.f32", got, f"[{base}]")
    gtid = b.global_tid_x()
    b.store_global_f32(b.elem_addr(dst, gtid), got)
    return b.build()


def _rw_race() -> str:
    """``buf[tid] = x`` then ``buf[(tid+1) % 32]`` with no barrier —
    the classic missing-``__syncthreads`` neighbour read."""
    b = PTXBuilder("rw_race", [("src", "u64"), ("dst", "u64")])
    b.shared("buf", "f32", _WARP)
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    tid = b.special("%tid.x")
    gtid = b.global_tid_x()
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    value = b.load_global_f32(b.elem_addr(src, gtid))
    b.ins("st.shared.f32", f"[{b.elem_addr(base, tid)}]", value)
    partner = b.reg("u32")
    b.ins("add.u32", partner, tid, "1")
    b.ins("and.b32", partner, partner, str(_WARP - 1))
    got = b.reg("f32")
    b.ins("ld.shared.f32", got, f"[{b.elem_addr(base, partner)}]")
    b.store_global_f32(b.elem_addr(dst, gtid), got)
    return b.build()


def _divergent_barrier() -> str:
    """Half the warp branches around a ``bar.sync`` — synccheck's
    canonical "divergent thread(s) in warp" defect."""
    b = PTXBuilder("divergent_barrier", [("dst", "u64")])
    dst = b.ld_param("u64", "dst")
    tid = b.special("%tid.x")
    pred = b.reg("pred")
    b.ins("setp.lt.u32", pred, tid, str(_WARP // 2))
    skip = b.fresh_label("skip")
    b.ins(f"bra {skip}", pred=pred)
    b.bar_sync()  # only lanes 16..31 arrive
    b.place(skip)
    gtid = b.global_tid_x()
    one = b.imm_f32(1.0)
    b.store_global_f32(b.elem_addr(dst, gtid), one)
    return b.build()


def _clean_guarded() -> str:
    """Over-provisioned grid with a tid guard: bounds are dynamically
    fine but statically unprovable, so every check actually runs."""
    b = PTXBuilder("clean_guarded",
                   [("src", "u64"), ("dst", "u64"), ("n", "u32")])
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    n = b.ld_param("u32", "n")
    gtid = b.global_tid_x()
    b.guard_tid_below(gtid, n)
    value = b.load_global_f32(b.elem_addr(src, gtid))
    b.store_global_f32(b.elem_addr(dst, gtid), value)
    return b.build()


def _clean_guard_exit() -> str:
    """``if (gtid >= n) return;`` as a predicated ``exit`` (what nvcc
    emits, and what ``clean_guarded``'s branch-to-the-end is not): CTA 0
    is wholly in range, so its warp issues an exit no lane takes, and
    the barrier after it must expect only the threads still running."""
    b = PTXBuilder("clean_guard_exit",
                   [("src", "u64"), ("dst", "u64"), ("n", "u32")])
    b.shared("buf", "f32", _WARP)
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    n = b.ld_param("u32", "n")
    tid = b.special("%tid.x")
    gtid = b.global_tid_x()
    pred = b.reg("pred")
    b.ins("setp.ge.u32", pred, gtid, n)
    b.ins("exit", pred=pred)
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    value = b.load_global_f32(b.elem_addr(src, gtid))
    b.ins("st.shared.f32", f"[{b.elem_addr(base, tid)}]", value)
    b.bar_sync()
    got = b.reg("f32")
    b.ins("ld.shared.f32", got, f"[{b.elem_addr(base, tid)}]")
    b.store_global_f32(b.elem_addr(dst, gtid), got)
    return b.build()


def _clean_tile() -> str:
    """Barrier-separated neighbour exchange: the same access pattern as
    ``rw_race`` but correctly synchronized — must stay silent."""
    b = PTXBuilder("clean_tile", [("src", "u64"), ("dst", "u64")])
    b.shared("buf", "f32", _WARP)
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    tid = b.special("%tid.x")
    gtid = b.global_tid_x()
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    value = b.load_global_f32(b.elem_addr(src, gtid))
    b.ins("st.shared.f32", f"[{b.elem_addr(base, tid)}]", value)
    b.bar_sync()
    partner = b.reg("u32")
    b.ins("add.u32", partner, tid, "1")
    b.ins("and.b32", partner, partner, str(_WARP - 1))
    got = b.reg("f32")
    b.ins("ld.shared.f32", got, f"[{b.elem_addr(base, partner)}]")
    b.store_global_f32(b.elem_addr(dst, gtid), got)
    return b.build()


# ----------------------------------------------------------------------
# Launch setups (allocate, seed host data, return geometry + args)
# ----------------------------------------------------------------------
def _floats(count: int) -> np.ndarray:
    return np.arange(count, dtype=np.float32)


def _setup_oob_load(rt: CudaRuntime):
    src = rt.upload_f32(_floats(32))       # 32 floats for 64 threads
    dst = rt.malloc(64 * 4)
    return (2, 1, 1), (_WARP, 1, 1), [src, dst]


def _setup_oob_store(rt: CudaRuntime):
    src = rt.upload_f32(_floats(64))
    dst = rt.malloc(32 * 4)                # 32 floats for 64 threads
    return (2, 1, 1), (_WARP, 1, 1), [src, dst]


def _setup_uninit_read(rt: CudaRuntime):
    src = rt.malloc(32 * 4)
    rt.memcpy_h2d(src, _floats(16))        # lower half only
    dst = rt.malloc(32 * 4)
    return (2, 1, 1), (16, 1, 1), [src, dst]


def _setup_misaligned(rt: CudaRuntime):
    src = rt.upload_f32(_floats(33))       # +1 float: offset 2 stays
    dst = rt.malloc(32 * 4)                # in bounds for 32 threads
    return (2, 1, 1), (16, 1, 1), [src, dst]


def _setup_misaligned_v2(rt: CudaRuntime):
    src = rt.upload_f32(_floats(66))       # +2 floats: offset 4 stays
    dst = rt.malloc(64 * 4)                # in bounds for 32 threads
    return (2, 1, 1), (16, 1, 1), [src, dst]


def _setup_oob_v2_straddle(rt: CudaRuntime):
    src = rt.upload_f32(_floats(63))       # 63 floats for 32 float2s
    dst = rt.malloc(64 * 4)
    return (2, 1, 1), (16, 1, 1), [src, dst]


def _setup_ww_race(rt: CudaRuntime):
    dst = rt.malloc(64 * 4)
    return (2, 1, 1), (_WARP, 1, 1), [dst]


def _setup_rw_race(rt: CudaRuntime):
    src = rt.upload_f32(_floats(64))
    dst = rt.malloc(64 * 4)
    return (2, 1, 1), (_WARP, 1, 1), [src, dst]


def _setup_divergent_barrier(rt: CudaRuntime):
    dst = rt.malloc(64 * 4)
    return (2, 1, 1), (_WARP, 1, 1), [dst]


def _setup_clean_exact(rt: CudaRuntime):
    src = rt.upload_f32(_floats(64))
    dst = rt.malloc(64 * 4)
    return (2, 1, 1), (_WARP, 1, 1), [src, dst]


def _setup_clean_guarded(rt: CudaRuntime):
    n = 50                                 # grid covers 64 threads
    src = rt.upload_f32(_floats(n))
    dst = rt.malloc(n * 4)
    return (2, 1, 1), (_WARP, 1, 1), [src, dst, n]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusEntry:
    """One corpus kernel: source, launch recipe, expected finding."""

    name: str
    build: Callable[[], str]
    setup: Callable[[CudaRuntime], tuple]
    rule: str | None         # expected rule, None for clean entries
    site: tuple[str, str, int] | None  # (opcode, space, nth) of defect

    def expected_pc(self) -> int | None:
        """Body index of the planted defect instruction."""
        if self.site is None:
            return None
        kernel = parse_module(self.build(), self.name).kernel(self.name)
        opcode, space, nth = self.site
        seen = 0
        for inst in kernel.body:
            if inst.opcode == opcode and (space is None
                                          or inst.space == space):
                if seen == nth:
                    return inst.index
                seen += 1
        raise LookupError(
            f"corpus entry {self.name}: no {opcode}.{space} #{nth}")


DEFECTS: dict[str, CorpusEntry] = {
    entry.name: entry for entry in (
        CorpusEntry("oob_load", partial(_copy_kernel, "oob_load"),
                    _setup_oob_load,
                    "S601", ("ld", "global", 0)),
        CorpusEntry("oob_store", partial(_copy_kernel, "oob_store"),
                    _setup_oob_store,
                    "S601", ("st", "global", 0)),
        CorpusEntry("uninit_read", partial(_copy_kernel, "uninit_read"),
                    _setup_uninit_read,
                    "S602", ("ld", "global", 0)),
        CorpusEntry("misaligned",
                    partial(_copy_kernel, "misaligned", offset=2),
                    _setup_misaligned,
                    "S605", ("ld", "global", 0)),
        CorpusEntry("misaligned_v2", _misaligned_v2,
                    _setup_misaligned_v2, "S605", ("ld", "global", 0)),
        CorpusEntry("oob_v2_straddle", _oob_v2_straddle,
                    _setup_oob_v2_straddle, "S601", ("ld", "global", 0)),
        CorpusEntry("ww_race", _ww_race, _setup_ww_race,
                    "S603", ("st", "shared", 0)),
        CorpusEntry("rw_race", _rw_race, _setup_rw_race,
                    "S603", ("ld", "shared", 0)),
        CorpusEntry("divergent_barrier", _divergent_barrier,
                    _setup_divergent_barrier,
                    "S604", ("bar", None, 0)),
    )
}

CLEAN: dict[str, CorpusEntry] = {
    entry.name: entry for entry in (
        CorpusEntry("clean_exact", partial(_copy_kernel, "clean_exact"),
                    _setup_clean_exact, None, None),
        CorpusEntry("clean_guarded", _clean_guarded,
                    _setup_clean_guarded, None, None),
        CorpusEntry("clean_guard_exit", _clean_guard_exit,
                    _setup_clean_guarded, None, None),
        CorpusEntry("clean_tile", _clean_tile, _setup_clean_exact,
                    None, None),
    )
}

CORPUS: dict[str, CorpusEntry] = {**DEFECTS, **CLEAN}


@dataclass
class CorpusRun:
    """Result of one sanitized corpus launch."""

    entry: CorpusEntry
    findings: list[dict]
    expected_pc: int | None
    counters: dict

    @property
    def detected(self) -> bool:
        """Did the expected finding land at the expected pc?"""
        if self.entry.rule is None:
            return not self.findings
        return any(f["rule"] == self.entry.rule
                   and f["pc"] == self.expected_pc
                   and f["kernel"] == self.entry.name
                   for f in self.findings)


def run_entry(name: str, *, fast_mode: str = "superblock",
              shards: int = 0) -> CorpusRun:
    """Launch one corpus kernel under the sanitizer and collect findings.

    ``shards > 0`` routes the launch through the sharded service
    backend (shard-local shadow state, deterministic merge); otherwise
    the in-process backend runs the requested tier directly.
    """
    entry = CORPUS[name]
    if shards:
        from repro.service.pool import ShardedFunctionalBackend
        backend = ShardedFunctionalBackend(
            shards=shards, fast_mode=fast_mode, sanitize=True,
            inline_below=0)
    else:
        backend = FunctionalBackend(fast_mode=fast_mode, sanitize=True)
    rt = CudaRuntime(backend=backend)
    try:
        rt.load_ptx(entry.build(), f"sanitize_corpus_{name}")
        grid, block, args = entry.setup(rt)
        rt.launch(entry.name, grid, block, args)
        rt.synchronize()
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
    sanitizer = backend.sanitize
    return CorpusRun(entry=entry,
                     findings=sanitizer.findings_list(),
                     expected_pc=entry.expected_pc(),
                     counters=dict(sanitizer.counters))
