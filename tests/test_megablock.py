"""Megablock tier tests: vector-plan compilation and eligibility
(including the widened predicated-arithmetic/store subset), the
engine's fallback plumbing, bit-exactness against the scalar tiers
(memory, instruction counts, per-opcode mix, clock and registers),
faithful divergence handling (per-warp frame splitting, barrier
parking/release and the intra-warp bailout), overlapped chunk
execution, and the disk-backed compiled-kernel cache.

The scalar reference interpreter is the ground truth everywhere: the
megablock tier must be indistinguishable from it in architectural
state, or refuse to run (fall back / bail out) — never "mostly right".
"""

import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from repro.errors import SimulationFault
from repro.functional import kernelcache, megablock
from repro.functional.executor import (
    FAST_MODES, FunctionalEngine, RunStats)
from repro.functional.megablock import (
    EVENTS, MegaMachine, PLAN_FORMAT, compile_megaplan,
    plan_from_payload, reset_events)
from repro.functional.memory import (
    GLOBAL_BASE, PAGE_BITS, PAGE_SIZE, GlobalMemory, LinearMemory)
from repro.functional.state import CTAState, LaunchContext
from repro.analysis import ANALYSIS_VERSION
from repro.ptx.builder import PTXBuilder, f32
from repro.ptx.parser import parse_module
from repro.quirks import LegacyQuirks


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep every test hermetic: no reads/writes of the user cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    kernelcache.reset_counters()
    reset_events()


# ---------------------------------------------------------------------------
# Kernels under test
# ---------------------------------------------------------------------------
def _saxpy_ptx() -> str:
    """Straight-line body behind a tid guard (same shape as superblock's)."""
    b = PTXBuilder("sax", [("xs", "u64"), ("ys", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    ys = b.ld_param("u64", "ys")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    x = b.reg("f32")
    y = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("ld.global.f32", y, f"[{b.elem_addr(ys, tid)}]")
    b.ins("fma.rn.f32", y, x, f32(2.0), y)
    b.ins("st.global.f32", f"[{b.elem_addr(ys, tid)}]", y)
    return b.build()


def _divergent_ptx() -> str:
    """Within-warp if/else on tid parity: every warp diverges."""
    b = PTXBuilder("divk", [("xs", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    parity = b.reg("u32")
    b.ins("and.b32", parity, tid, "1")
    p = b.reg("pred")
    b.ins("setp.eq.u32", p, parity, "1")
    x = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    odd = b.fresh_label("odd")
    done = b.fresh_label("done")
    b.ins(f"bra {odd}", pred=p)
    b.ins("add.f32", x, x, f32(1.0))
    b.ins(f"bra {done}")
    b.place(odd)
    b.ins("mul.f32", x, x, f32(3.0))
    b.place(done)
    b.ins("st.global.f32", f"[{b.elem_addr(xs, tid)}]", x)
    return b.build()


def _gridloop_ptx() -> str:
    """Loop whose trip count depends on %ctaid: grid-divergent control
    flow that must stay vectorised (different CTAs exit on different
    iterations, no warp ever disagrees with itself)."""
    b = PTXBuilder("gloop", [("out", "u64")])
    out = b.ld_param("u64", "out")
    cta = b.special("%ctaid.x")
    trips = b.reg("u32")
    b.ins("add.u32", trips, cta, "2")
    acc = b.imm_u32(0)
    i = b.reg("u32")
    with b.for_range(i, 0, trips):
        b.ins("add.u32", acc, acc, i)
    tid = b.global_tid_x()
    b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", acc)
    return b.build()


def _divbar_ptx() -> str:
    """Genuinely divergent control flow around a barrier.

    With 64 threads per CTA the two warps take different sides of the
    branch, so each bar.sync is reached by a frame that does not cover
    the whole CTA: the megablock tier cannot prove containment and must
    bail out to the scalar engine mid-chunk.
    """
    b = PTXBuilder("divbar", [("out", "u64")])
    b.shared("buf", "u32", 64)
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    val = b.reg("u32")
    p = b.reg("pred")
    b.ins("setp.lt.u32", p, tid, "32")
    hi = b.fresh_label("hi")
    join = b.fresh_label("join")
    b.ins(f"bra {hi}", pred=p, pred_neg=True)
    b.ins("add.u32", val, tid, "1000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", val)
    b.bar_sync()
    b.ins(f"bra {join}")
    b.place(hi)
    b.ins("add.u32", val, tid, "2000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", val)
    b.bar_sync()
    b.place(join)
    mirror = b.reg("u32")
    b.ins("sub.u32", mirror, "63", tid)
    got = b.reg("u32")
    b.ins("ld.shared.u32", got, f"[{b.elem_addr(base, mirror)}]")
    gtid = b.global_tid_x()
    b.ins("st.global.u32", f"[{b.elem_addr(out, gtid)}]", got)
    return b.build()


def _loopbar_ptx() -> str:
    """A one-block loop that opens with a barrier and closes with a
    divergent back-edge: the second warp of a 64-thread CTA goes round
    once more than the first, so its second ``bar.sync`` is reached by a
    frame holding half the CTA.  A prefix barrier ahead of the loop is
    only ever reached by everyone."""
    b = PTXBuilder("loopbar", [("out", "u64")])
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    limit = b.reg("u32")
    b.ins("shr.u32", limit, tid, "5")
    b.ins("add.u32", limit, limit, "1")
    count = b.reg("u32")
    b.ins("mov.u32", count, "0")
    b.bar_sync()
    again = b.reg("pred")
    head = b.fresh_label("head")
    b.place(head)
    b.bar_sync()
    b.ins("add.u32", count, count, "1")
    b.ins("setp.lt.u32", again, count, limit)
    b.ins(f"bra {head}", pred=again)
    gtid = b.global_tid_x()
    b.ins("st.global.u32", f"[{b.elem_addr(out, gtid)}]", count)
    return b.build()


def _predicated_ptx() -> str:
    """A predicated add: vectorised as a mask-blend (compute all lanes,
    keep the old destination where the guard is false)."""
    b = PTXBuilder("pk", [("xs", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    p = b.reg("pred")
    b.ins("setp.lt.u32", p, tid, "7")
    x = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("add.f32", x, x, f32(1.0), pred=p)
    b.ins("st.global.f32", f"[{b.elem_addr(xs, tid)}]", x)
    return b.build()


def _predstore_ptx() -> str:
    """Predicated global store plus a complementary @p/@!p blend pair:
    only guarded lanes scatter to ys, the rest must keep ys intact."""
    b = PTXBuilder("psk", [("xs", "u64"), ("ys", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    ys = b.ld_param("u64", "ys")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    x = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    p = b.reg("pred")
    b.ins("setp.gt.f32", p, x, f32(0.5))
    t = b.reg("f32")
    b.ins("mul.f32", t, x, f32(2.0), pred=p)
    b.ins("add.f32", t, x, f32(1.0), pred=p, pred_neg=True)
    b.ins("st.global.f32", f"[{b.elem_addr(ys, tid)}]", t, pred=p)
    return b.build()


def _abs_ptx() -> str:
    """abs has no vector emitter: supported by every scalar tier but
    still outside the megablock subset (the fallback-path probe)."""
    b = PTXBuilder("absk", [("xs", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    x = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("abs.f32", x, x)
    b.ins("st.global.f32", f"[{b.elem_addr(xs, tid)}]", x)
    return b.build()


def _mixbar_ptx() -> str:
    """Intra-warp divergence around barriers: tid parity splits every
    warp in two, and each side holds its own bar.sync.  No faithful
    vector parking exists (the sides share warps and carry a finite
    reconvergence pc), so the megablock tier must still bail out."""
    b = PTXBuilder("mixbar", [("out", "u64")])
    b.shared("buf", "u32", 32)
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    par = b.reg("u32")
    b.ins("and.b32", par, tid, "1")
    p = b.reg("pred")
    b.ins("setp.eq.u32", p, par, "1")
    odd = b.fresh_label("odd")
    join = b.fresh_label("join")
    val = b.reg("u32")
    b.ins(f"bra {odd}", pred=p)
    b.ins("add.u32", val, tid, "1000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", val)
    b.bar_sync()
    b.ins(f"bra {join}")
    b.place(odd)
    b.ins("add.u32", val, tid, "2000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", val)
    b.bar_sync()
    b.place(join)
    mirror = b.reg("u32")
    b.ins("sub.u32", mirror, "31", tid)
    got = b.reg("u32")
    b.ins("ld.shared.u32", got, f"[{b.elem_addr(base, mirror)}]")
    gtid = b.global_tid_x()
    b.ins("st.global.u32", f"[{b.elem_addr(out, gtid)}]", got)
    return b.build()


def _parkbail_ptx() -> str:
    """Parks a frame, then bails: warp 0 takes a warp-uniform side and
    parks at its bar; warps 1-2 then split *within* each warp and reach
    a bar that cannot park.  The bailout must hand the parked frame to
    the scalar engine with ``at_barrier`` already set, or its bar would
    be issued (and counted) twice."""
    b = PTXBuilder("parkbail", [("out", "u64")])
    b.shared("buf", "u32", 96)
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    pw = b.reg("pred")
    b.ins("setp.lt.u32", pw, tid, "32")
    w0 = b.fresh_label("w0")
    odd = b.fresh_label("odd")
    merge = b.fresh_label("merge")
    join = b.fresh_label("join")
    val = b.reg("u32")
    b.ins(f"bra {w0}", pred=pw)
    # Warps 1-2: parity split inside each warp, bar on both sides.
    par = b.reg("u32")
    b.ins("and.b32", par, tid, "1")
    q = b.reg("pred")
    b.ins("setp.eq.u32", q, par, "1")
    b.ins(f"bra {odd}", pred=q)
    b.ins("add.u32", val, tid, "3000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", val)
    b.bar_sync()
    b.ins(f"bra {merge}")
    b.place(odd)
    b.ins("add.u32", val, tid, "4000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", val)
    b.bar_sync()
    b.place(merge)
    b.ins(f"bra {join}")
    # Warp 0: whole-warp side, parks at this bar.
    b.place(w0)
    b.ins("add.u32", val, tid, "1000")
    b.ins("st.shared.u32", f"[{b.elem_addr(base, tid)}]", val)
    b.bar_sync()
    b.place(join)
    mirror = b.reg("u32")
    b.ins("sub.u32", mirror, "95", tid)
    got = b.reg("u32")
    b.ins("ld.shared.u32", got, f"[{b.elem_addr(base, mirror)}]")
    gtid = b.global_tid_x()
    b.ins("st.global.u32", f"[{b.elem_addr(out, gtid)}]", got)
    return b.build()


def _build_launch(ptx: str, name: str, *, params=None, grid=(2, 1, 1),
                  block=(32, 1, 1), quirks=None,
                  n: int = 64) -> LaunchContext:
    module = parse_module(ptx, "mb")
    kernel = module.kernel(name)
    gm = GlobalMemory()
    if params is None:
        xs = gm.allocate(4 * n)
        ys = gm.allocate(4 * n)
        rng = np.random.default_rng(3)
        gm.write(xs, rng.random(n, dtype=np.float32).tobytes())
        gm.write(ys, rng.random(n, dtype=np.float32).tobytes())
        params = {"xs": xs, "ys": ys, "n": n, "out": xs}
    pm = LinearMemory(max(kernel.param_bytes, 16))
    for decl in kernel.params:
        pm.write_uint(decl.offset, params[decl.name], decl.dtype.bytes)
    kwargs = {} if quirks is None else {"quirks": quirks}
    return LaunchContext(kernel=kernel, grid_dim=grid, block_dim=block,
                         global_mem=gm, param_mem=pm, **kwargs)


def _memory_image(launch: LaunchContext) -> bytes:
    gm = launch.global_mem
    return b"".join(gm.read(base, size)
                    for base in sorted(gm.allocations)
                    for size in (gm.allocations[base],))


def _run_all_modes(ptx: str, name: str, **kwargs):
    results = {}
    for mode in FAST_MODES:
        launch = _build_launch(ptx, name, **kwargs)
        stats = FunctionalEngine(launch, fast_mode=mode).run()
        results[mode] = (_memory_image(launch), stats.instructions,
                         dict(stats.dynamic_per_opcode), launch.clock)
    return results


# ---------------------------------------------------------------------------
# Plan compilation and the disk payload
# ---------------------------------------------------------------------------
class TestPlan:
    def test_saxpy_plan_is_eligible_with_pruned_temps(self):
        kernel = parse_module(_saxpy_ptx(), "p").kernel("sax")
        plan = compile_megaplan(kernel)
        assert plan.eligible and not plan.reasons
        assert plan.blocks, "expected at least one vector block"
        assert any(plan.pruned.values()), \
            "dead address temporaries should be pruned from the flush"

    @pytest.mark.parametrize("ptx,name", [
        (_predicated_ptx(), "pk"),
        (_predstore_ptx(), "psk"),
    ])
    def test_predicated_arithmetic_and_stores_are_eligible(self, ptx,
                                                           name):
        kernel = parse_module(ptx, "p").kernel(name)
        plan = compile_megaplan(kernel)
        assert plan.eligible and not plan.reasons

    def test_unsupported_opcode_is_ineligible_with_reason(self):
        kernel = parse_module(_abs_ptx(), "p").kernel("absk")
        plan = compile_megaplan(kernel)
        assert not plan.eligible
        assert any("no vector emitter for abs" in reason
                   for reason in plan.reasons)

    def test_barrier_divergence_flag_reaches_the_plan(self):
        # saxpy has no divergent branch: its plan would skip the
        # runtime containment proof if it had a bar.  divbar does
        # diverge, so its bar controls must carry div=True.
        kernel = parse_module(_divbar_ptx(), "p").kernel("divbar")
        plan = compile_megaplan(kernel)
        bars = [c for c in plan.controls.values() if c["op"] == "bar"]
        assert bars and all(c["div"] for c in bars)
        clone = plan_from_payload(plan.to_payload())
        rebars = [c for c in clone.controls.values()
                  if c["op"] == "bar"]
        assert bars == rebars

    def test_barrier_divergence_is_per_barrier(self):
        """Only a bar some path reaches from a divergent branch keeps
        the runtime proof — including the bar of the branch's own block
        when the branch is a back-edge into it."""
        kernel = parse_module(_loopbar_ptx(), "p").kernel("loopbar")
        plan = compile_megaplan(kernel)
        div = [ctrl["div"] for _pc, ctrl in sorted(plan.controls.items())
               if ctrl["op"] == "bar"]
        assert div == [False, True]

    def test_payload_round_trip_reproduces_the_plan(self):
        kernel = parse_module(_saxpy_ptx(), "p").kernel("sax")
        plan = compile_megaplan(kernel)
        clone = plan_from_payload(plan.to_payload())
        assert clone.kernel_name == plan.kernel_name
        assert clone.body_len == plan.body_len
        assert clone.controls == plan.controls
        assert set(clone.blocks) == set(plan.blocks)
        for start, block in plan.blocks.items():
            other = clone.blocks[start]
            assert other.source == block.source
            assert other.pruned == block.pruned
            assert other.fn is not None

    def test_malformed_payload_raises(self):
        with pytest.raises(Exception):
            plan_from_payload({"nonsense": True})


# ---------------------------------------------------------------------------
# Engine wiring: tier selection and fallback
# ---------------------------------------------------------------------------
class TestEngineWiring:
    def test_eligible_kernel_gets_a_plan(self):
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission.tier == "megablock"
        assert engine.admission.why is None
        assert engine._megaplan is not None

    def test_ineligible_kernel_falls_back_to_superblock(self):
        launch = _build_launch(_abs_ptx(), "absk")
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.fast_mode == "megablock"
        assert engine.admission.tier == "superblock"
        assert engine.admission.why.startswith("no vector plan (")
        assert "abs" in engine.admission.why
        assert not engine._megaplan.eligible
        assert EVENTS["fallbacks"] == 1

    def test_fallback_still_produces_reference_results(self):
        results = _run_all_modes(_abs_ptx(), "absk")
        ref = results.pop("reference")
        for mode, got in results.items():
            assert got == ref, f"{mode} differs from reference"

    def test_predicated_kernel_stays_in_the_vector_tier(self):
        launch = _build_launch(_predstore_ptx(), "psk")
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission == ("megablock", None, None)
        assert engine.admission.recordable
        engine.run()
        assert EVENTS["fallbacks"] == 0
        assert EVENTS["bailouts"] == 0
        assert engine.megablock_bailouts == 0

    def test_contract_fp16_bypasses_megablock(self):
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch, fast_mode="megablock",
                                  contract_fp16=True)
        assert engine.admission[:2] == ("fastpath", "contract_fp16")

    def test_quirky_launch_forces_reference(self):
        quirks = LegacyQuirks(rem_ignores_type=True)
        launch = _build_launch(_saxpy_ptx(), "sax", quirks=quirks)
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission[:2] == ("reference", "quirks")

    def test_observer_hook_takes_the_scalar_path(self):
        # A per-instruction observer must see one record per issued
        # instruction even when a megablock plan exists.
        records = []
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch, fast_mode="megablock")
        engine.on_exec = records.append
        stats = engine.run()
        assert stats.instructions > 0
        assert len(records) == stats.instructions


# ---------------------------------------------------------------------------
# Differential: megablock vs the scalar tiers
# ---------------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("ptx,name,kwargs", [
        (_saxpy_ptx(), "sax", {}),
        (_divergent_ptx(), "divk", {}),
        (_gridloop_ptx(), "gloop", {"grid": (5, 1, 1)}),
        (_divbar_ptx(), "divbar", {"block": (64, 1, 1)}),
        (_loopbar_ptx(), "loopbar", {"block": (64, 1, 1)}),
        (_predicated_ptx(), "pk", {}),
        (_predstore_ptx(), "psk", {}),
        (_mixbar_ptx(), "mixbar", {}),
        (_parkbail_ptx(), "parkbail", {"block": (96, 1, 1), "n": 192}),
    ])
    def test_all_modes_agree(self, ptx, name, kwargs):
        results = _run_all_modes(ptx, name, **kwargs)
        mega = results.pop("megablock")
        for mode, got in results.items():
            assert got == mega, f"megablock differs from {mode}"

    def test_accesses_outside_the_span_auto_page_on_every_tier(self):
        # ys sits 1 MiB past the allocated span: its loads read fresh
        # pages and its stores must land, not vanish.
        images = {}
        for mode in FAST_MODES:
            launch = _build_launch(_saxpy_ptx(), "sax")
            gm = launch.global_mem
            ys = min(gm.allocations) + (1 << 20)
            launch.param_mem.write_uint(
                launch.kernel.params[1].offset, ys, 8)
            FunctionalEngine(launch, fast_mode=mode).run()
            images[mode] = (gm.read(ys, 4 * 64), dict(gm.iter_pages()))
        ref = images.pop("reference")
        assert any(ref[0])
        for mode, got in images.items():
            assert got == ref, f"{mode} differs from reference"

    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_raise_policy_faults_on_every_tier(self, mode):
        launch = _build_launch(_saxpy_ptx(), "sax")
        gm = GlobalMemory(uninit_read="raise")
        xs = gm.allocate(4 * 64)
        gm.write(xs, bytes(4 * 64))
        gm.allocate(8192)
        ys = gm.allocate(4 * 64)        # never written, on its own page
        launch.global_mem = gm
        for decl, value in zip(launch.kernel.params, (xs, ys)):
            launch.param_mem.write_uint(decl.offset, value, 8)
        with pytest.raises(SimulationFault, match="never-written"):
            FunctionalEngine(launch, fast_mode=mode).run()

    def test_machine_executes_on_the_store_itself(self):
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch, fast_mode="megablock")
        machine = MegaMachine(engine, engine._megaplan)
        machine._setup(0, 1)
        store = np.frombuffer(launch.global_mem.dense()[0], np.uint8)
        assert np.shares_memory(machine.gmem, store)
        machine._release_global()
        assert machine.gmem is None
        del store
        launch.global_mem.allocate(1 << 16)     # free to grow again

    def test_launch_does_not_copy_the_allocated_span(self):
        """A launch costs nothing per allocated byte: no mirror of the
        span is built or written back (it used to be copied three times
        per chunk)."""
        import tracemalloc
        from repro.cuda.runtime import CudaRuntime, FunctionalBackend
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode="megablock"))
        rt.load_ptx(_saxpy_ptx(), "sax")
        rt.malloc(32 << 20)                     # allocated, never touched
        xs = rt.upload_f32(np.ones(64, dtype=np.float32))
        ys = rt.upload_f32(np.ones(64, dtype=np.float32))
        tracemalloc.start()
        try:
            rt.launch("sax", (2, 1, 1), (32, 1, 1), [xs, ys, 64])
            rt.synchronize()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert EVENTS["fallbacks"] == 0
        assert peak < 8 << 20, f"launch allocated {peak >> 20} MiB"
        got = np.frombuffer(rt.memcpy_d2h(ys, 4 * 64), np.float32)
        assert (got == 3.0).all()

    def test_fault_mid_chunk_releases_the_store(self):
        """A fault escaping a chunk must not leave a view of global
        memory alive: the store could never grow again.  Stores issued
        before the fault persist, as on the scalar tiers."""
        from repro.cuda.runtime import CudaRuntime, FunctionalBackend
        b = PTXBuilder("smem_oob", [("out", "u64")])
        b.shared("buf", "u32", 32)
        out = b.ld_param("u64", "out")
        gtid = b.global_tid_x()
        b.ins("st.global.u32", f"[{b.elem_addr(out, gtid)}]", gtid)
        base = b.reg("u64")
        b.ins("mov.u64", base, "buf")
        b.ins("st.shared.u32", f"[{base}+4096]", gtid)
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode="megablock"))
        rt.load_ptx(b.build(), "smem_oob")
        rt.load_ptx(_saxpy_ptx(), "sax")
        out = rt.malloc(4 * 64)
        # ``info`` keeps the traceback (and its frames) alive below.
        with pytest.raises(SimulationFault, match="outside arena") as info:
            rt.launch("smem_oob", (2, 1, 1), (32, 1, 1), [out])
            rt.synchronize()
        assert EVENTS["fallbacks"] == 0
        got = np.frombuffer(rt.memcpy_d2h(out, 4 * 64), np.uint32)
        assert (got == np.arange(64)).all()
        xs = rt.upload_f32(np.ones(64 * 1024, dtype=np.float32))  # grows
        ys = rt.upload_f32(np.ones(64 * 1024, dtype=np.float32))
        rt.launch("sax", (2, 1, 1), (32, 1, 1), [xs, ys, 64])
        rt.synchronize()
        got = np.frombuffer(rt.memcpy_d2h(ys, 4 * 64), np.float32)
        assert (got == 3.0).all()
        assert info.traceback

    def test_partial_guard_agrees(self):
        # n=50 < 64 threads: the tid guard retires part of a warp.
        ptx = _saxpy_ptx()
        results = {}
        for mode in FAST_MODES:
            launch = _build_launch(ptx, "sax")
            launch.param_mem.write_uint(
                launch.kernel.params[2].offset, 50, 4)
            stats = FunctionalEngine(launch, fast_mode=mode).run()
            results[mode] = (_memory_image(launch), stats.instructions,
                             dict(stats.dynamic_per_opcode))
        ref = results.pop("reference")
        for mode, got in results.items():
            assert got == ref, f"{mode} differs from reference"

    @pytest.mark.parametrize("ptx,name,kwargs", [
        (_saxpy_ptx(), "sax", {}),
        (_divergent_ptx(), "divk", {}),
        (_gridloop_ptx(), "gloop", {"grid": (3, 1, 1)}),
        (_predicated_ptx(), "pk", {}),
        (_predstore_ptx(), "psk", {}),
    ])
    def test_registers_equal_reference(self, ptx, name, kwargs):
        # Reference per-lane register files, kept after the run.
        ref_launch = _build_launch(ptx, name, **kwargs)
        ref_engine = FunctionalEngine(ref_launch, fast_mode="reference")
        stats = RunStats()
        ref_regs: dict[int, dict] = {}
        for cta in ref_engine.iter_ctas():
            ref_engine.run_cta(cta, stats)
            for warp in cta.warps:
                for lane, linear in enumerate(warp.thread_linear):
                    if warp.tids[lane] is None:
                        continue
                    tid = cta.cta_linear * ref_launch.threads_per_block \
                        + linear
                    ref_regs[tid] = warp.regs[lane]

        # Megablock register arrays (single chunk: all CTAs at once).
        mega_launch = _build_launch(ptx, name, **kwargs)
        engine = FunctionalEngine(mega_launch, fast_mode="megablock")
        assert engine.admission.tier == "megablock"
        machine = MegaMachine(engine, engine._megaplan)
        machine.run(RunStats())

        pruned = set()
        for names in engine._megaplan.pruned.values():
            pruned.update(names)
        names = set().union(*(regs.keys() for regs in ref_regs.values()))
        names -= pruned
        assert names, "expected live registers to compare"
        for tid, regs in ref_regs.items():
            for name_ in sorted(names):
                want = regs.get(name_, 0)
                arr = machine.R.get(name_)
                got = int(arr[tid]) if arr is not None else 0
                assert got == want, \
                    f"reg {name_} thread {tid}: {got:#x} != {want:#x}"

    def test_divergent_bar_parks_and_matches(self):
        # divbar's warps disagree with each other but never with
        # themselves: the bar-straddling frames park and re-merge in
        # the vector tier instead of bailing to the scalar engine.
        launch = _build_launch(_divbar_ptx(), "divbar",
                               block=(64, 1, 1))
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission.tier == "megablock"
        machine = MegaMachine(engine, engine._megaplan)
        machine.run(RunStats())
        assert machine.bailouts == 0
        assert machine.parks >= 1
        assert machine.releases >= 1
        assert EVENTS["parked_barriers"] == machine.parks
        assert EVENTS["released_barriers"] == machine.releases

        ref = _build_launch(_divbar_ptx(), "divbar", block=(64, 1, 1))
        FunctionalEngine(ref, fast_mode="reference").run()
        assert _memory_image(launch) == _memory_image(ref)
        out = sorted(launch.global_mem.allocations)[0]
        got = np.frombuffer(launch.global_mem.read(out, 4 * 64),
                            dtype=np.uint32)
        # Thread t reads shared[63-t]: the mirror lane's branch value.
        want = np.array([(63 - t) + (2000 if 63 - t >= 32 else 1000)
                         for t in range(64)], dtype=np.uint32)
        assert (got == want).all()

    def test_intrawarp_bar_still_bails_out_and_matches(self):
        # Parity divergence inside every warp reaches a bar: no
        # faithful parking exists, so the chunk must finish on the
        # scalar engine — with instruction totals still bit-identical
        # across the bailout boundary (the bar is charged exactly once).
        launch = _build_launch(_mixbar_ptx(), "mixbar")
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission.tier == "megablock"
        stats = engine.run()
        assert engine.megablock_bailouts == 1

        ref = _build_launch(_mixbar_ptx(), "mixbar")
        ref_stats = FunctionalEngine(ref, fast_mode="reference").run()
        assert _memory_image(launch) == _memory_image(ref)
        assert stats.instructions == ref_stats.instructions
        assert dict(stats.dynamic_per_opcode) == \
            dict(ref_stats.dynamic_per_opcode)
        assert launch.clock == ref.clock

    def test_bailout_frees_its_ctas_without_gc(self, monkeypatch):
        # The scalar continuation builds its own CTAStates; like
        # run_range it must break their warps <-> cta cycle on retire.
        born = []

        def tracking(launch, cta_linear):
            cta = CTAState(launch, cta_linear)
            born.append(weakref.ref(cta))
            return cta

        monkeypatch.setattr(megablock, "CTAState", tracking)
        launch = _build_launch(_mixbar_ptx(), "mixbar")
        engine = FunctionalEngine(launch, fast_mode="megablock")
        gc.collect()
        gc.disable()
        try:
            engine.run()
            alive = [ref() for ref in born]
        finally:
            gc.enable()
        assert engine.megablock_bailouts == 1
        assert born and not any(alive)

    def test_bailout_with_parked_frame_stays_bit_identical(self):
        # The bar-recount regression: warp 0 parks (its bar already
        # counted by the vector clock), then warps 1-2 bail at an
        # intra-warp bar.  The handed-off scalar state must carry the
        # parked warp as at_barrier, or run_cta would issue — and
        # count — warp 0's bar a second time.
        launch = _build_launch(_parkbail_ptx(), "parkbail",
                               block=(96, 1, 1), n=192)
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission.tier == "megablock"
        machine = MegaMachine(engine, engine._megaplan)
        run_stats = RunStats()
        machine.run(run_stats)
        assert machine.parks == 1
        assert machine.bailouts == 1

        ref = _build_launch(_parkbail_ptx(), "parkbail",
                            block=(96, 1, 1), n=192)
        ref_stats = FunctionalEngine(ref, fast_mode="reference").run()
        assert _memory_image(launch) == _memory_image(ref)
        assert run_stats.instructions == ref_stats.instructions
        assert dict(run_stats.dynamic_per_opcode) == \
            dict(ref_stats.dynamic_per_opcode)
        assert launch.clock == ref.clock

    @pytest.mark.parametrize("ptx,kernel,kwargs", [
        (_saxpy_ptx, "sax", dict(grid=(8, 1, 1), n=256)),
        (_divbar_ptx, "divbar",
         dict(grid=(4, 1, 1), block=(64, 1, 1), n=256)),
    ], ids=["sax", "divbar"])
    def test_multi_chunk_grid_matches_reference(
            self, monkeypatch, ptx, kernel, kwargs):
        # Shrink chunks so the grid spans four of them: the chunks run
        # one after another against the live memory mirror and must add
        # up to exactly the scalar reference, barriers included.
        from repro.functional import megablock
        monkeypatch.setattr(megablock, "CHUNK_THREADS", 64)
        launch = _build_launch(ptx(), kernel, **kwargs)
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission.tier == "megablock"
        stats = engine.run()
        assert stats.ctas_launched == kwargs["grid"][0]

        ref = _build_launch(ptx(), kernel, **kwargs)
        ref_stats = FunctionalEngine(ref, fast_mode="reference").run()
        assert _memory_image(launch) == _memory_image(ref)
        assert stats.instructions == ref_stats.instructions
        assert dict(stats.dynamic_per_opcode) == \
            dict(ref_stats.dynamic_per_opcode)
        assert launch.clock == ref.clock


# ---------------------------------------------------------------------------
# Special-register columns (built per chunk, only when read)
# ---------------------------------------------------------------------------
_SPECIALS = [f"%{kind}.{axis}" for kind in ("tid", "ntid", "ctaid", "nctaid")
             for axis in "xyz"] + ["%laneid", "%warpid"]


def _spy_chunks(monkeypatch, after):
    """Run ``after(machine)`` at the end of every megablock chunk."""
    interpret = MegaMachine._interpret

    def spy(machine, stats):
        delta = interpret(machine, stats)
        after(machine)
        return delta

    monkeypatch.setattr(MegaMachine, "_interpret", spy)


class TestSpecialColumns:
    def test_every_column_matches_the_warp_table(self, monkeypatch):
        # 3-D grid x 3-D block, 24 threads a block (a partial warp),
        # chunked four CTAs at a time: two chunks.
        monkeypatch.setattr(megablock, "CHUNK_THREADS", 4 * 24)
        launch = _build_launch(_saxpy_ptx(), "sax", grid=(2, 2, 2),
                               block=(4, 2, 3))
        chunks = []
        _spy_chunks(monkeypatch, lambda machine: chunks.append(
            (machine.cta_start, machine.ctaidx, machine.lin_in_block,
             {name: machine.sp(name) for name in _SPECIALS})))
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission.tier == "megablock"
        engine.run()
        assert [chunk[0] for chunk in chunks] == [0, 4]
        for cta_start, ctaidx, lin_in_block, columns in chunks:
            for name, column in columns.items():
                assert column.dtype == np.uint32
                expected = []
                for cta, lin in zip(ctaidx, lin_in_block):
                    warp = CTAState(launch, cta_start + int(cta)) \
                        .warps[lin // 32]
                    expected.append(warp.special[name][lin % 32])
                assert column.tolist() == expected, name

    def test_a_kernel_builds_only_the_columns_it_reads(self, monkeypatch):
        monkeypatch.setattr(megablock, "CHUNK_THREADS", 64)
        launch = _build_launch(_saxpy_ptx(), "sax", grid=(4, 1, 1))
        built = []
        _spy_chunks(monkeypatch,
                    lambda machine: built.append(set(machine.specials)))
        FunctionalEngine(launch, fast_mode="megablock").run()
        assert built == [{"%tid.x", "%ctaid.x", "%ntid.x"}] * 2


# ---------------------------------------------------------------------------
# The committed workloads (fault-campaign scale)
# ---------------------------------------------------------------------------
class TestCampaignWorkloads:
    @pytest.mark.parametrize("workload", ["lenet", "conv_sample"])
    def test_digest_and_counts_match_reference(self, workload):
        from repro.cuda import CudaRuntime, FunctionalBackend
        from repro.cudnn import Cudnn, build_application_binary
        from repro.harness.faultcampaign import WORKLOADS
        binary = build_application_binary()
        seen = {}
        for mode in ("reference", "megablock"):
            reset_events()
            rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
            rt.load_binary(binary)
            WORKLOADS[workload]()(Cudnn(rt))
            rt.synchronize()
            insts = sum(p.result.instructions for p in rt.profiles)
            seen[mode] = (insts, rt.global_mem.digest())
        assert seen["megablock"] == seen["reference"]
        # Every kernel of the workload holds the vector tier.
        assert EVENTS["fallbacks"] == EVENTS["bailouts"] == 0, dict(EVENTS)

    def test_lenet_forward_holds_the_vector_tier(self, monkeypatch):
        """The full-size LeNet forward (two images) runs every kernel
        on megablock: nothing falls back or bails out.  Every block
        call with ``full`` set has a mask of every thread (a full frame
        passes ``VM.ld``/``VM.st`` no mask at all)."""
        from repro.cuda import CudaRuntime, FunctionalBackend
        from repro.cudnn import Cudnn, build_application_binary
        from repro.nn import synthetic_mnist
        from repro.nn.lenet import LeNet, LeNetConfig
        calls = {True: 0, False: 0}

        def checked(fn):
            def block(VM, R, m, full):
                assert m.all() or not full
                calls[full] += 1
                return fn(VM, R, m, full)
            return block
        init = MegaMachine.__init__

        def patched(self, engine, plan):
            blocks = {pc: megablock._VecBlock(
                b.start, b.end, b.opcode_counts, b.source, b.pruned,
                checked(b.fn)) for pc, b in plan.blocks.items()}
            init(self, engine, megablock.MegaPlan(
                plan.kernel_name, plan.body_len, plan.eligible,
                plan.reasons, blocks, plan.controls))
        monkeypatch.setattr(MegaMachine, "__init__", patched)
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode="megablock"))
        rt.load_binary(build_application_binary())
        model = LeNet(Cudnn(rt), LeNetConfig())
        images, _ = synthetic_mnist(2, model.config.input_hw, seed=7)
        model.forward(images)
        rt.synchronize()
        assert len(rt.profiles) > 10
        assert EVENTS["fallbacks"] == EVENTS["bailouts"] == 0, dict(EVENTS)
        assert calls[True] > 0 and calls[False] > 0, calls


# ---------------------------------------------------------------------------
# The memory path: one bounds test and one gather per access
# ---------------------------------------------------------------------------
#: name -> (type, vector width, bytes off the natural alignment).
_ACCESS_FORMS = {"u32": ("u32", 1, 0), "u64": ("u64", 1, 0),
                 "v2.u32": ("u32", 2, 0), "v4.u32": ("u32", 4, 0),
                 "v2.u64": ("u64", 2, 0), "u16+1": ("u16", 1, 1),
                 "v2.u16+1": ("u16", 2, 1)}
_ACCESS_BLOCK = 64


def _access_step(form: str) -> int:
    """Bytes each thread owns in every buffer of :func:`_access_ptx`."""
    dtype, width, skew = _ACCESS_FORMS[form]
    return int(dtype[1:]) // 8 * width * (2 if skew else 1)


def _access_ptx(space: str, form: str, frame: str) -> str:
    """Each thread copies its slot of ``xs`` to ``ys`` through *form*
    accesses of *space* run by a *frame*: ``full`` (every lane,
    unguarded), ``predicated`` (guarded off on some lanes of every warp)
    or ``diverged`` (those lanes branch around the access).  Through
    shared memory a thread stores its slot and loads it back, or its
    neighbour's past a barrier (a barrier right after a branch is met
    by the lanes that skipped ahead: the machine would bail out)."""
    dtype, width, skew = _ACCESS_FORMS[form]
    step = _access_step(form)
    b = PTXBuilder("acc", [("xs", "u64"), ("ys", "u64")])
    if space == "shared":
        b.shared("tile", "b8", _ACCESS_BLOCK * step, align=16)
    xs, ys = b.ld_param("u64", "xs"), b.ld_param("u64", "ys")
    tid, gtid = b.special("%tid.x"), b.global_tid_x()
    low, p = b.reg("u32"), b.reg("pred")
    b.ins("and.b32", low, tid, "5")
    b.ins("setp.ne.u32", p, low, "0")
    vec = f".v{width}" if width > 1 else ""

    def regs() -> str:
        names = b.regs(dtype, width)
        return names[0] if width == 1 else "{" + ", ".join(names) + "}"

    def slot(base: str, index: str) -> str:
        addr = b.elem_addr(base, index, step)
        return f"[{addr}+{skew}]" if skew else f"[{addr}]"

    def access(op: str, *operands: str, framed: bool = True) -> None:
        if framed and frame == "diverged":
            with b.if_then(p):
                b.ins(op, *operands)
            return
        guard = p if framed and frame == "predicated" else None
        b.ins(op, *operands, pred=guard)

    data = regs()
    if space == "global":
        access(f"ld.global{vec}.{dtype}", data, slot(xs, gtid))
        access(f"st.global{vec}.{dtype}", slot(ys, gtid), data)
        return b.build()
    b.ins(f"ld.global{vec}.{dtype}", data, slot(xs, gtid))
    tile, other = b.reg("u64"), tid
    b.ins("mov.u64", tile, "tile")
    access(f"st.shared{vec}.{dtype}", slot(tile, tid), data)
    if frame != "diverged":
        other = b.reg("u32")
        b.ins("xor.b32", other, tid, "1")
        b.bar_sync()
    got = regs()
    access(f"ld.shared{vec}.{dtype}", got, slot(tile, other))
    b.ins(f"st.global{vec}.{dtype}", slot(ys, gtid), got)
    return b.build()


def _run_access(ptx: str, mode: str, step: int, *, raise_uninit=False,
                shadow=False, at_end=None):
    """Run ``acc`` on 2 CTAs of :data:`_ACCESS_BLOCK` threads; *at_end*
    moves buffers (by name) to that many bytes past the end of the
    allocated span.  Return (ys bytes, written pages, shadow init map)."""
    from repro.sanitize.shadow import attach_shadow
    threads = 2 * _ACCESS_BLOCK
    launch = _build_launch(ptx, "acc", params={"xs": 0, "ys": 0},
                           block=(_ACCESS_BLOCK, 1, 1))
    gm = GlobalMemory(uninit_read="raise" if raise_uninit else "zeros")
    if shadow:
        attach_shadow(gm)
    xs = gm.allocate(threads * step + 16)
    rng = np.random.default_rng(5)
    gm.write(xs, rng.integers(0, 256, threads * step + 16,
                              dtype=np.uint8).tobytes())
    gm.allocate(8192)                   # ys on pages of its own
    ys = gm.allocate(threads * step + 16)
    if not raise_uninit:
        gm.write(ys, bytes(threads * step + 16))
    moved = {name: GLOBAL_BASE + len(gm.dense()[0]) + offset
             for name, offset in (at_end or {}).items()}
    xs, ys = moved.get("xs", xs), moved.get("ys", ys)
    if "xs" in moved:   # straddles the span's end: auto-paged past it
        gm.write(xs, rng.integers(1, 256, threads * step,
                                  dtype=np.uint8).tobytes())
    launch.global_mem = gm
    for decl, value in zip(launch.kernel.params, (xs, ys)):
        launch.param_mem.write_uint(decl.offset, value, 8)
    FunctionalEngine(launch, fast_mode=mode).run()
    marks = None if gm.shadow is None else bytes(gm.shadow.dense())
    return (gm.read(ys, threads * step + 16), dict(gm.iter_pages()),
            marks)


def _spy_lanes(monkeypatch) -> list:
    """Record, per ``VM.ld``/``VM.st`` call with a column address,
    whether its lanes argument was ``None``."""
    seen = []
    for name, at in (("ld", 3), ("st", 3)):
        real = getattr(MegaMachine, name)

        def spy(self, *args, _real=real, _at=at):
            if isinstance(args[2], np.ndarray):
                seen.append(args[_at] is None)
            return _real(self, *args)
        monkeypatch.setattr(MegaMachine, name, spy)
    return seen


class TestMemoryPath:
    @pytest.mark.parametrize("frame", ["full", "predicated", "diverged"])
    @pytest.mark.parametrize("form", list(_ACCESS_FORMS))
    @pytest.mark.parametrize("space", ["global", "shared"])
    def test_every_frame_and_form_matches_the_reference(
            self, space, form, frame, monkeypatch):
        ptx, step = _access_ptx(space, form, frame), _access_step(form)
        want = _run_access(ptx, "reference", step)[:2]
        lanes = _spy_lanes(monkeypatch)
        got = _run_access(ptx, "megablock", step)[:2]
        assert got == want
        assert any(got[0])
        assert EVENTS["fallbacks"] == EVENTS["bailouts"] == 0
        # A full frame passes no mask; a guard or a branch does.
        assert all(lanes) if frame == "full" else not all(lanes)

    @pytest.mark.parametrize("opcode", ["ld", "st"])
    @pytest.mark.parametrize("vector", [False, True])
    def test_shared_past_the_window_faults_at_the_first_lane(
            self, opcode, vector):
        """Thread 63's word, or the second element of its ``.v2`` (whose
        first is the window's last word), lies past a 256-byte window:
        every tier names that lane's element."""
        b = PTXBuilder("acc", [("xs", "u64"), ("ys", "u64")])
        b.shared("tile", "u32", _ACCESS_BLOCK)
        tid, tile = b.special("%tid.x"), b.reg("u64")
        b.ins("mov.u64", tile, "tile")
        addr = b.elem_addr(tile, tid, 4)
        data = b.regs("u32", 2)
        data = "{" + ", ".join(data) + "}" if vector else data[0]
        mem = f"[{addr}]" if vector else f"[{addr}+4]"
        op = f"{opcode}.shared{'.v2' if vector else ''}.u32"
        b.ins(op, *((data, mem) if opcode == "ld" else (mem, data)))
        ptx = b.build()
        for mode in ("reference", "megablock"):
            with pytest.raises(SimulationFault) as info:
                _run_access(ptx, mode, 8)
            assert str(info.value) == \
                "access [256, 260) outside arena of 256 bytes", mode

    def test_full_frame_under_the_raise_policy(self):
        """Every global load of a full frame takes the per-lane path
        under ``uninit_read="raise"``: written data reads back as on the
        reference, a never-written page faults."""
        ptx = _access_ptx("global", "v2.u32", "full")
        want = _run_access(ptx, "reference", 8, raise_uninit=True)[:2]
        assert _run_access(ptx, "megablock", 8, raise_uninit=True)[:2] \
            == want
        load = _access_ptx("global", "u32", "full").replace(
            "[xs]", "[ys]", 1)
        for mode in ("reference", "megablock"):
            with pytest.raises(SimulationFault, match="never-written"):
                _run_access(load, mode, 4, raise_uninit=True)

    @pytest.mark.parametrize("at_end", [
        {"ys": -100}, {"xs": -100, "ys": 4096}])
    @pytest.mark.parametrize("frame", ["full", "predicated"])
    def test_lanes_past_the_span_auto_page(self, frame, at_end):
        """A buffer starts 100 bytes before the span ends: thread 12's
        ``.v2`` straddles the end and later threads lie past it, so
        their elements auto-page, lane by lane, as on the reference."""
        ptx = _access_ptx("global", "v2.u32", frame)
        runs = [_run_access(ptx, mode, 8, at_end=at_end)
                for mode in ("reference", "megablock")]
        assert runs[1][:2] == runs[0][:2]
        assert any(runs[0][0][100:])            # past the span

    @pytest.mark.parametrize("frame", ["full", "predicated"])
    @pytest.mark.parametrize("form", ["v2.u32", "v4.u32", "u16+1"])
    def test_stores_leave_the_reference_init_marks(self, form, frame):
        ptx, step = _access_ptx("global", form, frame), _access_step(form)
        runs = [_run_access(ptx, mode, step, shadow=True)
                for mode in ("reference", "megablock")]
        assert runs[1][:3] == runs[0][:3]
        assert runs[0][2].count(1) > 0

    def test_a_vector_store_across_a_page_flags_both_pages(self):
        """Only the last thread's ``.v2`` reaches page 1 (by its second
        element): the page is written on every tier."""
        ptx = _access_ptx("global", "v2.u32", "full")
        runs = [_run_access(ptx, mode, 8, shadow=True,
                            at_end={"ys": -2 * PAGE_SIZE - 8 * 128 + 4})
                for mode in ("reference", "megablock")]
        assert runs[1][:3] == runs[0][:3]
        assert (GLOBAL_BASE >> PAGE_BITS) + 1 in runs[0][1]


# ---------------------------------------------------------------------------
# Disk cache: correctness before speed
# ---------------------------------------------------------------------------
_CACHE_SCRIPT = r"""
import json, sys
import numpy as np
import repro.cuda
from repro.functional import kernelcache
from repro.functional.executor import FunctionalEngine
from repro.functional.memory import (
    GLOBAL_BASE, PAGE_BITS, PAGE_SIZE, GlobalMemory, LinearMemory)
from repro.functional.state import LaunchContext
from repro.ptx.builder import PTXBuilder, f32
from repro.ptx.parser import parse_module

b = PTXBuilder("sax", [("xs", "u64"), ("ys", "u64"), ("n", "u32")])
xs = b.ld_param("u64", "xs"); ys = b.ld_param("u64", "ys")
n = b.ld_param("u32", "n")
tid = b.global_tid_x(); b.guard_tid_below(tid, n)
x = b.reg("f32"); y = b.reg("f32")
b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
b.ins("ld.global.f32", y, f"[{b.elem_addr(ys, tid)}]")
b.ins("fma.rn.f32", y, x, f32(2.0), y)
b.ins("st.global.f32", f"[{b.elem_addr(ys, tid)}]", y)
module = parse_module(b.build(), "mb")
kernel = module.kernel("sax")
count = 64
gm = GlobalMemory()
xs_a = gm.allocate(4 * count); ys_a = gm.allocate(4 * count)
rng = np.random.default_rng(3)
gm.write(xs_a, rng.random(count, dtype=np.float32).tobytes())
gm.write(ys_a, rng.random(count, dtype=np.float32).tobytes())
pm = LinearMemory(max(kernel.param_bytes, 16))
for decl, value in zip(kernel.params, [xs_a, ys_a, count]):
    pm.write_uint(decl.offset, value, decl.dtype.bytes)
launch = LaunchContext(kernel=kernel, grid_dim=(2, 1, 1),
                       block_dim=(32, 1, 1), global_mem=gm, param_mem=pm)
engine = FunctionalEngine(launch, fast_mode="megablock")
stats = engine.run()
print(json.dumps({
    "counters": kernelcache.counters(),
    "tier": engine.admission.tier,
    "instructions": stats.instructions,
    "ys": gm.read(ys_a, 4 * count).hex(),
    "modules": sorted(sys.modules),
    "derived": sorted(kernel.derived),
}))
"""


#: conv_sample's Winograd Nonfused forward: four kernels, digest and
#: megablock fallback/bailout census.
_CONV_CACHE_SCRIPT = r"""
import json
from repro.cuda import CudaRuntime, FunctionalBackend
from repro.cudnn import ConvFwdAlgo
from repro.functional import kernelcache, megablock
from repro.workloads.conv_sample import ConvSample

rt = CudaRuntime(backend=FunctionalBackend(fast_mode="megablock"))
profiles = ConvSample(rt).run_forward(ConvFwdAlgo.WINOGRAD_NONFUSED)
print(json.dumps({
    "counters": kernelcache.counters(),
    "instructions": sum(p.result.instructions for p in profiles),
    "digest": rt.global_mem.digest(),
    "events": dict(megablock.EVENTS),
}))
"""


def _run_cache_process(cache_dir, script=_CACHE_SCRIPT) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src")
    env.pop("REPRO_CACHE_DISABLE", None)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


class TestKernelCache:
    def test_fingerprint_covers_operands_and_guards(self):
        """Same name, params and opcode sequence, different immediate or
        guard: a different kernel, never the other's cached plan."""
        base = _saxpy_ptx()
        line = next(line for line in base.splitlines()
                    if "mad.wide.s32" in line)
        variants = [base, base.replace(line, line.replace(", 4,", ", 8,")),
                    base.replace(line, line.replace("mad.", "@%p0 mad."))]
        assert len(set(variants)) == 3
        prints = {kernelcache.kernel_fingerprint(
            parse_module(ptx, "p").kernel("sax")) for ptx in variants}
        assert len(prints) == 3

    def test_a_fresh_process_pays_only_for_what_its_launch_runs(
            self, tmp_path):
        """The cold path of a launch that stays vector: the simulator's
        package imports no graph library and none of the lint stack, and
        the scalar tier's fused blocks (a bailout's continuation) are
        never compiled."""
        cold = _run_cache_process(tmp_path / "xproc")
        assert cold["tier"] == "megablock"
        assert "networkx" not in cold["modules"]
        for module in ("lints", "ranges", "verifier"):
            assert f"repro.analysis.{module}" not in cold["modules"]
        assert not [key for key in cold["derived"]
                    if "compile_superblocks" in key]
        assert any("_megaplan" in key for key in cold["derived"])

    def test_second_process_hits_the_disk_cache(self, tmp_path):
        cache_dir = tmp_path / "xproc"
        cold = _run_cache_process(cache_dir)
        assert cold["counters"]["misses"] == 1
        assert cold["counters"]["stores"] == 1
        assert cold["counters"]["hits"] == 0
        warm = _run_cache_process(cache_dir)
        assert warm["counters"]["hits"] == 1
        assert warm["counters"]["misses"] == 0
        assert warm["tier"] == "megablock"
        assert warm["instructions"] == cold["instructions"]
        assert warm["ys"] == cold["ys"]

    def test_conv_sample_holds_the_vector_tier_cold_and_warm(
            self, tmp_path):
        """A multi-kernel cuDNN convolution: the warm process loads every
        plan the cold one stored, both keep every kernel on megablock,
        and both compute the same bytes."""
        cache_dir = tmp_path / "xproc"
        cold = _run_cache_process(cache_dir, _CONV_CACHE_SCRIPT)
        warm = _run_cache_process(cache_dir, _CONV_CACHE_SCRIPT)
        assert cold["counters"]["misses"] > 0
        assert cold["counters"]["stores"] > 0
        assert warm["counters"]["misses"] == 0
        assert warm["counters"]["hits"] == cold["counters"]["misses"]
        assert warm["instructions"] == cold["instructions"]
        assert warm["digest"] == cold["digest"]
        for probe in (cold, warm):
            events = probe["events"]
            assert events["fallbacks"] == events["bailouts"] == 0, probe

    def test_corrupted_entry_is_discarded_not_trusted(self, tmp_path):
        cache_dir = tmp_path / "xproc"
        cold = _run_cache_process(cache_dir)
        entries = list(cache_dir.glob("*-megablock.json"))
        assert len(entries) == 1
        entry = json.loads(entries[0].read_text())
        entry["payload"]["body_len"] = 1  # checksum no longer matches
        entries[0].write_text(json.dumps(entry))
        again = _run_cache_process(cache_dir)
        assert again["counters"]["hits"] == 0
        assert again["counters"]["discards"] == 1
        assert again["counters"]["stores"] == 1  # recompiled + rewrote
        assert again["ys"] == cold["ys"]

    def test_stale_plan_format_is_discarded_and_recompiled(
            self, tmp_path):
        # A cache entry written by an older codegen (plan_format skew)
        # must never be trusted: discard, recompile, rewrite.  Format 7
        # (the kernel's range facts carried in the payload) is such an
        # entry.
        cache_dir = tmp_path / "xproc"
        cold = _run_cache_process(cache_dir)
        entries = list(cache_dir.glob("*-megablock.json"))
        assert len(entries) == 1
        entry = json.loads(entries[0].read_text())
        assert entry["plan_format"] == PLAN_FORMAT
        entry["plan_format"] = 7
        entries[0].write_text(json.dumps(entry))
        again = _run_cache_process(cache_dir)
        assert again["counters"]["hits"] == 0
        assert again["counters"]["discards"] == 1
        assert again["counters"]["stores"] == 1
        assert again["tier"] == "megablock"
        assert again["ys"] == cold["ys"]
        fresh = json.loads(entries[0].read_text())
        assert fresh["plan_format"] == PLAN_FORMAT

    def test_stale_analysis_version_is_discarded(self, tmp_path):
        cache_dir = tmp_path / "xproc"
        _run_cache_process(cache_dir)
        entries = list(cache_dir.glob("*-megablock.json"))
        entry = json.loads(entries[0].read_text())
        entry["analysis_version"] = ANALYSIS_VERSION + 1
        entries[0].write_text(json.dumps(entry))
        again = _run_cache_process(cache_dir)
        assert again["counters"]["hits"] == 0
        assert again["counters"]["discards"] == 1
        assert not list(cache_dir.glob("*.tmp"))

    def test_truncated_file_is_discarded(self, tmp_path):
        cache_dir = tmp_path / "xproc"
        _run_cache_process(cache_dir)
        entries = list(cache_dir.glob("*-megablock.json"))
        entries[0].write_text(entries[0].read_text()[:40])
        again = _run_cache_process(cache_dir)
        assert again["counters"]["discards"] == 1
        assert again["counters"]["stores"] == 1

    def test_disable_env_keeps_the_disk_untouched(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "off"))
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch, fast_mode="megablock")
        assert engine.admission.tier == "megablock"
        engine.run()
        assert not (tmp_path / "off").exists()

    def test_warm_load_steps_divergence_like_a_cold_run(self, tmp_path,
                                                        monkeypatch):
        """A plan loaded from disk carries no reconvergence map of its
        own: a hooked run of the warm kernel steps each divergent branch
        through ``_exec_branch``, which derives IPDOM itself, and matches
        the cold run bit for bit."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))

        def hooked_run():
            launch = _build_launch(_divergent_ptx(), "divk")
            records = []
            engine = FunctionalEngine(launch, fast_mode="megablock",
                                      on_exec=records.append)
            stats = engine.run()
            assert engine._megaplan.eligible
            assert engine.admission[:2] == ("fastpath", "hooks")
            issued = [(r.pc, r.active_mask, r.mem_accesses)
                      for r in records]
            return issued, stats.dynamic_per_opcode, _memory_image(launch)

        cold = hooked_run()
        kernelcache.reset_counters()
        warm = hooked_run()
        assert kernelcache.counters()["hits"] == 1
        assert any(mask not in (0, 0xFFFFFFFF) for _, mask, _ in warm[0])
        assert warm == cold

    def test_in_process_plan_cached_on_kernel(self):
        launch = _build_launch(_saxpy_ptx(), "sax")
        first = FunctionalEngine(launch, fast_mode="megablock")
        second = FunctionalEngine(launch, fast_mode="megablock")
        assert second._megaplan is first._megaplan
