"""Superblock tier tests: fusion legality, bit-exactness against the
lower tiers, and the engine's two-mode issue loop.

The superblock compiler fuses straight-line runs of instructions into
single per-block closures (emitted code, with the reference
implementation as an opaque call for anything the emitters decline).
These tests pin down the block boundaries (no fused run may cross a
leader or swallow control flow), the execution contract (identical
architectural state to the reference interpreter), and the mode
plumbing (quirky launches fall back to reference, ``contract_fp16`` to
stepping, and performance mode still emits one :class:`ExecRecord` per
issued instruction).
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.functional import executor
from repro.functional.cfg import basic_blocks, block_leaders
from repro.functional.executor import FAST_MODES, FunctionalEngine, RunStats
from repro.functional.memory import GlobalMemory, LinearMemory
from repro.functional.state import CTAState, LaunchContext
from repro.functional.superblock import (
    _BlockCodegen, _emit, compile_superblocks, eligible)
from repro.ptx.builder import PTXBuilder, f32
from repro.ptx.parser import parse_module
from repro.quirks import LegacyQuirks


def _saxpy_ptx() -> str:
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


def _build_launch(ptx: str, name: str, *, quirks=None,
                  kernel=None) -> LaunchContext:
    if kernel is None:
        kernel = parse_module(ptx, "sb").kernel(name)
    n = 64
    gm = GlobalMemory()
    xs = gm.allocate(4 * n)
    ys = gm.allocate(4 * n)
    rng = np.random.default_rng(3)
    gm.write(xs, rng.random(n, dtype=np.float32).tobytes())
    gm.write(ys, rng.random(n, dtype=np.float32).tobytes())
    pm = LinearMemory(max(kernel.param_bytes, 16))
    for decl, value in zip(kernel.params, [xs, ys, n]):
        pm.write_uint(decl.offset, value, decl.dtype.bytes)
    kwargs = {} if quirks is None else {"quirks": quirks}
    return LaunchContext(kernel=kernel, grid_dim=(2, 1, 1),
                         block_dim=(32, 1, 1), global_mem=gm,
                         param_mem=pm, **kwargs)


class TestBlockDiscovery:
    def test_basic_blocks_partition_the_kernel(self):
        module = parse_module(_saxpy_ptx(), "part")
        kernel = module.kernel("sax")
        covered = []
        for start, end in basic_blocks(kernel):
            assert start < end
            covered.extend(range(start, end))
        assert covered == list(range(len(kernel.body)))

    def test_runs_never_cross_leaders_or_control(self):
        module = parse_module(_saxpy_ptx(), "lead")
        kernel = module.kernel("sax")
        blocks = compile_superblocks(kernel)
        leaders = block_leaders(kernel)
        for start, block in blocks.items():
            assert block.start == start
            # Interior pcs are never leaders and never control flow.
            for pc in range(start + 1, block.end):
                assert pc not in leaders
            for pc in range(start, block.end):
                inst = kernel.body[pc]
                assert inst.opcode.split(".")[0] not in (
                    "bra", "exit", "ret", "bar")
                assert inst.pred is None

    def test_predicated_and_control_instructions_are_ineligible(self):
        module = parse_module(_saxpy_ptx(), "elig")
        kernel = module.kernel("sax")
        ineligible = 0
        for inst in kernel.body:
            base = inst.opcode.split(".")[0]
            if inst.pred is not None or base in ("bra", "exit", "ret",
                                                 "bar"):
                assert not eligible(inst)
                ineligible += 1
        assert ineligible

    def test_fused_block_source_has_single_lane_loop_plus_store(self):
        # saxpy's main block is ld/ld/fma/st: loads and register ops
        # share one lane-major loop, the store gets its own.
        module = parse_module(_saxpy_ptx(), "src")
        kernel = module.kernel("sax")
        blocks = compile_superblocks(kernel)
        with_store = [blk for blk in blocks.values()
                      if any(op.startswith("st") for op in blk.opcodes)]
        assert with_store, "expected a fused block containing the store"
        block = with_store[0]
        # Loads and register ops fuse into one lane-major loop; the
        # store is the only cross-lane communication and gets its own.
        stores = sum(1 for op in block.opcodes if op.startswith("st"))
        assert block.source.count("for lane in lanes:") == 1 + stores

    def test_dead_registers_pruned_from_final_writeback(self):
        # saxpy's address temporaries (mad.wide results) die inside the
        # block; liveness lets the closure skip their final writeback.
        module = parse_module(_saxpy_ptx(), "src")
        kernel = module.kernel("sax")
        blocks = compile_superblocks(kernel)
        pruned = frozenset().union(
            *(blk.pruned for blk in blocks.values()))
        assert pruned, "expected at least one dead end-of-block register"
        # Pruned names never appear as writeback targets in the source.
        for blk in blocks.values():
            for name in blk.pruned:
                assert f"regs[{name!r}] =" not in blk.source

    def test_live_out_registers_survive_pruning(self):
        # The loop counter of a for_range block is live across the back
        # edge and must keep its writeback.
        b = PTXBuilder("loopk", [("out", "u64")])
        out = b.ld_param("u64", "out")
        acc = b.imm_u32(0)
        i = b.reg("u32")
        with b.for_range(i, 0, "8"):
            b.ins("add.u32", acc, acc, i)
        b.ins("st.global.u32", f"[{out}]", acc)
        module = parse_module(b.build(), "src")
        kernel = module.kernel("loopk")
        blocks = compile_superblocks(kernel)
        body_blocks = [blk for blk in blocks.values()
                       if i in blk.pruned]
        assert not body_blocks, "live loop counter must not be pruned"


def _unemitted_ptx() -> str:
    """Straight-line code with three opcodes the emitters decline."""
    b = PTXBuilder("unemit", [("xs", "u64"), ("ys", "u64"), ("n", "u32")])
    b.shared("tile", "u32", 8)
    xs = b.ld_param("u64", "xs")
    ys = b.ld_param("u64", "ys")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    v, low, ones, zeros, tile32 = b.regs("u32", 5)
    tile = b.reg("u64")
    b.ins("ld.global.u32", v, f"[{b.elem_addr(xs, tid)}]")
    b.ins("abs.s32", low, v)
    b.ins("popc.b32", ones, v)
    b.ins("clz.b32", zeros, v)
    b.ins("mov.u64", tile, "tile")
    b.ins("cvt.u32.u64", tile32, tile)
    b.ins("add.u32", low, low, ones)
    b.ins("add.u32", low, low, zeros)
    b.ins("add.u32", low, low, tile32)
    b.ins("st.global.u32", f"[{b.elem_addr(ys, tid)}]", low)
    return b.build()


def _vector_load_loop_ptx() -> str:
    """A loop whose body holds a generic-space ``ld.v2`` (the space
    resolves per lane: never emitted)."""
    b = PTXBuilder("vloop", [("xs", "u64"), ("ys", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    ys = b.ld_param("u64", "ys")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    lane, first, second, i = b.regs("u32", 4)
    acc = b.imm_u32(0)
    b.ins("and.b32", lane, tid, "31")
    pair = b.elem_addr(xs, lane, 8)
    with b.for_range(i, 0, "4"):
        b.ins("ld.v2.u32", f"{{{first}, {second}}}", f"[{pair}]")
        b.ins("add.u32", acc, acc, first)
        b.ins("xor.b32", acc, acc, second)
    b.ins("st.global.u32", f"[{b.elem_addr(ys, tid)}]", acc)
    return b.build()


def _run_ctas(ptx: str, name: str, mode: str):
    """(memory image, per-warp register dumps, warps, engine)."""
    launch = _build_launch(ptx, name)
    engine = FunctionalEngine(launch, fast_mode=mode)
    warps = []
    for cta in engine.iter_ctas():
        engine.run_cta(cta)
        warps.extend(cta.warps)
    regs = [[dict(lane) for lane in warp.regs] for warp in warps]
    return dict(launch.global_mem.iter_pages()), regs, warps, engine


def _assert_matches_reference(ptx: str, name: str):
    """Fused run == reference: memory, and every unpruned register."""
    pages, regs, warps, engine = _run_ctas(ptx, name, "superblock")
    ref_pages, ref_regs, _warps, _engine = _run_ctas(ptx, name,
                                                     "reference")
    assert pages == ref_pages
    pruned = frozenset().union(
        *(blk.pruned for blk in engine._superblocks.values()))
    for warp_regs, ref_warp in zip(regs, ref_regs):
        for lane_regs, ref_lane in zip(warp_regs, ref_warp):
            assert set(lane_regs) <= set(ref_lane)
            for reg, value in ref_lane.items():
                if reg not in pruned:
                    assert lane_regs.get(reg) == value, reg
    return warps, engine


class TestReferenceFallbackInsideBlocks:
    def test_run_with_unemitted_opcodes_fuses_and_matches_reference(self):
        # abs, popc and clz have no emit row: they join the fused run as
        # opaque reference calls instead of ending it.
        module = parse_module(_unemitted_ptx(), "un")
        kernel = module.kernel("unemit")
        declined = [inst for inst in kernel.body
                    if eligible(inst) and not _emit(inst, _BlockCodegen())]
        assert {inst.opcode for inst in declined} == {"abs", "popc", "clz"}
        _warps, engine = _assert_matches_reference(_unemitted_ptx(),
                                                   "unemit")
        main = max(engine._superblocks.values(), key=lambda b: b.count)
        assert {"ld", "abs", "popc", "clz", "mov", "st"} <= set(main.opcodes)

    def test_opaque_memory_call_leaves_no_mem_trace(self):
        # The reference ld appends to warp.mem_trace, which only
        # step_warp clears: a fused block must leave it empty however
        # often the loop re-enters it.
        warps, engine = _assert_matches_reference(
            _vector_load_loop_ptx(), "vloop")
        loop_blocks = [blk for blk in engine._superblocks.values()
                       if "ld" in blk.opcodes
                       and "mem_trace.clear()" in blk.source]
        assert loop_blocks, "expected the v2 load inside a fused block"
        assert warps and all(len(w.mem_trace) == 0 for w in warps)


class TestEngineModes:
    def test_unknown_fast_mode_rejected(self):
        launch = _build_launch(_saxpy_ptx(), "sax")
        with pytest.raises(ValueError, match="unknown fast_mode"):
            FunctionalEngine(launch, fast_mode="turbo")

    def test_quirky_launch_forces_reference(self):
        quirks = LegacyQuirks(rem_ignores_type=True)
        launch = _build_launch(_saxpy_ptx(), "sax", quirks=quirks)
        engine = FunctionalEngine(launch, fast_mode="superblock")
        assert engine.admission[:2] == ("reference", "quirks")
        engine.run()
        assert not engine._superblocks

    def test_contract_fp16_bypasses_superblocks(self):
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch, contract_fp16=True,
                                  fast_mode="superblock")
        assert engine.admission[:2] == ("fastpath", "contract_fp16")
        engine.run()
        assert not engine._superblocks

    def test_compiled_blocks_are_cached_on_the_kernel(self):
        launch = _build_launch(_saxpy_ptx(), "sax")
        first = FunctionalEngine(launch, fast_mode="superblock")
        second = FunctionalEngine(launch, fast_mode="superblock")
        first.run()
        second.run()
        assert second._superblocks is first._superblocks
        assert first._superblocks

    def test_run_range_frees_retired_ctas_without_gc(self, monkeypatch):
        # CTAState.warps <-> WarpState.cta is a cycle; the engine breaks
        # it when it retires a CTA it created, so refcounting alone
        # frees the register files.
        born = []

        def tracking(launch, cta_linear):
            cta = CTAState(launch, cta_linear)
            born.append(weakref.ref(cta))
            return cta

        monkeypatch.setattr(executor, "CTAState", tracking)
        launch = _build_launch(_saxpy_ptx(), "sax")
        gc.collect()
        gc.disable()
        try:
            FunctionalEngine(launch, fast_mode="superblock").run_range(0, 2)
            alive = [ref() for ref in born]
        finally:
            gc.enable()
        assert len(born) == 2 and alive == [None, None]

    def test_all_modes_agree_on_memory_and_counts(self):
        results = {}
        for mode in FAST_MODES:
            launch = _build_launch(_saxpy_ptx(), "sax")
            stats = FunctionalEngine(launch, fast_mode=mode).run()
            ys = sorted(launch.global_mem.allocations)[1]
            results[mode] = (launch.global_mem.read(ys, 4 * 64),
                             stats.instructions,
                             dict(stats.dynamic_per_opcode),
                             launch.clock)
        assert results["superblock"] == results["fastpath"]
        assert results["fastpath"] == results["reference"]


class TestPerformanceModeContract:
    def test_one_exec_record_per_issued_instruction(self):
        # With an observer attached the engine must take the stepping
        # path: one ExecRecord per issued warp instruction, never a
        # fused block.
        records = []
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch, fast_mode="superblock")
        engine.on_exec = records.append  # post-hoc, as hwmodel does
        stats = RunStats()
        for cta in engine.iter_ctas():
            engine.run_cta(cta, stats)
        assert stats.instructions > 0
        assert len(records) == stats.instructions

    def test_threads_sharing_a_kernel_fill_one_step_list(self):
        # The service's GPU workers launch the same parsed kernel
        # concurrently: the lazily filled step list is shared, a pc may
        # be compiled twice, and every launch must still be exact.
        kernel = parse_module(_saxpy_ptx(), "shared").kernel("sax")
        reference = _build_launch(_saxpy_ptx(), "sax")
        FunctionalEngine(reference, fast_mode="reference").run()
        want = dict(reference.global_mem.iter_pages())
        launches = [_build_launch(_saxpy_ptx(), "sax", kernel=kernel)
                    for _ in range(8)]
        start = threading.Barrier(len(launches))
        errors = []

        def work(launch):
            try:
                start.wait(timeout=30)
                FunctionalEngine(launch, fast_mode="fastpath").run()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(launch,))
                   for launch in launches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert all(dict(launch.global_mem.iter_pages()) == want
                   for launch in launches)
        steps = executor._step_slots(kernel)
        assert all(step is not None for pc, step in enumerate(steps)
                   if kernel.body[pc].opcode not in ("bra", "exit", "ret"))

    def test_budgeted_stepping_matches_free_run(self):
        free = _build_launch(_saxpy_ptx(), "sax")
        FunctionalEngine(free, fast_mode="superblock").run()

        budgeted = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(budgeted, fast_mode="superblock")
        for cta in engine.iter_ctas():
            budget = 1
            while not cta.finished:
                engine.run_cta(cta, max_warp_instructions=budget)
                budget += 1

        allocs = sorted(free.global_mem.allocations)
        for addr, size in zip(allocs, (4 * 64, 4 * 64)):
            assert (free.global_mem.read(addr, size)
                    == budgeted.global_mem.read(addr, size))
