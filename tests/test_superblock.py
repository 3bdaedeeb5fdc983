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
from collections import Counter

import numpy as np
import pytest

from repro.cuda import CudaRuntime, FunctionalBackend
from repro.errors import SimulationFault
from repro.functional import executor
from repro.functional.cfg import (
    basic_blocks, block_leaders, branch_target)
from repro.functional.executor import FAST_MODES, FunctionalEngine, RunStats
from repro.functional.memory import (
    GLOBAL_BASE, PAGE_BITS, PAGE_SIZE, GlobalMemory, LinearMemory)
from repro.functional.state import CTAState, LaunchContext
from repro.functional.superblock import (
    _BlockCodegen, _emit, compile_superblocks, eligible)
from repro.ptx.builder import PTXBuilder, f32
from repro.ptx.parser import parse_module
from repro.quirks import LegacyQuirks
from repro.workloads.predicated_blend import (
    PredicatedBlend, PredicatedBlendConfig, build_kernel)


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


#: Opcodes that end a run: the engine steps them.
_CONTROL = ("bra", "exit", "ret", "bar")


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
        guarded = 0
        for ptx, name in ((_saxpy_ptx(), "sax"),
                          (build_kernel(), "predicated_blend")):
            kernel = parse_module(ptx, "lead").kernel(name)
            leaders = block_leaders(kernel)
            for start, block in compile_superblocks(kernel).items():
                assert block.start == start
                # Interior pcs are never leaders and never control flow;
                # only the last pc may be a bra, the one that closes it.
                for pc in range(start + 1, block.end):
                    assert pc not in leaders
                last = kernel.body[block.end - 1]
                closed = last.opcode == "bra"
                assert block.target == (
                    branch_target(kernel, last) if closed else None)
                for pc in range(start, block.end - closed):
                    inst = kernel.body[pc]
                    assert inst.opcode.split(".")[0] not in _CONTROL
                    guarded += inst.pred is not None
        assert guarded  # predicated_blend's guarded ld/st/add/mul fuse

    def test_control_instructions_are_ineligible_and_guards_are_not(self):
        kernel = parse_module(build_kernel(), "elig").kernel(
            "predicated_blend")
        for inst in kernel.body:
            control = inst.opcode.split(".")[0] in _CONTROL
            assert eligible(inst) is not control, inst
        assert any(inst.pred is not None and eligible(inst)
                   for inst in kernel.body)
        assert any(inst.pred is not None and not eligible(inst)
                   for inst in kernel.body)  # the guarded bra

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


def _guarded_ptx(body: str, shared: str = "") -> str:
    """A one-warp-per-CTA kernel over ``_build_launch``'s parameters:
    *body* runs with ``%r0`` = tid and ``%rd1`` = ``&ys[tid]`` set up."""
    return f"""
.version 6.0
.target sm_60
.address_size 64

.visible .entry g(.param .u64 xs, .param .u64 ys, .param .u32 n)
{{
    .reg .b32 %r<6>;
    .reg .b64 %rd<4>;
    .reg .pred %p<2>;
    {shared}
    ld.param.u64 %rd0, [ys];
    mov.u32 %r0, %tid.x;
    mul.wide.u32 %rd1, %r0, 4;
    add.u64 %rd1, %rd0, %rd1;
{body}
    exit;
}}
"""


def _fused_pcs(engine) -> set[int]:
    return {pc for block in engine._superblocks.values()
            for pc in range(block.start, block.end)}


def _ys(warps) -> list[int]:
    """``ys[0:32]`` of the launch the warps ran in, as u32s."""
    launch = warps[0].cta.launch
    ys = sorted(launch.global_mem.allocations)[1]
    return list(np.frombuffer(launch.global_mem.read(ys, 4 * 32),
                              dtype=np.uint32))


class TestGuardedFusion:
    """A guarded instruction fuses under a per-lane ``if`` on its guard:
    each case pins a rule the reference interpreter's lane filter
    implies for lane-major code."""

    def test_a_guard_false_everywhere_writes_no_register(self):
        # %r1 is live past the block, so the flush must store it only
        # on lanes where a guard held: here none, and no dict entry may
        # appear (the reference never creates one).
        ptx = _guarded_ptx("""
    setp.gt.u32 %p0, %r0, 1000;
    @%p0 mov.u32 %r1, 7;
    @!%p0 add.u32 %r2, %r0, 1;
    bar.sync 0;
    add.u32 %r3, %r1, %r2;
    st.global.u32 [%rd1], %r3;""")
        warps, engine = _assert_matches_reference(ptx, "g")
        kernel = engine.kernel
        assert {pc for pc, inst in enumerate(kernel.body)
                if inst.pred is not None} <= _fused_pcs(engine)
        for warp in warps:
            assert not any("%r1" in regs for regs in warp.regs)
            assert all("%r2" in regs for regs in warp.regs)
        assert _ys(warps) == list(range(1, 33))

    def test_a_guard_is_read_before_its_instruction_writes_it(self):
        ptx = _guarded_ptx("""
    setp.lt.u32 %p0, %r0, 16;
    @%p0 setp.ge.u32 %p0, %r0, 8;
    selp.u32 %r1, 1, 0, %p0;
    st.global.u32 [%rd1], %r1;""")
        warps, engine = _assert_matches_reference(ptx, "g")
        assert 6 in _fused_pcs(engine)  # the self-guarded setp
        assert _ys(warps) == [0] * 8 + [1] * 8 + [0] * 16

    def test_a_guarded_load_sees_the_store_before_it(self):
        # Lane k reads the word lane k+1 stored: the load must start a
        # lanes loop of its own, or lanes past k have not stored yet.
        ptx = _guarded_ptx("""
    mov.u64 %rd2, buf;
    mul.wide.u32 %rd3, %r0, 4;
    add.u64 %rd3, %rd2, %rd3;
    add.u32 %r1, %r0, 100;
    st.shared.u32 [%rd3], %r1;
    setp.lt.u32 %p0, %r0, 31;
    @%p0 ld.shared.u32 %r2, [%rd3+4];
    st.global.u32 [%rd1], %r2;""", ".shared .align 4 .b32 buf[32];")
        warps, engine = _assert_matches_reference(ptx, "g")
        block = max(engine._superblocks.values(), key=lambda b: b.count)
        assert block.opcodes.count("st") == 2 and "ld" in block.opcodes
        assert _ys(warps) == list(range(101, 132)) + [0]

    def test_a_guarded_symbol_access_checks_bounds_only_where_it_runs(
            self):
        # [buf+4096] is far outside the 32-byte arena: the lane-invariant
        # bounds check may not run ahead of the guard in the prologue.
        ptx = _guarded_ptx("""
    setp.gt.u32 %p0, %r0, 1000;
    @%p0 ld.shared.u32 %r1, [buf+4096];
    @%p0 st.shared.u32 [buf+4096], %r0;
    add.u32 %r2, %r0, 5;
    st.global.u32 [%rd1], %r2;""", ".shared .align 4 .b32 buf[8];")
        warps, engine = _assert_matches_reference(ptx, "g")
        assert {5, 6} <= _fused_pcs(engine)
        assert _ys(warps) == list(range(5, 37))

    def test_a_guarded_declined_instruction_runs_on_its_guarded_lanes(
            self):
        # popc and atom have no emit row: each runs as one reference
        # call on the lanes its guard selects, so %r1 exists on lanes
        # 0-9 only, %r2 on lanes 10-31 only, and buf counts 22 adds.
        ptx = _guarded_ptx("""
    setp.lt.u32 %p0, %r0, 10;
    @%p0 popc.b32 %r1, %r0;
    @!%p0 atom.shared.add.u32 %r2, [buf], 1;
    bar.sync 0;
    ld.shared.u32 %r3, [buf];
    add.u32 %r4, %r1, %r3;
    st.global.u32 [%rd1], %r4;""", ".shared .align 4 .b32 buf[1];")
        kernel = parse_module(ptx, "g").kernel("g")
        assert [inst.opcode for inst in kernel.body[5:7]
                if not _emit(inst, _BlockCodegen())] == ["popc", "atom"]
        warps, engine = _assert_matches_reference(ptx, "g")
        assert {5, 6} <= _fused_pcs(engine)
        for warp in warps:
            assert [lane for lane, regs in enumerate(warp.regs)
                    if "%r1" in regs] == list(range(10))
            assert [regs.get("%r2") for regs in warp.regs[10:]] == \
                list(range(22))
        assert _ys(warps) == [bin(tid).count("1") + 22 for tid in range(10)] \
            + [22] * 22

    def test_predicated_blend_steps_only_its_barriers_and_exit(
            self, monkeypatch):
        # Per warp: seven bar.syncs and the exit; every guarded
        # ld/st/add/mul runs inside a fused block, and the tid guard's
        # bra closes the run before it.
        issued: dict[tuple[int, int], Counter] = {}
        tiers = set()
        step = FunctionalEngine.step_warp

        def counting(engine, warp):
            tiers.add(engine.admission.tier)
            record = step(engine, warp)
            if isinstance(record, executor.ExecRecord):
                warp_id = (warp.cta.cta_linear, warp.warp_index)
                issued.setdefault(warp_id, Counter())[
                    record.inst.opcode] += 1
            return record

        monkeypatch.setattr(FunctionalEngine, "step_warp", counting)
        runtime = CudaRuntime(
            backend=FunctionalBackend(fast_mode="superblock"))
        blend = PredicatedBlend(runtime, PredicatedBlendConfig(ctas=4))
        blend.run()
        assert tiers == {"superblock"} and len(issued) == 4 * 2
        assert all(counts == {"bar": 7, "exit": 1}
                   for counts in issued.values()), issued
        ys, sums = blend.results()
        want_ys, want_sums = blend.expected()
        assert np.array_equal(ys, want_ys)
        assert np.array_equal(sums, want_sums)


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


def _branch_outcome(body: str, mode: str, reconverge_at_exit: bool):
    """Everything a ``bra`` can move, run on *mode*: memory, the run's
    stats and clock, each warp's issue count, the SIMT stacks after
    every scheduling round, and the opcodes ``step_warp`` issued."""
    launch = _build_launch(_guarded_ptx(body), "g")
    engine = FunctionalEngine(launch, fast_mode=mode,
                              reconverge_at_exit=reconverge_at_exit)
    stacks, stepped = [], Counter()
    release, step = engine.try_release_barrier, engine.step_warp

    def snapshot(cta):
        stacks.append([warp.simt.snapshot() for warp in cta.warps])
        return release(cta)

    def counting(warp):
        record = step(warp)
        if isinstance(record, executor.ExecRecord):
            stepped[record.inst.opcode] += 1
        return record

    engine.try_release_barrier, engine.step_warp = snapshot, counting
    stats, issued = RunStats(), []
    for cta in engine.iter_ctas():
        engine.run_cta(cta, stats)
        issued.append([warp.instructions_executed for warp in cta.warps])
    outcome = (dict(launch.global_mem.iter_pages()), stats.instructions,
               stats.dynamic_per_opcode, launch.clock, issued, stacks)
    return outcome, stepped, _ys(cta.warps)


#: name -> (body run after ``_guarded_ptx``'s set-up, ys[tid] wanted).
_BRANCHES = {
    # %r1 is live into the target only: the flush must keep it.
    "uniform_taken": ("""
    mov.u32 %r1, 5;
    setp.lt.u32 %p0, %r0, 100;
    @%p0 bra SKIP;
    mov.u32 %r1, 9;
SKIP:
    add.u32 %r2, %r1, %r0;
    st.global.u32 [%rd1], %r2;""", lambda tid: 5 + tid),
    "uniform_fallthrough": ("""
    mov.u32 %r1, 5;
    setp.gt.u32 %p0, %r0, 100;
    @%p0 bra SKIP;
    add.u32 %r1, %r1, 4;
SKIP:
    add.u32 %r2, %r1, %r0;
    st.global.u32 [%rd1], %r2;""", lambda tid: 9 + tid),
    # The fall-through lanes park at a barrier while split: the stacks
    # differ between the reconvergence modes.  bra.uni JOIN follows the
    # barrier, so it closes a run of its own.
    "divergent": ("""
    mov.u32 %r1, 5;
    setp.lt.u32 %p0, %r0, 8;
    @%p0 bra TAKEN;
    add.u32 %r1, %r1, 100;
    bar.sync 0;
    bra.uni JOIN;
TAKEN:
    add.u32 %r1, %r1, 200;
JOIN:
    add.u32 %r2, %r1, %r0;
    st.global.u32 [%rd1], %r2;""",
                  lambda tid: (205 if tid < 8 else 105) + tid),
    "negated": ("""
    mov.u32 %r1, 5;
    setp.lt.u32 %p0, %r0, 8;
    @!%p0 bra SKIP;
    add.u32 %r1, %r1, 100;
SKIP:
    add.u32 %r2, %r1, %r0;
    st.global.u32 [%rd1], %r2;""", lambda tid: (105 if tid < 8 else 5) + tid),
    # Lane k loops k times: the guarded exit branch diverges lane by
    # lane and the unconditional back edge closes the loop body.
    "unconditional_loop": ("""
    mov.u32 %r1, 0;
    mov.u32 %r2, 0;
LOOP:
    setp.ge.u32 %p0, %r2, %r0;
    @%p0 bra DONE;
    add.u32 %r1, %r1, 3;
    add.u32 %r2, %r2, 1;
    bra LOOP;
DONE:
    st.global.u32 [%rd1], %r1;""", lambda tid: 3 * tid),
    # The guard is written in the branch's own block, under a guard of
    # its own (only lanes 4..11 recompute it).
    "guard_written_in_block": ("""
    mov.u32 %r1, 5;
    setp.lt.u32 %p0, %r0, 12;
    setp.ge.u32 %p1, %r0, 4;
    @%p0 setp.lt.u32 %p1, %r0, 4;
    @%p1 bra SKIP;
    mov.u32 %r1, 7;
SKIP:
    st.global.u32 [%rd1], %r1;""", lambda tid: 5 if tid < 4 or tid >= 12
                               else 7),
    # HOP is both a branch target and a bra: it starts a run of its own.
    "branch_at_a_target": ("""
    mov.u32 %r1, 1;
    setp.lt.u32 %p0, %r0, 8;
    @%p0 bra HOP;
    mov.u32 %r1, 2;
HOP:
    @%p0 bra DONE;
    add.u32 %r1, %r1, 10;
DONE:
    st.global.u32 [%rd1], %r1;""", lambda tid: 1 if tid < 8 else 12),
}


class TestFoldedBranch:
    """A run closes on the ``bra`` after it: the closure returns the
    taken lanes and the engine moves the warp as a stepped ``bra``
    would.  Each case is equal on every scalar tier in everything the
    branch can reach, steps no ``bra`` when fused, and computes the
    values the PTX says."""

    @pytest.mark.parametrize("reconverge_at_exit", [False, True])
    @pytest.mark.parametrize("case", list(_BRANCHES))
    def test_matches_the_stepped_tiers(self, case, reconverge_at_exit):
        body, want = _BRANCHES[case]
        runs = {mode: _branch_outcome(body, mode, reconverge_at_exit)
                for mode in ("superblock", "fastpath", "reference")}
        fused, stepped, ys = runs["superblock"]
        assert fused == runs["fastpath"][0] == runs["reference"][0]
        assert ys == [want(tid) for tid in range(32)]
        assert "bra" not in stepped and runs["fastpath"][1]["bra"]

    def test_a_split_parks_with_the_mode_s_stack(self):
        # The stacks compared above are not trivial: the fall-through
        # lanes park at the bar.sync (pc 8) while the taken lanes wait
        # at JOIN (pc 11) under IPDOM, or have exited under the ablation.
        body, _want = _BRANCHES["divergent"]
        stacks = [_branch_outcome(body, "superblock", mode)[0][5]
                  for mode in (False, True)]
        high = 0xffffffff ^ 0xff
        assert stacks[0][0] == [[(11, -1, 0xffffffff), (8, 11, high)]]
        assert stacks[1][0] == [[(8, -1, high)]]

    def test_every_bra_closes_a_run(self):
        kernel = parse_module(_guarded_ptx(_BRANCHES["divergent"][0]),
                              "g").kernel("g")
        closed = {block.end - 1: block
                  for block in compile_superblocks(kernel).values()
                  if block.target is not None}
        assert sorted(closed) == [pc for pc, inst in enumerate(kernel.body)
                                  if inst.opcode == "bra"] == [6, 9]
        assert closed[9].count == 1   # bra.uni JOIN after the barrier
        # %r1 is live into both successors of the split; %p0 into none.
        assert "%r1" not in closed[6].pruned and "%p0" in closed[6].pruned


def _memory_ptx(body: str) -> str:
    """One warp over a 64-byte shared ``buf`` and a global ``.param
    .u64 g``: *body* runs with ``%r0`` = tid and ``%rd0`` = g."""
    return f"""
.version 6.0
.target sm_60
.address_size 64

.visible .entry m(.param .u64 g)
{{
    .reg .b32 %r<4>;
    .reg .b64 %rd<6>;
    .reg .pred %p<2>;
    .shared .align 8 .b8 buf[64];
    ld.param.u64 %rd0, [g];
    mov.u32 %r0, %tid.x;
{body}
    exit;
}}
"""


def _memory_outcome(body: str, mode: str, *, uninit_read="zeros",
                    shadow=False):
    """Run :func:`_memory_ptx` on three pages of global memory, the
    first stored by the host: (fault text or None, written pages, the
    shadow's init marks)."""
    from repro.sanitize.shadow import attach_shadow
    gm = GlobalMemory(uninit_read=uninit_read)
    if shadow:
        attach_shadow(gm)
    base = gm.allocate(3 * PAGE_SIZE)
    gm.write(base, bytes(range(256)) * (PAGE_SIZE // 256))
    kernel = parse_module(_memory_ptx(body), "m").kernel("m")
    params = LinearMemory(16)
    params.write_uint(kernel.params[0].offset, base, 8)
    launch = LaunchContext(kernel=kernel, grid_dim=(1, 1, 1),
                           block_dim=(32, 1, 1), global_mem=gm,
                           param_mem=params)
    try:
        FunctionalEngine(launch, fast_mode=mode).run()
        fault = None
    except SimulationFault as error:
        fault = str(error)
    marks = None if gm.shadow is None else bytes(gm.shadow.dense())
    return fault, dict(gm.iter_pages()), marks


_SCALAR_TIERS = ("superblock", "fastpath")


class TestScalarMemoryPath:
    """The scalar dialect reads and writes with one precompiled
    ``struct`` call per element; every check around it stays the
    arena's or the store's own."""

    @pytest.mark.parametrize("mode", _SCALAR_TIERS)
    @pytest.mark.parametrize("base", ["register", "symbol"])
    @pytest.mark.parametrize("opcode", ["ld", "st"])
    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_out_of_arena_faults_keep_their_text(self, bits, opcode, base,
                                                 mode):
        # Lane 3's access ends one byte past the 64-byte arena.
        nbytes = bits // 8
        first = 64 - nbytes + 1 - 3
        if base == "symbol":   # lane-invariant: the whole warp overruns
            first, mem = 64 - nbytes + 1, f"[buf+{64 - nbytes + 1}]"
        else:
            mem = f"[%rd2+{first}]"
        access = (f"ld.shared.u{bits} %rd3, {mem};" if opcode == "ld"
                  else f"st.shared.u{bits} {mem}, %rd3;")
        body = f"""
    mov.u64 %rd2, buf;
    cvt.u64.u32 %rd1, %r0;
    add.u64 %rd2, %rd2, %rd1;
    mov.u64 %rd3, 0x0102030405060708;
    {access}"""
        fault = _memory_outcome(body, mode)[0]
        assert fault == _memory_outcome(body, "reference")[0]
        lo = first + (3 if base == "register" else 0)
        assert fault == f"access [{lo}, {lo + nbytes}) outside arena of " \
            "64 bytes"

    @pytest.mark.parametrize("mode", _SCALAR_TIERS)
    def test_a_misaligned_global_store_goes_through_write_uint(
            self, mode, monkeypatch):
        # Lane 0's word straddles into the never-written second page,
        # which only the store's own write flags; the rest are aligned
        # on the third, which the in-span store flags.
        body = f"""
    mul.wide.u32 %rd1, %r0, 4;
    add.u64 %rd2, %rd0, %rd1;
    add.u64 %rd2, %rd2, {2 * PAGE_SIZE};
    setp.eq.u32 %p0, %r0, 0;
    @%p0 add.u64 %rd2, %rd0, {PAGE_SIZE - 2};
    st.global.u32 [%rd2], %r0;"""
        calls = []
        real = GlobalMemory.write_uint
        want = _memory_outcome(body, "reference")

        def spy(self, addr, value, nbytes):
            calls.append(addr)
            return real(self, addr, value, nbytes)

        monkeypatch.setattr(GlobalMemory, "write_uint", spy)
        got = _memory_outcome(body, mode)
        assert got == want and got[0] is None
        first = GLOBAL_BASE >> PAGE_BITS
        assert sorted(got[1]) == [first, first + 1, first + 2]
        assert calls == [GLOBAL_BASE + PAGE_SIZE - 2]

    @pytest.mark.parametrize("mode", _SCALAR_TIERS)
    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_a_store_with_a_shadow_marks_what_it_writes(self, bits, mode):
        # The host writes only the first page: the kernel's stores
        # mark the only bytes of the second.
        nbytes = bits // 8
        body = f"""
    mul.wide.u32 %rd1, %r0, {2 * nbytes};
    add.u64 %rd2, %rd0, %rd1;
    st.global.u{bits} [%rd2+{PAGE_SIZE}], %rd1;"""
        want = _memory_outcome(body, "reference", shadow=True)
        got = _memory_outcome(body, mode, shadow=True)
        assert got == want
        assert got[2][PAGE_SIZE:].count(1) == 32 * nbytes

    @pytest.mark.parametrize("mode", _SCALAR_TIERS)
    def test_a_global_load_under_the_raise_policy(self, mode):
        # Written data reads back; the second page was never written.
        copy = """
    mul.wide.u32 %rd1, %r0, 8;
    add.u64 %rd2, %rd0, %rd1;
    ld.global.u64 %rd3, [%rd2];
    st.global.u64 [%rd2+256], %rd3;"""
        want = _memory_outcome(copy, "reference", uninit_read="raise")
        assert _memory_outcome(copy, mode, uninit_read="raise") == want
        assert want[0] is None
        stray = copy.replace("[%rd2]", f"[%rd2+{PAGE_SIZE}]")
        fault = _memory_outcome(stray, mode, uninit_read="raise")[0]
        assert fault == _memory_outcome(stray, "reference",
                                        uninit_read="raise")[0]
        assert fault.startswith("read of never-written global page")
