"""SIMT stack, CFG reconvergence, and divergence behaviour tests."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.errors import TimingDeadlockError
from repro.functional.cfg import (
    build_cfg, compute_reconvergence, reconvergence)
from repro.functional.executor import FunctionalEngine
from repro.functional.memory import GlobalMemory, LinearMemory
from repro.functional.simt import NO_RECONVERGE, SimtStack
from repro.functional.state import LaunchContext
from repro.ptx.builder import PTXBuilder
from repro.ptx.parser import parse_module


class TestSimtStack:
    def test_initial(self):
        stack = SimtStack.initial(0xF)
        assert stack.active_mask == 0xF
        assert stack.pc == 0

    def test_advance_and_pop_at_rpc(self):
        stack = SimtStack.initial(0b11)
        stack.diverge(rpc=10, taken_pc=5, taken_mask=0b01,
                      fallthrough_pc=1, fallthrough_mask=0b10)
        assert stack.pc == 5 and stack.active_mask == 0b01
        stack.advance(10)  # taken path reaches reconvergence
        assert stack.pc == 1 and stack.active_mask == 0b10
        stack.advance(10)  # fallthrough reaches reconvergence
        assert stack.pc == 10 and stack.active_mask == 0b11

    def test_retire_lanes(self):
        stack = SimtStack.initial(0b111)
        stack.retire_lanes(0b010)
        assert stack.active_mask == 0b101
        stack.retire_lanes(0b101)
        assert stack.empty

    def test_nested_divergence(self):
        stack = SimtStack.initial(0b1111)
        stack.diverge(20, 5, 0b0011, 1, 0b1100)
        stack.diverge(10, 7, 0b0001, 6, 0b0010)
        assert stack.active_mask == 0b0001
        stack.advance(10)
        assert stack.active_mask == 0b0010
        stack.advance(10)
        assert stack.pc == 10 and stack.active_mask == 0b0011
        stack.advance(20)
        assert stack.active_mask == 0b1100

    def test_snapshot_restore(self):
        stack = SimtStack.initial(0xFFFF)
        stack.diverge(9, 3, 0xF, 1, 0xFFF0)
        clone = SimtStack.restore(stack.snapshot())
        assert clone.pc == stack.pc
        assert clone.active_mask == stack.active_mask
        assert len(clone.entries) == len(stack.entries)


HEADER = ".version 6.0\n.target sm_60\n.address_size 64\n"


def _diamond_kernel() -> str:
    return HEADER + """
.entry k() {
    .reg .pred %p<1>;
    .reg .b32 %r<4>;
    mov.u32 %r0, %tid.x;
    setp.lt.s32 %p0, %r0, 16;
    @%p0 bra $then;
    mov.u32 %r1, 2;
    bra $join;
$then:
    mov.u32 %r1, 1;
$join:
    add.s32 %r2, %r1, 1;
    exit;
}"""


class TestReconvergence:
    def test_diamond_ipdom(self):
        module = parse_module(_diamond_kernel())
        kernel = module.kernel("k")
        recon = compute_reconvergence(kernel)
        branch_pc = 2  # the @%p0 bra
        assert recon[branch_pc] == kernel.labels["$join"]

    def test_reconverge_at_exit_mode(self):
        """Exit reconvergence is a setting of the engine that executes
        the branch: its stacks never rejoin before exit, while the
        kernel's memoised map stays IPDOM."""
        kernel = parse_module(_diamond_kernel()).kernel("k")
        join = kernel.labels["$join"]

        def stack_after_branch(at_exit):
            launch = LaunchContext(
                kernel=kernel, grid_dim=(1, 1, 1), block_dim=(32, 1, 1),
                global_mem=GlobalMemory(), param_mem=LinearMemory(16))
            engine = FunctionalEngine(launch, reconverge_at_exit=at_exit)
            warp = next(engine.iter_ctas()).warps[0]
            for _ in range(3):      # mov, setp, the divergent bra
                engine.step_warp(warp)
            return [entry.rpc for entry in warp.simt.entries]

        assert stack_after_branch(True) == [NO_RECONVERGE] * 2
        assert stack_after_branch(False) == [NO_RECONVERGE, join, join]
        assert reconvergence(kernel) == {2: join}

    def test_cfg_shape(self):
        module = parse_module(_diamond_kernel())
        graph = build_cfg(module.kernel("k"))
        # entry, then-block, else-block, join, exit node
        assert len(graph.succ) == len(graph.pred) == 5
        assert len(graph.end) == 4

    def test_loop_backedge(self):
        ptx = HEADER + """
.entry k() {
    .reg .pred %p<1>;
    .reg .b32 %r<2>;
    mov.u32 %r0, 0;
$loop:
    add.s32 %r0, %r0, 1;
    setp.lt.s32 %p0, %r0, 10;
    @%p0 bra $loop;
    exit;
}"""
        kernel = parse_module(ptx).kernel("k")
        recon = compute_reconvergence(kernel)
        # The loop branch reconverges at the loop exit (pc 4, the exit).
        assert recon[3] == 4


class TestDivergentExecution:
    def _run(self, build_kernel, n_threads=32, quirks=None):
        ptx = build_kernel()
        rt = CudaRuntime(**({"quirks": quirks} if quirks else {}))
        rt.load_ptx(ptx, "t")
        out = rt.malloc(4 * n_threads)
        rt.launch("k", 1, n_threads, [out, n_threads])
        rt.synchronize()
        return np.frombuffer(rt.memcpy_d2h(out, 4 * n_threads),
                             dtype=np.uint32)

    def test_if_else_divergence(self):
        def build():
            b = PTXBuilder("k", [("out", "u64"), ("n", "u32")])
            out = b.ld_param("u64", "out")
            n = b.ld_param("u32", "n")
            tid = b.global_tid_x()
            b.guard_tid_below(tid, n)
            pred = b.reg("pred")
            b.ins("setp.lt.u32", pred, tid, "8")
            result = b.reg("u32")
            b.ins("mov.u32", result, "200")
            with b.if_then(pred):
                b.ins("mov.u32", result, "100")
            b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", result)
            return b.build()
        got = self._run(build)
        expected = np.where(np.arange(32) < 8, 100, 200)
        assert (got == expected).all()

    def test_variable_trip_loops_reconverge(self):
        def build():
            b = PTXBuilder("k", [("out", "u64"), ("n", "u32")])
            out = b.ld_param("u64", "out")
            n = b.ld_param("u32", "n")
            tid = b.global_tid_x()
            b.guard_tid_below(tid, n)
            acc = b.imm_u32(0)
            i = b.reg("u32")
            with b.for_range(i, 0, tid):
                b.ins("add.u32", acc, acc, "2")
            # Every thread must execute this after reconvergence.
            b.ins("add.u32", acc, acc, "1000")
            b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", acc)
            return b.build()
        got = self._run(build)
        expected = np.arange(32) * 2 + 1000
        assert (got == expected).all()

    def test_nested_divergence_execution(self):
        def build():
            b = PTXBuilder("k", [("out", "u64"), ("n", "u32")])
            out = b.ld_param("u64", "out")
            n = b.ld_param("u32", "n")
            tid = b.global_tid_x()
            b.guard_tid_below(tid, n)
            result = b.imm_u32(0)
            outer = b.reg("pred")
            b.ins("setp.lt.u32", outer, tid, "16")
            with b.if_then(outer):
                inner = b.reg("pred")
                b.ins("setp.lt.u32", inner, tid, "4")
                b.ins("add.u32", result, result, "10")
                with b.if_then(inner):
                    b.ins("add.u32", result, result, "100")
            b.ins("add.u32", result, result, "1")
            b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", result)
            return b.build()
        got = self._run(build)
        tids = np.arange(32)
        expected = np.select(
            [tids < 4, tids < 16], [111, 11], default=1)
        assert (got == expected).all()

    def test_divergent_exit(self):
        def build():
            b = PTXBuilder("k", [("out", "u64"), ("n", "u32")])
            out = b.ld_param("u64", "out")
            n = b.ld_param("u32", "n")
            tid = b.global_tid_x()
            b.guard_tid_below(tid, n)
            pred = b.reg("pred")
            b.ins("setp.ge.u32", pred, tid, "20")
            b.ins("exit", pred=pred)  # threads >= 20 leave early
            val = b.imm_u32(77)
            b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", val)
            return b.build()
        got = self._run(build)
        assert (got[:20] == 77).all()
        assert (got[20:] == 0).all()

    def test_barrier_with_exited_warps_releases(self):
        """bar.sync counts only live warps, so warps that exited before
        the barrier do not hang the CTA (a GPGPU-Sim deadlock family the
        paper had to fix)."""
        ptx = HEADER + """
.entry k(.param .u64 out) {
    .reg .pred %p<1>;
    .reg .b32 %r<2>;
    .reg .b64 %rd<2>;
    mov.u32 %r0, %warpid;
    setp.ne.u32 %p0, %r0, 0;
    @%p0 exit;
    bar.sync 0;
    ld.param.u64 %rd0, [out];
    mov.u32 %r1, 42;
    st.global.u32 [%rd0], %r1;
    exit;
}"""
        rt = CudaRuntime()
        rt.load_ptx(ptx, "t")
        out = rt.malloc(4)
        rt.launch("k", 1, 64, [out])  # two warps; warp 1 exits early
        rt.synchronize()
        assert int.from_bytes(rt.memcpy_d2h(out, 4), "little") == 42

    def test_timing_deadlock_error_exists(self):
        assert issubclass(TimingDeadlockError, Exception)
