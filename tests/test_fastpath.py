"""Differential testing: the compiled scalar tier must match the
reference interpreter bit-for-bit.

Random mini-kernels are executed twice — once on the stepped rendering
of the superblock emitters (``fast_mode="fastpath"``) and once through
the generic dispatch (``fast_mode="reference"``) — and the final memory
images are compared.  This is the repository's analogue of the paper's
differential methodology, applied to our own optimisation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cuda import CudaRuntime
from repro.cuda.runtime import FunctionalBackend, KernelRunResult
from repro.errors import SimulationFault
from repro.functional.executor import (
    FAST_MODES, ExecRecord, FunctionalEngine, RunStats)
from repro.functional.superblock import _BlockCodegen, _emit
from repro.ptx.builder import PTXBuilder, f32
from repro.ptx.parser import parse_module

_OPS_BIN_INT = ["add.s32", "sub.u32", "and.b32", "or.b32", "xor.b32",
                "mul.lo.s32", "div.u32", "rem.u32", "div.s32", "rem.s32",
                "min.s32", "max.u32", "shl.b32", "shr.u32", "shr.s32"]
_OPS_BIN_F32 = ["add.f32", "sub.f32", "mul.f32", "div.rn.f32",
                "min.f32", "max.f32"]
_OPS_SFU = ["sqrt.rn.f32", "rsqrt.approx.f32", "rcp.rn.f32",
            "ex2.approx.f32", "lg2.approx.f32", "sin.approx.f32",
            "cos.approx.f32"]


def _mixed_kernel(seed: int) -> str:
    """A random straight-line kernel mixing int/float/SFU/select ops."""
    rng = np.random.default_rng(seed)
    b = PTXBuilder("mix", [("xs", "u64"), ("out", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    out = b.ld_param("u64", "out")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    iv = [b.reg("u32") for _ in range(3)]
    fv = [b.reg("f32") for _ in range(3)]
    addr = b.elem_addr(xs, tid)
    b.ins("ld.global.u32", iv[0], f"[{addr}]")
    b.ins("add.u32", iv[1], iv[0], "12345")
    b.ins("or.b32", iv[2], iv[0], "7")  # never zero: safe divisor
    b.ins("cvt.rn.f32.u32", fv[0], iv[0])
    b.ins("mul.f32", fv[1], fv[0], f32(0.001))
    b.ins("mov.f32", fv[2], f32(1.0))
    for _ in range(12):
        kind = rng.integers(0, 4)
        if kind == 0:
            op = _OPS_BIN_INT[rng.integers(0, len(_OPS_BIN_INT))]
            d, a, c = rng.integers(0, 3, size=3)
            src2 = iv[c]
            if "shl" in op or "shr" in op:
                src2 = str(int(rng.integers(0, 36)))
            b.ins(op, iv[d], iv[a], src2)
        elif kind == 1:
            op = _OPS_BIN_F32[rng.integers(0, len(_OPS_BIN_F32))]
            d, a, c = rng.integers(0, 3, size=3)
            b.ins(op, fv[d], fv[a], fv[c])
        elif kind == 2:
            op = _OPS_SFU[rng.integers(0, len(_OPS_SFU))]
            d, a = rng.integers(0, 3, size=2)
            b.ins(op, fv[d], fv[a])
        else:
            d, a, c = rng.integers(0, 3, size=3)
            pred = b.reg("pred")
            b.ins("setp.lt.s32", pred, iv[a], iv[c])
            b.ins("selp.b32", iv[d], iv[a], iv[c], pred)
    result = b.reg("u32")
    fbits = b.reg("u32")
    b.ins("mov.b32", fbits, fv[0])
    b.ins("xor.b32", result, iv[0], fbits)
    b.ins("xor.b32", result, result, iv[1])
    b.ins("xor.b32", result, result, iv[2])
    b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", result)
    return b.build()


def _run(ptx: str, inputs: np.ndarray, *, disable_fast: bool) -> np.ndarray:
    mode = "reference" if disable_fast else "fastpath"
    rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
    rt.load_ptx(ptx, f"mix_{mode}")
    n = len(inputs)
    xs = rt.malloc(4 * n)
    rt.memcpy_h2d(xs, inputs.astype(np.uint32))
    out = rt.malloc(4 * n)
    rt.launch("mix", ((n + 63) // 64, 1, 1), (64, 1, 1), [xs, out, n])
    return np.frombuffer(rt.memcpy_d2h(out, 4 * n), dtype=np.uint32)


@pytest.mark.parametrize("seed", range(8))
def test_fastpath_matches_reference(seed):
    ptx = _mixed_kernel(seed)
    rng = np.random.default_rng(seed + 1000)
    inputs = rng.integers(0, 2 ** 32, size=96, dtype=np.uint64
                          ).astype(np.uint32)
    fast = _run(ptx, inputs, disable_fast=False)
    slow = _run(ptx, inputs, disable_fast=True)
    assert (fast == slow).all()


@given(seed=st.integers(min_value=100, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_fastpath_matches_reference_property(seed):
    ptx = _mixed_kernel(seed)
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, 2 ** 32, size=64, dtype=np.uint64
                          ).astype(np.uint32)
    assert (_run(ptx, inputs, disable_fast=False)
            == _run(ptx, inputs, disable_fast=True)).all()


def _emitted(inst) -> bool:
    return _emit(inst, _BlockCodegen(trace=True))


def test_emitters_cover_common_ops():
    ptx = _mixed_kernel(0)
    module = parse_module(ptx, "cov")
    kernel = module.kernel("mix")
    coverage = sum(map(_emitted, kernel.body)) / len(kernel.body)
    assert coverage > 0.75, f"emitter coverage too low: {coverage:.0%}"


@pytest.mark.parametrize("seed", range(3))
def test_step_path_mem_accesses_match_reference(seed):
    """Every ld/st of the mixed kernel reports the same per-lane
    ``(space, addr, nbytes, is_write)`` tuples on the stepped emitters
    as on the reference tier — what the timing model, the sanitizer
    hook and the fault injector read."""
    ptx = _mixed_kernel(seed)
    rng = np.random.default_rng(seed + 3000)
    inputs = rng.integers(0, 2 ** 32, size=96, dtype=np.uint64
                          ).astype(np.uint32)
    traces = {}
    for mode in ("fastpath", "reference"):
        records: list[ExecRecord] = []
        rt = CudaRuntime(backend=FunctionalBackend(
            fast_mode=mode, on_exec=records.append))
        rt.load_ptx(ptx, f"mix_trace_{mode}")
        n = len(inputs)
        xs = rt.malloc(4 * n)
        rt.memcpy_h2d(xs, inputs)
        out = rt.malloc(4 * n)
        # 40 threads per CTA: the second warp is partial.
        rt.launch("mix", ((n + 39) // 40, 1, 1), (40, 1, 1), [xs, out, n])
        rt.synchronize()
        traces[mode] = [(r.pc, r.active_mask, r.mem_accesses)
                        for r in records
                        if r.inst.opcode in ("ld", "st")]
    assert traces["fastpath"], "expected traced loads and stores"
    assert any(len(acc) < 32 for _pc, _mask, acc in traces["fastpath"])
    assert all(len(acc) == bin(mask).count("1")
               for _pc, mask, acc in traces["fastpath"])
    assert traces["fastpath"] == traces["reference"]


def _wild_shared_kernel(opcode: str) -> str:
    """Every lane indexes a 24-word shared array by ``%tid.x``: lane 24
    is the first one out of bounds."""
    b = PTXBuilder("wild", [("out", "u64")])
    b.shared("buf", "u32", 24)
    tid = b.special("%tid.x")
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    value = b.reg("u32")
    b.ins("mov.u32", value, "7")
    addr = b.elem_addr(base, tid)
    if opcode == "ld":
        b.ins("ld.shared.u32", value, f"[{addr}]")
    else:
        b.ins("st.shared.u32", f"[{addr}]", value)
    return b.build()


class _FaultProbeBackend(FunctionalBackend):
    """Steps warp 0 of the first CTA until it faults and keeps what the
    fault left in ``warp.mem_trace``."""

    def execute(self, launch):
        engine = FunctionalEngine(launch, fast_mode=self.fast_mode)
        warp = next(engine.iter_ctas()).warps[0]
        with pytest.raises(SimulationFault, match="outside arena"):
            while engine.step_warp(warp) is not None:
                pass
        self.left = (warp.simt.pc, list(warp.mem_trace))
        return KernelRunResult()


@pytest.mark.parametrize("opcode", ["ld", "st"])
def test_step_path_faulting_access_leaves_the_reference_trace(opcode):
    """A faulting ``ld``/``st`` stops at the same pc with the same
    partial trace — the lanes before the fault plus the faulting one —
    on the stepped emitters as on the reference tier."""
    left = {}
    for mode in ("fastpath", "reference"):
        backend = _FaultProbeBackend(fast_mode=mode)
        rt = CudaRuntime(backend=backend)
        rt.load_ptx(_wild_shared_kernel(opcode), f"wild_{opcode}_{mode}")
        rt.launch("wild", (1, 1, 1), (32, 1, 1), [rt.malloc(4)])
        rt.synchronize()
        left[mode] = backend.left
    _pc, trace = left["fastpath"]
    assert trace[-1] == ("shared", 96, 4, opcode == "st")
    assert len(trace) == 25
    assert left["fastpath"] == left["reference"]


# ----------------------------------------------------------------------
# Tri-modal differential: reference vs fastpath vs superblock
# ----------------------------------------------------------------------

from repro.cublas import Cublas  # noqa: E402
from repro.cudnn import Cudnn, build_application_binary  # noqa: E402
from repro.cudnn.algos import ConvFwdAlgo  # noqa: E402
from repro.nn import synthetic_mnist  # noqa: E402
from repro.nn.lenet import LeNet, LeNetConfig  # noqa: E402


class _SnapshottingBackend(FunctionalBackend):
    """Backend recording, per launch, the kernel name, the dynamic
    instruction count and every warp's final register file."""

    def __init__(self, fast_mode: str) -> None:
        super().__init__(fast_mode=fast_mode)
        self.trace: list[tuple[str, int, list, frozenset]] = []

    def execute(self, launch):
        engine = FunctionalEngine(launch, fast_mode=self.fast_mode)
        stats = RunStats()
        regdump = []
        for cta in engine.iter_ctas():
            stats.ctas_launched += 1
            stats.warps_launched += len(cta.warps)
            engine.run_cta(cta, stats)
            regdump.append([[dict(regs) for regs in warp.regs]
                            for warp in cta.warps])
        # Registers whose final writeback the liveness flush dropped in
        # any fused block: stale/absent in the post-exit dump, by design.
        pruned = frozenset().union(
            *(block.pruned
              for block in engine._superblocks.values())) \
            if engine._superblocks else frozenset()
        self.trace.append((launch.kernel.name, stats.instructions,
                           regdump, pruned))
        return KernelRunResult(
            instructions=stats.instructions, cycles=0,
            stats={"per_opcode": stats.dynamic_per_opcode})


def _drive_library_workload(backend: _SnapshottingBackend):
    """Run every cuDNN conv algorithm plus the cuBLAS entry points."""
    rt = CudaRuntime(backend=backend)
    rt.load_binary(build_application_binary())
    dnn = Cudnn(rt)
    outputs = []
    for conv1, conv2 in ((ConvFwdAlgo.WINOGRAD_NONFUSED,
                          ConvFwdAlgo.IMPLICIT_GEMM),
                         (ConvFwdAlgo.FFT, ConvFwdAlgo.WINOGRAD)):
        model = LeNet(dnn, LeNetConfig.reduced(conv1_fwd=conv1,
                                               conv2_fwd=conv2))
        images, _labels = synthetic_mnist(1, model.config.input_hw, seed=7)
        outputs.append(model.forward(images))

    blas = Cublas(rt)
    rng = np.random.default_rng(11)
    m = n = k = 8
    a, b, c = (rt.malloc(4 * m * k), rt.malloc(4 * k * n),
               rt.malloc(4 * m * n))
    for ptr, count in ((a, m * k), (b, k * n), (c, m * n)):
        rt.memcpy_h2d(ptr, rng.random(count, dtype=np.float32))
    blas.sgemm(a, b, c, m, n, k)
    x, y = rt.malloc(4 * k), rt.malloc(4 * m)
    rt.memcpy_h2d(x, rng.random(k, dtype=np.float32))
    rt.memcpy_h2d(y, rng.random(m, dtype=np.float32))
    blas.sgemv_t(a, x, y, rows=m, cols=k)
    blas.saxpy(x, y, 0.5, count=min(m, k))
    blas.sscal(y, 1.25, count=m)
    outputs.append(np.frombuffer(rt.memcpy_d2h(c, 4 * m * n),
                                 dtype=np.float32))
    outputs.append(np.frombuffer(rt.memcpy_d2h(y, 4 * m),
                                 dtype=np.float32))

    pages = dict(rt.global_mem.iter_pages())
    return outputs, pages


@pytest.mark.slow
def test_library_kernels_trimodal_differential():
    """Every cuDNN/cuBLAS kernel, bit-identical across all three tiers.

    The final global-memory image, per-launch instruction counts and
    the launch sequence must match the reference interpreter exactly in
    every tier.  Register files (per warp, post-exit) match exactly in
    the fastpath tier (the stepped rendering of the emitters writes
    every register back); the superblock tier is allowed to differ only on
    the registers its liveness flush provably pruned (each block
    reports them in ``Superblock.pruned``) — every other register must
    still be bit-identical, and no tier may invent registers.
    """
    runs = {}
    for mode in FAST_MODES:
        backend = _SnapshottingBackend(mode)
        outputs, pages = _drive_library_workload(backend)
        runs[mode] = (backend.trace, outputs, pages)

    ref_trace, ref_outputs, ref_pages = runs["reference"]
    kernels = {entry[0] for entry in ref_trace}
    assert any("gemm" in name for name in kernels)
    assert len(kernels) >= 8, f"workload too narrow: {sorted(kernels)}"

    for mode in ("fastpath", "superblock"):
        trace, outputs, pages = runs[mode]
        assert [t[0] for t in trace] == [t[0] for t in ref_trace]
        assert [t[1] for t in trace] == [t[1] for t in ref_trace]
        for (name, _insns, regs, pruned), (_n, _i, ref_regs, _p) in zip(
                trace, ref_trace):
            if mode == "fastpath":
                assert regs == ref_regs, \
                    f"register files diverge in {name}"
                continue
            for cta, ref_cta in zip(regs, ref_regs):
                for warp, ref_warp in zip(cta, ref_cta):
                    for lane_regs, ref_lane in zip(warp, ref_warp):
                        assert set(lane_regs) <= set(ref_lane), \
                            f"{name}: superblock invented registers"
                        for reg, value in ref_lane.items():
                            if reg in pruned:
                                continue
                            assert lane_regs.get(reg) == value, \
                                f"live register {reg} diverges in {name}"
        for got, want in zip(outputs, ref_outputs):
            assert got.tobytes() == want.tobytes()
        assert pages == ref_pages


@pytest.mark.parametrize("seed", range(4))
def test_superblock_matches_fastpath_and_reference(seed):
    ptx = _mixed_kernel(seed)
    rng = np.random.default_rng(seed + 2000)
    inputs = rng.integers(0, 2 ** 32, size=96, dtype=np.uint64
                          ).astype(np.uint32)
    outs = {}
    for mode in FAST_MODES:
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
        rt.load_ptx(ptx, f"mix_sb_{mode}")
        n = len(inputs)
        xs = rt.malloc(4 * n)
        rt.memcpy_h2d(xs, inputs)
        out = rt.malloc(4 * n)
        rt.launch("mix", ((n + 63) // 64, 1, 1), (64, 1, 1), [xs, out, n])
        outs[mode] = np.frombuffer(rt.memcpy_d2h(out, 4 * n),
                                   dtype=np.uint32)
    assert (outs["superblock"] == outs["reference"]).all()
    assert (outs["fastpath"] == outs["reference"]).all()


def test_selp_float_immediates_compile_and_match():
    """selp.f32 with float immediates is emitted (not handed to the
    reference) and agrees with the reference interpreter."""
    b = PTXBuilder("selpf", [("xs", "u64"), ("out", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    out = b.ld_param("u64", "out")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    x = b.reg("f32")
    picked = b.reg("f32")
    pred = b.reg("pred")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("setp.gt.f32", pred, x, f32(0.5))
    b.ins("selp.f32", picked, f32(1.5), f32(-2.25), pred)
    b.ins("st.global.f32", f"[{b.elem_addr(out, tid)}]", picked)
    ptx = b.build()

    module = parse_module(ptx, "selpf")
    kernel = module.kernel("selpf")
    selps = [inst for inst in kernel.body
             if inst.opcode.startswith("selp")]
    assert selps and all(map(_emitted, selps))

    rng = np.random.default_rng(5)
    values = rng.random(64, dtype=np.float32)
    results = {}
    for mode in ("reference", "fastpath"):
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
        rt.load_ptx(ptx, f"selpf_{mode}")
        xs_ptr = rt.malloc(4 * 64)
        rt.memcpy_h2d(xs_ptr, values)
        out_ptr = rt.malloc(4 * 64)
        rt.launch("selpf", (1, 1, 1), (64, 1, 1), [xs_ptr, out_ptr, 64])
        results[mode] = np.frombuffer(rt.memcpy_d2h(out_ptr, 4 * 64),
                                      dtype=np.float32)
    expected = np.where(values > 0.5, np.float32(1.5), np.float32(-2.25))
    assert (results["fastpath"] == results["reference"]).all()
    assert (results["fastpath"] == expected).all()
