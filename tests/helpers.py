"""Test utilities: run single PTX instructions over input vectors."""

from __future__ import annotations

import numpy as np

from repro.cuda import CudaRuntime, FunctionalBackend
from repro.ptx.builder import PTXBuilder
from repro.quirks import FIXED, LegacyQuirks

_REG_FOR_WIDTH = {16: "u16", 32: "u32", 64: "u64"}


def op_kernel(op: str, in_widths: list, out_width: int = 32,
              pred_result: bool = False,
              dst_fill: int | None = None) -> str:
    """PTX of the one-instruction kernel ``op dst, src0[, src1[, src2]]``.

    A width of ``"pred"`` makes that source a predicate register (true
    where the loaded 32-bit word is non-zero).  With *dst_fill* the
    destination holds that 64-bit payload before ``op`` and its whole
    payload is stored after.
    """
    builder = PTXBuilder("op_test", [
        ("out", "u64"),
        *[(f"src{i}", "u64") for i in range(len(in_widths))],
        ("n", "u32"),
    ])
    out_ptr = builder.ld_param("u64", "out")
    src_ptrs = [builder.ld_param("u64", f"src{i}")
                for i in range(len(in_widths))]
    n = builder.ld_param("u32", "n")
    tid = builder.global_tid_x()
    builder.guard_tid_below(tid, n)
    arg_regs = []
    for ptr, width in zip(src_ptrs, in_widths):
        addr = builder.elem_addr(ptr, tid, elem_bytes=8)
        is_pred = width == "pred"
        reg = builder.reg(_REG_FOR_WIDTH[32 if is_pred else width])
        builder.ins(f"ld.global.b{32 if is_pred else width}", reg,
                    f"[{addr}]")
        if is_pred:
            word, reg = reg, builder.reg("pred")
            builder.ins("setp.ne.u32", reg, word, "0")
        arg_regs.append(reg)
    if dst_fill is not None:
        dst = builder.reg("pred" if pred_result
                          else _REG_FOR_WIDTH[out_width])
        builder.ins("mov.b64", dst, str(dst_fill))
        builder.ins(op, dst, *arg_regs)
        store_width = 64
    elif pred_result:
        pred = builder.reg("pred")
        builder.ins(op, pred, *arg_regs)
        dst = builder.reg("u32")
        builder.ins("selp.u32", dst, "1", "0", pred)
        store_width = 32
    else:
        dst = builder.reg(_REG_FOR_WIDTH[out_width])
        builder.ins(op, dst, *arg_regs)
        store_width = out_width
    out_addr = builder.elem_addr(out_ptr, tid, elem_bytes=8)
    builder.ins(f"st.global.b{store_width}", f"[{out_addr}]", dst)
    return builder.build()


def exec_op(op: str, sources: list[np.ndarray], *,
            in_widths: list, out_width: int = 32,
            quirks: LegacyQuirks = FIXED,
            pred_result: bool = False,
            fast_mode: str | None = None,
            dst_fill: int | None = None) -> np.ndarray:
    """Execute ``op dst, src0[, src1[, src2]]`` elementwise on the GPU sim.

    Sources/destination are raw bit payloads (uint64 arrays); widths pick
    the load/store width so bit patterns pass through unmodified.
    *fast_mode* picks the interpreter tier (default: the backend's own).
    """
    count = len(sources[0])
    ptx = op_kernel(op, in_widths, out_width, pred_result, dst_fill)
    backend = (None if fast_mode is None
               else FunctionalBackend(fast_mode=fast_mode))
    rt = CudaRuntime(quirks=quirks, backend=backend)
    rt.load_ptx(ptx, "op_test")
    out = rt.malloc(8 * count)
    rt.memset(out, 0, 8 * count)
    args: list = [out]
    for source in sources:
        ptr = rt.malloc(8 * count)
        rt.memcpy_h2d(ptr, np.asarray(source, dtype=np.uint64))
        args.append(ptr)
    args.append(count)
    rt.launch("op_test", ((count + 63) // 64, 1, 1), (64, 1, 1), args)
    raw = rt.memcpy_d2h(out, 8 * count)
    return np.frombuffer(raw, dtype=np.uint64).copy()


def f32_bits(values) -> np.ndarray:
    return np.asarray(np.float32(values)).view(np.uint32).astype(np.uint64)


def bits_f32(payloads: np.ndarray) -> np.ndarray:
    return payloads.astype(np.uint64).astype(np.uint32).view(np.float32)


def u64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def s32_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).astype(np.uint32).astype(
        np.uint64)


class CountedWorkload:
    """Wraps a debug-tool workload (``fn(dnn)``) and counts how often
    the tooling runs the application."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.calls = 0

    def __call__(self, dnn) -> None:
        self.calls += 1
        self.workload(dnn)
