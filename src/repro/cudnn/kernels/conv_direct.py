"""Direct convolution kernels: implicit GEMM and the numbered algorithms.

cuDNN's "algo 0 / algo 1 / algo 3" families differ in how they
parallelise and whether they use atomics; we keep those behavioural
signatures (algo 0 scatters with ``red.global.add.f32``, algo 1 gathers
race-free, algo 3 tiles the reduction differently), which is what makes
their DRAM/IPC profiles distinguishable in the Section V case studies.
"""

from __future__ import annotations

from functools import partial

from repro.ptx.builder import PTXBuilder
from repro.cudnn.kernels.common import (
    input_coord, load_elems, nchw_index, open_kernel, output_coord,
    store_elem)

_GEOM = [
    ("batch", "u32"), ("channels", "u32"), ("height", "u32"),
    ("width", "u32"), ("filters", "u32"), ("ksize_h", "u32"),
    ("ksize_w", "u32"), ("out_h", "u32"), ("out_w", "u32"),
    ("pad_h", "u32"), ("pad_w", "u32"),
    ("stride_h", "u32"), ("stride_w", "u32"),
]


def _kcrs_index(b: PTXBuilder, g: dict[str, str], k: str, c: str, r: str,
                s: str) -> str:
    """Filter element ((k*C + c)*R + r)*S + s."""
    return b.flatten((k, c, r, s),
                     (g["channels"], g["ksize_h"], g["ksize_w"]))


def _nkpq_index(b: PTXBuilder, g: dict[str, str], n: str, k: str, p: str,
                q: str) -> str:
    """Output element ((n*K + k)*P + p)*Q + q."""
    return b.flatten((n, k, p, q), (g["filters"], g["out_h"], g["out_w"]))


def _per_output(b: PTXBuilder, g: dict[str, str], tid: str) -> list[str]:
    """tid -> (n, k, p, q): one thread per output element."""
    return b.unflatten(tid, b.strides((g["filters"], g["out_h"],
                                       g["out_w"])))


def _filter_taps(b: PTXBuilder, g: dict[str, str]):
    """The (c, r, s) reduction nest of one output element."""
    return b.loop_nest((0, g["channels"]), (0, g["ksize_h"]),
                       (0, g["ksize_w"]))


def _implicit_gemm_fwd(name: str, dtype: str) -> str:
    """Forward conv, one thread per output element, serial reduction
    over C*R*S; *dtype* is the in-memory element type (accumulation is
    always FP32)."""
    b, (image, weight, out), g, tid = open_kernel(
        name, ("image", "weight", "out"), _GEOM, skip=("batch",))
    n, k, p, q = _per_output(b, g, tid)
    acc = b.imm_f32(0.0)
    with _filter_taps(b, g) as (c, r, s):
        h, w, ok = input_coord(b, g, p, q, r, s)
        with b.if_then(ok):
            x_idx = nchw_index(b, g, n, c, h, w)
            w_idx = _kcrs_index(b, g, k, c, r, s)
            xv, wv = load_elems(b, dtype, (image, x_idx), (weight, w_idx))
            b.ins("fma.rn.f32", acc, xv, wv, acc)
    store_elem(b, dtype, out, tid, acc)
    return b.build()


def implicit_gemm_fwd() -> str:
    """Forward conv, implicit GEMM style (the data-hazard-bound profile
    of Figures 23-25)."""
    return _implicit_gemm_fwd("implicit_gemm_fwd", "f32")


def implicit_gemm_fwd_fp16() -> str:
    """FP16 forward convolution (paper Section III-D.1).

    Data is binary16 in memory; arithmetic accumulates in FP32 with
    ``cvt`` at the boundaries — the "pseudo half" configuration cuDNN
    uses when Tensor Cores are unavailable, and the path whose
    GPGPU-Sim support the paper added "using an open source library".
    """
    return _implicit_gemm_fwd("implicit_gemm_fwd_fp16", "f16")


def _scatter_algo0(name: str, pointers: tuple[str, str, str],
                   into_filter: bool) -> str:
    """Shared body of the two "algorithm 0" backward kernels.

    One thread per (n, k, p, q) multiplies its dy by the other input
    operand (the filter for dgrad, the image for wgrad) at each of the
    C*R*S taps and scatters the product into the last pointer (dx, or
    dw when *into_filter*) with ``red.global.add.f32``.
    Non-deterministic order, heavy partition traffic — the classic
    "algorithm 0" signature.
    """
    b, _, g, tid = open_kernel(name, pointers, _GEOM, skip=("batch",))
    read, target = (g[p] for p in pointers if p != "dy")
    n, k, p, q = _per_output(b, g, tid)
    dy_val = b.load_global_f32(b.elem_addr(g["dy"], tid))
    with _filter_taps(b, g) as (c, r, s):
        h, w, ok = input_coord(b, g, p, q, r, s)
        with b.if_then(ok):
            image_at = partial(nchw_index, b, g, n, c, h, w)
            filter_at = partial(_kcrs_index, b, g, k, c, r, s)
            read_at, target_at = ((image_at, filter_at) if into_filter
                                  else (filter_at, image_at))
            value = b.load_global_f32(b.elem_addr(read, read_at()))
            contrib = b.reg("f32")
            b.ins("mul.f32", contrib, dy_val, value)
            addr = b.elem_addr(target, target_at())
            b.ins("red.global.add.f32", f"[{addr}]", contrib)
    return b.build()


def conv_bwd_data_algo0() -> str:
    """dgrad algo 0: scatter dy through the filter with atomics."""
    return _scatter_algo0("conv_bwd_data_algo0", ("dy", "weight", "dx"),
                          into_filter=False)


def conv_bwd_filter_algo0() -> str:
    """wgrad algo 0: one thread per (n,k,p,q), atomic scatter into dw."""
    return _scatter_algo0("conv_bwd_filter_algo0", ("image", "dy", "dw"),
                          into_filter=True)


def conv_bwd_data_algo1() -> str:
    """dgrad algo 1: race-free gather — one thread per dx element."""
    b, (dy, weight, dx), g, tid = open_kernel(
        "conv_bwd_data_algo1", ("dy", "weight", "dx"), _GEOM,
        skip=("batch",))
    n, c, h, w = b.unflatten(tid, b.strides((g["channels"], g["height"],
                                             g["width"])))
    acc = b.imm_f32(0.0)
    with b.loop_nest((0, g["filters"]), (0, g["ksize_h"]),
                     (0, g["ksize_w"])) as (k, r, s):
        with output_coord(b, g, h, w, r, s) as (p, q):
            dy_idx = _nkpq_index(b, g, n, k, p, q)
            w_idx = _kcrs_index(b, g, k, c, r, s)
            dyv = b.load_global_f32(b.elem_addr(dy, dy_idx))
            wv = b.load_global_f32(b.elem_addr(weight, w_idx))
            b.ins("fma.rn.f32", acc, dyv, wv, acc)
    b.store_global_f32(b.elem_addr(dx, tid), acc)
    return b.build()


def _bwd_filter_gather(name: str, images_per_block: int) -> str:
    """Shared body for wgrad algo 1 / algo 3 (deterministic gathers).

    One thread per (k, c, r, s) filter element; algo 3 splits the batch
    across ctaid.y in chunks of *images_per_block* and accumulates with
    atomics across chunks (fewer serial loops per thread, more blocks).
    """
    b, (image, dy, dw), g, tid = open_kernel(
        name, ("image", "dy", "dw"), _GEOM)
    k, c, r, s = b.unflatten(tid, b.strides((g["channels"], g["ksize_h"],
                                             g["ksize_w"])))
    if images_per_block:
        chunk = b.special("%ctaid.y")
        n_start = b.reg("u32")
        b.ins("mul.lo.s32", n_start, chunk, str(images_per_block))
        n_end = b.reg("u32")
        b.ins("add.s32", n_end, n_start, str(images_per_block))
        b.ins("min.s32", n_end, n_end, g["batch"])
    else:
        n_start = b.imm_u32(0)
        n_end = g["batch"]

    acc = b.imm_f32(0.0)
    with b.loop_nest((n_start, n_end), (0, g["out_h"]),
                     (0, g["out_w"])) as (n, p, q):
        h, w, ok = input_coord(b, g, p, q, r, s)
        with b.if_then(ok):
            x_idx = nchw_index(b, g, n, c, h, w)
            dy_idx = _nkpq_index(b, g, n, k, p, q)
            xv = b.load_global_f32(b.elem_addr(image, x_idx))
            dyv = b.load_global_f32(b.elem_addr(dy, dy_idx))
            b.ins("fma.rn.f32", acc, xv, dyv, acc)
    addr = b.elem_addr(dw, tid)
    if images_per_block:
        b.ins("red.global.add.f32", f"[{addr}]", acc)
    else:
        b.store_global_f32(addr, acc)
    return b.build()


def conv_bwd_filter_algo1() -> str:
    return _bwd_filter_gather("conv_bwd_filter_algo1", 0)


def conv_bwd_filter_algo3() -> str:
    return _bwd_filter_gather("conv_bwd_filter_algo3", 2)


ALL_KERNELS = {
    "implicit_gemm_fwd": implicit_gemm_fwd,
    "implicit_gemm_fwd_fp16": implicit_gemm_fwd_fp16,
    "conv_bwd_data_algo0": conv_bwd_data_algo0,
    "conv_bwd_data_algo1": conv_bwd_data_algo1,
    "conv_bwd_filter_algo0": conv_bwd_filter_algo0,
    "conv_bwd_filter_algo1": conv_bwd_filter_algo1,
    "conv_bwd_filter_algo3": conv_bwd_filter_algo3,
}
