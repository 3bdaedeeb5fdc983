"""Elementwise kernels: bias add, activations, scaling, SGD updates.

``scale_array`` is deliberately *also* defined (with different internals)
in :mod:`repro.cudnn.kernels.gemm` — cuDNN's source files reuse symbol
names across translation units, which is what broke GPGPU-Sim's combined
PTX loader (paper Section III-A, fix 2).
"""

from __future__ import annotations

from repro.ptx.builder import PTXBuilder, f32
from repro.cudnn.kernels.common import (
    exp_via_ex2, load_elems, store_elem, tanh_via_ex2)


def _grid_stride_prologue(b: PTXBuilder, n_param: str = "n"
                          ) -> tuple[str, str]:
    """Load n, compute the global tid, and guard the tail."""
    n = b.ld_param("u32", n_param)
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    return tid, n


def add_bias_nchw() -> str:
    """out[n,c,h,w] += bias[c]; one thread per element."""
    b = PTXBuilder("cudnn_add_bias_nchw",
                   [("out", "u64"), ("bias", "u64"), ("n", "u32"),
                    ("hw", "u32"), ("channels", "u32")])
    out = b.ld_param("u64", "out")
    bias = b.ld_param("u64", "bias")
    tid, _n = _grid_stride_prologue(b)
    hw = b.ld_param("u32", "hw")
    channels = b.ld_param("u32", "channels")
    chw = b.reg("u32")
    b.ins("mul.lo.s32", chw, hw, channels)
    # c = (tid % chw) / hw
    rem = b.reg("u32")
    b.ins("rem.u32", rem, tid, chw)
    c = b.reg("u32")
    b.ins("div.u32", c, rem, hw)
    bias_val = b.load_global_f32(b.elem_addr(bias, c))
    addr = b.elem_addr(out, tid)
    value = b.load_global_f32(addr)
    total = b.reg("f32")
    b.ins("add.f32", total, value, bias_val)
    b.store_global_f32(addr, total)
    return b.build()


def relu_forward() -> str:
    """out[i] = max(0, inp[i])."""
    b = PTXBuilder("cudnn_relu_fwd",
                   [("inp", "u64"), ("out", "u64"), ("n", "u32")])
    inp = b.ld_param("u64", "inp")
    out = b.ld_param("u64", "out")
    tid, _ = _grid_stride_prologue(b)
    value = b.load_global_f32(b.elem_addr(inp, tid))
    result = b.reg("f32")
    b.ins("max.f32", result, value, f32(0.0))
    b.store_global_f32(b.elem_addr(out, tid), result)
    return b.build()


def relu_backward() -> str:
    """dx[i] = x[i] > 0 ? dy[i] : 0."""
    b = PTXBuilder("cudnn_relu_bwd",
                   [("x", "u64"), ("dy", "u64"), ("dx", "u64"),
                    ("n", "u32")])
    x = b.ld_param("u64", "x")
    dy = b.ld_param("u64", "dy")
    dx = b.ld_param("u64", "dx")
    tid, _ = _grid_stride_prologue(b)
    xv = b.load_global_f32(b.elem_addr(x, tid))
    dyv = b.load_global_f32(b.elem_addr(dy, tid))
    pred = b.reg("pred")
    b.ins("setp.gt.f32", pred, xv, f32(0.0))
    result = b.reg("f32")
    b.ins("selp.f32", result, dyv, f32(0.0), pred)
    b.store_global_f32(b.elem_addr(dx, tid), result)
    return b.build()


def tanh_forward() -> str:
    """out[i] = tanh(inp[i]) via the SFU ex2 path."""
    b = PTXBuilder("cudnn_tanh_fwd",
                   [("inp", "u64"), ("out", "u64"), ("n", "u32")])
    inp = b.ld_param("u64", "inp")
    out = b.ld_param("u64", "out")
    tid, _ = _grid_stride_prologue(b)
    value = b.load_global_f32(b.elem_addr(inp, tid))
    b.store_global_f32(b.elem_addr(out, tid), tanh_via_ex2(b, value))
    return b.build()


def tanh_backward() -> str:
    """dx[i] = dy[i] * (1 - y[i]^2), with y the forward output."""
    b = PTXBuilder("cudnn_tanh_bwd",
                   [("y", "u64"), ("dy", "u64"), ("dx", "u64"),
                    ("n", "u32")])
    y = b.ld_param("u64", "y")
    dy = b.ld_param("u64", "dy")
    dx = b.ld_param("u64", "dx")
    tid, _ = _grid_stride_prologue(b)
    yv = b.load_global_f32(b.elem_addr(y, tid))
    dyv = b.load_global_f32(b.elem_addr(dy, tid))
    y2 = b.reg("f32")
    b.ins("mul.f32", y2, yv, yv)
    one_minus = b.reg("f32")
    b.ins("sub.f32", one_minus, f32(1.0), y2)
    result = b.reg("f32")
    b.ins("mul.f32", result, dyv, one_minus)
    b.store_global_f32(b.elem_addr(dx, tid), result)
    return b.build()


def sigmoid_forward() -> str:
    """out[i] = 1 / (1 + exp(-inp[i]))."""
    b = PTXBuilder("cudnn_sigmoid_fwd",
                   [("inp", "u64"), ("out", "u64"), ("n", "u32")])
    inp = b.ld_param("u64", "inp")
    out = b.ld_param("u64", "out")
    tid, _ = _grid_stride_prologue(b)
    value = b.load_global_f32(b.elem_addr(inp, tid))
    neg = b.reg("f32")
    b.ins("neg.f32", neg, value)
    expneg = exp_via_ex2(b, neg)
    denom = b.reg("f32")
    b.ins("add.f32", denom, expneg, f32(1.0))
    result = b.reg("f32")
    b.ins("rcp.rn.f32", result, denom)
    b.store_global_f32(b.elem_addr(out, tid), result)
    return b.build()


def scale_array() -> str:
    """y[i] = alpha * x[i] — symbol intentionally duplicated in gemm.py."""
    b = PTXBuilder("scale_array",
                   [("x", "u64"), ("y", "u64"), ("alpha", "f32"),
                    ("n", "u32")])
    x = b.ld_param("u64", "x")
    y = b.ld_param("u64", "y")
    alpha = b.ld_param("f32", "alpha")
    tid, _ = _grid_stride_prologue(b)
    value = b.load_global_f32(b.elem_addr(x, tid))
    result = b.reg("f32")
    b.ins("mul.f32", result, value, alpha)
    b.store_global_f32(b.elem_addr(y, tid), result)
    return b.build()


def axpy() -> str:
    """y[i] += alpha * x[i] — the SGD weight-update kernel."""
    b = PTXBuilder("cublas_saxpy",
                   [("x", "u64"), ("y", "u64"), ("alpha", "f32"),
                    ("n", "u32")])
    x = b.ld_param("u64", "x")
    y = b.ld_param("u64", "y")
    alpha = b.ld_param("f32", "alpha")
    tid, _ = _grid_stride_prologue(b)
    xv = b.load_global_f32(b.elem_addr(x, tid))
    addr = b.elem_addr(y, tid)
    yv = b.load_global_f32(addr)
    result = b.reg("f32")
    b.ins("fma.rn.f32", result, alpha, xv, yv)
    b.store_global_f32(addr, result)
    return b.build()


def add_tensors() -> str:
    """out[i] = alpha*a[i] + beta*b[i] (cudnnAddTensor workhorse)."""
    b = PTXBuilder("cudnn_add_tensors",
                   [("a", "u64"), ("bsrc", "u64"), ("out", "u64"),
                    ("alpha", "f32"), ("beta", "f32"), ("n", "u32")])
    a = b.ld_param("u64", "a")
    src_b = b.ld_param("u64", "bsrc")
    out = b.ld_param("u64", "out")
    alpha = b.ld_param("f32", "alpha")
    beta = b.ld_param("f32", "beta")
    tid, _ = _grid_stride_prologue(b)
    av = b.load_global_f32(b.elem_addr(a, tid))
    bv = b.load_global_f32(b.elem_addr(src_b, tid))
    term = b.reg("f32")
    b.ins("mul.f32", term, beta, bv)
    result = b.reg("f32")
    b.ins("fma.rn.f32", result, alpha, av, term)
    b.store_global_f32(b.elem_addr(out, tid), result)
    return b.build()


def fill_zero() -> str:
    """out[i] = 0 — used before atomic-scatter convolutions."""
    b = PTXBuilder("cudnn_fill_zero", [("out", "u64"), ("n", "u32")])
    out = b.ld_param("u64", "out")
    tid, _ = _grid_stride_prologue(b)
    zero = b.imm_f32(0.0)
    b.store_global_f32(b.elem_addr(out, tid), zero)
    return b.build()


def bias_grad_nchw() -> str:
    """dbias[c] = sum over n,h,w of dy[n,c,h,w]; one thread per channel."""
    b = PTXBuilder("cudnn_bias_grad",
                   [("dy", "u64"), ("dbias", "u64"), ("batch", "u32"),
                    ("channels", "u32"), ("hw", "u32")])
    dy = b.ld_param("u64", "dy")
    dbias = b.ld_param("u64", "dbias")
    batch = b.ld_param("u32", "batch")
    channels = b.ld_param("u32", "channels")
    hw = b.ld_param("u32", "hw")
    c = b.global_tid_x()
    b.guard_tid_below(c, channels)
    acc = b.imm_f32(0.0)
    n = b.reg("u32")
    with b.for_range(n, 0, batch):
        base = b.reg("u32")
        b.ins("mad.lo.s32", base, n, channels, c)
        start = b.reg("u32")
        b.ins("mul.lo.s32", start, base, hw)
        i = b.reg("u32")
        with b.for_range(i, 0, hw):
            idx = b.reg("u32")
            b.ins("add.s32", idx, start, i)
            value = b.load_global_f32(b.elem_addr(dy, idx))
            b.ins("add.f32", acc, acc, value)
    b.store_global_f32(b.elem_addr(dbias, c), acc)
    return b.build()


def fp32_to_fp16() -> str:
    """dst_half[i] = cvt.rn(src_float[i]) — the FP16 boundary cvt the
    paper added through an open-source half library."""
    b = PTXBuilder("cudnn_cvt_fp32_to_fp16",
                   [("src", "u64"), ("dst", "u64"), ("n", "u32")])
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    tid, _ = _grid_stride_prologue(b)
    value = b.load_global_f32(b.elem_addr(src, tid))
    store_elem(b, "f16", dst, tid, value)
    return b.build()


def fp16_to_fp32() -> str:
    """dst_float[i] = widen(src_half[i])."""
    b = PTXBuilder("cudnn_cvt_fp16_to_fp32",
                   [("src", "u64"), ("dst", "u64"), ("n", "u32")])
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    tid, _ = _grid_stride_prologue(b)
    value, = load_elems(b, "f16", (src, tid))
    b.store_global_f32(b.elem_addr(dst, tid), value)
    return b.build()


def transpose_f32() -> str:
    """dst[c*rows + r] = src[r*cols + c] for float32 matrices."""
    b = PTXBuilder("cudnn_transpose",
                   [("src", "u64"), ("dst", "u64"), ("rows", "u32"),
                    ("cols", "u32"), ("n", "u32")])
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    rows = b.ld_param("u32", "rows")
    cols = b.ld_param("u32", "cols")
    tid, _ = _grid_stride_prologue(b)
    r = b.reg("u32")
    b.ins("div.u32", r, tid, cols)
    c = b.reg("u32")
    b.ins("rem.u32", c, tid, cols)
    value = b.load_global_f32(b.elem_addr(src, tid))
    didx = b.reg("u32")
    b.ins("mad.lo.s32", didx, c, rows, r)
    b.store_global_f32(b.elem_addr(dst, didx), value)
    return b.build()


ALL_KERNELS = {
    "cudnn_transpose": transpose_f32,
    "cudnn_cvt_fp32_to_fp16": fp32_to_fp16,
    "cudnn_cvt_fp16_to_fp32": fp16_to_fp32,
    "cudnn_add_bias_nchw": add_bias_nchw,
    "cudnn_relu_fwd": relu_forward,
    "cudnn_relu_bwd": relu_backward,
    "cudnn_tanh_fwd": tanh_forward,
    "cudnn_tanh_bwd": tanh_backward,
    "cudnn_sigmoid_fwd": sigmoid_forward,
    "scale_array": scale_array,
    "cublas_saxpy": axpy,
    "cudnn_add_tensors": add_tensors,
    "cudnn_fill_zero": fill_zero,
    "cudnn_bias_grad": bias_grad_nchw,
}
