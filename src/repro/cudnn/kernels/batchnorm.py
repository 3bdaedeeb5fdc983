"""Spatial batch normalisation kernels (cudnnBatchNormalization*).

Layout: NCHW activations, per-channel (gamma, beta, mean, var) vectors.
Forward-training computes batch statistics and saves the inverse
standard deviation for the backward pass, exactly like cuDNN's
``savedMean``/``savedInvVariance``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.ptx.builder import PTXBuilder, f32
from repro.cudnn.kernels.common import open_kernel

_DIMS = [("batch", "u32"), ("channels", "u32"), ("hw", "u32")]


def _open_per_channel(name: str, pointers: tuple[str, ...],
                      extra: tuple[tuple[str, str], ...] = ()):
    """Start a one-thread-per-channel reduction kernel: load every
    parameter but *extra* (which the caller loads itself), and exit
    threads past the channel count.  Returns ``(builder, parameter
    registers by name, c)``."""
    b = PTXBuilder(name, [*((p, "u64") for p in pointers), *_DIMS, *extra])
    regs = b.ld_params(skip=tuple(name for name, _ in extra))
    c = b.global_tid_x()
    b.guard_tid_below(c, regs["channels"])
    return b, regs, c


@contextmanager
def _channel_slice(b: PTXBuilder, dims: dict[str, str], c: str):
    """Loop over the (N, H*W) slice of channel *c*; yields the flat
    element index inside the loop body."""
    n = b.reg("u32")
    with b.for_range(n, 0, dims["batch"]):
        base = b.flatten((n, c), (dims["channels"],))
        b.ins("mul.lo.s32", base, base, dims["hw"])
        i = b.reg("u32")
        with b.for_range(i, 0, dims["hw"]):
            idx = b.reg("u32")
            b.ins("add.s32", idx, base, i)
            yield idx


def _channel_of(b: PTXBuilder, dims: dict[str, str], tid: str) -> str:
    """c = (tid % (C*HW)) / HW for a flat NCHW element id."""
    chw = b.reg("u32")
    b.ins("mul.lo.s32", chw, dims["channels"], dims["hw"])
    _, c_hw = b.div_mod(tid, chw, need_div=False)
    c, _ = b.div_mod(c_hw, dims["hw"], need_rem=False)
    return c


def _normalise(b: PTXBuilder, xv: str, mu: str, istd: str) -> str:
    """xhat = (x - mean) * invstd."""
    xhat = b.reg("f32")
    b.ins("sub.f32", xhat, xv, mu)
    b.ins("mul.f32", xhat, xhat, istd)
    return xhat


def bn_stats() -> str:
    """mean[c], invstd[c] over the (N, H, W) slice of channel c."""
    b, p, c = _open_per_channel("cudnn_bn_stats", ("x", "mean", "invstd"),
                                extra=(("eps", "f32"),))
    eps = b.ld_param("f32", "eps")

    total = b.reg("u32")
    b.ins("mul.lo.s32", total, p["batch"], p["hw"])
    ftotal = b.reg("f32")
    b.ins("cvt.rn.f32.u32", ftotal, total)
    acc = b.imm_f32(0.0)
    acc_sq = b.imm_f32(0.0)
    with _channel_slice(b, p, c) as idx:
        value = b.load_global_f32(b.elem_addr(p["x"], idx))
        b.ins("add.f32", acc, acc, value)
        b.ins("fma.rn.f32", acc_sq, value, value, acc_sq)
    mean = b.reg("f32")
    b.ins("div.rn.f32", mean, acc, ftotal)
    mean_sq = b.reg("f32")
    b.ins("div.rn.f32", mean_sq, acc_sq, ftotal)
    var = b.reg("f32")
    b.ins("fma.rn.f32", var, mean, mean, f32(0.0))
    b.ins("sub.f32", var, mean_sq, var)
    b.ins("max.f32", var, var, f32(0.0))
    b.ins("add.f32", var, var, eps)
    invstd = b.reg("f32")
    b.ins("rsqrt.approx.f32", invstd, var)
    b.store_global_f32(b.elem_addr(p["mean"], c), mean)
    b.store_global_f32(b.elem_addr(p["invstd"], c), invstd)
    return b.build()


def bn_forward() -> str:
    """y = gamma[c] * (x - mean[c]) * invstd[c] + beta[c], per element."""
    b, (x, y, gamma, beta, mean_ptr, invstd_ptr), dims, tid = open_kernel(
        "cudnn_bn_fwd", ("x", "y", "gamma", "beta", "mean", "invstd"),
        _DIMS, skip=("batch",))
    c = _channel_of(b, dims, tid)

    value = b.load_global_f32(b.elem_addr(x, tid))
    mu = b.load_global_f32(b.elem_addr(mean_ptr, c))
    istd = b.load_global_f32(b.elem_addr(invstd_ptr, c))
    g = b.load_global_f32(b.elem_addr(gamma, c))
    bt = b.load_global_f32(b.elem_addr(beta, c))
    centred = b.reg("f32")
    b.ins("sub.f32", centred, value, mu)
    xhat = b.reg("f32")
    b.ins("mul.f32", xhat, centred, istd)
    result = b.reg("f32")
    b.ins("fma.rn.f32", result, g, xhat, bt)
    b.store_global_f32(b.elem_addr(y, tid), result)
    return b.build()


def bn_backward_reduce() -> str:
    """Per channel: dbeta = sum dy, dgamma = sum dy*xhat."""
    b, p, c = _open_per_channel(
        "cudnn_bn_bwd_reduce",
        ("x", "dy", "mean", "invstd", "dgamma", "dbeta"))

    mu = b.load_global_f32(b.elem_addr(p["mean"], c))
    istd = b.load_global_f32(b.elem_addr(p["invstd"], c))
    sum_dy = b.imm_f32(0.0)
    sum_dy_xhat = b.imm_f32(0.0)
    with _channel_slice(b, p, c) as idx:
        dyv = b.load_global_f32(b.elem_addr(p["dy"], idx))
        xv = b.load_global_f32(b.elem_addr(p["x"], idx))
        b.ins("add.f32", sum_dy, sum_dy, dyv)
        xhat = _normalise(b, xv, mu, istd)
        b.ins("fma.rn.f32", sum_dy_xhat, dyv, xhat, sum_dy_xhat)
    b.store_global_f32(b.elem_addr(p["dbeta"], c), sum_dy)
    b.store_global_f32(b.elem_addr(p["dgamma"], c), sum_dy_xhat)
    return b.build()


def bn_backward_dx() -> str:
    """dx = gamma*invstd/M * (M*dy - dbeta - xhat*dgamma), per element."""
    (b, (x, dy, dx, gamma, mean_ptr, invstd_ptr, dgamma_ptr, dbeta_ptr),
     dims, tid) = open_kernel(
        "cudnn_bn_bwd_dx", ("x", "dy", "dx", "gamma", "mean", "invstd",
                            "dgamma", "dbeta"), _DIMS)
    c = _channel_of(b, dims, tid)
    m = b.reg("u32")
    b.ins("mul.lo.s32", m, dims["batch"], dims["hw"])
    fm = b.reg("f32")
    b.ins("cvt.rn.f32.u32", fm, m)

    xv = b.load_global_f32(b.elem_addr(x, tid))
    dyv = b.load_global_f32(b.elem_addr(dy, tid))
    mu = b.load_global_f32(b.elem_addr(mean_ptr, c))
    istd = b.load_global_f32(b.elem_addr(invstd_ptr, c))
    g = b.load_global_f32(b.elem_addr(gamma, c))
    dg = b.load_global_f32(b.elem_addr(dgamma_ptr, c))
    db = b.load_global_f32(b.elem_addr(dbeta_ptr, c))

    xhat = _normalise(b, xv, mu, istd)
    term = b.reg("f32")
    b.ins("mul.f32", term, dyv, fm)
    b.ins("sub.f32", term, term, db)
    correction = b.reg("f32")
    b.ins("mul.f32", correction, xhat, dg)
    b.ins("sub.f32", term, term, correction)
    scale = b.reg("f32")
    b.ins("mul.f32", scale, g, istd)
    b.ins("div.rn.f32", scale, scale, fm)
    result = b.reg("f32")
    b.ins("mul.f32", result, scale, term)
    b.store_global_f32(b.elem_addr(dx, tid), result)
    return b.build()


ALL_KERNELS = {
    "cudnn_bn_stats": bn_stats,
    "cudnn_bn_fwd": bn_forward,
    "cudnn_bn_bwd_reduce": bn_backward_reduce,
    "cudnn_bn_bwd_dx": bn_backward_dx,
}
