"""Cross-channel Local Response Normalisation (the LeNet "LRN" kernel).

LRN is one of the per-kernel correlation outliers in the paper's
Figure 7.  The forward kernel exists in two builds: a plain global-memory
version and a *texture* version that fetches the input through
``tex.2d`` — exercising the texture name → texref → cudaArray plumbing
of Section III-C inside a real cuDNN-style call.

out = x / (k + (alpha/n) * sum_{window} x^2) ** beta
The denominator ("scale") is saved for the backward pass.
"""

from __future__ import annotations

from repro.ptx.builder import PTXBuilder, f32
from repro.cudnn.kernels.common import nchw_index, open_kernel

LRN_TEXTURE_NAME = "cudnn_lrn_input_tex"

_GEOM = [
    ("batch", "u32"), ("channels", "u32"), ("height", "u32"),
    ("width", "u32"), ("nsize", "u32"),
]


def _pow_f32(b: PTXBuilder, base: str, exponent: str) -> str:
    """base**exponent = ex2(exponent * lg2(base)), base > 0."""
    log2b = b.reg("f32")
    b.ins("lg2.approx.f32", log2b, base)
    scaled = b.reg("f32")
    b.ins("mul.f32", scaled, exponent, log2b)
    out = b.reg("f32")
    b.ins("ex2.approx.f32", out, scaled)
    return out


def _open_lrn(name: str, pointers: tuple[str, ...],
              coefficients: tuple[str, ...]):
    """Prologue both directions share: one thread per (n, c, h, w) and
    the clamped channel window ``[c - nsize/2, c + nsize/2]`` it
    normalises over.  Returns ``(builder, pointer registers, scalars,
    tid, (n, h, w), (first channel, one past the last))``."""
    # ``batch`` is declared for the host launch math; the kernels index
    # with n = tid / (C*H*W) and never read it.
    b, ptrs, g, tid = open_kernel(
        name, pointers, [*_GEOM, *((c, "f32") for c in coefficients)],
        skip=("batch",))
    n, c, h, w = b.unflatten(tid, b.strides((g["channels"], g["height"],
                                             g["width"])))
    half = b.reg("u32")
    b.ins("div.u32", half, g["nsize"], "2")
    c_lo = b.reg("s32")
    b.ins("sub.s32", c_lo, c, half)
    b.ins("max.s32", c_lo, c_lo, "0")
    c_hi = b.reg("s32")
    b.ins("add.s32", c_hi, c, half)
    last = b.reg("s32")
    b.ins("sub.s32", last, g["channels"], "1")
    b.ins("min.s32", c_hi, c_hi, last)
    b.ins("add.s32", c_hi, c_hi, "1")
    return b, ptrs, g, tid, (n, h, w), (c_lo, c_hi)


def _lrn_forward(name: str, use_texture: bool) -> str:
    b, (inp, out, scale_buf), g, tid, (n, h, w), window = _open_lrn(
        name, ("inp", "out", "scale"), ("alpha", "beta", "kconst"))
    sumsq = b.imm_f32(0.0)
    with b.loop_nest(window) as (cc,):
        if use_texture:
            # Texture layout: width = W, height = N*C*H.
            ty = b.flatten((n, cc, h), (g["channels"], g["height"]))
            texel = b.reg("f32")
            g1, g2, g3 = b.reg("f32"), b.reg("f32"), b.reg("f32")
            b.ins("tex.2d.v4.f32.s32",
                  "{" + ", ".join([texel, g1, g2, g3]) + "}",
                  f"[{LRN_TEXTURE_NAME}, {{{w}, {ty}}}]")
            value = texel
        else:
            idx = nchw_index(b, g, n, cc, h, w)
            value = b.load_global_f32(b.elem_addr(inp, idx))
        b.ins("fma.rn.f32", sumsq, value, value, sumsq)

    nf = b.reg("f32")
    b.ins("cvt.rn.f32.u32", nf, g["nsize"])
    coeff = b.reg("f32")
    b.ins("div.rn.f32", coeff, g["alpha"], nf)
    denom = b.reg("f32")
    b.ins("fma.rn.f32", denom, coeff, sumsq, g["kconst"])
    b.store_global_f32(b.elem_addr(scale_buf, tid), denom)
    powered = _pow_f32(b, denom, g["beta"])
    x_val = b.load_global_f32(b.elem_addr(inp, tid))
    result = b.reg("f32")
    b.ins("div.rn.f32", result, x_val, powered)
    b.store_global_f32(b.elem_addr(out, tid), result)
    return b.build()


def lrn_forward() -> str:
    return _lrn_forward("cudnn_lrn_fwd", use_texture=False)


def lrn_forward_tex() -> str:
    return _lrn_forward("cudnn_lrn_fwd_tex", use_texture=True)


def lrn_backward() -> str:
    """dx = dy*scale^-beta - (2ab/n) * x * sum_w dy*y/scale."""
    b, (x, y, dy, scale_buf, dx), g, tid, (n, h, w), window = _open_lrn(
        "cudnn_lrn_bwd", ("x", "y", "dy", "scale", "dx"),
        ("alpha", "beta"))
    window_sum = b.imm_f32(0.0)
    with b.loop_nest(window) as (cc,):
        idx = nchw_index(b, g, n, cc, h, w)
        dyv = b.load_global_f32(b.elem_addr(dy, idx))
        yv = b.load_global_f32(b.elem_addr(y, idx))
        sv = b.load_global_f32(b.elem_addr(scale_buf, idx))
        term = b.reg("f32")
        b.ins("mul.f32", term, dyv, yv)
        b.ins("div.rn.f32", term, term, sv)
        b.ins("add.f32", window_sum, window_sum, term)

    scale_v = b.load_global_f32(b.elem_addr(scale_buf, tid))
    neg_beta = b.reg("f32")
    b.ins("neg.f32", neg_beta, g["beta"])
    pow_term = _pow_f32(b, scale_v, neg_beta)
    dyv = b.load_global_f32(b.elem_addr(dy, tid))
    first = b.reg("f32")
    b.ins("mul.f32", first, dyv, pow_term)
    nf = b.reg("f32")
    b.ins("cvt.rn.f32.u32", nf, g["nsize"])
    coeff = b.reg("f32")
    b.ins("mul.f32", coeff, g["alpha"], g["beta"])
    b.ins("mul.f32", coeff, coeff, f32(2.0))
    b.ins("div.rn.f32", coeff, coeff, nf)
    xv = b.load_global_f32(b.elem_addr(x, tid))
    second = b.reg("f32")
    b.ins("mul.f32", second, coeff, xv)
    b.ins("mul.f32", second, second, window_sum)
    result = b.reg("f32")
    b.ins("sub.f32", result, first, second)
    b.store_global_f32(b.elem_addr(dx, tid), result)
    return b.build()


ALL_KERNELS = {
    "cudnn_lrn_fwd": lrn_forward,
    "cudnn_lrn_fwd_tex": lrn_forward_tex,
    "cudnn_lrn_bwd": lrn_backward,
}
