"""Max/average pooling kernels (cudnnPoolingForward/Backward)."""

from __future__ import annotations

from repro.cudnn.kernels.common import nchw_index, open_kernel

_GEOM = [
    ("batch", "u32"), ("channels", "u32"), ("height", "u32"),
    ("width", "u32"), ("out_h", "u32"), ("out_w", "u32"),
    ("window", "u32"), ("stride", "u32"),
]


def _pool_forward(name: str, is_max: bool) -> str:
    """Shared body of the forward kernels: one thread per (n, c, p, q)
    walks the in-bounds part of its window; max keeps the best value and
    its flat input index, average a sum and a count."""
    # ``batch`` is declared for the host-side launch math but no pooling
    # kernel reads it; loading it would be a dead store.
    b, (inp, out, *argmax), g, tid = open_kernel(
        name, ("inp", "out", "argmax") if is_max else ("inp", "out"),
        _GEOM, skip=("batch",))
    n, c, p, q = b.unflatten(tid, b.strides((g["channels"], g["out_h"],
                                             g["out_w"])))
    acc = b.imm_f32(-3.0e38 if is_max else 0.0)
    tally = b.imm_u32(0)
    with b.loop_nest((0, g["window"]), (0, g["window"])) as (r, s):
        h = b.reg("u32")
        b.ins("mad.lo.s32", h, p, g["stride"], r)
        w = b.reg("u32")
        b.ins("mad.lo.s32", w, q, g["stride"], s)
        ok = b.all_of(("lt", h, g["height"]), ("lt", w, g["width"]))
        with b.if_then(ok):
            idx = nchw_index(b, g, n, c, h, w)
            value = b.load_global_f32(b.elem_addr(inp, idx))
            if is_max:
                better = b.reg("pred")
                b.ins("setp.gt.f32", better, value, acc)
                b.ins("selp.f32", acc, value, acc, better)
                b.ins("selp.u32", tally, idx, tally, better)
            else:
                b.ins("add.f32", acc, acc, value)
                b.ins("add.u32", tally, tally, "1")
    if is_max:
        b.store_global_f32(b.elem_addr(out, tid), acc)
        b.ins("st.global.u32", f"[{b.elem_addr(argmax[0], tid)}]", tally)
    else:
        fcount = b.reg("f32")
        b.ins("cvt.rn.f32.u32", fcount, tally)
        mean = b.reg("f32")
        b.ins("div.rn.f32", mean, acc, fcount)
        b.store_global_f32(b.elem_addr(out, tid), mean)
    return b.build()


def maxpool_forward() -> str:
    """out[n,c,p,q] = max window; records the winning flat input index."""
    return _pool_forward("cudnn_maxpool_fwd", is_max=True)


def avgpool_forward() -> str:
    """out[n,c,p,q] = mean of the (fully in-bounds part of the) window."""
    return _pool_forward("cudnn_avgpool_fwd", is_max=False)


def maxpool_backward() -> str:
    """dx[argmax[i]] += dy[i] via atomics (windows may overlap)."""
    b, (dy, argmax, dx), _, tid = open_kernel(
        "cudnn_maxpool_bwd", ("dy", "argmax", "dx"), [])
    dyv = b.load_global_f32(b.elem_addr(dy, tid))
    idx = b.reg("u32")
    b.ins("ld.global.u32", idx, f"[{b.elem_addr(argmax, tid)}]")
    addr = b.elem_addr(dx, idx)
    b.ins("red.global.add.f32", f"[{addr}]", dyv)
    return b.build()


ALL_KERNELS = {
    "cudnn_maxpool_fwd": maxpool_forward,
    "cudnn_maxpool_bwd": maxpool_backward,
    "cudnn_avgpool_fwd": avgpool_forward,
}
