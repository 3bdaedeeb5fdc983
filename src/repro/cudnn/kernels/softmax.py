"""Softmax forward, NLL loss, and fused softmax+NLL backward kernels."""

from __future__ import annotations

from repro.ptx.builder import PTXBuilder, f32
from repro.cudnn.kernels.common import LOG2E, open_kernel


def softmax_forward() -> str:
    """Row-wise softmax with the max-subtraction trick; one thread/row."""
    b = PTXBuilder("cudnn_softmax_fwd",
                   [("inp", "u64"), ("out", "u64"), ("rows", "u32"),
                    ("cols", "u32")])
    inp = b.ld_param("u64", "inp")
    out = b.ld_param("u64", "out")
    rows = b.ld_param("u32", "rows")
    cols = b.ld_param("u32", "cols")
    row = b.global_tid_x()
    b.guard_tid_below(row, rows)
    base = b.reg("u32")
    b.ins("mul.lo.s32", base, row, cols)

    best = b.imm_f32(-3.0e38)
    j = b.reg("u32")
    with b.for_range(j, 0, cols):
        idx = b.reg("u32")
        b.ins("add.s32", idx, base, j)
        value = b.load_global_f32(b.elem_addr(inp, idx))
        b.ins("max.f32", best, best, value)

    total = b.imm_f32(0.0)
    j2 = b.reg("u32")
    with b.for_range(j2, 0, cols):
        idx = b.reg("u32")
        b.ins("add.s32", idx, base, j2)
        value = b.load_global_f32(b.elem_addr(inp, idx))
        shifted = b.reg("f32")
        b.ins("sub.f32", shifted, value, best)
        scaled = b.reg("f32")
        b.ins("mul.f32", scaled, shifted, f32(LOG2E))
        e = b.reg("f32")
        b.ins("ex2.approx.f32", e, scaled)
        b.store_global_f32(b.elem_addr(out, idx), e)
        b.ins("add.f32", total, total, e)

    inv = b.reg("f32")
    b.ins("rcp.rn.f32", inv, total)
    j3 = b.reg("u32")
    with b.for_range(j3, 0, cols):
        idx = b.reg("u32")
        b.ins("add.s32", idx, base, j3)
        addr = b.elem_addr(out, idx)
        value = b.load_global_f32(addr)
        prob = b.reg("f32")
        b.ins("mul.f32", prob, value, inv)
        b.store_global_f32(addr, prob)
    return b.build()


def nll_loss() -> str:
    """loss[row] = -ln(prob[row, label[row]]); one thread per row."""
    b = PTXBuilder("cudnn_nll_loss",
                   [("probs", "u64"), ("labels", "u64"), ("loss", "u64"),
                    ("rows", "u32"), ("cols", "u32")])
    probs = b.ld_param("u64", "probs")
    labels = b.ld_param("u64", "labels")
    loss = b.ld_param("u64", "loss")
    rows = b.ld_param("u32", "rows")
    cols = b.ld_param("u32", "cols")
    row = b.global_tid_x()
    b.guard_tid_below(row, rows)
    label = b.reg("u32")
    b.ins("ld.global.u32", label, f"[{b.elem_addr(labels, row)}]")
    idx = b.reg("u32")
    b.ins("mad.lo.s32", idx, row, cols, label)
    prob = b.load_global_f32(b.elem_addr(probs, idx))
    log2p = b.reg("f32")
    b.ins("lg2.approx.f32", log2p, prob)
    # ln(p) = log2(p) / log2(e)
    lnp = b.reg("f32")
    b.ins("div.rn.f32", lnp, log2p, f32(LOG2E))
    result = b.reg("f32")
    b.ins("neg.f32", result, lnp)
    b.store_global_f32(b.elem_addr(loss, row), result)
    return b.build()


def softmax_nll_backward() -> str:
    """dx[row, j] = (prob[row, j] - [j == label[row]]) * scale."""
    b, (probs, labels, dx), g, tid = open_kernel(
        "cudnn_softmax_nll_bwd", ("probs", "labels", "dx"),
        [("rows", "u32"), ("cols", "u32"), ("scale", "f32")],
        skip=("rows",))
    row, col = b.div_mod(tid, g["cols"])
    label = b.reg("u32")
    b.ins("ld.global.u32", label, f"[{b.elem_addr(labels, row)}]")
    prob = b.load_global_f32(b.elem_addr(probs, tid))
    is_label = b.reg("pred")
    b.ins("setp.eq.u32", is_label, col, label)
    onehot = b.reg("f32")
    b.ins("selp.f32", onehot, f32(1.0), f32(0.0), is_label)
    diff = b.reg("f32")
    b.ins("sub.f32", diff, prob, onehot)
    result = b.reg("f32")
    b.ins("mul.f32", result, diff, g["scale"])
    b.store_global_f32(b.elem_addr(dx, tid), result)
    return b.build()


ALL_KERNELS = {
    "cudnn_softmax_fwd": softmax_forward,
    "cudnn_nll_loss": nll_loss,
    "cudnn_softmax_nll_bwd": softmax_nll_backward,
}
