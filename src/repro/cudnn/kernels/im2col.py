"""im2col / col2im kernels for GEMM-based convolution.

``CUDNN_CONVOLUTION_FWD_ALGO_GEMM`` materialises the patch matrix with
``im2col`` and multiplies it with the KC·RS filter matrix; backward-data
algorithm 1 runs the GEMM transposed and scatters back with ``col2im``.
Column layout: columns[(c*R*S + r*S + s), (n*P*Q + p*Q + q)] — i.e. a
(C*R*S) x (N*P*Q) row-major matrix.
"""

from __future__ import annotations

from repro.cudnn.kernels.common import (
    input_coord, nchw_index, open_kernel, output_coord)

_CONV_GEOM = [
    ("batch", "u32"), ("channels", "u32"), ("height", "u32"),
    ("width", "u32"), ("out_h", "u32"), ("out_w", "u32"),
    ("ksize_h", "u32"), ("ksize_w", "u32"),
    ("pad_h", "u32"), ("pad_w", "u32"),
    ("stride_h", "u32"), ("stride_w", "u32"),
]


def im2col() -> str:
    """One thread per column element: total C*R*S * N*P*Q threads."""
    b, (image, columns), g, tid = open_kernel(
        "cudnn_im2col", ("image", "columns"), _CONV_GEOM, skip=("batch",))

    # Decompose tid = row * (N*P*Q) + col_index, with
    # row = c*R*S + r*S + s and col_index = n*P*Q + p*Q + q.
    col_strides = b.strides((g["out_h"], g["out_w"]))
    npq = b.reg("u32")
    # (columns-per-image count is passed via total / rows; recompute)
    crs, *row_strides = b.strides((g["channels"], g["ksize_h"],
                                   g["ksize_w"]))
    b.ins("div.u32", npq, g["total"], crs)
    row, col_index = b.div_mod(tid, npq)
    c, r, s = b.unflatten(row, row_strides)
    n, p, q = b.unflatten(col_index, col_strides)

    h, w, inside = input_coord(b, g, p, q, r, s)
    value = b.imm_f32(0.0)
    with b.if_then(inside):
        idx = nchw_index(b, g, n, c, h, w)
        loaded = b.load_global_f32(b.elem_addr(image, idx))
        b.ins("mov.f32", value, loaded)
    b.store_global_f32(b.elem_addr(columns, tid), value)
    return b.build()


def col2im() -> str:
    """Scatter-add columns back into an image (backward-data algo 1).

    One thread per *image* element; it gathers every column slot that
    maps onto it (the race-free formulation).
    """
    b, (columns, image), g, tid = open_kernel(
        "cudnn_col2im", ("columns", "image"), _CONV_GEOM)
    n, c, h, w = b.unflatten(tid, b.strides((g["channels"], g["height"],
                                             g["width"])))
    npq, pq, _ = b.strides((g["batch"], g["out_h"], g["out_w"]))
    rs, _ = b.strides((g["ksize_h"], g["ksize_w"]))

    acc = b.imm_f32(0.0)
    with b.loop_nest((0, g["ksize_h"]), (0, g["ksize_w"])) as (r, s):
        # h = p*stride + r - pad  =>  p = (h + pad - r) / stride
        with output_coord(b, g, h, w, r, s) as (p, q):
            # row = c*RS + r*S + s ; col = n*PQ + p*Q + q
            crow = b.flatten((r, s), (g["ksize_w"],))
            b.ins("mad.lo.s32", crow, c, rs, crow)
            ccol = b.flatten((p, q), (g["out_w"],))
            b.ins("mad.lo.s32", ccol, n, pq, ccol)
            cidx = b.flatten((crow, ccol), (npq,))
            value = b.load_global_f32(b.elem_addr(columns, cidx))
            b.ins("add.f32", acc, acc, value)
    b.store_global_f32(b.elem_addr(image, tid), acc)
    return b.build()


ALL_KERNELS = {
    "cudnn_im2col": im2col,
    "cudnn_col2im": col2im,
}
