"""cuBLAS-style GEMM family: SGEMM (tiled), batched SGEMM, GEMV2T, CGEMM.

``cgemm_strided_batched`` is the "CGEMM" kernel of the paper's Figure 7
(the pointwise stage of FFT convolution); ``gemv2T_kernel_val`` is its
"GEMV2T".  Both names follow the real cuBLAS internal kernel names that
NVProf reports.  Complex data uses interleaved float2, loaded with
``ld.global.v2.f32`` — the same ``float2*`` signature the paper shows for
``fft2d_r2c_32x32``.

This file also redefines ``scale_array`` (see
:mod:`repro.cudnn.kernels.elementwise`) to reproduce cuDNN's duplicate
symbol names across translation units.
"""

from __future__ import annotations

from repro.ptx.builder import PTXBuilder
from repro.cudnn.kernels.common import load_complex, load_or_zero, v2

TILE = 16


def sgemm_tiled() -> str:
    """C[M,N] = alpha*A[M,K]@B[K,N] + beta*C, 16x16 shared-memory tiles.

    Grid: (ceil(N/16), ceil(M/16), batch); block (16, 16).  Batched via
    ctaid.z with element strides; batch == 1 gives plain SGEMM.
    """
    b = PTXBuilder("sgemm_tiled_16x16",
                   [("a", "u64"), ("bmat", "u64"), ("c", "u64"),
                    ("m", "u32"), ("n", "u32"), ("k", "u32"),
                    ("alpha", "f32"), ("beta", "f32"),
                    ("stride_a", "u32"), ("stride_b", "u32"),
                    ("stride_c", "u32")])
    (a_base, b_base, c_base, m, n, k, alpha, beta, stride_a, stride_b,
     stride_c) = b.ld_params().values()
    b.shared("as_tile", "f32", TILE * TILE)
    b.shared("bs_tile", "f32", TILE * TILE)

    tx = b.special("%tid.x")
    ty = b.special("%tid.y")
    bx = b.special("%ctaid.x")
    by = b.special("%ctaid.y")
    bz = b.special("%ctaid.z")

    # Batch offsets (in elements).
    for base, stride in ((a_base, stride_a), (b_base, stride_b),
                         (c_base, stride_c)):
        offset = b.reg("u32")
        b.ins("mul.lo.s32", offset, bz, stride)
        wide = b.reg("u64")
        b.ins("mul.wide.s32", wide, offset, "4")
        b.ins("add.u64", base, base, wide)

    row = b.reg("u32")
    b.ins("mad.lo.s32", row, by, str(TILE), ty)
    col = b.reg("u32")
    b.ins("mad.lo.s32", col, bx, str(TILE), tx)

    as_base = b.reg("u64")
    b.ins("mov.u64", as_base, "as_tile")
    bs_base = b.reg("u64")
    b.ins("mov.u64", bs_base, "bs_tile")

    # Shared-store addresses for this thread.
    my_tile_idx = b.reg("u32")
    b.ins("mad.lo.s32", my_tile_idx, ty, str(TILE), tx)
    as_store = b.elem_addr(as_base, my_tile_idx)
    bs_store = b.elem_addr(bs_base, my_tile_idx)

    acc = b.imm_f32(0.0)
    ktiles = b.reg("u32")
    b.ins("add.s32", ktiles, k, str(TILE - 1))
    b.ins("div.u32", ktiles, ktiles, str(TILE))

    tile = b.reg("u32")
    with b.for_range(tile, 0, ktiles):
        kbase = b.reg("u32")
        b.ins("mul.lo.s32", kbase, tile, str(TILE))
        # Stage A[row, kbase+tx]
        a_col = b.reg("u32")
        b.ins("add.s32", a_col, kbase, tx)
        a_ok = b.all_of(("lt", row, m), ("lt", a_col, k))
        a_idx = b.flatten((row, a_col), (k,))
        b.ins("st.shared.f32", f"[{as_store}]",
              load_or_zero(b, a_base, a_idx, a_ok))
        # Stage B[kbase+ty, col]
        b_row = b.reg("u32")
        b.ins("add.s32", b_row, kbase, ty)
        b_ok = b.all_of(("lt", b_row, k), ("lt", col, n))
        b_idx = b.flatten((b_row, col), (n,))
        b.ins("st.shared.f32", f"[{bs_store}]",
              load_or_zero(b, b_base, b_idx, b_ok))
        b.bar_sync()
        # Inner product over the staged tile.
        i = b.reg("u32")
        with b.for_range(i, 0, str(TILE)):
            as_idx = b.reg("u32")
            b.ins("mad.lo.s32", as_idx, ty, str(TILE), i)
            bs_idx = b.reg("u32")
            b.ins("mad.lo.s32", bs_idx, i, str(TILE), tx)
            av = b.reg("f32")
            b.ins("ld.shared.f32", av, f"[{b.elem_addr(as_base, as_idx)}]")
            bv = b.reg("f32")
            b.ins("ld.shared.f32", bv, f"[{b.elem_addr(bs_base, bs_idx)}]")
            b.ins("fma.rn.f32", acc, av, bv, acc)
        b.bar_sync()

    with b.if_then(b.all_of(("lt", row, m), ("lt", col, n))):
        c_idx = b.flatten((row, col), (n,))
        c_addr = b.elem_addr(c_base, c_idx)
        # beta == 0 means C is write-only (cuBLAS semantics): skip the
        # read so a freshly-allocated output never feeds the epilogue.
        old = b.imm_f32(0.0)
        zero = b.imm_f32(0.0)
        blend = b.reg("pred")
        b.ins("setp.ne.f32", blend, beta, zero)
        b.ins("ld.global.f32", old, f"[{c_addr}]", pred=blend)
        scaled_old = b.reg("f32")
        b.ins("mul.f32", scaled_old, beta, old)
        result = b.reg("f32")
        b.ins("mul.f32", result, alpha, acc)
        b.ins("add.f32", result, result, scaled_old)
        b.store_global_f32(c_addr, result)
    return b.build()


def gemv2T() -> str:
    """y[j] = alpha * sum_i A[i,j] * x[i] + beta*y[j]  (A is rows x cols).

    The transposed matrix-vector kernel NVProf reports as GEMV2T in
    fully connected layers; one thread per output column.
    """
    b = PTXBuilder("gemv2T_kernel_val",
                   [("a", "u64"), ("x", "u64"), ("y", "u64"),
                    ("rows", "u32"), ("cols", "u32"),
                    ("alpha", "f32"), ("beta", "f32")])
    a, x, y, rows, cols, alpha, beta = b.ld_params().values()
    j = b.global_tid_x()
    b.guard_tid_below(j, cols)
    acc = b.imm_f32(0.0)
    i = b.reg("u32")
    with b.for_range(i, 0, rows):
        idx = b.reg("u32")
        b.ins("mad.lo.s32", idx, i, cols, j)
        av = b.load_global_f32(b.elem_addr(a, idx))
        xv = b.load_global_f32(b.elem_addr(x, i))
        b.ins("fma.rn.f32", acc, av, xv, acc)
    y_addr = b.elem_addr(y, j)
    # cuBLAS reads y only when beta != 0; a fresh output buffer stays
    # unread (and the sanitizer's initcheck stays quiet).
    old = b.imm_f32(0.0)
    zero = b.imm_f32(0.0)
    blend = b.reg("pred")
    b.ins("setp.ne.f32", blend, beta, zero)
    b.ins("ld.global.f32", old, f"[{y_addr}]", pred=blend)
    scaled = b.reg("f32")
    b.ins("mul.f32", scaled, beta, old)
    result = b.reg("f32")
    b.ins("fma.rn.f32", result, alpha, acc, scaled)
    b.store_global_f32(y_addr, result)
    return b.build()


def cgemm_strided_batched() -> str:
    """Complex batched GEMM: C[z,m,n] = sum_k A[z,m,k] * B[z,k,n].

    Interleaved (re, im) float pairs loaded with ``ld.global.v2.f32``.
    Grid: (ceil(n/bx), m, batch); one thread per output element.
    """
    b = PTXBuilder("cgemm_strided_batched",
                   [("a", "u64"), ("bmat", "u64"), ("c", "u64"),
                    ("m", "u32"), ("n", "u32"), ("k", "u32"),
                    ("accumulate", "u32")])
    a, bmat, c, m, n, k, accumulate = b.ld_params().values()
    col = b.global_tid_x()
    b.guard_tid_below(col, n)
    row = b.special("%ctaid.y")
    batch = b.special("%ctaid.z")

    mn = b.reg("u32")
    b.ins("mul.lo.s32", mn, m, n)
    mk = b.reg("u32")
    b.ins("mul.lo.s32", mk, m, k)
    kn = b.reg("u32")
    b.ins("mul.lo.s32", kn, k, n)
    a_batch = b.reg("u32")
    b.ins("mul.lo.s32", a_batch, batch, mk)
    b_batch = b.reg("u32")
    b.ins("mul.lo.s32", b_batch, batch, kn)
    c_batch = b.reg("u32")
    b.ins("mul.lo.s32", c_batch, batch, mn)

    acc_re = b.imm_f32(0.0)
    acc_im = b.imm_f32(0.0)
    kk = b.reg("u32")
    with b.for_range(kk, 0, k):
        a_idx = b.reg("u32")
        b.ins("mad.lo.s32", a_idx, row, k, kk)
        b.ins("add.s32", a_idx, a_idx, a_batch)
        b_idx = b.reg("u32")
        b.ins("mad.lo.s32", b_idx, kk, n, col)
        b.ins("add.s32", b_idx, b_idx, b_batch)
        a_addr = b.elem_addr(a, a_idx, elem_bytes=8)
        b_addr = b.elem_addr(bmat, b_idx, elem_bytes=8)
        ar, ai = load_complex(b, "global", a_addr)
        br, bi = load_complex(b, "global", b_addr)
        # (ar + i ai)(br + i bi)
        b.ins("fma.rn.f32", acc_re, ar, br, acc_re)
        neg_ai = b.reg("f32")
        b.ins("neg.f32", neg_ai, ai)
        b.ins("fma.rn.f32", acc_re, neg_ai, bi, acc_re)
        b.ins("fma.rn.f32", acc_im, ar, bi, acc_im)
        b.ins("fma.rn.f32", acc_im, ai, br, acc_im)
    c_idx = b.reg("u32")
    b.ins("mad.lo.s32", c_idx, row, n, col)
    b.ins("add.s32", c_idx, c_idx, c_batch)
    c_addr = b.elem_addr(c, c_idx, elem_bytes=8)
    acc_pred = b.reg("pred")
    b.ins("setp.ne.u32", acc_pred, accumulate, "0")
    with b.if_then(acc_pred):
        old_re, old_im = load_complex(b, "global", c_addr)
        b.ins("add.f32", acc_re, acc_re, old_re)
        b.ins("add.f32", acc_im, acc_im, old_im)
    b.ins("st.global.v2.f32", f"[{c_addr}]", v2(acc_re, acc_im))
    return b.build()


def scale_array_gemm_variant() -> str:
    """Duplicate ``scale_array`` symbol (different body) — see module doc."""
    b = PTXBuilder("scale_array",
                   [("x", "u64"), ("y", "u64"), ("alpha", "f32"),
                    ("n", "u32")])
    x = b.ld_param("u64", "x")
    y = b.ld_param("u64", "y")
    alpha = b.ld_param("f32", "alpha")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    value = b.load_global_f32(b.elem_addr(x, tid))
    result = b.reg("f32")
    # Same semantics, different instruction mix (fma against 0).
    zero = b.imm_f32(0.0)
    b.ins("fma.rn.f32", result, value, alpha, zero)
    b.store_global_f32(b.elem_addr(y, tid), result)
    return b.build()


ALL_KERNELS = {
    "sgemm_tiled_16x16": sgemm_tiled,
    "gemv2T_kernel_val": gemv2T,
    "cgemm_strided_batched": cgemm_strided_batched,
}
