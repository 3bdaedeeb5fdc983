"""FFT convolution kernels: ``fft2d_r2c_32x32`` and friends.

These are the kernels at the centre of the paper's debugging story:

* ``brev`` (bit reverse) — "cuDNN uses the bit reverse instruction ...
  for FFT-based convolutional kernels", the instruction the paper added;
  it drives the bit-reversal permutation before the radix-2 stages here.
* ``rem.u32`` — the faulty remainder "rem.u32 %r149, %r2, %r121" the
  paper traced *inside* ``fft2d_r2c_32x32``; each butterfly stage below
  computes its group/position split with exactly a ``div.u32``/``rem.u32``
  pair, so enabling :attr:`LegacyQuirks.rem_ignores_type` corrupts this
  kernel first, just as in the paper.

Pipeline (host side in :mod:`repro.cudnn.api`):
  r2c(images) → r2c(filters, flipped) → transpose to frequency-major →
  ``cgemm_strided_batched`` per bin → transpose back → c2r (crop + scale).

One thread block per tile; thread *t* FFTs row *t*, barrier, then
column *t*.  Complex data is interleaved float2 (``ld.global.v2.f32`` —
the ``float2*`` parameter type the paper shows for this kernel).
"""

from __future__ import annotations

import math

from repro.ptx.builder import PTXBuilder, f32
from repro.cudnn.kernels.common import (
    in_image, load_complex, open_kernel, v2)


def _shared_elem_addr(b: PTXBuilder, sbase: str, index: str) -> str:
    """Byte address of complex element *index* in shared memory."""
    addr = b.reg("u64")
    b.ins("mad.wide.s32", addr, index, "8", sbase)
    return addr


def _tile_elem(b: PTXBuilder, sbase: str, row: str, col: str,
               fn: int) -> tuple[str, str]:
    """(complex index, shared address) of tile element [row, col]."""
    sidx = b.flatten((row, col), (str(fn),))
    return sidx, _shared_elem_addr(b, sbase, sidx)


def _open_tile(name: str, tile_symbol: str, fn: int,
               scalars: list[tuple[str, str]]):
    """Start a one-block-per-tile transform kernel.

    Tile z = a*count1 + bidx maps to real tensor plane
    ``swap ? a*count1 + bidx : bidx*count0 + a``: tile index and plane
    index can compose (a, bidx) in either order; the host picks
    whichever makes the frequency-major transpose land directly in CGEMM
    operand layout.  Returns ``(builder, parameter registers by name,
    tile index z, thread t, plane)``.
    """
    b = PTXBuilder(name, [("src", "u64"), ("dst", "u64"),
                          ("count0", "u32"), ("count1", "u32"), *scalars,
                          ("swap_plane", "u32")])
    p = b.ld_params()
    b.shared(tile_symbol, "f32", 2 * fn * fn, align=8)
    z = b.special("%ctaid.x")
    t = b.special("%tid.x")
    a, bidx = b.div_mod(z, p["count1"])
    plane0 = b.flatten((bidx, a), (p["count0"],))
    plane1 = b.flatten((a, bidx), (p["count1"],))
    pswap = b.reg("pred")
    b.ins("setp.ne.u32", pswap, p["swap_plane"], "0")
    plane = b.reg("u32")
    b.ins("selp.b32", plane, plane1, plane0, pswap)
    return b, p, z, t, plane


def _plane_base(b: PTXBuilder, plane: str, height: str, width: str) -> str:
    """Element offset of real plane *plane*: plane * height * width."""
    plane_base = b.reg("u32")
    hw, _ = b.strides((height, width))
    b.ins("mul.lo.s32", plane_base, plane, hw)
    return plane_base


def _fft_1d(b: PTXBuilder, sbase: str, base_off: str, stride: int,
            log2n: int, inverse: bool) -> None:
    """Radix-2 in-place FFT of FN points in shared memory.

    Points live at complex indices ``base_off + i*stride``.
    """
    fn = 1 << log2n

    def point_addrs(first: str, second: str) -> tuple[str, str]:
        """Shared addresses of points *first* and *second*."""
        offsets = [b.flatten((index, base_off), (str(stride),))
                   for index in (first, second)]
        return tuple(_shared_elem_addr(b, sbase, off) for off in offsets)

    # --- bit-reversal permutation (brev) ------------------------------
    with b.loop_nest((0, str(fn))) as (i,):
        rev = b.reg("u32")
        b.ins("brev.b32", rev, i)
        j = b.reg("u32")
        b.ins("shr.u32", j, rev, str(32 - log2n))
        swap = b.reg("pred")
        b.ins("setp.lt.u32", swap, i, j)
        with b.if_then(swap):
            addr_i, addr_j = point_addrs(i, j)
            at_i = load_complex(b, "shared", addr_i)
            at_j = load_complex(b, "shared", addr_j)
            b.ins("st.shared.v2.f32", f"[{addr_i}]", v2(*at_j))
            b.ins("st.shared.v2.f32", f"[{addr_j}]", v2(*at_i))
    # --- butterfly stages ----------------------------------------------
    sign = 2.0 * math.pi if inverse else -2.0 * math.pi
    half = b.imm_u32(1)
    m = b.imm_u32(2)
    with b.loop_nest((0, str(log2n))) as (_stage,):
        with b.loop_nest((0, str(fn // 2))) as (k,):
            # group/position split: the div.u32 + rem.u32 pair the paper
            # debugged inside fft2d_r2c_32x32.
            group, pos = b.div_mod(k, half)
            idx1 = b.flatten((group, pos), (m,))
            idx2 = b.reg("u32")
            b.ins("add.s32", idx2, idx1, half)
            fpos = b.reg("f32")
            b.ins("cvt.rn.f32.u32", fpos, pos)
            fm = b.reg("f32")
            b.ins("cvt.rn.f32.u32", fm, m)
            angle = b.reg("f32")
            b.ins("mul.f32", angle, fpos, f32(sign))
            b.ins("div.rn.f32", angle, angle, fm)
            wr = b.reg("f32")
            b.ins("cos.approx.f32", wr, angle)
            wi = b.reg("f32")
            b.ins("sin.approx.f32", wi, angle)
            addr1, addr2 = point_addrs(idx1, idx2)
            ar, ai = load_complex(b, "shared", addr1)
            br, bi = load_complex(b, "shared", addr2)
            # t = w * b
            tr = b.reg("f32")
            b.ins("mul.f32", tr, wr, br)
            neg_wi = b.reg("f32")
            b.ins("neg.f32", neg_wi, wi)
            b.ins("fma.rn.f32", tr, neg_wi, bi, tr)
            ti = b.reg("f32")
            b.ins("mul.f32", ti, wr, bi)
            b.ins("fma.rn.f32", ti, wi, br, ti)
            new_br = b.reg("f32")
            b.ins("sub.f32", new_br, ar, tr)
            new_bi = b.reg("f32")
            b.ins("sub.f32", new_bi, ai, ti)
            new_ar = b.reg("f32")
            b.ins("add.f32", new_ar, ar, tr)
            new_ai = b.reg("f32")
            b.ins("add.f32", new_ai, ai, ti)
            b.ins("st.shared.v2.f32", f"[{addr1}]", v2(new_ar, new_ai))
            b.ins("st.shared.v2.f32", f"[{addr2}]", v2(new_br, new_bi))
        b.ins("shl.b32", half, half, "1")
        b.ins("shl.b32", m, m, "1")


def _fft_2d(b: PTXBuilder, sbase: str, t: str, log2n: int,
            inverse: bool) -> None:
    """Transform the tile in place: thread *t* FFTs row *t*, barrier,
    then column *t*; barriers on both sides."""
    fn = 1 << log2n
    b.bar_sync()
    row_base = b.reg("u32")
    b.ins("mul.lo.s32", row_base, t, str(fn))
    _fft_1d(b, sbase, row_base, 1, log2n, inverse)
    b.bar_sync()
    col_base = b.reg("u32")
    b.ins("mov.u32", col_base, t)
    _fft_1d(b, sbase, col_base, fn, log2n, inverse)
    b.bar_sync()


def fft2d_r2c(log2n: int) -> str:
    """Real-to-complex tiled 2D FFT; one block per (count0, count1) tile.

    Tile z = a*count1 + bidx reads real source at plane (bidx*count0 + a)
    — images launch with (a=c, bidx=n) so the frequency-major transpose
    lands in the CGEMM B-operand layout; filters use (a=k, bidx=c) and
    flip=1 for correlation.
    """
    fn = 1 << log2n
    b, p, z, t, plane = _open_tile(
        f"fft2d_r2c_{fn}x{fn}", "fft_tile", fn,
        [("src_h", "u32"), ("src_w", "u32"), ("origin_h", "u32"),
         ("origin_w", "u32"), ("flip", "u32")])
    plane_base = _plane_base(b, plane, p["src_h"], p["src_w"])
    sbase = b.reg("u64")
    b.ins("mov.u64", sbase, "fft_tile")

    flip_pred = b.reg("pred")
    b.ins("setp.ne.u32", flip_pred, p["flip"], "0")

    # Load row t (zero-padded, optionally flipped).
    with b.loop_nest((0, str(fn))) as (x,):
        h = b.reg("s32")
        b.ins("add.s32", h, p["origin_h"], t)
        w = b.reg("s32")
        b.ins("add.s32", w, p["origin_w"], x)
        # Flip: read src[H-1-h, W-1-w].
        hf = b.reg("s32")
        b.ins("sub.s32", hf, p["src_h"], "1")
        b.ins("sub.s32", hf, hf, h)
        wf = b.reg("s32")
        b.ins("sub.s32", wf, p["src_w"], "1")
        b.ins("sub.s32", wf, wf, w)
        b.ins("selp.b32", h, hf, h, flip_pred)
        b.ins("selp.b32", w, wf, w, flip_pred)
        ok = in_image(b, h, w, p["src_h"], p["src_w"])
        value = b.imm_f32(0.0)
        idx = b.flatten((h, w), (p["src_w"],))
        b.ins("add.s32", idx, idx, plane_base)
        b.ins("ld.global.f32", value, f"[{b.elem_addr(p['src'], idx)}]",
              pred=ok)
        _, saddr = _tile_elem(b, sbase, t, x, fn)
        zero = b.imm_f32(0.0)
        b.ins("st.shared.v2.f32", f"[{saddr}]", v2(value, zero))
    _fft_2d(b, sbase, t, log2n, inverse=False)

    # Store row t of the spectrum to dst[z].
    dst_base = b.reg("u32")
    b.ins("mul.lo.s32", dst_base, z, str(fn * fn))
    with b.loop_nest((0, str(fn))) as (x2,):
        sidx, saddr = _tile_elem(b, sbase, t, x2, fn)
        re, im = load_complex(b, "shared", saddr)
        didx = b.reg("u32")
        b.ins("add.s32", didx, dst_base, sidx)
        daddr = b.elem_addr(p["dst"], didx, elem_bytes=8)
        b.ins("st.global.v2.f32", f"[{daddr}]", v2(re, im))
    return b.build()


def fft2d_c2r(log2n: int) -> str:
    """Complex-to-real inverse tiled FFT with crop, scale and scatter.

    Tile z = a*count1 + bidx writes real output plane (bidx*count0 + a)
    — launched with (a=k, bidx=n) for NCHW output.
    """
    fn = 1 << log2n
    b, p, z, t, plane = _open_tile(
        f"fft2d_c2r_{fn}x{fn}", "ifft_tile", fn,
        [("out_h", "u32"), ("out_w", "u32"), ("crop_h", "u32"),
         ("crop_w", "u32"), ("dest_h", "u32"), ("dest_w", "u32"),
         ("valid_h", "u32"), ("valid_w", "u32")])
    sbase = b.reg("u64")
    b.ins("mov.u64", sbase, "ifft_tile")

    # Load row t of the spectrum.
    src_base = b.reg("u32")
    b.ins("mul.lo.s32", src_base, z, str(fn * fn))
    with b.loop_nest((0, str(fn))) as (x,):
        sidx = b.flatten((t, x), (str(fn),))
        gidx = b.reg("u32")
        b.ins("add.s32", gidx, src_base, sidx)
        gaddr = b.elem_addr(p["src"], gidx, elem_bytes=8)
        re, im = load_complex(b, "global", gaddr)
        saddr = _shared_elem_addr(b, sbase, sidx)
        b.ins("st.shared.v2.f32", f"[{saddr}]", v2(re, im))
    _fft_2d(b, sbase, t, log2n, inverse=True)

    scale = f32(1.0 / (fn * fn))

    def cropped(index: str, axis: str) -> tuple[str, str]:
        """Output coordinate of tile row/column *index* along *axis*
        (``dest + index - crop``) and whether it survives the crop and
        lies inside the output."""
        offset = b.reg("s32")
        b.ins("sub.s32", offset, index, p["crop_" + axis])
        ok = b.reg("pred")
        tmp = b.reg("pred")
        b.ins("setp.ge.s32", ok, offset, "0")
        b.ins("setp.lt.s32", tmp, offset, p["valid_" + axis])
        b.ins("and.pred", ok, ok, tmp)
        coord = b.reg("s32")
        b.ins("add.s32", coord, p["dest_" + axis], offset)
        b.ins("setp.lt.s32", tmp, coord, p["out_" + axis])
        b.ins("and.pred", ok, ok, tmp)
        return coord, ok

    # Thread t owns tile row u = t; output row p = dest_h + (u - crop_h).
    row, row_ok = cropped(t, "h")
    with b.if_then(row_ok):
        plane_base = _plane_base(b, plane, p["out_h"], p["out_w"])
        with b.loop_nest((0, str(fn))) as (v,):
            col, col_ok = cropped(v, "w")
            with b.if_then(col_ok):
                _, saddr = _tile_elem(b, sbase, t, v, fn)
                re, _im = load_complex(b, "shared", saddr)
                result = b.reg("f32")
                b.ins("mul.f32", result, re, scale)
                oidx = b.flatten((row, col), (p["out_w"],))
                b.ins("add.s32", oidx, oidx, plane_base)
                b.store_global_f32(b.elem_addr(p["dst"], oidx), result)
    return b.build()


def transpose_complex() -> str:
    """dst[c*rows + r] = src[r*cols + c] for complex data.

    Reorders tile-major spectra [tile][bin] into frequency-major
    [bin][tile] blocks for the per-bin CGEMM, and back.
    """
    b, (src, dst), g, tid = open_kernel(
        "fft_transpose_complex", ("src", "dst"),
        [("rows", "u32"), ("cols", "u32")])
    r, c = b.div_mod(tid, g["cols"])
    re, im = load_complex(b, "global",
                          b.elem_addr(src, tid, elem_bytes=8))
    didx = b.flatten((c, r), (g["rows"],))
    daddr = b.elem_addr(dst, didx, elem_bytes=8)
    b.ins("st.global.v2.f32", f"[{daddr}]", v2(re, im))
    return b.build()


ALL_KERNELS = {
    "fft2d_r2c_32x32": lambda: fft2d_r2c(5),
    "fft2d_r2c_16x16": lambda: fft2d_r2c(4),
    "fft2d_c2r_32x32": lambda: fft2d_c2r(5),
    "fft2d_c2r_16x16": lambda: fft2d_c2r(4),
    "fft_transpose_complex": transpose_complex,
}
