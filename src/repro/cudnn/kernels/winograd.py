"""Winograd F(2x2, 3x3) convolution kernels — fused and nonfused.

The paper singles Winograd out twice: it is why cuDNN support matters at
all ("specialized algorithms such as Winograd"), and *Winograd Nonfused*
is the algorithm with "the highest IPCs for all three types of
convolution" in Section V, with a load-imbalanced backward-filter
variant (Figures 20/21).

Transform matrices (Lavin & Gray):

    B^T = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]
    G   = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]]
    A^T = [[1,1,1,0],[0,1,-1,-1]]

The nonfused pipeline is three+ kernels (input transform, filter
transform, 16-bin batched GEMM via ``sgemm_tiled_16x16``, output
transform); the fused kernel does everything per (k, tile) thread.
Backward-filter nonfused uses the exact gradient identity
``dg = G^T [ (B^T d B) ⊙ (A dY A^T) ] G`` summed over tiles, which maps
onto the same batched-GEMM skeleton with K*C output parallelism — the
source of its shader load imbalance.
"""

from __future__ import annotations

from repro.ptx.builder import PTXBuilder, f32
from repro.cudnn.kernels.common import in_image, load_or_zero, open_kernel

_HALF = f32(0.5)


# ----------------------------------------------------------------------
# Straight-line transform emitters (operate on register lists)
# ----------------------------------------------------------------------
def _bt_d_b(b: PTXBuilder, d: list[str]) -> list[str]:
    """V = B^T d B for a 4x4 tile held in 16 registers (row-major)."""
    tmp = [b.reg("f32") for _ in range(16)]
    for j in range(4):
        b.ins("sub.f32", tmp[0 * 4 + j], d[0 * 4 + j], d[2 * 4 + j])
        b.ins("add.f32", tmp[1 * 4 + j], d[1 * 4 + j], d[2 * 4 + j])
        b.ins("sub.f32", tmp[2 * 4 + j], d[2 * 4 + j], d[1 * 4 + j])
        b.ins("sub.f32", tmp[3 * 4 + j], d[1 * 4 + j], d[3 * 4 + j])
    out = [b.reg("f32") for _ in range(16)]
    for i in range(4):
        b.ins("sub.f32", out[i * 4 + 0], tmp[i * 4 + 0], tmp[i * 4 + 2])
        b.ins("add.f32", out[i * 4 + 1], tmp[i * 4 + 1], tmp[i * 4 + 2])
        b.ins("sub.f32", out[i * 4 + 2], tmp[i * 4 + 2], tmp[i * 4 + 1])
        b.ins("sub.f32", out[i * 4 + 3], tmp[i * 4 + 1], tmp[i * 4 + 3])
    return out


def _g_g_gt(b: PTXBuilder, g: list[str]) -> list[str]:
    """U = G g G^T for a 3x3 filter in 9 registers (row-major)."""
    tmp = [b.reg("f32") for _ in range(12)]  # 4x3
    for j in range(3):
        b.ins("mov.f32", tmp[0 * 3 + j], g[0 * 3 + j])
        total = b.reg("f32")
        b.ins("add.f32", total, g[0 * 3 + j], g[2 * 3 + j])
        plus = b.reg("f32")
        b.ins("add.f32", plus, total, g[1 * 3 + j])
        minus = b.reg("f32")
        b.ins("sub.f32", minus, total, g[1 * 3 + j])
        b.ins("mul.f32", tmp[1 * 3 + j], plus, _HALF)
        b.ins("mul.f32", tmp[2 * 3 + j], minus, _HALF)
        b.ins("mov.f32", tmp[3 * 3 + j], g[2 * 3 + j])
    out = [b.reg("f32") for _ in range(16)]
    for i in range(4):
        b.ins("mov.f32", out[i * 4 + 0], tmp[i * 3 + 0])
        total = b.reg("f32")
        b.ins("add.f32", total, tmp[i * 3 + 0], tmp[i * 3 + 2])
        plus = b.reg("f32")
        b.ins("add.f32", plus, total, tmp[i * 3 + 1])
        minus = b.reg("f32")
        b.ins("sub.f32", minus, total, tmp[i * 3 + 1])
        b.ins("mul.f32", out[i * 4 + 1], plus, _HALF)
        b.ins("mul.f32", out[i * 4 + 2], minus, _HALF)
        b.ins("mov.f32", out[i * 4 + 3], tmp[i * 3 + 2])
    return out


def _at_m_a(b: PTXBuilder, m: list[str]) -> list[str]:
    """Y (2x2) = A^T m A for a 4x4 tile in 16 registers."""
    tmp = [b.reg("f32") for _ in range(8)]  # 2x4
    for j in range(4):
        t = b.reg("f32")
        b.ins("add.f32", t, m[0 * 4 + j], m[1 * 4 + j])
        b.ins("add.f32", tmp[0 * 4 + j], t, m[2 * 4 + j])
        t2 = b.reg("f32")
        b.ins("sub.f32", t2, m[1 * 4 + j], m[2 * 4 + j])
        b.ins("sub.f32", tmp[1 * 4 + j], t2, m[3 * 4 + j])
    out = [b.reg("f32") for _ in range(4)]
    for i in range(2):
        t = b.reg("f32")
        b.ins("add.f32", t, tmp[i * 4 + 0], tmp[i * 4 + 1])
        b.ins("add.f32", out[i * 2 + 0], t, tmp[i * 4 + 2])
        t2 = b.reg("f32")
        b.ins("sub.f32", t2, tmp[i * 4 + 1], tmp[i * 4 + 2])
        b.ins("sub.f32", out[i * 2 + 1], t2, tmp[i * 4 + 3])
    return out


def _a_dy_at(b: PTXBuilder, dy: list[str]) -> list[str]:
    """W (4x4) = A dY A^T for a 2x2 output-grad tile in 4 registers.

    A = [[1,0],[1,1],[1,-1],[0,-1]].
    """
    tmp = [b.reg("f32") for _ in range(8)]  # 4x2: A @ dY
    for j in range(2):
        b.ins("mov.f32", tmp[0 * 2 + j], dy[0 * 2 + j])
        b.ins("add.f32", tmp[1 * 2 + j], dy[0 * 2 + j], dy[1 * 2 + j])
        b.ins("sub.f32", tmp[2 * 2 + j], dy[0 * 2 + j], dy[1 * 2 + j])
        neg = b.reg("f32")
        b.ins("neg.f32", neg, dy[1 * 2 + j])
        b.ins("mov.f32", tmp[3 * 2 + j], neg)
    out = [b.reg("f32") for _ in range(16)]  # 4x4: tmp @ A^T
    for i in range(4):
        b.ins("mov.f32", out[i * 4 + 0], tmp[i * 2 + 0])
        b.ins("add.f32", out[i * 4 + 1], tmp[i * 2 + 0], tmp[i * 2 + 1])
        b.ins("sub.f32", out[i * 4 + 2], tmp[i * 2 + 0], tmp[i * 2 + 1])
        neg = b.reg("f32")
        b.ins("neg.f32", neg, tmp[i * 2 + 1])
        b.ins("mov.f32", out[i * 4 + 3], neg)
    return out


def _gt_s_g(b: PTXBuilder, s: list[str]) -> list[str]:
    """dg (3x3) = G^T S G for a 4x4 tile in 16 registers."""
    tmp = [b.reg("f32") for _ in range(12)]  # 3x4: G^T @ S
    for j in range(4):
        halves = b.reg("f32")
        b.ins("add.f32", halves, s[1 * 4 + j], s[2 * 4 + j])
        b.ins("mul.f32", halves, halves, _HALF)
        diff = b.reg("f32")
        b.ins("sub.f32", diff, s[1 * 4 + j], s[2 * 4 + j])
        b.ins("mul.f32", diff, diff, _HALF)
        b.ins("add.f32", tmp[0 * 4 + j], s[0 * 4 + j], halves)
        b.ins("mov.f32", tmp[1 * 4 + j], diff)
        b.ins("add.f32", tmp[2 * 4 + j], s[3 * 4 + j], halves)
    out = [b.reg("f32") for _ in range(9)]  # 3x3: tmp @ G
    for i in range(3):
        halves = b.reg("f32")
        b.ins("add.f32", halves, tmp[i * 4 + 1], tmp[i * 4 + 2])
        b.ins("mul.f32", halves, halves, _HALF)
        diff = b.reg("f32")
        b.ins("sub.f32", diff, tmp[i * 4 + 1], tmp[i * 4 + 2])
        b.ins("mul.f32", diff, diff, _HALF)
        b.ins("add.f32", out[i * 3 + 0], tmp[i * 4 + 0], halves)
        b.ins("mov.f32", out[i * 3 + 1], diff)
        b.ins("add.f32", out[i * 3 + 2], tmp[i * 4 + 3], halves)
    return out


# ----------------------------------------------------------------------
# Tile geometry and the guarded tile loops
# ----------------------------------------------------------------------
_TILE_GEOM = [
    ("batch", "u32"), ("channels", "u32"), ("height", "u32"),
    ("width", "u32"), ("tiles_h", "u32"), ("tiles_w", "u32"),
    ("pad_h", "u32"), ("pad_w", "u32"),
]

#: Scalars of the kernels that walk output tiles without the input.
_OUT_TILE_GEOM = [
    ("batch", "u32"), ("filters", "u32"), ("out_h", "u32"),
    ("out_w", "u32"), ("tiles_h", "u32"), ("tiles_w", "u32"),
]


def _decompose_tile(b: PTXBuilder, tid: str, g: dict[str, str]
                    ) -> tuple[str, str, str, str, str, str]:
    """tid -> (plane, t, N*tiles, n, tile row, tile col), where
    tid = plane*(N*tiles) + t and t = (n*tiles_h + row)*tiles_w + col;
    *plane* is the channel or filter the thread owns."""
    strides = b.strides((g["batch"], g["tiles_h"], g["tiles_w"]))
    plane, t = b.div_mod(tid, strides[0])
    n, th, tw = b.unflatten(t, strides[1:])
    return plane, t, strides[0], n, th, tw


def _load_patch_4x4(b: PTXBuilder, image: str, n: str, c: str, th: str,
                    tw: str, g: dict[str, str]) -> list[str]:
    """Load a 4x4 input patch at (2*th - pad, 2*tw - pad), zero-padded."""
    h0 = b.reg("s32")
    b.ins("mul.lo.s32", h0, th, "2")
    b.ins("sub.s32", h0, h0, g["pad_h"])
    w0 = b.reg("s32")
    b.ins("mul.lo.s32", w0, tw, "2")
    b.ins("sub.s32", w0, w0, g["pad_w"])
    nc = b.flatten((n, c), (g["channels"],))
    values: list[str] = []
    for i in range(4):
        for j in range(4):
            h = b.reg("s32")
            b.ins("add.s32", h, h0, str(i))
            w = b.reg("s32")
            b.ins("add.s32", w, w0, str(j))
            ok = in_image(b, h, w, g["height"], g["width"])
            idx = b.flatten((nc, h, w), (g["height"], g["width"]))
            values.append(load_or_zero(b, image, idx, ok))
    return values


def _output_tile_2x2(b: PTXBuilder, g: dict[str, str], th: str, tw: str):
    """For each of the 2x2 outputs of tile (th, tw), emit its
    coordinates and yield ``(slot, p, q, inside-the-output predicate)``.
    The caller emits its access before the next slot's code, so this is
    consumed in order, once."""
    for i in range(2):
        for j in range(2):
            p = b.reg("u32")
            b.ins("mad.lo.s32", p, th, "2", str(i))
            q = b.reg("u32")
            b.ins("mad.lo.s32", q, tw, "2", str(j))
            yield (i * 2 + j, p, q,
                   b.all_of(("lt", p, g["out_h"]), ("lt", q, g["out_w"])))


def _store_tile_2x2(b: PTXBuilder, out: str, y: list[str],
                    g: dict[str, str], n: str, k: str, th: str,
                    tw: str) -> None:
    """out[n, k, 2*th + i, 2*tw + j] = y[i, j], edge-guarded."""
    nk = b.flatten((n, k), (g["filters"],))
    for slot, p, q, ok in _output_tile_2x2(b, g, th, tw):
        with b.if_then(ok):
            idx = b.flatten((nk, p, q), (g["out_h"], g["out_w"]))
            b.store_global_f32(b.elem_addr(out, idx), y[slot])


def _load_taps_3x3(b: PTXBuilder, weight: str, base: str) -> list[str]:
    """The nine contiguous floats of one 3x3 filter at element *base*."""
    return [b.load_global_f32(b.elem_addr(weight, base), 4 * i)
            for i in range(9)]


# ----------------------------------------------------------------------
# Nonfused pipeline kernels
# ----------------------------------------------------------------------
def input_transform(transposed: bool = False) -> str:
    """V[xi, c, t] = (B^T d B)[xi] per (channel, tile) thread.

    ``transposed`` stores V as [16, T, C] instead (GEMM B-operand layout
    for the backward-filter pipeline).
    """
    name = ("winograd_input_transform_t" if transposed
            else "winograd_input_transform")
    b, (image, v), g, tid = open_kernel(name, ("image", "v"), _TILE_GEOM)
    c, t, ntiles, n, th, tw = _decompose_tile(b, tid, g)
    d = _load_patch_4x4(b, image, n, c, th, tw, g)
    out = _bt_d_b(b, d)
    for xi in range(16):
        if transposed:
            idx = b.flatten((str(xi), t, c), (ntiles, g["channels"]))
        else:
            idx = b.flatten((str(xi), c, t), (g["channels"], ntiles))
        b.store_global_f32(b.elem_addr(v, idx), out[xi])
    return b.build()


def filter_transform() -> str:
    """U[xi, k, c] = (G g G^T)[xi] per (k, c) thread."""
    b, (weight, u), g, tid = open_kernel(
        "winograd_filter_transform", ("weight", "u"),
        [("filters", "u32"), ("channels", "u32")])
    base = b.reg("u32")
    b.ins("mul.lo.s32", base, tid, "9")
    out = _g_g_gt(b, _load_taps_3x3(b, weight, base))
    kc, _ = b.strides((g["filters"], g["channels"]))
    for xi in range(16):
        idx = b.flatten((str(xi), tid), (kc,))
        b.store_global_f32(b.elem_addr(u, idx), out[xi])
    return b.build()


def output_transform() -> str:
    """out[n,k,p,q] = (A^T m A) per (k, tile) thread, edge-guarded."""
    b, (m_buf, out), g, tid = open_kernel(
        "winograd_output_transform", ("m", "out"), _OUT_TILE_GEOM)
    k, t, ntiles, n, th, tw = _decompose_tile(b, tid, g)
    m_regs = []
    for xi in range(16):
        idx = b.flatten((str(xi), k, t), (g["filters"], ntiles))
        m_regs.append(b.load_global_f32(b.elem_addr(m_buf, idx)))
    _store_tile_2x2(b, out, _at_m_a(b, m_regs), g, n, k, th, tw)
    return b.build()


def fused_forward() -> str:
    """Single-kernel Winograd: per (k, tile) thread, filter transform on
    the fly, channel loop inside (the "Winograd" fused algorithm)."""
    b, (image, weight, out), g, tid = open_kernel(
        "winograd_fused_fwd", ("image", "weight", "out"),
        [*_TILE_GEOM, ("filters", "u32"), ("out_h", "u32"),
         ("out_w", "u32")])
    k, _, _, n, th, tw = _decompose_tile(b, tid, g)
    acc = [b.imm_f32(0.0) for _ in range(16)]
    with b.loop_nest((0, g["channels"])) as (c,):
        d = _load_patch_4x4(b, image, n, c, th, tw, g)
        v = _bt_d_b(b, d)
        wbase = b.flatten((k, c), (g["channels"],))
        b.ins("mul.lo.s32", wbase, wbase, "9")
        u = _g_g_gt(b, _load_taps_3x3(b, weight, wbase))
        for xi in range(16):
            b.ins("fma.rn.f32", acc[xi], u[xi], v[xi], acc[xi])
    _store_tile_2x2(b, out, _at_m_a(b, acc), g, n, k, th, tw)
    return b.build()


# ----------------------------------------------------------------------
# Backward-filter (wgrad) nonfused kernels
# ----------------------------------------------------------------------
def wgrad_dy_transform() -> str:
    """W[xi, k, t] = (A dY A^T)[xi] per (k, tile) thread."""
    b, (dy, w_buf), g, tid = open_kernel(
        "winograd_wgrad_dy_transform", ("dy", "w"), _OUT_TILE_GEOM)
    k, t, ntiles, n, th, tw = _decompose_tile(b, tid, g)
    nk = b.flatten((n, k), (g["filters"],))
    dy_regs = []
    for _, p, q, ok in _output_tile_2x2(b, g, th, tw):
        idx = b.flatten((nk, p, q), (g["out_h"], g["out_w"]))
        dy_regs.append(load_or_zero(b, dy, idx, ok))
    out = _a_dy_at(b, dy_regs)
    for xi in range(16):
        idx = b.flatten((str(xi), k, t), (g["filters"], ntiles))
        b.store_global_f32(b.elem_addr(w_buf, idx), out[xi])
    return b.build()


def wgrad_output_transform() -> str:
    """dw[k,c,3,3] = G^T S G per (k, c) thread."""
    b, (s_buf, dw), g, tid = open_kernel(
        "winograd_wgrad_output_transform", ("s", "dw"),
        [("filters", "u32"), ("channels", "u32")])
    kc, _ = b.strides((g["filters"], g["channels"]))
    s_regs = []
    for xi in range(16):
        idx = b.flatten((str(xi), tid), (kc,))
        s_regs.append(b.load_global_f32(b.elem_addr(s_buf, idx)))
    out = _gt_s_g(b, s_regs)
    base = b.reg("u32")
    b.ins("mul.lo.s32", base, tid, "9")
    addr = b.elem_addr(dw, base)
    for i in range(9):
        b.store_global_f32(addr, out[i], 4 * i)
    return b.build()


def rotate_filters() -> str:
    """Wrot[c,k,r,s] = W[k,c,R-1-r,S-1-s] — dgrad-as-convolution prep."""
    b, (w, wrot), g, tid = open_kernel(
        "winograd_rotate_filters", ("w", "wrot"),
        [("filters", "u32"), ("channels", "u32"), ("ksize_h", "u32"),
         ("ksize_w", "u32")])
    k, c, r, s = b.unflatten(tid, b.strides((g["channels"], g["ksize_h"],
                                             g["ksize_w"])))
    rr = b.reg("u32")
    b.ins("sub.s32", rr, g["ksize_h"], "1")
    b.ins("sub.s32", rr, rr, r)
    ss = b.reg("u32")
    b.ins("sub.s32", ss, g["ksize_w"], "1")
    b.ins("sub.s32", ss, ss, s)
    idx = b.flatten((c, k, rr, ss),
                    (g["filters"], g["ksize_h"], g["ksize_w"]))
    value = b.load_global_f32(b.elem_addr(w, tid))
    b.store_global_f32(b.elem_addr(wrot, idx), value)
    return b.build()


ALL_KERNELS = {
    "winograd_input_transform": input_transform,
    "winograd_input_transform_t": lambda: input_transform(transposed=True),
    "winograd_filter_transform": filter_transform,
    "winograd_output_transform": output_transform,
    "winograd_fused_fwd": fused_forward,
    "winograd_wgrad_dy_transform": wgrad_dy_transform,
    "winograd_wgrad_output_transform": wgrad_output_transform,
    "winograd_rotate_filters": rotate_filters,
}
