"""Shared emission idioms for the kernel generators."""

from __future__ import annotations

from contextlib import contextmanager

from repro.ptx.builder import PTXBuilder, f32

#: log2(e), used to express exp(x) as ex2(x * LOG2E).
LOG2E = 1.4426950408889634


def exp_via_ex2(b: PTXBuilder, x: str) -> str:
    """e**x computed with the SFU ``ex2`` instruction."""
    scaled = b.reg("f32")
    b.ins("mul.f32", scaled, x, f32(LOG2E))
    out = b.reg("f32")
    b.ins("ex2.approx.f32", out, scaled)
    return out


def tanh_via_ex2(b: PTXBuilder, x: str) -> str:
    """tanh(x) = 1 - 2 / (exp(2x) + 1), on the SFU pipeline."""
    two_x = b.reg("f32")
    b.ins("add.f32", two_x, x, x)
    e2x = exp_via_ex2(b, two_x)
    denom = b.reg("f32")
    b.ins("add.f32", denom, e2x, f32(1.0))
    frac = b.reg("f32")
    b.ins("div.rn.f32", frac, f32(2.0), denom)
    out = b.reg("f32")
    b.ins("sub.f32", out, f32(1.0), frac)
    return out


def open_kernel(name: str, pointers: tuple[str, ...],
                scalars: list[tuple[str, str]], *,
                skip: tuple[str, ...] = ()
                ) -> tuple[PTXBuilder, list[str], dict[str, str], str]:
    """Start a one-thread-per-element kernel: its builder and prologue.

    Parameters are the ``u64`` *pointers*, the ``(name, dtype)``
    *scalars* and a trailing ``u32 total``.  Loads the pointers and the
    scalars not in *skip* (in that order), forms the global thread id,
    loads ``total`` and exits threads at or past it.  Returns
    ``(builder, pointer registers in order, every loaded register by
    parameter name, tid)``.
    """
    b = PTXBuilder(name, [*((p, "u64") for p in pointers), *scalars,
                          ("total", "u32")])
    regs = b.ld_params(skip=(*skip, "total"))
    tid = b.global_tid_x()
    regs["total"] = b.ld_param("u32", "total")
    b.guard_tid_below(tid, regs["total"])
    return b, [regs[p] for p in pointers], regs, tid


def nchw_index(b: PTXBuilder, g: dict[str, str], n: str, c: str, h: str,
               w: str) -> str:
    """((n*C + c)*H + h)*W + w for the image geometry *g*."""
    return b.flatten((n, c, h, w), (g["channels"], g["height"], g["width"]))


def in_image(b: PTXBuilder, h: str, w: str, height: str, width: str) -> str:
    """Predicate: 0 <= h < height and 0 <= w < width (signed)."""
    return b.all_of(("ge", h, "0"), ("lt", h, height),
                    ("ge", w, "0"), ("lt", w, width))


def input_coord(b: PTXBuilder, g: dict[str, str], p: str, q: str, r: str,
                s: str) -> tuple[str, str, str]:
    """Input pixel under filter tap (r, s) of output (p, q):
    ``(h, w) = (p*stride_h + r - pad_h, q*stride_w + s - pad_w)`` and
    the predicate that it lies inside the (unpadded) image."""
    h = b.reg("s32")
    b.ins("mad.lo.s32", h, p, g["stride_h"], r)
    b.ins("sub.s32", h, h, g["pad_h"])
    w = b.reg("s32")
    b.ins("mad.lo.s32", w, q, g["stride_w"], s)
    b.ins("sub.s32", w, w, g["pad_w"])
    return h, w, in_image(b, h, w, g["height"], g["width"])


@contextmanager
def output_coord(b: PTXBuilder, g: dict[str, str], h: str, w: str, r: str,
                 s: str):
    """Inverse of :func:`input_coord`: yields the output ``(p, q)``
    whose tap (r, s) reads input (h, w); the body runs only where one
    exists (``h + pad_h - r`` non-negative, a multiple of the stride and
    inside the output, likewise for w)."""
    ph = b.reg("s32")
    b.ins("add.s32", ph, h, g["pad_h"])
    b.ins("sub.s32", ph, ph, r)
    qw = b.reg("s32")
    b.ins("add.s32", qw, w, g["pad_w"])
    b.ins("sub.s32", qw, qw, s)
    with b.if_then(b.all_of(("ge", ph, "0"), ("ge", qw, "0"))):
        p, p_rem = b.div_mod(ph, g["stride_h"])
        q, q_rem = b.div_mod(qw, g["stride_w"])
        exists = b.all_of(("eq", p_rem, "0"), ("eq", q_rem, "0"),
                          ("lt", p, g["out_h"]), ("lt", q, g["out_w"]))
        with b.if_then(exists):
            yield p, q


def load_elems(b: PTXBuilder, dtype: str,
               *refs: tuple[str, str]) -> list[str]:
    """``base[index]`` for each ``(base, index)`` as f32 registers.

    ``"f16"`` data is binary16 in memory: all ``ld.global.b16`` first,
    then one widening ``cvt`` each (the "pseudo half" configuration of
    paper Section III-D.1)."""
    if dtype == "f32":
        return [b.load_global_f32(b.elem_addr(base, index))
                for base, index in refs]
    halves = []
    for base, index in refs:
        half = b.reg("f16")
        b.ins("ld.global.b16", half,
              f"[{b.elem_addr(base, index, elem_bytes=2)}]")
        halves.append(half)
    values = []
    for half in halves:
        value = b.reg("f32")
        b.ins("cvt.f32.f16", value, half)
        values.append(value)
    return values


def store_elem(b: PTXBuilder, dtype: str, base: str, index: str,
               value: str) -> None:
    """``base[index] = value`` (f32 register), rounding to binary16
    first when *dtype* is ``"f16"``."""
    if dtype == "f32":
        b.store_global_f32(b.elem_addr(base, index), value)
        return
    half = b.reg("f16")
    b.ins("cvt.rn.f16.f32", half, value)
    b.ins("st.global.b16", f"[{b.elem_addr(base, index, elem_bytes=2)}]",
          half)


def load_or_zero(b: PTXBuilder, base: str, index: str, ok: str) -> str:
    """``ok ? base[index] : 0.0`` — a predicated load over a zeroed
    register, so out-of-range lanes never touch memory."""
    value = b.imm_f32(0.0)
    b.ins("ld.global.f32", value, f"[{b.elem_addr(base, index)}]", pred=ok)
    return value


def v2(re: str, im: str) -> str:
    """The ``{re, im}`` operand of a ``.v2.f32`` access."""
    return "{" + re + ", " + im + "}"


def load_complex(b: PTXBuilder, space: str, addr: str) -> tuple[str, str]:
    """One interleaved complex element as a ``(re, im)`` register pair."""
    re, im = b.reg("f32"), b.reg("f32")
    b.ins(f"ld.{space}.v2.f32", v2(re, im), f"[{addr}]")
    return re, im
