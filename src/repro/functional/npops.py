"""Bit-exact NumPy kernels for the megablock vector tier.

Generated megablock code (see :mod:`repro.functional.megablock`) binds
this module as ``H`` and works on ``(T,)`` columns — one element per
*thread of the grid chunk* — stored at the width
:func:`repro.analysis.dataflow.register_widths` proves a register's
payload can occupy: ``bool`` for a predicate, ``uint32`` up to 32 bits,
``uint64`` otherwise.  Typed values are views or widenings of those
columns (``int32``/``int64``/``uint32``/``uint64``, and ``float64`` for
every float), so the helpers here take any of them and return whatever
NumPy's promotion gives; the vector dialect's write converts that to
the destination column.

Every helper here is the NumPy half of a pair whose scalar half is the
reference tier's own function in :mod:`repro.ptx.instructions` (the
rows of :mod:`repro.functional.emit` call both under one name and one
signature); ``tests/test_emit.py`` and the megablock differential tests
assert equality with the reference interpreter.  The non-obvious cases:

* ``fdiv`` — NumPy's ``0/0`` produces ``-nan`` (sign bit set) where
  CPython produces ``+nan``; ``x/0`` raises in CPython and the scalar
  tier substitutes ``±inf``/``nan`` explicitly (``float_div``).  The
  vector division patches the ``b == 0`` elements to the scalar results.
* ``ex2`` — ``np.exp2`` is *not* bit-identical to CPython's ``2.0 **
  v`` on this platform, so ``ex2`` stays a per-element Python loop (an
  "island") over the reference's own ``SFU["ex2"]``;
  ``log2``/``sin``/``cos``/``sqrt`` were probe-verified bit-identical
  and run vectorized.
* f32 arithmetic is computed in float64 and rounded once through
  ``astype(float32)`` — the same double→single rounding the scalar tier
  performs via ``f32_to_bits``.  Overflow-to-inf casts emit a
  RuntimeWarning which the vector machine suppresses with
  ``np.errstate`` around block execution.
* ``canonical`` — which NaN operand's payload ``a + b`` keeps differs
  between CPython and NumPy, and within NumPy with the array length, so
  a NaN result of an op with two or more float operands becomes
  ``values.CANONICAL_NAN`` on every tier.
"""

from __future__ import annotations

import numpy as np

from repro.ptx.instructions.special import SFU
from repro.ptx.values import CANONICAL_NAN, MASK64

_F32 = np.float32
_F64 = np.float64
_U32 = np.uint32
_U64 = np.uint64
_I64 = np.int64


# ----------------------------------------------------------------------
# Float encoders (value -> payload column)
# ----------------------------------------------------------------------
def ef32(v):
    """Encode a float64 array as an f32 payload (round-to-nearest)."""
    return v.astype(_F32).view(_U32)


def ef64(v):
    return v.view(_U64)


def ef16(v):
    """Encode through IEEE binary16 (round-to-nearest, overflow→inf);
    a NaN keeps only its sign, as ``values.f16_to_bits`` does."""
    bits = v.astype(np.float16).view(np.uint16)
    return np.where(v != v, (bits & 0x8000) | 0x7E00, bits)


def canonical(v):
    """``values.canonical``: a NaN element becomes the canonical NaN."""
    nan = v != v
    return np.where(nan, CANONICAL_NAN, v) if nan.any() else v


# ----------------------------------------------------------------------
# Arithmetic with scalar-tier edge semantics
# ----------------------------------------------------------------------
def fdiv(a, b):
    """``float_div``: CPython quotient with explicit zero-divisor cases."""
    bz = b == 0.0
    if not bz.any():
        return a / b
    q = a / np.where(bz, 1.0, b)
    # b == 0: 0/0 and nan/0 give +nan, anything else gives a
    # sign-of-product infinity (math.copysign over the operand signs).
    sign = np.copysign(1.0, a) * np.copysign(1.0, b)
    inf = np.copysign(np.inf, sign)
    zero_case = np.where((a == 0.0) | np.isnan(a), np.nan, inf)
    return np.where(bz, zero_case, q)


def fmin(a, b):
    """``float_min``: NaN yields the other operand; else Python min."""
    r = np.where(b < a, b, a)
    r = np.where(np.isnan(a), b, r)
    return np.where(np.isnan(b) & ~np.isnan(a), a, r)


def fmax(a, b):
    """``float_max``: NaN yields the other operand; else Python max."""
    r = np.where(b > a, b, a)
    r = np.where(np.isnan(a), b, r)
    return np.where(np.isnan(b) & ~np.isnan(a), a, r)


def udiv(a, b, bits: int):
    """``int_div`` on unsigned values: divisor 0 → all-ones."""
    bz = b == 0
    q = a // np.where(bz, 1, b)
    return np.where(bz, (1 << bits) - 1, q)


def urem(a, b):
    """``int_rem`` on unsigned values: divisor 0 → dividend."""
    bz = b == 0
    r = a % np.where(bz, 1, b)
    return np.where(bz, a, r)


def _signed(a, b):
    """Both signed operands as int64, the zero-divisor flags, and the
    magnitudes as uint64 (exact for INT64_MIN, whose int64 ``abs``
    wraps to itself) with a zero divisor's replaced by 1."""
    a, b = np.asarray(a, _I64), np.asarray(b, _I64)
    bz = b == 0
    return (a, b, bz, np.abs(a).astype(_U64),
            np.abs(np.where(bz, 1, b)).astype(_U64))


def sdiv(a, b, bits: int):
    """``int_div`` on signed values: trunc-toward-zero, 0 → -1."""
    a, b, bz, ma, mb = _signed(a, b)
    q = ma // mb
    q = np.where((a < 0) != (b < 0), 0 - q, q)
    return np.where(bz, _U64(MASK64), q)


def srem(a, b):
    """``int_rem`` on signed values: sign of dividend, 0 → dividend."""
    a, b, bz, ma, mb = _signed(a, b)
    r = ma % mb
    r = np.where(a < 0, 0 - r, r)
    return np.where(bz, a.astype(_U64), r)


def brev32(a):
    """32-bit bit reversal of a ``uint32`` column (matches the
    string-reverse reference)."""
    x = a
    x = ((x >> 1) & 0x55555555) | ((x & 0x55555555) << 1)
    x = ((x >> 2) & 0x33333333) | ((x & 0x33333333) << 2)
    x = ((x >> 4) & 0x0F0F0F0F) | ((x & 0x0F0F0F0F) << 4)
    x = ((x >> 8) & 0x00FF00FF) | ((x & 0x00FF00FF) << 8)
    return (x >> 16) | (x << 16)


# ----------------------------------------------------------------------
# SFU ops (f32 computed in f64, one final rounding)
# ----------------------------------------------------------------------
def sqrt(v):
    # np.sqrt of a negative produces a NaN whose sign bit differs from
    # CPython's math.nan; route negatives through an explicit +nan.
    return np.where(v < 0.0, np.nan, np.sqrt(np.where(v < 0.0, 1.0, v)))


def rsqrt(v):
    r = 1.0 / np.sqrt(np.where(v <= 0.0, 1.0, v))
    r = np.where(v == 0.0, np.inf, r)
    return np.where(v < 0.0, np.nan, r)


def rcp(v):
    # 1/±0 → ±inf and 1/±inf → ±0 fall straight out of IEEE division,
    # exactly matching the scalar _safe_rcp branches.
    return 1.0 / v


def sin(v):
    return np.where(np.isinf(v), np.nan, np.sin(np.where(np.isinf(v),
                                                         0.0, v)))


def cos(v):
    return np.where(np.isinf(v), np.nan, np.cos(np.where(np.isinf(v),
                                                         0.0, v)))


def lg2(v):
    r = np.log2(np.where(v > 0.0, v, 1.0))
    return np.where(v > 0.0, r, np.where(v == 0.0, -np.inf, np.nan))


def ex2(v):
    """Python-loop island over the reference tier's ``ex2``: np.exp2 is
    not bit-identical to ``2.0**v``, which also keeps a NaN's sign and
    payload."""
    return np.fromiter(map(SFU["ex2"], v.tolist()), dtype=_F64,
                       count=len(v))


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
_ROUNDERS = {
    "rni": np.rint,      # round half to even == CPython round()
    "rzi": np.trunc,
    "rmi": np.floor,
    "rpi": np.ceil,
}


def f2i(v, rounder: str, bits: int, signed: bool):
    """``float_to_int``: NaN → 0, out-of-range (incl. ±inf) saturates to
    the type bounds."""
    r = np.where(np.isnan(v), 0.0, _ROUNDERS.get(rounder, np.trunc)(v))
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    # Saturate by comparison and convert in-range lanes only: float(hi)
    # of a 64-bit type rounds up to hi + 1, which astype cannot hold.
    over, under = r >= float(hi), r <= float(lo)
    inner = np.where(over | under, 0.0, r).astype(_I64 if signed else _U64)
    return np.where(over, _U64(hi), np.where(under, _U64(lo & MASK64),
                                             inner.astype(_U64)))
