"""Bit-exact NumPy kernels for the megablock vector tier.

Generated megablock code (see :mod:`repro.functional.megablock`) binds
this module as ``H`` and works on ``(T,)`` ``uint64`` payload arrays —
one element per *thread of the grid chunk*, mirroring the per-lane
64-bit payload unions of the scalar register files.

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
"""

from __future__ import annotations

import numpy as np

from repro.ptx.instructions.special import SFU

MASK64 = 0xFFFFFFFFFFFFFFFF

_U8 = np.uint64(8)

_F32 = np.float32
_F64 = np.float64
_U32 = np.uint32
_U64 = np.uint64
_I32 = np.int32
_I64 = np.int64


# ----------------------------------------------------------------------
# Payload <-> value codecs
# ----------------------------------------------------------------------
def u(x, bits: int):
    """Unsigned value of the low *bits* of a uint64 payload array."""
    if bits >= 64:
        return x
    return x & _U64((1 << bits) - 1)


def s(x, bits: int):
    """Signed value (int64 array) of the low *bits* of a payload array."""
    if bits == 64:
        return x.view(_I64)
    if bits == 32:
        return x.astype(_U32).view(_I32).astype(_I64)
    # 8/16-bit: mask, flip the sign bit, re-bias (same trick the scalar
    # tier's to_signed uses, kept in int64 where it cannot overflow).
    sign = 1 << (bits - 1)
    low = (x & _U64((1 << bits) - 1)).astype(_I64)
    return (low ^ sign) - sign


def f32(x):
    """float64 array holding the f32 value of the low payload word."""
    return x.astype(_U32).view(_F32).astype(_F64)


def f64(x):
    return x.view(_F64)


def f16(x):
    """float64 array of the f16 value in the low payload halfword."""
    return (x & _U64(0xFFFF)).astype(np.uint16).view(np.float16) \
        .astype(_F64)


def ef32(v):
    """Encode a float64 array as an f32 payload (round-to-nearest)."""
    return v.astype(_F32).view(_U32).astype(_U64)


def ef64(v):
    return v.view(_U64)


def ef16(v):
    """Encode through IEEE binary16 (round-to-nearest, overflow→inf);
    a NaN keeps only its sign, as ``values.f16_to_bits`` does."""
    bits = v.astype(np.float16).view(np.uint16).astype(_U64)
    return np.where(v != v, (bits & _U64(0x8000)) | _U64(0x7E00), bits)


def p64(x):
    """Reinterpret an int64 (or pass through a uint64) array as payload."""
    arr = np.asarray(x)
    if arr.dtype == _I64:
        return arr.view(_U64)
    if arr.dtype == _U64:
        return arr
    return arr.astype(_U64)


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
    q = a // np.where(bz, _U64(1), b)
    return np.where(bz, _U64((1 << bits) - 1), q)


def urem(a, b):
    """``int_rem`` on unsigned values: divisor 0 → dividend."""
    bz = b == 0
    r = a % np.where(bz, _U64(1), b)
    return np.where(bz, a, r)


def _magnitudes(a, b, bz):
    """``|a|``, ``|b|`` as uint64 (exact for INT64_MIN, whose int64
    ``abs`` wraps to itself), zero divisors replaced by 1."""
    return (np.abs(a).view(_U64),
            np.abs(np.where(bz, _I64(1), b)).view(_U64))


def sdiv(a, b, bits: int):
    """``int_div`` on signed values: trunc-toward-zero, 0 → -1."""
    bz = b == 0
    ma, mb = _magnitudes(a, b, bz)
    q = ma // mb
    q = np.where((a < 0) != (b < 0), _U64(0) - q, q)
    q = np.where(bz, _U64(MASK64), q)
    return q & _U64((1 << bits) - 1) if bits < 64 else q


def srem(a, b):
    """``int_rem`` on signed values: sign of dividend, 0 → dividend."""
    bz = b == 0
    ma, mb = _magnitudes(a, b, bz)
    r = ma % mb
    r = np.where(a < 0, _U64(0) - r, r)
    return np.where(bz, p64(a), r)


def shl(a, amt, bits: int):
    """Payload shift-left with the scalar >=width → 0 clamp."""
    amt = amt & _U64(0xFFFFFFFF)
    over = amt >= bits
    return np.where(over, _U64(0), a << np.where(over, _U64(0), amt))


def shr_u(a, amt, bits: int):
    amt = amt & _U64(0xFFFFFFFF)
    over = amt >= bits
    return np.where(over, _U64(0), a >> np.where(over, _U64(0), amt))


def shr_s(v, amt, bits: int):
    """Arithmetic shift on signed values; >=width → sign fill."""
    amt = amt & _U64(0xFFFFFFFF)
    over = amt >= bits
    fill = np.where(v < 0, _I64(-1), _I64(0))
    shifted = v >> np.where(over, _U64(0), amt).astype(_I64)
    res = np.where(over, fill, shifted)
    return p64(res) & _U64((1 << bits) - 1) if bits < 64 else p64(res)


def brev32(a):
    """32-bit bit reversal (matches the string-reverse reference)."""
    x = a & _U64(0xFFFFFFFF)
    x = ((x >> _U64(1)) & _U64(0x55555555)) | ((x & _U64(0x55555555)) << _U64(1))
    x = ((x >> _U64(2)) & _U64(0x33333333)) | ((x & _U64(0x33333333)) << _U64(2))
    x = ((x >> _U64(4)) & _U64(0x0F0F0F0F)) | ((x & _U64(0x0F0F0F0F)) << _U64(4))
    x = ((x >> _U8) & _U64(0x00FF00FF)) | ((x & _U64(0x00FF00FF)) << _U8)
    return ((x >> _U64(16)) | (x << _U64(16))) & _U64(0xFFFFFFFF)


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
    out = np.where(over, _U64(hi), np.where(under, _U64(lo & MASK64),
                                            p64(inner)))
    return out & _U64((1 << bits) - 1) if bits < 64 else out


def i2f(value_array):
    """int → float64 (exact for every int32; rounds once for 64-bit)."""
    return value_array.astype(_F64)
