"""Typed reinterpretation of 64-bit register payloads.

GPGPU-Sim stores register contents in a C union (``ptx_reg_t``).  We keep
the same model: every register holds a raw 64-bit integer payload and the
*instruction's type specifier* decides how the payload is interpreted.
This makes the paper's historical bug classes expressible — computing a
``.u64`` remainder on ``.s32`` operands is simply reading the payload with
the wrong accessor.

All helpers are module-level functions on plain ints for speed; the
functional interpreter calls them in its inner loop.
"""

from __future__ import annotations

import math
import struct

from repro.ptx.dtypes import DType

MASK8 = 0xFF
MASK16 = 0xFFFF
MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF

_MASKS = {1: 0x1, 8: MASK8, 16: MASK16, 32: MASK32, 64: MASK64}
_SIGN_BITS = {1: 0x1, 8: 1 << 7, 16: 1 << 15, 32: 1 << 31, 64: 1 << 63}

_PACK_F32 = struct.Struct("<f")
_PACK_F64 = struct.Struct("<d")
_PACK_F16 = struct.Struct("<e")
_PACK_U32 = struct.Struct("<I")
_PACK_U64 = struct.Struct("<Q")
_PACK_U16 = struct.Struct("<H")


def mask(bits: int) -> int:
    return _MASKS[bits]


def to_unsigned(payload: int, bits: int) -> int:
    """Read the low *bits* of a payload as an unsigned integer."""
    return payload & _MASKS[bits]


def to_signed(payload: int, bits: int) -> int:
    """Read the low *bits* of a payload as a two's-complement integer."""
    value = payload & _MASKS[bits]
    if value & _SIGN_BITS[bits]:
        value -= 1 << bits
    return value


def from_int(value: int, bits: int = 64) -> int:
    """Wrap a Python int into an unsigned payload of the given width."""
    return value & _MASKS[bits]


def f32_to_bits(value: float) -> int:
    """Round a Python float to IEEE binary32 and return its bit pattern."""
    try:
        return _PACK_U32.unpack(_PACK_F32.pack(value))[0]
    except OverflowError:
        return 0x7F800000 if value > 0 else 0xFF800000


def bits_to_f32(payload: int) -> float:
    return _PACK_F32.unpack(_PACK_U32.pack(payload & MASK32))[0]


def f64_to_bits(value: float) -> int:
    return _PACK_U64.unpack(_PACK_F64.pack(value))[0]


def bits_to_f64(payload: int) -> float:
    return _PACK_F64.unpack(_PACK_U64.pack(payload & MASK64))[0]


def f16_to_bits(value: float) -> int:
    """Round to IEEE binary16.

    The paper added FP16 support to GPGPU-Sim "using an open source
    library"; our equivalent is the C library's half-float conversion
    exposed through :mod:`struct` format ``e``.
    """
    try:
        return _PACK_U16.unpack(_PACK_F16.pack(value))[0]
    except OverflowError:
        return 0x7C00 if value > 0 else 0xFC00


def bits_to_f16(payload: int) -> float:
    return _PACK_F16.unpack(_PACK_U16.pack(payload & MASK16))[0]


def read_typed(payload: int, dtype: DType) -> int | float:
    """Interpret a raw payload according to a PTX type specifier."""
    kind = dtype.kind
    if kind == "f":
        if dtype.bits == 32:
            return bits_to_f32(payload)
        if dtype.bits == 64:
            return bits_to_f64(payload)
        return bits_to_f16(payload)
    if kind == "s":
        return to_signed(payload, dtype.bits)
    # Unsigned and untyped-bits reads are identical.
    return payload & _MASKS[dtype.bits]


def write_typed(value: int | float, dtype: DType) -> int:
    """Encode a Python value as a raw payload per a PTX type specifier."""
    kind = dtype.kind
    if kind == "f":
        if dtype.bits == 32:
            return f32_to_bits(value)
        if dtype.bits == 64:
            return f64_to_bits(value)
        return f16_to_bits(value)
    return int(value) & _MASKS[dtype.bits]


def saturate_float(value: float) -> float:
    """PTX ``.sat`` clamps to [0.0, 1.0] and maps NaN to +0.0."""
    if math.isnan(value):
        return 0.0
    return min(1.0, max(0.0, value))


def clamp_int(value: int, dtype: DType) -> int:
    """Clamp to the representable range (used by saturating ``cvt``)."""
    if dtype.kind == "s":
        lo = -(1 << (dtype.bits - 1))
        hi = (1 << (dtype.bits - 1)) - 1
    else:
        lo = 0
        hi = (1 << dtype.bits) - 1
    return min(hi, max(lo, value))
