"""Shared helpers for PTX instruction semantics.

Register writes follow C-union semantics, as in GPGPU-Sim's
``ptx_reg_t``: writing a sub-64-bit member leaves the register's upper
bytes untouched.  Correct instruction implementations always read back
through the matching-width accessor, so the stale bytes are harmless —
until an implementation reads the wrong member, which is exactly how the
paper's ``rem`` bug corrupted results (it always read ``.u64``).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.ptx import ast
from repro.ptx.dtypes import DType
from repro.ptx.values import (
    MASK64, canonical, mask, to_signed, write_typed)

BinaryFn = Callable[[int | float, int | float], int | float]
UnaryFn = Callable[[int | float], int | float]


#: Deterministic stand-in for the stack garbage GPGPU-Sim's fresh
#: ``ptx_reg_t`` unions carry in their upper bytes (quirk mode only).
STACK_GARBAGE = 0x3ABD_BEEF_0000_0000


def write_union(warp, name: str, payload: int, bits: int, lane: int) -> None:
    """Write *bits* low bits of a register, preserving the upper bytes.

    With :attr:`LegacyQuirks.rem_ignores_type` the upper bytes are
    instead *uninitialised* (modelled as a fixed garbage pattern), which
    is what made the historical u64-blind ``rem`` observable.
    """
    if bits >= 64:
        warp.regs[lane][name] = payload & MASK64
        return
    keep = MASK64 ^ mask(bits)
    if warp.uninit_upper:
        old = STACK_GARBAGE
    else:
        old = warp.regs[lane].get(name, 0)
    warp.regs[lane][name] = (old & keep) | (payload & mask(bits))


def write_result(warp, inst: ast.Instruction, value: int | float,
                 dtype: DType, lane: int) -> None:
    """Encode *value* per *dtype* and union-write it to the dst operand."""
    payload = write_typed(value, dtype)
    write_union(warp, inst.operands[0].name, payload, dtype.bits, lane)


def _canonical(fn: Callable[..., int | float], dtype: DType):
    """*fn* of two or more operands, with a float NaN result made
    canonical (:func:`repro.ptx.values.canonical`)."""
    if not dtype.is_float:
        return fn
    return lambda *values: canonical(fn(*values))


def apply_binary(inst: ast.Instruction, warp, lanes, fn: BinaryFn) -> None:
    """dst = fn(src1, src2), all interpreted per the instruction dtype."""
    dtype = inst.dtype
    _dst, a, b = inst.operands
    fn = _canonical(fn, dtype)
    for lane in lanes:
        result = fn(warp.operand_value(a, dtype, lane),
                    warp.operand_value(b, dtype, lane))
        write_result(warp, inst, result, dtype, lane)


def apply_unary(inst: ast.Instruction, warp, lanes, fn: UnaryFn) -> None:
    """dst = fn(src), interpreted per the instruction dtype."""
    dtype = inst.dtype
    _dst, a = inst.operands
    for lane in lanes:
        write_result(warp, inst, fn(warp.operand_value(a, dtype, lane)),
                     dtype, lane)


def apply_ternary(inst: ast.Instruction, warp, lanes,
                  fn: Callable[..., int | float]) -> None:
    """dst = fn(a, b, c), per the instruction dtype."""
    dtype = inst.dtype
    _dst, a, b, c = inst.operands
    fn = _canonical(fn, dtype)
    for lane in lanes:
        result = fn(warp.operand_value(a, dtype, lane),
                    warp.operand_value(b, dtype, lane),
                    warp.operand_value(c, dtype, lane))
        write_result(warp, inst, result, dtype, lane)


def int_div(a: int, b: int) -> int:
    """C-style integer division: truncate toward zero; x/0 -> all ones."""
    if b == 0:
        return -1
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def int_rem(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend; x%0 -> dividend."""
    if b == 0:
        return a
    return a - b * int_div(a, b)


def float_div(a: float, b: float) -> float:
    """IEEE division including the b == 0 cases."""
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf * sign
    return a / b


def float_min(a: float, b: float) -> float:
    """PTX min: if one input is NaN, return the other."""
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return min(a, b)


def float_max(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return max(a, b)


def sign_extend_payload(raw: int, bits: int) -> int:
    """Sign-extend a *bits*-wide value into a full 64-bit payload."""
    return to_signed(raw, bits) & MASK64


def wide_dtype(dtype: DType) -> DType:
    """Result type of ``mul.wide`` / ``mad.wide``: double the width."""
    return DType(dtype.kind, dtype.bits * 2)
