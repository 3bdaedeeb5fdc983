"""Bit-manipulation PTX instructions.

``brev`` is the instruction the paper *added* to GPGPU-Sim ("introduced
in PTX version 2.0, for FFT-based convolutional kernels"); ``bfe`` is the
instruction whose signed variant the paper *fixed* after differential
coverage analysis.  Both historical behaviours are re-injectable through
:class:`repro.quirks.LegacyQuirks`.
"""

from __future__ import annotations

from repro.errors import UnsupportedInstructionError
from repro.ptx import ast
from repro.ptx.instructions.common import apply_binary, write_union
from repro.ptx.values import mask, to_unsigned


def _shift_amount(value: int, bits: int) -> int:
    # PTX clamps shift amounts to the register width.
    return min(value & 0xFFFFFFFF, bits)


def exec_and(inst: ast.Instruction, warp, lanes) -> None:
    apply_binary(inst, warp, lanes, lambda a, b: a & b)


def exec_or(inst: ast.Instruction, warp, lanes) -> None:
    apply_binary(inst, warp, lanes, lambda a, b: a | b)


def exec_xor(inst: ast.Instruction, warp, lanes) -> None:
    apply_binary(inst, warp, lanes, lambda a, b: a ^ b)


def exec_not(inst: ast.Instruction, warp, lanes) -> None:
    dtype = inst.dtype
    _dst, a = inst.operands
    width_mask = mask(dtype.bits)
    for lane in lanes:
        value = warp.operand_payload(a, dtype, lane) & width_mask
        write_union(warp, inst.operands[0].name, value ^ width_mask,
                    dtype.bits, lane)


def exec_shl(inst: ast.Instruction, warp, lanes) -> None:
    dtype = inst.dtype
    _dst, a, b = inst.operands
    bits = dtype.bits
    for lane in lanes:
        value = warp.operand_payload(a, dtype, lane) & mask(bits)
        amount = _shift_amount(warp.operand_payload(b, dtype, lane), bits)
        write_union(warp, inst.operands[0].name, value << amount, bits, lane)


def exec_shr(inst: ast.Instruction, warp, lanes) -> None:
    dtype = inst.dtype
    _dst, a, b = inst.operands
    bits = dtype.bits
    for lane in lanes:
        amount = _shift_amount(warp.operand_payload(b, dtype, lane), bits)
        value = warp.operand_value(a, dtype, lane)  # signed ⇒ arithmetic
        if amount >= bits:
            result = -1 if (dtype.is_signed and value < 0) else 0
        else:
            result = value >> amount
        write_union(warp, inst.operands[0].name, result & mask(bits),
                    bits, lane)


def reverse_bits(value: int, bits: int) -> int:
    """The low *bits* of *value* in reverse order."""
    return int(format(value & mask(bits), f"0{bits}b")[::-1], 2)


def exec_brev(inst: ast.Instruction, warp, lanes) -> None:
    """Bit reverse — output the bits of the input in reverse order."""
    if warp.cta.launch.quirks.brev_unsupported:
        raise UnsupportedInstructionError(
            "brev is not implemented in stock GPGPU-Sim (pre-paper); "
            "cuDNN FFT kernels require it")
    dtype = inst.dtype
    bits = dtype.bits
    _dst, a = inst.operands
    for lane in lanes:
        write_union(warp, inst.operands[0].name, reverse_bits(
            warp.operand_payload(a, dtype, lane), bits), bits, lane)


def exec_bfe(inst: ast.Instruction, warp, lanes) -> None:
    """Bit field extract with correct signed semantics.

    The quirk restores the pre-paper bug: the extracted field is never
    sign-extended, which is wrong for ``bfe.s32``/``bfe.s64`` whenever
    the field's top bit is set.
    """
    quirks = warp.cta.launch.quirks
    dtype = inst.dtype
    bits = dtype.bits
    msb = bits - 1
    _dst, a, b, c = inst.operands
    for lane in lanes:
        value = warp.operand_payload(a, dtype, lane) & mask(bits)
        pos = warp.operand_payload(b, dtype, lane) & 0xFF
        length = warp.operand_payload(c, dtype, lane) & 0xFF
        if dtype.is_signed and not quirks.bfe_unsigned_only:
            if length == 0:
                sign_bit = 0
            else:
                sign_index = min(pos + length - 1, msb)
                sign_bit = (value >> sign_index) & 1
        else:
            sign_bit = 0
        result = 0
        for i in range(bits):
            if i < length and pos + i <= msb:
                bit = (value >> (pos + i)) & 1
            else:
                bit = sign_bit
            result |= bit << i
        write_union(warp, inst.operands[0].name, result, bits, lane)


def exec_bfi(inst: ast.Instruction, warp, lanes) -> None:
    """Bit field insert: f = insert a into b at position c, length d."""
    dtype = inst.dtype
    bits = dtype.bits
    _dst, a, b, c, d = inst.operands
    for lane in lanes:
        src = warp.operand_payload(a, dtype, lane) & mask(bits)
        base = warp.operand_payload(b, dtype, lane) & mask(bits)
        pos = warp.operand_payload(c, dtype, lane) & 0xFF
        length = warp.operand_payload(d, dtype, lane) & 0xFF
        if length == 0 or pos >= bits:
            result = base
        else:
            field_mask = ((1 << length) - 1) << pos
            result = (base & ~field_mask) | ((src << pos) & field_mask)
        write_union(warp, inst.operands[0].name, result & mask(bits),
                    bits, lane)


def exec_popc(inst: ast.Instruction, warp, lanes) -> None:
    dtype = inst.dtype
    _dst, a = inst.operands
    for lane in lanes:
        value = warp.operand_payload(a, dtype, lane) & mask(dtype.bits)
        write_union(warp, inst.operands[0].name, bin(value).count("1"),
                    32, lane)


def exec_clz(inst: ast.Instruction, warp, lanes) -> None:
    dtype = inst.dtype
    bits = dtype.bits
    _dst, a = inst.operands
    for lane in lanes:
        value = warp.operand_payload(a, dtype, lane) & mask(bits)
        leading = bits - value.bit_length()
        write_union(warp, inst.operands[0].name, leading, 32, lane)


__all__ = [name for name in dir() if name.startswith("exec_")]
