"""Data movement and conversion: mov, cvt, cvta.

``cvt`` covers the FP16 support the paper added ("including instructions
that convert FP32 to FP16 and back using an open source library"); with
:attr:`LegacyQuirks.fp16_unsupported` the pre-paper behaviour (an
unsupported-instruction fault) is restored.
"""

from __future__ import annotations

import math

from repro.errors import SimulationFault, UnsupportedInstructionError
from repro.ptx import ast
from repro.ptx.dtypes import DType
from repro.ptx.instructions.common import write_union
from repro.ptx.values import (
    bits_to_f64, clamp_int, read_typed, saturate_float, write_typed)


def exec_mov(inst: ast.Instruction, warp, lanes) -> None:
    dtype = inst.dtype
    dst, src = inst.operands
    if dst.kind == ast.VEC or src.kind == ast.VEC:
        _exec_mov_vec(inst, warp, lanes, dtype)
        return
    if dtype.kind == "p":
        for lane in lanes:
            warp.write_pred(dst.name, bool(warp.operand_payload(
                src, dtype, lane)), lane)
        return
    for lane in lanes:
        payload = warp.operand_payload(src, dtype, lane)
        write_union(warp, dst.name, payload, dtype.bits, lane)


def _exec_mov_vec(inst: ast.Instruction, warp, lanes, dtype: DType) -> None:
    dst, src = inst.operands
    half = DType(dtype.kind if dtype.kind != "b" else "b", dtype.bits // 2)
    if dst.kind == ast.VEC and src.kind != ast.VEC:
        # Unpack: mov.b64 {lo, hi}, %rd
        for lane in lanes:
            payload = warp.operand_payload(src, dtype, lane)
            lo = payload & ((1 << half.bits) - 1)
            hi = payload >> half.bits
            write_union(warp, dst.elems[0].name, lo, half.bits, lane)
            write_union(warp, dst.elems[1].name, hi, half.bits, lane)
        return
    if src.kind == ast.VEC and dst.kind != ast.VEC:
        # Pack: mov.b64 %rd, {lo, hi}
        for lane in lanes:
            lo = warp.operand_payload(src.elems[0], half, lane)
            hi = warp.operand_payload(src.elems[1], half, lane)
            payload = (lo & ((1 << half.bits) - 1)) | (hi << half.bits)
            write_union(warp, dst.name, payload, dtype.bits, lane)
        return
    raise SimulationFault("vector-to-vector mov is not supported")


_FLOAT_TO_INT_ROUNDING = {
    "rni": round,  # Python's round() is round-half-to-even
    "rzi": math.trunc,
    "rmi": math.floor,
    "rpi": math.ceil,
}


def float_to_int(value: float, rounder: str, bits: int,
                 signed: bool) -> int:
    """Float -> integer ``cvt``: NaN gives 0; ±inf and out-of-range
    values saturate to the bounds of the destination type.

    Shared with the compiled scalar tier; ``npops.f2i`` is its NumPy
    twin (same signature).
    """
    if math.isnan(value):
        return 0
    if math.isinf(value):
        rounded = 1 << 64 if value > 0 else -(1 << 64)
    else:
        rounded = _FLOAT_TO_INT_ROUNDING[rounder](value)
    return clamp_int(rounded, DType("s" if signed else "u", bits))


def exec_cvt(inst: ast.Instruction, warp, lanes) -> None:
    if len(inst.dtypes) < 2:
        raise SimulationFault(f"cvt needs two type specifiers: {inst.text}")
    dst_type, src_type = inst.dtypes[0], inst.dtypes[1]
    if (dst_type.bits == 16 and dst_type.is_float) or (
            src_type.bits == 16 and src_type.is_float):
        if warp.cta.launch.quirks.fp16_unsupported:
            raise UnsupportedInstructionError(
                "FP16 cvt is not implemented in stock GPGPU-Sim; the paper "
                "added it via an open-source half-float library")
    dst, src = inst.operands
    saturate = inst.has_mod("sat")
    for lane in lanes:
        value = warp.operand_value(src, src_type, lane)
        converted = _convert(value, src_type, dst_type, inst, saturate)
        payload = write_typed(converted, dst_type)
        write_union(warp, dst.name, payload, dst_type.bits, lane)


def _convert(value, src_type: DType, dst_type: DType,
             inst: ast.Instruction, saturate: bool):
    if dst_type.is_float:
        result = float(value)
        if saturate:
            result = saturate_float(result)
        return result
    if src_type.is_float:
        rounder = next((mod for mod in inst.modifiers
                        if mod in _FLOAT_TO_INT_ROUNDING), "rzi")
        return float_to_int(value, rounder, dst_type.bits,
                            dst_type.is_signed)
    # Integer to integer: value already carries src signedness.
    if saturate:
        return clamp_int(value, dst_type)
    return value


def exec_cvta(inst: ast.Instruction, warp, lanes) -> None:
    """Generic-address conversion; our address map is flat, so a move."""
    dtype = inst.dtype
    dst, src = inst.operands
    for lane in lanes:
        payload = warp.operand_payload(src, dtype, lane)
        write_union(warp, dst.name, payload, dtype.bits, lane)


__all__ = ["exec_mov", "exec_cvt", "exec_cvta"]
