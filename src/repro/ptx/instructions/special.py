"""Special-function-unit instructions: sqrt, rsqrt, rcp, ex2, lg2, sin, cos.

These map to the GPU's SFU pipeline; the timing model charges them a
longer latency and lower throughput than plain ALU operations.
"""

from __future__ import annotations

import math

from repro.ptx import ast
from repro.ptx.instructions.common import apply_unary


def _safe_sqrt(value: float) -> float:
    if value < 0.0:
        return math.nan
    return math.sqrt(value)


def _safe_rsqrt(value: float) -> float:
    if value < 0.0:
        return math.nan
    if value == 0.0:
        return math.inf
    return 1.0 / math.sqrt(value)


def _safe_rcp(value: float) -> float:
    if value == 0.0:
        return math.copysign(math.inf, value)
    if math.isinf(value):
        return math.copysign(0.0, value)
    return 1.0 / value


def _safe_lg2(value: float) -> float:
    if value < 0.0:
        return math.nan
    if value == 0.0:
        return -math.inf
    return math.log2(value)


def _safe_ex2(value: float) -> float:
    try:
        return 2.0 ** value
    except OverflowError:
        return math.inf


def exec_sqrt(inst: ast.Instruction, warp, lanes) -> None:
    apply_unary(inst, warp, lanes, _safe_sqrt)


def exec_rsqrt(inst: ast.Instruction, warp, lanes) -> None:
    apply_unary(inst, warp, lanes, _safe_rsqrt)


def exec_rcp(inst: ast.Instruction, warp, lanes) -> None:
    apply_unary(inst, warp, lanes, _safe_rcp)


def exec_ex2(inst: ast.Instruction, warp, lanes) -> None:
    apply_unary(inst, warp, lanes, _safe_ex2)


def exec_lg2(inst: ast.Instruction, warp, lanes) -> None:
    apply_unary(inst, warp, lanes, _safe_lg2)


def _safe_sin(value: float) -> float:
    if math.isinf(value):
        return math.nan
    return math.sin(value)


def _safe_cos(value: float) -> float:
    if math.isinf(value):
        return math.nan
    return math.cos(value)


def exec_sin(inst: ast.Instruction, warp, lanes) -> None:
    apply_unary(inst, warp, lanes, _safe_sin)


def exec_cos(inst: ast.Instruction, warp, lanes) -> None:
    apply_unary(inst, warp, lanes, _safe_cos)


#: opcode -> scalar function, shared with the compiled scalar tier.
SFU = {"sqrt": _safe_sqrt, "rsqrt": _safe_rsqrt, "rcp": _safe_rcp,
       "ex2": _safe_ex2, "lg2": _safe_lg2, "sin": _safe_sin,
       "cos": _safe_cos}

__all__ = ["exec_sqrt", "exec_rsqrt", "exec_rcp", "exec_ex2", "exec_lg2",
           "exec_sin", "exec_cos"]
