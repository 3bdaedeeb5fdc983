"""Memory instructions: ld, st, atom/red, tex.

Every access appends ``(space, address, nbytes, is_write)`` to the warp's
``mem_trace``; the timing model coalesces those per-lane addresses into
DRAM transactions, which is how bank camping becomes observable.
"""

from __future__ import annotations

from repro.errors import SimulationFault, UnsupportedInstructionError
from repro.ptx import ast
from repro.ptx.instructions.common import (
    float_max, float_min, sign_extend_payload, write_union)
from repro.ptx.values import f32_to_bits, mask, read_typed, write_typed

_VEC_WIDTH = {"v2": 2, "v4": 4}


def _vector_width(inst: ast.Instruction) -> int:
    for mod in inst.modifiers:
        if mod in _VEC_WIDTH:
            return _VEC_WIDTH[mod]
    return 1


def exec_ld(inst: ast.Instruction, warp, lanes) -> None:
    dtype = inst.dtype
    nbytes = dtype.bytes
    width = _vector_width(inst)
    dst, mem = inst.operands
    targets = dst.elems if dst.kind == ast.VEC else (dst,)
    if len(targets) != width:
        raise SimulationFault(f"ld vector arity mismatch: {inst.text}")
    trace = warp.mem_trace
    for lane in lanes:
        space, addr = warp.resolve_address(mem, inst.space, lane)
        trace.append((space, addr, nbytes * width, False))
        for i, target in enumerate(targets):
            raw = warp.load(space, addr + i * nbytes, nbytes, lane)
            if dtype.is_signed and dtype.bits < 64:
                payload = sign_extend_payload(raw, dtype.bits)
            else:
                payload = raw
            warp.regs[lane][target.name] = payload


def exec_st(inst: ast.Instruction, warp, lanes) -> None:
    dtype = inst.dtype
    nbytes = dtype.bytes
    width = _vector_width(inst)
    mem, src = inst.operands
    sources = src.elems if src.kind == ast.VEC else (src,)
    if len(sources) != width:
        raise SimulationFault(f"st vector arity mismatch: {inst.text}")
    trace = warp.mem_trace
    for lane in lanes:
        space, addr = warp.resolve_address(mem, inst.space, lane)
        trace.append((space, addr, nbytes * width, True))
        for i, source in enumerate(sources):
            payload = warp.operand_payload(source, dtype, lane)
            warp.store(space, addr + i * nbytes, payload & mask(dtype.bits),
                       nbytes, lane)


_ATOM_INT_OPS = {
    "add": lambda old, val: old + val,
    "min": min,
    "max": max,
    "and": lambda old, val: old & val,
    "or": lambda old, val: old | val,
    "xor": lambda old, val: old ^ val,
    "exch": lambda old, val: val,
    "inc": lambda old, val: 0 if old >= val else old + 1,
    "dec": lambda old, val: val if (old == 0 or old > val) else old - 1,
}

_ATOM_FLOAT_OPS = {
    "add": lambda old, val: old + val,
    "min": float_min,
    "max": float_max,
    "exch": lambda old, val: val,
}


def exec_atom(inst: ast.Instruction, warp, lanes) -> None:
    """Atomic read-modify-write; lanes serialize in lane order."""
    dtype = inst.dtype
    nbytes = dtype.bytes
    operation = next((m for m in inst.modifiers
                      if m in _ATOM_INT_OPS or m == "cas"), None)
    if operation is None:
        raise UnsupportedInstructionError(f"atom op in {inst.text!r}")
    if inst.opcode == "red":
        mem = inst.operands[0]
        dst = None
        value_op = inst.operands[1]
    else:
        dst, mem, value_op = inst.operands[0], inst.operands[1], inst.operands[2]
    trace = warp.mem_trace
    for lane in lanes:
        space, addr = warp.resolve_address(mem, inst.space, lane)
        trace.append((space, addr, nbytes, True))
        raw_old = warp.load(space, addr, nbytes, lane)
        old = read_typed(raw_old, dtype)
        if operation == "cas":
            compare = warp.operand_value(value_op, dtype, lane)
            swap = warp.operand_value(inst.operands[3], dtype, lane)
            new = swap if old == compare else old
        else:
            value = warp.operand_value(value_op, dtype, lane)
            ops = _ATOM_FLOAT_OPS if dtype.is_float else _ATOM_INT_OPS
            if operation not in ops:
                raise UnsupportedInstructionError(
                    f"atom.{operation} on {dtype}")
            new = ops[operation](old, value)
        warp.store(space, addr, write_typed(new, dtype), nbytes, lane)
        if dst is not None:
            write_union(warp, dst.name, write_typed(old, dtype),
                        dtype.bits, lane)


def exec_red(inst: ast.Instruction, warp, lanes) -> None:
    exec_atom(inst, warp, lanes)


def exec_tex(inst: ast.Instruction, warp, lanes) -> None:
    """2D texture fetch, point-sampled, single channel.

    ``tex.2d.v4.f32.s32 {r,g,b,a}, [texname, {x, y}]`` — the texture name
    is resolved through the launch's binding table, which the runtime
    fills via the name → texref → cudaArray plumbing of Section III-C.
    """
    dst, mem = inst.operands
    if mem.kind != ast.MEM or mem.is_reg_base:
        raise SimulationFault(f"tex needs a texture symbol: {inst.text}")
    sampler = warp.cta.launch.textures.get(mem.name)
    if sampler is None:
        raise SimulationFault(
            f"texture {mem.name!r} has no bound cudaArray — the paper's "
            "Section III-C describes exactly this failure mode")
    coord_type = inst.dtypes[1] if len(inst.dtypes) > 1 else inst.dtypes[0]
    targets = dst.elems if dst.kind == ast.VEC else (dst,)
    trace = warp.mem_trace
    for lane in lanes:
        x = warp.operand_value(mem.elems[0], coord_type, lane)
        y = warp.operand_value(mem.elems[1], coord_type, lane)
        texel = sampler.fetch(int(x), int(y))
        address = 4 * (int(y) * sampler.width + int(x))
        trace.append(("tex", address, 4, False))
        payloads = [f32_to_bits(texel), 0, 0, f32_to_bits(1.0)]
        for i, target in enumerate(targets):
            warp.regs[lane][target.name] = payloads[min(i, 3)]



__all__ = ["exec_ld", "exec_st", "exec_atom", "exec_red", "exec_tex"]
