"""Thread, warp, CTA and launch state for the functional simulator.

A :class:`LaunchContext` owns everything constant across one kernel
launch (param block, module symbols, texture bindings).  A
:class:`CTAState` owns shared memory and its warps; a :class:`WarpState`
owns 32 per-lane register files and the SIMT stack, and exposes the
operand/memory access API the instruction semantics are written against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationFault
from repro.functional.memory import (
    GLOBAL_BASE, CudaArray, GlobalMemory, LinearMemory)
from repro.functional.simt import SimtStack
from repro.ptx import ast
from repro.ptx.dtypes import DType
from repro.ptx.values import bits_to_f64, read_typed, write_typed
from repro.quirks import FIXED, LegacyQuirks

if TYPE_CHECKING:  # pragma: no cover
    from repro.ptx.ast import Kernel

WARP_SIZE = 32
FULL_MASK = (1 << WARP_SIZE) - 1

_LOCAL_ARENA_BYTES = 4096

#: Name prefixes of the read-only special registers: the per-lane tables
#: of :meth:`WarpState._build_special_table` plus the ``%clock`` family
#: :meth:`WarpState.reg_payload` answers from the launch clock.
_SPECIAL_PREFIXES = ("%tid", "%ntid", "%ctaid", "%nctaid", "%laneid",
                     "%warpid", "%clock")


def is_special(name: str) -> bool:
    """Is *name* a special register (never held in the register dict)?"""
    return name.startswith(_SPECIAL_PREFIXES)


@dataclass
class LaunchContext:
    """Everything constant for the duration of one kernel launch."""

    kernel: "Kernel"
    grid_dim: tuple[int, int, int]
    block_dim: tuple[int, int, int]
    global_mem: GlobalMemory
    param_mem: LinearMemory
    const_mem: LinearMemory = field(default_factory=lambda: LinearMemory(0))
    module_symbols: dict[str, tuple[str, int]] = field(default_factory=dict)
    textures: dict[str, CudaArray] = field(default_factory=dict)
    quirks: LegacyQuirks = FIXED
    clock: int = 0
    #: The runtime's launch ordinal (enqueue order): what the kernel
    #: hooks, the launch log and a checkpoint's ``x`` all count in.
    ordinal: int = 0
    #: The CTAs this execution covers, ``first_cta .. limit_cta-1``
    #: (``None``: to the grid's end); a shard or a resume narrows it.
    first_cta: int = 0
    limit_cta: int | None = None
    #: cta_linear -> restored :class:`CTAState` (checkpoint Data1).
    restored: dict[int, "CTAState"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.limit_cta is None:
            self.limit_cta = self.num_ctas
        self.param_offsets = {p.name: p.offset for p in self.kernel.params}
        self.shared_offsets: dict[str, int] = {}
        offset = 0
        for var in self.kernel.shared_vars:
            align = max(1, var.align or var.dtype.bytes)
            offset = (offset + align - 1) // align * align
            self.shared_offsets[var.name] = offset
            offset += var.size
        self.shared_bytes = offset
        self.local_offsets: dict[str, int] = {}
        offset = 0
        for var in self.kernel.local_vars:
            align = max(1, var.align or var.dtype.bytes)
            offset = (offset + align - 1) // align * align
            self.local_offsets[var.name] = offset
            offset += var.size
        self.local_bytes = max(offset, 0)

    @property
    def threads_per_block(self) -> int:
        bx, by, bz = self.block_dim
        return bx * by * bz

    @property
    def num_ctas(self) -> int:
        gx, gy, gz = self.grid_dim
        return gx * gy * gz

    @property
    def warps_per_block(self) -> int:
        return (self.threads_per_block + WARP_SIZE - 1) // WARP_SIZE

    def cta_coords(self, cta_linear: int) -> tuple[int, int, int]:
        gx, gy, _gz = self.grid_dim
        x = cta_linear % gx
        y = (cta_linear // gx) % gy
        z = cta_linear // (gx * gy)
        return (x, y, z)


class CTAState:
    """One cooperative thread array: shared memory, warps, barrier."""

    def __init__(self, launch: LaunchContext, cta_linear: int) -> None:
        self.launch = launch
        self.cta_linear = cta_linear
        self.ctaid = launch.cta_coords(cta_linear)
        self.shared = LinearMemory(max(launch.shared_bytes, 16))
        self.warps = [WarpState(self, index)
                      for index in range(launch.warps_per_block)]
        self._locals: dict[int, LinearMemory] = {}

    def local_for(self, thread_linear: int) -> LinearMemory:
        arena = self._locals.get(thread_linear)
        if arena is None:
            size = max(self.launch.local_bytes, 16)
            arena = LinearMemory(max(size, _LOCAL_ARENA_BYTES))
            self._locals[thread_linear] = arena
        return arena

    @property
    def finished(self) -> bool:
        return all(warp.finished for warp in self.warps)

    def release(self) -> None:
        """Drop the warps of a retired CTA.

        ``CTAState.warps`` and ``WarpState.cta`` form a reference cycle,
        so without this every retired CTA's 32 x N register dicts wait
        for a full cyclic collection.  Only the code that created the
        CTA may call it, once nothing will read its state again.
        """
        self.warps.clear()


class WarpState:
    """A 32-lane warp with per-lane register files and a SIMT stack."""

    __slots__ = ("cta", "warp_index", "regs", "tids", "thread_linear",
                 "simt", "at_barrier", "_special", "instructions_executed",
                 "dynamic_warp_id", "mem_trace", "uninit_upper")

    def __init__(self, cta: CTAState, warp_index: int) -> None:
        self.cta = cta
        self.warp_index = warp_index
        launch = cta.launch
        bx, by, _bz = launch.block_dim
        total = launch.threads_per_block
        base = warp_index * WARP_SIZE
        self.tids: list[tuple[int, int, int] | None] = []
        self.thread_linear: list[int] = []
        mask = 0
        for lane in range(WARP_SIZE):
            linear = base + lane
            self.thread_linear.append(linear)
            if linear < total:
                tx = linear % bx
                ty = (linear // bx) % by
                tz = linear // (bx * by)
                self.tids.append((tx, ty, tz))
                mask |= 1 << lane
            else:
                self.tids.append(None)
        self.regs: list[dict[str, int]] = [dict() for _ in range(WARP_SIZE)]
        self.simt = SimtStack.initial(mask)
        self.at_barrier = False
        self.mem_trace: list[tuple[str, int, int, bool]] = []
        self.uninit_upper = launch.quirks.rem_ignores_type
        self.instructions_executed = 0
        self.dynamic_warp_id = 0
        self._special = self._build_special_table()

    # ------------------------------------------------------------------
    # Special registers
    # ------------------------------------------------------------------
    def _build_special_table(self) -> dict[str, list[int]]:
        launch = self.cta.launch
        table: dict[str, list[int]] = {}
        axes = "xyz"
        for axis_index, axis in enumerate(axes):
            table[f"%tid.{axis}"] = [
                (tid[axis_index] if tid else 0) for tid in self.tids]
            table[f"%ntid.{axis}"] = (
                [launch.block_dim[axis_index]] * WARP_SIZE)
            table[f"%ctaid.{axis}"] = (
                [self.cta.ctaid[axis_index]] * WARP_SIZE)
            table[f"%nctaid.{axis}"] = (
                [launch.grid_dim[axis_index]] * WARP_SIZE)
        table["%laneid"] = list(range(WARP_SIZE))
        table["%warpid"] = [self.warp_index] * WARP_SIZE
        return table

    # ------------------------------------------------------------------
    # Register / operand access
    # ------------------------------------------------------------------
    @property
    def special(self) -> dict[str, list[int]]:
        """Per-lane value tables of the special registers (read-only).

        Superblock-compiled closures hoist these tables once per block
        execution instead of calling :meth:`reg_payload` per lane.
        """
        return self._special

    def arena_for(self, space: str):
        """The lane-invariant arena backing *space*.

        ``local`` is per-thread and deliberately rejected — callers that
        may touch local memory must go through :meth:`load`/:meth:`store`
        with an explicit lane.
        """
        if space == "global":
            return self.cta.launch.global_mem
        if space == "shared":
            return self.cta.shared
        if space == "param":
            return self.cta.launch.param_mem
        if space == "const":
            return self.cta.launch.const_mem
        raise SimulationFault(
            f"memory space {space!r} has no lane-invariant arena")

    def reg_payload(self, name: str, lane: int) -> int:
        special = self._special.get(name)
        if special is not None:
            return special[lane]
        if name.startswith("%clock"):
            return self.cta.launch.clock
        return self.regs[lane].get(name, 0)

    def read_pred(self, name: str, lane: int) -> bool:
        # Only bit 0 is the predicate value; upper union bytes may hold
        # garbage in legacy-quirk mode.
        return bool(self.regs[lane].get(name, 0) & 1)

    def write_pred(self, name: str, value: bool, lane: int) -> None:
        self.regs[lane][name] = 1 if value else 0

    def operand_payload(self, op: ast.Operand, dtype: DType,
                        lane: int) -> int:
        """Raw bit payload of a source operand, encoded per *dtype*."""
        kind = op.kind
        if kind == ast.REG:
            return self.reg_payload(op.name, lane)
        if kind == ast.IMM:
            if op.imm_float:
                return write_typed(bits_to_f64(op.payload), dtype)
            return op.payload
        if kind == ast.SYM:
            space, addr = self.symbol_address(op.name)
            del space
            return addr
        raise SimulationFault(f"cannot read operand kind {kind!r}")

    def operand_value(self, op: ast.Operand, dtype: DType,
                      lane: int) -> int | float:
        """Typed Python value of a source operand."""
        if op.kind == ast.IMM and op.imm_float:
            value = bits_to_f64(op.payload)
            if dtype.is_float:
                # Round through the instruction precision, as the payload
                # register would.
                return read_typed(write_typed(value, dtype), dtype)
            return int(value)
        return read_typed(self.operand_payload(op, dtype, lane), dtype)

    # ------------------------------------------------------------------
    # Address resolution and memory access
    # ------------------------------------------------------------------
    def symbol_address(self, name: str) -> tuple[str, int]:
        launch = self.cta.launch
        if name in launch.param_offsets:
            return ("param", launch.param_offsets[name])
        if name in launch.shared_offsets:
            return ("shared", launch.shared_offsets[name])
        if name in launch.local_offsets:
            return ("local", launch.local_offsets[name])
        if name in launch.module_symbols:
            return launch.module_symbols[name]
        raise SimulationFault(f"unknown symbol {name!r}")

    def resolve_address(self, op: ast.Operand, space: str | None,
                        lane: int) -> tuple[str, int]:
        """Resolve a MEM operand to (space, byte address) for one lane."""
        if op.kind != ast.MEM:
            raise SimulationFault(f"not a memory operand: {op}")
        if op.is_reg_base:
            base = self.reg_payload(op.name, lane)
            addr = (base + op.offset) & 0xFFFFFFFFFFFFFFFF
            if space is None or space == "generic":
                space = "global" if addr >= GLOBAL_BASE else "shared"
            return (space, addr)
        sym_space, sym_addr = self.symbol_address(op.name)
        if space is None or space == "generic":
            space = sym_space
        return (space, sym_addr + op.offset)

    def _arena(self, space: str, lane: int):
        if space == "global":
            return self.cta.launch.global_mem
        if space == "shared":
            return self.cta.shared
        if space == "param":
            return self.cta.launch.param_mem
        if space == "const":
            return self.cta.launch.const_mem
        if space == "local":
            return self.cta.local_for(self.thread_linear[lane])
        raise SimulationFault(f"unknown memory space {space!r}")

    def load(self, space: str, addr: int, nbytes: int, lane: int) -> int:
        return self._arena(space, lane).read_uint(addr, nbytes)

    def store(self, space: str, addr: int, value: int, nbytes: int,
              lane: int) -> None:
        self._arena(space, lane).write_uint(addr, value, nbytes)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def active_mask(self) -> int:
        return self.simt.active_mask

    @property
    def pc(self) -> int:
        return self.simt.pc

    @property
    def finished(self) -> bool:
        return self.simt.empty

    def active_lanes(self) -> list[int]:
        mask = self.simt.active_mask
        return [lane for lane in range(WARP_SIZE) if mask & (1 << lane)]


def thread_tables(launch: LaunchContext, num_ctas: int):
    """Bookkeeping arrays for a chunk of *num_ctas* CTAs.

    The megablock tier executes ``num_ctas * threads_per_block`` grid
    threads in lockstep; this builds what every chunk needs per thread:
    its chunk-local CTA index, its linear thread id within the block and
    its chunk-local warp id.  Special-register columns are built one at
    a time, only for the registers a kernel reads (:func:`special_column`).
    """
    import numpy as np

    tpb = launch.threads_per_block
    linear = np.arange(num_ctas * tpb, dtype=np.int64)
    cta_index = linear // tpb
    lin_in_block = linear - cta_index * tpb
    warp_of = cta_index * launch.warps_per_block + (lin_in_block >> 5)
    return {
        "cta_index": cta_index,
        "lin_in_block": lin_in_block,
        "warp_of": warp_of,
    }


def special_column(launch: LaunchContext, name: str, cta_start: int,
                   cta_index, lin_in_block):
    """Per-thread payloads of special register *name* for a chunk (the
    arrays of :func:`thread_tables`, whose CTAs start at grid CTA
    *cta_start*), mirroring :meth:`WarpState._build_special_table`: a
    ``uint32`` column, the width of every special register the vector
    tier reads.
    """
    import numpy as np

    u32 = np.uint32
    if name == "%laneid":
        return (lin_in_block & 31).astype(u32)
    if name == "%warpid":
        return (lin_in_block >> 5).astype(u32)
    kind, _, axis_name = name.partition(".")
    axis = {"x": 0, "y": 1, "z": 2}[axis_name]
    if kind == "%ntid":
        return np.full(len(lin_in_block), launch.block_dim[axis], u32)
    if kind == "%nctaid":
        return np.full(len(lin_in_block), launch.grid_dim[axis], u32)
    dims, index = {"%tid": (launch.block_dim, lin_in_block),
                   "%ctaid": (launch.grid_dim, cta_index + cta_start)}[kind]
    column = index // math.prod(dims[:axis])
    if axis < 2:
        column %= dims[axis]
    return column.astype(u32)
