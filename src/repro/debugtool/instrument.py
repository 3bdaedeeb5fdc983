"""PTX instrumentation: log every register write to global memory.

Reproduces the paper's Figure 3 transformation (there done with an
LLVM-based tool): after every instruction that writes a value to a
general-purpose register, store ``(static pc, register payload)`` into a
per-thread region of a global log buffer.  Comparing the logs from the
simulator-under-test and the reference run identifies "the first
instruction that executed incorrectly".

Log layout: per linear thread id (x fastest, then y, then z, threads
within CTAs), ``entries_per_thread`` records of 16 bytes — ``u32 pc``
at +0, the register payload at +8.  The host pre-fills the buffer with
``0xFF``, so the first record whose pc reads ``0xFFFFFFFF`` ends a
thread's log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import defs_of
from repro.errors import DebugToolError
from repro.ptx import ast
from repro.ptx.dtypes import U64
from repro.debugtool.ptxprint import format_instruction, format_kernel

ENTRY_BYTES = 16
LOG_PARAM = "__instr_log"
#: Log records per thread — the one slot size every level-3 replay uses
#: unless a caller sizes its own; a thread that fills its slot is an
#: error (:func:`decode_log`), never a silently truncated comparison.
ENTRIES_PER_THREAD = 4096


def _dest_width(kernel: ast.Kernel, inst: ast.Instruction) -> int | None:
    """Declared width of the general register *inst* writes, or None
    when it defines none (or a vector, or a predicate)."""
    if not defs_of(inst) or inst.operands[0].kind != ast.REG:
        return None
    decl = kernel.reg_decls.get(inst.operands[0].name)
    if decl is None or decl.kind == "p":
        return None
    return min(decl.bits, 64)


def instrumented_sites(kernel: ast.Kernel) -> list[int]:
    """Static pcs whose register writes will be logged."""
    return [inst.index for inst in kernel.body
            if _dest_width(kernel, inst) is not None]


@dataclass
class InstrumentedKernel:
    ptx: str
    name: str
    sites: list[int]
    entries_per_thread: int

    @property
    def bytes_per_thread(self) -> int:
        return self.entries_per_thread * ENTRY_BYTES


def instrument_kernel(kernel: ast.Kernel, *,
                      entries_per_thread: int = ENTRIES_PER_THREAD
                      ) -> InstrumentedKernel:
    """Emit the instrumented PTX for *kernel* (new module text)."""
    labels_at: dict[int, list[str]] = {}
    for label, index in kernel.labels.items():
        labels_at.setdefault(index, []).append(label)

    prologue = [
        "    .reg .b64 %__dbglp;",
        "    .reg .b32 %__dbgt0;",
        "    .reg .b32 %__dbgt1;",
        "    .reg .b32 %__dbgpc;",
        f"    ld.param.u64 %__dbglp, [{LOG_PARAM}];",
        "    mov.u32 %__dbgt0, %ctaid.z;",
    ]
    # linear thread id, Horner form: CTAs of the grid (z, y, x), then
    # threads of the CTA (z, y, x) — the order decode_log indexes by.
    for extent, index in (("%nctaid.y", "%ctaid.y"),
                          ("%nctaid.x", "%ctaid.x"),
                          ("%ntid.z", "%tid.z"), ("%ntid.y", "%tid.y"),
                          ("%ntid.x", "%tid.x")):
        prologue += [
            f"    mov.u32 %__dbgt1, {extent};",
            f"    mov.u32 %__dbgpc, {index};",
            "    mad.lo.s32 %__dbgt0, %__dbgt0, %__dbgt1, %__dbgpc;",
        ]
    prologue.append(
        f"    mad.wide.s32 %__dbglp, %__dbgt0, "
        f"{entries_per_thread * ENTRY_BYTES}, %__dbglp;")

    body: list[str] = list(prologue)
    sites: list[int] = []
    for inst in kernel.body:
        for label in labels_at.get(inst.index, []):
            body.append(f"{label}:")
        body.append(format_instruction(inst))
        width = _dest_width(kernel, inst)
        if width is None:
            continue
        sites.append(inst.index)
        dst = inst.operands[0].name
        store_type = f"b{width}"
        guard = ""
        if inst.pred is not None:
            # Log under the same guard so inactive lanes stay aligned.
            guard = (f"@!{inst.pred} " if inst.pred_negated
                     else f"@{inst.pred} ")
        body.append(f"    {guard}mov.u32 %__dbgpc, {inst.index};")
        body.append(f"    {guard}st.global.u32 [%__dbglp], %__dbgpc;")
        body.append(f"    {guard}st.global.{store_type} [%__dbglp+8], "
                    f"{dst};")
        body.append(f"    {guard}add.u64 %__dbglp, %__dbglp, "
                    f"{ENTRY_BYTES};")
    for label in labels_at.get(len(kernel.body), []):
        body.append(f"{label}:")

    ptx = format_kernel(kernel, extra_params=[(LOG_PARAM, U64)],
                        body_lines=body)
    return InstrumentedKernel(ptx=ptx, name=kernel.name, sites=sites,
                              entries_per_thread=entries_per_thread)


def decode_log(raw: bytes, threads: int,
               entries_per_thread: int) -> list[list[tuple[int, int]]]:
    """raw bytes -> per-thread [(pc, payload), ...] lists.

    A thread whose slot has no ``0xFF`` fill left logged at least
    ``entries_per_thread`` records — it ran into its neighbour's slot,
    so neither log can be trusted: :class:`DebugToolError`."""
    out: list[list[tuple[int, int]]] = []
    stride = entries_per_thread * ENTRY_BYTES
    for t in range(threads):
        base = t * stride
        entries: list[tuple[int, int]] = []
        for e in range(entries_per_thread):
            offset = base + e * ENTRY_BYTES
            pc = int.from_bytes(raw[offset:offset + 4], "little")
            payload = int.from_bytes(raw[offset + 8:offset + 16], "little")
            if pc == 0xFFFFFFFF:
                break
            entries.append((pc, payload))
        else:
            raise DebugToolError(
                f"thread {t} filled its instrumentation log: "
                f"entries_per_thread={entries_per_thread} is too small "
                "for this kernel")
        out.append(entries)
    return out

