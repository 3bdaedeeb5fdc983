"""Megablock: whole-grid vectorized execution tier.

The superblock tier fuses straight-line PTX runs into per-warp closures
but still loops over 32 lanes in Python.  The megablock tier goes one
level up: it compiles each straight-line block into a single NumPy
function over *every thread of a grid chunk* at once.  Register state
becomes a dict of ``(T,)`` columns (one element per thread), each
stored at the width its payload can occupy
(:func:`~repro.analysis.dataflow.register_widths`): ``bool`` for a
predicate, ``uint32`` up to 32 bits, ``uint64`` otherwise — so 32-bit
arithmetic wraps natively and guards read predicates as they are.
Predication becomes boolean masks, and SIMT control flow runs
on an array-mask reconvergence stack that mirrors
:class:`repro.functional.simt.SimtStack` exactly — same IPDOM
reconvergence pcs, same push/pop discipline, so issue counts and the
launch clock come out identical to the scalar tiers.

Register-op semantics are the rows of :mod:`repro.functional.emit`;
:class:`_VecGen` is the dialect that spells a row's primitives as NumPy
source (entry hoists, mask blending, the guard memo) — for the ``ld``/
``st`` row as one ``VM.ld``/``VM.st`` call per instruction, whatever its
vector width, plus one ``VM.watch`` access event.  Eligibility
is all-or-nothing per kernel: every non-control instruction needs a
vector rendering (atomics, textures, ``%clock`` reads and other exotica
have none), otherwise the engine falls back to the superblock tier.
Predicated instructions vectorize by mask-blend: the result is
computed over every lane, then merged into the destination array with
``np.where(guard, new, old)`` (stores scatter only the guarded lanes
into global memory).  Branches whose predicate is grid-uniform
(:func:`repro.analysis.vectorize.classify_kernel`) move a whole frame
without mask arithmetic.  A CTA barrier is legal in vector lockstep
when, for every CTA with a thread in the current frame, the frame
covers *all* live threads of that CTA; a barrier reached by a
warp-disjoint divergent frame *parks* that frame and re-merges it once
every live warp of the CTA has arrived (the vector twin of the scalar
``at_barrier`` / ``try_release_barrier`` protocol).  Only when neither
holds — intra-warp divergence at a barrier — does the machine
materialise exact per-warp scalar state (registers, SIMT stacks,
barrier parking) and hand the chunk's CTAs to the scalar engine: a
bailout, not an error.  The scalar engine compiles the kernel's
superblocks at its first fused issue, so a launch that never bails out
never compiles them.

A memory instruction is checked once for all its lanes and elements:
lanes off its mask (``None`` when a full frame runs it unguarded) are
zeroed, one OR of the buffer offsets gives their alignment and bounds
the largest (``max()`` runs only when the OR passes the buffer's end),
and each element is one gather or scatter on a NumPy view of the space's
buffer — for global memory
:class:`~repro.functional.memory.GlobalMemory`'s own, the store every
tier executes against, so nothing is copied in or out.  An access with a
lane outside its buffer, or a global load under ``uninit_read="raise"``,
runs element by element and lane by lane: faults, auto-paging and
never-written pages are per-lane facts, so only that path raises at the
scalar tiers' first faulting lane and pages in their order.  The view
lives for one chunk (a ``bytearray`` with a live export cannot grow).
Grids wider than one 64Ki-thread chunk run their chunks one after
another in ascending CTA order.

Generated block sources are plain strings binding only ``np``/``H``
(:mod:`repro.functional.npops`) plus the runtime ``VM`` object, which
makes them JSON-serialisable; :mod:`repro.functional.kernelcache`
persists compiled plans across processes keyed on the PTX fingerprint,
tier and analysis version.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.analysis.dataflow import liveness, register_widths
from repro.analysis.vectorize import classify_kernel
from repro.errors import SimulationFault
from repro.functional import npops
from repro.functional.cfg import block_leaders, branch_target, reconvergence
from repro.functional.emit import Codegen, Decline, emit, immediate
from repro.functional.memory import GLOBAL_BASE, PAGE_BITS
from repro.functional.simt import NO_RECONVERGE, SimtEntry, SimtStack
from repro.functional.state import (
    CTAState, is_special, special_column, thread_tables)
from repro.ptx import ast
from repro.ptx.dtypes import DType
from repro.ptx.instructions import CONTROL
from repro.ptx.values import MASK64

#: Bump when the generated-code shape or plan schema changes (cache key).
#: 2: predicated mask-blend codegen, per-barrier divergence flag.
#: 3: pc-tagged VM.ld/VM.st calls + range-fact payload (sanitizer).
#: 4: ``VM.rec`` recorder calls at guards and ld/st (timing pre-pass).
#: 5: ld/st rendered from the emit row: ``VM.ld``/``VM.st`` per element
#:    without pc/sign arguments, one ``VM.watch`` event per access.
#: 6: a write as wide as its register can hold reads no old payload
#:    (``dataflow.register_widths``); liveness prunes on the same fact.
#: 7: no separate ``reconvergence`` map: each branch's ``rpc`` lives in
#:    its control descriptor only.
#: 8: no range-fact payload: the sanitizer reads the kernel's memoised
#:    ``ranges.kernel_facts``, so compiling a plan runs no range pass.
#: 9: a ``mul``/``mad`` of two immediates folds its product; a float
#:    ``mul.wide`` is as wide as its type (``result_bits``).
#: 10: register columns at their proven width (``bool``/``uint32``/
#:    ``uint64``), read as ``R[name]``; canonical NaN results.
#: 11: one ``VM.ld``/``VM.st`` call per access, all its elements at
#:    once, with ``None`` lanes in a full frame.
PLAN_FORMAT = 11

_PAGE_SHIFT = np.uint64(PAGE_BITS)

#: Threads per lockstep chunk (whole CTAs; at least one per chunk).
CHUNK_THREADS = 65536

#: Process-wide tier event counters (reset with :func:`reset_events`).
#: ``fallbacks`` counts kernels that left the tier at plan time,
#: ``bailouts`` chunks handed to the scalar engine mid-run,
#: ``parked_barriers``/``released_barriers`` the frame park/re-merge
#: protocol.  ``overlapped_chunks`` always reads 0: the repo benchmark
#: indexes the key, and no chunk schedule but the sequential one exists.
EVENTS = {"fallbacks": 0, "bailouts": 0, "parked_barriers": 0,
          "released_barriers": 0, "overlapped_chunks": 0}


def reset_events() -> None:
    """Zero the process-wide tier event counters."""
    for key in EVENTS:
        EVENTS[key] = 0


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
_BOOL, _U32, _U64 = np.dtype(bool), np.dtype(np.uint32), np.dtype(np.uint64)


def column_dtype(width: int) -> np.dtype:
    """Storage of a register whose payload can occupy *width* bits
    (:func:`~repro.analysis.dataflow.register_widths`): ``bool`` for a
    predicate, ``uint32`` up to 32 bits, ``uint64`` otherwise."""
    return _BOOL if width == 1 else _U32 if width <= 32 else _U64


def _cast(expr: str, have: np.dtype, want: np.dtype) -> str:
    """*expr* (a *have* column) as a *want* column: a reinterpretation
    between integers of one size, else a truncating or extending
    ``astype``."""
    if have == want:
        return expr
    if have.itemsize == want.itemsize and have.kind in "iu":
        return f"({expr}).view(np.{want.name})"
    return f"({expr}).astype(np.{want.name})"


#: What the probe evaluation in :meth:`_VecGen._dtype` sees as ``VM``.
_PROBE_VM = SimpleNamespace(fill=lambda value, dtype: np.zeros(1, dtype),
                            sym_addr=lambda name, offset: 0)


class _VecGen(Codegen):
    """The NumPy dialect: accumulates the source of one block function.

    The generated function has the shape::

        def _block(VM, R, m, full):
            <register/special hoists>
            <straight-line body over (T,) columns>
            <flush of live written registers, merged under mask m>

    ``full`` short-circuits the mask merge when the frame covers every
    thread (the common case for kernels without divergence).

    A register's column has the dtype of :func:`column_dtype`; a payload
    read at a type of up to 32 bits is a ``uint32`` column, else a
    ``uint64`` one (a predicate is read as its own column), so 32-bit
    arithmetic wraps natively.  A write learns the dtype NumPy gives its
    expression from one evaluation on one-element stand-ins of the
    locals it reads, and casts only where that differs from the column.
    """

    def __init__(self, widths: dict[str, int] | None = None) -> None:
        super().__init__(widths)
        self.pre: list[str] = []
        self.body: list[str] = []
        self._n = 0
        self._entry: dict[str, str] = {}
        self._specials: dict[str, str] = {}
        self._forward: dict[str, str] = {}
        self._writes: dict[str, str] = {}
        self._guards: dict[tuple[str, bool], str] = {}
        self._auto_pm: str | None = None
        self._fills = False
        #: local -> a one-element stand-in of its dtype.
        self._probe: dict[str, np.ndarray] = {"m": np.zeros(1, bool)}

    def _tmp(self) -> str:
        self._n += 1
        return f"_t{self._n}"

    def _let(self, expr: str, dtype: np.dtype) -> str:
        """A body local holding *expr*, a *dtype* column."""
        local = self._tmp()
        self.body.append(f"    {local} = {expr}")
        self._probe[local] = np.zeros(1, dtype)
        return local

    def _dtype(self, expr: str) -> np.dtype | None:
        """The dtype of the column *expr* makes (``None`` for a scalar)."""
        with np.errstate(all="ignore"):
            value = eval(expr, {"np": np, "H": npops, "VM": _PROBE_VM},
                         self._probe)
        return value.dtype if getattr(value, "ndim", 0) else None

    def column(self, name: str) -> np.dtype:
        return column_dtype(self.widths.get(name, 64))

    def entry(self, name: str) -> str:
        """Local holding the block-entry column of a register."""
        local = self._entry.get(name)
        if local is None:
            local = f"_e{len(self._entry)}"
            self._entry[name] = local
            self.pre.append(f"    {local} = R[{name!r}]")
            self._probe[local] = np.zeros(1, self.column(name))
        return local

    def reg(self, name: str) -> str:
        """Current column local of a register (forwarded if written)."""
        if name.startswith("%clock"):
            raise Decline
        if is_special(name):
            return self.special(name)
        return self._forward.get(name) or self.entry(name)

    def special(self, name: str) -> str:
        local = self._specials.get(name)
        if local is None:
            local = f"_s{len(self._specials)}"
            self._specials[name] = local
            self.pre.append(f"    {local} = VM.sp({name!r})")
            self._probe[local] = np.zeros(1, _U32)
        return local

    # -- operand reading ------------------------------------------------
    def payload(self, op: ast.Operand, dtype: DType) -> str:
        want = _U32 if dtype.bits <= 32 and dtype.kind != "p" else _U64
        if op.kind == ast.IMM:
            value = immediate(op, dtype) & ((1 << 8 * want.itemsize) - 1)
            if self._fills:
                return f"VM.fill({value}, np.{want.name})"
            return f"np.{want.name}({value})"
        local = super().payload(op, dtype)
        if dtype.kind == "p":
            return local
        return _cast(local, self._probe[local].dtype, want)

    def value(self, op: ast.Operand, dtype: DType) -> str:
        if op.kind == ast.IMM:
            value = immediate(op, dtype, typed=True)
            if not self._fills:
                if dtype.is_float:
                    return self.const(value)
                return f"np.{self._value_type(dtype)}({value})"
        return self.decode(self.payload(op, dtype), dtype)

    @staticmethod
    def _value_type(dtype: DType) -> str:
        return (f"{'int' if dtype.is_signed else 'uint'}"
                f"{32 if dtype.bits <= 32 else 64}")

    def widened(self, op: ast.Operand, dtype: DType) -> str:
        if dtype.bits != 32:  # 8/16-bit values are held at 32 bits
            return self.value(op, dtype)
        wide = f"np.{self._value_type(DType(dtype.kind, 64))}"
        if op.kind == ast.IMM and not self._fills:
            return f"{wide}({immediate(op, dtype, typed=True)})"
        return f"({self.value(op, dtype)}).astype({wide})"

    @staticmethod
    def const(value) -> str:
        if isinstance(value, float):
            if value != value:
                return "np.float64(np.nan)"
            if value == float("inf"):
                return "np.float64(np.inf)"
            if value == float("-inf"):
                return "np.float64(-np.inf)"
            return f"np.float64({value!r})"
        return repr(int(value))

    @staticmethod
    def decode(payload: str, dtype: DType) -> str:
        """Typed value column of a payload read at *dtype*: a view of it,
        or an ``int32``/``uint32`` column for 8/16-bit types."""
        bits = dtype.bits
        if dtype.is_float:
            if bits == 16:
                return (f"({payload}).astype(np.uint16).view(np.float16)"
                        ".astype(np.float64)")
            if bits == 32:
                return f"({payload}).view(np.float32).astype(np.float64)"
            return f"({payload}).view(np.float64)"
        if bits >= 32:
            return (f"({payload}).view(np.int{bits})" if dtype.is_signed
                    else payload)
        if dtype.is_signed:  # sign-extend within 32 bits
            return f"(({payload}) << {32 - bits}).view(np.int32) >> {32 - bits}"
        return f"({payload}) & {(1 << bits) - 1:#x}"

    #: NumPy needs the addend in the product's signedness, even at
    #: 64 bits where the scalar dialect reads the raw payload.
    value_mod64 = Codegen.value

    @staticmethod
    def symbol(name: str, offset: int) -> str:
        return f"VM.fill(VM.sym_addr({name!r}, {offset}), np.uint64)"

    def pred_true(self, name: str) -> str:
        local = self.reg(name)
        if self._probe[local].dtype == _BOOL:
            return local
        return f"(({local}) & 1) != 0"

    # -- expression primitives (the NumPy spellings) --------------------
    @staticmethod
    def bind(expr: str) -> str:
        """Array expressions are pure: re-evaluation needs no temp."""
        return expr

    @staticmethod
    def select(cond: str, a: str, b: str) -> str:
        return f"np.where({cond}, {a}, {b})"

    @staticmethod
    def compare(sym: str, a: str, b: str, nan: int | None) -> str:
        # NumPy's ordered comparisons natively match the scalar NaN
        # semantics (False for everything except ne).
        return f"({a}) {sym} ({b})"

    @staticmethod
    def shift(opcode: str, value: str, amount: str, dtype: DType) -> str:
        """NumPy's shifts already clamp: a count at or past the width
        gives 0, or the sign for a signed right shift."""
        if dtype.bits == 64:  # the amount is read as a u32
            amount = f"(({amount}) & 0xffffffff)"
            if dtype.is_signed and opcode == "shr":
                amount += ".view(np.int64)"  # int64 >> uint64 is float
        return f"({value}) {'<<' if opcode == 'shl' else '>>'} {amount}"

    @staticmethod
    def divrem(opcode: str, a: str, b: str, dtype: DType) -> str:
        fn = f"H.{'s' if dtype.is_signed else 'u'}{opcode}"
        if opcode == "div":
            return f"{fn}({a}, {b}, {dtype.bits})"
        return f"{fn}({a}, {b})"

    @staticmethod
    def to_float(expr: str, src: DType) -> str:
        return expr if src.is_float else f"({expr}).astype(np.float64)"

    @staticmethod
    def call(name: str, *args: str) -> str:
        """A named helper: its NumPy half lives in ``npops``."""
        return f"H.{name}({', '.join(args)})"

    @staticmethod
    def float_encoder(bits: int) -> str:
        return f"H.ef{bits}"

    @staticmethod
    def canonical(expr: str) -> str:
        return f"H.canonical({expr})"

    # -- writing --------------------------------------------------------
    def write(self, name: str, bits: int, expr: str,
              pm: str | None = None) -> None:
        if is_special(name):
            raise Decline
        col, have = self.column(name), self._dtype(expr)
        if have is None:  # a constant: fill a column with it
            have = _U32 if bits <= 32 else _U64
            expr = f"VM.fill({expr}, np.{have.name})"
        if col == _BOOL:
            if have != _BOOL:
                expr = f"(({expr}) & 1) != 0"
        else:
            # As wide as the register: nothing of the old payload is
            # read.  Narrower (at most 32 bits): compose into its upper
            # bits.
            replaces = self.replaces(name, bits)
            expr = _cast(expr, have, col if replaces else _U32)
            if bits < 32:
                expr = f"({expr}) & {(1 << bits) - 1:#x}"
            if not replaces:
                keep = ((1 << 8 * col.itemsize) - 1) ^ ((1 << bits) - 1)
                expr = f"({self.reg(name)} & {keep:#x}) | ({expr})"
        if pm is None:
            # Predicated instruction: mask-blend into the destination
            # (compute over all lanes, keep old values where the guard
            # is off — the scalar tier simply skips those lanes).
            pm = self._auto_pm
        if pm is not None:
            expr = f"np.where({pm}, {expr}, {self.reg(name)})"
        local = expr if expr.isidentifier() else self._let(expr, col)
        self._forward[name] = self._writes[name] = local

    def write_raw(self, name: str, expr: str) -> None:
        """Whole-payload write (a loaded value, a predicate)."""
        self.write(name, 64, expr)

    write_pred = write_raw

    def guard(self, inst: ast.Instruction) -> str:
        """Effective mask for a predicated instruction (``m & pred``).

        Memoised on the predicate's *current local* (not its register
        name), so consecutive ``@%p`` instructions share one mask array
        while a redefinition of ``%p`` in between forces a fresh one.
        """
        if inst.pred is None:
            return "m"
        key = (self.pred_true(inst.pred), bool(inst.pred_negated))
        cached = self._guards.get(key)
        if cached is None:
            cached = self._guards[key] = self._let(
                f"m & {'~' if key[1] else ''}({key[0]})", _BOOL)
        return cached

    def begin_inst(self, inst: ast.Instruction) -> None:
        """Arm the implicit write mask before emitting *inst*.

        Register writes of a predicated instruction blend under its
        guard by default; unpredicated instructions write through.  An
        armed recorder is told the guard of every predicated instruction
        (``ld``/``st`` report theirs with the access event).

        An instruction that computes on immediates alone reads them as
        ``VM.fill`` columns, as it would registers: on bare literals the
        arithmetic would run on NumPy scalars (no columns, and overflow
        warnings).  ``mov``, ``ld`` and ``st`` only move a payload."""
        self._fills = (inst.opcode not in ("mov", "ld", "st") and all(
            op.kind == ast.IMM for op in inst.operands[1:]))
        if inst.pred is None:
            self._auto_pm = None
            return
        self._auto_pm = pm = self.guard(inst)
        if inst.opcode not in ("ld", "st"):
            self.body.append(
                f"    if VM.rec is not None: VM.rec.guard({inst.index}, {pm})")

    # -- memory (the NumPy spellings of the ld/st row) -------------------
    def address(self, mem: ast.Operand) -> str:
        """Local holding the address: a ``uint64`` column, or a uniform
        int."""
        if not mem.is_reg_base:
            t = self._tmp()
            self.body.append(
                f"    {t} = VM.sym_addr({mem.name!r}, {mem.offset or 0})")
            return t
        base = self.reg(mem.name)
        if mem.offset:
            return self._let(
                f"{base} + np.uint64({mem.offset & MASK64})", _U64)
        have = self._probe[base].dtype
        return base if have == _U64 else self._let(
            _cast(base, have, _U64), _U64)

    def access(self, inst: ast.Instruction, addr: str, nbytes: int,
               is_write: bool) -> None:
        """The access event: one attribute test when nothing watches."""
        self.body.append(
            f"    if VM.watch is not None: VM.watch({inst.index}, "
            f"{inst.space!r}, {nbytes}, {addr}, {self._mask()}, "
            f"{is_write})")

    def _mask(self) -> str:
        """The lanes the current instruction executes on."""
        return self._auto_pm or "m"

    def elements(self, space: str, addr: str, nbytes: int, width: int,
                 values: list[str] | None = None):
        """One ``VM.ld``/``VM.st`` call for the whole access, whose lanes
        are ``None`` when a full frame runs it unguarded."""
        lanes = self._auto_pm or "None if full else m"
        call = f"{space!r}, {nbytes}, {addr}, {lanes}"
        if values is not None:
            self.body.append(f"    VM.st({call}, {', '.join(values)})")
            return ()
        raws = [self._tmp() for _ in range(width)]
        self.body.append(f"    {', '.join(raws)}, = VM.ld({call}, {width})")
        for raw in raws:
            self._probe[raw] = np.zeros(1, _U64 if nbytes == 8 else _U32)
        return raws

    # -- assembly -------------------------------------------------------
    def build(self, live_out: frozenset) -> tuple[str, list[str]]:
        pruned = sorted(n for n in self._writes if n not in live_out)
        flushes = [(name, local) for name, local in self._writes.items()
                   if name in live_out]
        lines = ["def _block(VM, R, m, full):"]
        lines += self.pre
        lines += self.body
        if flushes:
            lines.append("    if full:")
            for name, local in flushes:
                lines.append(f"        R[{name!r}] = {local}")
            lines.append("    else:")
            # The block-entry column: hoisted if the block read it.
            for name, local in flushes:
                base = self._entry.get(name) or f"R[{name!r}]"
                lines.append(
                    f"        R[{name!r}] = np.where(m, {local}, {base})")
        if len(lines) == 1:
            lines.append("    pass")
        return "\n".join(lines) + "\n", pruned


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class _VecBlock:
    __slots__ = ("start", "end", "count", "opcode_counts", "source",
                 "pruned", "fn")

    def __init__(self, start, end, opcode_counts, source, pruned, fn):
        self.start = start
        self.end = end
        self.count = end - start
        self.opcode_counts = opcode_counts
        self.source = source
        self.pruned = pruned
        self.fn = fn


def _compile_source(source: str, tag: str):
    namespace = {"np": np, "H": npops}
    exec(compile(source, f"<megablock:{tag}>", "exec"), namespace)
    return namespace["_block"]


class MegaPlan:
    """Compiled vector plan for one kernel (serialisable)."""

    def __init__(self, kernel_name: str, body_len: int, eligible: bool,
                 reasons: list[str], blocks: dict, controls: dict) -> None:
        self.kernel_name = kernel_name
        self.body_len = body_len
        self.eligible = eligible
        self.reasons = reasons
        self.blocks = blocks  # start pc -> _VecBlock
        self.controls = controls  # pc -> control descriptor dict

    @property
    def pruned(self) -> dict:
        """start pc -> register names whose block-end flush was elided."""
        return {start: list(block.pruned)
                for start, block in self.blocks.items() if block.pruned}

    def to_payload(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "body_len": self.body_len,
            "eligible": self.eligible,
            "reasons": list(self.reasons),
            "blocks": [
                {"start": b.start, "end": b.end,
                 "opcode_counts": dict(b.opcode_counts),
                 "source": b.source, "pruned": list(b.pruned)}
                for b in self.blocks.values()],
            "controls": {str(pc): dict(ctrl)
                         for pc, ctrl in self.controls.items()},
        }


def plan_from_payload(payload: dict) -> MegaPlan:
    """Rebuild (and recompile) a plan from its JSON payload.

    Raises KeyError/TypeError/SyntaxError on malformed payloads — the
    kernel cache treats any exception as a discard.
    """
    blocks = {}
    for b in payload["blocks"]:
        start, end = int(b["start"]), int(b["end"])
        fn = _compile_source(b["source"],
                             f"{payload['kernel']}:{start}")
        blocks[start] = _VecBlock(
            start, end,
            {str(op): int(c) for op, c in b["opcode_counts"].items()},
            b["source"], [str(n) for n in b["pruned"]], fn)
    controls = {}
    for pc, ctrl in payload["controls"].items():
        controls[int(pc)] = {
            "op": str(ctrl["op"]), "kind": str(ctrl["kind"]),
            "pred": ctrl["pred"], "neg": bool(ctrl["neg"]),
            "target": (None if ctrl["target"] is None
                       else int(ctrl["target"])),
            "rpc": int(ctrl["rpc"]), "uniform": bool(ctrl["uniform"]),
            "div": bool(ctrl["div"]),
        }
    return MegaPlan(
        kernel_name=str(payload["kernel"]),
        body_len=int(payload["body_len"]),
        eligible=bool(payload["eligible"]),
        reasons=[str(r) for r in payload["reasons"]],
        blocks=blocks, controls=controls)


def compile_megaplan(kernel) -> MegaPlan:
    """Classify, segment and compile *kernel* into a vector plan."""
    body = kernel.body
    n = len(body)
    reasons: list[str] = []
    report = classify_kernel(kernel)
    bar_div = report.barrier_divergence()
    live = liveness(kernel)
    widths = register_widths(kernel)
    leaders = block_leaders(kernel)
    blocks: dict[int, _VecBlock] = {}
    controls: dict[int, dict] = {}
    pc = 0
    while pc < n:
        inst = body[pc]
        if inst.opcode in CONTROL:
            # "div": can any branch of this kernel diverge across the
            # grid?  A bar in a divergence-free kernel always meets a
            # full frame, so the runtime containment proof is skipped.
            ctrl = {"op": inst.opcode,
                    "kind": ("exit" if inst.opcode in ("exit", "ret")
                             else inst.opcode),
                    "pred": inst.pred, "neg": bool(inst.pred_negated),
                    "target": None, "rpc": NO_RECONVERGE,
                    "uniform": False,
                    "div": (bool(bar_div.get(pc, True))
                            if inst.opcode == "bar"
                            else report.has_divergence)}
            if inst.opcode != "bra" and inst.pred is not None:
                reasons.append(f"pc {pc}: predicated {inst.opcode}")
            if inst.opcode == "bra":
                target = branch_target(kernel, inst)
                if target is None:
                    reasons.append(f"pc {pc}: bra without label target")
                ctrl["target"] = target
                if inst.pred is not None:
                    ctrl["rpc"] = reconvergence(kernel).get(
                        pc, NO_RECONVERGE)
                    ctrl["uniform"] = pc in report.uniform_branches
            controls[pc] = ctrl
            pc += 1
            continue
        start = pc
        gen = _VecGen(widths)
        ok = True
        opcode_counts: dict[str, int] = {}
        while pc < n and body[pc].opcode not in CONTROL \
                and (pc == start or pc not in leaders):
            cur = body[pc]
            gen.begin_inst(cur)
            if not emit(cur, gen):
                ok = False
                reasons.append(
                    f"pc {pc}: no vector emitter for {cur.opcode} "
                    f"({(cur.text or '').strip()})")
            opcode_counts[cur.opcode] = opcode_counts.get(
                cur.opcode, 0) + 1
            pc += 1
        if not ok:
            continue
        live_out = live.before.get(pc, frozenset()) if pc < n \
            else frozenset()
        source, pruned = gen.build(live_out)
        fn = _compile_source(source, f"{kernel.name}:{start}") \
            if not reasons else None
        blocks[start] = _VecBlock(start, pc, opcode_counts, source,
                                  pruned, fn)
    # ``reasons`` only grows and a block skips compiling only once it is
    # non-empty, so an eligible plan has every block compiled.
    return MegaPlan(kernel_name=kernel.name, body_len=n,
                    eligible=not reasons, reasons=reasons, blocks=blocks,
                    controls=controls)


# ----------------------------------------------------------------------
# The vector machine
# ----------------------------------------------------------------------
class _Frame:
    """One array-mask SIMT stack entry (mirrors SimtEntry)."""

    __slots__ = ("pc", "rpc", "mask", "wa", "full")

    def __init__(self, pc, rpc, mask, wa, full):
        self.pc = pc
        self.rpc = rpc
        self.mask = mask
        self.wa = wa  # cached count of warps with >=1 active thread
        self.full = full  # cached mask.all()


_GATHER_DT = {2: np.uint16, 4: np.uint32, 8: np.uint64}
#: The column a load of that many bytes gives.
_LOAD_DT = {1: np.uint32, 2: np.uint32, 4: np.uint32, 8: np.uint64}


class _Columns(dict):
    """Register name -> ``(T,)`` column of a chunk.  A register's first
    read makes its zero column, of the dtype its width gets
    (:func:`column_dtype`), so a block reads ``R[name]`` directly."""

    def __init__(self, T: int, widths: dict[str, int]) -> None:
        super().__init__()
        self.T, self.widths = T, widths

    def __missing__(self, name: str) -> np.ndarray:
        column = self[name] = np.zeros(
            self.T, column_dtype(self.widths.get(name, 64)))
        return column
_GATHER_SHIFT = {2: np.uint64(1), 4: np.uint64(2), 8: np.uint64(3)}


class MegaMachine:
    """Executes a whole launch in lockstep grid chunks."""

    def __init__(self, engine, plan: MegaPlan) -> None:
        self.engine = engine
        self.launch = engine.launch
        self.plan = plan
        #: armed Sanitizer (or None): its array rules run over the
        #: masked lanes of every ld/st, bar and exit.
        self._san = getattr(engine, "sanitizer", None)
        #: armed stream recorder (or None): the timing model's pre-pass
        #: logs every frame, guard and ld/st it will replay (see
        #: :class:`repro.timing.stream.StreamRecorder`).
        self.rec = getattr(engine, "recorder", None)
        #: the ld/st access event, or None when neither is armed (the
        #: one test a generated ld/st pays for being observable).
        self.watch = (self._access if self._san is not None
                      or self.rec is not None else None)
        #: register name -> payload width (:func:`column_dtype`).
        self.widths = register_widths(self.launch.kernel)
        #: chunks that hit an unparkable barrier and finished scalar.
        self.bailouts = 0
        #: divergent frames parked at a barrier / re-merged past one.
        self.parks = 0
        self.releases = 0

    # -- public entry ---------------------------------------------------
    def run(self, stats, first_cta: int = 0,
            num_ctas: int | None = None) -> None:
        """Run CTAs ``first_cta .. first_cta+num_ctas-1`` (the whole
        grid by default).  Shard executors pass a subrange; chunking is
        relative to the range, so a shard behaves exactly like a small
        grid that happens to start at ``first_cta``."""
        launch = self.launch
        tpb = launch.threads_per_block
        nct_chunk = max(1, CHUNK_THREADS // tpb)
        if num_ctas is None:
            num_ctas = launch.num_ctas - first_cta
        limit = first_cta + num_ctas
        start = first_cta
        # Casting f64->f32 with overflow emits RuntimeWarnings the
        # scalar tier never sees; suppress for the whole vector run.
        with np.errstate(all="ignore"):
            while start < limit:
                nct = min(nct_chunk, limit - start)
                stats.ctas_launched += nct
                stats.warps_launched += nct * launch.warps_per_block
                delta = self._run_chunk(start, nct, stats)
                if delta is not None:
                    launch.clock += delta
                    stats.instructions += delta
                start += nct

    # -- chunk setup ----------------------------------------------------
    @staticmethod
    def _arena_np(arena) -> tuple[np.ndarray, int]:
        data = bytes(arena.data)
        real = len(data)
        data += b"\x00" * ((-real) % 8)
        return (np.frombuffer(data, np.uint8) if data
                else np.zeros(0, np.uint8)), real

    def _setup(self, cta_start: int, nct: int) -> None:
        launch = self.launch
        self.cta_start = cta_start
        self.nct = nct
        tpb = launch.threads_per_block
        self.T = nct * tpb
        tables = thread_tables(launch, nct)
        #: special-register columns, each built on its first read.
        self.specials: dict[str, np.ndarray] = {}
        self.ctaidx = tables["cta_index"]
        self.lin_in_block = tables["lin_in_block"]
        self.wid = tables["warp_of"]
        self.warp_count = nct * launch.warps_per_block
        self.R = _Columns(self.T, self.widths)
        self.alive = np.ones(self.T, bool)
        gm = launch.global_mem
        buf, written = gm.dense()
        self.gspan = len(buf)
        # Views of the store itself, dropped by _release_global.
        self.gmem = np.frombuffer(buf, np.uint8)
        self._gwritten = np.frombuffer(written, np.uint8)
        span = max(launch.shared_bytes, 16)
        self.S_real = span
        span += (-span) % 8
        self.S = span
        self.smem = np.zeros(nct * span, np.uint8)
        self.srow = (self.ctaidx * span).astype(np.uint64)
        #: space -> (its buffer, the bytes a lane may reach in it).
        self._arenas = {"global": (self.gmem, self.gspan),
                        "shared": (self.smem, self.S_real),
                        "param": self._arena_np(launch.param_mem),
                        "const": self._arena_np(launch.const_mem)}
        self._graise = gm.uninit_read == "raise"
        self._views: dict[tuple, np.ndarray] = {}
        # Stores mark the shadow's init map in place, like the store.
        self._init = (None if gm.shadow is None
                      else np.frombuffer(gm.shadow.dense(), np.uint8))
        if self._san is not None:
            self._san.open_ctas(cta_start, nct)
            #: CTA-linear id and thread id within the CTA, per thread.
            self._cta = self.ctaidx + cta_start
            self._tid = self.lin_in_block
        if self.rec is not None:
            self.rec.begin_chunk(cta_start, nct, self.wid)

    # -- generated-code runtime API ------------------------------------
    def sp(self, name: str) -> np.ndarray:
        column = self.specials.get(name)
        if column is None:
            column = self.specials[name] = special_column(
                self.launch, name, self.cta_start, self.ctaidx,
                self.lin_in_block)
        return column

    def fill(self, value, dtype=np.uint64) -> np.ndarray:
        """A column of *value*, truncated to *dtype*."""
        value = int(value) & ((1 << 8 * np.dtype(dtype).itemsize) - 1)
        return np.full(self.T, value, dtype)

    def sym_addr(self, name: str, offset: int) -> int:
        launch = self.launch
        if name in launch.param_offsets:
            return launch.param_offsets[name] + offset
        if name in launch.shared_offsets:
            return launch.shared_offsets[name] + offset
        symbol = launch.module_symbols.get(name)
        if symbol is not None:
            return symbol[1] + offset
        raise SimulationFault(f"unknown symbol {name!r}")

    def _view(self, space: str, nbytes: int) -> np.ndarray:
        view = self._views.get((space, nbytes))
        if view is None:
            view = self._arenas[space][0].view(_GATHER_DT[nbytes])
            self._views[(space, nbytes)] = view
        return view

    def _index(self, space: str, addr: np.ndarray, pm,
               span: int) -> tuple[np.ndarray, int] | None:
        """(buffer index, OR of the offsets) of an access of *span* bytes
        at *addr*, or ``None`` if a lane on *pm* (``None``: every lane)
        leaves its space's buffer.  Lanes off *pm* index 0."""
        if space == "global":
            addr = addr - np.uint64(GLOBAL_BASE)
        if pm is not None:
            addr = addr * pm  # twice as fast as np.where(pm, addr, 0)
        bits = int(np.bitwise_or.reduce(addr))
        limit = self._arenas[space][1] - span
        # The OR bounds the largest offset: most accesses need no max().
        if bits > limit and int(addr.max()) > limit:
            return None
        return (self.srow + addr if space == "shared" else addr), bits

    def _gather(self, space: str, idx: np.ndarray, nbytes: int, width: int,
                bits: int) -> list[np.ndarray]:
        """Little-endian *nbytes* at each *idx* and the *width* - 1
        elements after it: a ``uint32`` column each up to 4 bytes, else
        ``uint64``.  *bits* has the alignment of every *idx*."""
        dtype = _LOAD_DT[nbytes]
        if nbytes in _GATHER_DT and not bits & (nbytes - 1):
            view = self._view(space, nbytes)
            at = (idx >> _GATHER_SHIFT[nbytes]).view(np.int64)
            return [view[k:].take(at).astype(dtype, copy=False)
                    for k in range(width)]
        raw = self._arenas[space][0][idx.view(np.int64)[:, None]
                                     + np.arange(nbytes * width)]
        raw = raw.view(_GATHER_DT.get(nbytes, np.uint8))  # (T, width)
        return [raw[:, k].astype(dtype) for k in range(width)]

    def _window(self, space: str, addr, pm, nbytes: int) -> None:
        """Fault at the first lane on *pm* whose *nbytes* at *addr* leave
        the shared, param or const arena."""
        size = self._arenas[space][1]
        bad = pm if size < nbytes else pm & (addr > np.uint64(size - nbytes))
        if bad.any():
            a = int(addr[np.argmax(bad)])
            raise SimulationFault(
                f"access [{a}, {a + nbytes}) outside arena of {size} bytes")

    def ld(self, space: str, nbytes: int, addr, pm,
           width: int) -> list[np.ndarray]:
        """The *width* elements of raw little-endian *nbytes* at *addr*
        per thread, a column each; lanes off *pm* (``None``: none are)
        read anything."""
        if not isinstance(addr, np.ndarray):
            if space in ("param", "const"):
                # One arena for the whole grid: read once and broadcast.
                arena = (self.launch.param_mem if space == "param"
                         else self.launch.const_mem)
                return [self.fill(arena.read_uint(int(addr) + k, nbytes),
                                  _LOAD_DT[nbytes])
                        for k in range(0, nbytes * width, nbytes)]
            addr = self.fill(addr)
        if space != "global" or not self._graise:
            fast = self._index(space, addr, pm, nbytes * width)
            if fast is not None:
                return self._gather(space, fast[0], nbytes, width, fast[1])
        pm = np.ones(self.T, bool) if pm is None else pm
        if space == "global":
            return [self._ld_global(addr + np.uint64(k), pm, nbytes)
                    for k in range(0, nbytes * width, nbytes)]
        # Element by element, the first element a lane on pm leaves the
        # arena with faults at the first such lane; with no lane on pm
        # nothing is read.
        for k in range(0, nbytes * width, nbytes):
            self._window(space, addr + np.uint64(k), pm, nbytes)
        return [np.zeros(self.T, _LOAD_DT[nbytes]) for _ in range(width)]

    def _ld_global(self, addr: np.ndarray, pm: np.ndarray,
                   nbytes: int) -> np.ndarray:
        """Gather in-span lanes from the store's buffer; the rest read
        through the store itself (never-written pages fault under the
        ``"raise"`` policy)."""
        if self.gspan:
            rel = addr - np.uint64(GLOBAL_BASE)
            ok = rel <= np.uint64(self.gspan - nbytes)
            idx = np.where(ok, rel, np.uint64(0))
            if self._graise:
                flags = self._gwritten
                ok &= (flags[(idx >> _PAGE_SHIFT).astype(np.int64)]
                       & flags[((idx + np.uint64(nbytes - 1))
                                >> _PAGE_SHIFT).astype(np.int64)]
                       ).astype(bool)
            raw = np.where(ok, self._gather("global", idx, nbytes, 1, int(
                np.bitwise_or.reduce(idx)))[0], 0)
            stray = pm & ~ok
        else:
            raw = np.zeros(self.T, _LOAD_DT[nbytes])
            stray = pm
        # Outside the span the store auto-pages, one lane at a time like
        # the scalar tiers.
        gm = self.launch.global_mem
        for i in np.flatnonzero(stray):
            raw[i] = gm.read_uint(int(addr[i]), nbytes)
        return raw

    def st(self, space: str, nbytes: int, addr, pm, *values) -> None:
        """Scatter the low *nbytes* of each of *values* to the elements
        at *addr* for lanes on *pm* (``None``: every lane); *space* is
        global or shared (all the ld/st row stores to)."""
        if not isinstance(addr, np.ndarray):
            addr = self.fill(addr)
        fast = self._index(space, addr, pm, nbytes * len(values))
        if fast is not None:
            idx, bits = fast
            if pm is not None:
                sel = np.flatnonzero(pm)
                idx, values = idx[sel], [v[sel] if np.ndim(v) else v
                                         for v in values]
            self._scatter(space, idx, nbytes, values, bits)
            return
        pm = np.ones(self.T, bool) if pm is None else pm
        for k, val in enumerate(values):
            at = addr + np.uint64(k * nbytes)
            if space == "shared":  # faults as ld does (the chunk is lost)
                self._window(space, at, pm, nbytes)
                continue
            # Outside the span the store auto-pages, one lane at a time
            # in ascending thread order like the scalar tiers.
            val = np.broadcast_to(val, (self.T,))
            rel = at - np.uint64(GLOBAL_BASE)
            ok = pm & (rel <= self.gspan - nbytes)
            for i in np.flatnonzero(pm & ~ok):
                self.launch.global_mem.write_uint(int(at[i]), int(val[i]),
                                                  nbytes)
            rel = rel[ok]
            self._scatter(space, rel, nbytes, [val[ok]],
                          int(np.bitwise_or.reduce(rel)))

    def _scatter(self, space: str, idx: np.ndarray, nbytes: int,
                 values: list, bits: int) -> None:
        """Store each of *values* at *idx* and the elements after it
        (*bits* as in :meth:`_gather`)."""
        ii, span = idx.view(np.int64), nbytes * len(values)
        aligned = nbytes in _GATHER_DT and not bits & (nbytes - 1)
        if aligned:
            view = self._view(space, nbytes)
            at = ii >> (nbytes.bit_length() - 1)
            for k, v in enumerate(values):
                view[k:][at] = v  # truncates
        else:
            buf = self._arenas[space][0]
            for k, v in enumerate(values):
                for b in range(nbytes):
                    buf[ii + (k * nbytes + b)] = (v >> (8 * b)) & 0xFF
        if space == "global":
            # What gm.write does beside the bytes: page flags (an access
            # touches at most two pages) and, with a shadow attached,
            # init marks.
            self._gwritten[ii >> PAGE_BITS] = 1
            if not aligned or span > nbytes:
                self._gwritten[(ii + (span - 1)) >> PAGE_BITS] = 1
            if self._init is not None:
                for b in range(span):
                    self._init[ii + b] = 1

    def _access(self, pc: int, space: str, nbytes: int, addr, pm,
                is_write: bool) -> None:
        """The access event of one executed ``ld``/``st`` (``VM.watch``):
        every lane on *pm* touches *nbytes* — the whole vector — at
        *addr*.  Feeds the stream recorder and the sanitizer's rules."""
        if self.rec is not None:
            self.rec.access(pc, space, nbytes, addr, pm, is_write)
        san = self._san
        if san is None or space not in ("global", "shared"):
            return
        if not isinstance(addr, np.ndarray):
            addr = self.fill(addr)
        if space == "global":
            san.check_global(pc, int(np.count_nonzero(pm)), nbytes,
                             is_write, lambda: addr[pm])
            return
        # A lane whose vector leaves the shared window faults in ld/st
        # right after: the instruction goes unchecked, as on the
        # stepping tiers, where the fault escapes before the observer.
        sel = np.flatnonzero(pm)
        at = addr[sel]
        if sel.size and int(at.max()) + nbytes <= self.S_real:
            san.check_shared(pc, at.astype(np.int64), self._tid[sel],
                             self._cta[sel], nbytes, is_write)

    # -- frame bookkeeping ----------------------------------------------
    def _wa(self, mask: np.ndarray) -> int:
        hit = np.zeros(self.warp_count, bool)
        hit[self.wid[mask]] = True
        return int(hit.sum())

    @staticmethod
    def _advance(stack: list, next_pc: int) -> None:
        stack[-1].pc = next_pc
        while stack and stack[-1].pc == stack[-1].rpc:
            stack.pop()

    def _retire(self, stack: list, em: np.ndarray) -> None:
        keep = ~em
        self.alive &= keep
        kept = []
        for frame in stack:
            if not (frame.mask & em).any():
                kept.append(frame)
                continue
            nm = frame.mask & keep
            if nm.any():
                frame.mask = nm
                frame.wa = self._wa(nm)
                frame.full = False
                kept.append(frame)
        stack[:] = kept

    def _diverge(self, stack: list, frame: "_Frame", pc: int,
                 target: int, rpc: int, taken: np.ndarray,
                 not_taken: np.ndarray) -> None:
        """Split *frame* exactly the way the per-warp scalar stacks do.

        The scalar engine keeps one SIMT stack *per warp*, so a branch
        whose outcome differs between warps mutates those stacks
        differently: a warp whose lanes all agree simply advances its
        top entry (``SimtStack.advance``), while a mixed warp
        repositions it at the reconvergence pc and pushes two children
        (``SimtStack.diverge``) — children that legitimately run
        *ahead* of the reconvergence point when the taken target equals
        it.  A single grid-wide frame cannot express that asymmetry, so
        reproduce the union of the per-warp stacks: one frame per
        direction for the self-agreeing warps (dissolved immediately
        when it lands on its own rpc, as ``advance`` would), plus the
        parent/children triple for the mixed warps.
        """
        wid = self.wid
        tw = np.zeros(self.warp_count, bool)
        tw[wid[taken]] = True
        nw = np.zeros(self.warp_count, bool)
        nw[wid[not_taken]] = True
        mixed_w = tw & nw
        prev_rpc = frame.rpc
        stack.pop()
        if not mixed_w.any():
            # Every warp agrees with itself: plain advances, one
            # independent frame per direction.
            for npc, nm in ((pc + 1, not_taken), (target, taken)):
                if npc != prev_rpc:
                    stack.append(_Frame(npc, prev_rpc, nm,
                                        self._wa(nm), False))
            return
        mixed = mixed_w[wid] & frame.mask
        for npc, nm in ((pc + 1, not_taken & ~mixed),
                        (target, taken & ~mixed)):
            if nm.any() and npc != prev_rpc:
                stack.append(_Frame(npc, prev_rpc, nm,
                                    self._wa(nm), False))
        if rpc != prev_rpc:
            stack.append(_Frame(rpc, prev_rpc, mixed, self._wa(mixed),
                                frame.full and bool(mixed.all())))
        m_nt = not_taken & mixed
        m_tk = taken & mixed
        stack.append(_Frame(pc + 1, rpc, m_nt, self._wa(m_nt), False))
        stack.append(_Frame(target, rpc, m_tk, self._wa(m_tk), False))

    def _bar_contained(self, m: np.ndarray) -> bool:
        """True iff the frame covers all live threads of its CTAs."""
        viol = self.alive & ~m
        if not viol.any():
            return True
        at_bar = np.zeros(self.nct, bool)
        at_bar[self.ctaidx[m]] = True
        stuck = np.zeros(self.nct, bool)
        stuck[self.ctaidx[viol]] = True
        return not (at_bar & stuck).any()

    # -- interpreter ----------------------------------------------------
    def _run_chunk(self, cta_start: int, nct: int, stats) -> int | None:
        """Run one chunk; return its clock delta, or ``None`` if the
        chunk bailed out (the bailout path settles the launch clock and
        stats itself before handing CTAs to the scalar engine).  The
        caller applies the returned delta."""
        self._setup(cta_start, nct)
        try:
            return self._interpret(stats)
        finally:
            # Also when a SimulationFault escapes mid-chunk: the store
            # cannot grow while a view of it is alive.
            self._release_global()

    def _interpret(self, stats) -> int | None:
        """The chunk's frame-stack loop (see :meth:`_run_chunk`)."""
        plan = self.plan
        blocks = plan.blocks
        controls = plan.controls
        body_len = plan.body_len
        per_op = stats.dynamic_per_opcode
        R = self.R
        rec = self.rec
        san = self._san
        m0 = np.ones(self.T, bool)
        stack = [_Frame(0, NO_RECONVERGE, m0, self._wa(m0), True)]
        parked: list[_Frame] = []
        clock = 0
        while stack or parked:
            if not stack:
                self._release_parked(stack, parked)
                if not stack:
                    # Unreachable with warp-disjoint parking (no runner
                    # left means no CTA is blocked), but never spin.
                    raise SimulationFault(
                        f"megablock barrier deadlock: {len(parked)} "
                        "parked frames with no releasable CTA")
                continue
            frame = stack[-1]
            pc = frame.pc
            if pc >= body_len:
                # Fell off the end: implicit exit, not counted (the
                # scalar step returns before charging the clock).
                if rec is not None:
                    rec.frame(pc, 1, frame)
                self._retire(stack, frame.mask)
                if parked:
                    self._release_parked(stack, parked)
                continue
            block = blocks.get(pc)
            if block is not None:
                if rec is not None:
                    rec.frame(pc, block.count, frame)
                block.fn(self, R, frame.mask, frame.full)
                wa = frame.wa
                clock += wa * block.count
                for op, times in block.opcode_counts.items():
                    per_op[op] = per_op.get(op, 0) + wa * times
                self._advance(stack, block.end)
                continue
            ctrl = controls[pc]
            if rec is not None:
                rec.frame(pc, 1, frame)
            wa = frame.wa
            clock += wa
            op = ctrl["op"]
            per_op[op] = per_op.get(op, 0) + wa
            kind = ctrl["kind"]
            if kind == "bra":
                pred = ctrl["pred"]
                if pred is None:
                    self._advance(stack, ctrl["target"])
                    continue
                pv = R[pred]
                if pv.dtype != bool:
                    pv = (pv & 1) != 0
                if ctrl["neg"]:
                    pv = ~pv
                taken = frame.mask & pv
                if rec is not None:
                    rec.guard(pc, taken)
                if not taken.any():
                    self._advance(stack, pc + 1)
                    continue
                not_taken = frame.mask & ~pv
                if not not_taken.any():
                    self._advance(stack, ctrl["target"])
                    continue
                self._diverge(stack, frame, pc, ctrl["target"],
                              ctrl["rpc"], taken, not_taken)
                continue
            if kind == "exit":
                em = frame.mask
                if san is not None:
                    san.note_exit(pc, self._cta[em], self._tid[em])
                self._retire(stack, em)
                # Scalar _exec_exit: if the *same warp's* next entry
                # waits exactly at the exit pc, it slides past the
                # exit uncounted.  Warps that did not exit here still
                # owe an exit of their own, so split the frame.
                if stack and stack[-1].pc == pc:
                    top = stack[-1]
                    ew = np.zeros(self.warp_count, bool)
                    ew[self.wid[em]] = True
                    skip = ew[self.wid] & top.mask
                    if skip.all():
                        self._advance(stack, pc + 1)
                    elif skip.any():
                        stack.pop()
                        stay = top.mask & ~skip
                        stack.append(_Frame(pc, top.rpc, stay,
                                            self._wa(stay), False))
                        if pc + 1 != top.rpc:
                            stack.append(_Frame(pc + 1, top.rpc, skip,
                                                self._wa(skip), False))
                if parked:
                    # Retiring threads can complete a barrier: a CTA
                    # whose remaining live warps are all parked releases
                    # now, exactly like try_release_barrier after the
                    # last running warp exits.
                    self._release_parked(stack, parked)
                continue
            # bar — counted (issued) above, like the scalar park.  A
            # divergence-free kernel (ctrl["div"] is False, a plan-time
            # fact from repro.analysis.vectorize) always meets the bar
            # with a full frame, so the containment proof is skipped.
            if san is not None and ctrl["div"]:
                san.check_barrier(pc, self._cta[frame.mask],
                                  self._tid[frame.mask])
            if not ctrl["div"] or self._bar_contained(frame.mask):
                if san is not None:
                    done = np.zeros(self.nct, bool)
                    done[self.ctaidx[frame.mask]] = True
                    san.end_interval(np.flatnonzero(done) + self.cta_start)
                self._advance(stack, pc + 1)
                continue
            if self._park(stack, parked, frame, pc):
                self._release_parked(stack, parked)
                continue
            # Intra-warp divergence reached a barrier: no faithful
            # vector parking exists, so finish the chunk's CTAs on the
            # scalar engine.
            self.launch.clock += clock
            stats.instructions += clock
            self._bailout(stack, parked, stats)
            return None
        return clock

    def _release_global(self) -> None:
        """Hand global memory back: drop every view of the store and of
        its shadow."""
        self.gmem = self._gwritten = self._init = None
        self._views, self._arenas = {}, {}

    # -- barrier parking ------------------------------------------------
    def _park(self, stack: list, parked: list, frame: "_Frame",
              pc: int) -> bool:
        """Try to park the top frame at the bar it just issued.

        Parking is scalar-faithful only when the frame is the *sole*
        owner of its warps: each such warp's per-warp scalar stack is
        then exactly this one entry, sitting at the bar with
        ``at_barrier`` set.  A frame with a finite reconvergence pc has
        a parent entry holding the same warps somewhere below, and a
        frame sharing warps with any other (stacked or parked) frame
        means intra-warp divergence reached the bar — both cases bail
        to the scalar engine instead of parking.
        """
        if frame.rpc != NO_RECONVERGE:
            return False
        fw = np.zeros(self.warp_count, bool)
        fw[self.wid[frame.mask]] = True
        for other in stack[:-1] + parked:
            if fw[self.wid[other.mask]].any():
                return False
        stack.pop()
        parked.append(frame)
        self.parks += 1
        EVENTS["parked_barriers"] += 1
        return True

    def _release_parked(self, stack: list, parked: list) -> None:
        """Re-merge parked frames whose CTAs have fully arrived.

        Mirrors :meth:`FunctionalEngine.try_release_barrier`: a CTA
        releases when every live warp is parked, and the release
        advances each frame past its bar *uncounted* (the bar was
        charged when the frame parked).  A parked frame spanning
        several CTAs splits along CTA boundaries — warps never straddle
        CTAs, so the split keeps per-warp state exact.
        """
        if not parked:
            return
        parked_threads = np.zeros(self.T, bool)
        for fr in parked:
            parked_threads |= fr.mask
        runner = self.alive & ~parked_threads
        blocked = np.zeros(self.nct, bool)
        blocked[self.ctaidx[runner]] = True
        waiting = np.zeros(self.nct, bool)
        for fr in parked:
            waiting[self.ctaidx[fr.mask]] = True
        release = waiting & ~blocked
        if not release.any():
            return
        if self._san is not None:
            # A released CTA completed its rendezvous: new race epoch.
            self._san.end_interval(
                np.flatnonzero(release) + self.cta_start)
        released_threads = release[self.ctaidx]
        keep: list[_Frame] = []
        for fr in parked:
            go = fr.mask & released_threads
            if not go.any():
                keep.append(fr)
                continue
            stay = fr.mask & ~released_threads
            if stay.any():
                keep.append(_Frame(fr.pc, fr.rpc, stay,
                                   self._wa(stay), False))
            stack.append(_Frame(fr.pc + 1, fr.rpc, go, self._wa(go),
                                bool(go.all())))
            self.releases += 1
            EVENTS["released_barriers"] += 1
        parked[:] = keep

    # -- bailout --------------------------------------------------------
    def _bailout(self, stack: list, parked: list, stats) -> None:
        """Materialise exact scalar state and finish the chunk there."""
        engine = self.engine
        launch = self.launch
        self.bailouts += 1
        EVENTS["bailouts"] += 1
        engine.tracer.instant(
            f"megablock-bailout:{launch.kernel.name}", cat="engine",
            args={"parked_frames": len(parked)})
        self._release_global()
        tpb = launch.threads_per_block
        top = stack[-1]
        # Warps whose topmost entry already *issued* its bar: the
        # bailing frame plus every parked frame.  They must come out
        # with at_barrier set, or the scalar continuation would execute
        # — and re-count — a bar the vector clock already charged.
        at_bar_ids = {id(top)}
        at_bar_ids.update(id(fr) for fr in parked)
        frames = list(stack) + list(parked)
        reg_items = list(self.R.items())
        # The scalar continuation reports through the engine's step
        # observer like any stepped launch (on the chunk's still-open
        # per-CTA sanitizer state: epochs, exit pcs and race tables
        # carry over).
        self._bailout_ctas(stats, frames, at_bar_ids, reg_items, tpb)

    def _bailout_ctas(self, stats, frames, at_bar_ids, reg_items,
                      tpb) -> None:
        engine = self.engine
        launch = self.launch
        for ci in range(self.nct):
            cta = CTAState(launch, self.cta_start + ci)
            base = ci * tpb
            row = self.smem[ci * self.S:(ci + 1) * self.S]
            nshare = len(cta.shared.data)
            cta.shared.data[:] = row[:nshare].tobytes()
            for warp in cta.warps:
                w0 = base + warp.warp_index * 32
                lanes_n = min(32, tpb - warp.warp_index * 32)
                entries = []
                at_barrier = False
                for fr in frames:
                    sub = fr.mask[w0:w0 + lanes_n]
                    if not sub.any():
                        continue
                    bits = int.from_bytes(
                        np.packbits(sub, bitorder="little").tobytes(),
                        "little")
                    entries.append(SimtEntry(fr.pc, fr.rpc, bits))
                    at_barrier = id(fr) in at_bar_ids
                warp.simt = SimtStack(entries)
                # Warps at a counted bar come out with at_barrier set —
                # exactly the scalar park state; try_release_barrier
                # will advance them past the bar without re-counting.
                warp.at_barrier = at_barrier
                # instructions_executed is a per-warp budget counter;
                # the vector tier accounts issue counts in aggregate,
                # so the scalar continuation restarts it at zero.
                for lane in range(lanes_n):
                    t = w0 + lane
                    regs = warp.regs[lane]
                    for name, arr in reg_items:
                        value = int(arr[t])
                        if value:
                            regs[name] = value
            engine.run_cta(cta, stats)
            cta.release()
