"""The compiled scalar tier: the emit table's Python-int dialect, rendered
fused or stepped.

PTX semantics — register ops and ``ld``/``st`` alike — are the rows of
:mod:`repro.functional.emit` (the reference lives in
:mod:`repro.ptx.instructions`); this module holds only what is scalar
about compiling them — :class:`_BlockCodegen`, the dialect that spells a
row's primitives as per-lane Python-int source (lane loops, register
forwarding, the liveness flush, inline buffer indexing for the memory
row's ``load``/``store``, ``mem_trace`` for its access event).  The
source is rendered two ways:

* :func:`compile_superblocks` fuses every maximal straight-line run of
  unpredicated, non-control, non-barrier instructions into a single
  *superblock* closure that executes the whole run for a warp in one
  call — no ``ExecRecord``, no predicate check, no SIMT-stack advance
  per dynamic instruction;
* :func:`compile_step` pushes a *single* instruction through the same
  rows for ``FunctionalEngine.step_warp`` — the path hooked runs (the
  sanitizer, fault injection), budgeted checkpoint slices, predicated
  code, ``fast_mode="fastpath"`` and performance mode's *live* launches
  take.  Every register is written back (no liveness pruning) and
  ``ld``/``st`` append one access per lane to ``warp.mem_trace``, the
  ``ExecRecord.mem_accesses`` contract.

Anything the table declines is the reference implementation itself
(:func:`reference_step`): the whole closure on the step path, an opaque
call inside a fused run.

Each rendering is compiled to Python source and ``exec``'d once per
kernel.  Register-only instructions and loads share **one outer lanes
loop** with the per-lane register file hoisted: they are legal to
reorder lane-major because they touch only lane-private state (the
lane's register dict, read-only special registers, immediates) or read
memory nothing in the run has written.  Stores are where lanes
communicate, so the memory row fences each one into its own lanes loop,
keeping warp-lockstep instruction order.

Block-local optimisations (bit-exact against the reference tier for
memory and every *live* register):

* register payloads written earlier in the same lane chunk are forwarded
  through locals instead of re-read from the register dict;
* register-dict writebacks are deferred to the end of each lane chunk,
  so a register rewritten several times in a chunk is stored once; at
  the end of a fused block the flush is filtered by the liveness
  solution from :mod:`repro.analysis.dataflow`, so registers that are
  statically dead after the run are never written back at all (their
  stale dict entries are unobservable: liveness proves no later
  instruction reads them, and the analysis already counts a write
  narrower than its register can hold as a read of the old payload);
* a write as wide as its register can ever hold
  (:func:`~repro.analysis.dataflow.register_widths`) has no upper bits
  to keep and reads no old payload at all;
* float reinterpretation inlines the two ``struct`` calls instead of
  going through the :mod:`repro.ptx.values` wrappers;
* linear arenas (shared/param/const) and the dense span of global memory
  are read and written directly on the backing buffers, with the same
  bounds faults the arena methods raise (anything outside the span, a
  misaligned global store, or a store with a shadow attached takes the
  store's own ``read_uint``/``write_uint``);
* no ``mem_trace`` bookkeeping in fused blocks — traces only feed
  :class:`~repro.functional.executor.ExecRecord`, which superblock-
  executed instructions never produce.

Functional simulation mode (the paper's 7-8x-faster leg, §III-F)
executes whole superblocks and synthesises aggregate stats from static
block metadata.  Performance mode issues from recorded per-warp streams
(:mod:`repro.timing.stream`, a megablock pre-pass) and reaches this
module only for its live launches, one ``ExecRecord`` per instruction
through ``step_warp``.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from repro.analysis.dataflow import liveness, register_widths
from repro.errors import SimulationFault
from repro.functional.cfg import block_leaders
from repro.functional.emit import Codegen, emit as _emit
from repro.functional.memory import GLOBAL_BASE, PAGE_BITS
from repro.functional.state import is_special
from repro.ptx import ast
from repro.ptx.dtypes import DType
from repro.ptx.instructions import DISPATCH, lookup
from repro.ptx.instructions.bits import reverse_bits
from repro.ptx.instructions.common import (
    float_div, float_max, float_min, int_div, int_rem)
from repro.ptx.instructions.convert import float_to_int
from repro.ptx.instructions.special import SFU
from repro.ptx.values import (
    _PACK_F32, _PACK_F64, _PACK_U32, _PACK_U64, MASK64, bits_to_f16,
    f16_to_bits, f32_to_bits, f64_to_bits, mask)

#: A compiled instruction or block: ``fn(warp, lanes)``.
LaneFn = Callable[[object, Sequence[int]], None]

#: Special registers whose per-lane value tables can be hoisted.
_STATIC_SPECIAL = frozenset(
    [f"%{base}.{axis}" for base in ("tid", "ntid", "ctaid", "nctaid")
     for axis in "xyz"] + ["%laneid", "%warpid"])


def _arena_oob(addr: int, nbytes: int, size: int) -> None:
    """Raise the same fault LinearMemory._check raises (inlined access)."""
    raise SimulationFault(
        f"access [{addr}, {addr + nbytes}) outside arena of "
        f"{size} bytes")


def reference_step(inst: ast.Instruction) -> LaneFn:
    """The reference implementation of *inst* as a ``fn(warp, lanes)``:
    the one fallback for everything the emit table declines."""
    return functools.partial(lookup(inst.opcode), inst)


#: ``Codegen.call`` names -> (local name, function): the scalar half of
#: each helper pair is the reference tier's own function, so a compiled
#: call cannot drift from it.
_HELPERS = {
    "fdiv": ("fdiv", float_div), "fmin": ("fmn", float_min),
    "fmax": ("fmx", float_max), "f2i": ("f2i", float_to_int),
    "brev32": ("brev32", functools.partial(reverse_bits, bits=32)),
    **{opcode: (f"sfu_{opcode}", fn) for opcode, fn in SFU.items()},
}

#: Float width -> (local name, value -> payload encoder).
_FLOAT_ENCODERS = {16: ("h2b", f16_to_bits), 32: ("f2b", f32_to_bits),
                   64: ("d2b", f64_to_bits)}


class Superblock:
    """One fused straight-line run: ``[start, end)`` of the kernel body."""

    __slots__ = ("start", "end", "count", "execute", "opcodes",
                 "opcode_counts", "has_mem", "source", "pruned")

    def __init__(self, start: int, end: int, execute, opcodes: tuple[str, ...],
                 has_mem: bool, source: str,
                 pruned: frozenset[str] = frozenset()) -> None:
        self.start = start
        self.end = end
        self.count = end - start
        self.execute = execute
        self.opcodes = opcodes
        counts: dict[str, int] = {}
        for opcode in opcodes:
            counts[opcode] = counts.get(opcode, 0) + 1
        self.opcode_counts = counts
        self.has_mem = has_mem
        self.source = source
        #: Registers whose final writeback the liveness flush dropped:
        #: their dict entries may be stale (or absent) after the block.
        self.pruned = pruned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Superblock [{self.start}, {self.end}) x{self.count}>"


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
class _BlockCodegen(Codegen):
    """The Python-int dialect: accumulates generated per-lane lines + the
    objects they close over."""

    def __init__(self, widths: dict[str, int] | None = None, *,
                 trace: bool = False) -> None:
        super().__init__(widths)
        #: Stepped rendering: ``ld``/``st`` record their accesses in
        #: ``warp.mem_trace`` (fused blocks produce no ExecRecord).
        self.trace = trace
        self.bindings: dict[str, object] = {}
        self.prologue: list[str] = []
        self.chunks: list[tuple[str, list[str]]] = []
        self.has_mem = False
        self._hoisted: dict[tuple, str] = {}
        self._counter = 0
        # Register name -> local holding its full current payload, valid
        # only inside the current lane chunk (locals are per-lane).
        self._forward: dict[str, str] = {}
        #: Registers whose end-of-block writeback was dropped as dead.
        self.pruned: set[str] = set()
        # Register name -> local whose regs[...] writeback is deferred to
        # the end of the current lane chunk.  Rewrites inside the chunk
        # overwrite the entry, so only the final value is stored; the
        # end-of-block flush additionally drops statically dead registers.
        self._pending: dict[str, str] = {}
        #: The next per-lane statement opens a new lanes loop.
        self._fenced = False

    # -- naming --------------------------------------------------------
    def fresh(self, prefix: str = "_t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def helper(self, name: str, obj) -> str:
        """Bind a module-level helper under a fixed name."""
        self.bindings.setdefault(name, obj)
        return name

    def const(self, value) -> str:
        """An immediate: ints inline as literals, floats bind by name
        (repr of inf/nan is not a valid literal)."""
        if isinstance(value, int):
            return repr(value)
        name = self.fresh("_k")
        self.bindings[name] = value
        return name

    # -- per-call hoists (lane-invariant, warp-dependent) --------------
    def _hoist(self, key: tuple, expr: str) -> str:
        name = self._hoisted.get(key)
        if name is None:
            name = self.fresh("_h")
            self.prologue.append(f"{name} = {expr}")
            self._hoisted[key] = name
        return name

    def special_table(self, name: str) -> str:
        return self._hoist(("special", name), f"warp.special[{name!r}]")

    def arena(self, space: str) -> str:
        return self._hoist(("arena", space), f"warp.arena_for({space!r})")

    def arena_buffer(self, space: str) -> tuple[str, str]:
        """(bytearray local, length local) of a linear arena."""
        buf = self._hoist(("arena_buf", space), f"{self.arena(space)}.data")
        length = self._hoist(("arena_len", space), f"len({buf})")
        return buf, length

    def global_buffer(self) -> tuple[str, str]:
        """(dense buffer local, page-flag local) of global memory."""
        pair = self._hoist(("gdense",), f"{self.arena('global')}.dense()")
        return (self._hoist(("gbuf",), f"{pair}[0]"),
                self._hoist(("gwritten",), f"{pair}[1]"))

    def symbol(self, name: str, offset: int) -> str:
        return self._hoist(("sym", name, offset),
                           f"warp.symbol_address({name!r})[1] + {offset}")

    def reg_payload_fn(self) -> str:
        return self._hoist(("reg_payload",), "warp.reg_payload")

    # -- chunks --------------------------------------------------------
    def lane(self, *lines: str) -> None:
        """Per-lane statements; consecutive ones share a lanes loop."""
        if self.chunks and self.chunks[-1][0] == "lane" and not self._fenced:
            self.chunks[-1][1].extend(lines)
        else:
            self.chunks.append(("lane", list(lines)))
            self._fenced = False

    def fence(self) -> None:
        """Close the current lanes loop: deferred writebacks land, the
        forwarded locals (scoped to the loop) are dropped and the next
        statement opens a loop of its own.  A store sits between two
        fences, so it keeps warp-lockstep instruction order."""
        self._flush_pending()
        self._forward.clear()
        self._fenced = True

    def opaque(self, inst: ast.Instruction) -> None:
        """Run *inst* through the reference implementation."""
        self._flush_pending()
        name = self.fresh("_f")
        self.bindings[name] = reference_step(inst)
        self.chunks.append(("call", [f"{name}(warp, lanes)"]))
        self._forward.clear()

    def _flush_pending(self, live: frozenset[str] | None = None) -> None:
        """Emit the deferred register writebacks of the current chunk.

        With *live* given (the end-of-block flush), registers not in it
        are dead after the run and their writebacks are skipped.
        """
        if not self._pending:
            return
        for name, local in self._pending.items():
            if live is None or name in live:
                self.lane(f"regs[{name!r}] = {local}")
            else:
                self.pruned.add(name)
        self._pending.clear()

    # -- operand expressions -------------------------------------------
    def reg(self, name: str) -> str:
        """Payload of a register by name (forwarded local if available)."""
        if is_special(name):
            if name in _STATIC_SPECIAL:
                return f"{self.special_table(name)}[lane]"
            return f"{self.reg_payload_fn()}({name!r}, lane)"
        forwarded = self._forward.get(name)
        if forwarded is not None:
            return forwarded
        return f"regs.get({name!r}, 0)"

    def decode(self, payload: str, dtype: DType) -> str:
        """Typed Python value of a payload expression."""
        if dtype.is_float:
            # bits_to_f32/f64 with the struct round-trip inlined.
            if dtype.bits == 32:
                up = self.helper("_upf", _PACK_F32.unpack)
                pk = self.helper("_pki", _PACK_U32.pack)
                return f"{up}({pk}(({payload}) & 0xffffffff))[0]"
            if dtype.bits == 64:
                up = self.helper("_upd", _PACK_F64.unpack)
                pk = self.helper("_pkq", _PACK_U64.pack)
                return f"{up}({pk}(({payload}) & {MASK64:#x}))[0]"
            return f"{self.helper('b2h', bits_to_f16)}({payload})"
        if dtype.is_signed:
            sign = 1 << (dtype.bits - 1)
            return (f"((({payload}) & {mask(dtype.bits):#x})"
                    f" ^ {sign:#x}) - {sign:#x}")
        return f"({payload}) & {mask(dtype.bits):#x}"

    def value_mod64(self, op: ast.Operand, dtype: DType) -> str:
        # At 64-bit accumulator width sign extension is a no-op mod
        # 2^64 (the result is masked back), so read the raw payload.
        return (self.value(op, dtype) if dtype.bits < 64
                else self.payload(op, dtype))

    def pred_true(self, name: str) -> str:
        return f"{self.reg(name)} & 1"

    # -- expression primitives (the Python-int spellings) --------------
    def bind(self, expr: str) -> str:
        """A per-lane local holding *expr*, evaluated once."""
        temp = self.fresh()
        self.lane(f"{temp} = {expr}")
        return temp

    @staticmethod
    def select(cond: str, a: str, b: str) -> str:
        return f"({a}) if {cond} else ({b})"

    def compare(self, sym: str, a: str, b: str, nan: int | None) -> str:
        """0/1 predicate payload; *nan* is the float result on NaN."""
        if nan is None:
            return f"1 if ({a}) {sym} ({b}) else 0"
        ta, tb = self.bind(a), self.bind(b)
        return (f"{nan} if ({ta} != {ta} or {tb} != {tb})"
                f" else (1 if {ta} {sym} {tb} else 0)")

    def shift(self, opcode: str, value: str, amount: str,
              dtype: DType) -> str:
        """PTX shifts clamp the amount: >= width fills with 0 / sign."""
        bits = dtype.bits
        amt = self.bind(f"({amount}) & 0xffffffff")
        if opcode == "shl":
            return f"0 if {amt} >= {bits} else ({value}) << {amt}"
        val = self.bind(value)
        fill = f"(-1 if {val} < 0 else 0)" if dtype.is_signed else "0"
        return f"({fill} if {amt} >= {bits} else {val} >> {amt})"

    def divrem(self, opcode: str, a: str, b: str, dtype: DType) -> str:
        fn = (self.helper("idiv", int_div) if opcode == "div"
              else self.helper("irem", int_rem))
        return f"{fn}({a}, {b})"

    @staticmethod
    def to_float(expr: str, src: DType) -> str:
        return f"float({expr})"

    def call(self, name: str, *args: str) -> str:
        """A named helper: the reference tier's own scalar function."""
        return f"{self.helper(*_HELPERS[name])}({', '.join(args)})"

    def float_encoder(self, bits: int) -> str:
        return self.helper(*_FLOAT_ENCODERS[bits])

    # -- destination writes --------------------------------------------
    def write(self, name: str, bits: int, expr: str) -> None:
        """Register write + forwarding local: the low *bits* composed
        into the old payload's upper bits, where there can be any."""
        if self.replaces(name, bits):
            full = f"({expr}) & {mask(min(bits, 64)):#x}"
        else:
            keep = MASK64 ^ mask(bits)
            old = self.reg(name)
            full = f"({old} & {keep:#x}) | (({expr}) & {mask(bits):#x})"
        self._define(name, full)

    def write_raw(self, name: str, expr: str) -> None:
        """Whole-payload register write (ld destinations, predicates)."""
        if expr.isidentifier():  # already a local: no copy needed
            self._forward[name] = expr
            self._pending[name] = expr
            return
        self._define(name, expr)

    write_pred = write_raw

    def _define(self, name: str, expr: str) -> None:
        temp = self.fresh("_p")
        self.lane(f"{temp} = {expr}")
        self._forward[name] = temp
        self._pending[name] = temp

    # -- memory (the Python-int spellings of the ld/st row) -------------
    def address(self, mem: ast.Operand) -> tuple[str, bool]:
        """(local or invariant hoist holding the address, lane-invariant)."""
        if not mem.is_reg_base:
            return self.symbol(mem.name, mem.offset), True
        base = self.reg(mem.name)
        if mem.offset == 0 and base.isidentifier():
            # Stored payloads are always masked to 64 bits (union
            # invariant), so a forwarded base is already the address.
            return base, False
        addr = self.fresh("_a")
        self.lane(f"{addr} = {base}" if mem.offset == 0 else
                  f"{addr} = ({base} + {mem.offset}) & {MASK64:#x}")
        return addr, False

    def access(self, inst: ast.Instruction, addr: tuple[str, bool],
               nbytes: int, is_write: bool) -> None:
        """Stepped rendering only: one ``warp.mem_trace`` entry per lane
        (fused blocks produce no ``ExecRecord``)."""
        if self.trace:
            append = self._hoist(("trace",), "warp.mem_trace.append")
            self.lane(f"{append}(({inst.space!r}, {addr[0]}, {nbytes}, "
                      f"{is_write}))")

    def _element(self, addr: tuple[str, bool], offset: int) -> str:
        """Address of the vector element *offset* bytes into the access."""
        base, invariant = addr
        if not offset:
            return base
        if invariant:
            return self._hoist(("elem", base, offset), f"{base} + {offset}")
        elem = self.fresh("_a")
        self.lane(f"{elem} = {base} + {offset}")
        return elem

    def _linear(self, space: str, addr: str, nbytes: int,
                invariant: bool) -> str:
        """Bounds-check a linear-arena access (the fault the arena
        methods raise); returns the arena's bytearray local."""
        buf, length = self.arena_buffer(space)
        oob = self.helper("_oob", _arena_oob)
        check = (f"if {addr} < 0 or {addr} + {nbytes} > {length}: "
                 f"{oob}({addr}, {nbytes}, {length})")
        if invariant:
            self.prologue.append(check)  # lane-invariant: check once
        else:
            self.lane(check)
        return buf

    def load(self, space: str, addr: tuple[str, bool], offset: int,
             nbytes: int) -> str:
        """Local holding the *nbytes* little-endian bytes at the element.

        Loads don't mutate memory, so they join the fused lane-major
        loop: with no intervening store every lane reads the same bytes
        whatever the lane/instruction interleaving.  Linear arenas and
        the in-span part of global memory are read on the backing
        buffers directly."""
        self.has_mem = True
        addr, invariant = self._element(addr, offset), addr[1]
        raw = self.fresh("_m")
        if space != "global":
            buf = self._linear(space, addr, nbytes, invariant)
            ifb = self.helper("_ifb", int.from_bytes)
            self.lane(
                f"{raw} = {ifb}({buf}[{addr}:{addr} + {nbytes}], 'little')")
            return raw
        buf, _ = self.global_buffer()
        ifb = self.helper("_ifb", int.from_bytes)
        rel = self.fresh("_o")
        arena = self.arena("global")
        # Highest in-span offset; none under "raise", whose never-written
        # check lives in read_uint.
        limit = self._hoist(
            ("grlimit", nbytes),
            f"-1 if {arena}.uninit_read == 'raise' else len({buf}) - {nbytes}")
        fallback = self._hoist(("gread",), f"{arena}.read_uint")
        self.lane(
            f"{rel} = {addr} - {GLOBAL_BASE}",
            f"if 0 <= {rel} <= {limit}:",
            f"    {raw} = {ifb}({buf}[{rel}:{rel} + {nbytes}], 'little')",
            "else:",
            f"    {raw} = {fallback}({addr}, {nbytes})")
        return raw

    def store(self, space: str, addr: tuple[str, bool], offset: int,
              nbytes: int, value: str) -> None:
        """Write *value* (already truncated to the width) at the element."""
        self.has_mem = True
        addr, invariant = self._element(addr, offset), addr[1]
        local = self.fresh("_m")
        self.lane(f"{local} = {value}")
        data = f"{local}.to_bytes({nbytes}, 'little')"
        if space != "global":
            buf = self._linear(space, addr, nbytes, invariant)
            self.lane(f"{buf}[{addr}:{addr} + {nbytes}] = {data}")
            return
        buf, written = self.global_buffer()
        rel = self.fresh("_o")
        arena = self.arena("global")
        # Highest in-span offset; none with a shadow attached, whose
        # initialized-byte marking lives in write.
        limit = self._hoist(
            ("gwlimit", nbytes),
            f"-1 if {arena}.shadow is not None else len({buf}) - {nbytes}")
        fallback = self._hoist(("gwrite",), f"{arena}.write_uint")
        # Naturally aligned stores (the rule) stay inside one page, so one
        # flag marks them; anything else takes the store's own write.
        aligned = f" and not {rel} & {nbytes - 1}" if nbytes > 1 else ""
        self.lane(
            f"{rel} = {addr} - {GLOBAL_BASE}",
            f"if 0 <= {rel} <= {limit}{aligned}:",
            f"    {buf}[{rel}:{rel} + {nbytes}] = {data}",
            f"    {written}[{rel} >> {PAGE_BITS}] = 1",
            "else:",
            f"    {fallback}({addr}, {local}, {nbytes})")

    # -- assembly ------------------------------------------------------
    def build(self, filename: str,
              live_out: frozenset[str] | None = None):
        self._flush_pending(live_out)
        body: list[str] = list(self.prologue)
        if any(kind == "lane" for kind, _ in self.chunks):
            body.append("warp_regs = warp.regs")
        for kind, lines in self.chunks:
            if kind == "call":
                body.extend(lines)
            else:
                body.append("for lane in lanes:")
                body.append("    regs = warp_regs[lane]")
                body.extend("    " + line for line in lines)
        if any(kind == "call" for kind, _ in self.chunks):
            # A reference ld/st/atom/tex traces its accesses; only
            # step_warp clears the trace, so a block must leave none.
            body.append("warp.mem_trace.clear()")
        if not body:
            body = ["pass"]
        params = ["warp", "lanes"] + [f"{k}={k}" for k in self.bindings]
        source = (f"def _superblock({', '.join(params)}):\n"
                  + "\n".join("    " + line for line in body) + "\n")
        namespace = dict(self.bindings)
        exec(compile(source, filename, "exec"), namespace)
        return namespace["_superblock"], source


# ----------------------------------------------------------------------
# Run discovery and fusion
# ----------------------------------------------------------------------
def _references_clock(inst: ast.Instruction) -> bool:
    for op in inst.operands:
        if op.kind in (ast.REG, ast.MEM) and op.name.startswith("%clock"):
            return True
        if op.kind == ast.VEC and any(
                e.kind == ast.REG and e.name.startswith("%clock")
                for e in op.elems):
            return True
    return False


def eligible(inst: ast.Instruction) -> bool:
    """Can *inst* live inside a superblock?

    Requires no guard predicate, no control flow / barrier, an opcode
    the simulator implements (an unknown one must fault when it issues,
    not when the kernel compiles), and no ``%clock`` read (the clock
    must tick per instruction, which fused blocks batch).
    """
    if inst.pred is not None or inst.opcode not in DISPATCH:
        return False
    return not _references_clock(inst)


def _fuse(kernel, run: list[ast.Instruction], start: int,
          live_out: frozenset[str] | None) -> Superblock:
    gen = _BlockCodegen(register_widths(kernel))
    for inst in run:
        if not _emit(inst, gen):
            gen.opaque(inst)
    filename = f"<superblock {kernel.name}@{start}>"
    execute, source = gen.build(filename, live_out)
    return Superblock(
        start=start, end=start + len(run), execute=execute,
        opcodes=tuple(inst.opcode for inst in run),
        has_mem=gen.has_mem, source=source,
        pruned=frozenset(gen.pruned))


def compile_superblocks(kernel) -> dict[int, Superblock]:
    """Fuse every maximal eligible straight-line run of *kernel*.

    Returns ``{entry pc: Superblock}``.  Runs never cross basic-block
    leaders, so any pc a warp can branch or reconverge to is either a
    block entry or outside every block (where the engine steps).

    One liveness solve per kernel feeds the end-of-run writeback flush:
    the set live before the instruction that follows a run is exactly
    what later code can still read, so everything else stays in locals.
    """
    body = kernel.body
    leaders = block_leaders(kernel)
    live = liveness(kernel)
    blocks: dict[int, Superblock] = {}
    pc, size = 0, len(body)
    while pc < size:
        if not eligible(body[pc]):
            pc += 1
            continue
        start = pc
        pc += 1
        while pc < size and pc not in leaders and eligible(body[pc]):
            pc += 1
        live_out = (live.before.get(pc, frozenset())
                    if pc < size else frozenset())
        blocks[start] = _fuse(kernel, body[start:pc], start, live_out)
    return blocks


#: Fused code compiles as ``<superblock kernel@pc>``; a stepped rendering
#: is the ``fast_mode="fastpath"`` tier's code and says so in the only
#: form a profiler that buckets frames by module path can read (the
#: per-layer ledger of ``benchmarks/perf/spans.py`` keeps stepped time
#: in its ``fastpath`` row, apart from fused time).
_STEP_FILENAME = "<step>/repro/functional/fastpath/{kernel}@{pc}"


def compile_step(kernel, pc: int) -> LaneFn:
    """The stepped rendering of ``kernel.body[pc]``.

    The instruction goes through the same rows as a fused block,
    alone: every register it writes is stored (a later step may read
    any of them) and its memory accesses are traced.  A guard predicate
    needs nothing here — ``step_warp`` passes only the lanes it selects.
    """
    inst = kernel.body[pc]
    gen = _BlockCodegen(register_widths(kernel), trace=True)
    if not _emit(inst, gen):
        return reference_step(inst)
    return gen.build(_STEP_FILENAME.format(kernel=kernel.name, pc=pc))[0]
