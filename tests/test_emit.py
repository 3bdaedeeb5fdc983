"""The emit table tests itself.

``repro.functional.emit.ROWS`` is the one compiled statement of PTX
semantics; both compiled tiers render from it.  The walk below
enumerates every register row x every dtype/modifier form a dialect
accepts, runs the one-instruction kernel on all four tiers over an
edge-operand set and requires bit-identical results — a row added later
is covered with no new test.  The memory walk does the same for the
``ld``/``st`` row: space x type x vector width, each kernel holding
every address form plain and predicated, on full and partial warps —
registers, memory, ``ExecRecord.mem_accesses`` and the recorded stream
against the reference.  The census pins what each dialect declines over
the embedded kernels, so an emitter bug cannot turn into a silent
fallback.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from helpers import exec_op, op_kernel
from repro.analysis import embedded_units, verify_kernel
from repro.analysis.dataflow import defs_of, uses_of, write_bits
from repro.cuda import CudaRuntime, FunctionalBackend
from repro.cuda.runtime import KernelRunResult
from repro.debugtool.instrument import instrumented_sites
from repro.functional import megablock
from repro.functional.emit import ROWS, emit
from repro.functional.executor import FAST_MODES, FunctionalEngine
from repro.functional.megablock import _VecGen
from repro.functional.superblock import _BlockCodegen
from repro.ptx.builder import PTXBuilder
from repro.ptx import instructions
from repro.ptx.instructions import CONTROL, MEM, TABLE
from repro.ptx.values import MASK64, mask
from repro.ptx.parser import parse_module
from repro.timing import stream
from repro.timing.stream import StreamRecorder, classify, coalesce

_COMPARISONS = ("eq", "ne", "lt", "le", "gt", "ge", "lo", "ls", "hi", "hs")
_ROUNDERS = ("rni", "rzi", "rmi", "rpi")

#: Modifier forms worth a kernel each (default: the bare opcode).
_MODIFIERS = {"mul": ("", ".lo", ".wide"), "mad": ("", ".lo", ".wide"),
              "setp": tuple(f".{cmp}" for cmp in _COMPARISONS)}

_CVT_TYPES = ("s8", "u8", "s16", "u16", "s32", "u32", "s64", "u64",
              "f16", "f32", "f64")


def _int_edges(bits: int) -> list[int]:
    """0, +-1, INT_MIN/MAX, and shift amounts around and past the width."""
    top = 1 << bits
    values = [0, 1, 2, 7, bits - 1, bits, bits + 1, 64, 100,
              top // 2 - 1, top // 2, top // 2 + 1, top - 1, top - 2,
              0x5555555555555555 % top, 0x12345678 % top]
    if bits == 64:
        values.append(1 << 32)
    return values


_FLOAT_EDGES = [0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5, 0.5, 1e-3,
                3e9, -3e9, 1e20, -1e20, 2.0 ** 31, -2.0 ** 31 - 1,
                2.0 ** 32, 65504.0, 5e-324, 1e-45, 6e-8,
                float("inf"), float("-inf"), float("nan")]


def _edges(type_name: str) -> np.ndarray:
    """Edge operands of a PTX type as raw payloads."""
    kind, bits = type_name[0], int(type_name[1:])
    if kind != "f":
        return np.array(_int_edges(bits), dtype=np.uint64)
    float_t, uint_t = {16: (np.float16, np.uint16),
                       32: (np.float32, np.uint32),
                       64: (np.float64, np.uint64)}[bits]
    with np.errstate(over="ignore"):
        return np.array(_FLOAT_EDGES, dtype=np.float64).astype(
            float_t).view(uint_t).astype(np.uint64)


class Form:
    """One ``opcode.modifiers.dtype`` spelling and how to drive it."""

    def __init__(self, op: str, sources: list[str], out: str) -> None:
        self.op = op
        self.sources = sources  # a type name per source, or "pred"
        self.out = out          # result type name, or "pred"

    def instruction(self):
        """The parsed instruction alone (for the acceptance check)."""
        builder = PTXBuilder("form", [])
        builder.ins(self.op, "%d", *(f"%s{i}"
                                     for i in range(len(self.sources))))
        return parse_module(builder.build(), "form").kernel("form").body[0]

    def operands(self) -> list[np.ndarray]:
        """Every pair of edge values for the first two sources; the
        third walks the edges at its own stride."""
        columns = [np.array([0, 1, 2, 0xFFFFFFFF], dtype=np.uint64)
                   if name == "pred" else _edges(name)
                   for name in self.sources]
        if len(columns) == 1:
            return columns
        first, second = np.meshgrid(columns[0], columns[1], indexing="ij")
        lanes = [first.ravel(), second.ravel()]
        if len(columns) == 3:
            index = (np.arange(first.size) * 5 + 1) % len(columns[2])
            lanes.append(columns[2][index])
        return lanes

    def run(self, fast_mode: str,
            dst_fill: int | None = None) -> np.ndarray:
        def width(name: str):
            return "pred" if name == "pred" else max(16, int(name[1:]))
        pred_result = self.out == "pred"
        return exec_op(self.op, self.operands(),
                       in_widths=[width(name) for name in self.sources],
                       out_width=32 if pred_result else width(self.out),
                       pred_result=pred_result, fast_mode=fast_mode,
                       dst_fill=dst_fill)


def _type_names(kinds: str) -> list[str]:
    names = [f"{kind}{bits}" for kind in kinds if kind in "usb"
             for bits in (16, 32, 64)]
    if "f" in kinds:
        names += ["f32", "f64"]
    if "p" in kinds:
        names.append("pred")
    return names


def _candidate_forms():
    for opcode in sorted(ROWS):
        row = TABLE[opcode]
        if row.unit == MEM:
            continue  # ld/st: the memory walk below
        sources = row.operands - 1
        if opcode == "cvt":
            for to in _CVT_TYPES:
                for frm in _CVT_TYPES:
                    rounders = _ROUNDERS if (
                        frm[0] == "f" and to[0] != "f") else ("",)
                    for rounder in rounders:
                        mod = f".{rounder}" if rounder else ""
                        yield Form(f"cvt{mod}.{to}.{frm}", [frm], to)
            continue
        for name in _type_names(row.kinds):
            for mod in _MODIFIERS.get(opcode, ("",)):
                out = name
                if mod == ".wide":
                    if name.endswith("64"):
                        continue
                    out = f"{name[0]}{2 * int(name[1:])}"
                srcs = [name] * sources
                if opcode == "selp":
                    srcs[2] = "pred"
                elif opcode == "mad" and mod == ".wide":
                    srcs[2] = out
                if opcode == "setp":
                    out = "pred"
                yield Form(f"{opcode}{mod}.{name}", srcs, out)


def _accepted(form: Form) -> tuple[bool, bool]:
    """(scalar dialect accepts, vector dialect accepts)."""
    inst = form.instruction()
    vector = _VecGen()
    vector.begin_inst(inst)
    return (emit(inst, _BlockCodegen(trace=True)), emit(inst, vector))


#: op -> (form, the vector dialect accepts it), for every candidate at
#: least one dialect accepts.
_FORMS = {form.op: (form, accepts[1]) for form in _candidate_forms()
          if any(accepts := _accepted(form))}


def test_walk_covers_every_row():
    assert ({op.split(".")[0] for op in _FORMS}
            | {form.opcode for form in _MEMORY_FORMS}) == set(ROWS)
    assert len(_FORMS) > 350


@pytest.mark.parametrize("op", sorted(_FORMS))
def test_every_row_form_is_bit_identical_on_all_tiers(op):
    form, vector = _FORMS[op]
    megablock.reset_events()
    results = {mode: form.run(mode) for mode in FAST_MODES}
    if vector:
        assert megablock.EVENTS["fallbacks"] == 0, \
            "vector dialect accepted the form but the plan fell back"
    for mode in FAST_MODES:
        mismatch = np.flatnonzero(results[mode] != results["reference"])
        assert mismatch.size == 0, (
            f"{op} on {mode}: lane {mismatch[0]} operands "
            f"{[hex(int(col[mismatch[0]])) for col in form.operands()]} "
            f"-> {int(results[mode][mismatch[0]]):#x}, reference "
            f"{int(results['reference'][mismatch[0]]):#x}")


def test_write_bits_is_the_width_the_reference_writes():
    """The superblock liveness flush trusts ``write_bits``: a write it
    calls narrower than 64 bits keeps the old upper bits alive.  Run
    every form over a destination pre-filled with all ones and with
    zeros: the bits that differ are the ones the reference left
    standing, and must be exactly those ``write_bits`` says are not
    written.  (``.wide`` is an integer modifier: the walker's
    ``mul.wide.f32`` is not PTX, and the reference ignores it there.)"""
    wrong = []
    for op, (form, _vector) in sorted(_FORMS.items()):
        if op == "mul.wide.f32":
            continue
        ones = form.run("reference", dst_fill=MASK64)
        zeros = form.run("reference", dst_fill=0)
        kept = MASK64 ^ mask(write_bits(form.instruction()))
        if not np.all(ones ^ zeros == kept):
            wrong.append((op, hex(kept), hex(int((ones ^ zeros)[0]))))
    assert wrong == []


def test_a_new_opcode_is_a_table_row_and_an_emit_row(monkeypatch):
    """The two edits of docs/ARCHITECTURE.md "Adding an opcode", made
    here for a throw-away copy of ``add``: the verifier, the dataflow
    facts, the instrumentation, the timing classifier and all four
    tiers follow with no other module touched."""
    def render(inst, gen, dst, a, b) -> None:
        dtype = inst.dtype
        gen.write(dst, dtype.bits, f"({gen.payload(a, dtype)}) + "
                  f"({gen.payload(b, dtype)})")

    row = TABLE["add"]
    monkeypatch.setitem(TABLE, "frob", row)
    # The views are built at import, when a real row is already there.
    monkeypatch.setitem(instructions.DISPATCH, "frob", row.exec)
    monkeypatch.setitem(instructions.OP_CLASS, "frob", row.unit)
    monkeypatch.setitem(ROWS, "frob", render)

    form = Form("frob.u32", ["u32", "u32"], "u32")
    assert _accepted(form) == (True, True)
    first, second = form.operands()
    megablock.reset_events()
    for mode in FAST_MODES:
        assert np.array_equal(form.run(mode),
                              (first + second) & np.uint64(0xFFFFFFFF))
    assert megablock.EVENTS["fallbacks"] == 0

    kernel = parse_module(op_kernel("frob.u32", [32, 32]),
                          "frob").kernel("op_test")
    (inst,) = [i for i in kernel.body if i.opcode == "frob"]
    assert verify_kernel(kernel) == []
    assert defs_of(inst) == {inst.operands[0].name}
    assert uses_of(inst) == {op.name for op in inst.operands[1:]}
    assert write_bits(inst) == 32
    assert inst.index in instrumented_sites(kernel)
    assert classify(kernel)[inst.index] == stream.ALU


def _f32(value: float) -> int:
    return int(np.array([value], dtype=np.float32).view(np.uint32)[0])


@pytest.mark.parametrize("fast_mode", FAST_MODES)
@pytest.mark.parametrize("op, width, operand, expected", [
    ("cvt.rzi.s32.f32", 32, _f32(3e9), 0x7FFFFFFF),
    ("cvt.rni.u32.f32", 32, _f32(-1.5), 0),
    ("cvt.rzi.s64.f32", 64, _f32(1e20), 0x7FFFFFFFFFFFFFFF),
    ("cvt.rzi.u64.f32", 64, _f32(1e20), 0xFFFFFFFFFFFFFFFF),
    ("cvt.rzi.u64.f32", 64, _f32(float("inf")), 0xFFFFFFFFFFFFFFFF),
    ("cvt.rzi.s64.f32", 64, _f32(float("-inf")), 0x8000000000000000),
    ("cvt.rzi.s8.f32", 16, _f32(float("inf")), 0x7F),
    ("cvt.rni.s32.f32", 32, _f32(float("nan")), 0),
])
def test_float_to_int_cvt_saturates(fast_mode, op, width, operand,
                                    expected):
    """The divergences the per-tier cvt emitters had grown: the scalar
    tier wrapped (and raised OverflowError on +-inf), npops.f2i
    overflowed int64 for 64-bit destinations."""
    got = exec_op(op, [np.array([operand], dtype=np.uint64)],
                  in_widths=[32], out_width=width, fast_mode=fast_mode)
    assert int(got[0]) == expected


@pytest.mark.parametrize("fast_mode", FAST_MODES)
def test_float_add_sat_saturates(fast_mode):
    """``.sat`` is declined by the dispatcher for every row: the
    reference clamps to [0, 1] (the scalar tier used to ignore it)."""
    got = exec_op("add.sat.f32",
                  [np.array([_f32(0.75)] * 2, dtype=np.uint64),
                   np.array([_f32(0.75), _f32(-2.0)], dtype=np.uint64)],
                  in_widths=[32, 32], fast_mode=fast_mode)
    assert [int(v) for v in got] == [_f32(1.0), _f32(0.0)]


def _mov_forms_ptx() -> str:
    """mov from a symbol, an int immediate and a float immediate."""
    b = PTXBuilder("movs", [("out", "u64")])
    b.shared("pad", "u32", 4)
    b.shared("tile", "u32", 8)
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    sym = b.reg("u64")
    b.ins("mov.u64", sym, "tile")
    word, half = b.regs("u32", 2)
    b.ins("mov.u32", word, "4294967295")
    b.ins("mov.b16", half, "0x1234")
    real = b.reg("f32")
    b.ins("mov.f32", real, "0f3FC00000")
    low = b.reg("u32")
    b.ins("cvt.u32.u64", low, sym)
    b.ins("add.u32", low, low, word)
    b.ins("add.u32", low, low, half)
    as_int = b.reg("u32")
    b.ins("mov.b32", as_int, real)
    b.ins("xor.b32", low, low, as_int)
    b.ins("st.global.u32", f"[{b.elem_addr(out, tid)}]", low)
    return b.build()


def test_mov_symbol_and_immediates_on_all_tiers():
    outputs = {}
    for mode in FAST_MODES:
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
        rt.load_ptx(_mov_forms_ptx(), "movs")
        out = rt.malloc(4 * 32)
        rt.launch("movs", (1, 1, 1), (32, 1, 1), [out])
        outputs[mode] = rt.memcpy_d2h(out, 4 * 32)
    expected = (16 + 0xFFFFFFFF + 0x1234) & 0xFFFFFFFF ^ 0x3FC00000
    assert np.frombuffer(outputs["reference"], np.uint32)[0] == expected
    assert all(outputs[mode] == outputs["reference"] for mode in FAST_MODES)


# ----------------------------------------------------------------------
# The memory row: ld/st x space x type x vector width
# ----------------------------------------------------------------------
_MEMORY_TYPES = ("u8", "s8", "u16", "s16", "u32", "s32", "u64", "s64",
                 "f32", "f64")
_LINE = 128
#: Bytes of every space each thread owns (its accesses stay inside).
_REGION = 64
#: Two CTAs of a full warp and a 16-lane one.
_GRID, _BLOCK = (2, 1, 1), (48, 1, 1)
_THREADS = _GRID[0] * _BLOCK[0]
_SYMBOL = {"global": "gtab", "shared": "tile", "param": "blob",
           "const": "ctab"}


class MemoryForm:
    """One ``ld``/``st`` spelling: a kernel issuing it through a
    register base, register+offset and a symbol, plain and under both
    polarities of a guard, each thread in its own 64-byte region."""

    def __init__(self, opcode: str, space: str, dtype: str,
                 width: int) -> None:
        self.opcode, self.space, self.dtype = opcode, space, dtype
        self.width = width
        vector = f".v{width}" if width > 1 else ""
        self.op = f"{opcode}.{space}{vector}.{dtype}"
        self.nbytes = int(dtype[1:]) // 8

    def _vec(self, regs: list[str]) -> str:
        return regs[0] if self.width == 1 else "{" + ", ".join(regs) + "}"

    def ptx(self) -> str:
        b = PTXBuilder("mem_form", [
            ("data", "u64"), ("out", "u64"),
            ("blob[256]", "align 16 .b8")])
        b.shared("tile", "b8", (_BLOCK[0] + 1) * _REGION, align=16)
        data, out = b.ld_param("u64", "data"), b.ld_param("u64", "out")
        tid, gtid = b.special("%tid.x"), b.global_tid_x()
        odd, fifth = b.regs("pred", 2)
        low = b.reg("u32")
        b.ins("and.b32", low, tid, "1")
        b.ins("setp.ne.u32", odd, low, "0")
        mine = b.elem_addr(data, gtid, elem_bytes=_REGION)
        space, sym = self.space, _SYMBOL[self.space]
        if space == "global":
            index, base = gtid, (data if self.opcode == "ld" else out)
        else:
            index, base = tid, b.reg("u64")
            b.ins("mov.u64", base, sym)
            if space != "shared":   # 256 bytes: four regions
                index = b.reg("u32")
                b.ins("and.b32", index, tid, "3")
        b.ins("setp.eq.u32", fifth, index, "5")
        addr = b.elem_addr(base, index, elem_bytes=_REGION)
        words = b.regs("u64", 8)
        for k, word in enumerate(words):
            b.ins("ld.global.u64", word, f"[{mine}+{8 * k}]")
        op, step, total = self.op, self.nbytes, self.nbytes * self.width
        if self.opcode == "ld":
            if space == "shared":
                for k, word in enumerate(words):
                    b.ins("st.shared.u64", f"[{addr}+{8 * k}]", word)
                b.bar_sync()
            forms = [(f"[{addr}]", None, False),
                     (f"[{addr}+{step}]", None, False),
                     (f"[{sym}+8]", None, False),
                     (f"[{addr}+{3 * step}]", odd, False),
                     (f"[{sym}+{step}]", odd, True)]
            slot = b.elem_addr(out, gtid, elem_bytes=8 * 5 * self.width)
            for n, (mem, pred, negate) in enumerate(forms):
                regs = b.regs("u64", self.width)
                for reg in regs:
                    b.ins("mov.b64", reg, "0x1111111111111111")
                b.ins(op, self._vec(regs), mem, pred=pred, pred_neg=negate)
                for k, reg in enumerate(regs):
                    b.ins("st.global.b64",
                          f"[{slot}+{8 * (n * self.width + k)}]", reg)
            return self._with_tables(b.build())
        values = self._vec(words[:self.width])
        b.ins(op, f"[{addr}]", values)
        b.ins(op, f"[{addr}+{step}]", values)
        b.ins(op, f"[{addr}+32]", values, pred=odd)
        b.ins(op, f"[{sym}+{_BLOCK[0] * _REGION + 8}]"
              if space == "shared" else f"[{sym}+8]", values, pred=fifth)
        b.ins(op, f"[{addr}+{_REGION - total}]", values, pred=odd,
              pred_neg=True)
        if self.width == 1 and self.dtype[0] != "f":
            b.ins(op, f"[{addr}+40]", "77")
        if space == "shared":   # own region out, thread 0 the symbol's
            b.bar_sync()
            first = b.reg("pred")
            b.ins("setp.eq.u32", first, tid, "0")
            extra = b.elem_addr(out, b.special("%ctaid.x"),
                                elem_bytes=_REGION)
            dest = b.elem_addr(out, gtid, elem_bytes=_REGION)
            for k, word in enumerate(words):
                b.ins("ld.shared.u64", word, f"[{addr}+{8 * k}]")
                b.ins("st.global.u64", f"[{dest}+{8 * k}]", word)
                b.ins("ld.shared.u64", word,
                      f"[tile+{_BLOCK[0] * _REGION + 8 * k}]", pred=first)
                b.ins("st.global.u64",
                      f"[{extra}+{_THREADS * _REGION + 8 * k}]", word,
                      pred=first)
        return self._with_tables(b.build())

    @staticmethod
    def _with_tables(ptx: str) -> str:
        tables = (".global .align 16 .b8 gtab[64];\n"
                  ".const .align 16 .b8 ctab[256];\n")
        return ptx.replace(".visible .entry", tables + ".visible .entry")

    def run(self, fast_mode: str, *, observe: bool = False,
            record: bool = False) -> dict:
        """Memory after the launch, plus what was asked to be watched:
        ``accesses`` — ``mem_accesses`` per (cta, warp, pc) — and
        ``stream`` — (op, lanes, lines) per (cta, warp) — from the
        ``on_exec`` records (*observe*), or ``stream`` from a
        ``StreamRecorder`` armed on the engine (*record*)."""
        seen = {"accesses": {}, "stream": {}}
        kinds: list[int] = []

        def on_exec(rec) -> None:
            # The item the live producer makes of the record.
            warp = (rec.warp.cta.cta_linear, rec.warp.warp_index)
            kinds[:] = kinds or classify(rec.warp.cta.launch.kernel)
            op, lines = kinds[rec.pc], None
            if rec.mem_accesses:
                touched, lines = coalesce(rec.mem_accesses, _LINE)
                op |= touched
            seen["stream"].setdefault(warp, []).append(
                (op, rec.active_lanes, lines))
            if rec.mem_accesses:
                seen["accesses"][(*warp, rec.pc)] = rec.mem_accesses

        backend = FunctionalBackend(fast_mode=fast_mode,
                                    on_exec=on_exec if observe else None)
        if record:
            backend = _RecordingBackend(seen["stream"])
        rt = CudaRuntime(backend=backend)
        rt.load_ptx(self.ptx(), "mem_form")
        rng = np.random.default_rng(17)

        def noise(count: int) -> np.ndarray:
            return rng.integers(0, 256, count, dtype=np.uint8)

        data = rt.malloc(_THREADS * _REGION)
        rt.memcpy_h2d(data, noise(_THREADS * _REGION))
        out_bytes = (_THREADS + _GRID[0]) * _REGION * 5
        out = rt.malloc(out_bytes)
        rt.memset(out, 0, out_bytes)
        gtab = rt.get_symbol_address("gtab")
        rt.memcpy_h2d(gtab, noise(64))
        rt.program.const_mem.data[:256] = noise(256).tobytes()
        rt.launch("mem_form", _GRID, _BLOCK,
                  [data, out, noise(256).tobytes()])
        seen["memory"] = (rt.memcpy_d2h(out, out_bytes)
                          + rt.memcpy_d2h(gtab, 64))
        return seen


class _RecordingBackend:
    """Megablock with a ``StreamRecorder`` armed, as the timing model's
    pre-pass runs it; replays every warp's items into *streams*."""

    name = "recording"
    sanitize = None

    def __init__(self, streams: dict) -> None:
        self.streams = streams

    def execute(self, launch):
        engine = FunctionalEngine(launch, fast_mode="megablock")
        engine.recorder = recorder = StreamRecorder(
            launch.kernel, _LINE, 10 ** 9, 10 ** 9)
        stats = engine.run()
        for cta in range(launch.num_ctas):
            for index, stream in enumerate(recorder.open(cta)):
                items = self.streams[(cta, index)] = []
                last = False
                while not last:
                    op, lanes, lines, last = stream.next()
                    items.append((op, lanes, lines))
        return KernelRunResult(instructions=stats.instructions, cycles=0,
                               stats={})


_MEMORY_FORMS = [
    MemoryForm(opcode, space, dtype, width)
    for opcode, spaces in (("ld", ("global", "shared", "param", "const")),
                           ("st", ("global", "shared")))
    for space in spaces for dtype in _MEMORY_TYPES for width in (1, 2, 4)]


@pytest.mark.parametrize("form", _MEMORY_FORMS, ids=lambda form: form.op)
def test_every_memory_form_matches_the_reference(form):
    megablock.reset_events()
    want = form.run("reference", observe=True)
    assert any(len(lanes) == 16 for lanes in want["accesses"].values())
    for mode in ("fastpath", "superblock"):   # observed: both step
        got = form.run(mode, observe=True)
        assert got == want, f"{form.op} stepped on {mode}"
    for mode in ("superblock", "megablock"):
        assert form.run(mode)["memory"] == want["memory"], \
            f"{form.op} on {mode}"
    recorded = form.run("megablock", record=True)
    assert recorded["memory"] == want["memory"]
    assert recorded["stream"] == want["stream"]
    assert megablock.EVENTS["fallbacks"] == 0


# ----------------------------------------------------------------------
# Decline census over the embedded kernels
# ----------------------------------------------------------------------
def _census() -> tuple[collections.Counter, collections.Counter]:
    scalar, vector = collections.Counter(), collections.Counter()
    for file_id, text in embedded_units():
        for kernel in parse_module(text, file_id).kernels.values():
            for inst in kernel.body:
                if inst.opcode in CONTROL:
                    continue
                form = ".".join(
                    [inst.opcode, *(m for m in inst.modifiers
                                    if m in ("v2", "v4"))])
                if not emit(inst, _BlockCodegen(trace=True)):
                    scalar[form] += 1
                gen = _VecGen()
                gen.begin_inst(inst)
                if not emit(inst, gen):
                    vector[form] += 1
    return scalar, vector


def test_decline_census_of_the_embedded_kernels():
    """A decline is a 50x-slower fallback, so the set is pinned: both
    dialects give up only on ``red`` and ``tex`` (value order is issue
    order: reference only).  Every other instruction of the corpus —
    vector loads and stores included — compiles on both."""
    scalar, vector = _census()
    assert vector == {"red": 4, "tex.v4": 1}
    assert scalar == {"red": 4, "tex.v4": 1}


def test_emitter_bugs_are_not_swallowed():
    """Only ``Decline`` means 'no rendering': anything else an emitter
    raises must surface instead of becoming a silent fallback."""
    class Broken(_BlockCodegen):
        def payload(self, op, dtype):
            raise KeyError("typo")

    inst = Form("add.u32", ["u32", "u32"], "u32").instruction()
    with pytest.raises(KeyError):
        emit(inst, Broken())
