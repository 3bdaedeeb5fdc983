"""Register-width facts: what the compiled tiers assume of a register.

``dataflow.register_widths`` bounds the payload bits every register of
a kernel can hold, and both ``Codegen`` dialects drop the
read-modify-write of a write at least that wide.  The unit table of the
map is in ``test_analysis.py``; here is everything that checks the
assumption against the union-model reference: generated mixed-width
kernels on all four tiers, the invariant on real workloads, the fault
sites, the quirk that lives outside it, and the corpus census.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import (
    HealthCheck, example, given, settings, strategies as st)

from repro.analysis.cli import embedded_units
from repro.analysis.dataflow import defs_of, register_widths
from repro.cuda import CudaRuntime, FunctionalBackend
from repro.cudnn import ConvFwdAlgo
from repro.debugtool.instrument import _dest_width, instrumented_sites
from repro.functional.executor import (
    FAST_MODES, FunctionalEngine, RunStats)
from repro.functional.megablock import (
    MegaMachine, column_dtype, compile_megaplan)
from repro.functional.memory import GlobalMemory, LinearMemory
from repro.functional.state import LaunchContext
from repro.functional.superblock import compile_superblocks
from repro.nn.lenet import LeNetConfig
from repro.ptx.builder import PTXBuilder
from repro.ptx.instructions.common import STACK_GARBAGE
from repro.ptx.parser import parse_module
from repro.quirks import FIXED, LegacyQuirks
from repro.workloads import (
    ConvSample, ConvSampleConfig, MnistSample, MnistSampleConfig,
    PredicatedBlend, PredicatedBlendConfig)

from tests.test_emit import _FORMS
from tests.test_megablock import _memory_image

# ----------------------------------------------------------------------
# Generated straight-line mixed-width kernels, all four tiers
# ----------------------------------------------------------------------
_GENERAL = ([f"%h{i}" for i in range(2)] + [f"%r{i}" for i in range(3)]
            + [f"%rd{i}" for i in range(3)])
_PREDS = [f"%p{i}" for i in range(2)]
#: Destinations lean on one wide register, so that narrow and wide
#: writes of it meet across block boundaries.
_DESTS = _GENERAL + ["%rd0"] * 4
#: Forms both dialects render (so megablock really runs), from the
#: walk ``test_emit`` derives from ``emit.ROWS``.
_ALU = sorted(op for op, (_form, vector) in _FORMS.items() if vector)
_LOADS = ("u8", "s8", "u16", "s16", "b16", "u32", "s32", "f32", "b32",
          "u64", "s64", "b64")
_IN_WORDS, _MID_SLOTS = 8, 4
_THREADS = 64
_INTERESTING = (0, 1, 2, 7, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF,
                0x80000000, 0xFFFFFFFF, 0x3F800000, 0xC0490FDB,
                0x100000000, 0x8000000000000000, 0xFFFFFFFFFFFFFFFF,
                0x3FF8000000000000)


@st.composite
def _source(draw, type_name: str) -> str:
    """A register, or sometimes an immediate (at any source position, so
    some instructions read immediates alone)."""
    if type_name == "pred":
        return draw(st.sampled_from(_PREDS))
    if type_name[0] != "f" and draw(st.integers(0, 2)) == 0:
        return str(draw(st.sampled_from(_INTERESTING))
                   % (1 << int(type_name[1:])))
    return draw(st.sampled_from(_GENERAL))


@st.composite
def _alu(draw, dsts=None, guarded: bool = True) -> str:
    form = _FORMS[draw(st.sampled_from(_ALU))][0]
    dst = draw(st.sampled_from(
        _PREDS if form.out == "pred" else dsts or _DESTS))
    sources = [draw(_source(name)) for name in form.sources]
    return draw(_guard(guarded)) + f"{form.op} {', '.join([dst] + sources)};"


@st.composite
def _load(draw, dsts=_DESTS, guarded: bool = True) -> str:
    name = draw(st.sampled_from(_LOADS))
    nbytes = int(name[1:]) // 8
    offset = nbytes * draw(st.integers(0, 8 * _IN_WORDS // nbytes - 1))
    return (draw(_guard(guarded)) + f"ld.global.{name} "
            f"{draw(st.sampled_from(dsts))}, [%a0+{offset}];")


@st.composite
def _guard(draw, guarded: bool) -> str:
    guard = draw(st.sampled_from(("", "", "@{} ", "@!{} ")))
    return guard.format(draw(st.sampled_from(_PREDS))) if guarded else ""


@st.composite
def _statement(draw) -> list[str]:
    kind = draw(st.sampled_from(
        ("alu",) * 5 + ("ld", "ld", "st", "bar", "bar", "rewrite")))
    if kind == "bar":
        return ["bar.sync 0;"]
    if kind == "alu":
        return [draw(_alu())]
    if kind == "ld":
        return [draw(_load())]
    slot = 8 * draw(st.integers(0, _MID_SLOTS - 1))
    if kind == "st":
        bits = draw(st.sampled_from((16, 32, 64)))
        return [draw(_guard(True)) + f"st.global.u{bits} [%a1+{slot}], "
                f"{draw(st.sampled_from(_GENERAL))};"]
    # The case the width facts decide: a register loaded in one block,
    # rewritten in the next (wider, narrower or as wide), then read
    # whole.  Whether the first write must be flushed, and whether the
    # second reads it, is what liveness and ``write`` have to agree on.
    register = [draw(st.sampled_from(_GENERAL))]
    return [draw(_load(register, guarded=False)), "bar.sync 0;",
            draw(_alu(register, guarded=False)),
            f"st.global.u64 [%a1+{slot}], {register[0]};"]


@st.composite
def _programs(draw) -> tuple[list[str], list[str]]:
    """(body statements, registers whose payload the epilogue stores)."""
    body = draw(st.lists(_statement(), min_size=4, max_size=20))
    stored = draw(st.lists(st.sampled_from(_GENERAL), unique=True,
                           max_size=len(_GENERAL)))
    return [line for lines in body for line in lines], stored


def _ptx(body: list[str], stored: list[str]) -> str:
    lines = [
        "ld.param.u64 %a0, [inp];", "ld.param.u64 %a1, [out];",
        "mov.u32 %t0, %tid.x;", "mov.u32 %t1, %ctaid.x;",
        "mov.u32 %t2, %ntid.x;", "mad.lo.u32 %t0, %t1, %t2, %t0;",
        f"mul.wide.u32 %a2, %t0, {8 * _IN_WORDS};",
        "add.u64 %a0, %a0, %a2;",
        f"mul.wide.u32 %a2, %t0, {8 * (_MID_SLOTS + len(_GENERAL))};",
        "add.u64 %a1, %a1, %a2;",
        *body,
        *(f"st.global.u64 [%a1+{8 * (_MID_SLOTS + slot)}], {name};"
          for slot, name in enumerate(stored)),
        "exit;"]
    return ("""
.version 6.0
.target sm_60
.address_size 64

.visible .entry gen(.param .u64 inp, .param .u64 out)
{
    .reg .b16 %h<2>;
    .reg .b32 %r<3>;
    .reg .b32 %t<3>;
    .reg .b64 %rd<3>;
    .reg .b64 %a<3>;
    .reg .pred %p<2>;
""" + "".join(f"    {line}\n" for line in lines) + "}\n")


def _launch(ptx: str, seed: int, words: np.ndarray | None = None,
            threads: int = _THREADS) -> LaunchContext:
    """Two CTAs of ``threads // 2`` (one of *threads* if odd), each
    thread's ``%a0`` row _IN_WORDS of *words*, seeded ones by default."""
    kernel = parse_module(ptx, "gen").kernel("gen")
    if words is None:
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 64, threads * _IN_WORDS,
                             dtype=np.uint64)
        picks = rng.integers(0, 3 * len(_INTERESTING), words.size)
        chosen = picks < len(_INTERESTING)
        words[chosen] = np.array(_INTERESTING,
                                 dtype=np.uint64)[picks[chosen]]
    gm = GlobalMemory()
    inp = gm.allocate(threads * _IN_WORDS * 8)
    gm.write(inp, np.resize(words, threads * _IN_WORDS).tobytes())
    out = gm.allocate(threads * 8 * (_MID_SLOTS + len(_GENERAL)))
    pm = LinearMemory(16)
    pm.write_uint(0, inp, 8)
    pm.write_uint(8, out, 8)
    ctas = 2 - threads % 2
    return LaunchContext(kernel=kernel, grid_dim=(ctas, 1, 1),
                         block_dim=(threads // ctas, 1, 1),
                         global_mem=gm, param_mem=pm)


def _assert_fits(widths: dict[str, int], regs: dict[str, int],
                 where: str) -> int:
    """The invariant the compiled tiers build on; returns the count."""
    for name, payload in regs.items():
        assert payload < 1 << widths.get(name, 64), (
            where, name, hex(payload))
    return len(regs)


def _run_scalar(ptx: str, seed: int, mode: str):
    """(memory, per-thread register dicts, registers a flush pruned)."""
    launch = _launch(ptx, seed)
    engine = FunctionalEngine(launch, fast_mode=mode)
    stats, threads = RunStats(), []
    for cta in engine.iter_ctas():
        engine.run_cta(cta, stats)
        threads += [dict(regs) for warp in cta.warps
                    for regs in warp.regs[:len(warp.thread_linear)]]
    pruned = frozenset().union(
        *(block.pruned for block in (engine._superblocks or {}).values()))
    return _memory_image(launch), threads, pruned, stats.instructions


def _run_vector(ptx: str, seed: int):
    launch = _launch(ptx, seed)
    engine = FunctionalEngine(launch, fast_mode="megablock")
    assert engine.admission.tier == "megablock", engine.admission
    machine, stats = MegaMachine(engine, engine._megaplan), RunStats()
    machine.run(stats)
    assert machine.bailouts == 0
    threads = [{name: int(arr[t]) for name, arr in machine.R.items()}
               for t in range(_THREADS)]
    pruned = {name for names in engine._megaplan.pruned.values()
              for name in names}
    return _memory_image(launch), threads, pruned, stats.instructions


@given(_programs(), st.integers(0, 2 ** 16))
# Immediates alone: a product past 2**64, an int-to-float conversion.
@example((["mul.lo.s64 %rd1, 2, 9223372036854775808;",
           "cvt.f32.s16 %r0, 0;"], ["%rd1", "%r0"]), 0)
# ex2 of a NaN is that NaN, sign and payload kept (megablock once made
# it +NaN): in a register a later block reads, and in memory.
@example((["ld.global.s8 %rd1, [%a0+0];", "ex2.f32 %rd2, %rd1;",
           "bar.sync 0;", "add.u64 %rd0, %rd2, 1;"], []), 2916)
@example((["ld.global.s8 %h1, [%a0+0];", "ex2.f32 %h0, %h1;",
           "st.global.u64 [%a1+0], %h0;"], []), 0)
# Two immediates whose product passes 2**64, added to a register (it
# overflowed megablock's uint64 addend).
@example((["ld.global.u32 %rd2, [%a0+0];",
           "mad.lo.u64 %rd0, 18446744073709551615, 32768, %rd2;"],
          ["%rd0"]), 0)
# A float mul ignores .wide: it writes 32 bits, not 64.
@example((["ld.global.s8 %h0, [%a0+0];", "bar.sync 0;",
           "mul.wide.f32 %h0, %h1, %h1;"], ["%h0"]), 0)
# An f16 NaN keeps only its sign (megablock kept its payload).
@example((["ld.global.u16 %rd0, [%a0+0];", "cvt.f16.f16 %h0, %rd0;"],
          ["%h0"]), 0)
# NaN + NaN: CPython's generic float add keeps the second payload, its
# warmed-up one and NumPy the first (one rule now: the canonical NaN).
@example((["mov.b64 %rd1, 9221120237041090561;",
           "mov.b64 %rd2, 9221120237041090562;",
           "add.f64 %rd0, %rd1, %rd2;"], ["%rd0"]), 0)
@settings(settings.get_profile("regwidth"), deadline=None, derandomize=True,
          database=None, suppress_health_check=list(HealthCheck))
def test_generated_mixed_width_kernels_agree_on_every_tier(program, seed):
    ptx = _ptx(*program)
    memory, reference, _none, count = _run_scalar(ptx, seed, "reference")
    widths = register_widths(parse_module(ptx, "gen").kernel("gen"))
    for regs in reference:
        _assert_fits(widths, regs, ptx)
    runs = {mode: _run_scalar(ptx, seed, mode)
            for mode in ("fastpath", "superblock")}
    runs["megablock"] = _run_vector(ptx, seed)
    for mode, (got, threads, pruned, issued) in runs.items():
        assert got == memory, f"{mode}: memory differs\n{ptx}"
        assert issued == count, mode
        for thread, (regs, want) in enumerate(zip(threads, reference)):
            for name in (set(regs) | set(want)) - pruned:
                assert regs.get(name, 0) == want.get(name, 0), (
                    f"{mode}: {name} of thread {thread} is "
                    f"{regs.get(name, 0):#x}, reference "
                    f"{want.get(name, 0):#x}\n{ptx}")


def test_the_generator_mixes_widths():
    """What the differential is for: destinations narrower and wider
    than the write, in one kernel."""
    assert len(_ALU) > 250
    assert {"cvt.u16.u32", "add.u64", "mad.wide.u32", "setp.lt.s32",
            "and.pred", "mov.b16"} <= set(_ALU)


# ----------------------------------------------------------------------
# The storage rule (megablock columns at their register's width) and the
# NaN rule, on explicit inputs
# ----------------------------------------------------------------------
_WORD32 = (0x80000001, 0xFFFFFFFF, 0x7FFFFFFF, 0x12345678, 0xFFFF8000,
           0, 1, 0xABCDFFFF)


def _outputs(body: list[str], stored: list[str], words,
             threads: int = _THREADS) -> np.ndarray:
    """Each thread's output row (the _MID_SLOTS the body stores to, then
    the *stored* registers) after one run per tier; every tier agrees."""
    ptx, images = _ptx(body, stored), {}
    for mode in FAST_MODES:
        launch = _launch(ptx, 0, np.asarray(words, np.uint64), threads)
        engine = FunctionalEngine(launch, fast_mode=mode)
        if mode == "megablock":
            assert engine.admission.tier == "megablock", engine.admission
        engine.run()
        images[mode] = _memory_image(launch)
    for mode, image in images.items():
        assert image == images["reference"], f"{mode} differs\n{ptx}"
    row = _MID_SLOTS + len(_GENERAL)
    out = np.frombuffer(images["reference"], np.uint64)
    return out[threads * _IN_WORDS:].reshape(threads, row)


def _signed32(value: int) -> int:
    return value - (1 << 32) if value >> 31 else value


def test_every_megablock_column_has_the_dtype_its_width_implies():
    ptx = _ptx(["ld.global.u32 %r0, [%a0+0];", "ld.global.u16 %h0, [%a0+8];",
                "ld.global.s32 %r2, [%a0+16];", "setp.lt.u32 %p0, %r0, %t0;",
                "cvt.u64.u32 %rd0, %r0;", "add.u16 %r1, %r1, %h0;",
                "bar.sync 0;", "@%p0 mov.b32 %r1, %r2;"],
               ["%r0", "%h0", "%r1", "%rd0"])
    kernel = parse_module(ptx, "gen").kernel("gen")
    engine = FunctionalEngine(_launch(ptx, 0), fast_mode="megablock")
    machine = MegaMachine(engine, engine._megaplan)
    machine.run(RunStats())
    widths = register_widths(kernel)
    dtypes = {name: column.dtype for name, column in machine.R.items()}
    assert dtypes == {name: column_dtype(widths.get(name, 64))
                      for name in dtypes}
    # A proven width, not the declared one: a signed load fills 64 bits.
    assert [dtypes[name] for name in ("%p0", "%r0", "%h0", "%r2", "%rd0")] \
        == [np.bool_, np.uint32, np.uint32, np.uint64, np.uint64]


def _rows(words: list[int], threads: int = _THREADS) -> np.ndarray:
    """Each thread's _IN_WORDS input words, as ``_launch`` lays them."""
    return np.resize(np.asarray(words, np.uint64),
                     threads * _IN_WORDS).reshape(threads, _IN_WORDS)


def test_a_16_bit_write_into_a_32_bit_register_keeps_its_upper_bits():
    words = [w for word in _WORD32 for w in (word, word ^ 0xFFFFFFFF)]
    out = _outputs(["ld.global.u32 %r0, [%a0+0];", "bar.sync 0;",
                    "add.u16 %r0, %r0, 1;", "ld.global.u16 %h0, [%a0+8];",
                    "ld.global.u32 %r1, [%a0+0];", "mov.b16 %r1, %h0;"],
                   ["%r0", "%r1"], words)
    for row, inputs in zip(out, _rows(words)):
        word, other = int(inputs[0]), int(inputs[1])
        upper = word & 0xFFFF0000
        assert row[_MID_SLOTS] == upper | (word + 1) & 0xFFFF
        assert row[_MID_SLOTS + 1] == upper | other & 0xFFFF


def test_a_32_bit_register_read_at_64_bits_extends_as_the_reference():
    """Zero- or sign-extension, each way PTX reads a 32-bit register
    past 32 bits."""
    words = [w for pair in zip(_WORD32, _WORD32[3:] + _WORD32[:3])
             for w in pair]
    out = _outputs(["ld.global.u32 %r0, [%a0+0];",
                    "ld.global.u32 %r1, [%a0+8];",
                    "cvt.u64.u32 %rd0, %r0;", "cvt.s64.s32 %rd1, %r0;",
                    "mov.b64 %rd2, {%r0, %r1};",
                    "st.global.u64 [%a1+0], %rd0;",
                    "st.global.u64 [%a1+8], %rd1;",
                    "st.global.u64 [%a1+16], %rd2;",
                    "mul.wide.s32 %rd0, %r0, %r1;",
                    "mul.wide.u32 %rd1, %r0, %r1;",
                    "mad.wide.s32 %rd2, %r0, -3, %rd1;"],
                   ["%rd0", "%rd1", "%rd2"], words)
    for thread, (row, inputs) in enumerate(zip(out, _rows(words))):
        lo, hi = int(inputs[0]), int(inputs[1])
        s_lo, s_hi = _signed32(lo), _signed32(hi)
        mask = (1 << 64) - 1
        assert [int(value) for value in row[:3]] == [
            lo, s_lo & mask, lo | hi << 32], thread
        assert [int(value) for value in row[_MID_SLOTS:_MID_SLOTS + 3]] == [
            s_lo * s_hi & mask, lo * hi, (s_lo * -3 + lo * hi) & mask]


_F32_NAN, _F64_NAN = 0x7FC00000, 0x7FF8000000000000


@pytest.mark.parametrize("threads", [16, 17, 33])
def test_a_nan_result_is_canonical_at_every_chunk_length(threads):
    """Which NaN payload NumPy's ``a + b`` keeps changes with the array
    length (and differs from CPython's): a NaN result of two or more
    float operands is the canonical NaN on every tier."""
    words = []
    for thread in range(threads):
        words += [_F64_NAN | thread + 1, 0xFFF8000000000000 | thread << 9,
                  _F32_NAN | thread + 1, 0xFFC00000 | thread << 9,
                  0x3F800000, 0, 0, 0]
    out = _outputs(["ld.global.f64 %rd0, [%a0+0];",
                    "ld.global.f64 %rd1, [%a0+8];",
                    "add.f64 %rd2, %rd0, %rd1;",
                    "st.global.u64 [%a1+0], %rd2;",
                    "ld.global.f32 %r0, [%a0+16];",
                    "ld.global.f32 %r1, [%a0+24];",
                    "ld.global.f32 %r2, [%a0+32];",
                    "add.f32 %h0, %r0, %r1;", "st.global.u32 [%a1+8], %h0;",
                    "fma.rn.f32 %h0, %r2, %r0, %r1;",
                    "st.global.u32 [%a1+16], %h0;",
                    "mul.f32 %r2, %r2, %r0;",
                    "neg.f32 %r1, %r1;"], ["%r2", "%r1"], words, threads)
    for thread, row in enumerate(out):
        assert [hex(value) for value in row[:3]] == [
            "0x7fffffffffffffff", "0x7fffffff", "0x7fffffff"], thread
        assert row[_MID_SLOTS + 0] == 0x7FFFFFFF
        # One float operand: the NaN passes with its payload and sign.
        assert row[_MID_SLOTS + 1] == (0xFFC00000 | thread << 9) ^ (1 << 31)


# ----------------------------------------------------------------------
# The invariant on real workloads, on the reference tier
# ----------------------------------------------------------------------
class _WidthChecked(FunctionalBackend):
    """Reference-tier backend asserting, for every CTA of every launch,
    that each final register payload fits its register's width."""

    def __init__(self) -> None:
        super().__init__(fast_mode="reference")
        self.checked = 0

    def execute(self, launch):
        engine = self.engine(launch)
        widths = register_widths(launch.kernel)

        def check(cta) -> None:
            for warp in cta.warps:
                for regs in warp.regs:
                    self.checked += _assert_fits(widths, regs,
                                                 launch.kernel.name)
        stats = engine.run(on_cta=check)
        return self.report(launch, stats, engine.admission)


def _lenet_forward(runtime) -> None:
    MnistSample(runtime, MnistSampleConfig(
        images=1, seed=7, lenet=LeNetConfig.reduced())).run(
            self_check=False)


def _conv_sample(runtime) -> None:
    sample = ConvSample(runtime, ConvSampleConfig())
    for algo in (ConvFwdAlgo.IMPLICIT_GEMM, ConvFwdAlgo.WINOGRAD_NONFUSED):
        sample.run_forward(algo)


def _predicated_blend(runtime) -> None:
    PredicatedBlend(runtime, PredicatedBlendConfig(ctas=8)).run()


@pytest.mark.parametrize("workload", [
    _lenet_forward, _conv_sample, _predicated_blend],
    ids=lambda fn: fn.__name__.strip("_"))
def test_no_reference_register_outgrows_its_width(workload):
    backend = _WidthChecked()
    runtime = CudaRuntime(backend=backend)
    workload(runtime)
    runtime.synchronize()
    assert backend.checked > 1000


# ----------------------------------------------------------------------
# The quirk that breaks the invariant runs outside it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast_mode", ["megablock", "superblock"])
def test_rem_quirk_is_still_reproduced_under_the_compiled_tiers(fast_mode):
    """``rem_ignores_type`` fills upper bytes with stack garbage the
    width map says cannot exist; such a launch runs the reference."""
    builder = PTXBuilder("rem_test", [("out", "u64"), ("a", "u32"),
                                      ("b", "u32")])
    out = builder.ld_param("u64", "out")
    via_alu, dst = builder.regs("u32", 2)
    builder.ins("add.u32", via_alu, builder.ld_param("u32", "a"), "0")
    builder.ins("rem.u32", dst, via_alu, builder.ld_param("u32", "b"))
    builder.ins("st.global.u32", f"[{out}]", dst)
    results = {}
    for quirks in (LegacyQuirks(rem_ignores_type=True), FIXED):
        runtime = CudaRuntime(
            quirks=quirks, backend=FunctionalBackend(fast_mode=fast_mode))
        runtime.load_ptx(builder.build(), "rem_test")
        buf = runtime.malloc(8)
        runtime.launch("rem_test", 1, 1, [buf, 17, 5])
        results[quirks] = int.from_bytes(runtime.memcpy_d2h(buf, 4),
                                         "little")
    corrupted = ((STACK_GARBAGE | 17) % 5) & 0xFFFFFFFF
    assert corrupted != 2
    assert list(results.values()) == [corrupted, 2]


# ----------------------------------------------------------------------
# The embedded corpus: fault sites and the generated-source census
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    return [kernel for file_id, text in embedded_units()
            for kernel in parse_module(text, file_id).kernels.values()]


def test_a_fault_site_cannot_flip_a_bit_outside_the_width(corpus):
    """Fault injection XORs up to ``_dest_width`` low bits into the
    destination behind the compiled tiers' back; the declared width is
    folded into the map, so the flip stays inside it."""
    sites = 0
    for kernel in corpus:
        widths = register_widths(kernel)
        for pc in instrumented_sites(kernel):
            inst = kernel.body[pc]
            (dst,) = defs_of(inst)
            assert _dest_width(kernel, inst) <= widths[dst], (
                kernel.name, pc, dst)
            sites += 1
    assert len(corpus) == 53 and sites > 2000


#: ``(old & keep) | (new & low)``, as either dialect spells it.
_MERGE = re.compile(r"& 0xf+0+\) \| \(")


def test_no_corpus_register_is_written_read_modify_write(corpus):
    """Every register of the 53 embedded kernels is as narrow as its
    widest def, so no generated block composes a write into an old
    payload (2 233 megablock + 2 047 superblock merges before)."""
    blocks = 0
    for kernel in corpus:
        sources = [block.source for block in
                   compile_megaplan(kernel).blocks.values()]
        sources += [block.source for block in
                    compile_superblocks(kernel).values()]
        assert not any(_MERGE.search(source) for source in sources), \
            kernel.name
        blocks += len(sources)
    assert blocks == 381 + 386


_WIDE_AND_NARROW = """
.version 6.0
.target sm_60
.address_size 64

.visible .entry k(.param .u64 out)
{
    .reg .b32 %r<3>;
    .reg .b64 %rd<3>;
    ld.param.u64 %rd0, [out];
    mov.u32 %r1, 7;
    add.u32 %r2, %r1, 1;
    mov.u64 %rd1, 0xffffffffffffffff;
    bar.sync 0;
    add.u32 %rd1, %r2, 1;
    st.global.u64 [%rd0], %rd1;
    st.global.u32 [%rd0+8], %r2;
    exit;
}
"""


def test_a_wider_register_keeps_the_merge_through_the_same_write():
    kernel = parse_module(_WIDE_AND_NARROW, "t").kernel("k")
    assert register_widths(kernel) == {
        "%r0": 32, "%r1": 32, "%r2": 32,
        "%rd0": 64, "%rd1": 64, "%rd2": 64}
    vector = "".join(block.source for block in
                     compile_megaplan(kernel).blocks.values())
    scalar = "".join(block.source for block in
                     compile_superblocks(kernel).values())
    for source in (vector, scalar):
        # add.u32 %rd1 composes into the upper half mov.u64 wrote a
        # block earlier (so that block flushes it); the two writes of
        # .b32 registers read nothing old.
        assert len(_MERGE.findall(source)) == 1, source
    for mode in FAST_MODES:
        runtime = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
        runtime.load_ptx(_WIDE_AND_NARROW, "t")
        out = runtime.malloc(16)
        runtime.launch("k", 1, 1, [out])
        got = np.frombuffer(runtime.memcpy_d2h(out, 16), dtype=np.uint64)
        assert [int(v) for v in got] == [0xFFFFFFFF00000009, 8], mode
