"""Instruction-semantics tests, including the paper's bug fixes.

The ``rem``/``bfe``/``brev`` cases mirror Section III exactly: each has
a fixed behaviour (tested against C semantics) and a legacy behaviour
re-injectable via :class:`LegacyQuirks`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnsupportedInstructionError
from repro.quirks import LegacyQuirks

from helpers import bits_f32, exec_op, f32_bits, s32_bits, u64

s32s = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
u32s = st.integers(min_value=0, max_value=2 ** 32 - 1)


def one_u32(op, a, b=None, quirks=None, out_width=32):
    sources = [u64([a & 0xFFFFFFFFFFFFFFFF])]
    widths = [32]
    if b is not None:
        sources.append(u64([b & 0xFFFFFFFFFFFFFFFF]))
        widths.append(32)
    kwargs = {}
    if quirks is not None:
        kwargs["quirks"] = quirks
    result = exec_op(op, sources, in_widths=widths, out_width=out_width,
                     **kwargs)
    return int(result[0])


class TestIntegerArithmetic:
    def test_add_wraps(self):
        assert one_u32("add.u32", 0xFFFFFFFF, 2) == 1

    def test_sub_wraps(self):
        assert one_u32("sub.u32", 1, 3) == 0xFFFFFFFE

    def test_mul_lo(self):
        assert one_u32("mul.lo.u32", 0x10000, 0x10000) == 0

    def test_mul_hi_unsigned(self):
        assert one_u32("mul.hi.u32", 0x80000000, 4) == 2

    def test_mul_hi_signed(self):
        # -2 * 2 = -4: high 32 bits are all ones.
        assert one_u32("mul.hi.s32", (-2) & 0xFFFFFFFF, 2) == 0xFFFFFFFF

    def test_mul_wide(self):
        result = exec_op("mul.wide.u32",
                         [u64([0xFFFFFFFF]), u64([0xFFFFFFFF])],
                         in_widths=[32, 32], out_width=64)
        assert int(result[0]) == 0xFFFFFFFF * 0xFFFFFFFF

    def test_mul_wide_signed(self):
        result = exec_op("mul.wide.s32",
                         [s32_bits([-3]), s32_bits([5])],
                         in_widths=[32, 32], out_width=64)
        assert np.int64(result[0]) == -15

    def test_div_truncates_toward_zero(self):
        assert one_u32("div.s32", s32_bits([-7])[0], 2) == (-3) & 0xFFFFFFFF

    def test_div_by_zero_all_ones(self):
        assert one_u32("div.u32", 5, 0) == 0xFFFFFFFF

    @given(a=s32s, b=s32s)
    @settings(max_examples=25, deadline=None)
    def test_div_matches_c_semantics(self, a, b):
        got = one_u32("div.s32", a & 0xFFFFFFFF, b & 0xFFFFFFFF)
        if b == 0:
            return
        expected = int(math.trunc(a / b)) if b else -1
        assert got == expected & 0xFFFFFFFF

    def test_abs_neg_minmax(self):
        assert one_u32("abs.s32", (-9) & 0xFFFFFFFF) == 9
        assert one_u32("neg.s32", 9) == (-9) & 0xFFFFFFFF
        assert one_u32("min.s32", (-4) & 0xFFFFFFFF, 3) == (-4) & 0xFFFFFFFF
        assert one_u32("max.u32", 0xFFFFFFF0, 3) == 0xFFFFFFF0

    def test_sad(self):
        result = exec_op("sad.u32", [u64([7]), u64([3]), u64([10])],
                         in_widths=[32, 32, 32])
        assert int(result[0]) == 14


class TestRemainder:
    """The paper's Section III-D headline bug."""

    def test_rem_u32_fixed(self):
        assert one_u32("rem.u32", 17, 5) == 2

    def test_rem_s32_sign_follows_dividend(self):
        assert one_u32("rem.s32", s32_bits([-7])[0], 3) == (-1) & 0xFFFFFFFF
        assert one_u32("rem.s32", 7, s32_bits([-3])[0]) == 1

    @given(a=s32s, b=s32s.filter(lambda v: v != 0))
    @settings(max_examples=25, deadline=None)
    def test_rem_matches_c_fmod(self, a, b):
        got = one_u32("rem.s32", a & 0xFFFFFFFF, b & 0xFFFFFFFF)
        expected = a - b * int(math.trunc(a / b))
        assert got == expected & 0xFFFFFFFF

    @staticmethod
    def _rem_after_alu(a: int, b: int, quirks) -> int:
        """rem.u32 whose dividend came from an ALU op — in quirk mode
        the ALU write leaves garbage upper union bytes, which is the
        fresh-``ptx_reg_t`` mechanism that made the bug observable."""
        from repro.cuda import CudaRuntime
        from repro.ptx.builder import PTXBuilder

        builder = PTXBuilder("rem_test", [("out", "u64"), ("a", "u32"),
                                          ("b", "u32")])
        out = builder.ld_param("u64", "out")
        reg_a = builder.ld_param("u32", "a")
        reg_b = builder.ld_param("u32", "b")
        via_alu = builder.reg("u32")
        builder.ins("add.u32", via_alu, reg_a, "0")  # 32-bit ALU write
        dst = builder.reg("u32")
        builder.ins("rem.u32", dst, via_alu, reg_b)
        builder.ins("st.global.u32", f"[{out}]", dst)
        rt = CudaRuntime(quirks=quirks)
        rt.load_ptx(builder.build(), "rem_test")
        buf = rt.malloc(8)
        rt.launch("rem_test", 1, 1, [buf, a, b])
        rt.synchronize()
        return int.from_bytes(rt.memcpy_d2h(buf, 4), "little")

    def test_rem_quirk_reproduces_gpgpusim_bug(self):
        from repro import FIXED
        from repro.ptx.instructions.common import STACK_GARBAGE
        quirks = LegacyQuirks(rem_ignores_type=True)
        # Fixed semantics: 17 % 5 == 2.  Quirky semantics compute
        # (garbage||17).u64 % 5 — the wrong answer, deterministically.
        expected_bug = ((STACK_GARBAGE | 17) % 5) & 0xFFFFFFFF
        assert expected_bug != 2
        assert self._rem_after_alu(17, 5, quirks) == expected_bug
        assert self._rem_after_alu(17, 5, FIXED) == 2

    def test_rem_quirk_power_of_two_accidentally_correct(self):
        # garbage||k mod 2^s keeps the true low bits (the garbage
        # pattern has zero low bytes), so power-of-two divisors are
        # right by accident — which is why the bug evaded the original
        # regression tests until cuDNN's FFT kernels hit it.
        quirks = LegacyQuirks(rem_ignores_type=True)
        assert self._rem_after_alu(13, 8, quirks) == 5


class TestBitInstructions:
    def test_brev_32(self):
        assert one_u32("brev.b32", 0x1) == 0x80000000
        assert one_u32("brev.b32", 0x80000000) == 1
        assert one_u32("brev.b32", 0xF0F0F0F0) == 0x0F0F0F0F

    @given(u32s)
    @settings(max_examples=25, deadline=None)
    def test_brev_involution(self, value):
        once = one_u32("brev.b32", value)
        assert one_u32("brev.b32", once) == value

    def test_brev_unsupported_quirk(self):
        quirks = LegacyQuirks(brev_unsupported=True)
        with pytest.raises(UnsupportedInstructionError):
            one_u32("brev.b32", 1, quirks=quirks)

    def test_bfe_unsigned(self):
        # extract bits [4, 12) of 0xABCD: 0xBC
        result = exec_op("bfe.u32",
                         [u64([0xABCD]), u64([4]), u64([8])],
                         in_widths=[32, 32, 32])
        assert int(result[0]) == 0xBC

    def test_bfe_signed_extends(self):
        """The subtle signed-input error the paper fixed."""
        # bits [4, 12) of 0x0F50 = 0xF5: sign bit set => extended.
        result = exec_op("bfe.s32",
                         [u64([0x0F50]), u64([4]), u64([8])],
                         in_widths=[32, 32, 32])
        assert int(result[0]) == 0xFFFFFFF5

    def test_bfe_signed_quirk_is_wrong(self):
        quirks = LegacyQuirks(bfe_unsigned_only=True)
        result = exec_op("bfe.s32",
                         [u64([0x0F50]), u64([4]), u64([8])],
                         in_widths=[32, 32, 32], quirks=quirks)
        assert int(result[0]) == 0xF5  # no sign extension: the old bug

    def test_bfe_zero_length(self):
        result = exec_op("bfe.s32", [u64([0xFFFF]), u64([4]), u64([0])],
                         in_widths=[32, 32, 32])
        assert int(result[0]) == 0

    def test_bfi(self):
        result = exec_op("bfi.b32",
                         [u64([0xAB]), u64([0xFFFF0000]), u64([8]),
                          u64([8])],
                         in_widths=[32, 32, 32, 32])
        assert int(result[0]) == 0xFFFFAB00

    def test_popc_clz(self):
        assert one_u32("popc.b32", 0xF0F0) == 8
        assert one_u32("clz.b32", 1) == 31
        assert one_u32("clz.b32", 0) == 32

    def test_shifts(self):
        assert one_u32("shl.b32", 1, 33) == 0  # clamped
        assert one_u32("shr.u32", 0x80000000, 31) == 1
        assert one_u32("shr.s32", 0x80000000, 31) == 0xFFFFFFFF

    def test_logic(self):
        assert one_u32("and.b32", 0xFF00, 0x0FF0) == 0x0F00
        assert one_u32("or.b32", 0xF0, 0x0F) == 0xFF
        assert one_u32("xor.b32", 0xFF, 0x0F) == 0xF0
        assert one_u32("not.b32", 0) == 0xFFFFFFFF


class TestFloat:
    def assert_f32(self, op, a, b, expected):
        result = exec_op(op, [f32_bits([a]), f32_bits([b])],
                         in_widths=[32, 32])
        got = bits_f32(result)[0]
        assert got == pytest.approx(expected, rel=1e-6)

    def test_basic_ops(self):
        self.assert_f32("add.f32", 1.5, 2.25, 3.75)
        self.assert_f32("sub.f32", 1.0, 4.0, -3.0)
        self.assert_f32("mul.f32", 3.0, -2.0, -6.0)
        self.assert_f32("div.rn.f32", 1.0, 8.0, 0.125)

    def test_div_by_zero_is_inf(self):
        result = exec_op("div.rn.f32", [f32_bits([1.0]), f32_bits([0.0])],
                         in_widths=[32, 32])
        assert math.isinf(bits_f32(result)[0])

    def test_min_max_nan_semantics(self):
        nan = float("nan")
        result = exec_op("min.f32", [f32_bits([nan]), f32_bits([3.0])],
                         in_widths=[32, 32])
        assert bits_f32(result)[0] == 3.0

    def test_fma_single_rounding(self):
        result = exec_op("fma.rn.f32",
                         [f32_bits([3.0]), f32_bits([4.0]),
                          f32_bits([5.0])],
                         in_widths=[32, 32, 32])
        assert bits_f32(result)[0] == 17.0

    def test_sqrt_rsqrt_rcp(self):
        for op, value, expected in (
                ("sqrt.rn.f32", 16.0, 4.0),
                ("rsqrt.approx.f32", 4.0, 0.5),
                ("rcp.rn.f32", 4.0, 0.25),
                ("ex2.approx.f32", 3.0, 8.0),
                ("lg2.approx.f32", 8.0, 3.0)):
            result = exec_op(op, [f32_bits([value])], in_widths=[32])
            assert bits_f32(result)[0] == pytest.approx(expected, rel=1e-5)

    def test_sqrt_negative_is_nan(self):
        result = exec_op("sqrt.rn.f32", [f32_bits([-1.0])],
                         in_widths=[32])
        assert math.isnan(bits_f32(result)[0])

    def test_sin_cos(self):
        result = exec_op("sin.approx.f32", [f32_bits([math.pi / 2])],
                         in_widths=[32])
        assert bits_f32(result)[0] == pytest.approx(1.0, abs=1e-5)

    @given(st.floats(min_value=-100, max_value=100, width=32),
           st.floats(min_value=-100, max_value=100, width=32))
    @settings(max_examples=20, deadline=None)
    def test_add_matches_numpy_f32(self, a, b):
        result = exec_op("add.f32", [f32_bits([a]), f32_bits([b])],
                         in_widths=[32, 32])
        expected = np.float32(a) + np.float32(b)
        assert bits_f32(result)[0] == expected


class TestCompareSelect:
    def test_setp_variants(self):
        def setp(op, a, b):
            result = exec_op(op, [u64([a]), u64([b])],
                             in_widths=[32, 32], pred_result=True)
            return int(result[0])
        assert setp("setp.lt.s32", s32_bits([-1])[0], 1) == 1
        assert setp("setp.lt.u32", s32_bits([-1])[0], 1) == 0  # unsigned
        assert setp("setp.ge.u32", 5, 5) == 1
        assert setp("setp.ne.u32", 5, 5) == 0

    def test_setp_float_nan_ordered_vs_unordered(self):
        nan = f32_bits([float("nan")])
        one = f32_bits([1.0])
        ordered = exec_op("setp.lt.f32", [nan, one],
                          in_widths=[32, 32], pred_result=True)
        unordered = exec_op("setp.ltu.f32", [nan, one],
                            in_widths=[32, 32], pred_result=True)
        assert int(ordered[0]) == 0
        assert int(unordered[0]) == 1

    def test_slct(self):
        result = exec_op("slct.u32.s32",
                         [u64([111]), u64([222]), s32_bits([-1])],
                         in_widths=[32, 32, 32])
        assert int(result[0]) == 222
        result = exec_op("slct.u32.s32",
                         [u64([111]), u64([222]), u64([0])],
                         in_widths=[32, 32, 32])
        assert int(result[0]) == 111


class TestConvert:
    def test_cvt_f32_to_s32_truncates_by_default(self):
        result = exec_op("cvt.rzi.s32.f32", [f32_bits([-2.7])],
                         in_widths=[32])
        assert np.int32(np.uint32(result[0])) == -2

    def test_cvt_rni_rounds_to_even(self):
        result = exec_op("cvt.rni.s32.f32", [f32_bits([2.5])],
                         in_widths=[32])
        assert int(result[0]) == 2

    def test_cvt_widening_signed(self):
        result = exec_op("cvt.s64.s32", [s32_bits([-5])],
                         in_widths=[32], out_width=64)
        assert np.int64(result[0]) == -5

    def test_cvt_sat(self):
        result = exec_op("cvt.sat.s8.s32", [u64([1000])],
                         in_widths=[32], out_width=32)
        assert int(result[0]) & 0xFF == 127

    def test_cvt_f16_roundtrip(self):
        to_half = exec_op("cvt.rn.f16.f32", [f32_bits([1.5])],
                          in_widths=[32], out_width=16)
        assert int(to_half[0]) == 0x3E00  # 1.5 in binary16
        back = exec_op("cvt.f32.f16", [u64([0x3E00])], in_widths=[16])
        assert bits_f32(back)[0] == 1.5

    def test_cvt_f16_unsupported_quirk(self):
        quirks = LegacyQuirks(fp16_unsupported=True)
        with pytest.raises(UnsupportedInstructionError):
            exec_op("cvt.rn.f16.f32", [f32_bits([1.5])],
                    in_widths=[32], out_width=16, quirks=quirks)


def test_every_emit_row_has_a_reference_and_a_verifier_signature():
    """The two places an opcode lives: a compiled row names a table row
    — which carries the reference it falls back to and is compared
    with, and the signature the verifier checks — that takes a fixed
    number of operands."""
    from repro.functional.emit import ROWS
    from repro.ptx.instructions import TABLE

    for opcode in ROWS:
        row = TABLE[opcode]
        assert row.exec is not None and row.optional == 0, opcode
