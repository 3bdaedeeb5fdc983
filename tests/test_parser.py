"""Parser/lexer tests, including the loader-related failure modes."""

import hashlib

import pytest

from repro.analysis import embedded_units
from repro.errors import PTXLabelError, PTXSyntaxError
from repro.ptx import ast
from repro.ptx.lexer import EOF, FLOAT, INT, PUNCT, WORD, tokenize
from repro.ptx.parser import parse_module

HEADER = ".version 6.0\n.target sm_60\n.address_size 64\n"


class TestLexer:
    def test_dotted_words(self):
        tokens = tokenize("ld.global.v2.f32 %f1, [%rd2+8];")
        assert tokens[0].text == "ld.global.v2.f32"
        assert tokens[1].text == "%f1"

    def test_comments_stripped(self):
        tokens = tokenize("add.s32 // comment\n/* block\ncomment */ %r1")
        texts = [t.text for t in tokens if t.kind != EOF]
        assert texts == ["add.s32", "%r1"]

    def test_line_numbers_cross_comments(self):
        tokens = tokenize("a\n/* x\ny */\nb")
        assert tokens[0].line == 1
        assert tokens[1].line == 4

    def test_float_literals(self):
        tokens = tokenize("1.5 0f3F800000 0d3FF0000000000000 2e3")
        assert tokens[0].kind == FLOAT and tokens[0].value == 1.5
        assert tokens[1].value == 1.0
        assert tokens[2].value == 1.0
        assert tokens[3].value == 2000.0

    def test_hex_int(self):
        tokens = tokenize("0xFF 42")
        assert tokens[0].kind == INT and tokens[0].value == 255
        assert tokens[1].value == 42

    def test_bad_character(self):
        with pytest.raises(PTXSyntaxError):
            tokenize("add.s32 %r1, `bad`;")

    def test_punct(self):
        tokens = tokenize("{ } [ ] , ; : @ !")
        assert all(t.kind == PUNCT for t in tokens[:-1])

    def test_label_and_reg_words(self):
        tokens = tokenize("$Lt_0_1: %tid.x")
        assert tokens[0].kind == WORD and tokens[0].text == "$Lt_0_1"
        assert tokens[2].text == "%tid.x"


def _stream(text: str) -> list[tuple]:
    return [(t.kind, t.text, t.value, t.line) for t in tokenize(text)]


#: SHA-256 of each embedded image's ``(kind, text, value, line)`` token
#: stream, one ``repr`` per line: a lexer rewritten for speed must
#: produce every stream unchanged.
_EMBEDDED_STREAMS = {
    "elementwise.cu":
        "f65ef03121480ae8819814046562cb336f282407b0b59ffeace7f0f63cb636af",
    "im2col.cu":
        "97abb5c254faddda7f13f646bef9c7171a5f2b5f1a95c658ac1891c7f59c3e3d",
    "conv_direct.cu":
        "dcdcdf2677ec2833f67d1afa270e61f248902e40844a2b010da926abee81d646",
    "conv_winograd.cu":
        "df47ad774da94bda88aa6251bd75c70ecafbc9c5d12262f401bba50d454aaf15",
    "conv_fft.cu":
        "b39b3e903255ec1067bf00c7d4140c66e6cfbd7e51bdc03fc48a60a843b9d72c",
    "pooling.cu":
        "168fc6367550ba8e68ab82d6fb4d16543b39e4fd3397b23f147b1e4a20ed4a68",
    "lrn.cu":
        "cb9b772bf9744f6609b93e4fa8779ad2d3c9c0c44b05f9dcaa7d593670873276",
    "softmax.cu":
        "6c9ccda6b4c3de3c782b963c9eaf2dbd6cd48f2e2116618f9c3a877539c0444b",
    "batchnorm.cu":
        "130582d49e5d093868b2ca13a5c516dbddf7a235dacc176f5d752c914f7d7143",
    "gemm_kernels.cu":
        "64d811d50d9563798de551da849c00aeb66e051112ab5a0bc88e56dcb6a23437",
    "blas_level1.cu":
        "8cdf5b81445f1d561f2a919526f92a301c92add54b2f92707a47c240d879ef65",
}


class TestLexerGolden:
    def test_every_embedded_token_stream_is_unchanged(self):
        digests, tokens = {}, 0
        for name, text in embedded_units():
            stream = _stream(text)
            tokens += len(stream)
            digests[name] = hashlib.sha256(b"".join(
                repr(token).encode() + b"\n" for token in stream)).hexdigest()
        assert digests == _EMBEDDED_STREAMS
        assert tokens == 34490

    def test_hex_floats_are_ieee_bit_patterns(self):
        assert _stream("0f3F800000 0fBF800000 0d4000000000000000 "
                       "0f7F800000") == [
            (FLOAT, "0f3F800000", 1.0, 1), (FLOAT, "0fBF800000", -1.0, 1),
            (FLOAT, "0d4000000000000000", 2.0, 1),
            (FLOAT, "0f7F800000", float("inf"), 1), (EOF, "", 0, 1)]

    def test_unsigned_suffix_keeps_its_text(self):
        assert _stream("42U 0x10U 0XffU 7") == [
            (INT, "42U", 42, 1), (INT, "0x10U", 16, 1),
            (INT, "0XffU", 255, 1), (INT, "7", 7, 1), (EOF, "", 0, 1)]

    def test_a_multi_line_block_comment_advances_the_line(self):
        assert _stream("ld /* one\ntwo\nthree */ add.s32\n%r1") == [
            (WORD, "ld", 0, 1), (WORD, "add.s32", 0, 3),
            (WORD, "%r1", 0, 4), (EOF, "", 0, 4)]

    def test_a_stray_character_reports_its_line(self):
        with pytest.raises(PTXSyntaxError) as raised:
            tokenize("add.s32 %r1,\n  %r2 `;")
        assert raised.value.line == 2
        assert str(raised.value) == "line 2: unexpected character at '`;'"

    def test_tokens_are_immutable_values(self):
        first, again = tokenize("mov.u32"), tokenize("mov.u32")
        assert first == again
        with pytest.raises(AttributeError):
            first[0].text = "add"


class TestParser:
    def test_minimal_kernel(self):
        module = parse_module(HEADER + """
.visible .entry k(
    .param .u64 out,
    .param .u32 n
)
{
    .reg .b32 %r<4>;
    mov.u32 %r0, 7;
    exit;
}
""")
        kernel = module.kernel("k")
        assert [p.name for p in kernel.params] == ["out", "n"]
        assert kernel.params[0].offset == 0
        assert kernel.params[1].offset == 8
        assert kernel.body[0].opcode == "mov"
        assert kernel.body[-1].opcode == "exit"

    def test_param_alignment(self):
        module = parse_module(HEADER + """
.entry k(.param .u32 a, .param .u64 b, .param .f32 c) { exit; }
""")
        params = module.kernel("k").params
        assert params[0].offset == 0
        assert params[1].offset == 8   # aligned up
        assert params[2].offset == 16

    def test_labels_and_branches(self):
        module = parse_module(HEADER + """
.entry k() {
    .reg .pred %p<2>;
    .reg .b32 %r<2>;
$top:
    setp.lt.s32 %p0, %r0, 10;
    @%p0 bra $top;
    exit;
}
""")
        kernel = module.kernel("k")
        assert kernel.labels["$top"] == 0
        branch = kernel.body[1]
        assert branch.pred == "%p0" and not branch.pred_negated
        assert branch.operands[0].kind == ast.LABEL

    def test_negated_predicate(self):
        module = parse_module(HEADER + """
.entry k() {
    .reg .pred %p<1>;
    @!%p0 exit;
    exit;
}""")
        inst = module.kernel("k").body[0]
        assert inst.pred == "%p0" and inst.pred_negated

    def test_vector_operands(self):
        module = parse_module(HEADER + """
.entry k(.param .u64 p) {
    .reg .f32 %f<4>;
    .reg .b64 %rd<1>;
    ld.param.u64 %rd0, [p];
    ld.global.v2.f32 {%f0, %f1}, [%rd0];
    st.global.v2.f32 [%rd0+8], {%f0, %f1};
    exit;
}""")
        load = module.kernel("k").body[1]
        assert load.operands[0].kind == ast.VEC
        assert len(load.operands[0].elems) == 2

    def test_texture_operand(self):
        module = parse_module(HEADER + """
.entry k() {
    .reg .f32 %f<4>;
    .reg .b32 %r<2>;
    tex.2d.v4.f32.s32 {%f0,%f1,%f2,%f3}, [mytex, {%r0, %r1}];
    exit;
}""")
        tex = module.kernel("k").body[0]
        mem = tex.operands[1]
        assert mem.kind == ast.MEM and mem.name == "mytex"
        assert len(mem.elems) == 2

    def test_shared_declaration(self):
        module = parse_module(HEADER + """
.entry k() {
    .shared .align 8 .f32 smem[64];
    exit;
}""")
        kernel = module.kernel("k")
        assert kernel.shared_vars[0].name == "smem"
        assert kernel.shared_bytes == 256

    def test_negative_offset_and_imm(self):
        module = parse_module(HEADER + """
.entry k(.param .u64 p) {
    .reg .b64 %rd<2>;
    .reg .b32 %r<2>;
    ld.param.u64 %rd0, [p];
    ld.global.u32 %r0, [%rd0+-4];
    add.s32 %r1, %r0, -7;
    exit;
}""")
        kernel = module.kernel("k")
        assert kernel.body[1].operands[1].offset == -4
        imm = kernel.body[2].operands[2]
        assert imm.payload == (-7) & (2 ** 64 - 1)

    def test_global_var_scalar_init(self):
        module = parse_module(HEADER + ".global .u32 gflag = 3;\n")
        var = module.global_vars["gflag"]
        assert var.init == (3).to_bytes(4, "little")

    def test_brace_init_rejected_like_gpgpusim(self):
        """The limitation that blocked TensorFlow (Section III-E)."""
        text = HEADER + ".global .f32 table[2] = {1.0, 2.0};\n"
        with pytest.raises(PTXSyntaxError, match="curly-brace"):
            parse_module(text)

    def test_brace_init_extension(self):
        text = HEADER + ".global .u32 table[3] = {1, 2, 3};\n"
        module = parse_module(text, allow_brace_init=True)
        blob = module.global_vars["table"].init
        assert blob == b"\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00"

    def test_device_functions_unsupported(self):
        with pytest.raises(PTXSyntaxError, match="func"):
            parse_module(HEADER + ".func helper() { ret; }")

    def test_duplicate_label_rejected(self):
        with pytest.raises(PTXSyntaxError, match="duplicate"):
            parse_module(HEADER + """
.entry k() {
$a:
    exit;
$a:
    exit;
}""")

    def test_duplicate_label_is_typed_label_error(self):
        with pytest.raises(PTXLabelError):
            parse_module(HEADER + """
.entry k() {
$a:
    exit;
$a:
    exit;
}""")

    def test_branch_to_undefined_label_rejected_at_parse_time(self):
        with pytest.raises(PTXLabelError, match="undefined label"):
            parse_module(HEADER + """
.entry k() {
    .reg .pred %p<1>;
@%p0 bra $missing;
    exit;
}""")

    def test_bare_word_branch_target_rejected_when_undefined(self):
        # Bare-word targets lex as SYM, not LABEL; they must still be
        # validated instead of surfacing as a fault mid-run.
        with pytest.raises(PTXLabelError, match="MISSING"):
            parse_module(HEADER + """
.entry k() {
    bra MISSING;
    exit;
}""")

    def test_bare_word_branch_target_promoted_when_defined(self):
        module = parse_module(HEADER + """
.entry k() {
    bra DONE;
    exit;
DONE:
    exit;
}""")
        bra = module.kernel("k").body[0]
        assert bra.operands[0].kind == ast.LABEL
        assert module.kernel("k").labels["DONE"] == 2

    def test_cvt_has_two_dtypes(self):
        module = parse_module(HEADER + """
.entry k() {
    .reg .f32 %f<1>;
    .reg .b32 %r<1>;
    cvt.rn.f32.s32 %f0, %r0;
    exit;
}""")
        cvt = module.kernel("k").body[0]
        assert [d.name for d in cvt.dtypes] == ["f32", "s32"]
        assert "rn" in cvt.modifiers

    def test_setp_cmp_extracted(self):
        module = parse_module(HEADER + """
.entry k() {
    .reg .pred %p<1>;
    .reg .b32 %r<2>;
    setp.lt.s32 %p0, %r0, %r1;
    exit;
}""")
        setp = module.kernel("k").body[0]
        assert setp.cmp == "lt"
        assert setp.dtype.name == "s32"

    def test_mul_lo_is_modifier_not_cmp(self):
        module = parse_module(HEADER + """
.entry k() {
    .reg .b32 %r<3>;
    mul.lo.s32 %r2, %r0, %r1;
    exit;
}""")
        mul = module.kernel("k").body[0]
        assert mul.cmp is None
        assert mul.has_mod("lo")

    def test_maxntid_directive_skipped(self):
        module = parse_module(HEADER + """
.entry k()
.maxntid 256, 1, 1
{
    exit;
}""")
        assert "k" in module.kernels
