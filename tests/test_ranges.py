"""Unit tests for the value-range (affine address) analysis."""

from __future__ import annotations

from repro.analysis.ranges import (
    ALIGN, BOUNDS, INJECTIVE, Affine, MemFact, analyze_ranges,
    eval_interval, kernel_facts, prove_launch, static_misaligned,
    static_oob_below, thread_injective, uniform_address)
from repro.ptx.parser import parse_module

_HEADER = ".version 6.0\n.target sm_60\n.address_size 64\n"


def _kernel(body: str, *, params: str = ".param .u64 out",
            decls: str = "", name: str = "k"):
    ptx = (f"{_HEADER}{decls}.visible .entry {name}({params})\n"
           "{\n"
           "    .reg .pred %p<4>;\n"
           "    .reg .b32 %r<8>;\n"
           "    .reg .b64 %rd<8>;\n"
           f"{body}"
           "    exit;\n"
           "}\n")
    return parse_module(ptx, name).kernel(name)


# ----------------------------------------------------------------------
# Affine form algebra
# ----------------------------------------------------------------------
class TestAffine:
    def test_add_merges_and_drops_zero_coeffs(self):
        a = Affine.symbol("%tid.x", 4).shift(8)
        b = Affine.symbol("%tid.x", -4).add(Affine.symbol("s", 2))
        total = a.add(b)
        assert total.coeffs == (("s", 2),)
        assert total.const == 8

    def test_scale_and_negate(self):
        form = Affine.symbol("%tid.x", 3).shift(5)
        assert form.scale(2).const == 10
        assert form.scale(2).coeff("%tid.x") == 6
        assert form.negate().coeff("%tid.x") == -3
        assert form.scale(0) == Affine.constant(0)

    def test_render_is_readable(self):
        form = Affine.symbol("%tid.x", 4).shift(-16)
        assert form.render() == "4*%tid.x - 16"
        assert Affine.constant(0).render() == "0"


# ----------------------------------------------------------------------
# Per-kernel fact extraction
# ----------------------------------------------------------------------
class TestAnalyzeRanges:
    def test_param_plus_scaled_tid_store(self):
        kernel = _kernel("""
    ld.param.u64 %rd0, [out];
    mov.u32 %r0, %tid.x;
    mul.wide.u32 %rd1, %r0, 4;
    add.u64 %rd2, %rd0, %rd1;
    st.global.u32 [%rd2], %r0;
""")
        facts = analyze_ranges(kernel).facts
        [fact] = facts.values()
        assert fact.is_write and fact.space == "global"
        assert fact.nbytes == 4
        assert fact.addr.coeff("param:out:0") == 1
        assert fact.addr.coeff("%tid.x") == 4
        assert fact.addr.const == 0

    def test_mem_offset_lands_in_const(self):
        kernel = _kernel("""
    ld.param.u64 %rd0, [out];
    ld.global.u32 %r0, [%rd0+12];
    st.global.u32 [%rd0+12], %r0;
""")
        facts = analyze_ranges(kernel).facts
        assert all(f.addr.const == 12 for f in facts.values())

    def test_divergent_address_is_untracked(self):
        """A register whose form differs between two paths joins to TOP,
        so the dependent access yields no fact."""
        kernel = _kernel("""
    ld.param.u64 %rd0, [out];
    mov.u32 %r0, %tid.x;
    setp.lt.u32 %p0, %r0, 16;
    @%p0 bra other;
    mov.u64 %rd1, 0;
    bra join;
other:
    mov.u64 %rd1, 8;
join:
    add.u64 %rd2, %rd0, %rd1;
    st.global.u32 [%rd2], %r0;
""")
        assert not analyze_ranges(kernel).facts

    def test_guarded_def_drops_form(self):
        kernel = _kernel("""
    ld.param.u64 %rd0, [out];
    mov.u32 %r0, %tid.x;
    setp.lt.u32 %p0, %r0, 16;
    @%p0 add.u64 %rd0, %rd0, 8;
    st.global.u32 [%rd0], %r0;
""")
        assert not analyze_ranges(kernel).facts

    def test_shared_variable_base(self):
        ptx = (f"{_HEADER}.visible .entry shk(.param .u64 out)\n"
               "{\n"
               "    .reg .b32 %r<4>;\n"
               "    .reg .b64 %rd<4>;\n"
               "    .shared .f32 buf[32];\n"
               "    mov.u32 %r0, %tid.x;\n"
               "    mul.wide.u32 %rd0, %r0, 4;\n"
               "    mov.u64 %rd1, buf;\n"
               "    add.u64 %rd2, %rd1, %rd0;\n"
               "    st.shared.u32 [%rd2], %r0;\n"
               "    exit;\n"
               "}\n")
        kernel = parse_module(ptx, "shk").kernel("shk")
        facts = analyze_ranges(kernel).facts
        [fact] = facts.values()
        assert fact.space == "shared"
        assert fact.addr.coeff("shared:buf") == 1
        assert fact.addr.coeff("%tid.x") == 4

    def test_kernel_facts_cached(self):
        kernel = _kernel("""
    ld.param.u64 %rd0, [out];
    st.global.u32 [%rd0], %r0;
""")
        first = kernel_facts(kernel)
        assert kernel_facts(kernel) is first


# ----------------------------------------------------------------------
# Static predicates
# ----------------------------------------------------------------------
def _fact(coeffs, const, *, space="global", nbytes=4, write=False):
    addr = Affine.constant(const)
    for name, coeff in coeffs.items():
        addr = addr.add(Affine.symbol(name, coeff))
    return MemFact(pc=0, space=space, nbytes=nbytes, is_write=write,
                   addr=addr)


class TestStaticPredicates:
    def test_oob_below_fires_on_negative_const(self):
        assert static_oob_below(
            _fact({"param:p:0": 1, "%tid.x": 4}, -4))

    def test_oob_below_needs_unit_pointer(self):
        assert not static_oob_below(_fact({"param:p:0": 2}, -4))
        assert not static_oob_below(
            _fact({"param:p:0": 1, "%tid.x": -4}, -4))

    def test_misaligned_in_every_launch(self):
        assert static_misaligned(_fact({"param:p:0": 1, "%tid.x": 4}, 2))
        assert not static_misaligned(
            _fact({"param:p:0": 1, "%tid.x": 2}, 2))  # tid can fix it
        assert not static_misaligned(_fact({"param:p:0": 1}, 4))

    def test_thread_injective(self):
        assert thread_injective(
            _fact({"shared:buf": 1, "%tid.x": 4}, 0, space="shared"))
        assert not thread_injective(
            _fact({"shared:buf": 1, "%tid.x": 2}, 0, space="shared"))
        assert not thread_injective(
            _fact({"%tid.x": 4, "%laneid": 4}, 0, space="shared"))

    def test_uniform_address(self):
        assert uniform_address(_fact({"%ctaid.x": 64}, 0))
        assert not uniform_address(_fact({"%tid.x": 4}, 0))


# ----------------------------------------------------------------------
# Launch-time proof evaluation
# ----------------------------------------------------------------------
class _StubLaunch:
    """Just enough launch surface for interval evaluation."""

    kernel = None
    block_dim = (32, 1, 1)
    grid_dim = (4, 1, 1)
    shared_bytes = 128
    shared_offsets: dict = {}
    param_offsets: dict = {}
    module_symbols = {"g": ("global", 1000)}


class _StubGlobalMem:
    shadow = None

    @staticmethod
    def allocation_containing(addr):
        return (1000, 256) if 1000 <= addr < 1256 else None


class TestProveLaunch:
    def test_eval_interval(self):
        form = Affine.symbol("%tid.x", 4).shift(8)
        assert eval_interval(form, _StubLaunch()) == (8, 8 + 4 * 31)
        assert eval_interval(Affine.symbol("%mystery"),
                             _StubLaunch()) is None

    def test_composite_symbol_interval(self):
        form = Affine.symbol("%ctaid.x*%ntid.x")
        assert eval_interval(form, _StubLaunch()) == (0, 3 * 32)

    def test_shared_bounds_align_injective(self):
        fact = _fact({"shared:buf": 0, "%tid.x": 4}, 0, space="shared")
        launch = _StubLaunch()
        proofs = prove_launch({0: fact}, launch, _StubGlobalMem())
        assert proofs[0] >= {BOUNDS, ALIGN, INJECTIVE}

    def test_shared_overrun_not_proven(self):
        fact = _fact({"%tid.x": 8}, 0, space="shared")  # hi+4 > 128+4
        proofs = prove_launch({0: fact}, _StubLaunch(), _StubGlobalMem())
        assert BOUNDS not in proofs.get(0, frozenset())

    def test_global_bounds_within_allocation(self):
        fact = _fact({"global:g": 1, "%tid.x": 4}, 0)
        proofs = prove_launch({0: fact}, _StubLaunch(), _StubGlobalMem())
        assert BOUNDS in proofs[0] and ALIGN in proofs[0]

    def test_global_overrun_not_proven(self):
        fact = _fact({"global:g": 1, "%tid.x": 4}, 132)  # last byte 1260
        proofs = prove_launch({0: fact}, _StubLaunch(), _StubGlobalMem())
        assert BOUNDS not in proofs.get(0, frozenset())

    def test_injective_needs_one_dim_block(self):
        fact = _fact({"shared:buf": 0, "%tid.x": 4}, 0, space="shared")

        class _Block2D(_StubLaunch):
            block_dim = (16, 2, 1)
        proofs = prove_launch({0: fact}, _Block2D(), _StubGlobalMem())
        assert INJECTIVE not in proofs.get(0, frozenset())
