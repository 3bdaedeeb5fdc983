"""Static-analysis framework tests: dataflow engine, verifier, lints.

The golden kernels mirror the paper's Section III-D bug catalogue: an
untyped ``rem``, a signed ``bfe`` and a ``brev`` — each must be flagged
with the matching quirk-dependence rule when the corresponding legacy
quirk is active, and stay silent under fixed semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    ERROR, WARNING, analyze_kernel, run_lints, verify_kernel,
    verify_launch)
from repro.analysis.dataflow import (
    UNINIT, def_use_chains, liveness, producer_chain,
    reaching_definitions, register_widths, variance)
from repro.cuda import CudaRuntime
from repro.cuda.runtime import FunctionalBackend
from repro.errors import VerificationError
from repro.ptx.builder import PTXBuilder
from repro.ptx.parser import parse_module
from repro.quirks import FIXED, LegacyQuirks, STOCK_GPGPUSIM


def _kernel(ptx: str, name: str = "k"):
    return parse_module(ptx, "test").kernel(name)


def _wrap(body: str, name: str = "k") -> str:
    return f"""
.version 6.0
.target sm_60
.address_size 64

.visible .entry {name}(.param .u64 out, .param .u32 n)
{{
    .reg .b32 %r<16>;
    .reg .b16 %h<8>;
    .reg .b64 %rd<8>;
    .reg .f32 %f<8>;
    .reg .pred %p<8>;
{body}
    exit;
}}
"""


# ----------------------------------------------------------------------
# Dataflow engine
# ----------------------------------------------------------------------
def test_reaching_definitions_straightline():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    add.u32 %r1, %r0, 2;
    add.u32 %r0, %r0, 3;
"""))
    reach = reaching_definitions(kernel)
    # Before the first instruction only UNINIT defs reach.
    assert ("%r0", UNINIT) in reach.before[0]
    # After mov, the mov's def replaces UNINIT for %r0.
    assert ("%r0", 0) in reach.after[0]
    assert ("%r0", UNINIT) not in reach.after[0]
    # The second write to %r0 kills the first.
    assert ("%r0", 2) in reach.after[2]
    assert ("%r0", 0) not in reach.after[2]


def test_reaching_definitions_predicated_def_does_not_kill():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    setp.lt.u32 %p0, %r0, 2;
@%p0 mov.u32 %r0, 9;
    add.u32 %r1, %r0, 0;
"""))
    reach = reaching_definitions(kernel)
    incoming = reach.before[3]
    assert ("%r0", 0) in incoming and ("%r0", 2) in incoming


def test_liveness_kills_after_last_use():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    add.u32 %r1, %r0, 2;
    st.global.u32 [%rd0], %r1;
"""))
    live = liveness(kernel)
    assert "%r0" in live.before[1]
    assert "%r0" not in live.after[1]      # last use consumed it
    assert "%r1" in live.before[2]


def test_liveness_partial_write_is_rmw():
    # cvt.u16 writes 16 of the 64 payload bits mov.u64 filled: the union
    # composes with the old upper bits, so the destination is also a
    # *use*.
    kernel = _kernel(_wrap("""
    mov.u64 %rd1, 5;
    cvt.u16.u32 %rd1, %r0;
    st.global.u64 [%rd0], %rd1;
"""))
    assert register_widths(kernel)["%rd1"] == 64
    assert "%rd1" in liveness(kernel).before[1]  # old payload matters


def test_liveness_write_as_wide_as_the_register_kills():
    # %r1 is .b32 and only ever written by 32-bit ops: no def of it has
    # upper bits to keep, so each one is a plain kill.
    kernel = _kernel(_wrap("""
    mov.u32 %r1, 5;
    add.u32 %r1, %r0, 2;
@%p0 add.u32 %r1, %r0, 3;
    st.global.u32 [%rd0], %r1;
"""))
    assert register_widths(kernel)["%r1"] == 32
    live = liveness(kernel)
    assert "%r1" not in live.before[0]
    assert "%r1" not in live.before[1]   # classic liveness: killed
    assert "%r1" in live.before[2]       # a guarded def keeps the old


def test_liveness_is_solved_once_per_kernel():
    kernel = _kernel(_wrap("    mov.u32 %r0, 1;"))
    assert liveness(kernel) is liveness(kernel)
    assert register_widths(kernel) is register_widths(kernel)


def test_liveness_holds_across_a_join():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    setp.lt.u32 %p0, %r0, 2;
@%p0 bra $L1;
    mov.u32 %r1, 3;
$L1:
    st.global.u32 [%rd0], %r0;
"""))
    live = liveness(kernel)
    assert "%r0" in live.after[2]        # read after the branch joins
    assert "%r1" not in live.after[3]


#: The width map, one def shape per row: (body, register, bits).
_WIDTH_TABLE = [
    # One register written at 16 / 32 / 64 bits holds the widest.
    ("cvt.u16.u32 %rd1, %r0;", "%rd1", 64),          # declared .b64
    ("cvt.u16.u32 %r1, %r0;", "%r1", 32),            # declared .b32
    ("cvt.u16.u32 %h1, %r0;", "%h1", 16),
    ("mov.u16 %r1, 1; mov.u32 %r1, 2;", "%r1", 32),
    ("mov.u32 %r1, 2; mov.u64 %r1, 3;", "%r1", 64),
    ("mov.u32 %h1, 2;", "%h1", 32),                  # wider than declared
    # Loads replace the payload: zero-extended ones stay narrow, a
    # sign-extended one fills it.
    ("ld.global.u32 %r1, [%rd0];", "%r1", 32),
    ("ld.global.s32 %r1, [%rd0];", "%r1", 64),
    ("ld.global.u16 %r1, [%rd0];", "%r1", 32),
    ("ld.global.u16 %h1, [%rd0];", "%h1", 16),
    ("ld.global.s16 %h1, [%rd0];", "%h1", 64),
    ("ld.global.f32 %f1, [%rd0];", "%f1", 32),
    ("ld.global.b64 %f1, [%rd0];", "%f1", 64),
    ("ld.global.s64 %rd1, [%rd0];", "%rd1", 64),
    ("ldu.global.u32 %r1, [%rd0];", "%r1", 32),
    # Results wider or narrower than the type suffix.
    ("mad.wide.u32 %r1, %r0, %r0, %rd0;", "%r1", 64),
    ("mul.wide.u16 %h1, %h0, %h0;", "%h1", 32),
    ("popc.b64 %r1, %rd0;", "%r1", 32),
    ("cvt.s64.s32 %r1, %r0;", "%r1", 64),            # widening
    ("cvt.u32.u64 %r1, %rd0;", "%r1", 32),           # narrowing
    ("cvt.f32.f64 %f1, %rd0;", "%f1", 32),
    # Vector destinations count per element; tex states no width.
    ("ld.global.v2.f32 {%f1, %f2}, [%rd0];", "%f2", 32),
    ("ld.global.v4.u32 {%r1, %r2, %r3, %r4}, [%rd0];", "%r4", 32),
    ("ld.global.v2.s32 {%r1, %r2}, [%rd0];", "%r2", 64),
    ("tex.2d.v4.f32.s32 {%f1, %f2, %f3, %f4}, [tx, {%r0, %r1}];",
     "%f3", 64),
    # A destination of atom is a composed write of its type.
    ("atom.global.add.u32 %r1, [%rd0], %r0;", "%r1", 32),
    ("atom.global.add.u64 %r1, [%rd0], %rd1;", "%r1", 64),
    # Predicates hold one bit, however they are written.
    ("setp.lt.u32 %p1, %r0, 2;", "%p1", 1),
    ("mov.pred %p1, %p0;", "%p1", 1),
    ("and.pred %p1, %p0, %p2;", "%p1", 1),
    ("mov.u32 %p1, 5;", "%p1", 32),
    # Guarded defs count like any other.
    ("@%p0 mov.u64 %r1, 2;", "%r1", 64),
    ("@!%p0 ld.global.s32 %r1, [%rd0];", "%r1", 64),
    # A .b64 register only ever written at 32 bits stays wide: its
    # declaration says a fault (or a later edit) may fill it.
    ("mov.u32 %rd1, 1; add.u32 %rd1, %rd1, 2;", "%rd1", 64),
    # Undeclared registers are 64 wide, and so is a declared one that
    # nothing writes.
    ("mov.u32 %zz, 1;", "%zz", 64),
    ("mov.u32 %r1, %r0;", "%r0", 32),
]


@pytest.mark.parametrize("body,register,bits", _WIDTH_TABLE)
def test_register_width_table(body, register, bits):
    kernel = _kernel(_wrap(body))
    assert register_widths(kernel).get(register, 64) == bits


def test_def_use_chains_are_bidirectional():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    add.u32 %r1, %r0, 2;
    st.global.u32 [%rd0], %r1;
"""))
    chains = def_use_chains(kernel)
    assert 1 in chains.uses_of_def[("%r0", 0)]
    assert chains.defs_of_use[("%r0", 1)] == frozenset({0})
    assert 2 in chains.uses_of_def[("%r1", 1)]


def test_producer_chain_orders_by_depth():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    add.u32 %r1, %r0, 2;
    mul.lo.u32 %r2, %r1, 3;
    st.global.u32 [%rd0], %r2;
"""))
    sites = producer_chain(kernel, 3)
    assert sites, "store has static producers"
    assert sites[0]["depth"] == 1
    pcs = [s["pc"] for s in sites]
    assert 2 in pcs and 1 in pcs and 0 in pcs
    assert all(sites[i]["depth"] <= sites[i + 1]["depth"]
               for i in range(len(sites) - 1))


def test_variance_taints_tid_not_params():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, %tid.x;
    add.u32 %r1, %r0, 1;
    ld.param.u32 %r2, [n];
    add.u32 %r3, %r2, 1;
"""))
    var = variance(kernel)
    assert "%r1" in var.after[1]          # tid-derived: per-lane
    assert "%r3" not in var.after[3]      # param-derived: warp-uniform


# ----------------------------------------------------------------------
# Typed-instruction verifier
# ----------------------------------------------------------------------
def _rules(findings):
    return {f.rule for f in findings}


def test_unknown_opcode_v100():
    kernel = _kernel(_wrap("    frobnicate.u32 %r0, %r1;\n"))
    findings = verify_kernel(kernel)
    assert any(f.rule == "V100" and f.severity == ERROR
               for f in findings)


def test_operand_count_v101():
    kernel = _kernel(_wrap("    add.u32 %r0, %r1;\n"))
    assert "V101" in _rules(verify_kernel(kernel))


def test_dtype_family_v102():
    kernel = _kernel(_wrap("    add.b32 %r0, %r1, %r2;\n"))
    assert "V102" in _rules(verify_kernel(kernel))


def test_missing_cmp_v103():
    kernel = _kernel(_wrap("    setp.u32 %p0, %r0, %r1;\n"))
    assert "V103" in _rules(verify_kernel(kernel))


def test_narrow_register_v104_warning():
    kernel = _kernel(_wrap("    add.u64 %r0, %r1, %r2;\n"))
    findings = [f for f in verify_kernel(kernel) if f.rule == "V104"]
    assert findings and all(f.severity == WARNING for f in findings)


@pytest.mark.parametrize("selector, needs", [("%r3", None), ("%h0", 32)])
def test_v104_types_the_slct_selector_by_the_second_specifier(
        selector, needs):
    """``exec_slct`` reads ``c`` by the second type specifier: a
    ``.s32`` selector of a 64-bit ``slct`` is wide enough, a ``.b16``
    one is not."""
    kernel = _kernel(_wrap(
        f"    slct.u64.s32 %rd1, %rd2, %rd3, {selector};\n"))
    findings = verify_kernel(kernel)
    if needs is None:
        assert findings == []
    else:
        (finding,) = findings
        assert (finding.rule, finding.severity) == ("V104", WARNING)
        assert finding.message == (
            f"source {selector} is declared .b16 but slct reads "
            f"{needs} bits")


def test_clean_kernel_has_no_verifier_findings():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    add.u32 %r1, %r0, 2;
    st.global.u32 [%rd0], %r1;
"""))
    assert verify_kernel(kernel) == []


_GOLDEN_QUIRK_KERNELS = {
    "rem_ignores_type": ("    rem.u32 %r2, %r0, %r1;\n", "Q201"),
    "bfe_unsigned_only": ("    bfe.s32 %r2, %r0, %r1, %r3;\n", "Q202"),
    "brev_unsupported": ("    brev.b32 %r2, %r0;\n", "Q203"),
    "fp16_unsupported": ("    add.f16 %h2, %h0, %h1;\n", "Q204"),
}


@pytest.mark.parametrize("flag", sorted(_GOLDEN_QUIRK_KERNELS))
def test_quirk_dependence_rules(flag):
    body, rule = _GOLDEN_QUIRK_KERNELS[flag]
    kernel = _kernel(_wrap(body))
    # Silent under fixed semantics...
    assert not any(f.rule.startswith("Q")
                   for f in verify_kernel(kernel, quirks=FIXED))
    # ...flagged as an error when exactly that quirk is active...
    quirks = LegacyQuirks(**{flag: True})
    findings = [f for f in verify_kernel(kernel, quirks=quirks)
                if f.rule.startswith("Q")]
    assert [f.rule for f in findings] == [rule]
    assert findings[0].severity == ERROR
    # ...and under the full stock profile too.
    assert rule in _rules(verify_kernel(kernel, quirks=STOCK_GPGPUSIM))


def test_rem_u64_does_not_depend_on_the_quirk():
    # The legacy rem computes a u64 remainder: rem.u64 is accidentally
    # correct, so it must not be flagged.
    kernel = _kernel(_wrap("    rem.u64 %rd1, %rd2, %rd3;\n"))
    findings = verify_kernel(kernel, quirks=STOCK_GPGPUSIM)
    assert "Q201" not in _rules(findings)


# ----------------------------------------------------------------------
# Lint passes
# ----------------------------------------------------------------------
def test_uninitialized_read_error_and_warning():
    kernel = _kernel(_wrap("""
    add.u32 %r1, %r0, 1;
    setp.lt.u32 %p0, %r1, 5;
@%p0 mov.u32 %r2, 1;
    add.u32 %r3, %r2, 1;
"""))
    findings = run_lints(kernel, passes=["uninitialized-read"])
    by_sev = {(f.pc, f.severity) for f in findings if f.rule == "D301"}
    assert (0, ERROR) in by_sev            # %r0 never written anywhere
    assert (3, WARNING) in by_sev          # %r2 written only when @%p0


def test_dead_store_detected():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    mov.u32 %r1, 2;
    st.global.u32 [%rd0], %r0;
"""))
    findings = run_lints(kernel, passes=["dead-store"])
    assert [f.pc for f in findings if f.rule == "D302"] == [1]


def test_vector_destination_with_live_element_not_dead():
    kernel = _kernel(_wrap("""
    ld.global.v2.u32 {%r0, %r1}, [%rd0];
    st.global.u32 [%rd0], %r0;
"""))
    findings = run_lints(kernel, passes=["dead-store"])
    assert not findings                    # %r1 dead but %r0 live


def test_divergent_barrier_flagged():
    b = PTXBuilder("divbar", [("n", "u32")])
    tid = b.global_tid_x()
    n = b.ld_param("u32", "n")
    pred = b.reg("pred")
    b.ins("setp.lt.u32", pred, tid, n)
    with b.if_then(pred):
        b.bar_sync()
    kernel = _kernel(b.build(), "divbar")
    findings = run_lints(kernel, passes=["divergent-barrier"])
    assert any(f.rule == "C401" and f.severity == ERROR
               for f in findings)


def test_uniform_branch_barrier_not_flagged():
    b = PTXBuilder("unibar", [("n", "u32")])
    n = b.ld_param("u32", "n")
    pred = b.reg("pred")
    b.ins("setp.lt.u32", pred, n, "64")    # warp-uniform condition
    with b.if_then(pred):
        b.bar_sync()
    kernel = _kernel(b.build(), "unibar")
    assert run_lints(kernel, passes=["divergent-barrier"]) == []


def test_early_exit_guard_barrier_not_flagged():
    # Early-exit guard where the two sides never reconverge (both run
    # straight to exit): the guarded lanes terminate without touching a
    # barrier, so the remaining lanes' bar.sync is safe — no diagnostic.
    ptx = """
.version 6.0
.target sm_60
.address_size 64
.visible .entry guardbar(.param .u32 n)
{
    .reg .b32 %r<4>;
    .reg .pred %p<2>;
    mov.u32 %r0, %tid.x;
    setp.ge.u32 %p0, %r0, 8;
@%p0 bra $DONE;
    bar.sync 0;
    exit;
$DONE:
    exit;
}
"""
    kernel = _kernel(ptx, "guardbar")
    assert run_lints(kernel, passes=["divergent-barrier"]) == []


def test_shared_race_uniform_store():
    ptx = """
.version 6.0
.target sm_60
.address_size 64
.visible .entry k(.param .u32 n)
{
    .reg .b32 %r<4>;
    .shared .b32 buf[64];
    mov.u32 %r0, 7;
    st.shared.u32 [buf], %r0;
    exit;
}
"""
    findings = run_lints(_kernel(ptx), passes=["shared-race"])
    assert any(f.rule == "M501" and "write-write" in f.message
               for f in findings)


def test_shared_raw_without_barrier_flagged_and_barrier_clears():
    def ptx(with_bar: bool) -> str:
        bar = "    bar.sync 0;\n" if with_bar else ""
        return f"""
.version 6.0
.target sm_60
.address_size 64
.visible .entry k(.param .u32 n)
{{
    .reg .b32 %r<8>;
    .reg .b64 %rd<4>;
    .shared .b32 buf[64];
    mov.u32 %r0, %tid.x;
    shl.b32 %r1, %r0, 2;
    mov.u64 %rd0, buf;
    cvt.u64.u32 %rd1, %r1;
    add.u64 %rd0, %rd0, %rd1;
    st.shared.u32 [%rd0], %r0;
{bar}    ld.shared.u32 %r2, [buf];
    st.shared.u32 [%rd0+128], %r2;
    exit;
}}
"""
    racy = run_lints(_kernel(ptx(False)), passes=["shared-race"])
    assert any(f.rule == "M501" and "bar.sync" in f.message
               for f in racy)
    clean = run_lints(_kernel(ptx(True)), passes=["shared-race"])
    assert not any("bar.sync" in f.message for f in clean)


# ----------------------------------------------------------------------
# verify_launch + engine gate
# ----------------------------------------------------------------------
def test_verify_launch_raises_with_findings():
    kernel = _kernel(_wrap("    frobnicate.u32 %r0, %r1;\n"))
    with pytest.raises(VerificationError) as info:
        verify_launch(kernel)
    assert "V100" in str(info.value)
    assert info.value.findings and info.value.findings[0].rule == "V100"


def test_verify_launch_passes_clean_kernel():
    kernel = _kernel(_wrap("""
    mov.u32 %r0, 1;
    st.global.u32 [%rd0], %r0;
"""))
    assert verify_launch(kernel) == []


_REM_KERNEL = """
.version 6.0
.target sm_60
.address_size 64
.visible .entry remk(.param .u64 out)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<2>;
    ld.param.u64 %rd0, [out];
    mov.u32 %r0, 7;
    mov.u32 %r1, 3;
    rem.u32 %r2, %r0, %r1;
    st.global.u32 [%rd0], %r2;
    exit;
}
"""


def test_engine_verify_gate_blocks_quirk_dependent_launch():
    rt = CudaRuntime(quirks=STOCK_GPGPUSIM,
                     backend=FunctionalBackend(verify=True))
    rt.load_ptx(_REM_KERNEL, "remtest")
    out = rt.malloc(4)
    with pytest.raises(VerificationError) as info:
        rt.launch("remk", (1, 1, 1), (1, 1, 1), [out])
        rt.synchronize()
    assert "Q201" in str(info.value)


def test_engine_verify_gate_passes_fixed_semantics():
    rt = CudaRuntime(backend=FunctionalBackend(verify=True))
    rt.load_ptx(_REM_KERNEL, "remtest")
    out = rt.malloc(4)
    rt.launch("remk", (1, 1, 1), (1, 1, 1), [out])
    rt.synchronize()
    value = np.frombuffer(rt.memcpy_d2h(out, 4), dtype=np.uint32)[0]
    assert value == 1


def test_analyze_kernel_is_sorted_and_stable():
    kernel = _kernel(_wrap("""
    add.u32 %r1, %r0, 1;
    frobnicate.u32 %r2, %r1;
"""))
    findings = analyze_kernel(kernel)
    assert findings == analyze_kernel(kernel)
    severities = [f.severity for f in findings]
    assert severities.index(ERROR) == 0
