"""LegacyQuirks container tests, plus the quirk ↔ lint cross-reference:
every quirk with an execution-visible effect on PTX instructions maps to
a static quirk-dependence rule, and a golden kernel exercising it is
flagged with exactly that rule id."""

import pytest

from repro.analysis import QUIRK_RULES, verify_kernel
from repro.ptx.parser import parse_module
from repro.quirks import FIXED, LegacyQuirks, STOCK_GPGPUSIM


def test_fixed_has_nothing_enabled():
    assert FIXED.describe() == []


def test_stock_enables_the_papers_catalogue():
    enabled = set(STOCK_GPGPUSIM.describe())
    assert {"rem_ignores_type", "bfe_unsigned_only", "brev_unsupported",
            "stream_wait_event_unsupported",
            "cu_launch_kernel_unsupported", "single_texref_per_name",
            "combined_ptx_load", "no_dynamic_library_search",
            "fp16_unsupported"} <= enabled


def test_quirks_frozen_and_comparable():
    a = LegacyQuirks(rem_ignores_type=True)
    b = LegacyQuirks(rem_ignores_type=True)
    assert a == b and a != FIXED
    try:
        a.rem_ignores_type = False
        raised = False
    except AttributeError:
        raised = True
    assert raised


def test_describe_lists_only_enabled():
    quirks = LegacyQuirks(brev_unsupported=True)
    assert quirks.describe() == ["brev_unsupported"]


# ----------------------------------------------------------------------
# Quirk ↔ lint-rule cross-reference
# ----------------------------------------------------------------------
# One golden kernel body per instruction-level quirk: the smallest PTX
# that changes meaning (or stops working) when the quirk is active.
_GOLDEN_BODIES = {
    "rem_ignores_type": "    rem.s32 %r2, %r0, %r1;",
    "bfe_unsigned_only": "    bfe.s32 %r2, %r0, %r1, %r3;",
    "brev_unsupported": "    brev.b32 %r2, %r0;",
    "fp16_unsupported": "    add.f16 %h2, %h0, %h1;",
}


def _golden_kernel(body: str):
    ptx = f"""
.version 6.0
.target sm_60
.address_size 64

.visible .entry g(.param .u32 n)
{{
    .reg .b32 %r<8>;
    .reg .b16 %h<8>;
{body}
    exit;
}}
"""
    return parse_module(ptx, "quirk-golden").kernel("g")


def test_every_instruction_quirk_has_a_rule_and_golden_kernel():
    assert set(QUIRK_RULES) == set(_GOLDEN_BODIES)


def test_instruction_quirks_are_exactly_the_rule_flags():
    """The flags that send the engine to the reference interpreter are
    the ones a Q2xx rule detects dependence on."""
    altering = {name for name in LegacyQuirks.__dataclass_fields__
                if LegacyQuirks(**{name: True}).alters_instructions}
    assert altering == set(QUIRK_RULES)
    assert not FIXED.alters_instructions


@pytest.mark.parametrize("flag", sorted(QUIRK_RULES))
def test_golden_kernel_flagged_with_matching_rule(flag):
    kernel = _golden_kernel(_GOLDEN_BODIES[flag])
    rule = QUIRK_RULES[flag]
    findings = verify_kernel(kernel, quirks=LegacyQuirks(**{flag: True}))
    assert [f.rule for f in findings if f.rule.startswith("Q")] == [rule]


@pytest.mark.parametrize("flag", sorted(QUIRK_RULES))
def test_golden_kernel_clean_under_fixed_semantics(flag):
    kernel = _golden_kernel(_GOLDEN_BODIES[flag])
    findings = verify_kernel(kernel, quirks=FIXED)
    assert not any(f.rule.startswith("Q") for f in findings)


def test_stock_profile_flags_all_golden_kernels():
    for flag, body in _GOLDEN_BODIES.items():
        kernel = _golden_kernel(body)
        findings = verify_kernel(kernel, quirks=STOCK_GPGPUSIM)
        assert QUIRK_RULES[flag] in {f.rule for f in findings}
