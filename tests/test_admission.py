"""Which tier runs a launch, and why: ``repro.functional.executor.admit``.

``ROWS`` is the rule book — one row per rule and per precedence pair,
``(tier, why, live_why)`` for a request and its settings (``recordable``
is a megablock tier with no ``live_why``).  A plan of ``None`` means the
row must decide without looking the kernel's vector plan up.  The property checks then walk every
combination of settings, first through ``admit`` alone and then
through engines that really run.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.functional import kernelcache
from repro.functional.executor import (
    FAST_MODES, FunctionalEngine, _step_slots, admit)
from repro.functional.megablock import EVENTS, reset_events
from repro.functional.memory import GlobalMemory, LinearMemory
from repro.functional.state import CTAState, LaunchContext
from repro.ptx.builder import PTXBuilder, f32
from repro.ptx.parser import parse_module
from repro.quirks import LegacyQuirks
from repro.sanitize.core import Sanitizer
from repro.sanitize.shadow import attach_shadow
from repro.trace.tracer import Tracer


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    kernelcache.reset_counters()
    reset_events()


ELIGIBLE = SimpleNamespace(eligible=True, reasons=[], controls={
    4: {"op": "bar", "div": False}})
BARRIER = SimpleNamespace(eligible=True, reasons=[], controls={
    4: {"op": "bar", "div": False}, 9: {"op": "bar", "div": True},
    12: {"op": "bar", "div": True}})
INELIGIBLE = SimpleNamespace(eligible=False, controls={}, reasons=[
    "pc 5: no vector emitter for abs", "pc 7: no vector emitter for red"])

NO_PLAN = "no vector plan (pc 5: no vector emitter for abs)"
DIVERGENT = "pc 9: barrier reachable under divergence"
RESTORED = "restored CTAs resume mid-kernel"
RECONVERGE = "reconverge_at_exit changes the SIMT stacks"
QUIRKS = "legacy quirks run on the reference tier"

ROWS = [
    # The vector tier holds.
    ("megablock", {}, ELIGIBLE, ("megablock", None, None)),
    ("megablock", {"sanitize": True}, ELIGIBLE,
     ("megablock", None, None)),
    ("megablock", {}, BARRIER, ("megablock", None, DIVERGENT)),
    # Each rule that leaves it.
    ("megablock", {}, INELIGIBLE, ("superblock", NO_PLAN, NO_PLAN)),
    ("megablock", {"quirky": True}, None,
     ("reference", "quirks", QUIRKS)),
    ("megablock", {"contract_fp16": True}, None,
     ("fastpath", "contract_fp16", None)),
    ("megablock", {"reconverge_at_exit": True}, None,
     ("superblock", "reconverge_at_exit", RECONVERGE)),
    ("megablock", {"restored": True}, None,
     ("superblock", "restored", RESTORED)),
    ("megablock", {"budget": True}, ELIGIBLE,
     ("fastpath", "budget", None)),
    ("megablock", {"on_cta": True}, ELIGIBLE,
     ("superblock", "on_cta", None)),
    ("megablock", {"hooked": True}, ELIGIBLE,
     ("fastpath", "hooks", None)),
    ("megablock", {"cta_spans": True}, ELIGIBLE,
     ("superblock", "cta_spans", None)),
    # The scalar requests.
    ("superblock", {}, None,
     ("superblock", None, None)),
    ("superblock", {"sanitize": True}, None,
     ("fastpath", "sanitize", None)),
    ("superblock", {"budget": True}, None,
     ("fastpath", "budget", None)),
    ("superblock", {"hooked": True}, None,
     ("fastpath", "hooks", None)),
    ("superblock", {"on_cta": True, "cta_spans": True}, None,
     ("superblock", None, None)),
    ("superblock", {"restored": True}, None,
     ("superblock", None, RESTORED)),
    ("superblock", {"reconverge_at_exit": True}, None,
     ("superblock", None, RECONVERGE)),
    ("superblock", {"contract_fp16": True}, None,
     ("fastpath", "contract_fp16", None)),
    ("fastpath", {"hooked": True, "budget": True, "contract_fp16": True},
     None, ("fastpath", None, None)),
    ("fastpath", {"quirky": True}, None,
     ("reference", "quirks", QUIRKS)),
    ("reference", {"quirky": True}, None,
     ("reference", None, QUIRKS)),
    # Precedence: the tier.
    ("megablock", {"quirky": True, "contract_fp16": True}, None,
     ("reference", "quirks", QUIRKS)),
    ("megablock", {"contract_fp16": True, "reconverge_at_exit": True},
     None, ("fastpath", "contract_fp16", RECONVERGE)),
    ("megablock", {"reconverge_at_exit": True, "restored": True}, None,
     ("superblock", "reconverge_at_exit", RESTORED)),
    ("megablock", {"restored": True, "budget": True}, None,
     ("fastpath", "restored", RESTORED)),
    ("megablock", {"budget": True, "on_cta": True}, ELIGIBLE,
     ("fastpath", "budget", None)),
    ("megablock", {"on_cta": True, "hooked": True}, ELIGIBLE,
     ("fastpath", "on_cta", None)),
    ("megablock", {"hooked": True, "cta_spans": True}, ELIGIBLE,
     ("fastpath", "hooks", None)),
    ("megablock", {"on_cta": True, "sanitize": True}, ELIGIBLE,
     ("fastpath", "on_cta", None)),
    ("megablock", {"cta_spans": True, "sanitize": True}, ELIGIBLE,
     ("fastpath", "cta_spans", None)),
    ("megablock", {"reconverge_at_exit": True, "hooked": True}, None,
     ("fastpath", "hooks", RECONVERGE)),
    ("megablock", {"on_cta": True}, INELIGIBLE,
     ("superblock", NO_PLAN, NO_PLAN)),
    ("megablock", {"hooked": True}, INELIGIBLE,
     ("fastpath", "hooks", NO_PLAN)),
    ("megablock", {"sanitize": True}, INELIGIBLE,
     ("fastpath", "sanitize", NO_PLAN)),
    # Precedence: why a launch runs live.
    ("megablock", {"hooked": True}, BARRIER,
     ("fastpath", "hooks", DIVERGENT)),
    ("megablock", {"quirky": True, "reconverge_at_exit": True}, None,
     ("reference", "quirks", RECONVERGE)),
    ("megablock", {"quirky": True, "restored": True}, None,
     ("reference", "quirks", RESTORED)),
]


def _unreachable():
    raise AssertionError("this admission must not look the plan up")


@pytest.mark.parametrize("request_,settings,plan,want", ROWS,
                         ids=[f"{row[0]}-{'+'.join(row[1]) or 'plain'}"
                              for row in ROWS])
def test_rule(request_, settings, plan, want):
    assert admit(request_, (lambda: plan) if plan else _unreachable,
                 **settings) == want


SETTINGS = ("quirky", "restored", "contract_fp16", "reconverge_at_exit",
            "hooked", "sanitize", "budget", "on_cta", "cta_spans")


def test_properties_over_every_setting():
    for request, plan, *flags in itertools.product(
            FAST_MODES, (ELIGIBLE, BARRIER, INELIGIBLE),
            *[(False, True)] * len(SETTINGS)):
        settings = dict(zip(SETTINGS, flags))
        looked_up = []
        got = admit(request, lambda: looked_up.append(1) or plan,
                    **settings)
        case = (request, plan.controls, settings, got)
        # What the timing model asks for: a launch it cannot record
        # always says why.
        timing = request == "megablock" and not any(
            settings[name] for name in (
                "contract_fp16", "hooked", "budget", "on_cta", "cta_spans"))
        assert not timing or got.recordable == (got.live_why is None), case
        assert not settings["hooked"] or got.tier in (
            "fastpath", "reference"), case
        assert (got.why is None) == (got.tier == request), case
        vector = (request == "megablock" and not any(
            settings[name] for name in (
                "quirky", "contract_fp16", "reconverge_at_exit",
                "restored")))
        assert bool(looked_up) == vector, case


# ----------------------------------------------------------------------
# Engines run on the tier they were admitted to
# ----------------------------------------------------------------------
def _saxpy_ptx() -> str:
    b = PTXBuilder("sax", [("xs", "u64"), ("ys", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    ys = b.ld_param("u64", "ys")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    x = b.reg("f32")
    y = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("ld.global.f32", y, f"[{b.elem_addr(ys, tid)}]")
    b.ins("fma.rn.f32", y, x, f32(2.0), y)
    b.ins("st.global.f32", f"[{b.elem_addr(ys, tid)}]", y)
    return b.build()


def _abs_ptx() -> str:
    b = PTXBuilder("absk", [("xs", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    x = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("abs.f32", x, x)
    b.ins("st.global.f32", f"[{b.elem_addr(xs, tid)}]", x)
    return b.build()


def _launch(kernel, *, quirks=False, sanitize=False,
            restored=False) -> LaunchContext:
    gm = GlobalMemory()
    if sanitize:
        attach_shadow(gm)
    params = {"n": 32}
    rng = np.random.default_rng(3)
    for name in ("xs", "ys"):
        params[name] = gm.allocate(4 * 32)
        gm.write(params[name], rng.random(32, dtype=np.float32).tobytes())
    pm = LinearMemory(max(kernel.param_bytes, 16))
    for decl in kernel.params:
        pm.write_uint(decl.offset, params[decl.name], decl.dtype.bytes)
    launch = LaunchContext(
        kernel=kernel, grid_dim=(1, 1, 1), block_dim=(32, 1, 1),
        global_mem=gm, param_mem=pm,
        quirks=LegacyQuirks(rem_ignores_type=quirks))
    if restored:
        launch.restored = {0: CTAState(launch, 0)}
    return launch


OBSERVERS = ("none", "on_exec", "exec_override", "sanitizer",
             "on_exec+sanitizer")


def test_engines_run_on_the_admitted_tier():
    """Over every setting: the ``megablock:`` span appears exactly on a
    megablock admission, fused blocks exist exactly on a superblock one,
    only a reference admission leaves the shared step list, and a
    stepped tier reports one record per issued instruction."""
    kernel = parse_module(_saxpy_ptx(), "adm").kernel("sax")
    for (request, quirks, contract, reconverge, observer, restored,
         budget, on_cta, spans) in itertools.product(
            FAST_MODES, (False, True), (False, True), (False, True),
            OBSERVERS, (False, True), (False, True), (False, True),
            (False, True)):
        sanitize = "sanitizer" in observer
        launch = _launch(kernel, quirks=quirks, sanitize=sanitize,
                         restored=restored)
        records = []
        hooks = {}
        if "on_exec" in observer:
            hooks["on_exec"] = records.append
        if observer == "exec_override":
            hooks["exec_override"] = lambda *args: False
        if sanitize:
            hooks["sanitize"] = Sanitizer()
        tracer = Tracer(cta_spans=spans)
        engine = FunctionalEngine(
            launch, fast_mode=request, contract_fp16=contract,
            reconverge_at_exit=reconverge, tracer=tracer, **hooks)
        stats = engine.run(
            max_warp_instructions=10 ** 6 if budget else None,
            on_cta=(lambda cta: None) if on_cta else None)
        tier = engine.admission.tier
        case = (request, quirks, contract, reconverge, observer, restored,
                budget, on_cta, spans, engine.admission)
        spans_seen = {span.name for span in tracer.closed_spans()}
        assert ("megablock:sax" in spans_seen) == (tier == "megablock"), \
            case
        assert (engine._superblocks is not None) == (
            tier == "superblock"), case
        assert (engine._steps is not _step_slots(kernel)) == (
            tier == "reference"), case
        if "on_exec" in hooks:
            assert len(records) == stats.instructions > 0, case


def test_a_launch_that_cannot_run_vector_never_loads_a_plan():
    """A restored launch on a megablock engine decides before the plan
    lookup: nothing is loaded, stored or memoised, and an ineligible
    kernel counts no fallback."""
    for ptx, name in ((_saxpy_ptx(), "sax"), (_abs_ptx(), "absk")):
        kernel = parse_module(ptx, "fresh").kernel(name)
        before = kernelcache.counters()
        engine = FunctionalEngine(_launch(kernel, restored=True),
                                  fast_mode="megablock")
        engine.run()
        assert engine.admission[:2] == ("superblock", "restored")
        assert not [key for key in kernel.derived if "_megaplan" in key]
        assert kernelcache.counters() == before
    assert EVENTS["fallbacks"] == 0
