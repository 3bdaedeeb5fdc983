"""Sanitizer tests: the seeded-defect corpus across every execution
tier, the proven-safe skip contract, shard merging, the fault-injection
cross-check, and the zero-findings gate on stock workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cuda.runtime import FunctionalBackend
from repro.functional.executor import FAST_MODES
from repro.functional.memory import GlobalMemory
from repro.sanitize import CLEAN, DEFECTS, Sanitizer, run_entry


# ----------------------------------------------------------------------
# The must-detect matrix: every defect, every tier, correct pc
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast_mode", FAST_MODES)
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_defect_detected_at_every_tier(name, fast_mode):
    run = run_entry(name, fast_mode=fast_mode)
    assert run.detected, (
        f"{name} not detected at tier {fast_mode}: expected "
        f"{run.entry.rule} @ pc {run.expected_pc}, got {run.findings}")


@pytest.mark.parametrize("fast_mode", FAST_MODES)
@pytest.mark.parametrize("name", sorted(CLEAN))
def test_clean_kernels_silent_at_every_tier(name, fast_mode):
    run = run_entry(name, fast_mode=fast_mode)
    assert run.detected and not run.findings, (
        f"false positive(s) on {name} at tier {fast_mode}: "
        f"{run.findings}")


@pytest.mark.parametrize("fast_mode", ("superblock", "megablock"))
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_defect_detected_through_two_shards(name, fast_mode):
    """Shard-local shadow state with a deterministic merge must report
    the same finding as a single-process run."""
    run = run_entry(name, fast_mode=fast_mode, shards=2)
    assert run.detected, (
        f"{name} not detected through 2 shards at {fast_mode}: "
        f"{run.findings}")


@pytest.mark.parametrize("name", ("oob_load", "ww_race", "clean_tile"))
def test_findings_do_not_depend_on_who_else_observes(name):
    """The step-path observer is composed once (the caller's hook, then
    the sanitizer's): on every tier a launch that is *also* watched by
    an ``on_exec`` hook reports the findings and counters of the
    unwatched launch."""
    from repro.sanitize.corpus import CORPUS
    entry = CORPUS[name]
    cells = {}
    for fast_mode in FAST_MODES:
        for hook in ("none", "on_exec"):
            calls = []
            backend = FunctionalBackend(
                fast_mode=fast_mode, sanitize=True,
                on_exec=calls.append if hook == "on_exec" else None)
            rt = CudaRuntime(backend=backend)
            rt.load_ptx(entry.build(), f"observers_{name}")
            grid, block, args = entry.setup(rt)
            rt.launch(entry.name, grid, block, args)
            rt.synchronize()
            assert bool(calls) == (hook != "none")
            cells[fast_mode, hook] = (backend.sanitize.findings_list(),
                                      dict(backend.sanitize.counters))
    expected = cells["reference", "none"]
    assert bool(expected[0]) == (entry.rule is not None)
    assert expected[1]["launches"] == 1
    different = {cell for cell, got in cells.items() if got != expected}
    assert not different, different


def _corpus_json(capsys, *argv: str) -> str:
    """``repro-sanitize --corpus --format json`` minus the two fields
    that name the run's configuration."""
    import json

    from repro.sanitize.cli import main
    assert main(["--corpus", "--format", "json", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["fast_mode"], report["shards"]
    return json.dumps(report, indent=2)


def test_corpus_report_is_identical_on_every_tier_and_sharded(capsys):
    """One implementation of S601-S605 behind every tier: findings with
    their counts and messages, and the checked/skipped counters, are
    the same bytes whichever tier ran the corpus — the two ``v2``
    entries included (one 8-byte access per lane, not two elements)."""
    want = _corpus_json(capsys, "--fast-mode", "reference")
    assert '"count": 32' in want and "not 8-byte aligned" in want
    assert "of 8 bytes at 0x100000f8: overruns allocation" in want
    for mode in ("fastpath", "superblock", "megablock"):
        assert _corpus_json(capsys, "--fast-mode", mode) == want, mode
    assert _corpus_json(capsys, "--fast-mode", "megablock",
                        "--shards", "2") == want


# ----------------------------------------------------------------------
# Proof-guided skipping (the analysis-guided part)
# ----------------------------------------------------------------------
def test_exact_geometry_is_fully_proven():
    """clean_exact's grid matches its allocations, so every global
    access is statically discharged — zero dynamic checks."""
    run = run_entry("clean_exact", fast_mode="superblock")
    assert not run.findings
    assert run.counters["skipped_proven"] > 0
    assert run.counters["checked_accesses"] == 0


def test_guarded_geometry_keeps_checks_armed():
    """clean_guarded over-provisions the grid behind a tid guard: the
    bounds are dynamically fine but unprovable, so the dynamic checks
    must actually run (otherwise the corpus only tests the prover)."""
    run = run_entry("clean_guarded", fast_mode="superblock")
    assert not run.findings
    assert run.counters["checked_accesses"] > 0


def test_megablock_skips_proven_accesses_too():
    run = run_entry("clean_exact", fast_mode="megablock")
    assert not run.findings
    assert run.counters["skipped_proven"] > 0
    assert run.counters["checked_accesses"] == 0


# ----------------------------------------------------------------------
# The rules are batching-invariant: a chunk at once == lane by lane
# ----------------------------------------------------------------------
def _racecheck(batches, split: bool) -> list[dict]:
    """Feed *batches* of shared accesses to a fresh sanitizer, each in
    one ``check_shared`` call (a megablock chunk) or one call per lane
    (the sequential semantics the stepping tiers' lane loop had)."""
    from types import SimpleNamespace
    sanitizer = Sanitizer()
    sanitizer._launch = SimpleNamespace(
        threads_per_block=64, warps_per_block=2, shared_bytes=48,
        kernel=SimpleNamespace(body=[None] * 8, name="k"))
    sanitizer._kernel_name = "k"
    sanitizer.open_ctas(3, 2)
    for pc, (is_write, nbytes, addr, thread, cta) in enumerate(batches):
        if pc == len(batches) // 2:
            sanitizer.end_interval(np.array([3]))   # CTA 3 only
        pieces = (zip(addr[:, None], thread[:, None], cta[:, None])
                  if split else [(addr, thread, cta)])
        for a, t, c in pieces:
            sanitizer.check_shared(pc, a, t, c, nbytes, is_write)
    return sanitizer.findings_list()


@pytest.mark.parametrize("seed", range(20))
def test_racecheck_of_a_chunk_equals_lane_by_lane(seed):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(8):
        lanes = int(rng.integers(1, 40))
        nbytes = int(rng.choice([1, 2, 4, 8]))
        batches.append((
            bool(rng.integers(2)), nbytes,
            rng.integers(0, 48 - nbytes, lanes, dtype=np.int64),
            rng.integers(0, 64, lanes, dtype=np.int64),
            np.sort(rng.integers(3, 5, lanes, dtype=np.int64))))
    whole = _racecheck(batches, split=False)
    assert whole == _racecheck(batches, split=True)
    assert whole, "seeded batches collide"


# ----------------------------------------------------------------------
# Stepping-tier observer: CTAs in any order, faults before the observer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast_mode", ("reference", "superblock"))
@pytest.mark.parametrize("name", ("ww_race", "rw_race", "clean_tile",
                                  "divergent_barrier", "clean_guard_exit"))
def test_interleaved_ctas_keep_their_own_state(name, fast_mode, monkeypatch):
    """A driver that round-robins ``step_warp`` over both CTAs one
    instruction at a time reports what the CTA-after-CTA run reports:
    epochs, exit pcs and race tables belong to a CTA, not to whichever
    one the observer saw last."""
    from repro.functional.executor import FunctionalEngine
    from repro.functional.state import CTAState
    want = run_entry(name, fast_mode=fast_mode)

    def round_robin(self, first_cta, limit_cta, stats, trace_ctas,
                    *_loop):
        ctas = [CTAState(self.launch, index)
                for index in range(first_cta, limit_cta)]
        budget = 0
        while not all(cta.finished for cta in ctas):
            budget += 1
            for cta in ctas:
                self.run_cta(cta, stats, max_warp_instructions=budget)

    monkeypatch.setattr(FunctionalEngine, "_run_range_scalar", round_robin)
    got = run_entry(name, fast_mode=fast_mode)
    assert got.findings == want.findings
    assert got.counters == want.counters


def test_faulting_shared_access_is_unchecked_on_every_tier():
    """``buf[2 * tid]`` over a 32-float tile: the upper half-warp leaves
    the shared window and the launch faults.  No tier racechecks or
    counts the faulting instruction (the stepping tiers never reach the
    observer; megablock must not check the in-window lanes first)."""
    from repro.errors import SimulationFault
    from repro.ptx.builder import PTXBuilder
    b = PTXBuilder("shared_overrun", [("dst", "u64")])
    b.shared("buf", "f32", 32)
    b.ld_param("u64", "dst")
    tid = b.special("%tid.x")
    base = b.reg("u64")
    b.ins("mov.u64", base, "buf")
    value = b.reg("f32")
    b.ins("cvt.rn.f32.u32", value, tid)
    b.ins("st.shared.f32", f"[{b.elem_addr(base, tid, elem_bytes=8)}]",
          value)
    seen = {}
    for fast_mode in FAST_MODES:
        backend = FunctionalBackend(fast_mode=fast_mode, sanitize=True)
        rt = CudaRuntime(backend=backend)
        rt.load_ptx(b.build(), "shared_overrun")
        rt.launch("shared_overrun", (2, 1, 1), (32, 1, 1),
                  [rt.malloc(256)])
        with pytest.raises(SimulationFault):
            rt.synchronize()
        seen[fast_mode] = (backend.sanitize.findings_list(),
                           backend.sanitize.counters)
    assert all(value == seen["reference"] for value in seen.values()), seen
    assert seen["reference"][1]["checked_accesses"] == 0


# ----------------------------------------------------------------------
# Finding funnel / shard merge semantics
# ----------------------------------------------------------------------
class TestFindingMerge:
    def test_dedup_by_site_counts_add(self):
        san = Sanitizer()
        san.record("S601", "k", 7, "first message")
        san.record("S601", "k", 7, "later message", count=3)
        [entry] = san.findings_list()
        assert entry["count"] == 4
        assert entry["message"] == "first message"

    def test_merge_is_deterministic_and_additive(self):
        shard0 = [{"kernel": "k", "rule": "S601", "pc": 7,
                   "message": "a", "count": 2}]
        shard1 = [{"kernel": "k", "rule": "S601", "pc": 7,
                   "message": "b", "count": 3},
                  {"kernel": "k", "rule": "S603", "pc": 2,
                   "message": "c", "count": 1}]
        merged = Sanitizer.merge_findings([shard0, shard1])
        assert [(f["rule"], f["pc"], f["count"]) for f in merged] == [
            ("S601", 7, 5), ("S603", 2, 1)]
        assert merged[0]["message"] == "a"  # lowest shard wins


def _copy_next_to_untouched(backend):
    """Launch the corpus copy kernel ``src -> dst`` with a never-written
    buffer sharing ``dst``'s fresh page; return (shadow, other)."""
    entry = CLEAN["clean_exact"]
    rt = CudaRuntime(backend=backend)
    try:
        rt.load_ptx(entry.build(), "copy_next_to_untouched")
        src = rt.upload_f32(np.arange(64, dtype=np.float32))
        rt.malloc(8192)            # dst lands on a page src never touched
        dst = rt.malloc(64 * 4)
        other = rt.malloc(64 * 4)
        rt.launch(entry.name, (2, 1, 1), (32, 1, 1), [src, dst])
        rt.synchronize()
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
    assert rt.global_mem.shadow.range_initialized(dst, 64 * 4)
    return rt.global_mem.shadow, other


def test_shard_merge_does_not_initialise_poison_fill():
    """A shard worker materialises dst's page poison-filled; diffing it
    against zeros reported every fill byte as a write and the merge
    marked the neighbouring buffer initialised (S602 false negative)."""
    from repro.service.pool import ShardedFunctionalBackend
    shadow, other = _copy_next_to_untouched(
        FunctionalBackend(fast_mode="superblock", sanitize=True))
    assert not shadow.range_initialized(other, 4)
    shadow, other = _copy_next_to_untouched(ShardedFunctionalBackend(
        2, fast_mode="superblock", sanitize=True))
    assert not shadow.range_initialized(other, 4)


def test_every_tier_marks_the_one_init_map_in_place():
    """A scalar store (through ``gm.write``) and a megablock store (a
    scatter into a view of the map) leave the same marks, with nothing
    to fold back afterwards."""
    scalar, _ = _copy_next_to_untouched(
        FunctionalBackend(fast_mode="superblock", sanitize=True))
    vector, _ = _copy_next_to_untouched(
        FunctionalBackend(fast_mode="megablock", sanitize=True))
    assert bytes(vector.dense()) == bytes(scalar.dense())
    assert 1 in scalar.dense() and 0 in scalar.dense()
    assert not hasattr(vector, "absorb_dense")


def test_shadow_snapshot_round_trips_the_dense_map_into_a_shard():
    """What a shard worker does: restore memory, attach, restore marks."""
    from repro.sanitize.shadow import attach_shadow
    shadow, other = _copy_next_to_untouched(
        FunctionalBackend(fast_mode="megablock", sanitize=True))
    state = shadow.snapshot()
    assert all(isinstance(base, int) and isinstance(marks, bytes)
               for base, marks in state.items())
    worker = GlobalMemory(uninit_read="poison")
    worker.restore(shadow._gm.snapshot())
    copy = attach_shadow(worker)
    copy.restore(state)
    assert bytes(copy.dense()) == bytes(shadow.dense())
    assert copy.snapshot() == state
    assert not copy.range_initialized(other, 4)


# ----------------------------------------------------------------------
# Uninitialized-read policy (GlobalMemory satellite)
# ----------------------------------------------------------------------
class TestUninitReadPolicy:
    def test_zeros_policy_default(self):
        gm = GlobalMemory()
        base = gm.allocate(16)
        assert gm.read(base, 4) == b"\x00" * 4

    def test_poison_policy_fills_cd(self):
        gm = GlobalMemory(uninit_read="poison")
        base = gm.allocate(16)
        assert gm.read(base, 4) == b"\xcd" * 4

    def test_raise_policy_raises(self):
        from repro.errors import SimulationFault
        gm = GlobalMemory(uninit_read="raise")
        base = gm.allocate(16)
        with pytest.raises(SimulationFault, match="never-written"):
            gm.read(base, 4)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="uninit_read"):
            GlobalMemory(uninit_read="wishful")

    def test_sanitized_runtime_defaults_to_poison(self):
        rt = CudaRuntime(backend=FunctionalBackend(sanitize=True))
        assert rt.global_mem.uninit_read == "poison"
        assert getattr(rt.global_mem, "shadow", None) is not None


def test_disabled_runtime_has_no_shadow_cost():
    """With sanitize off (the default), no shadow state is attached and
    the backend carries no sanitizer — the megablock fast path stays
    hook-free."""
    rt = CudaRuntime()
    assert getattr(rt.global_mem, "shadow", None) is None
    assert rt.global_mem.uninit_read == "zeros"
    assert rt.backend.sanitize is None


# ----------------------------------------------------------------------
# Fault-injection cross-check: a seeded bitflip in address arithmetic
# must surface as a bounds finding at the *consuming* instruction
# ----------------------------------------------------------------------
def test_bitflip_in_address_register_caught_as_oob():
    from repro.faultinject import FaultSpec, faulty_runtime_factory
    from repro.ptx.parser import parse_module
    from repro.sanitize.corpus import _clean_guarded, _setup_clean_guarded

    ptx = _clean_guarded()
    kernel = parse_module(ptx, "xcheck").kernel("clean_guarded")
    # The consuming global load, and the instruction that defines its
    # address register (the flip target).
    load = next(i for i in kernel.body
                if i.opcode == "ld" and i.space == "global")
    addr_reg = load.operands[1].name
    from repro.analysis.dataflow import defs_of
    flip_pc = max(i.index for i in kernel.body
                  if i.index < load.index and addr_reg in defs_of(i))
    # clean_guarded's geometry makes BOUNDS unprovable (grid 64 threads
    # over a 50-float allocation behind a tid guard), so the dynamic
    # check is armed and must see the corrupted address.
    spec = FaultSpec(fault_id="xcheck", site="register_bitflip",
                     kernel="clean_guarded", pc=flip_pc, bit=20, lane=3)
    runtime = faulty_runtime_factory(
        spec,
        backend_factory=lambda: FunctionalBackend(sanitize=True))()
    runtime.load_ptx(ptx, "xcheck")
    grid, block, args = _setup_clean_guarded(runtime)
    runtime.launch("clean_guarded", grid, block, args)
    runtime.synchronize()
    findings = runtime.backend.sanitize.findings_list()
    assert any(f["rule"] == "S601" and f["pc"] == load.index
               and f["kernel"] == "clean_guarded" for f in findings), (
        f"bitflip at pc {flip_pc} not caught at consuming load "
        f"pc {load.index}: {findings}")


def test_clean_run_with_injector_armed_but_not_fired_is_silent():
    """An armed injector that never fires (dyn_index beyond the run)
    must leave the sanitizer silent, so any finding in a campaign is
    attributable to the fault."""
    from repro.faultinject import FaultSpec, faulty_runtime_factory
    from repro.sanitize.corpus import _clean_guarded, _setup_clean_guarded

    spec = FaultSpec(fault_id="noop", site="register_bitflip",
                     kernel="clean_guarded", pc=0, bit=20,
                     dyn_index=1_000_000)
    runtime = faulty_runtime_factory(
        spec,
        backend_factory=lambda: FunctionalBackend(sanitize=True))()
    runtime.load_ptx(_clean_guarded(), "xcheck")
    grid, block, args = _setup_clean_guarded(runtime)
    runtime.launch("clean_guarded", grid, block, args)
    runtime.synchronize()
    assert runtime.backend.sanitize.findings_list() == []


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------
class TestReport:
    def _sanitizer_with_finding(self):
        run = run_entry("oob_load", fast_mode="superblock")
        return run

    def test_text_report_names_rule_and_pc(self):
        from repro.sanitize import render_text
        run = self._sanitizer_with_finding()
        text = render_text(run.findings, counters=run.counters)
        assert "S601" in text
        assert f"pc {run.expected_pc}" in text

    def test_json_report_round_trips(self):
        import json
        from repro.sanitize import render_json
        run = self._sanitizer_with_finding()
        data = json.loads(render_json(run.findings,
                                      counters=run.counters))
        assert data["findings"][0]["rule"] == "S601"
        assert data["counters"]["findings"] >= 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_unknown_workload_is_usage_error(self, capsys):
        from repro.sanitize.cli import main
        assert main(["--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_no_mode_is_usage_error(self):
        from repro.sanitize.cli import main
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    @pytest.mark.parametrize("workload", ["saxpy", "conv", "lenet"])
    def test_workload_job_clean(self, workload, capsys):
        """``repro-sanitize --workload NAME``: every job runner of the
        service, sanitized on megablock, reports nothing."""
        from repro.sanitize.cli import main
        assert main(["--workload", workload,
                     "--fast-mode", "megablock"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_embedded_static_stage_clean(self, capsys):
        from repro.sanitize.cli import main
        assert main(["--all-embedded", "--format", "json"]) == 0
        import json
        data = json.loads(capsys.readouterr().out)
        assert data["files"] > 0
        assert data["findings"] == []


# ----------------------------------------------------------------------
# Stock workloads: the zero-findings gate
# ----------------------------------------------------------------------
def _sanitized_runtime():
    backend = FunctionalBackend(fast_mode="megablock", sanitize=True)
    return CudaRuntime(backend=backend), backend


@pytest.mark.slow
def test_lenet_forward_clean_under_megablock(app_binary):
    from repro.workloads.mnist_sample import MnistSample, MnistSampleConfig
    rt, backend = _sanitized_runtime()
    rt.load_binary(app_binary)
    MnistSample(rt, MnistSampleConfig(images=1)).run()
    rt.synchronize()
    assert backend.sanitize.findings_list() == []
    assert backend.sanitize.counters["skipped_proven"] > 0


@pytest.mark.slow
def test_conv_sample_clean_under_megablock(app_binary):
    from repro.cudnn.api import ConvFwdAlgo
    from repro.workloads.conv_sample import ConvSample
    rt, backend = _sanitized_runtime()
    rt.load_binary(app_binary)
    ConvSample(rt).run_forward(ConvFwdAlgo.IMPLICIT_GEMM)
    rt.synchronize()
    assert backend.sanitize.findings_list() == []


@pytest.mark.slow
def test_predicated_blend_clean_under_megablock(app_binary):
    from repro.workloads.predicated_blend import PredicatedBlend
    rt, backend = _sanitized_runtime()
    rt.load_binary(app_binary)
    PredicatedBlend(rt).run()
    rt.synchronize()
    assert backend.sanitize.findings_list() == []
