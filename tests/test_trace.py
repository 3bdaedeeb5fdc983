"""Tests for the repro.trace layer: span invariants, Chrome-trace
schema round-trips, the unified clock, and the bridge to NVProfLike."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cuda.runtime import CudaRuntime
from repro.cudnn import Cudnn, build_application_binary
from repro.functional.executor import FunctionalEngine
from repro.harness.profiler import NVProfLike
from repro.timing.backend import TimingBackend
from repro.timing.config import GPUConfig
from repro.timing.stats import SampleBlock
from repro.trace import (
    NULL_TRACER, SimClock, TID_API, Tracer, chrome_trace_events,
    load_chrome_trace, profiles_from_trace, stream_tid,
    validate_chrome_events, write_chrome_trace)

GOLDEN_TRACE = Path(__file__).resolve().parent.parent / "results" \
    / "lenet_trace.json"

AXPY = """
.version 6.0
.target sm_70
.address_size 64
.visible .entry axpy(
    .param .u64 p_x,
    .param .u64 p_y,
    .param .f32 p_a
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<3>;
    .reg .f32 %f<4>;
    ld.param.u64 %rd1, [p_x];
    ld.param.u64 %rd2, [p_y];
    ld.param.f32 %f1, [p_a];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd1, %rd1, %rd3;
    add.u64 %rd2, %rd2, %rd3;
    ld.global.f32 %f2, [%rd1];
    ld.global.f32 %f3, [%rd2];
    fma.rn.f32 %f3, %f1, %f2, %f3;
    st.global.f32 [%rd2], %f3;
    exit;
}
"""


def _traced_axpy(tracer=None, launches=1, backend=None):
    rt = CudaRuntime(tracer=tracer, backend=backend)
    rt.load_ptx(AXPY)
    x = rt.upload_f32(np.arange(32, dtype=np.float32))
    y = rt.upload_f32(np.ones(32, dtype=np.float32))
    for _ in range(launches):
        rt.launch("axpy", 1, 32, [x, y, 2.0])
    rt.synchronize()
    return rt, rt.download_f32(y, 32)


# ---------------------------------------------------------------------------
# SimClock
# ---------------------------------------------------------------------------
class TestSimClock:
    def test_monotonic_advance(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance_to(7.5)
        assert clock.now == 7.5
        assert clock.cycles == 7

    def test_rejects_backwards(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_runtime_now_is_clock_backed(self):
        clock = SimClock()
        rt = CudaRuntime(clock=clock)
        assert rt.now == 0.0
        rt.now = 42.0
        assert clock.now == 42.0
        with pytest.raises(ValueError):
            rt.now = 41.0


# ---------------------------------------------------------------------------
# Span nesting / ordering invariants
# ---------------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.clock.advance(10)
        inner = tracer.begin("inner")
        tracer.clock.advance(5)
        assert tracer.open_depth() == 2
        closed_inner = tracer.end()
        closed_outer = tracer.end()
        assert closed_inner is inner and closed_outer is outer
        assert inner.begin_ts >= outer.begin_ts
        assert inner.end_ts <= outer.end_ts
        assert inner.duration == 5 and outer.duration == 15
        phases = [e.ph for e in tracer.events]
        assert phases == ["B", "B", "E", "E"]

    def test_end_without_begin_raises(self):
        with pytest.raises(ValueError):
            Tracer().end()

    def test_context_manager_balances(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b", cat="x"):
                pass
        assert tracer.open_depth() == 0
        assert [s.name for s in tracer.closed_spans()] == ["a", "b"]
        assert not validate_chrome_events(chrome_trace_events(tracer))

    def test_finish_closes_open_spans(self):
        tracer = Tracer()
        tracer.begin("left-open", tid=stream_tid(3))
        tracer.begin("also-open")
        tracer.finish()
        assert tracer.open_depth() == 0
        assert tracer.open_depth(stream_tid(3)) == 0
        assert not validate_chrome_events(chrome_trace_events(tracer))

    def test_per_track_stacks_are_independent(self):
        tracer = Tracer()
        tracer.begin("s1", tid=stream_tid(1))
        tracer.begin("s2", tid=stream_tid(2))
        tracer.end(tid=stream_tid(1))  # closes s1, not s2
        assert tracer.open_depth(stream_tid(2)) == 1
        assert tracer.closed_spans()[0].name == "s1"

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("nothing"):
            pass
        assert NULL_TRACER.begin("x") is None
        NULL_TRACER.counter("c", 1.0)
        NULL_TRACER.finish()


# ---------------------------------------------------------------------------
# Runtime instrumentation
# ---------------------------------------------------------------------------
class TestRuntimeTracing:
    def test_kernel_slices_on_stream_track(self):
        tracer = Tracer()
        rt, out = _traced_axpy(tracer, launches=3)
        assert np.allclose(out, 2 * np.arange(32) * 3 + 1)
        kernel_spans = tracer.closed_spans(cat="kernel")
        assert len(kernel_spans) == 3
        for span in kernel_spans:
            assert span.tid == stream_tid(0)
            assert span.args["grid"] == (1, 1, 1)
            assert span.args["instructions"] > 0
        # Slices tile the virtual timeline exactly.
        assert kernel_spans[0].end_ts == kernel_spans[1].begin_ts
        assert rt.now == kernel_spans[-1].end_ts

    def test_tracing_does_not_change_results(self):
        _, untraced = _traced_axpy(None, launches=2)
        _, traced = _traced_axpy(Tracer(), launches=2)
        assert np.array_equal(untraced, traced)

    def test_disabled_tracer_default(self):
        rt, _ = _traced_axpy(None)
        assert rt.tracer is NULL_TRACER

    def test_hot_loops_carry_no_tracer_checks(self):
        # The zero-overhead contract: the superblock issue loop and the
        # per-instruction stepper must not consult the tracer at all.
        for fn in (FunctionalEngine._run_warp_slice_fast,
                   FunctionalEngine.step_warp):
            assert "tracer" not in inspect.getsource(fn)

    def test_cta_spans_opt_in(self):
        tracer = Tracer(cta_spans=True)
        _traced_axpy(tracer)
        assert len(tracer.closed_spans(cat="cta")) == 1
        assert not validate_chrome_events(chrome_trace_events(tracer))

    def test_engine_tier_recorded(self):
        tracer = Tracer()
        _traced_axpy(tracer)
        tiers = [e for e in tracer.events if e.cat == "engine"]
        assert tiers and tiers[0].args["tier"] == "superblock"

    def test_cudnn_api_slices(self):
        tracer = Tracer()
        rt = CudaRuntime(tracer=tracer)
        rt.load_binary(build_application_binary())
        dnn = Cudnn(rt)
        a = rt.upload_f32(np.ones(16, dtype=np.float32))
        b = rt.upload_f32(np.full(16, 2.0, dtype=np.float32))
        dnn.add_tensor(a, b, b, 16)
        rt.synchronize()
        api = [e for e in tracer.events
               if e.ph == "X" and e.cat == "api"]
        assert len(api) == 1
        assert api[0].name == "cudnnAddTensor"
        assert api[0].tid == TID_API
        assert api[0].args["kernels"] == 1
        # The API slice covers its kernel's execution on the sim clock.
        kernel = tracer.closed_spans(cat="kernel")[0]
        assert api[0].ts <= kernel.begin_ts
        assert api[0].ts + api[0].dur >= kernel.end_ts


# ---------------------------------------------------------------------------
# Timing mode: unified clock + counter series
# ---------------------------------------------------------------------------
class TestTimingTrace:
    def _timing_run(self, tracer=None):
        config = GPUConfig(num_sms=2, sample_interval=64)
        return _traced_axpy(tracer, backend=TimingBackend(config))

    def test_sample_block_clock_agreement(self):
        tracer = Tracer()
        rt, _ = self._timing_run(tracer)
        result = rt.profiles[0].result
        samples = result.samples
        # The bugfix contract: the SampleBlock's cycle count comes from
        # the same clock that produced stats.cycles.
        assert samples.clock is not None
        assert samples.cycles == samples.clock.cycles
        assert samples.cycles == result.cycles

    def test_counter_series_inside_kernel_slice(self):
        tracer = Tracer()
        rt, _ = self._timing_run(tracer)
        kernel = tracer.closed_spans(cat="kernel")[0]
        counters = [e for e in tracer.events if e.ph == "C"]
        assert counters, "timing run should re-emit interval counters"
        names = {e.name for e in counters}
        assert "ipc" in names
        for event in counters:
            assert kernel.begin_ts <= event.ts <= kernel.end_ts
        assert tracer.samples  # SampleBlock attached for report bridge

    def test_sample_block_finalize_without_clock(self):
        block = SampleBlock(32, 1, 1, 1)
        block.cycles = 96
        block.finalize()  # no injected clock: manual count is kept
        assert block.cycles == 96


# ---------------------------------------------------------------------------
# Chrome-trace export round-trip
# ---------------------------------------------------------------------------
class TestExport:
    def test_schema_round_trip(self, tmp_path):
        tracer = Tracer()
        _traced_axpy(tracer, launches=2)
        path = write_chrome_trace(tmp_path / "t.json", tracer)
        events = load_chrome_trace(path)
        assert validate_chrome_events(events) == []
        for event in events:
            for key in ("ph", "ts", "pid", "tid"):
                assert key in event
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload

    def test_validator_catches_unbalanced(self):
        events = [{"name": "k", "ph": "B", "ts": 0, "pid": 1, "tid": 10}]
        assert any("unbalanced" in p
                   for p in validate_chrome_events(events))

    def test_validator_catches_missing_fields(self):
        problems = validate_chrome_events([{"name": "k", "ph": "i"}])
        assert any("missing" in p for p in problems)

    def test_bridge_profiles_match_runtime(self, tmp_path):
        tracer = Tracer()
        rt, _ = _traced_axpy(tracer, launches=4)
        path = write_chrome_trace(tmp_path / "t.json", tracer)
        assert (NVProfLike.from_trace(path).render()
                == NVProfLike(rt).render())
        records = profiles_from_trace(path)
        assert [r.instructions for r in records] \
            == [p.result.instructions for p in rt.profiles]


# ---------------------------------------------------------------------------
# Megablock tier + kernel-cache events
# ---------------------------------------------------------------------------
class TestMegablockTracing:
    @pytest.fixture(autouse=True)
    def _cache_dir(self, tmp_path, monkeypatch):
        from repro.functional import kernelcache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kc"))
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        kernelcache.reset_counters()

    def _megablock_axpy(self, tracer, launches=1, stream=None, salt="",
                        **hooks):
        # A comment-only salt defeats the in-process parse/plan caches
        # (keyed on source text) without changing the kernel's structural
        # fingerprint, so a salted re-run exercises the *disk* cache.
        from repro.cuda.runtime import FunctionalBackend
        rt = CudaRuntime(tracer=tracer,
                         backend=FunctionalBackend(fast_mode="megablock",
                                                   **hooks))
        rt.load_ptx(AXPY + f"// {salt}\n" if salt else AXPY)
        x = rt.upload_f32(np.arange(32, dtype=np.float32))
        y = rt.upload_f32(np.ones(32, dtype=np.float32))
        target = rt.stream_create() if stream else None
        for _ in range(launches):
            rt.launch("axpy", 1, 32, [x, y, 2.0], stream=target)
        rt.synchronize()
        return rt, target, rt.download_f32(y, 32)

    def test_megablock_slices_on_stream_track(self):
        tracer = Tracer()
        _, stream, out = self._megablock_axpy(tracer, launches=2,
                                              stream=True)
        assert np.allclose(out, 2 * np.arange(32) * 2 + 1)
        kernel_spans = tracer.closed_spans(cat="kernel")
        assert len(kernel_spans) == 2
        for span in kernel_spans:
            assert span.tid == stream_tid(stream.stream_id)
        tiers = [e for e in tracer.events
                 if e.cat == "engine" and "tier" in (e.args or {})]
        assert tiers and all(e.args["tier"] == "megablock" for e in tiers)
        engine_spans = tracer.closed_spans(cat="engine")
        assert any(s.name == "megablock:axpy" for s in engine_spans)

    def test_slice_reports_the_tier_that_ran(self):
        """A launch that left the requested tier says so, and why, on
        the launch's slice instead of echoing the request."""
        from repro.checkpoint import CheckpointingBackend, ResumeBackend
        from repro.cuda.runtime import FunctionalBackend
        from repro.quirks import LegacyQuirks

        def slice_args(tracer):
            (args,) = [e.args for e in tracer.events
                       if e.cat == "engine" and "tier" in (e.args or {})]
            return args["tier"], args.get("tier_why")

        def absk(backend, **runtime):
            tracer = Tracer()
            rt = CudaRuntime(tracer=tracer, backend=backend, **runtime)
            rt.load_ptx(self.ABSK)
            x = rt.upload_f32(np.arange(32, dtype=np.float32) - 16.0)
            rt.launch("absk", 1, 32, [x])
            rt.synchronize()
            return slice_args(tracer)

        def megablock():
            return FunctionalBackend(fast_mode="megablock")

        assert absk(megablock()) == (
            "superblock",
            "no vector plan (pc 5: no vector emitter for abs (abs.f32))")
        assert absk(megablock(),
                    quirks=LegacyQuirks(rem_ignores_type=True)) == (
            "reference", "quirks")
        saver = CheckpointingBackend(0, 0, warp_instruction_budget=2)
        absk(saver)
        assert absk(ResumeBackend(saver.checkpoint, megablock())) == (
            "superblock", "restored")
        assert absk(FunctionalBackend(sanitize=True)) == (
            "fastpath", "sanitize")
        seen = []
        tracer = Tracer()
        self._megablock_axpy(tracer, on_exec=seen.append)
        assert len(seen) > 0 and slice_args(tracer) == ("fastpath", "hooks")
        tracer = Tracer(cta_spans=True)
        self._megablock_axpy(tracer)
        assert slice_args(tracer) == ("superblock", "cta_spans")
        tracer = Tracer()
        self._megablock_axpy(tracer)
        assert slice_args(tracer) == ("megablock", None)

    def test_cache_instants_cold_then_warm(self):
        tracer = Tracer()
        self._megablock_axpy(tracer, salt="cold")  # miss + store
        self._megablock_axpy(tracer, salt="warm")  # fresh parse: disk hit
        instants = [e for e in tracer.events
                    if e.cat == "kernelcache" and e.ph == "i"]
        assert [e.name for e in instants] \
            == ["kernelcache:miss:axpy", "kernelcache:hit:axpy"]
        counters = [e for e in tracer.events
                    if e.ph == "C" and e.name == "kernelcache"]
        assert counters
        assert counters[-1].args["hits"] == 1

    def test_cache_events_round_trip_through_summary(self, tmp_path,
                                                     capsys):
        from repro.trace.cli import main as trace_main
        tracer = Tracer()
        # Salts differ from the other tests': the parse cache is global,
        # and a recycled kernel object would skip the disk entirely.
        self._megablock_axpy(tracer, salt="rt-cold")
        self._megablock_axpy(tracer, salt="rt-warm")
        path = write_chrome_trace(tmp_path / "mb.json", tracer)
        assert trace_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kernel cache: hit=1, miss=1" in out
        assert "axpy" in out

    ABSK = """
.version 6.0
.target sm_70
.address_size 64
.visible .entry absk(
    .param .u64 p_x
)
{
    .reg .u64 %rd<3>;
    .reg .u32 %r<2>;
    .reg .f32 %f<2>;
    ld.param.u64 %rd1, [p_x];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd1, %rd1, %rd2;
    ld.global.f32 %f1, [%rd1];
    abs.f32 %f1, %f1;
    st.global.f32 [%rd1], %f1;
    exit;
}
"""

    def _traced_absk(self, tracer):
        # abs has no vector emitter: a requested megablock launch
        # falls back to superblock and must say why on the trace.
        from repro.cuda.runtime import FunctionalBackend
        from repro.functional import megablock
        megablock.reset_events()
        rt = CudaRuntime(tracer=tracer,
                         backend=FunctionalBackend(fast_mode="megablock"))
        rt.load_ptx(self.ABSK)
        x = rt.upload_f32(np.arange(32, dtype=np.float32) - 16.0)
        rt.launch("absk", 1, 32, [x])
        rt.synchronize()
        return rt.download_f32(x, 32)

    def test_fallback_emits_instant_and_counter_series(self):
        tracer = Tracer()
        out = self._traced_absk(tracer)
        assert np.allclose(out, np.abs(np.arange(32) - 16.0))
        instants = [e for e in tracer.events
                    if e.cat == "engine" and e.ph == "i"
                    and e.name == "megablock-fallback:absk"]
        assert len(instants) == 1
        assert any("abs" in reason
                   for reason in instants[0].args["reasons"])
        counters = [e for e in tracer.events
                    if e.ph == "C" and e.name == "megablock"]
        assert counters
        assert counters[-1].args["fallbacks"] == 1
        assert counters[-1].args["bailouts"] == 0

    def test_fallback_census_in_cli_summary(self, tmp_path, capsys):
        from repro.trace.cli import main as trace_main
        tracer = Tracer()
        self._traced_absk(tracer)
        path = write_chrome_trace(tmp_path / "fb.json", tracer)
        assert trace_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "megablock fallbacks: absk=1" in out
        assert "no vector emitter for abs" in out
        assert "megablock tier events:" in out
        assert "fallbacks=1" in out


# ---------------------------------------------------------------------------
# Committed golden trace (results/lenet_trace.json)
# ---------------------------------------------------------------------------
class TestGoldenLenetTrace:
    def test_golden_trace_shape(self):
        events = load_chrome_trace(GOLDEN_TRACE)
        assert validate_chrome_events(events) == []
        kernels = [e for e in events
                   if e.get("ph") == "B" and e.get("cat") == "kernel"]
        api = [e for e in events
               if e.get("ph") == "X" and e.get("cat") == "api"]
        assert len(kernels) > 50, "LeNet trains via many kernel launches"
        assert api, "cuDNN API slices present"
        names = {e["name"] for e in kernels}
        assert "sgemm_tiled_16x16" in names
        assert "conv_bwd_data_algo1" in names

    def test_golden_trace_feeds_nvprof(self):
        rows = NVProfLike.from_trace(GOLDEN_TRACE).rows()
        assert rows and rows[0].total_cycles > 0
        assert {"conv_bwd_data_algo1", "sgemm_tiled_16x16"} \
            <= {r.name for r in rows}
