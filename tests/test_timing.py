"""Performance-model tests: cycles, IPC, stalls, caches, sampling."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.errors import CycleBudgetExceededError, TimingDeadlockError
from repro.ptx.builder import PTXBuilder, f32
from repro.timing import GTX1050, GTX1080TI, TINY, GpuTiming, TimingBackend
from repro.timing.cache import Cache
from repro.timing.config import scaled


def _compute_kernel() -> str:
    """ALU-heavy: long fma chain per thread, one load + one store."""
    b = PTXBuilder("compute_heavy", [("data", "u64"), ("n", "u32")])
    data = b.ld_param("u64", "data")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    addr = b.elem_addr(data, tid)
    acc = b.load_global_f32(addr)
    for _ in range(64):
        b.ins("fma.rn.f32", acc, acc, f32(1.0001), f32(0.1))
    b.store_global_f32(addr, acc)
    return b.build()


def _memory_kernel() -> str:
    """Memory-heavy: strided dependent loads, little compute."""
    b = PTXBuilder("memory_heavy", [("data", "u64"), ("out", "u64"),
                                    ("n", "u32")])
    data = b.ld_param("u64", "data")
    out = b.ld_param("u64", "out")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    acc = b.imm_f32(0.0)
    i = b.reg("u32")
    with b.for_range(i, 0, "16"):
        idx = b.reg("u32")
        b.ins("mad.lo.s32", idx, i, n, tid)
        value = b.load_global_f32(b.elem_addr(data, idx))
        b.ins("add.f32", acc, acc, value)
    b.store_global_f32(b.elem_addr(out, tid), acc)
    return b.build()


@pytest.fixture()
def timing_rt():
    rt = CudaRuntime(backend=TimingBackend(TINY))
    rt.load_ptx(_compute_kernel(), "c.cu")
    rt.load_ptx(_memory_kernel(), "m.cu")
    return rt


class TestTimingBasics:
    def test_cycles_and_results(self, timing_rt, rng):
        n = 128
        data = rng.standard_normal(n).astype(np.float32)
        ptr = timing_rt.upload_f32(data)
        timing_rt.launch("compute_heavy", (2, 1, 1), (64, 1, 1), [ptr, n])
        timing_rt.synchronize()
        profile = timing_rt.profiles[-1]
        assert profile.result.cycles > 100
        assert profile.result.instructions > 64 * 4  # warp instructions
        # Functional correctness is preserved in performance mode.
        expected = data.astype(np.float64)
        for _ in range(64):
            expected = expected * np.float32(1.0001) + np.float32(0.1)
        got = timing_rt.download_f32(ptr, n)
        assert np.allclose(got, expected, rtol=1e-4)

    def test_ipc_bounded_by_issue_width(self, timing_rt, rng):
        n = 256
        ptr = timing_rt.upload_f32(rng.standard_normal(n).astype(np.float32))
        timing_rt.launch("compute_heavy", (4, 1, 1), (64, 1, 1), [ptr, n])
        timing_rt.synchronize()
        stats = timing_rt.profiles[-1].result.stats
        warp_ipc = stats["warp_instructions"] / stats["cycles"]
        max_issue = TINY.num_sms * TINY.schedulers_per_sm
        assert 0 < warp_ipc <= max_issue

    def test_compute_vs_memory_bound_signature(self, timing_rt, rng):
        n = 128
        data = timing_rt.upload_f32(
            rng.standard_normal(16 * n).astype(np.float32))
        out = timing_rt.malloc(4 * n)
        timing_rt.launch("compute_heavy", (2, 1, 1), (64, 1, 1), [data, n])
        timing_rt.launch("memory_heavy", (2, 1, 1), (64, 1, 1),
                         [data, out, n])
        timing_rt.synchronize()
        compute, memory = timing_rt.profiles[-2:]
        c_stats, m_stats = compute.result.stats, memory.result.stats
        compute_ipc = c_stats["instructions"] / c_stats["cycles"]
        memory_ipc = m_stats["instructions"] / m_stats["cycles"]
        assert compute_ipc > memory_ipc
        assert m_stats["stall_mem_cycles"] > c_stats["stall_mem_cycles"]

    def test_instruction_counts_match_functional(self, rng, app_binary):
        """Execution-driven timing must retire exactly the functional
        instruction stream."""
        from repro.cudnn import Cudnn, ConvFwdAlgo, TensorDescriptor, \
            FilterDescriptor, ConvolutionDescriptor
        results = {}
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = np.ones((2, 2, 3, 3), np.float32)
        for backend in (None, TimingBackend(TINY)):
            rt = CudaRuntime(backend=backend) if backend else CudaRuntime()
            rt.load_binary(app_binary)
            dnn = Cudnn(rt)
            _yd, y = dnn.convolution_forward(
                TensorDescriptor(1, 2, 6, 6), rt.upload_f32(x.ravel()),
                FilterDescriptor(2, 2, 3, 3), rt.upload_f32(w.ravel()),
                ConvolutionDescriptor(pad_h=1, pad_w=1),
                ConvFwdAlgo.IMPLICIT_GEMM)
            rt.synchronize()
            key = "timing" if backend else "functional"
            results[key] = (rt.profiles[-1].result.instructions,
                            rt.download_f32(y, 72))
        assert results["timing"][0] == results["functional"][0]
        assert np.allclose(results["timing"][1], results["functional"][1])

    def test_max_cycles_budget_guard(self, rng):
        """Running out of cycle budget is *not* a deadlock: it raises
        the distinct CycleBudgetExceededError so callers can tell 'too
        slow' apart from 'wedged'."""
        rt = CudaRuntime(backend=TimingBackend(TINY, max_cycles=50))
        rt.load_ptx(_compute_kernel(), "c.cu")
        ptr = rt.upload_f32(rng.standard_normal(64).astype(np.float32))
        rt.launch("compute_heavy", 1, 64, [ptr, 64])
        with pytest.raises(CycleBudgetExceededError, match="exceeded"):
            rt.synchronize()
        assert not issubclass(CycleBudgetExceededError,
                              TimingDeadlockError)


class TestSampling:
    def test_sample_block_shapes(self, timing_rt, rng):
        n = 128
        ptr = timing_rt.upload_f32(rng.standard_normal(n).astype(np.float32))
        timing_rt.launch("compute_heavy", (2, 1, 1), (64, 1, 1), [ptr, n])
        timing_rt.synchronize()
        samples = timing_rt.profiles[-1].result.samples
        bins = samples.num_bins()
        assert samples.global_ipc_series().shape == (bins,)
        assert samples.shader_ipc_matrix().shape == (TINY.num_sms, bins)
        assert samples.dram_efficiency_matrix().shape == (
            TINY.num_partitions, bins)
        issue = samples.warp_issue_matrix()
        assert all(series.shape == (bins,) for series in issue.values())

    def test_issue_slots_accounted(self, timing_rt, rng):
        """Every scheduler-cycle lands in exactly one issue bucket."""
        n = 64
        ptr = timing_rt.upload_f32(rng.standard_normal(n).astype(np.float32))
        timing_rt.launch("compute_heavy", 1, 64, [ptr, n])
        timing_rt.synchronize()
        samples = timing_rt.profiles[-1].result.samples
        issue = samples.warp_issue_matrix()
        total_slots = sum(float(series.sum()) for series in issue.values())
        assert total_slots > 0

    def test_stall_span_distributes_across_bins(self):
        from repro.timing.stats import SampleBlock
        samples = SampleBlock(interval=10, num_sms=1, num_partitions=1,
                              banks_per_partition=1)
        samples.cycles = 40
        samples.stall_span(5, 35, [0, 1, 0, 0])     # one W0_mem slot
        # [5, 10), [10, 20), [20, 30), [30, 35)
        assert list(samples.warp_issue_matrix()["W0_mem"]) == [5, 10, 10, 5]
        samples.stall_span(7, 7, [0, 1, 0, 0])  # empty span: no-op
        assert sum(series.sum() for series
                   in samples.warp_issue_matrix().values()) == 30

    def test_long_idle_jump_charged_flat(self):
        """A long idle jump must be spread over every interval it
        covers, not spike the interval containing its start: both the
        SM's own span (``charge_asleep``) and what the jump adds
        (``_charge_idle``: here the idle scheduler of the SM that has no
        CTA)."""
        from dataclasses import replace
        from types import SimpleNamespace
        from repro.timing.shader import SMCore
        from repro.timing.stats import KernelStats, SampleBlock
        from repro.timing.stream import GLOBAL, MEM, OPS, WarpStream
        config = replace(TINY, schedulers_per_sm=1)
        samples = SampleBlock(interval=10, num_sms=2, num_partitions=1,
                              banks_per_partition=1)
        stats = KernelStats()
        jumped = [0, 0, 0, 0]
        # Real SMs; the only warp issues one load at cycle 0 and then
        # waits: the memory system here never answers.
        sms = [SMCore(sm_id, config, source=None,
                      memsys=SimpleNamespace(submit=lambda req, now: None),
                      stats=stats, samples=samples, jumped=jumped)
               for sm_id in range(config.num_sms)]
        load = (MEM | GLOBAL, 32, ((7,), ()), False)
        sms[0].assign_cta(0, [WarpStream(iter([load]).__next__)], 0.0)
        assert sms[0].issue_cycle(0.0) == (True, [])
        GpuTiming._charge_idle(samples, jumped, t0=0.0, t1=100.0)
        sms[0].charge_asleep(100.0)
        issued = [0] * OPS
        issued[MEM | GLOBAL] = 1
        GpuTiming._fold_issue_stats(issued, samples, stats, config)
        assert stats.stall_mem_cycles == 99
        assert stats.idle_scheduler_cycles == 99
        samples.cycles = 100
        for bucket in ("W0_mem", "W0_idle"):
            series = list(samples.warp_issue_matrix()[bucket])
            assert sum(series) == 99
            # Flat band: every covered interval gets its share, and no
            # interval holds more than its own width.
            assert all(0 < count <= 10 for count in series)

    def test_efficiency_bounded(self, timing_rt, rng):
        n = 128
        data = timing_rt.upload_f32(
            rng.standard_normal(16 * n).astype(np.float32))
        out = timing_rt.malloc(4 * n)
        timing_rt.launch("memory_heavy", (2, 1, 1), (64, 1, 1),
                         [data, out, n])
        timing_rt.synchronize()
        samples = timing_rt.profiles[-1].result.samples
        eff = samples.dram_efficiency_matrix()
        util = samples.dram_utilization_matrix()
        assert (eff <= 1.0 + 1e-9).all() and (eff >= 0).all()
        assert (util <= 1.0 + 1e-9).all()
        # efficiency >= utilization (active time <= total time)
        assert (eff + 1e-9 >= util).all()


class TestCacheModel:
    def test_lru_hits(self):
        cache = Cache(sets=2, ways=2, line_size=128)
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.access(64) is True  # same line
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_eviction(self):
        cache = Cache(sets=1, ways=2, line_size=128)
        cache.access(0)
        cache.access(128)
        cache.access(256)  # evicts line 0
        assert cache.access(0) is False
        assert cache.stats.evictions >= 1

    def test_sets_power_of_two(self):
        with pytest.raises(ValueError):
            Cache(sets=3, ways=1, line_size=128)

    def test_write_no_allocate(self):
        cache = Cache(sets=2, ways=2, line_size=128)
        assert cache.access(0, is_write=True) is False
        assert cache.access(0) is False  # write did not allocate


class TestConfigs:
    def test_presets(self):
        assert GTX1050.num_sms == 5
        assert GTX1080TI.num_sms == 28
        assert GTX1080TI.num_partitions == 11

    def test_scaled(self):
        half = scaled(GTX1080TI, 0.25)
        assert half.num_sms == 7
        assert half.num_partitions == 3
        assert "x0.25" in half.name


class TestResumeHooks:
    def test_first_cta_skips_work(self, rng):
        """GpuTiming honours the launch's first_cta (the Fig. 5 resume
        path)."""
        from repro.cuda.loader import ProgramLoader
        from repro.functional.memory import GlobalMemory, LinearMemory
        from repro.functional.state import LaunchContext
        gm = GlobalMemory()
        loader = ProgramLoader(gm)
        from repro.cuda.fatbinary import EmbeddedPTX
        program = loader.load_images(
            [EmbeddedPTX("c.cu", _compute_kernel())])
        kernel = program.find_kernel("compute_heavy")
        ptr = gm.allocate(4 * 256)
        pm = LinearMemory(16)
        pm.write_uint(kernel.params[0].offset, ptr, 8)
        pm.write_uint(kernel.params[1].offset, 256, 4)
        launch = LaunchContext(kernel=kernel, grid_dim=(4, 1, 1),
                               block_dim=(64, 1, 1), global_mem=gm,
                               param_mem=pm)
        full, _ = GpuTiming(TINY).simulate(launch)
        launch2 = LaunchContext(kernel=kernel, grid_dim=(4, 1, 1),
                                block_dim=(64, 1, 1), global_mem=gm,
                                param_mem=pm, first_cta=3)
        partial, _ = GpuTiming(TINY).simulate(launch2)
        assert partial.warp_instructions < full.warp_instructions
