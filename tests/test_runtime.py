"""CUDA runtime API tests: memory, launches, streams, events, driver API."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime, FatBinary
from repro.errors import CudaError
from repro.ptx.builder import PTXBuilder
from repro.quirks import LegacyQuirks


def _scale_kernel() -> str:
    b = PTXBuilder("scale2", [("src", "u64"), ("dst", "u64"),
                              ("n", "u32")])
    src = b.ld_param("u64", "src")
    dst = b.ld_param("u64", "dst")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    value = b.load_global_f32(b.elem_addr(src, tid))
    doubled = b.reg("f32")
    b.ins("add.f32", doubled, value, value)
    b.store_global_f32(b.elem_addr(dst, tid), doubled)
    return b.build()


@pytest.fixture()
def rt() -> CudaRuntime:
    runtime = CudaRuntime()
    runtime.load_ptx(_scale_kernel(), "kernels.cu")
    return runtime


class TestMemoryAPI:
    def test_memcpy_roundtrip(self, rt):
        data = np.arange(10, dtype=np.float32)
        ptr = rt.malloc(40)
        rt.memcpy_h2d(ptr, data)
        assert (rt.download_f32(ptr, 10) == data).all()

    def test_memset(self, rt):
        ptr = rt.malloc(8)
        rt.memset(ptr, 0xAB, 8)
        assert rt.memcpy_d2h(ptr, 8) == b"\xab" * 8

    def test_memcpy_d2d(self, rt):
        a = rt.upload_f32([1.0, 2.0])
        b = rt.malloc(8)
        rt.memcpy_d2d(b, a, 8)
        assert rt.download_f32(b, 2).tolist() == [1.0, 2.0]

    def test_free(self, rt):
        ptr = rt.malloc(16)
        rt.free(ptr)
        with pytest.raises(Exception):
            rt.free(ptr)


class TestLaunch:
    def test_basic_launch(self, rt):
        data = np.arange(50, dtype=np.float32)
        src = rt.upload_f32(data)
        dst = rt.malloc(200)
        rt.launch("scale2", (1, 1, 1), (64, 1, 1), [src, dst, 50])
        assert np.allclose(rt.download_f32(dst, 50), data * 2)

    def test_wrong_arg_count(self, rt):
        with pytest.raises(CudaError, match="expects 3 arguments"):
            rt.launch("scale2", 1, 1, [0, 0])

    def test_unknown_kernel(self, rt):
        with pytest.raises(CudaError, match="not found"):
            rt.launch("nope", 1, 1, [])

    def test_launch_is_async_until_sync(self, rt):
        src = rt.upload_f32([1.0])
        dst = rt.malloc(4)
        stream = rt.stream_create()
        rt.memcpy_h2d_async(dst, np.float32([0.0]), stream)
        assert not stream.idle
        rt.synchronize()
        assert stream.idle

    def test_launch_log_records(self, rt):
        src = rt.upload_f32([1.0])
        dst = rt.malloc(4)
        rt.launch("scale2", 1, 32, [src, dst, 1])
        rt.synchronize()
        assert rt.launch_log[-1]["name"] == "scale2"
        assert rt.profiles[-1].name == "scale2"
        assert rt.profiles[-1].instructions > 0

    def test_profile_summary_aggregates(self, rt):
        src = rt.upload_f32([1.0])
        dst = rt.malloc(4)
        for _ in range(3):
            rt.launch("scale2", 1, 32, [src, dst, 1])
        rt.synchronize()
        summary = rt.profile_summary()
        assert summary["scale2"]["launches"] == 3


class TestDriverAPI:
    def test_cu_launch_kernel(self, rt):
        func = rt.cu_module_get_function("scale2")
        src = rt.upload_f32([3.0])
        dst = rt.malloc(4)
        rt.cu_launch_kernel(func, 1, 32, [src, dst, 1])
        rt.synchronize()
        assert rt.download_f32(dst, 1)[0] == 6.0

    def test_cu_launch_kernel_quirk(self):
        """Pre-paper GPGPU-Sim lacked cuLaunchKernel (Section III-B)."""
        runtime = CudaRuntime(
            quirks=LegacyQuirks(cu_launch_kernel_unsupported=True))
        runtime.load_ptx(_scale_kernel(), "kernels.cu")
        func = runtime.cu_module_get_function("scale2")
        with pytest.raises(CudaError, match="cuLaunchKernel"):
            runtime.cu_launch_kernel(func, 1, 1, [0, 0, 0])


class TestStreamsAndEvents:
    def test_cross_stream_event_ordering(self, rt):
        data = np.arange(8, dtype=np.float32)
        src = rt.malloc(32)
        dst = rt.malloc(32)
        s1, s2 = rt.stream_create(), rt.stream_create()
        event = rt.event_create()
        rt.memcpy_h2d_async(src, data, s1)
        rt.event_record(event, s1)
        rt.stream_wait_event(s2, event)
        rt.launch("scale2", 1, 32, [src, dst, 8], stream=s2)
        rt.synchronize()
        assert np.allclose(rt.download_f32(dst, 8), data * 2)

    def test_stream_wait_event_quirk(self):
        """The API the paper had to add (Section III-B)."""
        runtime = CudaRuntime(
            quirks=LegacyQuirks(stream_wait_event_unsupported=True))
        stream = runtime.stream_create()
        event = runtime.event_create()
        with pytest.raises(CudaError, match="cudaStreamWaitEvent"):
            runtime.stream_wait_event(stream, event)

    def test_wait_on_unrecorded_event_does_not_block(self, rt):
        """cudaStreamWaitEvent on a never-recorded event is a no-op in
        real CUDA; it used to deadlock the simulated device."""
        stream = rt.stream_create()
        event = rt.event_create()  # never recorded
        rt.stream_wait_event(stream, event)
        dst = rt.malloc(4)
        rt.memcpy_h2d_async(dst, np.float32([9.0]), stream)
        rt.synchronize()  # must not raise
        assert stream.idle
        assert rt.download_f32(dst, 1)[0] == 9.0

    def test_deadlock_detected(self, rt):
        """A cross-stream wait cycle can never make progress."""
        s1, s2 = rt.stream_create(), rt.stream_create()
        e1, e2 = rt.event_create(), rt.event_create()
        rt.stream_wait_event(s1, e2)
        rt.event_record(e1, s1)
        rt.stream_wait_event(s2, e1)
        rt.event_record(e2, s2)
        with pytest.raises(CudaError, match="deadlock"):
            rt.synchronize()

    def test_event_timestamps(self, rt):
        src = rt.upload_f32([1.0])
        dst = rt.malloc(4)
        start = rt.event_create()
        end = rt.event_create()
        rt.event_record(start)
        rt.launch("scale2", 1, 32, [src, dst, 1])
        rt.event_record(end)
        rt.synchronize()
        assert rt.event_elapsed(start, end) > 0

    def test_stream_synchronize_only_drains_target(self, rt):
        s1, s2 = rt.stream_create(), rt.stream_create()
        hit = []
        from repro.cuda.streams import StreamOp
        s1.enqueue(StreamOp(kind="callback",
                            action=lambda: hit.append(1)))
        s2.enqueue(StreamOp(kind="callback",
                            action=lambda: hit.append(2)))
        rt.stream_synchronize(s1)
        assert 1 in hit
        assert 2 not in hit  # unrelated streams are left alone
        rt.synchronize()
        assert 2 in hit

    def test_stream_synchronize_runs_dependencies_minimally(self, rt):
        """Draining a stream runs other streams only far enough to
        satisfy its event waits."""
        from repro.cuda.streams import StreamOp
        s1, s2 = rt.stream_create(), rt.stream_create()
        event = rt.event_create()
        hit = []
        rt.event_record(event, s2)
        s2.enqueue(StreamOp(kind="callback",
                            action=lambda: hit.append("after_record")))
        rt.stream_wait_event(s1, event)
        s1.enqueue(StreamOp(kind="callback",
                            action=lambda: hit.append("target")))
        rt.stream_synchronize(s1)
        assert "target" in hit
        assert "after_record" not in hit  # s2 stopped right past the record
        assert s1.idle and not s2.idle

    def test_stream_synchronize_cycle_raises(self, rt):
        s1, s2 = rt.stream_create(), rt.stream_create()
        e1, e2 = rt.event_create(), rt.event_create()
        rt.stream_wait_event(s1, e2)
        rt.event_record(e1, s1)
        rt.stream_wait_event(s2, e1)
        rt.event_record(e2, s2)
        with pytest.raises(CudaError, match="deadlock"):
            rt.stream_synchronize(s1)

    def test_stream_queue_is_deque(self, rt):
        from collections import deque
        assert isinstance(rt.default_stream.queue, deque)
