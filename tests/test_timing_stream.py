"""The timing model's two stream producers are one simulator.

A launch is *recorded* (megablock pre-pass, replayed by the cycle loop)
or *live* (stepped inside the loop); which one is part of the engine's
per-launch admission (``repro.functional.executor.admit``: its
``live_why``).  These tests force each side through that function and
require identical simulated results.
"""

import gc
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cudnn import ConvFwdAlgo
from repro.errors import CycleBudgetExceededError
from repro.functional import executor
from repro.functional.memory import GLOBAL_BASE
from repro.functional.state import WarpState
from repro.nn.lenet import LeNetConfig
from repro.ptx.builder import PTXBuilder
from repro.timing import GTX1050, TINY, TimingBackend
from repro.timing.stream import _line_order
from repro.trace.tracer import Tracer
from repro.workloads.conv_sample import ConvSample, ConvSampleConfig
from repro.workloads.mnist_sample import MnistSample, MnistSampleConfig
from repro.workloads.predicated_blend import (
    PredicatedBlend, PredicatedBlendConfig)

CONFIGS = [pytest.param(replace(config, warp_scheduler=policy),
                        id=f"{config.name}-{policy}")
           for config in (TINY, GTX1050) for policy in ("lrr", "gto")]


def reduced_lenet() -> MnistSampleConfig:
    """The net of the repo benchmark's ``lenet_timing`` workload."""
    return MnistSampleConfig(images=1, seed=7, lenet=LeNetConfig.reduced(
        conv1_fwd=ConvFwdAlgo.IMPLICIT_GEMM,
        conv2_fwd=ConvFwdAlgo.WINOGRAD_NONFUSED,
        conv1_channels=3, conv2_channels=4, fc_hidden=24))


# ----------------------------------------------------------------------
# Hand kernels: the cases a recording could plausibly get wrong
# ----------------------------------------------------------------------
def _predicated_off_kernel() -> str:
    """``ld.global`` under a guard no lane passes, then under one that
    only the first warp of each CTA passes."""
    b = PTXBuilder("pred_off", [("data", "u64"), ("out", "u64")])
    data = b.ld_param("u64", "data")
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    gtid = b.global_tid_x()
    never = b.reg("pred")
    b.ins("setp.lt.u32", never, tid, "0")
    first_warp = b.reg("pred")
    b.ins("setp.lt.u32", first_warp, tid, "32")
    value = b.imm_f32(3.0)
    addr = b.elem_addr(data, gtid)
    b.ins("ld.global.f32", value, f"[{addr}]", pred=never)
    b.ins("ld.global.f32", value, f"[{addr}]", pred=first_warp)
    b.ins("add.f32", value, value, value, pred=first_warp)
    b.store_global_f32(b.elem_addr(out, gtid), value)
    return b.build()


def _straddle_kernel(lane_bytes: int = 256) -> str:
    """``ld.v2``/``st.v4`` whose per-lane span crosses a 128 B line,
    lanes far enough apart that no other lane touches a lane's second
    line.  At 128 KiB apart every line id is congruent mod 1024: they
    collide in the model's line set, whose iteration order then depends
    on the order the lanes were inserted."""
    b = PTXBuilder("straddle", [("data", "u64"), ("out", "u64")])
    data = b.ld_param("u64", "data")
    out = b.ld_param("u64", "out")
    gtid = b.global_tid_x()
    lo, hi = b.reg("f32"), b.reg("f32")
    src = b.elem_addr(data, gtid, elem_bytes=lane_bytes)
    b.ins("ld.global.v2.f32", f"{{{lo}, {hi}}}", f"[{src}+124]")
    dst = b.elem_addr(out, gtid, elem_bytes=lane_bytes)
    b.ins("st.global.v4.f32", f"[{dst}+120]",
          f"{{{lo}, {hi}, {hi}, {lo}}}")
    return b.build()


def _falls_off_kernel(intra_warp: bool = False,
                      falls_last: bool = False) -> str:
    """Some threads run off the end of the kernel (no ``exit`` after
    their store); the rest do more work and exit.  Split by warp, the
    first warp of each CTA retires without a last instruction.  Split
    *within* each warp (odd lanes work), the lanes that fall off leave
    a warp whose other lanes still wait on its SIMT stack — or, with
    *falls_last*, run second and end the warp by falling off."""
    b = PTXBuilder("falls_off", [("data", "u64"), ("out", "u64")])
    data = b.ld_param("u64", "data")
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    gtid = b.global_tid_x()
    value = b.load_global_f32(b.elem_addr(data, gtid))
    dst = b.elem_addr(out, gtid)
    works = b.reg("pred")
    if intra_warp:
        bit = b.reg("u32")
        b.ins("and.b32", bit, tid, "1")
        b.ins("setp.ne.u32", works, bit, "0")
    else:
        b.ins("setp.ge.u32", works, tid, "32")
    tail = b.fresh_label("tail")
    if falls_last:
        # The taken side of a split warp runs first: send the working
        # lanes there.
        work = b.fresh_label("work")
        b.ins(f"bra {work}", pred=works)
        b.ins(f"bra {tail}")
        b.place(work)
    else:
        b.ins(f"bra {tail}", pred=works, pred_neg=True)
    for _ in range(12):
        b.ins("mul.f32", value, value, value)
    b.store_global_f32(dst, value)
    b.exit()
    b.place(tail)
    b.store_global_f32(dst, value)
    head, _exit, tail_text = b.build().rpartition("    exit;\n")
    return head + tail_text


def _branchy_kernel() -> str:
    """A branch uniform within each warp, then one that splits every
    warp, with different work on each side and no barrier."""
    b = PTXBuilder("branchy", [("data", "u64"), ("out", "u64")])
    data = b.ld_param("u64", "data")
    out = b.ld_param("u64", "out")
    tid = b.special("%tid.x")
    gtid = b.global_tid_x()
    addr = b.elem_addr(data, gtid)
    value = b.load_global_f32(addr)
    upper = b.reg("pred")
    b.ins("setp.ge.u32", upper, tid, "32")
    with b.if_then(upper):
        b.ins("add.f32", value, value, value)
        b.ins("mul.f32", value, value, value)
    bit = b.reg("u32")
    b.ins("and.b32", bit, tid, "1")
    odd = b.reg("pred")
    b.ins("setp.ne.u32", odd, bit, "0")
    with b.if_then(odd):
        other = b.load_global_f32(addr, offset=4)
        b.ins("add.f32", value, value, other)
    with b.if_then(odd, negate=True):
        b.ins("sub.f32", value, value, value)
    b.store_global_f32(b.elem_addr(out, gtid), value)
    return b.build()


def run_lenet(runtime):
    MnistSample(runtime, reduced_lenet()).run(self_check=False)


def run_conv(algo):
    def run(runtime):
        ConvSample(runtime, ConvSampleConfig(
            channels=1, height=4, width=4, filters=1)).run_forward(algo)
    return run


def run_blend(runtime):
    PredicatedBlend(runtime, PredicatedBlendConfig(ctas=6)).run()


def run_hand(ptx, name, ctas, tpb, stride=1):
    """One launch of a two-pointer kernel over ``ctas * tpb`` threads,
    *stride* floats per thread."""
    def run(runtime):
        runtime.load_ptx(ptx(), name)
        # Slack past the last thread for the +124/+120 byte offsets.
        floats = ctas * tpb * stride + 64
        rng = np.random.default_rng(5)
        data = runtime.upload_f32(
            rng.standard_normal(floats).astype(np.float32))
        out = runtime.upload_f32(np.zeros(floats, np.float32))
        runtime.launch(name, (ctas, 1, 1), (tpb, 1, 1), [data, out])
    return run


#: (workload, recordable): predicated_blend's bars sit behind its
#: divergent tid guard, so the model runs it live unless forced.
WORKLOADS = {
    "lenet": (run_lenet, True),
    **{f"conv-{algo.value}": (run_conv(algo), True)
       for algo in ConvFwdAlgo},
    "predicated_blend": (run_blend, False),
    "predicated_off": (run_hand(_predicated_off_kernel, "pred_off", 3, 64),
                       True),
    "straddle": (run_hand(_straddle_kernel, "straddle", 3, 64, stride=64),
                 True),
    "straddle-colliding": (
        run_hand(lambda: _straddle_kernel(1 << 17), "straddle", 2, 16,
                 stride=1 << 15), True),
    "falls_off": (run_hand(_falls_off_kernel, "falls_off", 3, 64), True),
    "falls_off-mid-warp": (
        run_hand(lambda: _falls_off_kernel(True), "falls_off", 3, 64), True),
    "falls_off-ends-warp": (
        run_hand(lambda: _falls_off_kernel(True, True), "falls_off", 3, 64),
        True),
    "tpb48": (run_hand(_branchy_kernel, "branchy", 5, 48), True),
    "branches": (run_hand(_branchy_kernel, "branchy", 3, 64), True),
}


def force(monkeypatch, producer):
    """Admit every launch with the *producer* the test wants."""
    real = executor.admit
    live_why = {"live": "forced by the test", "recorded": None}[producer]
    monkeypatch.setattr(
        executor, "admit",
        lambda *args, **kwargs: real(*args, **kwargs)._replace(
            live_why=live_why))


def simulate(run, config, monkeypatch, producer):
    """Run *run* on a fresh device with every launch on *producer*;
    return everything the simulation produced."""
    force(monkeypatch, producer)
    backend = TimingBackend(config)
    runtime = CudaRuntime(backend=backend)
    run(runtime)
    runtime.synchronize()
    assert {entry["source"] for entry in backend.launch_sources} == {
        producer}
    samples = [
        {name: dict(table) if isinstance(table, dict) else table
         for name, table in vars(profile.result.samples).items()
         if name != "clock"}
        for profile in runtime.profiles]
    memory = bytes(runtime.global_mem.read(
        GLOBAL_BASE, runtime.global_mem._next - GLOBAL_BASE))
    return {
        "stats": [asdict(stats) for stats in backend.kernel_stats],
        "samples": samples,
        "instructions": [p.result.instructions for p in runtime.profiles],
        "memory": memory,
    }


class TestRecordedEqualsLive:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_same_simulation(self, workload, config, monkeypatch):
        run, _recordable = WORKLOADS[workload]
        live = simulate(run, config, monkeypatch, "live")
        recorded = simulate(run, config, monkeypatch, "recorded")
        assert recorded["stats"] == live["stats"]
        assert recorded["instructions"] == live["instructions"]
        assert recorded["samples"] == live["samples"]
        assert recorded["memory"] == live["memory"]

    def test_grid_wider_than_one_chunk(self, monkeypatch):
        """The pre-pass runs a wide grid chunk by chunk; CTAs become
        resident across chunk boundaries."""
        from repro.functional import megablock
        monkeypatch.setattr(megablock, "CHUNK_THREADS", 96)
        run = run_hand(_branchy_kernel, "branchy", 7, 48)
        live = simulate(run, TINY, monkeypatch, "live")
        assert simulate(run, TINY, monkeypatch, "recorded") == live

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_the_model_picks_the_producer(self, workload):
        """Unforced: recordable workloads record every launch; the rest
        run live and say why."""
        run, recordable = WORKLOADS[workload]
        backend = TimingBackend(TINY)
        runtime = CudaRuntime(backend=backend)
        run(runtime)
        runtime.synchronize()
        for entry in backend.launch_sources:
            if recordable:
                assert entry["source"] == "recorded", entry
            else:
                assert entry["source"] == "live"
                assert "barrier reachable under divergence" in entry["why"]

    def test_line_order_fast_path(self):
        """Expansion builds single-line spans with ``set(list)``; it
        must iterate like the lane-by-lane set the model defined."""
        rng = np.random.default_rng(0)
        for size in (1, 2, 7, 32, 33, 200):
            lines = rng.integers(0, 5 * size, size).tolist()
            assert tuple(set(lines)) == _line_order(lines, lines)


class TestObservability:
    def test_reduced_lenet_is_all_recorded(self):
        """A regression to live stepping (~3x slower) fails here, not
        only in a benchmark."""
        tracer = Tracer()
        backend = TimingBackend(GTX1050)
        runtime = CudaRuntime(backend=backend, tracer=tracer)
        MnistSample(runtime, reduced_lenet()).run(self_check=False)
        sources = backend.launch_sources
        assert len(sources) == 15
        assert [entry["source"] for entry in sources] == ["recorded"] * 15
        events = [event for event in tracer.events
                  if event.name.startswith("timing:")]
        assert len(events) == 15
        assert all(event.args["source"] == "recorded"
                   and "why" not in event.args for event in events)

    def test_live_launch_says_why(self, app_binary):
        """``red`` has no vector rendering: its value order is the issue
        order, so the launch steps inside the cycle loop."""
        tracer = Tracer()
        backend = TimingBackend(TINY)
        runtime = CudaRuntime(backend=backend, tracer=tracer)
        runtime.load_binary(app_binary)
        from repro.cudnn import Cudnn, PoolingDescriptor, TensorDescriptor
        dnn = Cudnn(runtime)
        rng = np.random.default_rng(2)
        desc = TensorDescriptor(1, 1, 4, 4)
        x = runtime.upload_f32(rng.standard_normal(16).astype(np.float32))
        pool = PoolingDescriptor(window=2, stride=2)
        y_desc, argmax = dnn.pooling_forward(pool, desc, x,
                                             runtime.malloc(16))
        dy = runtime.upload_f32(np.ones(4, np.float32))
        dnn.pooling_backward(pool, desc, y_desc, dy, argmax,
                             runtime.malloc(64))
        runtime.synchronize()
        live = [entry for entry in backend.launch_sources
                if entry["source"] == "live"]
        assert [entry["kernel"] for entry in live] == ["cudnn_maxpool_bwd"]
        assert "no vector emitter for red" in live[0]["why"]
        event = next(event for event in tracer.events
                     if event.name == "timing:cudnn_maxpool_bwd")
        assert event.args["source"] == "live"
        assert event.args["why"] == live[0]["why"]


class TestNoFunctionalStateLeaks:
    @pytest.mark.parametrize("producer", ["recorded", "live"])
    def test_no_warp_survives_a_pass_without_the_collector(
            self, producer, monkeypatch):
        """Retired CTAs are freed by reference counting alone — recorded
        launches build none, live ones release theirs (the cycle-leak
        item ROADMAP closed as done; it was 6(c) before PR 20's
        renumbering, and 6(c) now names something else)."""
        if producer == "live":
            force(monkeypatch, producer)
        gc.collect()
        gc.disable()
        try:
            runtime = CudaRuntime(backend=TimingBackend(GTX1050))
            MnistSample(runtime, reduced_lenet()).run(self_check=False)
            survivors = sum(isinstance(obj, WarpState)
                            for obj in gc.get_objects())
        finally:
            gc.enable()
        assert survivors == 0


class TestPrePassBudget:
    def test_spinning_kernel_ends_in_the_budget_error(self):
        """A kernel that never terminates would hang a functional
        pre-pass; its warp-instruction budget raises what the cycle
        loop's ``max_cycles`` would have."""
        b = PTXBuilder("spin", [("out", "u64")])
        b.ld_param("u64", "out")
        head = b.fresh_label("spin")
        b.place(head)
        b.ins(f"bra {head}")
        backend = TimingBackend(TINY, max_cycles=10_000)
        runtime = CudaRuntime(backend=backend)
        runtime.load_ptx(b.build(), "spin")
        runtime.launch("spin", (2, 1, 1), (64, 1, 1),
                       [runtime.malloc(16)])
        start = time.perf_counter()
        with pytest.raises(CycleBudgetExceededError, match="exceeded"):
            runtime.synchronize()
        assert time.perf_counter() - start < 10
        assert backend.launch_sources[-1]["source"] == "recorded"
