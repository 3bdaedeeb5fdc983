"""Checkpoint/resume tests (paper Section III-F, Figures 4-5)."""

import hashlib

import numpy as np
import pytest

from repro.checkpoint import (
    Checkpoint, CheckpointingBackend, ResumeBackend, capture_cta,
    restore_cta)
from repro.cuda import CudaRuntime
from repro.cuda.runtime import FunctionalBackend
from repro.errors import CheckpointError
from repro.faultinject import FaultInjector, FaultSpec
from repro.ptx.builder import PTXBuilder
from repro.service.pool import ShardedFunctionalBackend
from repro.timing import TINY, TimingBackend
from repro.trace.tracer import Tracer


def _chain_kernels() -> str:
    """Two kernels used as a 2-kernel application: k0 doubles, k1 adds
    tid; both use shared memory so Data1 is non-trivial."""
    parts = []
    for name, body in (("k_double", "add.f32 %fv, %fv, %fv"),
                       ("k_addtid", None)):
        b = PTXBuilder(name, [("data", "u64"), ("n", "u32")])
        data = b.ld_param("u64", "data")
        n = b.ld_param("u32", "n")
        tid = b.global_tid_x()
        b.guard_tid_below(tid, n)
        b.shared("stage", "f32", 64)
        sbase = b.reg("u64")
        b.ins("mov.u64", sbase, "stage")
        ltid = b.special("%tid.x")
        saddr = b.elem_addr(sbase, ltid)
        addr = b.elem_addr(data, tid)
        value = b.load_global_f32(addr)
        b.ins("st.shared.f32", f"[{saddr}]", value)
        b.bar_sync()
        staged = b.reg("f32")
        b.ins("ld.shared.f32", staged, f"[{saddr}]")
        out = b.reg("f32")
        if name == "k_double":
            b.ins("add.f32", out, staged, staged)
        else:
            ftid = b.reg("f32")
            b.ins("cvt.rn.f32.u32", ftid, tid)
            b.ins("add.f32", out, staged, ftid)
        b.store_global_f32(addr, out)
        parts.append(b.build())
    return "\n".join(parts)


N = 128


def _workload(rt: CudaRuntime, data: np.ndarray) -> int:
    ptr = rt.upload_f32(data)
    rt.launch("k_double", (2, 1, 1), (64, 1, 1), [ptr, N])
    rt.launch("k_addtid", (2, 1, 1), (64, 1, 1), [ptr, N])
    rt.synchronize()
    return ptr


@pytest.fixture()
def data(rng):
    return rng.standard_normal(N).astype(np.float32)


@pytest.fixture()
def expected(data):
    return data * 2 + np.arange(N, dtype=np.float32)


def _make_rt(backend=None) -> CudaRuntime:
    rt = CudaRuntime(backend=backend) if backend else CudaRuntime()
    rt.load_ptx(_chain_kernels(), "chain.cu")
    return rt


class TestCheckpointCapture:
    def test_checkpoint_at_kernel1_cta0(self, data):
        backend = CheckpointingBackend(kernel_ordinal=1, first_cta=0,
                                       partial_ctas=1,
                                       warp_instruction_budget=6)
        rt = _make_rt(backend)
        _workload(rt, data)
        cp = backend.checkpoint
        assert cp is not None
        assert cp.kernel_name == "k_addtid"
        assert len(cp.cta_snapshots) == 1
        snap = cp.cta_snapshots[0]
        assert len(snap.warps) == 2  # 64-thread CTA
        # Data1 captured mid-flight: budget respected per warp.
        for warp in snap.warps:
            assert warp.instructions_executed <= 6
        # Data2 is the full global-memory image.
        assert cp.global_memory["pages"]

    def test_save_load_roundtrip(self, data, tmp_path):
        backend = CheckpointingBackend(1, 0, 1, 4)
        rt = _make_rt(backend)
        _workload(rt, data)
        path = backend.checkpoint.save(tmp_path / "ck.bin")
        loaded = Checkpoint.load(path)
        assert loaded.kernel_name == backend.checkpoint.kernel_name
        assert (loaded.cta_snapshots[0].shared
                == backend.checkpoint.cta_snapshots[0].shared)

    def test_out_of_enqueue_order_execution_is_refused(self, data):
        """Kernel ``x`` is a launch ordinal — enqueue order.  A stream
        that runs an earlier-enqueued kernel after ``x`` would drop it
        from both flows; that is an error, not a wrong checkpoint."""
        rt = _make_rt(CheckpointingBackend(1, 0, 1, 4))
        ptr = rt.upload_f32(data)
        rt.launch("k_double", (2, 1, 1), (64, 1, 1), [ptr, N],
                  stream=rt.stream_create())  # ordinal 0, drains second
        rt.launch("k_addtid", (2, 1, 1), (64, 1, 1), [ptr, N])
        with pytest.raises(CheckpointError, match="enqueue order"):
            rt.synchronize()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            Checkpoint.load(tmp_path / "missing.bin")


class TestResume:
    def _checkpoint(self, data, *, m=0, t=1, y=6) -> Checkpoint:
        backend = CheckpointingBackend(1, m, t, y)
        rt = _make_rt(backend)
        _workload(rt, data)
        return backend.checkpoint

    def test_resume_functional_matches_full_run(self, data, expected):
        cp = self._checkpoint(data)
        from repro.cuda.runtime import FunctionalBackend
        rt = _make_rt(ResumeBackend(cp, FunctionalBackend()))
        ptr = _workload(rt, data)
        got = rt.download_f32(ptr, N)
        assert np.allclose(got, expected, atol=1e-5)

    def test_resume_performance_mode(self, data, expected):
        """The paper's use case: functional to the checkpoint, then
        performance simulation from there."""
        cp = self._checkpoint(data)
        timing = TimingBackend(TINY)
        rt = _make_rt(ResumeBackend(cp, timing))
        ptr = _workload(rt, data)
        got = rt.download_f32(ptr, N)
        assert np.allclose(got, expected, atol=1e-5)
        # The resumed kernel really went through the timing model.
        assert len(timing.kernel_stats) >= 1
        assert timing.kernel_stats[0].cycles > 0

    def test_resume_mid_cta_boundary(self, data, expected):
        cp = self._checkpoint(data, m=1, t=1, y=4)
        from repro.cuda.runtime import FunctionalBackend
        rt = _make_rt(ResumeBackend(cp, FunctionalBackend()))
        ptr = _workload(rt, data)
        assert np.allclose(rt.download_f32(ptr, N), expected, atol=1e-5)

    def test_resume_kernel_mismatch_detected(self, data):
        cp = self._checkpoint(data)
        object.__setattr__(cp, "kernel_name", "something_else") if False \
            else setattr(cp, "kernel_name", "something_else")
        from repro.cuda.runtime import FunctionalBackend
        rt = _make_rt(ResumeBackend(cp, FunctionalBackend()))
        with pytest.raises(CheckpointError, match="mismatch"):
            _workload(rt, data)


# ---------------------------------------------------------------------------
# One functional launch path: every backend reports the same launch
# ---------------------------------------------------------------------------
def _traced_run(make_backend, data, prepare=None):
    """Run the two-kernel workload traced; return its observables."""
    tracer = Tracer()
    backend = make_backend()
    rt = CudaRuntime(backend=backend, tracer=tracer)
    rt.load_ptx(_chain_kernels(), "chain.cu")
    if prepare is not None:
        prepare(rt)
    ptr = _workload(rt, data)
    digest = hashlib.sha256(rt.memcpy_d2h(ptr, 4 * N)).hexdigest()
    if hasattr(backend, "close"):
        backend.close()
    slices = [e for e in tracer.events
              if e.cat == "engine" and "tier" in (e.args or {})]
    return rt, digest, slices


def _arm_fault_that_never_fires(rt: CudaRuntime) -> None:
    """Hook every instruction of k_addtid (so it steps) but never fire."""
    body = rt.program.find_kernel("k_addtid").body
    pc = next(i for i, inst in enumerate(body) if inst.opcode == "add")
    FaultInjector(FaultSpec(
        "never", "register_bitflip", kernel="k_addtid", pc=pc,
        dyn_index=10 ** 9)).attach(rt)


def _checkpoint_then(make_inner):
    """A factory of 'checkpoint at (1, M=1, t=1, y=4), then resume into
    *make_inner*' — returns the resume backend, remembers both flows."""
    flows = {}

    def make(data):
        checkpointer = CheckpointingBackend(1, 1, 1, 4)
        flows["checkpoint"] = _traced_run(lambda: checkpointer, data)
        flows["inner"] = make_inner()
        return ResumeBackend(checkpointer.checkpoint, flows["inner"])
    return make, flows


def _launches(*runs):
    """Per launch ordinal: name, instructions and per-opcode counts,
    summed over the flows that executed part of it."""
    merged = {}
    for rt, _digest, _slices in runs:
        for ordinal, profile in enumerate(rt.profiles):
            entry = merged.setdefault(
                ordinal, {"name": profile.name, "instructions": 0,
                          "per_opcode": {}})
            entry["instructions"] += profile.instructions
            counts = profile.result.stats.get("per_opcode", {})
            for opcode, count in counts.items():
                entry["per_opcode"][opcode] = (
                    entry["per_opcode"].get(opcode, 0) + count)
    return merged


class TestLaunchParity:
    """Bare, faulting, sharded and checkpoint/resume backends all run a
    launch through ``FunctionalBackend.execute`` + ``run_range``."""

    @pytest.fixture()
    def bare(self, data):
        return _traced_run(FunctionalBackend, data)

    @pytest.mark.parametrize("make_backend, prepare, label", [
        (FunctionalBackend, _arm_fault_that_never_fires, "functional"),
        (lambda: ShardedFunctionalBackend(2, inline_below=100), None,
         "functional"),
        (lambda: ShardedFunctionalBackend(2), None, "sharded"),
    ], ids=["fault-never-fires", "sharded-inline", "sharded-2"])
    def test_functional_backends_agree(self, data, bare, make_backend,
                                       prepare, label):
        rt, digest, slices = _traced_run(make_backend, data, prepare)
        assert digest == bare[1]
        assert _launches((rt, digest, slices)) == _launches(bare)
        assert [e.name for e in slices] == [
            f"{label}:k_double", f"{label}:k_addtid"]
        if label == "sharded":
            assert [e.args["shards"] for e in slices] == [2, 2]

    def test_checkpoint_then_functional_resume(self, data, bare):
        make, flows = _checkpoint_then(FunctionalBackend)
        resumed = _traced_run(lambda: make(data), data)
        assert resumed[1] == bare[1]
        assert _launches(flows["checkpoint"], resumed) == _launches(bare)
        # One slice per launch a flow executed: the checkpoint flow runs
        # both kernels, the resume flow skips k_double.
        assert [e.name for e in flows["checkpoint"][2]] == [
            "functional:k_double", "functional:k_addtid"]
        assert [e.name for e in resumed[2]] == ["functional:k_addtid"]
        for run in (flows["checkpoint"], resumed):
            assert (run[0].profiles[1].result.stats.keys()
                    == bare[0].profiles[1].result.stats.keys())

    def test_checkpoint_then_performance_resume(self, data, bare):
        plain = _traced_run(lambda: TimingBackend(TINY), data)
        make, flows = _checkpoint_then(lambda: TimingBackend(TINY))
        resumed = _traced_run(lambda: make(data), data)
        assert resumed[1] == bare[1] == plain[1]
        merged = _launches(flows["checkpoint"], resumed)
        assert ({k: v["instructions"] for k, v in merged.items()}
                == {k: v["instructions"]
                    for k, v in _launches(bare).items()})
        assert [e.name for e in resumed[2]] == ["timing:k_addtid"]
        assert (resumed[0].profiles[1].result.stats.keys()
                == plain[0].profiles[1].result.stats.keys())
        # The resumed kernel went through TimingBackend.execute.
        assert flows["inner"].launch_sources == [
            {"kernel": "k_addtid", "source": "live",
             "why": "restored CTAs resume mid-kernel"}]
        assert len(flows["inner"].kernel_stats) == 1


class TestCtaSnapshots:
    def test_capture_restore_roundtrip(self, data):
        from repro.cuda.loader import ProgramLoader
        from repro.cuda.fatbinary import EmbeddedPTX
        from repro.functional.memory import GlobalMemory, LinearMemory
        from repro.functional.state import CTAState, LaunchContext
        from repro.functional.executor import FunctionalEngine
        gm = GlobalMemory()
        program = ProgramLoader(gm).load_images(
            [EmbeddedPTX("chain.cu", _chain_kernels())])
        kernel = program.find_kernel("k_double")
        ptr = gm.allocate(4 * N)
        gm.write(ptr, data.tobytes())
        pm = LinearMemory(16)
        pm.write_uint(kernel.params[0].offset, ptr, 8)
        pm.write_uint(kernel.params[1].offset, N, 4)
        launch = LaunchContext(kernel=kernel, grid_dim=(2, 1, 1),
                               block_dim=(64, 1, 1), global_mem=gm,
                               param_mem=pm)
        engine = FunctionalEngine(launch)
        cta = CTAState(launch, 0)
        engine.run_cta(cta, max_warp_instructions=5)
        snapshot = capture_cta(cta)
        clone = restore_cta(launch, snapshot)
        for original, restored in zip(cta.warps, clone.warps):
            assert restored.simt.pc == original.simt.pc
            assert restored.regs == original.regs
            assert restored.instructions_executed == \
                original.instructions_executed
        # Continue both to completion; they must agree.
        engine.run_cta(cta)
        engine.run_cta(clone)
        assert all(w.finished for w in clone.warps)
