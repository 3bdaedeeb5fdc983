"""Fault-injection subsystem tests: specs, sites, and the campaign's
central claim — the three-level debugger localises seeded bugs."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cudnn import (
    ActivationDescriptor, Cudnn, LRNDescriptor, TensorDescriptor)
from repro.debugtool import (
    DifferentialDebugger, instrument_kernel, instrumented_sites)
from repro.errors import (
    CudaError, CycleBudgetExceededError, FaultInjectionError, ReproError,
    TimingDeadlockError)
from repro.faultinject import (
    FaultInjector, FaultSpec, faulty_runtime_factory, instruction_signature,
    match_site)
from repro.ptx.parser import parse_module
from repro.timing import TINY, TimingBackend

from helpers import CountedWorkload

RELU = "cudnn_relu_fwd"


def _relu_workload(x):
    def workload(dnn: Cudnn) -> None:
        rt = dnn.rt
        x_ptr = rt.upload_f32(x)
        y_ptr = rt.malloc(x.nbytes)
        dnn.activation_forward(ActivationDescriptor("relu"), x_ptr,
                               y_ptr, x.size)
    return workload


def _run_digest(factory, workload, binary):
    import hashlib
    runtime = factory()
    runtime.load_binary(binary)
    workload(Cudnn(runtime))
    runtime.synchronize()
    hasher = hashlib.sha256()
    for base in sorted(runtime.global_mem.allocations):
        size = runtime.global_mem.allocations[base]
        hasher.update(runtime.global_mem.read(base, size))
    return hasher.hexdigest()


class TestFaultSpec:
    def test_roundtrip(self):
        spec = FaultSpec(fault_id="f1", site="register_bitflip",
                         kernel="k", pc=7, bit=5, lane=3, seed=99)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_compact_dict_omits_defaults(self):
        spec = FaultSpec(fault_id="f2", site="stream_event_lost")
        assert spec.to_dict() == {"fault_id": "f2",
                                  "site": "stream_event_lost"}

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault site"):
            FaultSpec(fault_id="f", site="cosmic_ray")

    def test_functional_site_needs_target(self):
        with pytest.raises(FaultInjectionError, match="needs kernel"):
            FaultSpec(fault_id="f", site="instruction_semantics")

    def test_probability_validated(self):
        with pytest.raises(FaultInjectionError, match="probability"):
            FaultSpec(fault_id="f", site="register_bitflip", kernel="k",
                      pc=0, probability=1.5)

    def test_bad_dict_raises_typed_error(self):
        with pytest.raises(FaultInjectionError, match="bad fault spec"):
            FaultSpec.from_dict({"fault_id": "f", "site": "register_bitflip",
                                 "kernel": "k", "pc": 0, "bogus": 1})


class TestSignatureMatching:
    HEADER = ".version 6.0\n.target sm_60\n.address_size 64\n"

    def test_site_survives_instrumentation(self, app_binary):
        """A pc in the original body maps to the same instruction in
        the instrumented reprint, despite inserted logging code."""
        rt = CudaRuntime()
        rt.load_binary(app_binary)
        kernel = rt.program.find_kernel(RELU)
        instrumented = instrument_kernel(kernel, entries_per_thread=32)
        reparsed = parse_module(instrumented.ptx,
                                "instrumented").kernel(RELU)
        for pc in instrumented_sites(kernel):
            mapped = match_site(kernel.body, reparsed.body, pc)
            assert (instruction_signature(reparsed.body[mapped])
                    == instruction_signature(kernel.body[pc]))
            assert reparsed.body[mapped].opcode == kernel.body[pc].opcode

    def test_rank_disambiguates_duplicates(self):
        ptx = self.HEADER + """
.entry dup() {
    .reg .b32 %r<2>;
    mov.u32 %r0, 1;
    add.s32 %r1, %r0, %r0;
    add.s32 %r1, %r0, %r0;
    exit;
}"""
        kernel = parse_module(ptx).kernel("dup")
        assert match_site(kernel.body, kernel.body, 1) == 1
        assert match_site(kernel.body, kernel.body, 2) == 2

    def test_out_of_range_pc_rejected(self):
        ptx = self.HEADER + ".entry k() { exit; }"
        kernel = parse_module(ptx).kernel("k")
        with pytest.raises(FaultInjectionError, match="out of range"):
            match_site(kernel.body, kernel.body, 9)


class TestFunctionalSites:
    def test_semantics_fault_changes_output(self, app_binary):
        x = np.linspace(0.5, 4.0, 32, dtype=np.float32)
        spec = FaultSpec(fault_id="sem", site="instruction_semantics",
                         kernel=RELU, pc=11, bit=22)
        clean = _run_digest(CudaRuntime, _relu_workload(x), app_binary)
        faulty = _run_digest(faulty_runtime_factory(spec),
                             _relu_workload(x), app_binary)
        assert clean != faulty

    def test_bitflip_hits_single_lane(self, app_binary):
        x = np.ones(32, dtype=np.float32)
        spec = FaultSpec(fault_id="bf", site="register_bitflip",
                         kernel=RELU, pc=11, bit=22, lane=5)
        runtime = faulty_runtime_factory(spec)()
        runtime.load_binary(app_binary)
        dnn = Cudnn(runtime)
        x_ptr = runtime.upload_f32(x)
        y_ptr = runtime.malloc(x.nbytes)
        dnn.activation_forward(ActivationDescriptor("relu"), x_ptr,
                               y_ptr, x.size)
        runtime.synchronize()
        y = runtime.download_f32(y_ptr, 32)
        assert (y != x).sum() == 1  # exactly one corrupted element
        assert y[5] != 1.0

    def test_non_register_pc_rejected(self, app_binary):
        spec = FaultSpec(fault_id="bad", site="instruction_semantics",
                         kernel=RELU, pc=14)  # exit: no register dest
        runtime = faulty_runtime_factory(spec)()
        runtime.load_binary(app_binary)
        dnn = Cudnn(runtime)
        x_ptr = runtime.upload_f32(np.ones(8, np.float32))
        with pytest.raises(FaultInjectionError, match="no general-register"):
            dnn.activation_forward(ActivationDescriptor("relu"), x_ptr,
                                   runtime.malloc(32), 8)
            runtime.synchronize()

    def test_same_seed_byte_identical_runs(self, app_binary):
        """Replayability: the same spec produces the same corrupted
        memory image, run after run — including probabilistic firing."""
        x = np.linspace(-2.0, 2.0, 64, dtype=np.float32)
        spec = FaultSpec(fault_id="det", site="register_bitflip",
                         kernel=RELU, pc=10, bit=3, lane=2,
                         probability=0.5, seed=1234)
        factory = faulty_runtime_factory(spec)
        first = _run_digest(factory, _relu_workload(x), app_binary)
        second = _run_digest(factory, _relu_workload(x), app_binary)
        assert first == second

    def test_dyn_index_fires_once(self, app_binary):
        x = np.ones(64, dtype=np.float32)  # two warps
        spec = FaultSpec(fault_id="dyn", site="register_bitflip",
                         kernel=RELU, pc=11, bit=22, lane=0, dyn_index=1)
        runtime = faulty_runtime_factory(spec)()
        runtime.load_binary(app_binary)
        dnn = Cudnn(runtime)
        x_ptr = runtime.upload_f32(x)
        y_ptr = runtime.malloc(x.nbytes)
        dnn.activation_forward(ActivationDescriptor("relu"), x_ptr,
                               y_ptr, x.size)
        runtime.synchronize()
        y = runtime.download_f32(y_ptr, 64)
        assert (y != x).sum() == 1
        assert y[32] != 1.0  # second dynamic hit = warp 1, lane 0


class TestBisectionLocalisation:
    @pytest.mark.parametrize("site,pc", [
        ("instruction_semantics", 11),
        ("register_bitflip", 10),
    ])
    def test_exact_instruction_hit(self, app_binary, site, pc):
        """The tentpole claim in miniature: a seeded functional fault is
        localised to the exact injected instruction at level 3."""
        x = np.linspace(0.5, 4.0, 32, dtype=np.float32)
        spec = FaultSpec(fault_id="loc", site=site, kernel=RELU, pc=pc,
                         bit=22, lane=3, seed=7)
        workload = CountedWorkload(_relu_workload(x))
        debugger = DifferentialDebugger(
            workload,
            suspect_factory=faulty_runtime_factory(spec),
            binary=app_binary, entries_per_thread=64)
        report = debugger.run()
        assert report.level == 3
        assert "cudnnActivationForward" in report.api_name
        assert report.kernel_name == RELU
        assert report.instruction.pc == pc
        assert report.to_dict()["instruction"]["pc"] == pc
        # One pass per side feeds levels 1-2, one more captures the
        # bad launch; the instrumented replays run no application.
        assert workload.calls == 3

    def test_clean_suspect_reports_clean(self, app_binary):
        x = np.linspace(0.5, 4.0, 32, dtype=np.float32)
        workload = CountedWorkload(_relu_workload(x))
        debugger = DifferentialDebugger(
            workload, suspect_factory=CudaRuntime, binary=app_binary)
        report = debugger.run()
        assert report.clean and report.level == 0
        assert workload.calls == 2

    def test_localises_inside_a_texture_kernel(self, app_binary):
        """Level 3 replays the bound cudaArray too: a flip right after
        the ``tex`` fetch of the LRN-through-texture kernel is found,
        not lost to two equally faulting replays."""
        x = np.linspace(0.5, 4.0, 36, dtype=np.float32)

        def workload(dnn: Cudnn) -> None:
            rt = dnn.rt
            dnn.lrn_forward(
                LRNDescriptor(nsize=3), TensorDescriptor(1, 4, 3, 3),
                rt.upload_f32(x), rt.malloc(x.nbytes), use_texture=True)

        kernel = "cudnn_lrn_fwd_tex"
        program = CudaRuntime()
        program.load_binary(app_binary)
        body = program.program.find_kernel(kernel).body
        pc = next(inst.index for inst in body if inst.opcode == "tex") + 1
        spec = FaultSpec(fault_id="tex", site="register_bitflip",
                         kernel=kernel, pc=pc, bit=22, lane=3, seed=7)
        report = DifferentialDebugger(
            workload, suspect_factory=faulty_runtime_factory(spec),
            binary=app_binary, entries_per_thread=256).run()
        assert report.kernel_name == kernel
        assert report.notes == []
        assert report.instruction is not None
        assert report.instruction.pc == pc


class TestLivenessSites:
    def test_mem_drop_raises_timing_deadlock(self, app_binary, rng):
        """A lost read response must be diagnosed as a deadlock, not
        misreported as a cycle-budget overrun — and never hang."""
        spec = FaultSpec(fault_id="md", site="mem_drop_response",
                         dyn_index=0)
        factory = faulty_runtime_factory(
            spec, backend_factory=lambda: TimingBackend(
                TINY, max_cycles=500_000))
        runtime = factory()
        runtime.load_binary(app_binary)
        dnn = Cudnn(runtime)
        x_ptr = runtime.upload_f32(
            rng.standard_normal(64).astype(np.float32))
        dnn.activation_forward(ActivationDescriptor("relu"), x_ptr,
                               runtime.malloc(256), 64)
        with pytest.raises(TimingDeadlockError):
            runtime.synchronize()

    def test_mem_drop_requires_timing_backend(self):
        spec = FaultSpec(fault_id="md", site="mem_drop_response")
        with pytest.raises(FaultInjectionError, match="timing backend"):
            faulty_runtime_factory(spec)()

    def test_stream_event_lost_raises_cuda_error(self, app_binary):
        spec = FaultSpec(fault_id="se", site="stream_event_lost")
        runtime = faulty_runtime_factory(spec)()
        runtime.load_binary(app_binary)
        producer, consumer = runtime.stream_create(), runtime.stream_create()
        event = runtime.event_create()
        data = np.ones(4, dtype=np.float32)
        ptr = runtime.upload_f32(data)
        runtime.memcpy_h2d_async(ptr, data, producer)
        runtime.event_record(event, producer)
        runtime.stream_wait_event(consumer, event)
        runtime.memcpy_h2d_async(ptr, data, consumer)
        with pytest.raises(CudaError, match="deadlock"):
            runtime.synchronize()

    def test_unknown_registry_site(self):
        spec = FaultSpec(fault_id="x", site="register_bitflip",
                         kernel="k", pc=0)
        injector = FaultInjector(spec)
        assert injector.adapter.site == "register_bitflip"


class TestCampaignDriver:
    def test_smoke_campaign_scores_and_serialises(self, app_binary,
                                                  tmp_path, monkeypatch):
        """A tiny campaign over a fast workload: every effective fault
        localised, zero false-cleans, JSON round-trips."""
        import json
        from repro.harness import faultcampaign

        x = np.linspace(0.5, 4.0, 32, dtype=np.float32)
        monkeypatch.setitem(faultcampaign.WORKLOADS, "relu",
                            lambda: _relu_workload(x))
        config = faultcampaign.CampaignConfig(
            faults=2, seed=5, workloads=("relu",),
            entries_per_thread=64, include_liveness=True)
        scoreboard = faultcampaign.run_campaign(config)
        summary = scoreboard["summary"]
        assert summary["functional_total"] == 2
        assert summary["false_clean"] == 0
        assert summary["liveness_typed_errors"] == summary["liveness_total"]
        text = json.dumps(scoreboard, indent=2, sort_keys=True)
        assert json.loads(text) == json.loads(text)
        path = tmp_path / "scoreboard.json"
        path.write_text(text)
        assert "exact_rate" in json.loads(path.read_text())["summary"]

    def test_campaign_deterministic(self, monkeypatch):
        """Same seed, same scoreboard — byte for byte."""
        import json
        from repro.harness import faultcampaign

        x = np.linspace(0.5, 4.0, 32, dtype=np.float32)
        monkeypatch.setitem(faultcampaign.WORKLOADS, "relu",
                            lambda: _relu_workload(x))
        config = faultcampaign.CampaignConfig(
            faults=1, seed=11, workloads=("relu",),
            entries_per_thread=64, include_liveness=False)
        first = json.dumps(faultcampaign.run_campaign(config),
                           sort_keys=True)
        second = json.dumps(faultcampaign.run_campaign(config),
                            sort_keys=True)
        assert first == second
