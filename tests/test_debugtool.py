"""Debug-tool tests: Section III-D's methodology, end to end.

The flagship scenario re-enacts the paper: enable the historical ``rem``
bug, run an FFT convolution, and watch the three-level bisection land on
``cudnnConvolutionForward`` -> ``fft2d_r2c`` -> the ``rem.u32``
instruction (via the lockstep golden executor)."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cudnn import (
    ActivationDescriptor, ConvFwdAlgo, ConvolutionDescriptor,
    FilterDescriptor, TensorDescriptor, build_application_binary)
from repro.debugtool import (
    DifferentialDebugger, GoldenExecutor, decode_log, format_instruction,
    format_kernel, instrument_kernel, instrumented_sites)
from repro.errors import DebugToolError
from repro.functional.memory import LinearMemory
from repro.functional.state import LaunchContext
from repro.ptx.parser import parse_module
from repro.quirks import FIXED, LegacyQuirks

HEADER = ".version 6.0\n.target sm_60\n.address_size 64\n"


class TestPtxPrinter:
    def test_roundtrip_through_parser(self, app_binary):
        """format_kernel output must re-parse to an equivalent kernel."""
        rt = CudaRuntime()
        rt.load_binary(app_binary)
        kernel = rt.program.find_kernel("implicit_gemm_fwd")
        text = format_kernel(kernel)
        reparsed = parse_module(text, "roundtrip").kernel(kernel.name)
        assert len(reparsed.body) == len(kernel.body)
        assert reparsed.labels == kernel.labels
        assert [p.offset for p in reparsed.params] == \
            [p.offset for p in kernel.params]

    def test_reprinted_kernel_executes_identically(self, rng):
        from repro.ptx.builder import PTXBuilder
        b = PTXBuilder("square", [("data", "u64"), ("n", "u32")])
        data = b.ld_param("u64", "data")
        n = b.ld_param("u32", "n")
        tid = b.global_tid_x()
        b.guard_tid_below(tid, n)
        addr = b.elem_addr(data, tid)
        v = b.load_global_f32(addr)
        b.ins("mul.f32", v, v, v)
        b.store_global_f32(addr, v)
        original = b.build()
        kernel = parse_module(original, "o").kernel("square")
        reprinted = format_kernel(kernel)

        x = rng.standard_normal(32).astype(np.float32)
        results = []
        for text in (original, reprinted):
            rt = CudaRuntime()
            rt.load_ptx(text, "sq")
            ptr = rt.upload_f32(x)
            rt.launch("square", 1, 32, [ptr, 32])
            results.append(rt.download_f32(ptr, 32))
        assert (results[0] == results[1]).all()


class TestInstrumentation:
    def test_sites_skip_stores_and_preds(self):
        ptx = HEADER + """
.entry k(.param .u64 p) {
    .reg .b32 %r<2>;
    .reg .b64 %rd<1>;
    .reg .pred %p<1>;
    ld.param.u64 %rd0, [p];
    mov.u32 %r0, 3;
    setp.lt.s32 %p0, %r0, 5;
    st.global.u32 [%rd0], %r0;
    exit;
}"""
        kernel = parse_module(ptx).kernel("k")
        sites = instrumented_sites(kernel)
        assert 0 in sites and 1 in sites   # ld.param, mov
        assert 2 not in sites              # setp (pred dest)
        assert 3 not in sites              # st

    def test_instrumented_kernel_preserves_output_and_logs(self, rng):
        from repro.ptx.builder import PTXBuilder
        b = PTXBuilder("addone", [("data", "u64"), ("n", "u32")])
        data = b.ld_param("u64", "data")
        n = b.ld_param("u32", "n")
        tid = b.global_tid_x()
        b.guard_tid_below(tid, n)
        addr = b.elem_addr(data, tid)
        v = b.load_global_f32(addr)
        b.ins("add.f32", v, v, "0f3F800000")
        b.store_global_f32(addr, v)
        kernel = parse_module(b.build(), "a").kernel("addone")
        instrumented = instrument_kernel(kernel, entries_per_thread=64)

        rt = CudaRuntime()
        rt.load_ptx(instrumented.ptx, "instr")
        x = rng.standard_normal(8).astype(np.float32)
        ptr = rt.upload_f32(x)
        threads = 8
        log_bytes = threads * instrumented.bytes_per_thread
        log = rt.malloc(log_bytes)
        rt.memset(log, 0xFF, log_bytes)
        rt.launch("addone", 1, 8, [ptr, 8, log])
        rt.synchronize()
        assert np.allclose(rt.download_f32(ptr, 8), x + 1)
        logs = decode_log(rt.memcpy_d2h(log, log_bytes), threads, 64)
        assert all(entries for entries in logs)
        # Every logged pc is a known instrumentation site.
        for entries in logs:
            for pc, _payload in entries:
                assert pc in instrumented.sites


    IDS_PTX = HEADER + """
.entry ids() {
    .reg .b32 %r<3>;
    mov.u32 %r0, %ctaid.z;
    mov.u32 %r1, %tid.z;
    mov.u32 %r2, %tid.x;
    exit;
}"""

    def _run_ids(self, entries_per_thread):
        kernel = parse_module(self.IDS_PTX).kernel("ids")
        instrumented = instrument_kernel(
            kernel, entries_per_thread=entries_per_thread)
        rt = CudaRuntime()
        rt.load_ptx(instrumented.ptx, "instr")
        grid, block = (1, 1, 2), (4, 2, 2)
        threads = 2 * 16
        log_bytes = threads * instrumented.bytes_per_thread
        log = rt.malloc(log_bytes)
        rt.memset(log, 0xFF, log_bytes)
        rt.launch("ids", grid, block, [log])
        return decode_log(rt.memcpy_d2h(log, log_bytes), threads,
                          entries_per_thread)

    def test_every_thread_of_a_z_grid_has_its_own_slot(self):
        """The slot index counts %ctaid.z and %tid.z: batched launches
        (grid z = batch) must not fold their CTAs onto one another."""
        logs = self._run_ids(entries_per_thread=8)
        for thread, entries in enumerate(logs):
            cta_z, in_cta = divmod(thread, 16)
            tid_z, tid_x = in_cta // 8, in_cta % 4
            assert [(pc, payload & 0xFFFFFFFF)
                    for pc, payload in entries] == \
                [(0, cta_z), (1, tid_z), (2, tid_x)]

    def test_full_slot_is_an_error_not_a_truncated_log(self):
        with pytest.raises(DebugToolError, match="entries_per_thread=3"):
            self._run_ids(entries_per_thread=3)


def _fft_workload_factory(x, w):
    def workload(dnn):
        rt = dnn.rt
        x_ptr = rt.upload_f32(x.ravel())
        w_ptr = rt.upload_f32(w.ravel())
        x_desc = TensorDescriptor(*x.shape)
        w_desc = FilterDescriptor(*w.shape)
        conv = ConvolutionDescriptor(pad_h=1, pad_w=1)
        scratch = rt.malloc(x.nbytes)
        dnn.activation_forward(ActivationDescriptor("relu"), x_ptr,
                               scratch, x.size)
        dnn.convolution_forward(x_desc, x_ptr, w_desc, w_ptr, conv,
                                ConvFwdAlgo.FFT_TILING)
    return workload


@pytest.fixture(scope="module")
def fft_debug_report():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
    w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    debugger = DifferentialDebugger(
        _fft_workload_factory(x, w),
        suspect_quirks=LegacyQuirks(rem_ignores_type=True))
    return debugger.run()


class TestBisection:
    def test_level1_finds_the_conv_api_call(self, fft_debug_report):
        """The relu call is clean; the FFT convolution is the first bad
        API call — exactly the paper's level-1 outcome."""
        report = fft_debug_report
        assert not report.clean
        assert report.api_index == 1
        assert "cudnnConvolutionForward" in report.api_name

    def test_level2_finds_an_fft_kernel(self, fft_debug_report):
        assert "fft2d_r2c" in fft_debug_report.kernel_name

    def test_level3_reports_an_instruction(self, fft_debug_report):
        assert fft_debug_report.instruction is not None
        assert fft_debug_report.render()

    def test_level3_names_the_static_producer_chain(self, fft_debug_report):
        """The report augments the dynamic divergence site with the
        static def-use slice of its source registers."""
        diff = fft_debug_report.instruction
        assert diff.producers, "divergent instruction has producers"
        site = diff.producers[0]
        assert {"pc", "depth", "register", "text"} <= set(site)
        rendered = fft_debug_report.render()
        assert "static producer chain" in rendered
        assert f"pc={site['pc']}" in rendered

    def test_report_dict_includes_producers(self, fft_debug_report):
        data = fft_debug_report.to_dict()
        sites = data["instruction"]["producers"]
        assert sites and all(isinstance(s["pc"], int) for s in sites)

    def test_clean_run_reports_no_divergence(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        debugger = DifferentialDebugger(
            _fft_workload_factory(x, w), suspect_quirks=FIXED)
        report = debugger.run()
        assert report.clean
        assert "no divergence" in report.render()


class TestGoldenExecutor:
    def _fft_launch(self):
        binary = build_application_binary()
        rt = CudaRuntime()
        rt.load_binary(binary)
        rng = np.random.default_rng(5)
        src = rt.upload_f32(rng.standard_normal(36).astype(np.float32))
        dst = rt.malloc(8 * 256)
        kernel = rt.program.find_kernel("fft2d_r2c_16x16")
        pm = LinearMemory(max(kernel.param_bytes, 16))
        for decl, value in zip(kernel.params,
                               [src, dst, 1, 1, 6, 6, 0, 0, 0, 0]):
            pm.write_uint(decl.offset, value, decl.dtype.bytes)
        return LaunchContext(kernel=kernel, grid_dim=(1, 1, 1),
                             block_dim=(16, 1, 1),
                             global_mem=rt.global_mem, param_mem=pm)

    def test_pinpoints_the_faulty_rem(self):
        """The lockstep comparison lands on the very instruction class
        the paper names: `rem.u32 %rX, %rY, %rZ` inside fft2d_r2c."""
        launch = self._fft_launch()
        golden = GoldenExecutor(
            launch, suspect_quirks=LegacyQuirks(rem_ignores_type=True))
        diff = golden.find_divergence()
        assert diff is not None
        assert diff.text.strip().startswith("rem.u32")

    def test_clean_kernel_has_no_divergence(self):
        launch = self._fft_launch()
        golden = GoldenExecutor(launch, suspect_quirks=FIXED)
        assert golden.find_divergence() is None

    def test_brev_quirk_reported_as_fault(self):
        launch = self._fft_launch()
        golden = GoldenExecutor(
            launch, suspect_quirks=LegacyQuirks(brev_unsupported=True))
        diff = golden.find_divergence()
        assert diff is not None
        assert "brev" in diff.text


def test_format_instruction_readable():
    ptx = HEADER + """
.entry k() {
    .reg .b32 %r<3>;
    rem.u32 %r2, %r0, %r1;
    exit;
}"""
    kernel = parse_module(ptx).kernel("k")
    assert format_instruction(kernel.body[0]).strip() == \
        "rem.u32 %r2, %r0, %r1;"
