"""NVProf-style profiler + ptxjit kernel extraction/replay tests."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cuda.fatbinary import FatBinary
from repro.cudnn import (
    ConvFwdAlgo, ConvolutionDescriptor, Cudnn, FilterDescriptor,
    LRNDescriptor, TensorDescriptor)
from repro.debugtool.bisect import DebugToolError
from repro.debugtool.ptxjit import ExtractedKernel, KernelExtractor
from repro.harness.profiler import NVProfLike
from repro.timing import TINY, TimingBackend

from helpers import CountedWorkload

RNG = np.random.default_rng(21)
X = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
W = RNG.standard_normal((3, 2, 3, 3)).astype(np.float32)


def conv_workload(dnn):
    rt = dnn.rt
    x = rt.upload_f32(X.ravel())
    w = rt.upload_f32(W.ravel())
    dnn.convolution_forward(TensorDescriptor(*X.shape), x,
                            FilterDescriptor(*W.shape), w,
                            ConvolutionDescriptor(pad_h=1, pad_w=1),
                            ConvFwdAlgo.WINOGRAD_NONFUSED)


def lrn_texture_workload(dnn):
    """LRN reading its input through the texture path: the launch
    depends on a bound cudaArray, not just on global memory."""
    rt = dnn.rt
    x = rt.upload_f32(X.ravel())
    dnn.lrn_forward(LRNDescriptor(nsize=3), TensorDescriptor(*X.shape),
                    x, rt.malloc(X.nbytes), use_texture=True)


SYMBOLS_PTX = """.version 6.0
.target sm_60
.address_size 64

.global .f32 gscale = 3.0;
.const .f32 cbias = 0.5;

.visible .entry scale_by_symbols(.param .u64 data)
{
    .reg .b32 %r<1>;
    .reg .b64 %rd<3>;
    .reg .f32 %f<4>;
    ld.param.u64 %rd0, [data];
    mov.u32 %r0, %tid.x;
    mad.wide.s32 %rd1, %r0, 4, %rd0;
    mov.u64 %rd2, gscale;
    ld.global.f32 %f0, [%rd2];
    ld.const.f32 %f1, [cbias];
    ld.global.f32 %f2, [%rd1];
    fma.rn.f32 %f3, %f2, %f0, %f1;
    st.global.f32 [%rd1], %f3;
    exit;
}
"""


def symbols_workload(dnn):
    """A kernel naming module-scope variables, one of which the host
    rewrote before the launch (the capture must carry *contents*)."""
    rt = dnn.rt
    rt.memcpy_h2d(rt.get_symbol_address("gscale"),
                  np.array([1.5], dtype=np.float32))
    rt.launch("scale_by_symbols", 1, 32, [rt.upload_f32(X.ravel()[:32])])


def _symbols_binary() -> FatBinary:
    binary = FatBinary("symbols_app")
    binary.add_ptx("symbols.cu", SYMBOLS_PTX)
    return binary


class TestNVProfLike:
    def test_table_shape(self, runtime, rng):
        from repro.cudnn import Cudnn
        dnn = Cudnn(runtime)
        conv_workload(dnn)
        runtime.synchronize()
        profiler = NVProfLike(runtime)
        rows = profiler.rows()
        assert rows, "no kernels profiled"
        assert abs(sum(row.time_pct for row in rows) - 100.0) < 1e-6
        assert rows == sorted(rows, key=lambda r: -r.total_cycles)
        names = {row.name for row in rows}
        assert "sgemm_tiled_16x16" in names

    def test_render_format(self, runtime):
        from repro.cudnn import Cudnn
        dnn = Cudnn(runtime)
        conv_workload(dnn)
        runtime.synchronize()
        text = NVProfLike(runtime).render(top=3)
        assert "Time(%)" in text and "Name" in text
        assert len(text.splitlines()) == 2 + 3


#: What a launch may depend on beside global memory — workload, binary
#: (None: the application binary), captured ordinal, its kernel, index
#: of the pointer argument naming its output buffer.
DEPENDENCIES = {
    "lrn_texture": (lrn_texture_workload, None, 0, "cudnn_lrn_fwd_tex", 1),
    "module_symbols": (symbols_workload, _symbols_binary(), 0,
                       "scale_by_symbols", 0),
}


def _assert_replay_matches(extracted, workload, binary, out_arg):
    """Run the workload fully, read the buffer argument *out_arg* of
    the captured launch names, and compare it with a standalone
    replay's."""
    runtime = CudaRuntime()
    runtime.load_binary(binary)
    workload(Cudnn(runtime))
    runtime.synchronize()
    out_ptr = runtime.launch_log[extracted.ordinal]["args"][out_arg]
    base, size = runtime.global_mem.allocation_containing(out_ptr)
    original = runtime.global_mem.read(base, size)
    replayed = extracted.replay().global_mem.read(base, size)
    assert replayed == original


class TestKernelExtractor:
    @pytest.fixture(scope="class")
    def extracted(self, app_binary):
        extractor = KernelExtractor(conv_workload, binary=app_binary)
        # ordinal 2 = the batched SGEMM inside winograd_nonfused
        return extractor.extract(2)

    def test_extracts_the_right_kernel(self, extracted):
        assert extracted.name == "sgemm_tiled_16x16"
        assert extracted.grid[2] == 16  # the 16 Winograd bins
        assert ".entry sgemm_tiled_16x16" in extracted.ptx
        assert not extracted.textures and not extracted.symbols

    def test_replay_matches_in_workload_result(self, extracted,
                                               app_binary):
        """Replaying the captured GEMM standalone must produce the same
        output buffer contents as the original in-workload execution."""
        _assert_replay_matches(extracted, conv_workload, app_binary, 2)

    @pytest.mark.parametrize("dependency", sorted(DEPENDENCIES))
    def test_replay_restores_what_the_body_names(self, dependency,
                                                 app_binary):
        """... whatever else the launch depended on: a bound cudaArray,
        module-scope variables (one rewritten by the host)."""
        workload, binary, ordinal, name, out_arg = DEPENDENCIES[dependency]
        binary = binary or app_binary
        extracted = KernelExtractor(workload,
                                    binary=binary).extract(ordinal)
        assert extracted.name == name
        if dependency == "lrn_texture":
            assert list(extracted.textures) == ["cudnn_lrn_input_tex"]
        else:
            assert sorted(extracted.symbols) == ["cbias", "gscale"]
            assert ".global .f32 gscale[1];" in extracted.ptx
        _assert_replay_matches(extracted, workload, binary, out_arg)

    def test_replay_under_timing_backend(self, extracted):
        """Section VI: study an extracted kernel with profiling tools."""
        profile = extracted.profile(TimingBackend(TINY))
        assert profile.name == "sgemm_tiled_16x16"
        assert profile.result.cycles > 0
        assert profile.result.samples is not None

    def test_save_load_roundtrip(self, extracted, tmp_path):
        path = extracted.save(tmp_path / "gemm.kernel")
        loaded = ExtractedKernel.load(path)
        assert loaded.name == extracted.name
        assert loaded.args == extracted.args
        replay_rt = loaded.replay()
        assert replay_rt.profiles[-1].name == extracted.name

    def test_extract_all_bounded(self, app_binary):
        """... and in one pass of the application."""
        workload = CountedWorkload(conv_workload)
        extractor = KernelExtractor(workload, binary=app_binary)
        kernels = extractor.extract_all(limit=3)
        assert [k.ordinal for k in kernels] == [0, 1, 2]
        assert kernels[0].name == "winograd_input_transform"
        assert workload.calls == 1

    def test_missing_ordinal_raises(self, app_binary):
        extractor = KernelExtractor(conv_workload, binary=app_binary)
        with pytest.raises(DebugToolError, match="never launched"):
            extractor.extract(999)
