"""Workload tests: conv_sample, the MNIST sample and the
predicated_blend megablock showcase (functional mode)."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cudnn import ConvBwdDataAlgo, ConvBwdFilterAlgo, ConvFwdAlgo
from repro.workloads import (
    ConvSample, ConvSampleConfig, MnistSample, MnistSampleConfig,
    PredicatedBlend, PredicatedBlendConfig)

from conftest import conv2d_ref


class TestConvSample:
    @pytest.fixture()
    def sample(self, runtime):
        return ConvSample(runtime,
                          ConvSampleConfig(batch=1, channels=2, height=8,
                                           width=8, filters=3))

    def test_forward_produces_kernels_and_correct_result(self, sample,
                                                         runtime):
        profiles = sample.run_forward(ConvFwdAlgo.WINOGRAD_NONFUSED)
        assert len(profiles) == 4
        assert profiles[0].name == "winograd_input_transform"

    def test_each_direction_runs(self, sample):
        assert sample.run_forward(ConvFwdAlgo.IMPLICIT_GEMM)
        assert sample.run_backward_data(ConvBwdDataAlgo.ALGO_1)
        assert sample.run_backward_filter(ConvBwdFilterAlgo.ALGO_1)

    def test_fft_forward_matches_reference(self, sample, runtime):
        sample.run_forward(ConvFwdAlgo.FFT)
        # The forward wrote into a fresh y buffer; recompute via API to
        # grab the pointer.
        y_desc, y = sample.dnn.convolution_forward(
            sample.x_desc, sample.x, sample.w_desc, sample.w,
            sample.conv, ConvFwdAlgo.FFT)
        got = runtime.download_f32(y, y_desc.size).reshape(y_desc.dims)
        expected = conv2d_ref(sample.x_host.astype(np.float64),
                              sample.w_host.astype(np.float64),
                              sample.config.pad, 1)
        assert np.abs(got - expected).max() < 1e-3


class TestMnistSample:
    def test_runs_and_self_checks(self, runtime):
        sample = MnistSample(runtime, MnistSampleConfig(images=2))
        result = sample.run()
        assert result.self_check_passed
        assert result.logits.shape == (2, 10)
        assert len(result.predictions) == 2

    def test_uses_the_papers_kernel_families(self, runtime):
        """MNIST must exercise FFT, Winograd, LRN, pooling and GEMV —
        "a wide variety of cuDNN layers such as LRN and Winograd"."""
        sample = MnistSample(runtime, MnistSampleConfig(images=1))
        sample.run(self_check=False)
        names = {entry["name"] for entry in runtime.launch_log}
        assert any("fft2d_r2c" in name for name in names)
        assert any("winograd" in name for name in names)
        assert any("lrn" in name for name in names)
        assert any("maxpool" in name for name in names)
        assert any("gemv2T" in name for name in names)
        assert any("cgemm" in name for name in names)

    def test_three_images_default(self, runtime):
        """The paper's headline workload size: three images."""
        assert MnistSampleConfig().images == 3


class TestPredicatedBlend:
    def _run(self, mode, ctas=6):
        from repro.cuda.runtime import FunctionalBackend
        rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
        sample = PredicatedBlend(rt, PredicatedBlendConfig(ctas=ctas))
        profiles = sample.run()
        insts = sum(p.result.instructions for p in profiles)
        ys, sums = sample.results()
        return sample, insts, ys, sums

    def test_matches_the_numpy_reference(self):
        sample, _, ys, sums = self._run("megablock")
        want_ys, want_sums = sample.expected()
        assert (ys == want_ys).all()
        assert (sums == want_sums).all()

    def test_all_tiers_agree_without_leaving_the_vector_path(self):
        from repro.functional import megablock
        megablock.reset_events()
        seen = {}
        for mode in ("reference", "fastpath", "superblock",
                     "megablock"):
            _, insts, ys, sums = self._run(mode)
            seen[mode] = (insts, ys.tobytes(), sums.tobytes())
        ref = seen.pop("reference")
        for mode, got in seen.items():
            assert got == ref, f"{mode} differs from reference"
        # The whole point of the widened subset: predicated stores,
        # predicated arithmetic and seven barriers, zero fallbacks,
        # zero bailouts.
        assert megablock.EVENTS["fallbacks"] == 0
        assert megablock.EVENTS["bailouts"] == 0


class TestZeroFaultCampaign:
    def test_clean_campaign_reports_all_clean(self):
        """With no faults injected, the campaign must record clean
        digests for every workload and report nothing effective —
        the debugger's false-positive floor."""
        from repro.harness.faultcampaign import (
            CampaignConfig, run_campaign)
        scoreboard = run_campaign(CampaignConfig(
            faults=0, workloads=("conv_sample",), include_liveness=False))
        summary = scoreboard["summary"]
        assert summary["functional_total"] == 0
        assert summary["effective"] == 0
        assert summary["false_clean"] == 0
        assert summary["liveness_total"] == 0
        assert set(scoreboard["clean"]) == {"conv_sample"}
        assert all(len(entry["digest"]) == 64
                   and entry["kernel_launches"] > 0
                   for entry in scoreboard["clean"].values())
        assert scoreboard["faults"] == []
