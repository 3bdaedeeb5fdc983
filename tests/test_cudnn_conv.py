"""Convolution correctness: every cuDNN algorithm vs the NumPy reference.

This is the functional heart of the reproduction — all 17 algorithm
paths of the paper's Section V sweep, verified numerically.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cudnn import (
    ALGORITHMS, ConvBwdDataAlgo, ConvBwdFilterAlgo, ConvFwdAlgo,
    ConvolutionDescriptor, FilterDescriptor, TensorDescriptor, supported)
from repro.errors import CudnnError
from repro.workloads.conv_sample import ConvSampleConfig

from conftest import conv2d_ref, dgrad_ref, wgrad_ref

GEOM = dict(N=2, C=3, H=8, W=8, K=4, R=3, S=3, pad=1)


@pytest.fixture()
def tensors(runtime, rng):
    g = GEOM
    x = rng.standard_normal((g["N"], g["C"], g["H"], g["W"])
                            ).astype(np.float32)
    w = rng.standard_normal((g["K"], g["C"], g["R"], g["S"])
                            ).astype(np.float32) * 0.3
    x_desc = TensorDescriptor(g["N"], g["C"], g["H"], g["W"])
    w_desc = FilterDescriptor(g["K"], g["C"], g["R"], g["S"])
    conv = ConvolutionDescriptor(pad_h=g["pad"], pad_w=g["pad"])
    y_desc = conv.output_dims(x_desc, w_desc)
    dy = rng.standard_normal(y_desc.dims).astype(np.float32)
    return dict(x=x, w=w, dy=dy, x_desc=x_desc, w_desc=w_desc,
                y_desc=y_desc, conv=conv,
                x_ptr=runtime.upload_f32(x.ravel()),
                w_ptr=runtime.upload_f32(w.ravel()),
                dy_ptr=runtime.upload_f32(dy.ravel()))


@pytest.mark.parametrize("algo", list(ConvFwdAlgo))
def test_forward_algorithms(dnn, runtime, tensors, algo):
    t = tensors
    y_desc, y_ptr = dnn.convolution_forward(
        t["x_desc"], t["x_ptr"], t["w_desc"], t["w_ptr"], t["conv"], algo)
    got = runtime.download_f32(y_ptr, y_desc.size).reshape(y_desc.dims)
    expected = conv2d_ref(t["x"].astype(np.float64),
                          t["w"].astype(np.float64), GEOM["pad"], 1)
    assert np.abs(got - expected).max() < 2e-2


@pytest.mark.parametrize("algo", list(ConvBwdDataAlgo))
def test_backward_data_algorithms(dnn, runtime, tensors, algo):
    t = tensors
    dx = dnn.convolution_backward_data(
        t["w_desc"], t["w_ptr"], t["y_desc"], t["dy_ptr"], t["conv"],
        algo, t["x_desc"])
    got = runtime.download_f32(dx, t["x_desc"].size).reshape(
        t["x_desc"].dims)
    expected = dgrad_ref(t["dy"].astype(np.float64),
                         t["w"].astype(np.float64), t["x"].shape,
                         GEOM["pad"], 1)
    assert np.abs(got - expected).max() < 2e-2


@pytest.mark.parametrize("algo", list(ConvBwdFilterAlgo))
def test_backward_filter_algorithms(dnn, runtime, tensors, algo):
    t = tensors
    dw = dnn.convolution_backward_filter(
        t["x_desc"], t["x_ptr"], t["y_desc"], t["dy_ptr"], t["conv"],
        algo, t["w_desc"])
    got = runtime.download_f32(dw, t["w_desc"].size).reshape(
        t["w"].shape)
    expected = wgrad_ref(t["x"].astype(np.float64),
                         t["dy"].astype(np.float64), t["w"].shape,
                         GEOM["pad"], 1)
    assert np.abs(got - expected).max() < 2e-2


class TestGeometryVariants:
    @pytest.mark.parametrize("algo", [ConvFwdAlgo.IMPLICIT_GEMM,
                                      ConvFwdAlgo.GEMM])
    def test_strided_convolution(self, dnn, runtime, rng, algo):
        x = rng.standard_normal((1, 2, 9, 9)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        conv = ConvolutionDescriptor(pad_h=1, pad_w=1, stride_h=2,
                                     stride_w=2)
        x_desc = TensorDescriptor(1, 2, 9, 9)
        w_desc = FilterDescriptor(3, 2, 3, 3)
        y_desc, y = dnn.convolution_forward(
            x_desc, runtime.upload_f32(x.ravel()), w_desc,
            runtime.upload_f32(w.ravel()), conv, algo)
        got = runtime.download_f32(y, y_desc.size).reshape(y_desc.dims)
        expected = conv2d_ref(x.astype(np.float64),
                              w.astype(np.float64), 1, 2)
        assert np.abs(got - expected).max() < 1e-3

    def test_5x5_filter_fft(self, dnn, runtime, rng):
        """LeNet-style 5x5 conv through the 32-point FFT path."""
        x = rng.standard_normal((1, 1, 12, 12)).astype(np.float32)
        w = rng.standard_normal((2, 1, 5, 5)).astype(np.float32) * 0.2
        conv = ConvolutionDescriptor()
        x_desc = TensorDescriptor(1, 1, 12, 12)
        w_desc = FilterDescriptor(2, 1, 5, 5)
        y_desc, y = dnn.convolution_forward(
            x_desc, runtime.upload_f32(x.ravel()), w_desc,
            runtime.upload_f32(w.ravel()), conv, ConvFwdAlgo.FFT)
        got = runtime.download_f32(y, y_desc.size).reshape(y_desc.dims)
        expected = conv2d_ref(x.astype(np.float64),
                              w.astype(np.float64), 0, 1)
        assert np.abs(got - expected).max() < 1e-3

    def test_no_padding_winograd(self, dnn, runtime, rng):
        x = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        conv = ConvolutionDescriptor()
        x_desc = TensorDescriptor(1, 2, 7, 7)
        w_desc = FilterDescriptor(2, 2, 3, 3)
        y_desc, y = dnn.convolution_forward(
            x_desc, runtime.upload_f32(x.ravel()), w_desc,
            runtime.upload_f32(w.ravel()), conv,
            ConvFwdAlgo.WINOGRAD_NONFUSED)
        got = runtime.download_f32(y, y_desc.size).reshape(y_desc.dims)
        expected = conv2d_ref(x.astype(np.float64),
                              w.astype(np.float64), 0, 1)
        assert np.abs(got - expected).max() < 1e-3


#: Geometries the requirement checks tell apart (input, filter, conv).
SHAPES = {
    "3x3_pad1": (TensorDescriptor(2, 3, 8, 8), FilterDescriptor(4, 3, 3, 3),
                 ConvolutionDescriptor(pad_h=1, pad_w=1)),
    "5x5_unpadded": (TensorDescriptor(1, 2, 12, 12),
                     FilterDescriptor(3, 2, 5, 5), ConvolutionDescriptor()),
    "3x3_stride2": (TensorDescriptor(1, 1, 8, 8),
                    FilterDescriptor(1, 1, 3, 3),
                    ConvolutionDescriptor(stride_h=2, stride_w=2)),
    "17x17": (TensorDescriptor(1, 1, 40, 40), FilterDescriptor(1, 1, 17, 17),
              ConvolutionDescriptor()),
}
DIRECTIONS = {"fwd": ConvFwdAlgo, "bwd_data": ConvBwdDataAlgo,
              "bwd_filter": ConvBwdFilterAlgo}


def convolve(dnn, direction, algo, shape):
    """Call *direction*'s entry point with *algo* on fresh operands of
    SHAPES[shape].  Launches are queued, never run: the launch log and
    any CudnnError are what the caller looks at."""
    x_desc, w_desc, conv = SHAPES[shape]
    y_desc = conv.output_dims(x_desc, w_desc)
    rt = dnn.rt
    x, w, y = (rt.malloc(d.nbytes) for d in (x_desc, w_desc, y_desc))
    if direction == "fwd":
        dnn.convolution_forward(x_desc, x, w_desc, w, conv, algo)
    elif direction == "bwd_data":
        dnn.convolution_backward_data(w_desc, w, y_desc, y, conv, algo,
                                      x_desc)
    else:
        dnn.convolution_backward_filter(x_desc, x, y_desc, y, conv, algo,
                                        w_desc)


class TestNotSupported:
    """cuDNN-style CUDNN_STATUS_NOT_SUPPORTED conditions, message verbatim."""

    @staticmethod
    def raises(dnn, direction, algo, shape, message):
        with pytest.raises(CudnnError) as info:
            convolve(dnn, direction, algo, shape)
        assert str(info.value) == f"CUDNN_STATUS_NOT_SUPPORTED: {message}"
        assert algo not in supported(direction, *SHAPES[shape][1:])

    def test_winograd_requires_3x3(self, dnn):
        self.raises(dnn, "fwd", ConvFwdAlgo.WINOGRAD, "5x5_unpadded",
                    "Winograd requires 3x3 filters")

    def test_winograd_requires_unit_stride(self, dnn):
        self.raises(dnn, "fwd", ConvFwdAlgo.WINOGRAD_NONFUSED, "3x3_stride2",
                    "Winograd requires unit stride")

    def test_fft_requires_unit_stride(self, dnn):
        self.raises(dnn, "fwd", ConvFwdAlgo.FFT, "3x3_stride2",
                    "FFT requires unit stride")

    def test_fft_filter_too_large_for_tile(self, dnn):
        self.raises(dnn, "fwd", ConvFwdAlgo.FFT_TILING, "17x17",
                    "filter larger than FFT tile")

    @pytest.mark.parametrize("direction, algo, shape, message", [
        ("bwd_data", ConvBwdDataAlgo.WINOGRAD, "5x5_unpadded",
         "Winograd requires 3x3 filters"),
        ("bwd_data", ConvBwdDataAlgo.WINOGRAD_NONFUSED, "5x5_unpadded",
         "Winograd requires 3x3 filters"),
        ("bwd_data", ConvBwdDataAlgo.WINOGRAD, "3x3_stride2",
         "Winograd requires unit stride"),
        ("bwd_data", ConvBwdDataAlgo.FFT_TILING, "3x3_stride2",
         "FFT requires unit stride"),
        ("bwd_data", ConvBwdDataAlgo.FFT_TILING, "17x17",
         "filter larger than FFT tile"),
        ("bwd_filter", ConvBwdFilterAlgo.WINOGRAD_NONFUSED, "5x5_unpadded",
         "Winograd requires 3x3 filters"),
        ("bwd_filter", ConvBwdFilterAlgo.WINOGRAD_NONFUSED, "3x3_stride2",
         "Winograd requires unit stride"),
        ("bwd_filter", ConvBwdFilterAlgo.FFT, "3x3_stride2",
         "FFT requires unit stride"),
        ("bwd_filter", ConvBwdFilterAlgo.FFT_TILING, "3x3_stride2",
         "FFT requires unit stride"),
        ("bwd_filter", ConvBwdFilterAlgo.FFT_TILING, "17x17",
         "filter larger than FFT tile"),
    ])
    def test_backward(self, dnn, direction, algo, shape, message):
        self.raises(dnn, direction, algo, shape, message)

    @pytest.mark.parametrize("shape, direction, algo", [
        (shape, direction, algo) for shape in SHAPES
        for direction, enum in DIRECTIONS.items() for algo in enum])
    def test_supported_leaves_out_exactly_what_raises(self, dnn, shape,
                                                      direction, algo):
        try:
            convolve(dnn, direction, algo, shape)
        except CudnnError as exc:
            assert str(exc).startswith("CUDNN_STATUS_NOT_SUPPORTED: ")
            raised = True
        else:
            raised = False
        assert (algo in supported(direction, *SHAPES[shape][1:])) != raised

    def test_channel_mismatch(self):
        x_desc = TensorDescriptor(1, 3, 8, 8)
        w_desc = FilterDescriptor(2, 4, 3, 3)
        with pytest.raises(CudnnError, match="channel mismatch"):
            ConvolutionDescriptor().output_dims(x_desc, w_desc)

    def test_empty_output_rejected(self):
        x_desc = TensorDescriptor(1, 1, 2, 2)
        w_desc = FilterDescriptor(1, 1, 3, 3)
        with pytest.raises(CudnnError, match="empty"):
            ConvolutionDescriptor().output_dims(x_desc, w_desc)


def test_api_log_records_multi_kernel_calls(dnn, runtime, tensors):
    """Every cuDNN API call fans out into (possibly many) kernels —
    the structure the paper's Figure 2 debugging relies on."""
    t = tensors
    dnn.convolution_forward(t["x_desc"], t["x_ptr"], t["w_desc"],
                            t["w_ptr"], t["conv"],
                            ConvFwdAlgo.WINOGRAD_NONFUSED)
    call = dnn.api_log[-1]
    assert call.name == "cudnnConvolutionForward[winograd_nonfused]"
    assert len(call.kernels) == 4  # 2 transforms + batched GEMM + output
    assert "winograd_input_transform" in call.kernels
    assert "sgemm_tiled_16x16" in call.kernels


class TestAlgorithmTable:
    @pytest.mark.parametrize("direction, algo", [
        (direction, algo) for direction in DIRECTIONS
        for other, enum in DIRECTIONS.items() if other != direction
        for algo in enum])
    def test_another_directions_algorithm_raises(self, dnn, direction,
                                                 algo):
        # Same-named members (FFT_TILING, WINOGRAD_NONFUSED, ALGO_0...)
        # must not run this direction's pipeline of that name.
        with pytest.raises(CudnnError, match=f"unknown {direction} algo"):
            convolve(dnn, direction, algo, "3x3_pad1")
        assert dnn.rt.launch_log == []

    def test_every_algorithm_applies_to_the_sample_geometries(self):
        """conv_sample's default and the experiment table's Sec. V
        geometry admit every algorithm of the sweep: 6 + 5 + 6 = 17
        paths."""
        spec = importlib.util.spec_from_file_location(
            "experiments", Path(__file__).parents[1] / "benchmarks"
            / "experiments.py")
        experiments = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(experiments)
        for sample in (ConvSampleConfig(), experiments.SAMPLE):
            _, w_desc, conv = sample.descriptors()
            for direction in ALGORITHMS:
                assert (supported(direction, w_desc, conv)
                        == list(ALGORITHMS[direction]))
        assert [len(ALGORITHMS[d]) for d in DIRECTIONS] == [6, 5, 6]
        assert {d: set(ALGORITHMS[d]) for d in DIRECTIONS} == {
            d: set(enum) for d, enum in DIRECTIONS.items()}


class TestLaunchSequencePinned:
    """The host-side contract: for every (direction, algo) the kernels,
    grids, blocks and arguments — every workspace pointer included — in
    launch order.  Numerics within 2e-2 would not notice a reordered
    workspace or a dropped accumulate flag; every ``sim_cycles`` would.
    A deliberate change updates these SHA-256s."""

    PINNED = {
        "3x3_pad1": {
            "fwd": {
                "fft": "cdf835ecde9165631cfdd0c3435fbff7e95f4a3a55cc1ed0a0d107646c2ccf93",
                "fft_tiling": "137064837f950de961b88f07d3bff51b296a84649151b290ad7e1c2b03a6f37b",
                "gemm": "ef2c45b6618e81b1744470bec49fb64973d8a38431c9936caaba5d957a4ded78",
                "implicit_gemm": "1cca3649dc1bb5109cbc28c3f6eb5abbf6fec818fb2650c70162c923d6c2182b",
                "winograd": "2d49fc13b18f67c3ce97115f6a0e7f7ee91706daf8484e4178d2d0ccb403e8cd",
                "winograd_nonfused": "07c5c909dad6fd73b1dda775314740a94cac30d61e573355767e5962eeff42bf",
            },
            "bwd_data": {
                "algo0": "946d6931a2a40b9f15ece5d47ccae0fd1f95412ae62076f129de7fd12ab3f1ca",
                "algo1": "3bb1a67162e463f0235998edb3c9c875c2c683cf74711049642644b70a4a0544",
                "fft_tiling": "6ae9517d3185812ccd09a7e73d5c3e6f6fe25efac245dd93ef4b1d7e690ef710",
                "winograd": "d8669071f26811584ed5cb1a2e3bc04a938ed42667fbf44080a3a35607cea8e8",
                "winograd_nonfused": "f92695a91c2d640d56226d7425cb03a28f2114da5c3c19ac7592e7da029359db",
            },
            "bwd_filter": {
                "algo0": "0deb75b37adc0eb4c4eab6a50345f99b823dc3e3c559310b5981fe39c50d603b",
                "algo1": "faa90b1e905819ddf315b0388776d27b733e8a66989baafd7a77c1b6b14ff402",
                "algo3": "aacbac75c0d444919d08c4a0525a49eab7d67a7dd1a93ed47a36dd4d4630e039",
                "fft": "30493cbc4e8ea3a4db3cdede5255152a9e6422a2483d2429abd41e03bc13bae9",
                "fft_tiling": "2b6fc583d39f59d3791d1ca53b4bef03027926dd125d41ced3976f445b7d0edb",
                "winograd_nonfused": "c5e5d547faa1b351da9d7c29b307235647f0a538ac9c8002c71e432b902a37dd",
            },
        },
        "5x5_unpadded": {
            "fwd": {
                "fft": "80cccf3fe177d674f87c172ac3649a3bf416c4e9509074533017bd4cef828d9d",
                "fft_tiling": "695488339e16e561fe9bd1c1b297b485d67f0c3a34a52fee5a56a2ad4a373c6a",
                "gemm": "8df1bc8ee003336b12406a906e986fdd0435e029101a0d19e75cf10cab6d19ea",
                "implicit_gemm": "09e3486394e9a1d0c2d4f1edf533d67f1086e6e087b39a37c939497fb8601589",
            },
            "bwd_data": {
                "algo0": "c4c354083b338282cafadc1728695b965a38eb6c9d7142cdc0b5b1a4628eadef",
                "algo1": "0715c554fcbd9f0b56fb91a7dfec49c1372834dbbaa82c763b02f9d85c7851a5",
                "fft_tiling": "0d8c9a4603dd1e7f91f97fd087ebc5fb03a00d250bee9d70f3b6cb68d393211d",
            },
            "bwd_filter": {
                "algo0": "28ee89f3de2f81157e8e60df2e7aec93bba3db83a9f689adf0fec6dfc28c9521",
                "algo1": "a9c26cd65f147dc43c13c0ecc650f20aa230567b3c778ea7657b5366472fac8b",
                "algo3": "b654a1b53d4029f10ac86beae1f63232a56e53997e6938f14345fcb925fc4928",
                "fft": "00509e568868c1edd0b7e9e2482a92d0379fd546c6edebe9aaa7ab8c62f4f0fa",
                "fft_tiling": "e624ecb1b3e5d185679a0ab12da41c5e0b666e0e46a65fabbc6f18a264b46188",
            },
        },
    }

    def test_pinned_cases_are_the_supported_ones(self):
        for shape, directions in self.PINNED.items():
            for direction, pinned in directions.items():
                admitted = supported(direction, *SHAPES[shape][1:])
                assert list(pinned) == [algo.value for algo in admitted]

    @pytest.mark.parametrize("shape, direction, algo", [
        (shape, direction, algo)
        for shape, directions in PINNED.items()
        for direction, pinned in directions.items() for algo in pinned])
    def test_launch_sequence(self, dnn, shape, direction, algo):
        convolve(dnn, direction, DIRECTIONS[direction](algo), shape)
        log = [[e["name"], list(e["grid"]), list(e["block"]), e["args"]]
               for e in dnn.rt.launch_log]
        digest = hashlib.sha256(json.dumps(log).encode()).hexdigest()
        assert digest == self.PINNED[shape][direction][algo]
