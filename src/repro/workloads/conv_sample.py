"""The ``conv_sample`` workload (paper Section V-A).

"We study another simple cuDNN program from the NVIDIA examples,
conv_sample ... it performs forward, backward data, and backward filter
convolutions ... we iterated over the various cuDNN algorithms available
for each type of convolution."

One :class:`ConvSample` instance owns the tensors; :meth:`run_forward`
etc. execute a single (direction, algorithm) pair and return the
per-kernel profiles so the harness can build AerialVision figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cuda.runtime import CudaRuntime, KernelProfile
from repro.cudnn import (
    ConvBwdDataAlgo, ConvBwdFilterAlgo, ConvFwdAlgo, Cudnn,
    ConvolutionDescriptor, FilterDescriptor, TensorDescriptor,
    build_application_binary)


@dataclass(frozen=True)
class ConvSampleConfig:
    """Geometry kept FFT/Winograd-compatible (3x3, stride 1, pad 1), so
    ``cudnn.supported`` admits every algorithm of each direction."""

    batch: int = 1
    channels: int = 4
    height: int = 12
    width: int = 12
    filters: int = 8
    ksize: int = 3
    pad: int = 1
    seed: int = 11

    def descriptors(self) -> tuple[TensorDescriptor, FilterDescriptor,
                                   ConvolutionDescriptor]:
        x = TensorDescriptor(self.batch, self.channels, self.height,
                             self.width)
        w = FilterDescriptor(self.filters, self.channels, self.ksize,
                             self.ksize)
        conv = ConvolutionDescriptor(pad_h=self.pad, pad_w=self.pad)
        return x, w, conv


class ConvSample:
    """Owns device tensors and runs one algorithm at a time."""

    def __init__(self, runtime: CudaRuntime,
                 config: ConvSampleConfig | None = None) -> None:
        self.rt = runtime
        self.config = config or ConvSampleConfig()
        if not runtime.program.kernels:
            runtime.load_binary(build_application_binary())
        self.dnn = Cudnn(runtime)
        c = self.config
        rng = np.random.default_rng(c.seed)
        self.x_desc, self.w_desc, self.conv = c.descriptors()
        self.y_desc = self.conv.output_dims(self.x_desc, self.w_desc)
        x = rng.standard_normal(self.x_desc.dims).astype(np.float32)
        w = (rng.standard_normal((c.filters, c.channels, c.ksize, c.ksize))
             .astype(np.float32) * 0.25)
        dy = rng.standard_normal(self.y_desc.dims).astype(np.float32)
        self.x = runtime.upload_f32(x.ravel())
        self.w = runtime.upload_f32(w.ravel())
        self.dy = runtime.upload_f32(dy.ravel())
        self.x_host, self.w_host, self.dy_host = x, w, dy

    def _profiles_since(self, start: int) -> list[KernelProfile]:
        self.rt.synchronize()
        return self.rt.profiles[start:]

    def run_forward(self, algo: ConvFwdAlgo) -> list[KernelProfile]:
        start = len(self.rt.profiles)
        self.dnn.convolution_forward(self.x_desc, self.x, self.w_desc,
                                     self.w, self.conv, algo)
        return self._profiles_since(start)

    def run_backward_data(self, algo: ConvBwdDataAlgo
                          ) -> list[KernelProfile]:
        start = len(self.rt.profiles)
        self.dnn.convolution_backward_data(self.w_desc, self.w,
                                           self.y_desc, self.dy,
                                           self.conv, algo, self.x_desc)
        return self._profiles_since(start)

    def run_backward_filter(self, algo: ConvBwdFilterAlgo
                            ) -> list[KernelProfile]:
        start = len(self.rt.profiles)
        self.dnn.convolution_backward_filter(self.x_desc, self.x,
                                             self.y_desc, self.dy,
                                             self.conv, algo, self.w_desc)
        return self._profiles_since(start)
