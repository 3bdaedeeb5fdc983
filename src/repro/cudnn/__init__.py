"""cuDNN-compatible library: descriptors, algorithms, host API, kernels."""

from repro.cudnn.algos import ConvBwdDataAlgo, ConvBwdFilterAlgo, ConvFwdAlgo
from repro.cudnn.api import ALGORITHMS, ApiCall, Cudnn, supported
from repro.cudnn.descriptors import (
    ActivationDescriptor, ConvolutionDescriptor, FilterDescriptor,
    LRNDescriptor, PoolingDescriptor, TensorDescriptor)
from repro.cudnn.library import (
    build_application_binary, build_libcublas, build_libcudnn)

__all__ = [
    "ALGORITHMS", "ActivationDescriptor", "ApiCall", "ConvBwdDataAlgo",
    "ConvBwdFilterAlgo", "ConvFwdAlgo", "ConvolutionDescriptor", "Cudnn",
    "FilterDescriptor", "LRNDescriptor", "PoolingDescriptor",
    "TensorDescriptor", "build_application_binary", "build_libcublas",
    "build_libcudnn", "supported",
]
