"""Convolution algorithm enums, mirroring cuDNN's.

The Section V case study iterates exactly these sets: "For forward
convolution, we ran FFT, FFT Tiling, GEMM, Implicit GEMM, Winograd, and
Winograd Nonfused.  For backward data convolution, we ran Algorithm 0,
Algorithm 1, FFT Tiling, Winograd, and Winograd Nonfused.  For backward
filter convolution, we ran Algorithm 0, Algorithm 1, Algorithm 3, FFT,
FFT Tiling, and Winograd Nonfused."
"""

from __future__ import annotations

from enum import Enum


class ConvFwdAlgo(Enum):
    IMPLICIT_GEMM = "implicit_gemm"
    GEMM = "gemm"
    FFT = "fft"
    FFT_TILING = "fft_tiling"
    WINOGRAD = "winograd"
    WINOGRAD_NONFUSED = "winograd_nonfused"


class ConvBwdDataAlgo(Enum):
    ALGO_0 = "algo0"
    ALGO_1 = "algo1"
    FFT_TILING = "fft_tiling"
    WINOGRAD = "winograd"
    WINOGRAD_NONFUSED = "winograd_nonfused"


class ConvBwdFilterAlgo(Enum):
    ALGO_0 = "algo0"
    ALGO_1 = "algo1"
    ALGO_3 = "algo3"
    FFT = "fft"
    FFT_TILING = "fft_tiling"
    WINOGRAD_NONFUSED = "winograd_nonfused"

