"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cudnn import Cudnn, build_application_binary


def pytest_addoption(parser):
    parser.addoption(
        "--oracle-seeds", type=int, default=12,
        help="generated launches per configuration in "
             "tests/test_timing_oracle.py (default 12)")


@pytest.fixture(scope="session", autouse=True)
def _suite_plan_cache(tmp_path_factory):
    """Performance-mode and megablock launches load compiled plans from
    the disk cache: point it away from the user's for the whole run."""
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("kcache")))
    yield
    patch.undo()


@pytest.fixture(scope="session")
def app_binary():
    """The statically linked application binary (built once)."""
    return build_application_binary()


@pytest.fixture()
def runtime(app_binary) -> CudaRuntime:
    rt = CudaRuntime()
    rt.load_binary(app_binary)
    return rt


@pytest.fixture()
def dnn(runtime) -> Cudnn:
    return Cudnn(runtime)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def conv2d_ref(x: np.ndarray, w: np.ndarray, pad: int,
               stride: int) -> np.ndarray:
    """Reference convolution (cross-correlation) used across conv tests."""
    n, c, h, width = x.shape
    k, _, r, s = w.shape
    p = (h + 2 * pad - r) // stride + 1
    q = (width + 2 * pad - s) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, width + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + width] = x
    out = np.zeros((n, k, p, q))
    for pi in range(p):
        for qi in range(q):
            patch = xp[:, :, pi * stride:pi * stride + r,
                       qi * stride:qi * stride + s]
            out[:, :, pi, qi] = np.einsum("ncrs,kcrs->nk", patch, w)
    return out


def dgrad_ref(dy: np.ndarray, w: np.ndarray, xshape, pad: int,
              stride: int) -> np.ndarray:
    n, c, h, width = xshape
    k, _, r, s = w.shape
    _, _, p, q = dy.shape
    dxp = np.zeros((n, c, h + 2 * pad, width + 2 * pad))
    for pi in range(p):
        for qi in range(q):
            dxp[:, :, pi * stride:pi * stride + r,
                qi * stride:qi * stride + s] += np.einsum(
                    "nk,kcrs->ncrs", dy[:, :, pi, qi], w)
    return dxp[:, :, pad:pad + h, pad:pad + width]


def wgrad_ref(x: np.ndarray, dy: np.ndarray, wshape, pad: int,
              stride: int) -> np.ndarray:
    k, c, r, s = wshape
    n, _, h, width = x.shape
    _, _, p, q = dy.shape
    xp = np.zeros((n, c, h + 2 * pad, width + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + width] = x
    dw = np.zeros(wshape)
    for pi in range(p):
        for qi in range(q):
            patch = xp[:, :, pi * stride:pi * stride + r,
                       qi * stride:qi * stride + s]
            dw += np.einsum("nk,ncrs->kcrs", dy[:, :, pi, qi], patch)
    return dw
