"""The cuDNN-compatible host API.

Every public method mirrors a cuDNN entry point
(``cudnnConvolutionForward``, ``cudnnPoolingForward``, ...) and — like
the real library — fans out into one or more opaque PTX kernel launches
on the runtime.  An ``api_log`` records which launch ordinals belong to
which API call; the paper's three-level debug bisection (API call →
kernel → instruction) walks exactly that structure.

Convolutions run from one algorithm table, :data:`ALGORITHMS`.  FFT
paths tile overlap-save with tile size FN (32 for FFT, 16 for
FFT_TILING); Winograd paths implement F(2x2, 3x3).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from repro.errors import CudnnError
from repro.cuda.runtime import CudaRuntime
from repro.cudnn.algos import ConvBwdDataAlgo, ConvBwdFilterAlgo, ConvFwdAlgo
from repro.cudnn.descriptors import (
    ActivationDescriptor, ConvolutionDescriptor, FilterDescriptor,
    LRNDescriptor, PoolingDescriptor, TensorDescriptor)
from repro.cudnn.kernels.lrn import LRN_TEXTURE_NAME
from repro.trace.tracer import TID_API

_BLOCK = 128


@dataclass
class ApiCall:
    """One cuDNN API invocation and the kernel launches it produced."""

    name: str
    first_ordinal: int
    last_ordinal: int = -1
    kernels: list[str] = field(default_factory=list)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _tile_origins(desc: TensorDescriptor, step: tuple) -> list[tuple]:
    """Top-left corners of the overlap-save tiles covering *desc*."""
    return [(ti * step[0], tj * step[1])
            for ti in range(_ceil_div(desc.h, step[0]))
            for tj in range(_ceil_div(desc.w, step[1]))]


class _Conv(NamedTuple):
    """One convolution's geometry and device pointers, named by tensor
    role in every direction: ``x`` is the layer input (``dx`` in
    backward-data), ``w`` the filter (``dw`` in backward-filter), ``y``
    the layer output (``dy`` in both backward passes)."""

    x_desc: TensorDescriptor
    x: int
    w_desc: FilterDescriptor
    w: int
    conv: ConvolutionDescriptor
    y_desc: TensorDescriptor
    y: int

    @property
    def args(self) -> list[int]:
        """The geometry arguments every direct convolution kernel takes."""
        x, w, conv, y = self.x_desc, self.w_desc, self.conv, self.y_desc
        return [x.n, x.c, x.h, x.w, w.k, w.r, w.s, y.h, y.w, conv.pad_h,
                conv.pad_w, conv.stride_h, conv.stride_w]


class Cudnn:
    """A cudnnHandle_t bound to one simulated device context."""

    def __init__(self, runtime: CudaRuntime) -> None:
        self.rt = runtime
        self.api_log: list[ApiCall] = []
        self._active_call: ApiCall | None = None
        self._lrn_texref = None
        #: Debug-tool hook: called with each completed top-level ApiCall.
        self.on_api_end = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _api_call(self, name: str):
        call = ApiCall(name=name, first_ordinal=len(self.rt.launch_log))
        outer = self._active_call
        if outer is None:
            self._active_call = call
            self.api_log.append(call)
        tracer = self.rt.tracer
        trace_this = tracer.enabled and outer is None
        t0 = self.rt.now if trace_this else 0.0
        try:
            yield call
        finally:
            if outer is None:
                call.last_ordinal = len(self.rt.launch_log) - 1
                call.kernels = [
                    entry["name"] for entry in
                    self.rt.launch_log[call.first_ordinal:
                                       call.last_ordinal + 1]]
                self._active_call = None
                if trace_this:
                    # Force the lazily-enqueued kernels to run now so the
                    # API slice spans them on the sim timeline.  cuDNN
                    # launches only on the default stream, so draining it
                    # cannot disturb unrelated cross-stream event chains.
                    self.rt.stream_synchronize(self.rt.default_stream)
                    tracer.complete(
                        call.name, ts=t0, dur=self.rt.now - t0,
                        tid=TID_API, cat="api",
                        args={"kernels": len(call.kernels),
                              "first_ordinal": call.first_ordinal,
                              "last_ordinal": call.last_ordinal})
                if self.on_api_end is not None:
                    self.rt.synchronize()
                    self.on_api_end(call)

    def _launch1d(self, kernel: str, total: int, args: list,
                  block: int = _BLOCK) -> None:
        if total <= 0:
            return
        self.rt.launch(kernel, (_ceil_div(total, block), 1, 1),
                       (block, 1, 1), args)

    def _workspace(self, nbytes: int) -> int:
        tracer = self.rt.tracer
        if tracer.enabled:
            tracer.instant("workspace", tid=TID_API, cat="api",
                           args={"nbytes": max(nbytes, 4)})
        return self.rt.malloc(max(nbytes, 4))

    # ------------------------------------------------------------------
    # Tensor ops
    # ------------------------------------------------------------------
    def add_tensor(self, a: int, b: int, out: int, count: int,
                   alpha: float = 1.0, beta: float = 1.0) -> None:
        with self._api_call("cudnnAddTensor"):
            self._launch1d("cudnn_add_tensors",
                           count, [a, b, out, alpha, beta, count])

    def add_bias(self, y_desc: TensorDescriptor, y: int, bias: int) -> None:
        with self._api_call("cudnnAddTensor(bias)"):
            self._launch1d("cudnn_add_bias_nchw", y_desc.size,
                           [y, bias, y_desc.size, y_desc.h * y_desc.w,
                            y_desc.c])

    def bias_grad(self, dy_desc: TensorDescriptor, dy: int,
                  dbias: int) -> None:
        with self._api_call("cudnnConvolutionBackwardBias"):
            self._launch1d("cudnn_bias_grad", dy_desc.c,
                           [dy, dbias, dy_desc.n, dy_desc.c,
                            dy_desc.h * dy_desc.w])

    def scale(self, x: int, y: int, alpha: float, count: int) -> None:
        with self._api_call("cudnnScaleTensor"):
            self._launch1d("scale_array", count, [x, y, alpha, count])

    # ------------------------------------------------------------------
    # Activations
    # ------------------------------------------------------------------
    _ACT_FWD = {"relu": "cudnn_relu_fwd", "tanh": "cudnn_tanh_fwd",
                "sigmoid": "cudnn_sigmoid_fwd"}

    def activation_forward(self, act: ActivationDescriptor, x: int,
                           y: int, count: int) -> None:
        with self._api_call("cudnnActivationForward"):
            self._launch1d(self._ACT_FWD[act.mode], count, [x, y, count])

    def activation_backward(self, act: ActivationDescriptor, x: int,
                            y: int, dy: int, dx: int, count: int) -> None:
        with self._api_call("cudnnActivationBackward"):
            if act.mode == "relu":
                self._launch1d("cudnn_relu_bwd", count, [x, dy, dx, count])
            elif act.mode == "tanh":
                self._launch1d("cudnn_tanh_bwd", count, [y, dy, dx, count])
            else:
                raise CudnnError(
                    f"activation backward for {act.mode!r} not implemented")

    # ------------------------------------------------------------------
    # Pooling
    # ------------------------------------------------------------------
    def pooling_forward(self, pool: PoolingDescriptor,
                        x_desc: TensorDescriptor, x: int,
                        y: int) -> tuple[TensorDescriptor, int]:
        """Returns (output descriptor, argmax workspace pointer)."""
        y_desc = pool.output_dims(x_desc)
        with self._api_call("cudnnPoolingForward"):
            geometry = [x_desc.n, x_desc.c, x_desc.h, x_desc.w,
                        y_desc.h, y_desc.w, pool.window, pool.stride]
            if pool.mode == "max":
                argmax = self._workspace(4 * y_desc.size)
                self._launch1d("cudnn_maxpool_fwd", y_desc.size,
                               [x, y, argmax, *geometry, y_desc.size])
            else:
                argmax = 0
                self._launch1d("cudnn_avgpool_fwd", y_desc.size,
                               [x, y, *geometry, y_desc.size])
        return y_desc, argmax

    def pooling_backward(self, pool: PoolingDescriptor,
                         x_desc: TensorDescriptor,
                         y_desc: TensorDescriptor, dy: int, argmax: int,
                         dx: int) -> None:
        if pool.mode != "max":
            raise CudnnError("only max-pooling backward is implemented")
        with self._api_call("cudnnPoolingBackward"):
            self._launch1d("cudnn_fill_zero", x_desc.size,
                           [dx, x_desc.size])
            self._launch1d("cudnn_maxpool_bwd", y_desc.size,
                           [dy, argmax, dx, y_desc.size])

    # ------------------------------------------------------------------
    # LRN
    # ------------------------------------------------------------------
    def lrn_forward(self, lrn: LRNDescriptor, x_desc: TensorDescriptor,
                    x: int, y: int, *, use_texture: bool = False) -> int:
        """Returns the saved 'scale' workspace needed by the backward."""
        with self._api_call("cudnnLRNCrossChannelForward"):
            scale = self._workspace(x_desc.nbytes)
            geometry = [x_desc.n, x_desc.c, x_desc.h, x_desc.w, lrn.nsize]
            if use_texture:
                # Stage the input into a cudaArray and bind it, walking
                # the Section III-C texture plumbing.
                array = self.rt.malloc_array(
                    x_desc.w, x_desc.n * x_desc.c * x_desc.h)
                self.rt.memcpy_to_array(
                    array, self.rt.memcpy_d2h(x, x_desc.nbytes))
                ref = self.rt.register_texture(LRN_TEXTURE_NAME)
                self.rt.bind_texture_to_array(ref, array)
                self._lrn_texref = ref
                kernel = "cudnn_lrn_fwd_tex"
            else:
                kernel = "cudnn_lrn_fwd"
            self._launch1d(kernel, x_desc.size,
                           [x, y, scale, *geometry, lrn.alpha, lrn.beta,
                            lrn.k, x_desc.size])
            if use_texture:
                self.rt.synchronize()
        return scale

    def lrn_backward(self, lrn: LRNDescriptor, x_desc: TensorDescriptor,
                     x: int, y: int, dy: int, scale: int, dx: int) -> None:
        with self._api_call("cudnnLRNCrossChannelBackward"):
            geometry = [x_desc.n, x_desc.c, x_desc.h, x_desc.w, lrn.nsize]
            self._launch1d("cudnn_lrn_bwd", x_desc.size,
                           [x, y, dy, scale, dx, *geometry, lrn.alpha,
                            lrn.beta, x_desc.size])

    # ------------------------------------------------------------------
    # Softmax
    # ------------------------------------------------------------------
    def softmax_forward(self, x: int, y: int, rows: int,
                        cols: int) -> None:
        with self._api_call("cudnnSoftmaxForward"):
            self._launch1d("cudnn_softmax_fwd", rows, [x, y, rows, cols])

    def nll_loss(self, probs: int, labels: int, loss: int, rows: int,
                 cols: int) -> None:
        with self._api_call("cudnnNLLLoss"):
            self._launch1d("cudnn_nll_loss", rows,
                           [probs, labels, loss, rows, cols])

    def softmax_nll_backward(self, probs: int, labels: int, dx: int,
                             rows: int, cols: int,
                             scale: float) -> None:
        with self._api_call("cudnnSoftmaxBackward"):
            total = rows * cols
            self._launch1d("cudnn_softmax_nll_bwd", total,
                           [probs, labels, dx, rows, cols, scale, total])

    # ------------------------------------------------------------------
    # Convolution: three entry points over one table (ALGORITHMS below)
    # ------------------------------------------------------------------
    def convolution_forward(self, x_desc: TensorDescriptor, x: int,
                            w_desc: FilterDescriptor, w: int,
                            conv: ConvolutionDescriptor,
                            algo: ConvFwdAlgo,
                            y: int | None = None
                            ) -> tuple[TensorDescriptor, int]:
        y_desc = conv.output_dims(x_desc, w_desc)
        if y is None:
            y = self.rt.malloc(y_desc.nbytes)
        self._convolve("cudnnConvolutionForward", "fwd", algo,
                       _Conv(x_desc, x, w_desc, w, conv, y_desc, y))
        return y_desc, y

    def convolution_backward_data(self, w_desc: FilterDescriptor, w: int,
                                  dy_desc: TensorDescriptor, dy: int,
                                  conv: ConvolutionDescriptor,
                                  algo: ConvBwdDataAlgo,
                                  dx_desc: TensorDescriptor,
                                  dx: int | None = None) -> int:
        if dx is None:
            dx = self.rt.malloc(dx_desc.nbytes)
        self._convolve("cudnnConvolutionBackwardData", "bwd_data", algo,
                       _Conv(dx_desc, dx, w_desc, w, conv, dy_desc, dy))
        return dx

    def convolution_backward_filter(self, x_desc: TensorDescriptor, x: int,
                                    dy_desc: TensorDescriptor, dy: int,
                                    conv: ConvolutionDescriptor,
                                    algo: ConvBwdFilterAlgo,
                                    w_desc: FilterDescriptor,
                                    dw: int | None = None) -> int:
        if dw is None:
            dw = self.rt.malloc(w_desc.nbytes)
        self._convolve("cudnnConvolutionBackwardFilter", "bwd_filter", algo,
                       _Conv(x_desc, x, w_desc, dw, conv, dy_desc, dy))
        return dw

    def _convolve(self, api: str, direction: str, algo, g: _Conv) -> None:
        """One API call: look *algo* up in *direction*'s table (another
        direction's member, even a same-named one, is not there), check
        its requirements in row order, run its pipeline."""
        with self._api_call(f"{api}[{algo.value}]"):
            row = ALGORITHMS[direction].get(algo)
            if row is None:
                raise CudnnError(f"unknown {direction} algo {algo}")
            requirements, pipeline = row
            unmet = _unmet(requirements, g.w_desc, g.conv)
            if unmet is not None:
                raise CudnnError(f"CUDNN_STATUS_NOT_SUPPORTED: {unmet}")
            pipeline(self, g)

    # -- direct kernels: one thread per element of one tensor -------------
    def _implicit_gemm(self, g: _Conv, kernel="implicit_gemm_fwd") -> None:
        self._launch1d(kernel, g.y_desc.size,
                       [g.x, g.w, g.y, *g.args, g.y_desc.size])

    def _bwd_data_algo0(self, g: _Conv) -> None:
        self._launch1d("cudnn_fill_zero", g.x_desc.size,
                       [g.x, g.x_desc.size])
        self._launch1d("conv_bwd_data_algo0", g.y_desc.size,
                       [g.y, g.w, g.x, *g.args, g.y_desc.size])

    def _bwd_data_algo1(self, g: _Conv) -> None:
        self._launch1d("conv_bwd_data_algo1", g.x_desc.size,
                       [g.y, g.w, g.x, *g.args, g.x_desc.size])

    def _bwd_filter_algo0(self, g: _Conv) -> None:
        self._launch1d("cudnn_fill_zero", g.w_desc.size,
                       [g.w, g.w_desc.size])
        self._launch1d("conv_bwd_filter_algo0", g.y_desc.size,
                       [g.x, g.y, g.w, *g.args, g.y_desc.size])

    def _bwd_filter_algo1(self, g: _Conv) -> None:
        self._launch1d("conv_bwd_filter_algo1", g.w_desc.size,
                       [g.x, g.y, g.w, *g.args, g.w_desc.size])

    def _bwd_filter_algo3(self, g: _Conv) -> None:
        total = g.w_desc.size
        self._launch1d("cudnn_fill_zero", total, [g.w, total])
        self.rt.launch("conv_bwd_filter_algo3",
                       (_ceil_div(total, _BLOCK), _ceil_div(g.x_desc.n, 2),
                        1), (_BLOCK, 1, 1), [g.x, g.y, g.w, *g.args, total])

    # -- im2col + GEMM ------------------------------------------------------
    def _gemm(self, g: _Conv) -> None:
        x, w, conv, y = g.x_desc, g.w_desc, g.conv, g.y_desc
        crs = w.c * w.r * w.s
        pq = y.h * y.w
        columns = self._workspace(4 * crs * pq)
        geometry = [x.c, x.h, x.w, y.h, y.w, w.r, w.s, conv.pad_h,
                    conv.pad_w, conv.stride_h, conv.stride_w]
        for n in range(x.n):
            self._launch1d("cudnn_im2col", crs * pq,
                           [g.x + 4 * n * x.c * x.h * x.w, columns, 1,
                            *geometry, crs * pq])
            self._sgemm(g.w, columns, g.y + 4 * n * w.k * pq, w.k, pq, crs)

    def _sgemm(self, a: int, b: int, c: int, m: int, n: int, k: int,
               alpha: float = 1.0, beta: float = 0.0, batch: int = 1,
               stride_a: int = 0, stride_b: int = 0,
               stride_c: int = 0) -> None:
        grid = (_ceil_div(n, 16), _ceil_div(m, 16), batch)
        self.rt.launch("sgemm_tiled_16x16", grid, (16, 16, 1),
                       [a, b, c, m, n, k, alpha, beta,
                        stride_a, stride_b, stride_c])

    # -- Winograd F(2x2, 3x3) -----------------------------------------------
    def _winograd_fused(self, g: _Conv) -> None:
        x, y = g.x_desc, g.y_desc
        tiles_h, tiles_w = _ceil_div(y.h, 2), _ceil_div(y.w, 2)
        total = g.w_desc.k * x.n * tiles_h * tiles_w
        self._launch1d("winograd_fused_fwd", total,
                       [g.x, g.w, g.y, x.n, x.c, x.h, x.w, tiles_h, tiles_w,
                        g.conv.pad_h, g.conv.pad_w, g.w_desc.k, y.h, y.w,
                        total])

    def _winograd_nonfused(self, g: _Conv) -> None:
        x, y = g.x_desc, g.y_desc
        tiles_h, tiles_w = _ceil_div(y.h, 2), _ceil_div(y.w, 2)
        ntiles = x.n * tiles_h * tiles_w
        c, k = x.c, g.w_desc.k
        v_buf = self._workspace(4 * 16 * c * ntiles)
        u_buf = self._workspace(4 * 16 * k * c)
        m_buf = self._workspace(4 * 16 * k * ntiles)
        self._launch1d("winograd_input_transform", c * ntiles,
                       [g.x, v_buf, x.n, c, x.h, x.w, tiles_h, tiles_w,
                        g.conv.pad_h, g.conv.pad_w, c * ntiles])
        self._launch1d("winograd_filter_transform", k * c,
                       [g.w, u_buf, k, c, k * c])
        self._sgemm(u_buf, v_buf, m_buf, k, ntiles, c, batch=16,
                    stride_a=k * c, stride_b=c * ntiles,
                    stride_c=k * ntiles)
        self._launch1d("winograd_output_transform", k * ntiles,
                       [m_buf, g.y, x.n, k, y.h, y.w, tiles_h, tiles_w,
                        k * ntiles])

    def _winograd_bwd_data(self, g: _Conv, forward) -> None:
        # dgrad = the *forward* pipeline run on dy with spatially rotated,
        # KC-swapped filters, with pad' = R-1-pad.
        k, c, r, s = g.w_desc.k, g.w_desc.c, g.w_desc.r, g.w_desc.s
        w_rot = self._workspace(4 * g.w_desc.size)
        self._launch1d("winograd_rotate_filters", g.w_desc.size,
                       [g.w, w_rot, k, c, r, s, g.w_desc.size])
        forward(self, _Conv(
            g.y_desc, g.y, FilterDescriptor(k=c, c=k, r=r, s=s), w_rot,
            ConvolutionDescriptor(pad_h=r - 1 - g.conv.pad_h,
                                  pad_w=s - 1 - g.conv.pad_w),
            g.x_desc, g.x))

    def _winograd_bwd_filter(self, g: _Conv) -> None:
        # dg = G^T [ (B^T d B) ⊙ (A dY A^T) ] G summed over tiles,
        # realised as a 16-bin batched GEMM over the tile dimension.
        x, dy = g.x_desc, g.y_desc
        tiles_h, tiles_w = _ceil_div(dy.h, 2), _ceil_div(dy.w, 2)
        ntiles = x.n * tiles_h * tiles_w
        c, k = x.c, g.w_desc.k
        v_buf = self._workspace(4 * 16 * ntiles * c)   # [16, T, C]
        wt_buf = self._workspace(4 * 16 * k * ntiles)  # [16, K, T]
        s_buf = self._workspace(4 * 16 * k * c)        # [16, K, C]
        self._launch1d("winograd_input_transform_t", c * ntiles,
                       [g.x, v_buf, x.n, c, x.h, x.w, tiles_h, tiles_w,
                        g.conv.pad_h, g.conv.pad_w, c * ntiles])
        self._launch1d("winograd_wgrad_dy_transform", k * ntiles,
                       [g.y, wt_buf, x.n, k, dy.h, dy.w, tiles_h, tiles_w,
                        k * ntiles])
        self._sgemm(wt_buf, v_buf, s_buf, k, c, ntiles, batch=16,
                    stride_a=k * ntiles, stride_b=ntiles * c,
                    stride_c=k * c)
        self._launch1d("winograd_wgrad_output_transform", k * c,
                       [s_buf, g.w, k, c, k * c])

    # -- FFT: overlap-save tiling, fn = 32 (FFT) or 16 (FFT_TILING) --------
    # Every direction runs the same three stages over pairs of spectra
    # (the one a stage writes first, then its transpose): r2c + transpose
    # to frequency-major [bin][tile], one CGEMM per bin, transpose back +
    # c2r, which crops each tile's valid region into the destination.
    def _pair(self, fn, tiles):
        return (self._workspace(8 * tiles * fn * fn),
                self._workspace(8 * tiles * fn * fn))

    def _r2c(self, fn, src, pair, count0, count1, plane, origin, flip,
             swap):
        tiles, bins = count0 * count1, fn * fn
        self.rt.launch(f"fft2d_r2c_{fn}x{fn}", (tiles, 1, 1), (fn, 1, 1),
                       [src, pair[0], count0, count1, *plane, *origin, flip,
                        swap])
        self._launch1d("fft_transpose_complex", tiles * bins,
                       [*pair, tiles, bins, tiles * bins])

    def _cgemm(self, fn, a, b, c, m, n, k, accumulate=0):
        # Frequency-major A and B (each pair's second) into C's first.
        self.rt.launch("cgemm_strided_batched",
                       (_ceil_div(n, 32), m, fn * fn), (32, 1, 1),
                       [a[1], b[1], c[0], m, n, k, accumulate])

    def _c2r(self, fn, pair, dst, count0, count1, out, crop, dest, valid,
             swap=0):
        tiles, bins = count0 * count1, fn * fn
        self._launch1d("fft_transpose_complex", tiles * bins,
                       [*pair, bins, tiles, tiles * bins])
        self.rt.launch(f"fft2d_c2r_{fn}x{fn}", (tiles, 1, 1), (fn, 1, 1),
                       [pair[1], dst, count0, count1, *out, *crop, *dest,
                        *valid, swap])

    def _fft(self, g: _Conv, fn: int, backward: bool = False) -> None:
        """Forward, or backward-data, convolution.  Forward correlates x
        with the flipped filter into y; backward-data is a true
        convolution of dy with the unflipped filter into dx, so the
        channel roles swap and each tile's origin moves from -pad to
        pad-(R-1)."""
        w, conv, n_img = g.w_desc, g.conv, g.x_desc.n
        if backward:
            src, src_desc, dst, dst_desc = g.y, g.y_desc, g.x, g.x_desc
            c_in, c_out, flip = w.k, w.c, 0
            shift = (conv.pad_h - (w.r - 1), conv.pad_w - (w.s - 1))
        else:
            src, src_desc, dst, dst_desc = g.x, g.x_desc, g.y, g.y_desc
            c_in, c_out, flip = w.c, w.k, 1
            shift = (-conv.pad_h, -conv.pad_w)
        step = (fn - w.r + 1, fn - w.s + 1)
        # Filter spectra, frequency-major A operand [bin][c_out*C_in + c_in].
        w_spec = self._pair(fn, c_out * c_in)
        self._r2c(fn, g.w, w_spec, c_out, c_in, (w.r, w.s), (0, 0), flip,
                  flip)
        in_spec = self._pair(fn, c_in * n_img)
        out_spec = self._pair(fn, c_out * n_img)
        for dest in _tile_origins(dst_desc, step):
            self._r2c(fn, src, in_spec, c_in, n_img, (src_desc.h, src_desc.w),
                      (dest[0] + shift[0], dest[1] + shift[1]), 0, 0)
            self._cgemm(fn, w_spec, in_spec, out_spec, c_out, n_img, c_in)
            self._c2r(fn, out_spec, dst, c_out, n_img,
                      (dst_desc.h, dst_desc.w), (w.r - 1, w.s - 1), dest,
                      step)

    def _fft_bwd_filter(self, g: _Conv, fn: int) -> None:
        """Per tile, correlate x with flipped dy, accumulating every
        tile's per-bin CGEMM into one [bin][k*C + c] spectrum that is
        inverted once at the end."""
        x, dy, w, conv = g.x_desc, g.y_desc, g.w_desc, g.conv
        n_img, c, k = x.n, x.c, w.k
        step_h, step_w = fn - w.r + 1, fn - w.s + 1
        x_spec, dy_spec = self._pair(fn, n_img * c), self._pair(fn, k * n_img)
        s_spec = self._pair(fn, k * c)
        for index, (p0h, p0w) in enumerate(
                _tile_origins(dy, (step_h, step_w))):
            # x tiles [bin][n*C + c]: B operand rows are images.
            self._r2c(fn, g.x, x_spec, n_img, c, (x.h, x.w),
                      (p0h - conv.pad_h, p0w - conv.pad_w), 0, 1)
            # dy tiles, flipped: [bin][k*N + n].
            self._r2c(fn, g.y, dy_spec, k, n_img, (dy.h, dy.w),
                      (dy.h - p0h - step_h, dy.w - p0w - step_w), 1, 0)
            self._cgemm(fn, dy_spec, x_spec, s_spec, k, c, n_img,
                        accumulate=int(index > 0))
        self._c2r(fn, s_spec, g.w, k, c, (w.r, w.s), (step_h - 1, step_w - 1),
                  (0, 0), (w.r, w.s), swap=1)

    # ------------------------------------------------------------------
    # Batch normalisation (cudnnBatchNormalization*, SPATIAL mode)
    # ------------------------------------------------------------------
    def batchnorm_forward_training(self, x_desc: TensorDescriptor,
                                   x: int, y: int, gamma: int, beta: int,
                                   eps: float = 1e-5
                                   ) -> tuple[int, int]:
        """Compute batch stats, normalise; returns (saved_mean,
        saved_invstd) workspaces for the backward pass."""
        with self._api_call("cudnnBatchNormalizationForwardTraining"):
            c = x_desc.c
            hw = x_desc.h * x_desc.w
            mean = self._workspace(4 * c)
            invstd = self._workspace(4 * c)
            self._launch1d("cudnn_bn_stats", c,
                           [x, mean, invstd, x_desc.n, c, hw, eps])
            self._launch1d("cudnn_bn_fwd", x_desc.size,
                           [x, y, gamma, beta, mean, invstd, x_desc.n,
                            c, hw, x_desc.size])
        return mean, invstd

    def batchnorm_forward_inference(self, x_desc: TensorDescriptor,
                                    x: int, y: int, gamma: int,
                                    beta: int, mean: int,
                                    invstd: int) -> None:
        """Normalise with provided (running) statistics."""
        with self._api_call("cudnnBatchNormalizationForwardInference"):
            self._launch1d("cudnn_bn_fwd", x_desc.size,
                           [x, y, gamma, beta, mean, invstd, x_desc.n,
                            x_desc.c, x_desc.h * x_desc.w, x_desc.size])

    def batchnorm_backward(self, x_desc: TensorDescriptor, x: int,
                           dy: int, dx: int, gamma: int, saved_mean: int,
                           saved_invstd: int, dgamma: int,
                           dbeta: int) -> None:
        with self._api_call("cudnnBatchNormalizationBackward"):
            c = x_desc.c
            hw = x_desc.h * x_desc.w
            self._launch1d("cudnn_bn_bwd_reduce", c,
                           [x, dy, saved_mean, saved_invstd, dgamma,
                            dbeta, x_desc.n, c, hw])
            self._launch1d("cudnn_bn_bwd_dx", x_desc.size,
                           [x, dy, dx, gamma, saved_mean, saved_invstd,
                            dgamma, dbeta, x_desc.n, c, hw,
                            x_desc.size])

    # ------------------------------------------------------------------
    # FP16 (paper Section III-D.1)
    # ------------------------------------------------------------------
    def convert_fp32_to_fp16(self, src: int, count: int) -> int:
        """Returns a new device buffer of binary16 values."""
        with self._api_call("cudnnTransformTensor[fp32->fp16]"):
            dst = self.rt.malloc(2 * count)
            self._launch1d("cudnn_cvt_fp32_to_fp16", count,
                           [src, dst, count])
        return dst

    def convert_fp16_to_fp32(self, src: int, count: int) -> int:
        with self._api_call("cudnnTransformTensor[fp16->fp32]"):
            dst = self.rt.malloc(4 * count)
            self._launch1d("cudnn_cvt_fp16_to_fp32", count,
                           [src, dst, count])
        return dst

    def convolution_forward_fp16(self, x_desc: TensorDescriptor, x: int,
                                 w_desc: FilterDescriptor, w: int,
                                 conv: ConvolutionDescriptor,
                                 y: int | None = None
                                 ) -> tuple[TensorDescriptor, int]:
        """CUDNN_DATA_HALF convolution: binary16 tensors, FP32 math.

        Only the implicit-GEMM algorithm carries an FP16 build, matching
        the paper's partial FP16 bring-up (full FP16 across every
        algorithm family is exactly its stated future work).
        """
        y_desc = conv.output_dims(x_desc, w_desc)
        if y is None:
            y = self.rt.malloc(2 * y_desc.size)
        with self._api_call("cudnnConvolutionForward[fp16]"):
            self._implicit_gemm(_Conv(x_desc, x, w_desc, w, conv, y_desc, y),
                                kernel="implicit_gemm_fwd_fp16")
        return y_desc, y

    # ------------------------------------------------------------------
    # cuBLAS-style helpers used by fully connected layers
    # ------------------------------------------------------------------
    def sgemm(self, a: int, b: int, c: int, m: int, n: int, k: int,
              alpha: float = 1.0, beta: float = 0.0) -> None:
        with self._api_call("cublasSgemm"):
            self._sgemm(a, b, c, m, n, k, alpha=alpha, beta=beta)

    def sgemv_t(self, a: int, x: int, y: int, rows: int, cols: int,
                alpha: float = 1.0, beta: float = 0.0) -> None:
        with self._api_call("cublasSgemv[T]"):
            self._launch1d("gemv2T_kernel_val", cols,
                           [a, x, y, rows, cols, alpha, beta])

    def saxpy(self, x: int, y: int, alpha: float, count: int) -> None:
        with self._api_call("cublasSaxpy"):
            self._launch1d("cublas_saxpy", count, [x, y, alpha, count])

    def fill_zero(self, ptr: int, count: int) -> None:
        with self._api_call("cudnnSetTensor(0)"):
            self._launch1d("cudnn_fill_zero", count, [ptr, count])


# ----------------------------------------------------------------------
# The algorithm table
# ----------------------------------------------------------------------
def _unit_stride(what: str) -> tuple:
    return (f"{what} requires unit stride",
            lambda w, conv: conv.stride_h == conv.stride_w == 1)


_WINOGRAD = (("Winograd requires 3x3 filters",
              lambda w, conv: w.r == w.s == 3),
             _unit_stride("Winograd"))


def _fft(fn: int, pipeline) -> tuple:
    """An FFT row: unit stride, a filter that fits the fn x fn tile."""
    return ((_unit_stride("FFT"),
             ("filter larger than FFT tile",
              lambda w, conv: w.r <= fn and w.s <= fn)),
            partial(pipeline, fn=fn))


#: Per direction, in the paper's Sec. V order: algo -> (requirements,
#: pipeline).  A requirement is ``(message, holds(w_desc, conv))``; the
#: first that fails raises ``CUDNN_STATUS_NOT_SUPPORTED: <message>``.
#: Adding an algorithm is one enum member plus one row here.
ALGORITHMS: dict[str, dict] = {
    "fwd": {
        ConvFwdAlgo.FFT: _fft(32, Cudnn._fft),
        ConvFwdAlgo.FFT_TILING: _fft(16, Cudnn._fft),
        ConvFwdAlgo.GEMM: ((), Cudnn._gemm),
        ConvFwdAlgo.IMPLICIT_GEMM: ((), Cudnn._implicit_gemm),
        ConvFwdAlgo.WINOGRAD: (_WINOGRAD, Cudnn._winograd_fused),
        ConvFwdAlgo.WINOGRAD_NONFUSED: (_WINOGRAD, Cudnn._winograd_nonfused),
    },
    "bwd_data": {
        ConvBwdDataAlgo.ALGO_0: ((), Cudnn._bwd_data_algo0),
        ConvBwdDataAlgo.ALGO_1: ((), Cudnn._bwd_data_algo1),
        ConvBwdDataAlgo.FFT_TILING: _fft(
            16, partial(Cudnn._fft, backward=True)),
        ConvBwdDataAlgo.WINOGRAD: (_WINOGRAD, partial(
            Cudnn._winograd_bwd_data, forward=Cudnn._winograd_fused)),
        ConvBwdDataAlgo.WINOGRAD_NONFUSED: (_WINOGRAD, partial(
            Cudnn._winograd_bwd_data, forward=Cudnn._winograd_nonfused)),
    },
    "bwd_filter": {
        ConvBwdFilterAlgo.ALGO_0: ((), Cudnn._bwd_filter_algo0),
        ConvBwdFilterAlgo.ALGO_1: ((), Cudnn._bwd_filter_algo1),
        ConvBwdFilterAlgo.ALGO_3: ((), Cudnn._bwd_filter_algo3),
        ConvBwdFilterAlgo.FFT: _fft(32, Cudnn._fft_bwd_filter),
        ConvBwdFilterAlgo.FFT_TILING: _fft(16, Cudnn._fft_bwd_filter),
        ConvBwdFilterAlgo.WINOGRAD_NONFUSED: (_WINOGRAD,
                                              Cudnn._winograd_bwd_filter),
    },
}


def _unmet(requirements, w_desc, conv) -> str | None:
    return next((message for message, holds in requirements
                 if not holds(w_desc, conv)), None)


def supported(direction: str, w_desc: FilterDescriptor,
              conv: ConvolutionDescriptor) -> list:
    """*direction*'s algorithms, in table order, that run on this filter
    and convolution rather than raise ``CUDNN_STATUS_NOT_SUPPORTED``.
    Pure: it reads the table and launches nothing."""
    return [algo for algo, (requirements, _) in ALGORITHMS[direction].items()
            if _unmet(requirements, w_desc, conv) is None]
