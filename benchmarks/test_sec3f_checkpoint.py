"""Section III-F — checkpointing and the functional/performance gap.

Paper: "the Performance simulation mode is generally 7-8 times slower
than the Functional simulation mode", which is why checkpoints exist:
run functionally to the region of interest, then resume in performance
mode.  Shape targets: performance mode is substantially slower (wall
clock), and a resumed run reproduces the full run's results bit-exactly
while skipping the pre-checkpoint work.
"""

import time

import numpy as np

from bench_utils import run_once

from repro.checkpoint import CheckpointingBackend, ResumeBackend
from repro.cuda import CudaRuntime, FunctionalBackend
from repro.cudnn import ConvFwdAlgo
from repro.nn.lenet import LeNetConfig
from repro.timing import TINY, TimingBackend
from repro.workloads.mnist_sample import MnistSample, MnistSampleConfig

SAMPLE = MnistSampleConfig(
    images=1,
    lenet=LeNetConfig.reduced(
        conv1_fwd=ConvFwdAlgo.IMPLICIT_GEMM,
        conv2_fwd=ConvFwdAlgo.WINOGRAD_NONFUSED,
        conv1_channels=3, conv2_channels=4, fc_hidden=24))


def _run(backend=None):
    runtime = (CudaRuntime(backend=backend) if backend is not None
               else CudaRuntime())
    sample = MnistSample(runtime, SAMPLE)
    result = sample.run(self_check=False)
    return runtime, result


def _wall(make_backend) -> float:
    """Wall seconds of one pass on a fresh device, plans compiled."""
    _run(make_backend())    # compile and cache every kernel's plan
    start = time.perf_counter()
    _run(make_backend())
    return time.perf_counter() - start


def test_sec3f_performance_mode_slowdown(benchmark, record):
    megablock = _wall(lambda: FunctionalBackend(fast_mode="megablock"))
    superblock = _wall(lambda: FunctionalBackend(fast_mode="superblock"))
    _run(TimingBackend(TINY))
    start = time.perf_counter()
    run_once(benchmark, lambda: _run(TimingBackend(TINY)))
    performance = time.perf_counter() - start
    ratio = performance / megablock
    record("sec3f_mode_slowdown",
           f"functional mode wall (megablock tier): {megablock:.3f}s\n"
           f"functional mode wall (superblock tier): {superblock:.3f}s\n"
           f"performance mode wall: {performance:.3f}s\n"
           f"slowdown: {ratio:.1f}x over megablock, "
           f"{performance / superblock:.1f}x over superblock "
           "(paper: 7-8x)\n")
    # Performance mode runs the launch functionally on the megablock
    # tier (recording it), then replays the recording through the cycle
    # loop: it must cost more than that functional pass alone, and the
    # paper's 7-8x says by how much a detailed model should.
    assert ratio > 3, "performance mode should cost several functional runs"


def test_sec3f_checkpoint_resume_bit_exact(benchmark, record):
    # Full functional run = ground truth.
    _rt, truth = _run()

    def checkpoint_and_resume():
        checkpointer = CheckpointingBackend(
            kernel_ordinal=3, first_cta=0, partial_ctas=1,
            warp_instruction_budget=24)
        _run(checkpointer)
        assert checkpointer.taken
        resume = ResumeBackend(checkpointer.checkpoint,
                               TimingBackend(TINY))
        _rt2, resumed = _run(resume)
        return checkpointer.checkpoint, resumed

    checkpoint, resumed = run_once(benchmark, checkpoint_and_resume)
    record("sec3f_checkpoint_resume",
           f"checkpoint at kernel #{checkpoint.kernel_ordinal} "
           f"({checkpoint.kernel_name}), CTA {checkpoint.first_cta}, "
           f"{checkpoint.partial_ctas} partial CTA(s), "
           f"y={checkpoint.warp_instruction_budget} instructions/warp\n"
           f"Data1: {len(checkpoint.cta_snapshots)} CTA snapshot(s)\n"
           f"resumed logits match full run: "
           f"{np.allclose(resumed.logits, truth.logits, atol=1e-4)}\n")
    assert np.allclose(resumed.logits, truth.logits, atol=1e-4)
