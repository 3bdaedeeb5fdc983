"""The paper's experiments as one table.

Each row of :data:`EXPERIMENTS` is one figure, section or ablation of
the paper: its claim, the named workload it reads, the check that
writes its ``results/`` artifacts and asserts the claim's shape, and
whether those are *exact* (cycles, counts, matrices: byte for byte) or
*host-timed* (wall seconds: a ratio is asserted).  Readers:
``benchmarks/test_experiments.py`` (runs every row, writes
``results/``), ``tools/check_results.py`` (diffs every exact artifact
against its regeneration), ``tools/check_experiments_index.py`` (the
EXPERIMENTS.md index names every row) and ``tools/timing_fingerprint.py``
(:data:`SAMPLE`, :func:`run_lenet`).

Importing this module runs no simulation; a named workload runs the
first time a row reads it, once per process.  Adding a figure is one
row here and one line of EXPERIMENTS.md's index.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.aerialvision.plots import phase_summary
from repro.checkpoint import CheckpointingBackend, ResumeBackend
from repro.cuda import CudaRuntime, FunctionalBackend
from repro.cudnn import (
    ALGORITHMS, ActivationDescriptor, ConvBwdDataAlgo, ConvBwdFilterAlgo,
    ConvFwdAlgo, ConvolutionDescriptor, FilterDescriptor, TensorDescriptor,
    build_application_binary, supported)
from repro.debugtool import DifferentialDebugger, GoldenExecutor
from repro.functional.memory import LinearMemory
from repro.functional.state import LaunchContext
from repro.harness import run_mnist_correlation
from repro.harness.conv_study import StudyResult, run_case
from repro.harness.correlation import FIGURE7_KERNELS
from repro.nn.lenet import LeNetConfig
from repro.power import PowerModel
from repro.power.model import COMPONENTS
from repro.quirks import LegacyQuirks
from repro.timing import TINY, TimingBackend
from repro.timing.config import GTX1050, GTX1080TI
from repro.timing.stats import W0_ALU, W0_BARRIER, W0_IDLE, W0_MEM
from repro.workloads.conv_sample import ConvSampleConfig
from repro.workloads.mnist_sample import MnistSample, MnistSampleConfig

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1,
                              warmup_rounds=0)


# -- Named workloads --------------------------------------------------------

#: The Section V platform (28 SMs, 11 partitions), as in the paper.
GPU = GTX1080TI

#: conv_sample geometry: 3x3 stride-1 pad-1 so every algorithm of the
#: paper's sweep is applicable.
SAMPLE = ConvSampleConfig(batch=1, channels=3, height=10, width=10,
                          filters=4)

#: Figs. 6-8: the reduced LeNet the paper's cuDNN sample classifies.
MNIST = MnistSampleConfig(
    images=2,
    lenet=LeNetConfig.reduced(
        conv1_fwd=ConvFwdAlgo.FFT_TILING,
        conv2_fwd=ConvFwdAlgo.WINOGRAD_NONFUSED,
        conv1_channels=3, conv2_channels=4, fc_hidden=24))

#: Sec. III-F: the net that is checkpointed and timed in both modes.
SEC3F_NET = MnistSampleConfig(
    images=1,
    lenet=LeNetConfig.reduced(
        conv1_fwd=ConvFwdAlgo.IMPLICIT_GEMM,
        conv2_fwd=ConvFwdAlgo.WINOGRAD_NONFUSED,
        conv1_channels=3, conv2_channels=4, fc_hidden=24))

_, _W_DESC, _CONV = SAMPLE.descriptors()
#: Every algorithm of each direction's table that SAMPLE supports.
DIRECTIONS = {direction: supported(direction, _W_DESC, _CONV)
              for direction in ALGORITHMS}


@cache
def conv_case(direction: str, algo) -> StudyResult:
    """One Section V case: *algo* on SAMPLE in performance mode."""
    return run_case(direction, algo, gpu=GPU, sample=SAMPLE)


@cache
def correlation():
    """Figs. 6 and 7: MNIST on the oracle and on the timing model."""
    return run_mnist_correlation(GTX1050, sample_config=MNIST)


@cache
def power():
    """Fig. 8: one image's power breakdown."""
    backend = TimingBackend(GTX1050)
    runtime = CudaRuntime(backend=backend)
    sample = MnistSample(runtime, replace(MNIST, images=1))
    sample.run(self_check=False)
    model = PowerModel(GTX1050)
    return model.breakdown(backend.kernel_stats)


@cache
def sec3d_inputs():
    """Sec. III-D: ``x``, ``w`` and the golden launch's 36 source
    values, drawn from one generator in that order."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
    w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    return x, w, rng.standard_normal(36).astype(np.float32)


def _sec3d_application(dnn):
    x, w, _ = sec3d_inputs()
    rt = dnn.rt
    x_ptr = rt.upload_f32(x.ravel())
    w_ptr = rt.upload_f32(w.ravel())
    scratch = rt.malloc(x.nbytes)
    dnn.activation_forward(ActivationDescriptor("relu"), x_ptr, scratch,
                           x.size)
    dnn.convolution_forward(TensorDescriptor(*x.shape), x_ptr,
                            FilterDescriptor(*w.shape), w_ptr,
                            ConvolutionDescriptor(pad_h=1, pad_w=1),
                            ConvFwdAlgo.FFT_TILING)


def bisection():
    """Sec. III-D levels 1-2 with the historical ``rem`` re-injected."""
    debugger = DifferentialDebugger(
        _sec3d_application,
        suspect_quirks=LegacyQuirks(rem_ignores_type=True))
    return debugger.run()


def golden_divergence():
    """Sec. III-D level 3: lockstep golden execution of fft2d_r2c."""
    rt = CudaRuntime()
    rt.load_binary(build_application_binary())
    src = rt.upload_f32(sec3d_inputs()[2])
    dst = rt.malloc(8 * 256)
    kernel = rt.program.find_kernel("fft2d_r2c_16x16")
    pm = LinearMemory(max(kernel.param_bytes, 16))
    for decl, value in zip(kernel.params,
                           [src, dst, 1, 1, 6, 6, 0, 0, 0, 0]):
        pm.write_uint(decl.offset, value, decl.dtype.bytes)
    launch = LaunchContext(kernel=kernel, grid_dim=(1, 1, 1),
                           block_dim=(16, 1, 1),
                           global_mem=rt.global_mem, param_mem=pm)
    golden = GoldenExecutor(
        launch, suspect_quirks=LegacyQuirks(rem_ignores_type=True))
    return golden.find_divergence()


def run_net(backend=None):
    """One SEC3F_NET pass on a fresh device: (runtime, result)."""
    runtime = CudaRuntime(backend=backend)
    return runtime, MnistSample(runtime, SEC3F_NET).run(self_check=False)


def _wall(make_backend) -> float:
    """Wall seconds of one pass on a fresh device, plans compiled."""
    run_net(make_backend())    # compile and cache every kernel's plan
    start = time.perf_counter()
    run_net(make_backend())
    return time.perf_counter() - start


def mode_walls():
    """Sec. III-F: (megablock, superblock, performance) pass walls."""
    return (_wall(lambda: FunctionalBackend(fast_mode="megablock")),
            _wall(lambda: FunctionalBackend(fast_mode="superblock")),
            _wall(lambda: TimingBackend(TINY)))


def checkpoint_resume():
    """Sec. III-F: a full functional run, then checkpoint and resume in
    performance mode: (checkpoint, resumed, truth)."""
    # Full functional run = ground truth.
    _rt, truth = run_net()
    checkpointer = CheckpointingBackend(
        kernel_ordinal=3, first_cta=0, partial_ctas=1,
        warp_instruction_budget=24)
    run_net(checkpointer)
    assert checkpointer.taken
    resume = ResumeBackend(checkpointer.checkpoint,
                           TimingBackend(TINY))
    _rt2, resumed = run_net(resume)
    return checkpointer.checkpoint, resumed, truth


def sweep():
    """Section V: every (direction, algorithm) SAMPLE supports."""
    return {(direction, algo.value): conv_case(direction, algo)
            for direction, algos in DIRECTIONS.items() for algo in algos}


def reconverge_at_exit():
    """Fig. 22's ablation: Winograd fwd with reconvergence at exit."""
    return run_case("fwd", ConvFwdAlgo.WINOGRAD_NONFUSED, gpu=GPU,
                    sample=SAMPLE, reconverge_at_exit=True)


def dram_policies():
    """FR-FCFS open-row (the default) and FCFS closed-row, GEMM fwd."""
    return (conv_case("fwd", ConvFwdAlgo.GEMM),
            run_case("fwd", ConvFwdAlgo.GEMM,
                     gpu=replace(GPU, dram_scheduler="fcfs"),
                     sample=SAMPLE))


def run_lenet(runtime):
    """The Sec. III-F net on seed 7: the repo benchmark's
    ``lenet_timing`` and the ``lenet-*`` timing fingerprints."""
    MnistSample(runtime, replace(SEC3F_NET, seed=7)).run(self_check=False)


def net_profiles(gpu):
    """:func:`run_lenet` in performance mode on *gpu*: its profiles."""
    runtime = CudaRuntime(backend=TimingBackend(gpu))
    run_lenet(runtime)
    runtime.synchronize()
    return runtime.profiles


def warp_policies():
    """LRR (the default) and GTO warp scheduling: implicit GEMM fwd,
    whose 16 warps leave one per scheduler, and the Sec. III-F net on
    the GTX 1050, where schedulers hold several."""
    return ((conv_case("fwd", ConvFwdAlgo.IMPLICIT_GEMM),
             run_case("fwd", ConvFwdAlgo.IMPLICIT_GEMM,
                      gpu=replace(GPU, warp_scheduler="gto"),
                      sample=SAMPLE)),
            (net_profiles(GTX1050),
             net_profiles(replace(GTX1050, warp_scheduler="gto"))))


# -- Render and check: write the artifacts, then assert the shape ----------

def fig06(result, txt):
    txt.write_text(result.render())
    # Shape target 1: simulated total within 30% of "hardware".
    assert result.total_error < 0.30, (
        f"simulation {100 * result.total_ratio:.0f}% of hardware — "
        "outside the paper's 30% band")
    # Shape target 2: strong positive per-kernel correlation.
    assert result.correlation > 0.60
    # Sanity: the workload really went through the paper's kernel zoo.
    names = {k.name for k in result.per_kernel}
    assert any("fft2d" in n for n in names)
    assert any("winograd" in n for n in names)
    assert any("lrn" in n for n in names)


def fig07(result, txt):
    rows = result.figure7_rows()
    lines = ["Fig 7 — per-kernel relative execution time (hw = 100)"]
    lines += [f"  {name:18s} hw={hw:6.1f} sim={sim:6.1f}"
              for name, hw, sim in rows]
    txt.write_text("\n".join(lines))

    by_family = {name: sim for name, _hw, sim in rows}
    # The pessimistic group: sim noticeably above hardware.
    for family in ("lrn", "cgemm", "gemv2T", "winograd"):
        assert family in by_family, f"{family} missing from the workload"
        assert by_family[family] > 120, (
            f"{family}: sim={by_family[family]:.0f} not an outlier")
    # The optimistic group: at least one fft2d family below hardware.
    fft_rows = [sim for name, _hw, sim in rows if "fft2d" in name]
    assert fft_rows and min(fft_rows) < 100
    # Every figure-7 family present in the run deviates from 100.
    for name, _hw, sim in rows:
        assert abs(sim - 100) > 5, f"{name} unexpectedly on the line"
    assert set(by_family) <= set(FIGURE7_KERNELS)


def fig08(breakdown, txt):
    lines = ["Fig 8 — average power, 32-bit MNIST (GTX1050 model)"]
    for name, watts, share in breakdown.as_rows():
        lines.append(f"  {name:5s} {watts:7.2f} W  {100 * share:5.1f}%")
    lines.append(f"  total {breakdown.total:7.2f} W")
    txt.write_text("\n".join(lines))

    assert set(breakdown.watts) == set(COMPONENTS)
    core = breakdown.share("core")
    idle = breakdown.share("idle")
    # Core dominates (paper: ~65%).
    assert core > 0.40
    for other in ("l1", "l2", "noc", "dram"):
        assert core > breakdown.share(other)
    # Idle is the second-largest block (paper: ~25%).
    assert idle > 0.10
    assert idle > max(breakdown.share(c)
                      for c in ("l1", "l2", "noc", "dram"))
    assert breakdown.total > 0


def fig09_10(result, txt, csv):
    report = result.report
    txt.write_text(report.render_text() + "\n\n"
                   + f"interval camping index: "
                   f"{report.interval_camping_index():.3f}\n")
    report.write_csv(csv)

    eff = report.dram_efficiency
    util = report.dram_utilization
    assert eff.shape[0] == 11  # GTX1080Ti partitions
    # High-efficiency periods exist on most banks...
    busy_banks = (eff.max(axis=1) > 0.5).sum()
    assert busy_banks >= eff.shape[0] // 2
    # ...interspersed with low phases: each busy bank's efficiency
    # crosses its mean many times ("many varying phases").
    crossings = phase_summary(eff[int(np.argmax(eff.sum(axis=1)))])
    assert crossings["crossings"] >= 4
    assert 0 < crossings["high_fraction"] < 1
    # Serial sections: per-interval traffic concentrates on few banks.
    floor = 1.0 / util.shape[0]
    assert report.interval_camping_index() > 2.5 * floor


def fig11_12(result, txt, csv):
    report = result.report
    fft_report = conv_case("fwd", ConvFwdAlgo.FFT).report
    txt.write_text(report.render_text() + "\n\n"
                   + f"GEMM interval camping index: "
                   f"{report.interval_camping_index():.3f}\n"
                   + f"FFT  interval camping index: "
                   f"{fft_report.interval_camping_index():.3f}\n")
    report.write_csv(csv)

    # The headline comparison: GEMM camps far less than FFT.
    assert (report.interval_camping_index()
            < 0.7 * fft_report.interval_camping_index())
    # And its traffic reaches multiple partitions.
    per_partition = report.dram_utilization.sum(axis=1)
    assert (per_partition > 0).sum() >= 4


def fig13_14(result, txt, csv):
    report = result.report
    txt.write_text(report.render_text())
    report.write_csv(csv)

    # Atomic scatter produced DRAM read-modify-write traffic.
    writes = sum(p.result.stats.get("dram_writes", 0)
                 for p in result.profiles)
    atomics = sum(p.result.stats.get("atom_ops", 0)
                  for p in result.profiles)
    assert atomics > 0
    assert writes > 0
    # The *read* side (image + dy gathers) spreads across most
    # partitions — "less of an issue" than FFT's serial phases.  (The
    # dw buffer itself is small at this geometry, so its atomic updates
    # concentrate; EXPERIMENTS.md discusses the deviation.)
    per_partition = report.dram_utilization.sum(axis=1)
    assert (per_partition > 0).sum() >= 6
    # Efficiency stays bounded and shows activity on the busy banks.
    assert report.dram_efficiency.max() > 0.3
    fft_report = conv_case("fwd", ConvFwdAlgo.FFT).report
    assert fft_report.interval_camping_index() > 0.2  # FFT still camps


def _ipc_and_balance(result, txt, csv):
    report = result.report
    txt.write_text(report.render_text() + "\n"
                   + f"mean IPC {result.mean_ipc:.1f}, "
                   f"balance {report.shader_load_balance():.2f}\n")
    report.write_csv(csv)
    return report


def fig15_17(result, txt, csv):
    report = _ipc_and_balance(result, txt, csv)
    # Highest IPC among the forward algorithms we also ran.
    implicit = conv_case("fwd", ConvFwdAlgo.IMPLICIT_GEMM)
    fft = conv_case("fwd", ConvFwdAlgo.FFT)
    assert result.mean_ipc > implicit.mean_ipc
    assert result.mean_ipc > fft.mean_ipc
    # Balanced across the shader cores (Fig. 16).
    assert report.shader_load_balance() > 0.9
    # Compute-bound phases: in the top-IPC intervals, DRAM efficiency
    # is below its overall mean (Fig. 16 vs Fig. 17).
    ipc = report.global_ipc
    eff = report.dram_efficiency.mean(axis=0)
    top = ipc >= np.percentile(ipc[ipc > 0], 75)
    busy_eff = eff[eff > 0]
    if busy_eff.size and top.any():
        assert eff[top].mean() <= eff.mean() + 1e-9


def fig18_19(result, txt, csv):
    report = _ipc_and_balance(result, txt, csv)
    # Highest IPC among backward-data algorithms.
    for algo in (ConvBwdDataAlgo.ALGO_0, ConvBwdDataAlgo.ALGO_1):
        other = conv_case("bwd_data", algo)
        assert result.mean_ipc > other.mean_ipc, algo
    # Balanced across shader cores (Fig. 19).
    assert report.shader_load_balance() > 0.9
    assert report.peak_global_ipc > 0


def fig20_21(result, txt, csv):
    report = _ipc_and_balance(result, txt, csv)
    # Still the highest IPC among backward-filter algorithms...
    for algo in (ConvBwdFilterAlgo.ALGO_0, ConvBwdFilterAlgo.ALGO_1,
                 ConvBwdFilterAlgo.ALGO_3):
        other = conv_case("bwd_filter", algo)
        assert result.mean_ipc > other.mean_ipc, algo
    # ...but only some of the cores are used (vs the balanced forward).
    fwd = conv_case("fwd", ConvFwdAlgo.WINOGRAD_NONFUSED)
    bwd_balance = report.shader_load_balance()
    assert bwd_balance < 0.8
    assert bwd_balance < fwd.report.shader_load_balance()
    # The active cores commit many instructions per cycle.
    per_sm = report.shader_ipc.max(axis=1)
    assert per_sm.max() > 1.0


def _issue_breakdown(title, shares, last):
    lines = [title]
    for bucket, share in sorted(shares.items()):
        if share > 0:
            lines.append(f"  {bucket:12s} {100 * share:6.2f}%")
    return "\n".join(lines + [last])


def fig22(result, txt):
    report = result.report
    shares = report.stall_breakdown()
    issued_partial = report.divergence_fraction()
    txt.write_text(_issue_breakdown(
        "Fig 22 — Winograd Nonfused fwd: warp issue breakdown", shares,
        f"  divergent-issue fraction: {issued_partial:.4f}"))

    # Divergence exists (boundary tiles) but is small...
    assert 0 < issued_partial < 0.3
    # ...and has negligible impact: it is still one of the fastest.
    implicit = conv_case("fwd", ConvFwdAlgo.IMPLICIT_GEMM)
    assert result.mean_ipc > 3 * implicit.mean_ipc


def fig22_reconvergence(ablated, txt):
    baseline = conv_case("fwd", ConvFwdAlgo.WINOGRAD_NONFUSED)
    base_div = baseline.report.divergence_fraction()
    ablat_div = ablated.report.divergence_fraction()
    txt.write_text(
        f"PDOM reconvergence:      divergent fraction {base_div:.4f}\n"
        f"reconverge-at-exit:      divergent fraction {ablat_div:.4f}\n")
    assert ablat_div >= base_div


def fig23_25(result, txt):
    report = result.report
    shares = report.stall_breakdown()
    stall_share = sum(shares.get(b, 0.0)
                      for b in (W0_IDLE, W0_MEM, W0_ALU, W0_BARRIER))
    issued_share = 1.0 - stall_share
    txt.write_text(_issue_breakdown(
        "Fig 23-25 — Implicit GEMM fwd: issue-slot breakdown", shares,
        f"  mean global IPC: {result.mean_ipc:.2f}"))

    # The breakdown is dominated by W0 slots (data hazards + idle).
    assert stall_share > 0.6
    hazard = shares.get(W0_MEM, 0.0) + shares.get(W0_ALU, 0.0)
    assert hazard > shares.get("W29_32", 0.0)
    # Low IPC relative to the fast algorithms (Figs. 24/25 vs 15/16).
    winograd = conv_case("fwd", ConvFwdAlgo.WINOGRAD_NONFUSED)
    assert result.mean_ipc < 0.5 * winograd.mean_ipc
    assert issued_share < 0.4


def sec3d_bisection(report, txt):
    txt.write_text(report.render())
    assert not report.clean
    assert "cudnnConvolutionForward" in report.api_name
    assert "fft2d_r2c" in report.kernel_name


def sec3d_golden_rem(diff, txt):
    txt.write_text(
        f"first incorrectly executing instruction:\n  pc={diff.pc}: "
        f"{diff.text.strip()}\n  lane={diff.lane} "
        f"suspect={diff.suspect_payload:#x} "
        f"reference={diff.reference_payload:#x}\n")
    # The paper's exact finding: a rem.u32 inside fft2d_r2c.
    assert diff.text.strip().startswith("rem.u32")


def sec3f_mode_slowdown(walls, txt):
    megablock, superblock, performance = walls
    ratio = performance / megablock
    txt.write_text(
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


def sec3f_checkpoint_resume(run, txt):
    checkpoint, resumed, truth = run
    txt.write_text(
        f"checkpoint at kernel #{checkpoint.kernel_ordinal} "
        f"({checkpoint.kernel_name}), CTA {checkpoint.first_cta}, "
        f"{checkpoint.partial_ctas} partial CTA(s), "
        f"y={checkpoint.warp_instruction_budget} instructions/warp\n"
        f"Data1: {len(checkpoint.cta_snapshots)} CTA snapshot(s)\n"
        f"resumed logits match full run: "
        f"{np.allclose(resumed.logits, truth.logits, atol=1e-4)}\n")
    assert np.allclose(resumed.logits, truth.logits, atol=1e-4)


def sec5_sweep(results, txt):
    lines = ["Section V — conv_sample algorithm sweep "
             "(mean IPC, cycles; GTX1080Ti model)"]
    for direction, algos in DIRECTIONS.items():
        lines.append(f"\n{direction}:")
        ranked = sorted(
            ((results[(direction, a.value)].mean_ipc,
              results[(direction, a.value)].total_cycles, a.value)
             for a in algos), reverse=True)
        for ipc, cycles, name in ranked:
            lines.append(f"  {name:20s} IPC {ipc:7.1f}   "
                         f"cycles {cycles:9d}")
    txt.write_text("\n".join(lines))

    # The paper's headline: Winograd Nonfused has the highest IPC for
    # all three convolution types.
    for direction, algos in DIRECTIONS.items():
        winograd = results[(direction, "winograd_nonfused")]
        for algo in algos:
            if algo.value == "winograd_nonfused":
                continue
            other = results[(direction, algo.value)]
            assert winograd.mean_ipc >= 0.95 * other.mean_ipc, (
                f"{direction}: {algo.value} IPC {other.mean_ipc:.1f} "
                f"vs winograd_nonfused {winograd.mean_ipc:.1f}")


def ablation_dram(runs, txt):
    frfcfs, fcfs = runs

    def hits(result):
        return sum(p.result.stats.get("dram_row_hits", 0)
                   for p in result.profiles)

    txt.write_text(
        f"FR-FCFS (open row):  {frfcfs.total_cycles} cycles, "
        f"{hits(frfcfs)} row hits\n"
        f"FCFS (closed row):   {fcfs.total_cycles} cycles, "
        f"{hits(fcfs)} row hits\n")
    assert hits(fcfs) == 0
    assert hits(frfcfs) > 0
    assert frfcfs.total_cycles <= fcfs.total_cycles


def ablation_warp(runs, txt):
    (lrr, gto), (net_lrr, net_gto) = runs

    def work(profiles):
        return sum(p.result.stats["warp_instructions"] for p in profiles)

    def cycles(profiles):
        return sum(p.result.cycles for p in profiles)

    txt.write_text(
        "Implicit GEMM fwd (GTX 1080 Ti, one warp per scheduler):\n"
        f"LRR: {lrr.total_cycles} cycles, IPC {lrr.mean_ipc:.1f}\n"
        f"GTO: {gto.total_cycles} cycles, IPC {gto.mean_ipc:.1f}\n"
        "Sec. III-F net (GTX 1050):\n"
        f"LRR: {cycles(net_lrr)} cycles, {work(net_lrr)} warp "
        "instructions\n"
        f"GTO: {cycles(net_gto)} cycles, {work(net_gto)} warp "
        "instructions\n")
    # Same work retires under both policies.
    lrr_instr = sum(p.result.stats["warp_instructions"]
                    for p in lrr.profiles)
    gto_instr = sum(p.result.stats["warp_instructions"]
                    for p in gto.profiles)
    assert lrr_instr == gto_instr
    assert gto.total_cycles > 0
    # Where a scheduler picks among several warps, the policy shows:
    # the same work in a different number of cycles.
    assert work(net_lrr) == work(net_gto)
    assert cycles(net_lrr) != cycles(net_gto)


# -- The table --------------------------------------------------------------

class Experiment(NamedTuple):
    """One figure, section or ablation of the paper's evaluation."""

    id: str
    claim: str
    workload: Callable[[], object]
    #: ``check(workload_result, *paths)``: writes the artifacts, then
    #: asserts the claim's shape.
    check: Callable[..., None]
    #: Files or CSV directories under ``results/``.
    artifacts: tuple[str, ...]
    #: False for a host-timed artifact (wall seconds, gated on a ratio).
    exact: bool = True

    def paths(self, root: Path) -> list[Path]:
        return [root / name for name in self.artifacts]


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "fig06", "LeNet on MNIST: simulated time \"within 30% of real "
        "hardware\" (here the analytical oracle), 72% per-kernel "
        "correlation.",
        correlation, fig06, ("fig06_mnist_correlation.txt",)),
    Experiment(
        "fig07", "\"A few kernels such as CGEMM, Winograd, and LRN\" make "
        "the discrepancy: GEMM/GEMV/Winograd/LRN above hardware, fft2d "
        "below.",
        correlation, fig07, ("fig07_per_kernel_correlation.txt",)),
    Experiment(
        "fig08", "Power: \"the core (in particular the ALUs) consume 65%\", "
        "idle \"a further 25%\"; all six components report.",
        power, fig08, ("fig08_power_breakdown.txt",)),
    Experiment(
        "fig09_10", "Forward FFT: high DRAM efficiency interspersed with "
        "serial phases, \"known as bank camping\".",
        partial(conv_case, "fwd", ConvFwdAlgo.FFT), fig09_10,
        ("fig09_fft_dram_efficiency.txt", "fig09_10_csv")),
    Experiment(
        "fig11_12", "\"Bank camping is less of an issue\" for forward GEMM: "
        "it spreads accesses across partitions.",
        partial(conv_case, "fwd", ConvFwdAlgo.GEMM), fig11_12,
        ("fig11_gemm_dram_efficiency.txt", "fig11_12_csv")),
    Experiment(
        "fig13_14", "Backward filter algorithm 0: less camping than FFT; "
        "its atomic scatter makes read-modify-write DRAM traffic.",
        partial(conv_case, "bwd_filter", ConvBwdFilterAlgo.ALGO_0), fig13_14,
        ("fig13_bwdfilter_algo0_dram.txt", "fig13_14_csv")),
    Experiment(
        "fig15_17", "Forward Winograd Nonfused: highest IPC, balanced "
        "shaders, low memory efficiency where IPC peaks.",
        partial(conv_case, "fwd", ConvFwdAlgo.WINOGRAD_NONFUSED), fig15_17,
        ("fig15_17_winograd_fwd.txt", "fig15_17_csv")),
    Experiment(
        "fig18_19", "Backward data Winograd Nonfused: highest IPC, balanced "
        "across the shader cores.",
        partial(conv_case, "bwd_data", ConvBwdDataAlgo.WINOGRAD_NONFUSED), fig18_19,
        ("fig18_19_winograd_bwddata.txt", "fig18_19_csv")),
    Experiment(
        "fig20_21", "Backward filter Winograd Nonfused: highest IPC, but "
        "\"only some of the cores are being used due to load imbalance\".",
        partial(conv_case, "bwd_filter", ConvBwdFilterAlgo.WINOGRAD_NONFUSED), fig20_21,
        ("fig20_21_winograd_bwdfilter.txt", "fig20_21_csv")),
    Experiment(
        "fig22", "Forward Winograd Nonfused diverges most of the sweep, "
        "with \"a negligible impact on the IPC\".",
        partial(conv_case, "fwd", ConvFwdAlgo.WINOGRAD_NONFUSED), fig22,
        ("fig22_winograd_divergence.txt",)),
    Experiment(
        "fig22_reconvergence", "Ablation (DESIGN.md §5.2): reconverging "
        "at exit instead of the IPDOM diverges no less.",
        reconverge_at_exit, fig22_reconvergence,
        ("fig22_ablation_reconvergence.txt",)),
    Experiment(
        "fig23_25", "Forward implicit GEMM: \"data hazards and idle "
        "warps\" take most issue slots, hence its low IPC.",
        partial(conv_case, "fwd", ConvFwdAlgo.IMPLICIT_GEMM), fig23_25,
        ("fig23_25_implicit_gemm.txt",)),
    Experiment(
        "sec3d_bisection", "Sec. III-D: with the old rem re-injected, "
        "bisection finds the cuDNN convolution call, then fft2d_r2c.",
        bisection, sec3d_bisection, ("sec3d_bisection.txt",)),
    Experiment(
        "sec3d_golden_rem", "Sec. III-D: lockstep golden execution "
        "pinpoints \"rem.u32 %r149, %r2, %r121\" in fft2d_r2c.",
        golden_divergence, sec3d_golden_rem, ("sec3d_golden_rem.txt",)),
    Experiment(
        "sec3f_mode_slowdown", "Sec. III-F: performance mode is \"7-8 "
        "times slower than the Functional simulation mode\".",
        mode_walls, sec3f_mode_slowdown, ("sec3f_mode_slowdown.txt",),
        exact=False),
    Experiment(
        "sec3f_checkpoint_resume", "Sec. III-F: resuming a functional "
        "checkpoint in performance mode reproduces the full run.",
        checkpoint_resume, sec3f_checkpoint_resume,
        ("sec3f_checkpoint_resume.txt",)),
    Experiment(
        "sec5_sweep", "Sec. V: \"Winograd Nonfused has the highest IPCs "
        "for all three types of convolution\".",
        sweep, sec5_sweep, ("sec5_algorithm_sweep.txt",)),
    Experiment(
        "ablation_dram", "Ablation (DESIGN.md §5.3): FR-FCFS open-row "
        "DRAM scheduling against FCFS closed-row.",
        dram_policies, ablation_dram, ("ablation_dram_scheduler.txt",)),
    Experiment(
        "ablation_warp", "Ablation: LRR and GTO warp scheduling retire "
        "the same work, in different cycles once a scheduler holds "
        "several warps.",
        warp_policies, ablation_warp, ("ablation_warp_scheduler.txt",)),
)
