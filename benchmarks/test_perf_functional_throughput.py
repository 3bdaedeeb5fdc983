"""Functional-core throughput across all four execution tiers.

The paper leans on functional-mode speed (Section III-F: performance
simulation is 7-8x slower, hence checkpointing).  Our functional core
is pure Python, so interpreter overhead is the whole budget; this bench
measures warp-instructions/second on the LeNet forward pass, on one
conv_sample Winograd kernel, and on the predication/barrier-heavy
``predicated_blend`` workload under every tier in
``repro.functional.executor.FAST_MODES`` — the single tier registry,
so a new tier shows up here without editing this file — and records
the tier-over-tier ratios.  It gates on ratios only, which hold on any
machine: fusing never loses to stepping (superblock >= fastpath — both
render the same emitter table, so the ratio is what fusion alone buys,
about 1.4x), megablock >= 10x fastpath on LeNet forward, and megablock
>= 10x superblock on predicated_blend, the shape the vector tier used
to reject wholesale.  Whether a row lost ground against the previous
commit is a paired run of both commits on one machine (EXPERIMENTS.md
records the last one); the committed JSON is one machine's record, not
a bar for another.

It also times the disk-backed kernel cache: one cold and one warm
``conv_sample`` run in *separate processes* (the cache's reason to
exist), reporting wall seconds and hit/miss counters for each.

Results land in ``BENCH_functional_throughput.json`` at the repo root
so the ratios are diffable across commits.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from experiments import RESULTS_DIR, run_once

from repro.cuda import CudaRuntime
from repro.cuda.runtime import FunctionalBackend
from repro.cudnn import Cudnn, build_application_binary
from repro.cudnn.algos import ConvFwdAlgo
from repro.functional.executor import FAST_MODES
from repro.nn import synthetic_mnist
from repro.nn.lenet import LeNet, LeNetConfig
from repro.trace import Tracer
from repro.workloads.conv_sample import ConvSample, ConvSampleConfig
from repro.workloads.predicated_blend import (
    PredicatedBlend, PredicatedBlendConfig)

OUT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_functional_throughput.json")

#: Slowest-first so the cheap tiers close out the run.
MODES = tuple(reversed(FAST_MODES))


def _lenet_forward(mode: str, tracer=None) -> tuple[int, float]:
    """(warp instructions, wall seconds) for one LeNet forward pass."""
    rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode),
                     tracer=tracer)
    rt.load_binary(build_application_binary())
    model = LeNet(Cudnn(rt), LeNetConfig())
    images, _labels = synthetic_mnist(2, model.config.input_hw, seed=7)
    start_profiles = len(rt.profiles)
    start = time.perf_counter()
    model.forward(images)
    wall = time.perf_counter() - start
    instructions = sum(p.result.instructions
                      for p in rt.profiles[start_profiles:])
    return instructions, wall


def _conv_sample_forward(mode: str) -> tuple[int, float]:
    """One Winograd forward convolution from the conv_sample workload."""
    rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
    sample = ConvSample(rt, ConvSampleConfig())
    start = time.perf_counter()
    profiles = sample.run_forward(ConvFwdAlgo.WINOGRAD_NONFUSED)
    wall = time.perf_counter() - start
    instructions = sum(p.result.instructions for p in profiles)
    return instructions, wall


def _predicated_blend(mode: str) -> tuple[int, float]:
    """One predicated_blend launch: predicated stores/arithmetic plus a
    barrier-tiled reduction — the shapes the vector subset widened to
    cover, at a grid size where vectorisation dominates dispatch."""
    rt = CudaRuntime(backend=FunctionalBackend(fast_mode=mode))
    sample = PredicatedBlend(rt, PredicatedBlendConfig(ctas=512))
    start = time.perf_counter()
    profiles = sample.run()
    wall = time.perf_counter() - start
    instructions = sum(p.result.instructions for p in profiles)
    return instructions, wall


def _measure(fn) -> dict:
    per_mode = {}
    for mode in MODES:
        instructions, wall = fn(mode)
        per_mode[mode] = {
            "warp_instructions": instructions,
            "wall_seconds": round(wall, 4),
            "warp_instructions_per_second": round(instructions / wall),
        }
    return per_mode


# The cold/warm cache probe runs in child processes: the disk cache
# exists to carry compiled plans *across* process boundaries, so an
# in-process measurement would be measuring the wrong cache.
_CACHE_PROBE = r"""
import json, time
from repro.cuda import CudaRuntime
from repro.cuda.runtime import FunctionalBackend
from repro.cudnn.algos import ConvFwdAlgo
from repro.functional import kernelcache
from repro.workloads.conv_sample import ConvSample, ConvSampleConfig

start = time.perf_counter()
rt = CudaRuntime(backend=FunctionalBackend(fast_mode="megablock"))
sample = ConvSample(rt, ConvSampleConfig())
profiles = sample.run_forward(ConvFwdAlgo.WINOGRAD_NONFUSED)
wall = time.perf_counter() - start
print(json.dumps({
    "wall_seconds": round(wall, 4),
    "warp_instructions": sum(p.result.instructions for p in profiles),
    "counters": kernelcache.counters(),
}))
"""


def _cache_probe(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_CACHE_DISABLE", None)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _CACHE_PROBE],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


def test_functional_throughput(benchmark, tmp_path, monkeypatch):
    # Keep the in-process tier comparison free of disk-cache I/O; the
    # cross-process probe below measures the cache explicitly.
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    lenet = run_once(benchmark, lambda: _measure(_lenet_forward))
    conv = _measure(_conv_sample_forward)
    from repro.functional import megablock
    megablock.reset_events()
    blend = _measure(_predicated_blend)
    blend_events = dict(megablock.EVENTS)

    def ratio(table, tier, over):
        return (table[tier]["warp_instructions_per_second"]
                / table[over]["warp_instructions_per_second"])

    # Tracer overhead on the vectorised hot paths: the disabled tracer
    # (NULL_TRACER, the default above) must be free, and even a live
    # Tracer only pays per kernel launch, never per instruction.
    def throughput(result):
        instructions, wall = result
        return instructions / wall

    def tracer_overhead(mode, baseline):
        disabled = max(throughput(_lenet_forward(mode))
                       for _ in range(2))
        enabled = throughput(_lenet_forward(mode, tracer=Tracer()))
        return disabled, {
            "disabled_warp_instructions_per_second": round(disabled),
            "enabled_warp_instructions_per_second": round(enabled),
            "enabled_over_disabled": round(enabled / disabled, 3),
            "disabled_over_recorded": round(disabled / baseline, 3),
        }

    sb_disabled, sb_overhead = tracer_overhead(
        "superblock", lenet["superblock"]["warp_instructions_per_second"])
    mb_disabled, mb_overhead = tracer_overhead(
        "megablock", lenet["megablock"]["warp_instructions_per_second"])

    cold = _cache_probe(tmp_path / "kcache")
    warm = _cache_probe(tmp_path / "kcache")

    report = {
        "lenet_forward": lenet,
        "conv_sample_winograd_forward": conv,
        "predicated_blend": blend,
        "kernel_cache_conv_sample_megablock": {
            "cold": cold,
            "warm": warm,
            "warm_over_cold_wall": round(
                warm["wall_seconds"] / cold["wall_seconds"], 3),
        },
        "tracer_overhead_superblock": sb_overhead,
        "tracer_overhead_megablock": mb_overhead,
        "megablock_over_fastpath": {
            "lenet_forward": round(ratio(lenet, "megablock", "fastpath"),
                                   2),
            "conv_sample_winograd_forward": round(
                ratio(conv, "megablock", "fastpath"), 2),
        },
        "superblock_over_fastpath": {
            "lenet_forward": round(ratio(lenet, "superblock", "fastpath"),
                                   2),
            "conv_sample_winograd_forward": round(
                ratio(conv, "superblock", "fastpath"), 2),
        },
        "superblock_over_reference": {
            "lenet_forward": round(
                ratio(lenet, "superblock", "reference"), 2),
            "conv_sample_winograd_forward": round(
                ratio(conv, "superblock", "reference"), 2),
        },
        "megablock_over_superblock": {
            "predicated_blend": round(
                ratio(blend, "megablock", "superblock"), 2),
        },
        "predicated_blend_megablock_events": blend_events,
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    (RESULTS_DIR / "functional_throughput.txt").write_text(
        json.dumps(report, indent=2))

    # All tiers execute the same dynamic instruction stream.
    for table in (lenet, conv, blend):
        counts = {m: table[m]["warp_instructions"] for m in MODES}
        assert len(set(counts.values())) == 1, counts

    # Fused blocks never lose to stepping the same emitters, and the
    # vectorised megablock tier beats the stepped tier by >= 10x.
    assert report["superblock_over_fastpath"]["lenet_forward"] >= 1.0, (
        report)
    assert report["megablock_over_fastpath"]["lenet_forward"] >= 10.0, (
        report)

    # The widened subset's headline: the predicated/barrier-heavy
    # workload stays fully vectorised (no fallbacks, no bailouts) and
    # clears 10x over the superblock tier that used to run it.
    assert blend_events["fallbacks"] == 0, blend_events
    assert blend_events["bailouts"] == 0, blend_events
    assert report["megablock_over_superblock"]["predicated_blend"] \
        >= 10.0, report

    # A disabled tracer must reproduce the recorded throughput within
    # 5% on both fused tiers (best-of-2 to shed scheduler noise).
    for disabled, table in ((sb_disabled, lenet["superblock"]),
                            (mb_disabled, lenet["megablock"])):
        baseline = table["warp_instructions_per_second"]
        assert disabled >= 0.95 * baseline, (disabled, baseline)

    # The warm process served every megablock plan from disk, with
    # bit-identical execution.
    assert warm["counters"]["hits"] > 0, warm
    assert warm["counters"]["misses"] == 0, warm
    assert warm["warp_instructions"] == cold["warp_instructions"]


def _lenet_forward_sanitized(mode: str) -> tuple[float, object]:
    """(throughput, sanitizer) for a sanitize-armed LeNet forward."""
    backend = FunctionalBackend(fast_mode=mode, sanitize=True)
    rt = CudaRuntime(backend=backend)
    rt.load_binary(build_application_binary())
    model = LeNet(Cudnn(rt), LeNetConfig())
    images, _labels = synthetic_mnist(2, model.config.input_hw, seed=7)
    start_profiles = len(rt.profiles)
    start = time.perf_counter()
    model.forward(images)
    wall = time.perf_counter() - start
    instructions = sum(p.result.instructions
                       for p in rt.profiles[start_profiles:])
    return instructions / wall, backend.sanitize


def test_sanitizer_overhead(monkeypatch):
    """The sanitizer's two performance bars, on the LeNet forward pass:
    disabled it costs nothing (within 5% of the sanitize-off recorded
    run, same guarantee as the tracer), and enabled the megablock tier
    keeps >= 5x over superblock because statically proven accesses skip
    their dynamic checks."""
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")

    def throughput(result):
        instructions, wall = result
        return instructions / wall

    recorded = throughput(_lenet_forward("megablock"))
    # Best-of-2 to shed scheduler noise, mirroring the tracer guard.
    sanitize_off = max(throughput(_lenet_forward("megablock"))
                       for _ in range(2))

    mb_on, mb_san = _lenet_forward_sanitized("megablock")
    sb_on, sb_san = _lenet_forward_sanitized("superblock")
    report = {
        "recorded_off": round(recorded),
        "sanitize_off": round(sanitize_off),
        "off_over_recorded": round(sanitize_off / recorded, 3),
        "megablock_on": round(mb_on),
        "superblock_on": round(sb_on),
        "megablock_on_over_superblock_on": round(mb_on / sb_on, 2),
        "megablock_skipped_proven": mb_san.counters["skipped_proven"],
    }
    (RESULTS_DIR / "sanitizer_overhead.txt").write_text(
        json.dumps(report, indent=2))

    assert mb_san.findings_list() == []
    assert sb_san.findings_list() == []
    assert mb_san.counters["skipped_proven"] > 0, report
    assert sanitize_off >= 0.95 * recorded, report
    assert mb_on / sb_on >= 5.0, report
