"""Section V — the full conv_sample algorithm sweep.

Runs every (direction, algorithm) pair of the paper's methodology
("For forward convolution, we ran FFT, FFT Tiling, GEMM, Implicit GEMM,
Winograd, and Winograd Nonfused...") and regenerates the ranking table.
Shape target: "The Winograd Nonfused algorithm has the highest IPCs for
all three types of convolution."
"""

from bench_utils import run_once
from case_cache import SAMPLE, get_case

from repro.cudnn import ALGORITHMS, supported

_, _W_DESC, _CONV = SAMPLE.descriptors()
#: Every algorithm of each direction's table that SAMPLE supports.
DIRECTIONS = {direction: supported(direction, _W_DESC, _CONV)
              for direction in ALGORITHMS}


def _sweep():
    results = {}
    for direction, algos in DIRECTIONS.items():
        for algo in algos:
            results[(direction, algo.value)] = get_case(direction, algo)
    return results


def test_sec5_winograd_nonfused_wins_every_direction(benchmark, record):
    results = run_once(benchmark, _sweep)
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
    record("sec5_algorithm_sweep", "\n".join(lines))

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
