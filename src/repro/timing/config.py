"""GPU timing-model configurations.

Two presets mirror the paper's setups: a GeForce GTX 1050 (the
correlation target of Section IV) and a GTX 1080 Ti (the Section V case
studies).  ``TINY`` keeps unit tests fast.

The model is a single-clock-domain simplification of GPGPU-Sim's:
per-SM warp schedulers with serial-dependence warps, an L1 per SM, a
crossbar to address-sliced memory partitions each with an L2 slice and
FR-FCFS DRAM banks.  DESIGN.md §5 records the simplifications.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GPUConfig:
    name: str = "generic"

    # Cores
    num_sms: int = 4
    schedulers_per_sm: int = 2
    max_ctas_per_sm: int = 4

    # Instruction latencies (cycles until the issuing warp is ready again)
    alu_latency: int = 4
    sfu_latency: int = 16
    shared_mem_latency: int = 24
    const_latency: int = 8
    tex_latency: int = 40
    bar_latency: int = 4

    # L1 data cache (per SM)
    l1_sets: int = 32
    l1_ways: int = 4
    l1_hit_latency: int = 28
    line_size: int = 128

    # Interconnect
    icnt_latency: int = 8

    # L2 (per partition slice)
    l2_sets: int = 64
    l2_ways: int = 8
    l2_hit_latency: int = 60

    # DRAM
    num_partitions: int = 4
    banks_per_partition: int = 4
    row_bits: int = 11              # 2 KiB rows
    dram_burst_cycles: int = 4      # data-bus occupancy per access
    dram_row_miss_penalty: int = 20  # precharge + activate
    #: "frfcfs" (open-row, row hits first — the default, which makes
    #: bank camping visible) or "fcfs" (in-order, closed-row) — the
    #: DESIGN.md §5.3 ablation.
    dram_scheduler: str = "frfcfs"

    #: Warp scheduler policy: "lrr" (loose round robin) or "gto"
    #: (greedy-then-oldest), GPGPU-Sim's two classic policies.
    warp_scheduler: str = "lrr"

    # Sampling for AerialVision
    sample_interval: int = 256

    # Clock (GHz) — only used to convert energy to watts.
    clock_ghz: float = 1.4

    @property
    def partition_interleave_bits(self) -> int:
        return 8  # 256-byte partition interleaving


#: Correlation target of Section IV (GP107: 5 SMs, 128-bit GDDR5).
GTX1050 = GPUConfig(
    name="GTX1050",
    num_sms=5,
    schedulers_per_sm=4,
    max_ctas_per_sm=4,
    num_partitions=4,
    banks_per_partition=4,
    clock_ghz=1.35,
)

#: Case-study target of Section V (GP102: 28 SMs, 352-bit GDDR5X).
GTX1080TI = GPUConfig(
    name="GTX1080Ti",
    num_sms=28,
    schedulers_per_sm=4,
    max_ctas_per_sm=4,
    num_partitions=11,
    banks_per_partition=4,
    clock_ghz=1.48,
)

#: Small config for unit tests.
TINY = GPUConfig(
    name="TINY",
    num_sms=2,
    schedulers_per_sm=2,
    max_ctas_per_sm=2,
    num_partitions=2,
    banks_per_partition=2,
    sample_interval=64,
)


def scaled(config: GPUConfig, sm_fraction: float) -> GPUConfig:
    """A proportionally smaller copy of *config* (faster simulation)."""
    sms = max(1, round(config.num_sms * sm_fraction))
    parts = max(1, round(config.num_partitions * sm_fraction))
    return replace(config, name=f"{config.name}-x{sm_fraction:g}",
                   num_sms=sms, num_partitions=parts)
