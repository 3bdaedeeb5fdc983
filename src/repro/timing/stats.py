"""Per-interval statistics collection (the AerialVision data source).

AerialVision plots metrics per bank / per shader *per cycle interval*;
:class:`SampleBlock` accumulates exactly those series while the timing
model runs, and finalises them into dense numpy arrays.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

#: Warp-issue breakdown bucket names (W0 split by stall reason, then the
#: active-lane count of issued warps, bucketed in fours like AerialVision).
W0_IDLE = "W0_idle"
W0_MEM = "W0_mem"
W0_ALU = "W0_alu"
W0_BARRIER = "W0_barrier"


def lane_bucket(active_lanes: int) -> str:
    """W1_4, W5_8, ... W29_32 bucket for an issued warp."""
    if active_lanes <= 0:
        return W0_IDLE
    low = ((active_lanes - 1) // 4) * 4 + 1
    return f"W{low}_{low + 3}"


#: What a scheduler that cannot issue stalls on.
W0_BUCKETS = [W0_IDLE, W0_MEM, W0_ALU, W0_BARRIER]
ISSUE_BUCKETS = W0_BUCKETS + [f"W{i}_{i + 3}" for i in range(1, 32, 4)]

#: Where a ``SampleBlock.row`` counts each bucket's issue slots, and the
#: slots of a warp issuing with 0..32 active lanes; thread instructions
#: committed by SM ``n`` are counted at ``SM_SLOT + n``.
BUCKET_SLOT = {bucket: slot for slot, bucket in enumerate(ISSUE_BUCKETS)}
LANE_SLOTS = tuple(BUCKET_SLOT[lane_bucket(lanes)] for lanes in range(33))
SM_SLOT = len(ISSUE_BUCKETS)


class SampleBlock:
    """Accumulates interval-binned counters during one kernel run.

    When a :class:`~repro.trace.clock.SimClock` is injected, the final
    cycle count is read from it at :meth:`finalize` time — the same
    monotonic source that stamps trace spans, so interval bins and span
    timestamps can never disagree about how long the kernel ran.
    """

    def __init__(self, interval: int, num_sms: int,
                 num_partitions: int, banks_per_partition: int,
                 clock=None) -> None:
        self.interval = interval
        self.num_sms = num_sms
        self.num_partitions = num_partitions
        self.banks_per_partition = banks_per_partition
        self.clock = clock
        #: Per interval: issue slots by bucket, then thread instructions
        #: committed by SM (``row``).
        self._rows: dict[int, list[int]] = {}
        self._dram_busy: dict[tuple[int, int], float] = defaultdict(float)
        self._dram_active: dict[tuple[int, int], float] = defaultdict(float)
        self._dram_accesses: dict[tuple[int, int], int] = defaultdict(int)
        self._bank_accesses: dict[tuple[int, int, int], int] = (
            defaultdict(int))
        self._bank_row_hits: dict[tuple[int, int, int], int] = (
            defaultdict(int))
        self.cycles = 0

    # -- recording -------------------------------------------------------
    def _bin(self, cycle: int) -> int:
        return int(cycle) // self.interval

    def row(self, cycle: float) -> list[int]:
        """The issue/commit counters of the interval holding *cycle*
        (layout: ``BUCKET_SLOT``, ``SM_SLOT``): ``SMCore.issue_cycle``
        counts a visited cycle there directly."""
        b = int(cycle) // self.interval
        row = self._rows.get(b)
        if row is None:
            row = self._rows[b] = [0] * (SM_SLOT + self.num_sms)
        return row

    def commit(self, cycle: int, sm_id: int, count: int = 1) -> None:
        self.row(cycle)[SM_SLOT + sm_id] += count

    def stall_span(self, t0: float, t1: float, stalls: list[int]) -> None:
        """Charge ``stalls[slot]`` issue slots per cycle of [t0, t1) to
        each W0 bucket (``W0_BUCKETS`` order), distributed across the
        sample intervals the span overlaps."""
        idle, mem, alu, barrier = stalls
        start, end = int(t0), int(t1)
        interval = self.interval
        while start < end:
            stop = min(end, (start // interval + 1) * interval)
            span = stop - start
            row = self.row(start)
            row[0] += idle * span
            row[1] += mem * span
            row[2] += alu * span
            row[3] += barrier * span
            start = stop

    def totals(self) -> list[int]:
        """Every ``row`` counter summed over the whole run."""
        return ([sum(column) for column in zip(*self._rows.values())]
                or [0] * (SM_SLOT + self.num_sms))

    def dram_busy_interval(self, partition: int, t0: float,
                           t1: float) -> None:
        self._add_interval(self._dram_busy, partition, t0, t1)

    def dram_active_interval(self, partition: int, t0: float,
                             t1: float) -> None:
        self._add_interval(self._dram_active, partition, t0, t1)

    def _add_interval(self, table: dict, partition: int, t0: float,
                      t1: float) -> None:
        if t1 <= t0:
            return
        b0, b1 = self._bin(t0), self._bin(t1)
        if b0 == b1:
            table[(partition, b0)] += t1 - t0
            return
        for b in range(b0, b1 + 1):
            lo = max(t0, b * self.interval)
            hi = min(t1, (b + 1) * self.interval)
            if hi > lo:
                table[(partition, b)] += hi - lo

    def dram_access(self, partition: int, bank: int, cycle: float,
                    row_hit: bool) -> None:
        b = self._bin(cycle)
        self._dram_accesses[(partition, b)] += 1
        self._bank_accesses[(partition, bank, b)] += 1
        if row_hit:
            self._bank_row_hits[(partition, bank, b)] += 1

    # -- finalisation ------------------------------------------------------
    def finalize(self) -> None:
        """Close the block: when a clock was injected, the cycle count
        comes from it rather than a separately-tracked float."""
        if self.clock is not None:
            self.cycles = self.clock.cycles

    def num_bins(self) -> int:
        return self._bin(max(self.cycles - 1, 0)) + 1

    def global_ipc_series(self) -> np.ndarray:
        bins = self.num_bins()
        out = np.zeros(bins)
        for b, row in self._rows.items():
            if b < bins:
                out[b] = sum(row[SM_SLOT:]) / self.interval
        return out

    def shader_ipc_matrix(self) -> np.ndarray:
        """[sm, bin] instructions-per-cycle."""
        bins = self.num_bins()
        out = np.zeros((self.num_sms, bins))
        for b, row in self._rows.items():
            if b < bins:
                for sm, count in enumerate(row[SM_SLOT:]):
                    out[sm, b] = count / self.interval
        return out

    def dram_efficiency_matrix(self) -> np.ndarray:
        """[partition, bin]: busy / active (bank-camping view)."""
        bins = self.num_bins()
        out = np.zeros((self.num_partitions, bins))
        for (part, b), busy in self._dram_busy.items():
            if b >= bins:
                continue
            # A bin's bus-busy time is active by definition; the window
            # bookkeeping can under-cover a burst at bin boundaries.
            active = max(self._dram_active.get((part, b), 0.0), busy)
            out[part, b] = busy / active if active > 0 else 0.0
        return np.clip(out, 0.0, 1.0)

    def dram_utilization_matrix(self) -> np.ndarray:
        """[partition, bin]: busy / interval."""
        bins = self.num_bins()
        out = np.zeros((self.num_partitions, bins))
        for (part, b), busy in self._dram_busy.items():
            if b < bins:
                out[part, b] = busy / self.interval
        return np.clip(out, 0.0, 1.0)

    def warp_issue_matrix(self) -> dict[str, np.ndarray]:
        bins = self.num_bins()
        out = {bucket: np.zeros(bins) for bucket in ISSUE_BUCKETS}
        for b, row in self._rows.items():
            if b < bins:
                for bucket, count in zip(ISSUE_BUCKETS, row):
                    out[bucket][b] = count
        return out

    def bank_access_matrix(self) -> np.ndarray:
        """[partition*banks, bin] access counts (fine-grained view)."""
        bins = self.num_bins()
        rows = self.num_partitions * self.banks_per_partition
        out = np.zeros((rows, bins))
        for (part, bank, b), count in self._bank_accesses.items():
            if b < bins:
                out[part * self.banks_per_partition + bank, b] = count
        return out


@dataclass
class KernelStats:
    """Aggregate timing-model output for one kernel."""

    cycles: int = 0
    instructions: int = 0
    warp_instructions: int = 0
    gmem_read_transactions: int = 0
    gmem_write_transactions: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    dram_row_hits: int = 0
    sfu_ops: int = 0
    alu_ops: int = 0
    shared_ops: int = 0
    tex_ops: int = 0
    atom_ops: int = 0
    barriers: int = 0
    active_sm_cycles: int = 0
    noc_flits: int = 0
    stall_mem_cycles: int = 0
    stall_alu_cycles: int = 0
    idle_scheduler_cycles: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def dram_row_hit_rate(self) -> float:
        total = self.dram_reads + self.dram_writes
        return self.dram_row_hits / total if total else 0.0
