"""Interconnect + memory partitions + DRAM banks (event-driven).

Addresses interleave across partitions at 256-byte granularity; each
partition owns an L2 slice and a set of DRAM banks with open-row
(FR-FCFS) scheduling — the combination that makes *partition bank
camping* observable: a kernel whose concurrent accesses concentrate on
one partition serialises on that partition's data bus while the others
sit idle, which is exactly the phase behaviour Figures 9/10 show for the
FFT forward convolution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.timing.cache import Cache
from repro.timing.config import GPUConfig
from repro.timing.stats import KernelStats, SampleBlock


@dataclass
class MemRequest:
    line_addr: int
    is_write: bool
    sm_id: int
    warp_token: object  # opaque; handed back with the response
    issued_at: float = 0.0
    # Set when the request queues for DRAM: where it maps, its place in
    # the partition's arrival order, and whether it has been served.
    bank: int = -1
    row: int = -1
    arrival: int = 0
    served: bool = False


@dataclass
class DramBank:
    open_row: int = -1
    accesses: int = 0
    row_hits: int = 0


class MemoryPartition:
    """One memory partition: L2 slice + DRAM banks + shared data bus."""

    def __init__(self, part_id: int, config: GPUConfig,
                 stats: KernelStats, samples: SampleBlock,
                 schedule: Callable[[float, Callable], None],
                 respond: Callable[[float, MemRequest], None]) -> None:
        self.part_id = part_id
        self.config = config
        self.stats = stats
        self.samples = samples
        self._schedule = schedule
        self._respond = respond
        self.l2 = Cache(config.l2_sets, config.l2_ways, config.line_size)
        self.banks = [DramBank() for _ in range(config.banks_per_partition)]
        #: Requests waiting for DRAM in arrival order; one served out of
        #: turn (a row hit) stays until it reaches the head.
        self.queue: deque[MemRequest] = deque()
        #: The requests not yet served by (bank, row), each in arrival
        #: order; empty when none waits.
        self._by_row: dict[tuple[int, int], deque[MemRequest]] = {}
        self._arrivals = 0
        self.bus_free_at = 0.0
        self._active_since: float | None = None

    # -- entry point (after interconnect latency) ---------------------------
    def arrive(self, req: MemRequest, now: float) -> None:
        hit = self.l2.access(req.line_addr * self.config.line_size,
                             req.is_write)
        if hit:
            self.stats.l2_hits += 1
            if not req.is_write:
                self._schedule(now + self.config.l2_hit_latency,
                               lambda t, r=req: self._respond(t, r))
            return
        self.stats.l2_misses += 1
        self._enqueue_dram(req, now)

    def _enqueue_dram(self, req: MemRequest, now: float) -> None:
        if self._active_since is None:
            self._active_since = now
        config = self.config
        addr = req.line_addr * config.line_size
        banks = len(self.banks)
        req.bank = (addr >> config.row_bits) % banks
        req.row = addr >> (config.row_bits + (banks - 1).bit_length())
        req.arrival = self._arrivals
        self._arrivals += 1
        self.queue.append(req)
        self._by_row.setdefault((req.bank, req.row), deque()).append(req)
        self._try_service(now)

    # -- FR-FCFS service -----------------------------------------------------
    def _try_service(self, now: float) -> None:
        if not self._by_row or self.bus_free_at > now:
            return
        frfcfs = self.config.dram_scheduler == "frfcfs"
        # The oldest request that hits an open row, else the oldest one.
        # Requests of one (bank, row) are served in arrival order, so
        # only the head of each open row's queue can be that hit.
        req = None
        if frfcfs:
            for bank_id, bank in enumerate(self.banks):
                hits = self._by_row.get((bank_id, bank.open_row))
                if hits and (req is None or hits[0].arrival < req.arrival):
                    req = hits[0]
        if req is None:
            queue = self.queue
            while queue[0].served:
                queue.popleft()
            req = queue[0]
        req.served = True
        bank_id, row = req.bank, req.row
        same_row = self._by_row[(bank_id, row)]
        same_row.popleft()
        if not same_row:
            del self._by_row[(bank_id, row)]
            if not self._by_row:
                self.queue.clear()  # only served requests are left
        bank = self.banks[bank_id]
        # Closed-row FCFS precharges after every access: never a hit.
        row_hit = frfcfs and bank.open_row == row
        bank.open_row = row if frfcfs else -1
        bank.accesses += 1
        duration = self.config.dram_burst_cycles
        if not row_hit:
            duration += self.config.dram_row_miss_penalty
        else:
            bank.row_hits += 1
            self.stats.dram_row_hits += 1
        start = max(now, self.bus_free_at)
        finish = start + duration
        self.bus_free_at = finish
        if req.is_write:
            self.stats.dram_writes += 1
        else:
            self.stats.dram_reads += 1
        self.samples.dram_access(self.part_id, bank_id, start, row_hit)
        self.samples.dram_busy_interval(
            self.part_id, finish - self.config.dram_burst_cycles, finish)
        self._schedule(finish,
                       lambda t, r=req: self._complete(t, r))

    def _complete(self, now: float, req: MemRequest) -> None:
        if not self._by_row and self._active_since is not None:
            self.samples.dram_active_interval(
                self.part_id, self._active_since, now)
            self._active_since = None
        if not req.is_write:
            self.l2.fill(req.line_addr * self.config.line_size)
            self._respond(now + self.config.l2_hit_latency, req)
        self._try_service(now)

    def drain_active(self, now: float) -> None:
        """Close the open activity interval at end of simulation."""
        if self._active_since is not None:
            self.samples.dram_active_interval(
                self.part_id, self._active_since, now)
            self._active_since = None


class MemorySubsystem:
    """Crossbar + partitions.  SMs call :meth:`submit`."""

    def __init__(self, config: GPUConfig, stats: KernelStats,
                 samples: SampleBlock,
                 schedule: Callable[[float, Callable], None],
                 respond: Callable[[float, MemRequest], None],
                 fault_filter: Callable[[MemRequest], bool] | None = None
                 ) -> None:
        self.config = config
        self.stats = stats
        self.partitions = [
            MemoryPartition(part_id, config, stats, samples, schedule,
                            respond)
            for part_id in range(config.num_partitions)]
        self._schedule = schedule
        #: Fault-injection hook: requests for which this returns True are
        #: silently dropped by the interconnect, so their response never
        #: arrives (repro.faultinject's dropped-response site).
        self.fault_filter = fault_filter

    def partition_of(self, line_addr: int) -> int:
        addr = line_addr * self.config.line_size
        return ((addr >> self.config.partition_interleave_bits)
                % self.config.num_partitions)

    def submit(self, req: MemRequest, now: float) -> None:
        self.stats.noc_flits += 1
        if self.fault_filter is not None and self.fault_filter(req):
            return
        partition = self.partitions[self.partition_of(req.line_addr)]
        self._schedule(now + self.config.icnt_latency,
                       lambda t, r=req, p=partition: p.arrive(r, t))

    def drain_active(self, now: float) -> None:
        for partition in self.partitions:
            partition.drain_active(now)
