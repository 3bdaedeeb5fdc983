"""SM (streaming multiprocessor) timing model.

Each SM hosts up to ``max_ctas_per_sm`` CTAs; warps are statically
assigned to ``schedulers_per_sm`` loose-round-robin schedulers.  A warp
is *ready* when its latency timer expired and it has no outstanding
memory transactions (a serial-dependence simplification of GPGPU-Sim's
scoreboard — see DESIGN.md §5).  Issue pulls the warp's next item from
its stream (:mod:`repro.timing.stream`): the model sees pcs, lane
counts and line ids, never register state.  Whether the stream was
recorded by a functional pre-pass or executes on demand (GPGPU-Sim's
execution-driven scheme) is the producer's business, not the SM's;
barriers, retirement and ``dynamic_warp_id`` are the model's own state.

Per-cycle issue outcomes feed the warp-issue breakdown (W0 idle / W0
data-hazard / W1..W32 by active-lane count) that AerialVision's warp
divergence plots show.
"""

from __future__ import annotations

from repro.timing.config import GPUConfig
from repro.timing.memsys import MemRequest, MemorySubsystem
from repro.timing.stats import (
    KernelStats, SampleBlock, W0_ALU, W0_BARRIER, W0_IDLE, W0_MEM,
    lane_bucket)
from repro.timing.stream import (
    ATOM, BAR, FELL_OFF, MEM, OTHER, SFU, SHARED, TEX)


class ResidentCTA:
    """A CTA on an SM: its warps and how many are still running."""

    __slots__ = ("index", "warps", "live")

    def __init__(self, index: int) -> None:
        self.index = index
        self.warps: list[ResidentWarp] = []
        self.live = 0


class ResidentWarp:
    """A warp on an SM: its stream plus the model's own state."""

    __slots__ = ("fetch", "cta", "ready_at", "mem_pending", "finished",
                 "at_barrier", "dynamic_warp_id")

    def __init__(self, stream, cta: ResidentCTA) -> None:
        self.fetch = stream.next
        self.cta = cta
        self.ready_at = 0.0
        self.mem_pending = 0
        self.finished = stream.finished
        self.at_barrier = stream.at_barrier
        self.dynamic_warp_id = 0

    def ready(self, now: float) -> bool:
        return (self.ready_at <= now and not self.mem_pending
                and not self.at_barrier and not self.finished)


class Scheduler:
    """Warp picker: loose round robin or greedy-then-oldest."""

    __slots__ = ("policy", "warps", "next_index", "greedy")

    def __init__(self, policy: str = "lrr") -> None:
        self.policy = policy
        self.warps: list[ResidentWarp] = []
        self.next_index = 0
        self.greedy: ResidentWarp | None = None

    def pick(self, now: float) -> ResidentWarp | None:
        if self.policy == "gto":
            return self._pick_gto(now)
        warps = self.warps
        start = self.next_index
        for index in range(start, len(warps)):
            if warps[index].ready(now):
                self.next_index = (index + 1) % len(warps)
                return warps[index]
        for index in range(start):
            if warps[index].ready(now):
                self.next_index = index + 1
                return warps[index]
        return None

    def _pick_gto(self, now: float) -> ResidentWarp | None:
        # Greedy: keep issuing the same warp while it stays ready (a
        # retired warp was dropped by SMCore._retire_cta).
        if self.greedy is not None and self.greedy.ready(now):
            return self.greedy
        # Then oldest: first ready warp in arrival order.
        for candidate in self.warps:
            if candidate.ready(now):
                self.greedy = candidate
                return candidate
        return None


class SMCore:
    """One streaming multiprocessor."""

    def __init__(self, sm_id: int, config: GPUConfig, source,
                 kinds: list[int], memsys: MemorySubsystem,
                 stats: KernelStats, samples: SampleBlock) -> None:
        self.sm_id = sm_id
        self.config = config
        #: Producer of the resident CTAs' streams (repro.timing.stream).
        self.source = source
        #: Static class code per pc (repro.timing.stream.classify).
        self.kinds = kinds
        self.memsys = memsys
        self.stats = stats
        self.samples = samples
        from repro.timing.cache import Cache
        self.l1 = Cache(config.l1_sets, config.l1_ways, config.line_size)
        self.ctas: list[ResidentCTA] = []
        self.schedulers = [Scheduler(policy=config.warp_scheduler)
                           for _ in range(config.schedulers_per_sm)]
        self.resident: list[ResidentWarp] = []

    # ------------------------------------------------------------------
    # CTA management
    # ------------------------------------------------------------------
    @property
    def can_accept_cta(self) -> bool:
        return len(self.ctas) < self.config.max_ctas_per_sm

    def assign_cta(self, index: int, streams) -> None:
        """Make CTA *index* resident; *streams* holds one
        :class:`~repro.timing.stream.WarpStream` per warp."""
        cta = ResidentCTA(index)
        self.ctas.append(cta)
        for warp_index, stream in enumerate(streams):
            resident = ResidentWarp(stream, cta)
            cta.warps.append(resident)
            cta.live += not resident.finished
            self.resident.append(resident)
            self.schedulers[
                warp_index % len(self.schedulers)].warps.append(resident)

    def _retire_cta(self, cta: ResidentCTA) -> None:
        self.ctas.remove(cta)
        self.source.close(cta.index)
        cta.warps.clear()   # CTA <-> warp is a cycle: free without a GC
        self.resident = [rw for rw in self.resident if rw.cta is not cta]
        for scheduler in self.schedulers:
            kept = [rw for rw in scheduler.warps if rw.cta is not cta]
            if len(kept) != len(scheduler.warps):
                scheduler.warps = kept
                scheduler.next_index = 0
                if (scheduler.greedy is not None
                        and scheduler.greedy.cta is cta):
                    scheduler.greedy = None

    @property
    def busy(self) -> bool:
        return bool(self.ctas)

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue_cycle(self, now: float) -> tuple[int, list[ResidentCTA]]:
        """Issue up to one instruction per scheduler; returns
        (instructions issued, CTAs that completed this cycle)."""
        issued = 0
        finished_ctas: list[ResidentCTA] = []
        stats = self.stats
        samples = self.samples
        for scheduler in self.schedulers:
            if not scheduler.warps:
                samples.issue_event(now, W0_IDLE)
                stats.idle_scheduler_cycles += 1
                continue
            resident = scheduler.pick(now)
            if resident is None:
                self._record_stall(now, scheduler)
                continue
            pc, lanes, mem, last = resident.fetch()
            if pc != FELL_OFF:
                issued += 1
                stats.instructions += lanes
                stats.warp_instructions += 1
                samples.commit(now, self.sm_id, lanes)
                samples.issue_event(now, lane_bucket(lanes))
                kind = self.kinds[pc]
                self._apply_latency(resident, kind, mem, now)
                if kind == BAR:
                    resident.at_barrier = True
                    self._release_barrier(resident.cta)
            # else the active lanes ran off the kernel's end: nothing
            # issues, and the warp runs on if other lanes are waiting.
            if last:
                resident.finished = True
                cta = resident.cta
                cta.live -= 1
                if not cta.live:
                    finished_ctas.append(cta)
        for cta in finished_ctas:
            self._retire_cta(cta)
        if issued:
            stats.active_sm_cycles += 1
        return issued, finished_ctas

    @staticmethod
    def _release_barrier(cta: ResidentCTA) -> None:
        """Release the CTA barrier if every live warp has arrived."""
        live = [rw for rw in cta.warps if not rw.finished]
        if all(rw.at_barrier for rw in live):
            for resident in live:
                resident.at_barrier = False

    def _record_stall(self, now: float, scheduler: Scheduler) -> None:
        if any(rw.mem_pending for rw in scheduler.warps):
            self.samples.issue_event(now, W0_MEM)
            self.stats.stall_mem_cycles += 1
        elif any(rw.at_barrier for rw in scheduler.warps
                 if not rw.finished):
            self.samples.issue_event(now, W0_BARRIER)
        else:
            self.samples.issue_event(now, W0_ALU)
            self.stats.stall_alu_cycles += 1

    # ------------------------------------------------------------------
    # Latency / memory handling
    # ------------------------------------------------------------------
    def _apply_latency(self, resident: ResidentWarp, kind: int, mem,
                       now: float) -> None:
        config = self.config
        if kind == SFU:
            self.stats.sfu_ops += 1
            resident.ready_at = now + config.sfu_latency
        elif kind == BAR:
            self.stats.barriers += 1
            resident.ready_at = now + config.bar_latency
        elif kind >= MEM or mem is not None:
            if kind == ATOM:
                self.stats.atom_ops += 1
            if mem is not None:
                self._issue_memory(resident, mem, now)
        else:
            self.stats.alu_ops += 1
            resident.ready_at = now + config.alu_latency
        resident.dynamic_warp_id += 1

    def _issue_memory(self, resident: ResidentWarp, mem,
                      now: float) -> None:
        config = self.config
        flags, lines_read, lines_write = mem
        if flags & SHARED:
            self.stats.shared_ops += 1
            resident.ready_at = max(resident.ready_at,
                                    now + config.shared_mem_latency)
        if flags & TEX:
            self.stats.tex_ops += 1
            resident.ready_at = max(resident.ready_at,
                                    now + config.tex_latency)
        if flags & OTHER:
            resident.ready_at = max(resident.ready_at,
                                    now + config.const_latency)
        if not lines_read and not lines_write:
            return
        self.stats.gmem_read_transactions += len(lines_read)
        self.stats.gmem_write_transactions += len(lines_write)
        resident.ready_at = max(resident.ready_at,
                                now + config.l1_hit_latency)
        for line in lines_read:
            if self.l1.access(line * config.line_size, is_write=False):
                self.stats.l1_hits += 1
                continue
            self.stats.l1_misses += 1
            resident.mem_pending += 1
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=False, sm_id=self.sm_id,
                warp_token=resident, issued_at=now), now)
        for line in lines_write:
            # Write-through, no allocate: traffic only, no blocking.
            self.l1.access(line * config.line_size, is_write=True)
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=True, sm_id=self.sm_id,
                warp_token=resident, issued_at=now), now)

    # ------------------------------------------------------------------
    # Wake-up helpers for the idle-jump optimisation
    # ------------------------------------------------------------------
    def next_ready_time(self, now: float) -> float | None:
        best: float | None = None
        for resident in self.resident:
            if resident.finished or resident.at_barrier:
                continue
            if resident.mem_pending > 0:
                continue  # woken by a response event instead
            t = max(resident.ready_at, now + 1)
            if best is None or t < best:
                best = t
        return best
