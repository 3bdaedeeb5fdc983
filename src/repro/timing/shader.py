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
barriers and retirement are the model's own state.

The issue loop is event-driven: a scheduler that cannot issue remembers
the earliest cycle it might (``Scheduler.wake``) and is not scanned
before, an SM none of whose schedulers can issue is not visited, and
the issue slots it spends meanwhile are charged as spans when its state
next changes (:meth:`SMCore.charge_asleep`; DESIGN.md §5.1).  Every
issue outcome still lands in the warp-issue breakdown (W0 idle / W0
data-hazard / W1..W32 by active-lane count) that AerialVision's warp
divergence plots show.
"""

from __future__ import annotations

from repro.timing.config import GPUConfig
from repro.timing.memsys import MemRequest, MemorySubsystem
from repro.timing.stats import (
    BUCKET_SLOT, KernelStats, LANE_SLOTS, SM_SLOT, SampleBlock, W0_ALU,
    W0_BARRIER, W0_IDLE, W0_MEM)
from repro.timing.stream import (
    ALU, ATOM, BAR, FELL_OFF, OTHER, SFU, SHARED, TEX)

_IDLE, _MEM, _BARRIER, _ALU = (
    BUCKET_SLOT[bucket] for bucket in (W0_IDLE, W0_MEM, W0_BARRIER, W0_ALU))

#: ``wake`` of a scheduler or SM with no warp that could become ready.
NEVER = float("inf")


class ResidentCTA:
    """A CTA on an SM: its warps and how many are still running."""

    __slots__ = ("index", "sm", "warps", "live")

    def __init__(self, index: int, sm: SMCore) -> None:
        self.index = index
        self.sm = sm
        self.warps: list[ResidentWarp] = []
        self.live = 0


class ResidentWarp:
    """A warp on an SM: its stream plus the model's own state.

    ``ready_at`` is the cycle from which the warp can issue: ``NEVER``
    while it waits for a memory response, is parked at a barrier or has
    finished, and back to ``resume_at`` (where its latency timer stood)
    when the response or the release comes."""

    __slots__ = ("fetch", "cta", "scheduler", "ready_at", "resume_at",
                 "mem_pending", "finished", "at_barrier")

    def __init__(self, stream, cta: ResidentCTA,
                 scheduler: Scheduler) -> None:
        self.fetch = stream.next
        self.cta = cta
        #: ``None`` once the CTA retired: a response still in flight
        #: then has no scheduler state to touch.
        self.scheduler: Scheduler | None = scheduler
        self.finished = stream.finished
        self.at_barrier = stream.at_barrier
        self.resume_at = 0.0
        self.ready_at = (NEVER if self.finished or self.at_barrier
                         else 0.0)
        self.mem_pending = 0


class Scheduler:
    """Warp picker: loose round robin or greedy-then-oldest.

    ``wake`` is a cycle before which no warp here can be ready, so no
    pick is tried: a failed pick sets it to the earliest ``ready_at``,
    a pick that issued leaves it for ``SMCore.issue_cycle`` to settle,
    and whatever else can make a warp ready (a memory response, a
    barrier release, a CTA assigned or retired) resets it to 0.
    ``mem_waiting`` and ``parked`` count the warps with a response
    outstanding and the live warps parked at a barrier: what a stalled
    slot is charged to.
    """

    __slots__ = ("policy", "warps", "next_index", "greedy", "wake",
                 "mem_waiting", "parked")

    def __init__(self, policy: str = "lrr") -> None:
        self.policy = policy
        self.warps: list[ResidentWarp] = []
        self.next_index = 0
        self.greedy: ResidentWarp | None = None
        self.wake = NEVER
        self.mem_waiting = 0
        self.parked = 0

    def pick(self, now: float) -> ResidentWarp | None:
        if self.policy == "gto":
            return self._pick_gto(now)
        warps = self.warps
        start = self.next_index
        for index in range(start, len(warps)):
            if warps[index].ready_at <= now:
                self.next_index = (index + 1) % len(warps)
                return warps[index]
        for index in range(start):
            if warps[index].ready_at <= now:
                self.next_index = index + 1
                return warps[index]
        self.wake = self.earliest()
        return None

    def _pick_gto(self, now: float) -> ResidentWarp | None:
        # Greedy: keep issuing the same warp while it stays ready (a
        # retired warp was dropped by SMCore._retire_cta).
        if self.greedy is not None and self.greedy.ready_at <= now:
            return self.greedy
        # Then oldest: first ready warp in arrival order.
        for candidate in self.warps:
            if candidate.ready_at <= now:
                self.greedy = candidate
                return candidate
        self.wake = self.earliest()
        return None

    def earliest(self) -> float:
        """Earliest cycle a warp here can issue with nothing new
        happening (``NEVER``: none can)."""
        return min([rw.ready_at for rw in self.warps], default=NEVER)


def charge_stalls(stats: KernelStats, samples: SampleBlock, t0: float,
                  t1: float, idle: int, mem: int, barrier: int,
                  alu: int) -> None:
    """Spend the issue slots of cycles [t0, t1) of *idle* / *mem* /
    *barrier* / *alu* stalled schedulers on their W0 buckets."""
    span = int(t1 - t0)
    stats.idle_scheduler_cycles += idle * span
    stats.stall_mem_cycles += mem * span
    stats.stall_alu_cycles += alu * span
    for bucket, count in ((W0_IDLE, idle), (W0_MEM, mem),
                          (W0_BARRIER, barrier), (W0_ALU, alu)):
        if count:
            samples.issue_span(bucket, t0, t1, count)


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
        #: No scheduler here can issue before this cycle: the cycle loop
        #: does not visit the SM until then.
        self.wake = NEVER
        #: The issue slots of every cycle before this one are charged.
        self.charged_to = 0.0

    # ------------------------------------------------------------------
    # CTA management
    # ------------------------------------------------------------------
    @property
    def can_accept_cta(self) -> bool:
        return len(self.ctas) < self.config.max_ctas_per_sm

    def assign_cta(self, index: int, streams, now: float) -> None:
        """Make CTA *index* resident from cycle *now* on; *streams*
        holds one :class:`~repro.timing.stream.WarpStream` per warp."""
        self.charge_asleep(now)
        cta = ResidentCTA(index, self)
        self.ctas.append(cta)
        for warp_index, stream in enumerate(streams):
            scheduler = self.schedulers[warp_index % len(self.schedulers)]
            resident = ResidentWarp(stream, cta, scheduler)
            cta.warps.append(resident)
            scheduler.warps.append(resident)
            scheduler.wake = 0
            cta.live += not resident.finished
            scheduler.parked += resident.at_barrier and not resident.finished
        self.wake = 0

    def _retire_cta(self, cta: ResidentCTA) -> None:
        self.ctas.remove(cta)
        self.source.close(cta.index)
        for resident in cta.warps:
            if resident.mem_pending:
                resident.scheduler.mem_waiting -= 1
            resident.scheduler = None
        cta.warps.clear()   # CTA <-> warp is a cycle: free without a GC
        for scheduler in self.schedulers:
            kept = [rw for rw in scheduler.warps if rw.cta is not cta]
            if len(kept) != len(scheduler.warps):
                scheduler.warps = kept
                scheduler.next_index = 0
                scheduler.wake = 0
                if (scheduler.greedy is not None
                        and scheduler.greedy.cta is cta):
                    scheduler.greedy = None

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue_cycle(self, now: float) -> tuple[int, list[ResidentCTA]]:
        """Issue up to one instruction per scheduler; returns
        (instructions issued, CTAs that completed this cycle)."""
        if self.charged_to < now:
            self.charge_asleep(now)
        self.charged_to = now + 1
        row = self.samples.row(now)     # counts every scheduler's slot
        issued = lanes_issued = alu_ops = idle = mem_stalls = alu_stalls = 0
        finished_ctas: list[ResidentCTA] = []
        stats = self.stats
        config = self.config
        for scheduler in self.schedulers:
            resident = scheduler.pick(now) if scheduler.wake <= now else None
            if resident is None:
                if not scheduler.warps:
                    idle += 1
                elif scheduler.mem_waiting:
                    mem_stalls += 1
                elif scheduler.parked:
                    row[_BARRIER] += 1  # a bucket only: no stall counter
                else:
                    alu_stalls += 1
                continue
            pc, lanes, mem, last = resident.fetch()
            if pc != FELL_OFF:
                issued += 1
                lanes_issued += lanes
                row[LANE_SLOTS[lanes]] += 1
                kind = self.kinds[pc]
                if kind == ALU and mem is None:
                    alu_ops += 1
                    resident.ready_at = now + config.alu_latency
                elif kind == SFU:
                    stats.sfu_ops += 1
                    resident.ready_at = now + config.sfu_latency
                elif kind == BAR:
                    stats.barriers += 1
                    resident.resume_at = now + config.bar_latency
                    resident.ready_at = NEVER
                    resident.at_barrier = True
                    scheduler.parked += 1
                    self._release_barrier(resident.cta)
                else:
                    if kind == ATOM:
                        stats.atom_ops += 1
                    if mem is not None:
                        self._issue_memory(resident, mem, now)
            # else the active lanes ran off the kernel's end: nothing
            # issues, and the warp runs on if other lanes are waiting.
            if last:
                resident.finished = True
                resident.ready_at = NEVER
                cta = resident.cta
                cta.live -= 1
                if resident.at_barrier:     # its last item was the bar
                    scheduler.parked -= 1
                if not cta.live:
                    finished_ctas.append(cta)
                else:
                    # The warps still running may all be parked, waiting
                    # for this one: it will not arrive.
                    self._release_barrier(cta)
        for cta in finished_ctas:
            self._retire_cta(cta)
        if idle:
            row[_IDLE] += idle
            stats.idle_scheduler_cycles += idle
        if mem_stalls:
            row[_MEM] += mem_stalls
            stats.stall_mem_cycles += mem_stalls
        if alu_stalls:
            row[_ALU] += alu_stalls
            stats.stall_alu_cycles += alu_stalls
        if issued:
            stats.active_sm_cycles += 1
            stats.instructions += lanes_issued
            stats.warp_instructions += issued
            stats.alu_ops += alu_ops
            row[SM_SLOT + self.sm_id] += lanes_issued
        # When to come back.  A scheduler that picked, or that a release
        # or a retirement reset, does not know (wake <= now): scan its
        # warps, until one says next cycle, which settles it.
        wake = NEVER
        for scheduler in self.schedulers:
            if scheduler.wake <= now:
                scheduler.wake = scheduler.earliest()
            if scheduler.wake < wake:
                wake = scheduler.wake
                if wake <= now + 1:
                    break
        self.wake = wake
        return issued, finished_ctas

    @staticmethod
    def _release_barrier(cta: ResidentCTA) -> None:
        """Release the CTA barrier if every live warp has arrived."""
        live = [rw for rw in cta.warps if not rw.finished]
        if all(rw.at_barrier for rw in live):
            for resident in live:
                resident.at_barrier = False
                resident.ready_at = resident.resume_at
                resident.scheduler.parked -= 1
                resident.scheduler.wake = 0

    def deliver(self, resident: ResidentWarp, now: float) -> None:
        """A memory response for *resident* arrived."""
        resident.mem_pending -= 1
        scheduler = resident.scheduler
        if resident.mem_pending or scheduler is None:
            return
        self.charge_asleep(now)
        scheduler.mem_waiting -= 1
        if not resident.finished:
            resident.ready_at = resident.resume_at
            scheduler.wake = self.wake = 0

    # ------------------------------------------------------------------
    # Stall accounting of the cycles the SM is not visited
    # ------------------------------------------------------------------
    def stalled(self) -> tuple[int, int, int, int]:
        """How many schedulers a stalled cycle finds with no warp /
        a response outstanding / only parked warps / a data hazard."""
        idle = mem = barrier = alu = 0
        for scheduler in self.schedulers:
            if not scheduler.warps:
                idle += 1
            elif scheduler.mem_waiting:
                mem += 1
            elif scheduler.parked:
                barrier += 1
            else:
                alu += 1
        return idle, mem, barrier, alu

    def charge_asleep(self, now: float) -> None:
        """Charge the cycles [charged_to, now) the cycle loop ran
        without visiting this SM: called before anything changes what
        its schedulers stall on.  (Cycles the loop *jumped* are charged
        by ``GpuTiming._charge_idle``.)"""
        since = self.charged_to
        if since >= now:
            return
        self.charged_to = now
        if self.ctas:   # an SM with no CTA spends no slot when visited
            charge_stalls(self.stats, self.samples, since, now,
                          *self.stalled())

    # ------------------------------------------------------------------
    # Latency / memory handling
    # ------------------------------------------------------------------
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
        if resident.mem_pending:    # it issued, so it had none before
            resident.scheduler.mem_waiting += 1
            resident.resume_at = resident.ready_at
            resident.ready_at = NEVER
        for line in lines_write:
            # Write-through, no allocate: traffic only, no blocking.
            self.l1.access(line * config.line_size, is_write=True)
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=True, sm_id=self.sm_id,
                warp_token=resident, issued_at=now), now)
