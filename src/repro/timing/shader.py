"""SM (streaming multiprocessor) timing model.

Each SM hosts up to ``max_ctas_per_sm`` CTAs; warps are statically
assigned to ``schedulers_per_sm`` loose-round-robin schedulers.  A warp
is *ready* when its latency timer expired and it has no outstanding
memory transactions (a serial-dependence simplification of GPGPU-Sim's
scoreboard — see DESIGN.md §5).  Issue pulls the warp's next item from
its stream (:mod:`repro.timing.stream`): the model sees pre-classified
ops, lane counts and line ids, never register state.  Whether the stream
was recorded by a functional pre-pass or executes on demand (GPGPU-Sim's
execution-driven scheme) is the producer's business, not the SM's;
barriers and retirement are the model's own state.

The issue loop is event-driven: a scheduler keeps a cycle before which
none of its warps is ready (``Scheduler.wake``) and is not scanned
before, an SM none of whose schedulers can issue is not visited, and the
issue slots it spends meanwhile are charged as spans, from per-SM
tallies of what its schedulers stall on, when that next changes
(:meth:`SMCore.charge_asleep`; DESIGN.md §5.1).  Every issue outcome
still lands in the warp-issue breakdown (W0 idle / W0 data-hazard /
W1..W32 by active-lane count) that AerialVision's warp divergence plots
show.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from repro.timing.config import GPUConfig
from repro.timing.memsys import MemRequest, MemorySubsystem
from repro.timing.stats import (
    BUCKET_SLOT, KernelStats, LANE_SLOTS, SM_SLOT, SampleBlock, W0_ALU,
    W0_BARRIER, W0_BUCKETS, W0_IDLE, W0_MEM)
from repro.timing.stream import (
    ALU, ATOM, BAR, FELL_OFF, GLOBAL, OPS, OTHER, SFU, SHARED, TEX)

_IDLE, _MEM, _BARRIER, _ALU = (
    BUCKET_SLOT[bucket] for bucket in (W0_IDLE, W0_MEM, W0_BARRIER, W0_ALU))

#: ``wake`` of a scheduler or SM with no warp that could become ready.
NEVER = float("inf")
_WAKE = attrgetter("wake")

#: Per touched space: the latency it adds and the counter it bumps.
_SPACES = ((SHARED, "shared_mem_latency", "shared_ops"),
           (TEX, "tex_latency", "tex_ops"),
           (OTHER, "const_latency", None),
           (GLOBAL, "l1_hit_latency", None))


@lru_cache(maxsize=None)
def issue_effects(config: GPUConfig) -> tuple[tuple[int, ...],
                                              tuple[tuple[str, ...], ...]]:
    """What issuing an item does on *config*, per op
    (:mod:`repro.timing.stream`: class code | touched-space bits): the
    cycles until the warp is ready again, and the ``KernelStats``
    counters the issue counts in.  A barrier's latency runs from its
    release; a memory op with nothing touched (no lane passed its
    guard) costs no latency."""
    effects = []
    for op in range(OPS):
        kind = op % SHARED
        touched = [(getattr(config, latency), counter)
                   for bit, latency, counter in _SPACES if op & bit]
        effects.append(
            (config.sfu_latency, ("sfu_ops",)) if kind == SFU else
            (config.bar_latency, ("barriers",)) if kind == BAR else
            (config.alu_latency, ("alu_ops",)) if op == ALU else
            (max((latency for latency, _ in touched), default=0),
             ("atom_ops",) * (kind == ATOM)
             + tuple(counter for _, counter in touched if counter)))
    latencies, counters = zip(*effects)
    return latencies, counters


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

    ``wake`` bounds the earliest ``ready_at`` of its warps from below,
    exactly unless this cycle issued: ``pick`` sets it in the scan that
    picks, and whatever moves a ``ready_at`` earlier (a memory response,
    a barrier release) lowers it.  Only a CTA assignment resets it to 0,
    "scan at the next visit".
    ``mem_waiting`` and ``parked`` count the warps with a response
    outstanding and the live warps parked at a barrier; ``stall`` is
    the W0 slot they make a stalled issue slot here count in.
    """

    __slots__ = ("lrr", "warps", "next_index", "greedy", "wake",
                 "mem_waiting", "parked", "stall")

    def __init__(self, policy: str = "lrr") -> None:
        self.lrr = policy != "gto"
        self.warps: list[ResidentWarp] = []
        self.next_index = 0
        self.greedy: ResidentWarp | None = None
        self.wake = NEVER
        self.mem_waiting = 0
        self.parked = 0
        self.stall = _IDLE

    def pick(self, now: float) -> ResidentWarp | None:
        """The warp to issue at *now*, or ``None``.  The one scan sets
        ``wake``: exact when no warp is ready; when one is, the earliest
        ``ready_at`` of the warps scanned before it, or ``now + 1`` if
        warps after it went unscanned."""
        warps = self.warps
        if self.lrr:
            start = self.next_index
            resident = warps[start]
            if resident.ready_at <= now:    # the usual case: its turn
                count = len(warps)
                self.next_index = (start + 1) % count
                self.wake = now + 1 if count > 1 else NEVER
                return resident
            order = warps[start:] + warps[:start]
        else:
            # Greedy: keep issuing the same warp while it stays ready (a
            # retired warp was dropped by SMCore._retire_cta) ...
            greedy = self.greedy
            if greedy is not None and greedy.ready_at <= now:
                self.wake = now + 1 if len(warps) > 1 else NEVER
                return greedy
            order = warps   # ... then the oldest ready warp
        wake = NEVER
        for resident in order:
            ready_at = resident.ready_at
            if ready_at <= now:
                self.wake = wake if resident is order[-1] else now + 1
                if self.lrr:
                    self.next_index = (warps.index(resident) + 1) % len(
                        warps)
                else:
                    self.greedy = resident
                return resident
            if ready_at < wake:
                wake = ready_at
        self.wake = wake
        return None


class SMCore:
    """One streaming multiprocessor.

    ``stalls`` counts its schedulers by ``Scheduler.stall``, so the
    slots of a cycle it is not visited cost one span, not a scan.
    *jumped* is shared by the GPU's SMs: per W0 slot, what an idle jump
    charges per skipped cycle beyond the SMs' own spans (DESIGN.md
    §5.1) — a parked scheduler moves from ``W0_barrier`` to ``W0_alu``,
    and each scheduler of an SM with no CTA is ``W0_idle``."""

    def __init__(self, sm_id: int, config: GPUConfig, source,
                 memsys: MemorySubsystem, stats: KernelStats,
                 samples: SampleBlock, jumped: list[int]) -> None:
        self.sm_id = sm_id
        #: Where a sample row counts the thread instructions issued here.
        self.sm_slot = SM_SLOT + sm_id
        self.config = config
        #: Producer of the resident CTAs' streams (repro.timing.stream).
        self.source = source
        self.memsys = memsys
        self.stats = stats
        self.samples = samples
        self.jumped = jumped
        jumped[_IDLE] += config.schedulers_per_sm   # no CTA yet
        from repro.timing.cache import Cache
        self.l1 = Cache(config.l1_sets, config.l1_ways, config.line_size)
        self.ctas: list[ResidentCTA] = []
        self.schedulers = [Scheduler(policy=config.warp_scheduler)
                           for _ in range(config.schedulers_per_sm)]
        #: Schedulers per W0 slot (``Scheduler.stall``): idle at first.
        self.stalls = [0] * len(W0_BUCKETS)
        self.stalls[_IDLE] = len(self.schedulers)
        self.latency = issue_effects(config)[0]
        #: No scheduler here can issue before this cycle: the cycle loop
        #: does not visit the SM until then.
        self.wake = NEVER
        #: The issue slots of every cycle before this one are charged.
        self.charged_to = 0.0
        #: The sample row of the interval ending at ``row_ends``.
        self.row, self.row_ends = None, 0.0

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
        if not self.ctas:
            self.jumped[_IDLE] -= len(self.schedulers)
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
        for scheduler in self.schedulers:
            self._restall(scheduler)
        self.wake = 0

    def _retire_cta(self, cta: ResidentCTA) -> None:
        # Every warp of the CTA finished, so no scheduler's wake moves.
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
                if (scheduler.greedy is not None
                        and scheduler.greedy.cta is cta):
                    scheduler.greedy = None
                self._restall(scheduler)
        if not self.ctas:
            self.jumped[_IDLE] += len(self.schedulers)

    def _restall(self, scheduler: Scheduler) -> None:
        """Re-derive what *scheduler* stalls on after its warps, their
        responses or their barriers changed, keeping the tallies."""
        stall = (_IDLE if not scheduler.warps else
                 _MEM if scheduler.mem_waiting else
                 _BARRIER if scheduler.parked else _ALU)
        was, scheduler.stall = scheduler.stall, stall
        self.stalls[was] -= 1
        self.stalls[stall] += 1
        # A jumped cycle charges a parked scheduler to W0_alu.
        parked = (stall == _BARRIER) - (was == _BARRIER)
        self.jumped[_BARRIER] -= parked
        self.jumped[_ALU] += parked

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue_cycle(self, now: float) -> tuple[bool, list[ResidentCTA]]:
        """Issue up to one instruction per scheduler; returns (whether
        any issued, CTAs that completed this cycle)."""
        if self.charged_to < now:
            self.charge_asleep(now)
        self.charged_to = now + 1
        if now >= self.row_ends:    # the next sample interval
            self.row = self.samples.row(now)
            self.row_ends = now - now % self.samples.interval + \
                self.samples.interval
        row = self.row      # counts every scheduler's slot
        issued, lanes_issued = False, 0
        finished_ctas: list[ResidentCTA] = []
        latency = self.latency
        for scheduler in self.schedulers:
            resident = scheduler.pick(now) if scheduler.wake <= now else None
            if resident is None:
                row[scheduler.stall] += 1
                continue
            op, lanes, lines, last = resident.fetch()
            if op != FELL_OFF:
                issued = True
                lanes_issued += lanes
                row[LANE_SLOTS[lanes]] += 1
                if op != BAR:
                    resident.ready_at = now + latency[op]
                    if lines is not None:
                        self._issue_memory(resident, lines, now)
                else:   # parked until the CTA's last live warp arrives
                    resident.resume_at = now + latency[op]
                    resident.ready_at = NEVER
                    resident.at_barrier = True
                    scheduler.parked += 1
                    self._restall(scheduler)
                    self._release_barrier(resident.cta)
            # else the active lanes ran off the kernel's end: nothing
            # issues, and the warp runs on if other lanes are waiting.
            if last:
                resident.finished = True
                resident.ready_at = NEVER
                # The pick may have left ``wake`` a bound: make it exact.
                scheduler.wake = min([rw.ready_at
                                      for rw in scheduler.warps])
                cta = resident.cta
                cta.live -= 1
                if resident.at_barrier:     # its last item was the bar
                    scheduler.parked -= 1
                    self._restall(scheduler)
                if not cta.live:
                    finished_ctas.append(cta)
                else:
                    # The warps still running may all be parked, waiting
                    # for this one: it will not arrive.
                    self._release_barrier(cta)
            if resident.ready_at < scheduler.wake:
                scheduler.wake = resident.ready_at
        for cta in finished_ctas:
            self._retire_cta(cta)
        if issued:
            self.stats.active_sm_cycles += 1
            row[self.sm_slot] += lanes_issued
        self.wake = min(map(_WAKE, self.schedulers))
        return issued, finished_ctas

    def _release_barrier(self, cta: ResidentCTA) -> None:
        """Release the CTA barrier if every live warp has arrived."""
        live = [rw for rw in cta.warps if not rw.finished]
        if all(rw.at_barrier for rw in live):
            for resident in live:
                resident.at_barrier = False
                resident.ready_at = resident.resume_at
                scheduler = resident.scheduler
                scheduler.parked -= 1
                if resident.ready_at < scheduler.wake:
                    scheduler.wake = resident.ready_at
                self._restall(scheduler)

    def deliver(self, resident: ResidentWarp, now: float) -> None:
        """A memory response for *resident* arrived."""
        resident.mem_pending -= 1
        scheduler = resident.scheduler
        if resident.mem_pending or scheduler is None:
            return
        self.charge_asleep(now)
        scheduler.mem_waiting -= 1
        self._restall(scheduler)
        if not resident.finished:
            resident.ready_at = resume_at = resident.resume_at
            if resume_at < scheduler.wake:
                scheduler.wake = resume_at
                if resume_at < self.wake:
                    self.wake = resume_at

    def charge_asleep(self, now: float) -> None:
        """Charge the cycles [charged_to, now) the cycle loop ran
        without visiting this SM, as a visited stalled cycle would:
        called before anything changes what its schedulers stall on.
        (``GpuTiming._charge_idle`` adds what the cycles the loop
        *jumped* charge differently.)"""
        since = self.charged_to
        if since >= now:
            return
        self.charged_to = now
        if self.ctas:   # an SM with no CTA spends no slot when visited
            self.samples.stall_span(since, now, self.stalls)

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------
    def _issue_memory(self, resident: ResidentWarp, lines,
                      now: float) -> None:
        stats = self.stats
        line_size = self.config.line_size
        lines_read, lines_write = lines
        stats.gmem_read_transactions += len(lines_read)
        stats.gmem_write_transactions += len(lines_write)
        for line in lines_read:
            if self.l1.access(line * line_size, is_write=False):
                stats.l1_hits += 1
                continue
            stats.l1_misses += 1
            resident.mem_pending += 1
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=False, sm_id=self.sm_id,
                warp_token=resident, issued_at=now), now)
        if resident.mem_pending:    # it issued, so it had none before
            scheduler = resident.scheduler
            scheduler.mem_waiting += 1
            self._restall(scheduler)
            resident.resume_at = resident.ready_at
            resident.ready_at = NEVER
        for line in lines_write:
            # Write-through, no allocate: traffic only, no blocking.
            self.l1.access(line * line_size, is_write=True)
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=True, sm_id=self.sm_id,
                warp_token=resident, issued_at=now), now)
