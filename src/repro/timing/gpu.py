"""Top-level performance simulator (the "Performance simulation mode").

SM schedulers issue from per-warp instruction streams
(:mod:`repro.timing.stream`).  By default a launch first runs
functionally on the megablock tier with a recorder armed and the cycle
loop replays the recording — the paper's own split (Sec. III-F) between
a fast functional mode and a slower performance mode.  Only a launch
whose recording would not be provably identical is execution-driven the
way GPGPU-Sim is, every instruction executed at the cycle it issues
(:func:`_live_reason` lists the cases).  Both producers feed the one
cycle loop below, and ``GpuTiming.launch_sources`` says which ran.  The
main loop is cycle-based but event-driven inside a cycle: it visits
only the SMs with a scheduler that may issue (``SMCore.wake``), and
when none can, time skips to the next event/wake-up.  The issue slots
of SMs not visited and of skipped cycles are charged as spans to the
appropriate W0 stall bucket, so AerialVision's warp-issue breakdown
stays exact.

If no warp can ever become ready and no event is in flight while CTAs
remain, the simulator raises :class:`TimingDeadlockError` instead of
hanging — the paper fixed GPGPU-Sim bugs of exactly this kind
("timing-model deadlocks", Section III-D.2).
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Callable

from repro.errors import CycleBudgetExceededError, TimingDeadlockError
from repro.functional.executor import FunctionalEngine
from repro.functional.state import LaunchContext
from repro.timing.config import GPUConfig, TINY
from repro.timing.memsys import MemRequest, MemorySubsystem
from repro.timing.shader import NEVER, SMCore, charge_stalls
from repro.timing.stream import LiveSource, StreamRecorder, classify
from repro.timing.stats import KernelStats, SampleBlock
from repro.trace.clock import SimClock

_MAX_CYCLES_DEFAULT = 50_000_000


def _live_reason(engine: FunctionalEngine) -> str | None:
    """Why this launch must be execution-driven (``None``: record it).

    A recording is the stream the live engine would produce only if no
    value depends on issue order and the megablock run can neither leave
    its tier nor disagree with the scalar SIMT stacks: restored CTAs
    start mid-kernel, ``reconverge_at_exit`` and the legacy quirks
    change semantics the vector tier does not model, an ineligible plan
    (which covers ``atom``/``red``/``tex``/``%clock``) has no vector
    rendering, and a barrier reachable under divergence could bail out
    to the scalar engine mid-run.
    """
    if engine.launch.restored:
        return "restored CTAs resume mid-kernel"
    if engine.reconverge_at_exit:
        return "reconverge_at_exit changes the SIMT stacks"
    plan = engine._megaplan
    if plan is None:
        reasons = engine.megablock_fallback
        return (f"no vector plan ({reasons[0]})" if reasons
                else "legacy quirks run on the reference tier")
    for pc, ctrl in plan.controls.items():
        if ctrl["op"] == "bar" and ctrl["div"]:
            return f"pc {pc}: barrier reachable under divergence"
    return None


class GpuTiming:
    """Simulates one kernel launch cycle-by-cycle."""

    def __init__(self, config: GPUConfig = TINY, *,
                 max_cycles: int = _MAX_CYCLES_DEFAULT,
                 reconverge_at_exit: bool = False,
                 mem_fault_filter=None) -> None:
        self.config = config
        self.max_cycles = max_cycles
        self.reconverge_at_exit = reconverge_at_exit
        #: Fault-injection hook forwarded to the memory subsystem: a
        #: predicate over MemRequest that makes the interconnect "lose"
        #: matching requests (repro.faultinject's dropped-response site).
        self.mem_fault_filter = mem_fault_filter
        #: One ``{"kernel", "source"[, "why"]}`` per simulated launch:
        #: "recorded" or "live", and why a live one could not record.
        self.launch_sources: list[dict] = []

    def simulate(self, launch: LaunchContext
                 ) -> tuple[KernelStats, SampleBlock]:
        """Simulate one launch over its CTA extent.

        ``launch.first_cta``/``launch.restored`` support the
        checkpoint-resume flow of the paper's Figure 5: CTAs below
        ``first_cta`` are skipped and restored CTAs (with their Data1
        state already loaded) are taken from ``restored`` instead of
        being freshly initialised.
        """
        config = self.config
        stats = KernelStats()
        # One monotonic clock drives the whole kernel: the main loop,
        # event delivery, and the SampleBlock's final cycle count all
        # read it, so interval bins can never disagree with the span
        # stamps derived from the same run.
        clock = SimClock()
        samples = SampleBlock(config.sample_interval, config.num_sms,
                              config.num_partitions,
                              config.banks_per_partition, clock=clock)
        events: list[tuple[float, int, Callable[[float], None]]] = []
        sequence = itertools.count()

        def schedule(time: float, fn: Callable[[float], None]) -> None:
            heapq.heappush(events, (time, next(sequence), fn))

        def respond(time: float, req: MemRequest) -> None:
            resident = req.warp_token
            schedule(time, partial(resident.cta.sm.deliver, resident))

        source = self._open_source(launch)
        memsys = MemorySubsystem(config, stats, samples, schedule, respond,
                                 fault_filter=self.mem_fault_filter)
        kinds = classify(launch.kernel)
        sms = [SMCore(sm_id, config, source, kinds, memsys, stats, samples)
               for sm_id in range(config.num_sms)]

        next_cta = launch.first_cta
        total_ctas = launch.limit_cta
        resident_ctas = 0

        def refill(now: float, passed: int) -> None:
            # Round-robin CTA issue, one per SM per pass (GPGPU-Sim's
            # breadth-first CTA scheduler).  An SM this cycle's loop is
            # already past (up to index *passed*) starts on its new CTA
            # next cycle.
            nonlocal next_cta, resident_ctas
            progressing = True
            while progressing and next_cta < total_ctas:
                progressing = False
                for sm in sms:
                    if next_cta >= total_ctas:
                        break
                    if not sm.can_accept_cta:
                        continue
                    streams = source.open(next_cta)
                    if streams is not None:
                        sm.assign_cta(next_cta, streams,
                                      now if sm.sm_id > passed else now + 1)
                        resident_ctas += 1
                        progressing = True
                    next_cta += 1

        refill(clock.now, -1)
        stagnant = 0
        while True:
            now = clock.now
            # Deliver due events.
            while events and events[0][0] <= now:
                _t, _seq, fn = heapq.heappop(events)
                fn(now)
            issued = 0
            any_resident = resident_ctas > 0
            for sm in sms:
                if sm.wake > now:
                    continue
                count, finished = sm.issue_cycle(now)
                issued += count
                if finished:
                    resident_ctas -= len(finished)
                    refill(now, sm.sm_id)
            done = (next_cta >= total_ctas and not any_resident
                    and not events)
            if done:
                break
            if now >= self.max_cycles:
                raise CycleBudgetExceededError(
                    f"kernel exceeded {self.max_cycles} cycles "
                    f"({launch.kernel.name})")
            if issued:
                clock.advance(1.0)
                stagnant = 0
                continue
            # Idle jump: advance to the next event or warp wake-up.
            target = events[0][0] if events else NEVER
            for sm in sms:
                if sm.wake < target:
                    target = sm.wake
            if target == NEVER:
                if next_cta >= total_ctas and not resident_ctas:
                    # The last warp retired by running off the kernel's
                    # end, which issues nothing but spends the cycle.
                    clock.advance(1.0)
                    continue
                raise TimingDeadlockError(
                    "timing model made no progress: warps blocked with "
                    "no memory responses in flight "
                    f"({launch.kernel.name})")
            target = max(now + 1.0, target)
            self._charge_idle(sms, samples, stats, now, target)
            clock.advance_to(target)
            stagnant += 1
            if stagnant > 1_000_000:
                raise TimingDeadlockError(
                    f"livelock detected in {launch.kernel.name}")
        memsys.drain_active(clock.now)
        stats.cycles = clock.cycles
        samples.finalize()
        self._fold_cache_stats(sms, memsys, stats)
        return stats, samples

    def _open_source(self, launch: LaunchContext):
        """Pick this launch's stream producer; a recorded launch runs
        its functional pre-pass here, before the first cycle."""
        engine = FunctionalEngine(
            launch, reconverge_at_exit=self.reconverge_at_exit,
            fast_mode="superblock" if launch.restored else "megablock")
        config = self.config
        why = _live_reason(engine)
        entry = {"kernel": launch.kernel.name}
        self.launch_sources.append(entry)
        if why is not None:
            entry.update(source="live", why=why)
            return LiveSource(engine, config.line_size, launch.restored)
        entry["source"] = "recorded"
        # The most the cycle loop could issue before it raised.
        budget = (self.max_cycles * config.num_sms
                  * config.schedulers_per_sm)
        engine.recorder = source = StreamRecorder(
            launch.kernel, config.line_size, budget, self.max_cycles)
        engine.run()
        return source

    @staticmethod
    def _charge_idle(sms: list[SMCore], samples: SampleBlock,
                     stats: KernelStats, t0: float, t1: float) -> None:
        """Attribute skipped scheduler-cycles to W0 buckets.

        The skipped cycles span [t0 + 1, t1) — cycle t0 was visited,
        and is charged by issue_cycle or, for an SM asleep through it,
        here — and are spread across every sample interval the jump
        covers, so a long idle jump shows up as a flat W0 band in
        AerialVision rather than one spiked bin at t0.  A skipped cycle
        does not tell a barrier stall from a data hazard: both are
        ``W0_alu`` (DESIGN.md §5.1).
        """
        first = t0 + 1
        if t1 <= first:
            return
        idle = mem = alu = 0
        for sm in sms:
            if sm.charged_to < first:
                sm.charge_asleep(first)
            sm.charged_to = t1
            sm_idle, sm_mem, sm_barrier, sm_alu = sm.stalled()
            idle += sm_idle
            mem += sm_mem
            alu += sm_barrier + sm_alu
        charge_stalls(stats, samples, first, t1, idle, mem, 0, alu)

    @staticmethod
    def _fold_cache_stats(sms: list[SMCore], memsys: MemorySubsystem,
                          stats: KernelStats) -> None:
        l1_accesses = sum(sm.l1.stats.accesses for sm in sms)
        l1_hits = sum(sm.l1.stats.hits for sm in sms)
        stats.extra["l1_accesses"] = l1_accesses
        stats.extra["l1_hit_rate"] = (l1_hits / l1_accesses
                                      if l1_accesses else 0.0)
        l2_accesses = sum(p.l2.stats.accesses for p in memsys.partitions)
        l2_hits = sum(p.l2.stats.hits for p in memsys.partitions)
        stats.extra["l2_accesses"] = l2_accesses
        stats.extra["l2_hit_rate"] = (l2_hits / l2_accesses
                                      if l2_accesses else 0.0)
