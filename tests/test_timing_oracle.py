"""The cycle loop against a per-cycle oracle, on generated streams.

The timing model's whole input is data: per-warp ``(pc, lanes, mem,
last)`` items over a static class table, which the producers hand over
pre-classified (``repro.timing.stream``).  So it can be fuzzed without
PTX.  The oracle below is the plain loop the event-driven issue loop
replaced: every cycle it visits every SM that holds a CTA and asks every
scheduler for a ready warp, and it jumps only when nothing issued.  It
owns its SM, scheduler and cycle loop and reuses only the production
memory system, caches and ``SampleBlock``.  The production loop must
reproduce it bit for bit: ``KernelStats`` and the six series
AerialVision plots.

``--oracle-seeds N`` (tests/conftest.py) sets how many generated
launches each configuration runs; tier-1 runs 12.
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import CycleBudgetExceededError, TimingDeadlockError
from repro.timing import GTX1050, TINY, gpu
from repro.timing.cache import Cache
from repro.timing.gpu import GpuTiming
from repro.timing.memsys import MemRequest, MemorySubsystem
from repro.timing.stats import (
    BUCKET_SLOT, W0_ALU, W0_BARRIER, W0_BUCKETS, W0_IDLE, W0_MEM,
    KernelStats, SampleBlock, lane_bucket)
from repro.timing.stream import (
    ALU, ATOM, BAR, FELL_OFF, GLOBAL, MEM, OPS, OTHER, SFU, SHARED, TEX,
    WarpStream)
from repro.trace.clock import SimClock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import timing_fingerprint  # noqa: E402


# ----------------------------------------------------------------------
# The oracle: one visit per busy SM per cycle, one scan per warp
# ----------------------------------------------------------------------
class Warp:
    def __init__(self, stream, cta) -> None:
        self.fetch = stream.next
        self.cta = cta
        self.ready_at = 0.0
        self.mem_pending = 0
        self.finished = stream.finished
        self.at_barrier = stream.at_barrier

    def ready(self, now: float) -> bool:
        return (self.ready_at <= now and not self.mem_pending
                and not self.at_barrier and not self.finished)


class Scheduler:
    def __init__(self, policy: str) -> None:
        self.policy = policy
        self.warps: list[Warp] = []
        self.next_index = 0
        self.greedy: Warp | None = None

    def pick(self, now: float) -> Warp | None:
        if self.policy == "gto":
            if self.greedy is not None and self.greedy.ready(now):
                return self.greedy
            for warp in self.warps:
                if warp.ready(now):
                    self.greedy = warp
                    return warp
            return None
        count = len(self.warps)
        for step in range(count):
            index = (self.next_index + step) % count
            if self.warps[index].ready(now):
                self.next_index = (index + 1) % count
                return self.warps[index]
        return None


def decode(op: int, lines):
    """A stream item's class code and ``(flags, reads, writes)``."""
    kind = op % SHARED
    if op == kind:
        return kind, None     # touched nothing
    return kind, (op & (SHARED | TEX | OTHER), *(lines or ((), ())))


class SM:
    def __init__(self, sm_id, config, source, memsys, stats,
                 samples) -> None:
        self.sm_id, self.config, self.source = sm_id, config, source
        self.memsys = memsys
        self.stats, self.samples = stats, samples
        self.l1 = Cache(config.l1_sets, config.l1_ways, config.line_size)
        self.ctas: list[SimpleNamespace] = []
        self.schedulers = [Scheduler(config.warp_scheduler)
                           for _ in range(config.schedulers_per_sm)]

    def assign_cta(self, index: int, streams) -> None:
        cta = SimpleNamespace(index=index, warps=[], live=0)
        self.ctas.append(cta)
        for warp_index, stream in enumerate(streams):
            warp = Warp(stream, cta)
            cta.warps.append(warp)
            cta.live += not warp.finished
            self.schedulers[warp_index % len(self.schedulers)].warps.append(
                warp)

    def retire_cta(self, cta) -> None:
        self.ctas.remove(cta)
        self.source.close(cta.index)
        for scheduler in self.schedulers:
            kept = [warp for warp in scheduler.warps if warp.cta is not cta]
            if len(kept) != len(scheduler.warps):
                scheduler.warps = kept
                scheduler.next_index = 0
                if (scheduler.greedy is not None
                        and scheduler.greedy.cta is cta):
                    scheduler.greedy = None

    def issue_cycle(self, now: float) -> tuple[int, list]:
        issued = 0
        finished = []
        stats, samples = self.stats, self.samples
        for scheduler in self.schedulers:
            if not scheduler.warps:
                samples.row(now)[BUCKET_SLOT[W0_IDLE]] += 1
                stats.idle_scheduler_cycles += 1
                continue
            warp = scheduler.pick(now)
            if warp is None:
                self.record_stall(now, scheduler)
                continue
            op, lanes, lines, last = warp.fetch()
            if op != FELL_OFF:
                issued += 1
                stats.instructions += lanes
                stats.warp_instructions += 1
                samples.commit(now, self.sm_id, lanes)
                samples.row(now)[BUCKET_SLOT[lane_bucket(lanes)]] += 1
                kind, mem = decode(op, lines)
                self.apply_latency(warp, kind, mem, now)
                if kind == BAR:
                    warp.at_barrier = True
                    self.release_barrier(warp.cta)
            if last:
                warp.finished = True
                warp.cta.live -= 1
                if not warp.cta.live:
                    finished.append(warp.cta)
                else:   # the parked siblings may be waiting for this one
                    self.release_barrier(warp.cta)
        for cta in finished:
            self.retire_cta(cta)
        if issued:
            stats.active_sm_cycles += 1
        return issued, finished

    @staticmethod
    def release_barrier(cta) -> None:
        live = [warp for warp in cta.warps if not warp.finished]
        if all(warp.at_barrier for warp in live):
            for warp in live:
                warp.at_barrier = False

    def record_stall(self, now: float, scheduler: Scheduler) -> None:
        row = self.samples.row(now)
        if any(warp.mem_pending for warp in scheduler.warps):
            row[BUCKET_SLOT[W0_MEM]] += 1
            self.stats.stall_mem_cycles += 1
        elif any(warp.at_barrier for warp in scheduler.warps
                 if not warp.finished):
            row[BUCKET_SLOT[W0_BARRIER]] += 1
        else:
            row[BUCKET_SLOT[W0_ALU]] += 1
            self.stats.stall_alu_cycles += 1

    def apply_latency(self, warp: Warp, kind: int, mem, now: float) -> None:
        config, stats = self.config, self.stats
        if kind == SFU:
            stats.sfu_ops += 1
            warp.ready_at = now + config.sfu_latency
        elif kind == BAR:
            stats.barriers += 1
            warp.ready_at = now + config.bar_latency
        elif kind >= MEM or mem is not None:
            if kind == ATOM:
                stats.atom_ops += 1
            if mem is not None:
                self.issue_memory(warp, mem, now)
        else:
            stats.alu_ops += 1
            warp.ready_at = now + config.alu_latency

    def issue_memory(self, warp: Warp, mem, now: float) -> None:
        config, stats = self.config, self.stats
        flags, reads, writes = mem
        for flag, latency, counter in (
                (SHARED, config.shared_mem_latency, "shared_ops"),
                (TEX, config.tex_latency, "tex_ops"),
                (OTHER, config.const_latency, None)):
            if flags & flag:
                if counter:
                    setattr(stats, counter, getattr(stats, counter) + 1)
                warp.ready_at = max(warp.ready_at, now + latency)
        if not reads and not writes:
            return
        stats.gmem_read_transactions += len(reads)
        stats.gmem_write_transactions += len(writes)
        warp.ready_at = max(warp.ready_at, now + config.l1_hit_latency)
        for line in reads:
            if self.l1.access(line * config.line_size, is_write=False):
                stats.l1_hits += 1
                continue
            stats.l1_misses += 1
            warp.mem_pending += 1
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=False, sm_id=self.sm_id,
                warp_token=warp, issued_at=now), now)
        for line in writes:
            self.l1.access(line * config.line_size, is_write=True)
            self.memsys.submit(MemRequest(
                line_addr=line, is_write=True, sm_id=self.sm_id,
                warp_token=warp, issued_at=now), now)

    def next_ready_time(self, now: float) -> float | None:
        times = [max(warp.ready_at, now + 1)
                 for scheduler in self.schedulers for warp in scheduler.warps
                 if not (warp.finished or warp.at_barrier
                         or warp.mem_pending)]
        return min(times, default=None)


def oracle_simulate(timing: GpuTiming, launch):
    """``GpuTiming.simulate`` as the per-cycle loop."""
    config = timing.config
    stats = KernelStats()
    clock = SimClock()
    samples = SampleBlock(config.sample_interval, config.num_sms,
                          config.num_partitions, config.banks_per_partition,
                          clock=clock)
    events: list = []
    sequence = itertools.count()

    def schedule(time, fn) -> None:
        heapq.heappush(events, (time, next(sequence), fn))

    def respond(time, req) -> None:
        def deliver(_now, warp=req.warp_token) -> None:
            warp.mem_pending -= 1
        schedule(time, deliver)

    source = timing._open_source(launch)
    memsys = gpu.MemorySubsystem(config, stats, samples, schedule, respond,
                                 fault_filter=timing.mem_fault_filter)
    sms = [SM(sm_id, config, source, memsys, stats, samples)
           for sm_id in range(config.num_sms)]
    next_cta, total = launch.first_cta, launch.limit_cta

    def refill() -> None:
        nonlocal next_cta
        progressing = True
        while progressing and next_cta < total:
            progressing = False
            for sm in sms:
                if next_cta >= total:
                    break
                if len(sm.ctas) >= config.max_ctas_per_sm:
                    continue
                streams = source.open(next_cta)
                if streams is not None:
                    sm.assign_cta(next_cta, streams)
                    progressing = True
                next_cta += 1

    refill()
    while True:
        now = clock.now
        while events and events[0][0] <= now:
            heapq.heappop(events)[2](now)
        issued = 0
        any_resident = False
        for sm in sms:
            if not sm.ctas:
                continue
            any_resident = True
            count, finished = sm.issue_cycle(now)
            issued += count
            if finished:
                refill()
        if next_cta >= total and not any_resident and not events:
            break
        if now >= timing.max_cycles:
            raise CycleBudgetExceededError("oracle: cycle budget")
        if issued:
            clock.advance(1.0)
            continue
        candidates = [events[0][0]] if events else []
        candidates += [t for t in (sm.next_ready_time(now) for sm in sms)
                       if t is not None]
        if not candidates:
            if next_cta >= total and not any(sm.ctas for sm in sms):
                clock.advance(1.0)
                continue
            raise TimingDeadlockError("oracle: no progress")
        target = max(now + 1.0, min(candidates))
        # Jumped cycles [now + 1, target): a parked scheduler is a data
        # hazard here, and an SM with no CTA is idle.
        if target - now > 1:
            for sm in sms:
                for scheduler in sm.schedulers:
                    if not scheduler.warps:
                        bucket = W0_IDLE
                    elif any(warp.mem_pending for warp in scheduler.warps):
                        bucket = W0_MEM
                    else:
                        bucket = W0_ALU
                    stalls = [0] * len(W0_BUCKETS)
                    stalls[BUCKET_SLOT[bucket]] = 1
                    samples.stall_span(now + 1, target, stalls)
                    extra = int(target - now) - 1
                    if bucket == W0_IDLE:
                        stats.idle_scheduler_cycles += extra
                    elif bucket == W0_MEM:
                        stats.stall_mem_cycles += extra
                    else:
                        stats.stall_alu_cycles += extra
        clock.advance_to(target)
    memsys.drain_active(clock.now)
    stats.cycles = clock.cycles
    samples.finalize()
    l1 = [sm.l1.stats for sm in sms]
    l2 = [partition.l2.stats for partition in memsys.partitions]
    for level, caches in (("l1", l1), ("l2", l2)):
        accesses = sum(cache.accesses for cache in caches)
        hits = sum(cache.hits for cache in caches)
        stats.extra[f"{level}_accesses"] = accesses
        stats.extra[f"{level}_hit_rate"] = hits / accesses if accesses else 0.0
    return stats, samples


# ----------------------------------------------------------------------
# Generated launches
# ----------------------------------------------------------------------
#: The class table of the generated kernel.
KINDS = [ALU, ALU, SFU, BAR, MEM, MEM, ATOM, ALU]


def _pcs(kind: int) -> list[int]:
    return [pc for pc, k in enumerate(KINDS) if k == kind]


def _item(rng: random.Random, last: bool = False):
    """One random non-barrier item."""
    roll = rng.random()
    if roll < 0.05:
        return FELL_OFF, 0, None, last
    lanes = 0 if rng.random() < 0.08 else rng.randint(1, 32)
    if roll < 0.5:
        return rng.choice(_pcs(ALU)), lanes, None, last
    if roll < 0.6:
        return rng.choice(_pcs(SFU)), lanes, None, last
    pc = rng.choice(_pcs(ATOM) if roll < 0.67 else _pcs(MEM))
    if not lanes:
        return pc, 0, None, last    # fully predicated off: touches nothing
    space = rng.random()
    if space < 0.25:
        return pc, lanes, (rng.choice([SHARED, TEX, OTHER, SHARED | TEX]),
                           (), ()), last
    lines = tuple(dict.fromkeys(rng.randrange(96)
                                for _ in range(rng.randint(1, 4))))
    if space < 0.7:
        return pc, lanes, (0, lines, ()), last
    return pc, lanes, (0, (), lines), last


def generate(seed: int, config) -> list[list[list[tuple]]]:
    """Per CTA, per warp, the warp's items.  Every warp either reaches
    each of its CTA's barriers or retires before it (so its parked
    siblings wait on the retirement), and there are more CTAs than the
    GPU holds at once."""
    rng = random.Random(seed)
    bar_pc = _pcs(BAR)[0]
    ctas = []
    for _ in range(config.num_sms * config.max_ctas_per_sm
                   + rng.randint(1, 8)):
        phases = rng.randint(0, 3)
        warps = []
        for _ in range(rng.randint(1, 6)):
            exits_at = (rng.randint(0, phases) if rng.random() < 0.3
                        else None)
            items = []
            for phase in range(phases + 1):
                items += [_item(rng) for _ in range(rng.randint(0, 6))]
                if phase == exits_at or phase == phases:
                    break
                items.append((bar_pc, rng.randint(1, 32), None, False))
            if not items or rng.random() < 0.8:
                items.append(_item(rng, last=True))
            else:   # the warp's last item is its barrier (or any item)
                items[-1] = items[-1][:3] + (True,)
            warps.append(items)
        ctas.append(warps)
    return ctas


def encode(pc: int, lanes: int, mem, last: bool) -> tuple:
    """A generated item as a producer hands it over: its op is the
    pc's class or'd with the spaces it touched."""
    if pc == FELL_OFF:
        return FELL_OFF, lanes, None, last
    if mem is None:
        return KINDS[pc], lanes, None, last
    flags, reads, writes = mem
    if not reads and not writes:
        return KINDS[pc] | flags, lanes, None, last
    return KINDS[pc] | flags | GLOBAL, lanes, (reads, writes), last


class GeneratedSource:
    """``stream.py``'s ``open``/``close`` protocol over generated items."""

    def __init__(self, ctas) -> None:
        self.ctas = ctas
        self.closed: list[int] = []
        self.op_counts = [0] * OPS

    def open(self, cta: int) -> list[WarpStream]:
        streams = []
        for items in self.ctas[cta]:
            items = [encode(*item) for item in items]
            for op, *_rest in items:
                if op != FELL_OFF:
                    self.op_counts[op] += 1
            streams.append(WarpStream(iter(items).__next__))
        return streams

    def close(self, cta: int) -> None:
        self.closed.append(cta)


class CountingMemory(MemorySubsystem):
    """Production memory system that counts requests and responses."""

    reads: list[MemRequest]
    responses: Counter

    def __init__(self, config, stats, samples, schedule, respond,
                 fault_filter=None) -> None:
        def counted(time, req) -> None:
            CountingMemory.responses[id(req)] += 1
            respond(time, req)
        super().__init__(config, stats, samples, schedule, counted,
                         fault_filter=fault_filter)

    def submit(self, req: MemRequest, now: float) -> None:
        if not req.is_write:
            CountingMemory.reads.append(req)
        super().submit(req, now)


def run(simulate, ctas, config, monkeypatch):
    """Simulate the generated launch *ctas* with *simulate* and check the
    conservation laws every run must keep."""
    launch = SimpleNamespace(kernel=SimpleNamespace(name="generated"),
                             first_cta=0, limit_cta=len(ctas))
    source = GeneratedSource(ctas)
    CountingMemory.reads, CountingMemory.responses = [], Counter()
    monkeypatch.setattr(GpuTiming, "_open_source",
                        lambda self, launch: source)
    monkeypatch.setattr(gpu, "MemorySubsystem", CountingMemory)
    stats, samples = simulate(GpuTiming(config), launch)
    # Every read request is answered exactly once.
    assert [CountingMemory.responses[id(req)]
            for req in CountingMemory.reads] == [1] * len(
                CountingMemory.reads)
    assert sum(CountingMemory.responses.values()) == len(
        CountingMemory.reads)
    # Every item but a fall-off issues.
    assert stats.warp_instructions == sum(
        item[0] != FELL_OFF for warps in ctas for items in warps
        for item in items)
    assert sorted(source.closed) == list(range(len(ctas)))
    # The DRAM bus is busy, and a partition active, at most the whole
    # interval, before any clipping.
    for table in (samples._dram_busy, samples._dram_active):
        assert all(0 <= value <= samples.interval
                   for value in table.values())
    return stats, samples


def series(samples: SampleBlock) -> list[np.ndarray]:
    issue = samples.warp_issue_matrix()
    return [samples.global_ipc_series(), samples.shader_ipc_matrix(),
            samples.dram_efficiency_matrix(),
            samples.dram_utilization_matrix(), samples.bank_access_matrix(),
            *(issue[bucket] for bucket in sorted(issue))]


def pytest_generate_tests(metafunc):
    if "seed" in metafunc.fixturenames:
        metafunc.parametrize(
            "seed", range(metafunc.config.getoption("--oracle-seeds")))


SETTINGS = [pytest.param(replace(config, warp_scheduler=policy,
                                 dram_scheduler=dram),
                         id=f"{config.name}-{policy}-{dram}")
            for config in (TINY, GTX1050) for policy in ("lrr", "gto")
            for dram in ("frfcfs", "fcfs")]


@pytest.mark.parametrize("config", SETTINGS)
def test_the_cycle_loop_is_the_per_cycle_loop(config, seed, monkeypatch):
    ctas = generate(seed, config)
    expected_stats, expected = run(oracle_simulate, ctas, config,
                                   monkeypatch)
    stats, samples = run(GpuTiming.simulate, ctas, config, monkeypatch)
    assert asdict(stats) == asdict(expected_stats)
    for got, want in zip(series(samples), series(expected), strict=True):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_generated_launches_cover_what_the_loop_must_get_right():
    """The generator makes every case the loop has special rules for."""
    ctas = [generate(seed, GTX1050) for seed in range(12)]
    assert all(len(launch) > GTX1050.num_sms * GTX1050.max_ctas_per_sm
               for launch in ctas)
    items = [item for launch in ctas for warps in launch
             for warp in warps for item in warp]
    mems = [item[2] for item in items if item[2] is not None]
    assert any(item[0] == FELL_OFF and not item[3] for item in items)
    assert any(item[0] == FELL_OFF and item[3] for item in items)
    assert any(mem[0] & SHARED for mem in mems)
    assert any(mem[1] for mem in mems) and any(mem[2] for mem in mems)
    # A warp retiring with fewer barriers than a sibling: its siblings
    # park at a barrier it never reaches.
    assert any(len({sum(item[0] == _pcs(BAR)[0] for item in warp)
                    for warp in warps}) > 1
               for launch in ctas for warps in launch)


@pytest.mark.parametrize("case", ["lenet-tiny", "blend32-tiny"])
def test_the_oracle_reproduces_the_golden_digests(case, monkeypatch):
    """The port itself: on real recorded and live launches the oracle
    gives the digests the model gave before its loop was rewritten."""
    monkeypatch.setattr(GpuTiming, "simulate", oracle_simulate)
    cycles, digest, _launches = timing_fingerprint.fingerprint(case)
    assert (cycles, digest) == timing_fingerprint.GOLDEN[case]

