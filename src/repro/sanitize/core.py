"""Dynamic sanitizer core: analysis-guided memcheck + racecheck.

One :class:`Sanitizer` observes kernel launches across every execution
tier and accumulates deduplicated findings:

========  ==========================================================
 rule      meaning
========  ==========================================================
 S601      global access outside every live allocation (memcheck)
 S602      global load of never-initialized bytes (memcheck)
 S603      shared-memory data race: two threads touch the same byte
           between barriers, at least one writing (racecheck)
 S604      barrier reached by a divergent (partial) warp (synccheck)
 S605      misaligned global access for the access width
========  ==========================================================

The "analysis-guided" part: before the launch runs, the value-range
pass (:mod:`repro.analysis.ranges`) evaluates each memory
instruction's affine address expression against the concrete grid and
allocation table.  A pc that is *proved* in-bounds / aligned /
initialized is dropped from the corresponding dynamic check entirely —
the common regular-kernel case (``a[tid]`` with an exact-cover grid)
sanitizes at near-zero cost, and the dynamic machinery only arms where
the proof fails.  Proofs never relax the *tracking* side: stores
always mark shadow bytes and always record race state, because a
proven-safe store that never dynamically executes (predication,
branches) must not pretend it initialized its interval.

Every rule is written once, as a method over arrays — one entry per
access (``addr[n]``, ``thread[n]``, ``cta[n]``; an access is a whole
``ld``/``st`` including its vector width, never one element of it):
:meth:`Sanitizer.check_global` (S601/S602/S605), :meth:`check_shared`
(S603) and :meth:`check_barrier` (S604).  The stepping tiers call them
from :meth:`Sanitizer.hook` with the <= 32 accesses of one
``ExecRecord``; the megablock tier calls them from its per-``ld``/``st``
access event with the masked lanes of a whole grid chunk.  Both index
the same state — the dense init map of
:class:`~repro.sanitize.shadow.ShadowMemory` and one :class:`_CtaWindow`
of per-CTA arrays — so findings, counts, messages and counters agree on
every tier by construction (what can still differ is the *order* tiers
execute racing accesses in, which is the defect itself).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ranges import (
    ALIGN, BOUNDS, INIT, INJECTIVE, kernel_facts, prove_launch)
from repro.functional.executor import ExecRecord, guard_lanes
from repro.functional.memory import GLOBAL_BASE

#: Dynamic sanitizer rules (documentation + report ordering).
RULES = ("S601", "S602", "S603", "S604", "S605")

#: Access widths with an alignment requirement.
_ALIGNED_WIDTHS = (2, 4, 8, 16)

#: Race-table marker for "several threads read this byte this epoch".
_MANY_READERS = -2

_NO_PROOFS: frozenset = frozenset()


class _CtaWindow:
    """Per-CTA state of the CTAs ``[first, first + count)`` in flight.

    One row per CTA: its barrier-interval ``epoch``, the retirement pc
    of each thread (``running`` = not retired) and, from the first
    shared access on, the race tables — last writer / last reader of
    every shared byte as ``(epoch, thread)``, ``-1`` = never.  A
    megablock chunk opens the window over all its CTAs; the stepping
    tiers open a one-CTA window per CTA they step (``owner`` is its
    ``CTAState``, which tells when the window can be let go).
    """

    __slots__ = ("first", "count", "owner", "threads", "warps", "span",
                 "epoch", "exit_pc", "_race")

    def __init__(self, first: int, count: int, launch, owner=None) -> None:
        self.first = first
        self.count = count
        self.owner = owner
        self.threads = launch.threads_per_block
        self.warps = launch.warps_per_block
        self.span = max(launch.shared_bytes, 16)
        self.epoch = np.zeros(count, np.int64)
        running = len(launch.kernel.body) + 1
        self.exit_pc = np.full(count * self.threads, running, np.int64)
        self._race = None

    def race(self) -> np.ndarray:
        """``(write epoch, write thread, read epoch, read thread)`` rows
        over ``count * span`` bytes."""
        if self._race is None:
            self._race = np.full((4, self.count * self.span), -1, np.int64)
        return self._race

    def warp_of(self, thread: np.ndarray) -> np.ndarray:
        """Window-wide warp index of window-wide thread indices."""
        return (thread // self.threads * self.warps
                + thread % self.threads // 32)


class Sanitizer:
    """Shadow-state sanitizer shared by all execution tiers.

    The object is launch-reusable: ``begin_launch`` resets per-launch
    state (proof sets, the CTA window) while findings and counters
    accumulate across launches, so one sanitizer can watch an entire
    workload (e.g. all of LeNet's kernels) and report once.
    """

    def __init__(self, *, tracer=None) -> None:
        #: (kernel, rule, pc) -> finding entry (first message, count).
        self.findings: dict[tuple[str, str, int], dict] = {}
        self.counters: dict[str, int] = {
            "launches": 0, "checked_accesses": 0,
            "skipped_proven": 0, "findings": 0}
        #: kernel name -> Kernel (for report-time producer slices).
        self.kernels: dict = {}
        self.tracer = tracer
        # Per-launch state (reset by begin_launch).
        self.proofs: dict[int, frozenset] = {}
        self.facts: dict = {}
        self._launch = None
        self._gm = None
        self._kernel_name = ""
        self._window: _CtaWindow | None = None
        #: One-CTA windows of unfinished CTAs the stepping went away
        #: from, by CTA id (see :meth:`_enter`).
        self._parked: dict[int, _CtaWindow] = {}
        #: Sorted live allocations as ``(bases, ends)`` with a leading
        #: empty sentinel; built at the first unproven bounds check.
        self._allocations = None

    # ------------------------------------------------------------------
    # Launch lifecycle
    # ------------------------------------------------------------------
    def begin_launch(self, launch, facts=None) -> None:
        """Arm the sanitizer for one launch.

        *facts* lets a megablock plan supply its cached affine memory
        facts; otherwise they are computed (and cached on the kernel).
        The proof sets are launch-specific — the same kernel can be
        fully proven under one grid and need dynamic checks under
        another — so they are always re-evaluated here.
        """
        kernel = launch.kernel
        self.kernels[kernel.name] = kernel
        self._kernel_name = kernel.name
        self._launch = launch
        self._gm = launch.global_mem
        self.facts = facts if facts is not None else kernel_facts(kernel)
        self.proofs = prove_launch(self.facts, launch, launch.global_mem)
        self._window = None
        self._parked.clear()
        self._allocations = None
        self.counters["launches"] += 1
        if self.tracer is not None and self.tracer.enabled:
            proven = sum(len(p) for p in self.proofs.values())
            self.tracer.instant(
                f"sanitize:arm:{kernel.name}", cat="sanitize",
                args={"facts": len(self.facts), "proofs": proven})

    # ------------------------------------------------------------------
    # Finding funnel
    # ------------------------------------------------------------------
    def record(self, rule: str, kernel: str, pc: int, message: str, *,
               count: int = 1) -> None:
        """Report one defect occurrence, deduplicated by (kernel, rule, pc).

        The first dynamic occurrence wins the message slot (it carries
        the most useful concrete address); repeats only bump ``count``.
        """
        key = (kernel, rule, pc)
        entry = self.findings.get(key)
        if entry is None:
            entry = {"kernel": kernel, "rule": rule, "pc": pc,
                     "message": message, "count": 0}
            self.findings[key] = entry
            self.counters["findings"] += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.instant(
                    f"sanitize:{rule}:{kernel}@{pc}", cat="sanitize",
                    args={"message": message})
                self.tracer.counter("sanitizer", dict(self.counters))
        entry["count"] += int(count)

    def findings_list(self) -> list[dict]:
        """Stable, merge-friendly finding dicts."""
        return [dict(self.findings[key])
                for key in sorted(self.findings)]

    @staticmethod
    def merge_findings(groups) -> list[dict]:
        """Merge per-shard finding lists deterministically.

        Findings are keyed by (kernel, rule, pc); counts add, and the
        message of the lowest-ranked shard wins — so a 2-shard run
        reports exactly the same finding set as a 1-process run of the
        same defect, with the same representative message.
        """
        merged: dict[tuple[str, str, int], dict] = {}
        for group in groups:
            for entry in group:
                key = (entry["kernel"], entry["rule"], entry["pc"])
                kept = merged.get(key)
                if kept is None:
                    merged[key] = dict(entry)
                else:
                    kept["count"] += entry["count"]
        return [dict(merged[key]) for key in sorted(merged)]

    # ------------------------------------------------------------------
    # Stepping-tier observer (reference dispatch or the stepped rendering
    # of the emit table): one ExecRecord -> the array rules below
    # ------------------------------------------------------------------
    def hook(self, record: ExecRecord) -> None:
        """``on_exec`` observer: check one executed instruction.

        Records may come from any CTA of the armed launch in any order
        (a driver round-robining ``step_warp`` over several CTAs): each
        CTA's epoch, exit pcs and race tables are kept until it finishes.
        """
        opcode = record.inst.opcode
        warp = record.warp
        pc = record.pc
        if opcode == "bar":
            cta = self._enter(warp.cta)
            if record.inst.pred is None:
                self.check_barrier(pc, cta, self._threads(record))
            # The warp was parked (at_barrier set) before this hook
            # fired; if it completed the rendezvous, the interval ends.
            if all(w.finished or w.at_barrier for w in warp.cta.warps):
                self.end_interval(cta)
            return
        if opcode in ("exit", "ret"):
            self.note_exit(pc, self._enter(warp.cta), self._threads(record))
            return
        accesses = record.mem_accesses
        if not accesses:
            return
        # One instruction: every lane has its width and direction.
        nbytes, is_write = accesses[0][2], accesses[0][3]
        addrs = [access[1] for access in accesses
                 if access[0] == "global"]
        if addrs:
            self.check_global(pc, len(addrs), nbytes, is_write,
                              lambda: np.array(addrs, np.uint64))
        if opcode in ("atom", "red"):
            return  # atomics order themselves: no racecheck
        shared = [index for index, access in enumerate(accesses)
                  if access[0] == "shared"]
        threads = self._threads(record) if shared else ()
        if len(threads) == len(accesses):
            self.check_shared(
                pc, np.array([accesses[i][1] for i in shared], np.int64),
                np.array([threads[i] for i in shared], np.int64),
                self._enter(warp.cta), nbytes, is_write)

    @staticmethod
    def _threads(record: ExecRecord) -> list[int]:
        """Thread ids (within the CTA) of the lanes that issued."""
        warp = record.warp
        return [warp.thread_linear[lane] for lane in guard_lanes(
            record.inst, warp.regs, record.active_mask)]

    # ------------------------------------------------------------------
    # Per-CTA state
    # ------------------------------------------------------------------
    def open_ctas(self, first: int, count: int) -> None:
        """Start fresh per-CTA state for CTAs ``[first, first+count)``
        (a megablock chunk; whatever window was open is dropped)."""
        self._window = _CtaWindow(first, count, self._launch)

    def _enter(self, state) -> int:
        """Make the window hold the CTA of *state* (a ``CTAState``) and
        return its id.  The stepping tiers keep one CTA's window open —
        or the chunk window a megablock bailout left, whose state the
        scalar continuation carries on.  Moving to another CTA parks the
        open one-CTA window while its CTA is unfinished, so interleaved
        CTAs each come back to their own state."""
        cta = state.cta_linear
        window = self._window
        if window is None or not 0 <= cta - window.first < window.count:
            if (window is not None and window.owner is not None
                    and not window.owner.finished):
                self._parked[window.first] = window
            self._window = self._parked.pop(cta, None) or _CtaWindow(
                cta, 1, self._launch, owner=state)
        return cta

    # ------------------------------------------------------------------
    # The rules.  *cta* / *thread* are CTA-linear ids and thread ids
    # within the CTA, one per access (or one int for all of them).
    # ------------------------------------------------------------------
    def check_global(self, pc: int, count: int, nbytes: int,
                     is_write: bool, addrs) -> None:
        """S601 / S605 / S602 over *count* global accesses of *nbytes*.

        *addrs* is called for the ``uint64`` address array only when
        some check is not proven for this pc: a fully proven pc costs
        its counter updates and nothing else.
        """
        if not count:
            return
        proofs = self.proofs.get(pc, _NO_PROOFS)
        counters = self.counters
        shadow = self._gm.shadow
        bounds = BOUNDS not in proofs
        align = nbytes in _ALIGNED_WIDTHS
        init = not is_write
        counters["checked_accesses" if bounds
                 else "skipped_proven"] += count
        if align and ALIGN in proofs:
            counters["skipped_proven"] += count
            align = False
        if init and INIT in proofs:
            counters["skipped_proven"] += count
            init = False
        init = init and shadow is not None
        if not (bounds or align or init):
            return
        addr = addrs()
        kernel = self._kernel_name
        kind = "store" if is_write else "load"
        inside = None
        if bounds:
            bases, ends = self._allocation_table()
            end = ends[np.searchsorted(bases, addr, side="right") - 1]
            inside = (addr < end) & (end - addr >= nbytes)
            bad = np.flatnonzero(~inside)
            if bad.size:
                first = int(addr[bad[0]])
                span = self._gm.allocation_containing(first)
                why = ("no live allocation contains the address"
                       if span is None else
                       f"overruns allocation "
                       f"[{span[0]:#x}, {span[0] + span[1]:#x})")
                self.record(
                    "S601", kernel, pc,
                    f"out-of-bounds global {kind} of {nbytes} bytes at "
                    f"{first:#x}: {why}", count=bad.size)
        if align:
            bad = np.flatnonzero(addr & np.uint64(nbytes - 1))
            if bad.size:
                self.record(
                    "S605", kernel, pc,
                    f"misaligned global {kind}: address "
                    f"{int(addr[bad[0]]):#x} is not {nbytes}-byte aligned",
                    count=bad.size)
        if init:
            # Out-of-bounds accesses are S601's, not S602's.
            live = addr if inside is None else addr[inside]
            offset = (live - np.uint64(GLOBAL_BASE)).astype(np.int64)
            marks = np.frombuffer(shadow.dense(), np.uint8)
            written = marks[offset]
            for k in range(1, nbytes):
                written = written & marks[offset + k]
            bad = np.flatnonzero(written == 0)
            if bad.size:
                self.record(
                    "S602", kernel, pc,
                    f"global load of {nbytes} uninitialized bytes at "
                    f"{int(live[bad[0]]):#x} (never written by host or "
                    "device)", count=bad.size)

    def _allocation_table(self) -> tuple[np.ndarray, np.ndarray]:
        if self._allocations is None:
            live = sorted(self._gm.allocations.items())
            bases = np.array([0, *(base for base, _ in live)], np.uint64)
            sizes = np.array([0, *(size for _, size in live)], np.uint64)
            self._allocations = (bases, bases + sizes)
        return self._allocations

    def check_shared(self, pc: int, addr, thread, cta, nbytes: int,
                     is_write: bool) -> None:
        """S603: byte-granular barrier-interval race detection.

        Classic happens-before-lite: within one barrier epoch of one
        CTA, a byte touched by two different threads with at least one
        write is a race.  Accesses are taken in array order, the way
        the stepping tiers issue them lane by lane: a write conflicts
        with the byte's previous writer (in the tables, or earlier in
        this very call) and with its readers; a read with its last
        writer.  An INJECTIVE proof (every thread's address provably
        distinct) waives only the write-vs-write check of that store pc;
        the store still *records* its bytes and still races against
        reads — a read-then-injective-write conflict is real even when
        the stores never collide with each other.
        """
        window = self._window
        span = window.span
        count = len(addr)
        self.counters["checked_accesses"] += count
        waived = is_write and INJECTIVE in self.proofs.get(pc, _NO_PROOFS)
        if waived:
            self.counters["skipped_proven"] += count
        w_epoch, w_thread, r_epoch, r_thread = window.race()
        row = cta - window.first
        byte = ((row * span + addr)[:, None] + np.arange(nbytes)).ravel()
        who = np.repeat(thread, nbytes)
        epoch = np.repeat(
            np.broadcast_to(window.epoch[row], addr.shape), nbytes)
        written = w_epoch[byte] == epoch

        def race(at: int, hits: int, kind: str, who_did_what: str) -> None:
            self.record(
                "S603", self._kernel_name, pc,
                f"shared-memory race: {kind} on byte "
                f"{int(byte[at]) % span:#x} {who_did_what} with no barrier "
                "between them", count=hits)

        if not is_write:
            hits = np.flatnonzero(written & (w_thread[byte] != who))
            if hits.size:
                at = hits[0]
                race(at, hits.size, "read-after-write",
                     f"by threads {w_thread[byte[at]]} and {who[at]}")
            many = (r_epoch[byte] == epoch) & (r_thread[byte] != who)
            mark = np.where(many, _MANY_READERS, who)
            r_epoch[byte] = epoch
            r_thread[byte] = mark
            # A byte several lanes of this access read: whichever mark
            # landed, another lane finds a foreign one there.
            r_thread[byte[r_thread[byte] != mark]] = _MANY_READERS
            return
        found = []  # arguments of race()
        if waived:
            w_epoch[byte] = epoch
            w_thread[byte] = who
        else:
            # Chain each byte's writers: the table's, then this call's
            # in array order (stable sort).  The last one stays.
            order = np.argsort(byte, kind="stable")
            sbyte, swho = byte[order], who[order]
            head = np.ones(sbyte.size, bool)
            head[1:] = sbyte[1:] != sbyte[:-1]
            prev = np.empty_like(swho)
            prev[1:] = swho[:-1]
            prev[head] = np.where(written[order][head],
                                  w_thread[sbyte[head]], swho[head])
            hits = np.flatnonzero(prev != swho)
            if hits.size:
                at = hits[np.argmin(order[hits])]
                found.append((order[at], hits.size, "write-after-write",
                              f"by threads {prev[at]} and {swho[at]}"))
            tail = np.ones(sbyte.size, bool)
            tail[:-1] = head[1:]
            w_epoch[sbyte[tail]] = epoch[order][tail]
            w_thread[sbyte[tail]] = swho[tail]
        hits = np.flatnonzero((r_epoch[byte] == epoch)
                              & (r_thread[byte] != who))
        if hits.size:
            at = hits[0]
            reader = r_thread[byte[at]]
            reader = ("multiple threads" if reader == _MANY_READERS
                      else f"thread {reader}")
            found.append((at, hits.size, "write-after-read",
                          f"— {reader} read it, thread {who[at]} "
                          "overwrites it"))
        # The first message wins the finding: report in array order.
        for args in sorted(found, key=lambda args: args[0]):
            race(*args)

    def check_barrier(self, pc: int, cta, thread) -> None:
        """S604 at a ``bar`` issue; *thread* are the arriving threads.

        A warp's expected arrivals are its threads minus those that
        retired at a pc *before* the barrier.  A guard-style early exit
        (``@p bra $exit_guard`` above every bar) is hardware-legal —
        exited threads stop counting toward the rendezvous — but a
        thread whose exit lies after the bar (or that is still running
        elsewhere) got there by branching *around* it: the
        divergent-barrier defect synccheck exists to catch, even though
        an in-order simulator happens to retire that thread first.
        """
        window = self._window
        warps = window.count * window.warps
        arrived = np.bincount(window.warp_of(
            (cta - window.first) * window.threads
            + np.asarray(thread, np.int64)), minlength=warps)
        expected = np.bincount(window.warp_of(
            np.flatnonzero(window.exit_pc >= pc)), minlength=warps)
        bad = np.flatnonzero((arrived > 0) & (arrived != expected))
        if bad.size:
            warp = int(bad[0])
            self.record(
                "S604", self._kernel_name, pc,
                f"divergent barrier: warp {warp % window.warps} of CTA "
                f"{window.first + warp // window.warps} arrived with "
                f"{arrived[warp]} of {expected[warp]} expected threads — "
                "some threads of the warp can never reach this bar.sync",
                count=bad.size)

    def end_interval(self, cta) -> None:
        """*cta* (distinct ids) completed a barrier rendezvous: race
        tracking starts a fresh epoch for each."""
        self._window.epoch[cta - self._window.first] += 1

    def note_exit(self, pc: int, cta, thread) -> None:
        """*thread* retired at *pc* (barrier expectations shrink)."""
        window = self._window
        window.exit_pc[(cta - window.first) * window.threads
                       + np.asarray(thread, np.int64)] = pc
