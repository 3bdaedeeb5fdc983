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

Scalar tiers hook in as an ``on_exec`` observer (:meth:`Sanitizer.hook`);
the megablock vector tier performs the equivalent checks as masked
array operations (:mod:`repro.functional.megablock`) against the same
proof sets and reports through the same :meth:`record` funnel, so a
defect produces the same ``(kernel, rule, pc)`` finding at every tier.
"""

from __future__ import annotations

from repro.analysis.ranges import (
    ALIGN, BOUNDS, INIT, INJECTIVE, kernel_facts, prove_launch)
from repro.functional.executor import ExecRecord, lanes_of

#: Dynamic sanitizer rules (documentation + report ordering).
RULES = ("S601", "S602", "S603", "S604", "S605")

#: Access widths with an alignment requirement.
_ALIGNED_WIDTHS = (2, 4, 8, 16)

#: Race-table marker for "several threads read this byte this epoch".
_MANY_READERS = -2


class Sanitizer:
    """Shadow-state sanitizer shared by all execution tiers.

    The object is launch-reusable: ``begin_launch`` resets per-launch
    state (proof sets, race tables, barrier epochs) while findings and
    counters accumulate across launches, so one sanitizer can watch an
    entire workload (e.g. all of LeNet's kernels) and report once.
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
        self._epoch: dict[int, int] = {}
        self._writes: dict[int, dict[int, tuple[int, int]]] = {}
        self._reads: dict[int, dict[int, tuple[int, int]]] = {}
        #: (cta, warp) -> [(exit pc, lane mask), ...] of retired lanes.
        self._exited: dict[tuple[int, int], list[tuple[int, int]]] = {}

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
        self._epoch = {}
        self._writes = {}
        self._reads = {}
        self._exited = {}
        self.counters["launches"] += 1
        if self.tracer is not None and self.tracer.enabled:
            proven = sum(len(p) for p in self.proofs.values())
            self.tracer.instant(
                f"sanitize:arm:{kernel.name}", cat="sanitize",
                args={"facts": len(self.facts), "proofs": proven})

    # ------------------------------------------------------------------
    # Finding funnel (shared by scalar hook and megablock checks)
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
        entry["count"] += count

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
    # Scalar-tier observer (the step path: reference dispatch or the
    # stepped rendering of the emit table)
    # ------------------------------------------------------------------
    def hook(self, record: ExecRecord) -> None:
        """``on_exec`` observer: check one executed instruction."""
        inst = record.inst
        opcode = inst.opcode
        if opcode == "bar":
            self._check_barrier(record)
            return
        if opcode in ("exit", "ret"):
            self._note_exit(record)
            return
        accesses = record.mem_accesses
        if not accesses:
            return
        lanes = self._taken_lanes(record)
        threads = None
        if len(lanes) == len(accesses):
            warp = record.warp
            threads = [warp.thread_linear[lane] for lane in lanes]
        proofs = self.proofs.get(record.pc, frozenset())
        racecheck = opcode not in ("atom", "red")
        for index, (space, addr, nbytes, is_write) in enumerate(accesses):
            if space == "global":
                self._check_global(record.pc, addr, nbytes, is_write,
                                   proofs)
            elif space == "shared" and racecheck and threads is not None:
                self._check_shared(record, addr, nbytes, is_write,
                                   threads[index], proofs)

    @staticmethod
    def _taken_lanes(record: ExecRecord) -> tuple[int, ...]:
        """Re-derive the predicated lane set of an executed instruction.

        ``on_exec`` fires after dispatch, but guard predicates are never
        clobbered by memory instructions, so the taken set is still
        recomputable from the register files — sparing the hot
        ``step_warp`` path from carrying a lanes field for observers.
        """
        inst = record.inst
        lanes = lanes_of(record.active_mask)
        if inst.pred is None:
            return lanes
        regs = record.warp.regs
        taken = 0
        for lane in lanes:
            if regs[lane].get(inst.pred, 0) & 1:
                taken |= 1 << lane
        if inst.pred_negated:
            taken = record.active_mask & ~taken
        return lanes_of(taken)

    # -- memcheck (global) ---------------------------------------------
    def _check_global(self, pc: int, addr: int, nbytes: int,
                      is_write: bool, proofs: frozenset) -> None:
        kernel = self._kernel_name
        kind = "store" if is_write else "load"
        counters = self.counters
        in_bounds = True
        if BOUNDS in proofs:
            counters["skipped_proven"] += 1
        else:
            counters["checked_accesses"] += 1
            span = self._gm.allocation_containing(addr)
            if span is None:
                in_bounds = False
                self.record(
                    "S601", kernel, pc,
                    f"out-of-bounds global {kind} of {nbytes} bytes at "
                    f"{addr:#x}: no live allocation contains the address")
            elif addr + nbytes > span[0] + span[1]:
                in_bounds = False
                self.record(
                    "S601", kernel, pc,
                    f"out-of-bounds global {kind} of {nbytes} bytes at "
                    f"{addr:#x}: overruns allocation "
                    f"[{span[0]:#x}, {span[0] + span[1]:#x})")
        if nbytes in _ALIGNED_WIDTHS:
            if ALIGN in proofs:
                counters["skipped_proven"] += 1
            elif addr % nbytes:
                self.record(
                    "S605", kernel, pc,
                    f"misaligned global {kind}: address {addr:#x} is not "
                    f"{nbytes}-byte aligned")
        if not is_write and in_bounds:
            if INIT in proofs:
                counters["skipped_proven"] += 1
            else:
                shadow = self._gm.shadow
                if (shadow is not None
                        and not shadow.range_initialized(addr, nbytes)):
                    self.record(
                        "S602", kernel, pc,
                        f"global load of {nbytes} uninitialized bytes at "
                        f"{addr:#x} (never written by host or device)")

    # -- racecheck (shared) --------------------------------------------
    def _check_shared(self, record: ExecRecord, addr: int, nbytes: int,
                      is_write: bool, thread: int,
                      proofs: frozenset) -> None:
        """Byte-granular barrier-interval race detection.

        Classic happens-before-lite: within one barrier epoch of one
        CTA, a byte touched by two different threads with at least one
        write is a race.  An INJECTIVE proof (every thread's address
        provably distinct) waives only the write-vs-prior-write check
        of that store pc; the store still *records* its bytes and still
        races against reads — a read-then-injective-write conflict is
        real even when the stores never collide with each other.
        """
        cta = record.warp.cta.cta_linear
        epoch = self._epoch.get(cta, 0)
        writes = self._writes.setdefault(cta, {})
        reads = self._reads.setdefault(cta, {})
        kernel = self._kernel_name
        pc = record.pc
        self.counters["checked_accesses"] += 1
        ww_waived = is_write and INJECTIVE in proofs
        if ww_waived:
            self.counters["skipped_proven"] += 1
        for byte in range(addr, addr + nbytes):
            prior_write = writes.get(byte)
            if (prior_write is not None and prior_write[0] == epoch
                    and prior_write[1] != thread and not ww_waived):
                what = ("write-after-write" if is_write
                        else "read-after-write")
                self.record(
                    "S603", kernel, pc,
                    f"shared-memory race: {what} on byte {byte:#x} by "
                    f"threads {prior_write[1]} and {thread} with no "
                    f"barrier between them")
            if is_write:
                prior_read = reads.get(byte)
                if (prior_read is not None and prior_read[0] == epoch
                        and prior_read[1] != thread):
                    reader = ("multiple threads"
                              if prior_read[1] == _MANY_READERS
                              else f"thread {prior_read[1]}")
                    self.record(
                        "S603", kernel, pc,
                        f"shared-memory race: write-after-read on byte "
                        f"{byte:#x} — {reader} read it, thread {thread} "
                        "overwrites it with no barrier between them")
                writes[byte] = (epoch, thread)
            else:
                prior_read = reads.get(byte)
                if (prior_read is not None and prior_read[0] == epoch
                        and prior_read[1] != thread):
                    reads[byte] = (epoch, _MANY_READERS)
                else:
                    reads[byte] = (epoch, thread)

    # -- synccheck (barriers, epochs, exits) ---------------------------
    def _check_barrier(self, record: ExecRecord) -> None:
        warp = record.warp
        cta = warp.cta
        if record.inst.pred is None:
            # Expected arrivals: the warp's full lane set minus lanes
            # that exited at a pc *before* the barrier.  A guard-style
            # early exit (``@p bra $exit_guard`` above every bar) is
            # hardware-legal — exited threads stop counting toward the
            # rendezvous — but a lane whose exit lies after the bar got
            # there by branching *around* it: the divergent-barrier
            # defect synccheck exists to catch, even though this
            # in-order simulator happens to retire that lane first.
            expected = 0
            for lane, tid in enumerate(warp.tids):
                if tid is not None:
                    expected |= 1 << lane
            for exit_pc, exited in self._exited.get(
                    (cta.cta_linear, warp.warp_index), ()):
                if exit_pc < record.pc:
                    expected &= ~exited
            if record.active_mask != expected:
                self.record(
                    "S604", self._kernel_name, record.pc,
                    f"divergent barrier: warp {warp.warp_index} of CTA "
                    f"{cta.cta_linear} arrived with lane mask "
                    f"{record.active_mask:#010x}, expected "
                    f"{expected:#010x} — some threads of the warp can "
                    "never reach this bar.sync")
        # The warp was parked (at_barrier set) before this hook fired;
        # if it completed the rendezvous, the barrier interval ends and
        # race tracking starts a fresh epoch for the CTA.
        if all(w.finished or w.at_barrier for w in cta.warps):
            self._epoch[cta.cta_linear] = (
                self._epoch.get(cta.cta_linear, 0) + 1)

    def seed_exit(self, cta: int, warp_index: int, pc: int,
                  lane_mask: int) -> None:
        """Pre-record retired lanes across a tier handoff.

        The megablock bailout path calls this for lanes that exited
        inside the vector portion of the launch, so barriers executed
        by the scalar continuation still see the correct expected
        arrival sets.
        """
        self._exited.setdefault((cta, warp_index), []).append(
            (pc, lane_mask))

    def _note_exit(self, record: ExecRecord) -> None:
        """Track per-warp exited lanes so barrier expectations shrink."""
        inst = record.inst
        if inst.pred is None:
            taken = record.active_mask
        else:
            taken = 0
            regs = record.warp.regs
            for lane in lanes_of(record.active_mask):
                if regs[lane].get(inst.pred, 0) & 1:
                    taken |= 1 << lane
            if inst.pred_negated:
                taken = record.active_mask & ~taken
        warp = record.warp
        key = (warp.cta.cta_linear, warp.warp_index)
        self._exited.setdefault(key, []).append((record.pc, taken))
