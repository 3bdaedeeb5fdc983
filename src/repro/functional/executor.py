"""Warp-lockstep functional execution engine.

The engine owns SIMT control flow (branches, reconvergence, exit,
barriers) and defers everything else to the dispatch table in
:mod:`repro.ptx.instructions`.  It serves two masters:

* **Functional simulation mode** — :meth:`FunctionalEngine.run` executes
  the whole grid CTA-by-CTA as fast as possible (the mode the paper says
  is 7-8x faster than performance simulation).  When nothing observes
  per-instruction state it issues whole *superblocks* — straight-line
  runs fused into one closure by :mod:`repro.functional.superblock` —
  and synthesises aggregate stats from static block metadata.
* **Performance simulation mode** — the timing model records a
  megablock run of the launch (``self.recorder``) and replays it, or,
  where a recording would not be provably identical, issues one warp
  instruction at a time through :meth:`step_warp` and uses the returned
  :class:`ExecRecord` (opcode class, per-lane memory addresses) to
  charge cycles (:mod:`repro.timing.stream`).  The stepping contract is
  untouched by superblocks: one record per issued instruction, always.

The interpreter tiers are ablatable through ``fast_mode``:
``"reference"`` (generic dispatch only), ``"superblock"`` (the rows of
:mod:`repro.functional.emit` in the Python-int dialect of
:mod:`repro.functional.superblock`, fused into straight-line
blocks where nothing observes per-instruction state and stepped one
instruction at a time elsewhere; the default), ``"fastpath"`` (the same
rendering, always stepped, never fused), and
``"megablock"`` (the same rows in the NumPy dialect of
:mod:`repro.functional.megablock`, whole grid at once, with compiled
plans persisted across processes by
:mod:`repro.functional.kernelcache`).  A kernel the megablock codegen
cannot vectorize falls back to the superblock tier
(``engine.megablock_fallback`` records why); hooks that observe
per-instruction state (``on_exec``, ``exec_override``, CTA-span
tracing) always take the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.errors import SimulationFault, TimingDeadlockError
from repro.functional.cfg import prepare_kernel
from repro.functional.state import CTAState, LaunchContext, WarpState
from repro.functional.simt import NO_RECONVERGE
from repro.ptx import ast
from repro.ptx.instructions import ALU, DISPATCH, OP_CLASS

#: Sentinel returned by step_warp when the warp is parked at a barrier.
AT_BARRIER = "barrier"

#: Interpreter tiers, fastest first.  See FunctionalEngine's fast_mode.
FAST_MODES = ("megablock", "superblock", "fastpath", "reference")

#: mask -> tuple of active lane indices (masks repeat heavily).
_LANES_CACHE: dict[int, tuple[int, ...]] = {}


def lanes_of(mask: int) -> tuple[int, ...]:
    lanes = _LANES_CACHE.get(mask)
    if lanes is None:
        lanes = tuple(lane for lane in range(32) if mask & (1 << lane))
        _LANES_CACHE[mask] = lanes
    return lanes


def guard_lanes(inst, regs, mask: int) -> tuple[int, ...]:
    """Lanes of *mask* on which the guard of *inst* holds (all of them
    without one).  Memory, barrier and exit instructions never write
    their own guard, so an ``on_exec`` observer gets the issued set back
    from ``guard_lanes(record.inst, record.warp.regs,
    record.active_mask)`` and ``ExecRecord`` carries no lanes field."""
    name = inst.pred
    if name is None:
        return lanes_of(mask)
    # Fold the guard into a bitmask so the (heavily repeated) lane
    # tuple comes out of the lanes_of cache, not a fresh list per issue.
    taken = 0
    for lane in lanes_of(mask):
        if regs[lane].get(name, 0) & 1:
            taken |= 1 << lane
    return lanes_of(mask & ~taken if inst.pred_negated else taken)


@dataclass
class ExecRecord:
    """What the timing model needs to know about one issued instruction."""

    pc: int
    inst: ast.Instruction
    active_mask: int
    active_lanes: int
    op_class: str
    mem_accesses: tuple[tuple[str, int, int, bool], ...] = ()
    warp: WarpState | None = None


@dataclass
class RunStats:
    """Aggregate counts from a functional run."""

    instructions: int = 0
    warps_launched: int = 0
    ctas_launched: int = 0
    dynamic_per_opcode: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "RunStats") -> None:
        """Fold *other* (e.g. one CTA shard's counts) into this record.

        Addition is exact and order-independent, so merging per-shard
        stats in any order reproduces the single-process totals
        bit-identically.
        """
        self.instructions += other.instructions
        self.warps_launched += other.warps_launched
        self.ctas_launched += other.ctas_launched
        for opcode, count in other.dynamic_per_opcode.items():
            self.dynamic_per_opcode[opcode] = (
                self.dynamic_per_opcode.get(opcode, 0) + count)


def partition_ctas(num_ctas: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(num_ctas)`` into at most *shards* contiguous
    ``(first, limit)`` ranges, balanced to within one CTA.

    Contiguity matters: global-memory write merging resolves overlapping
    writes in ascending shard order, which then coincides with ascending
    CTA order — the order the single-process engine runs them in.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    shards = min(shards, max(num_ctas, 1))
    base, extra = divmod(num_ctas, shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        count = base + (1 if index < extra else 0)
        if count == 0:
            continue
        ranges.append((start, start + count))
        start += count
    return ranges


class FunctionalEngine:
    """Executes one kernel launch, warp-lockstep."""

    def __init__(self, launch: LaunchContext, *,
                 on_exec: Callable[[ExecRecord], None] | None = None,
                 exec_override: Callable[
                     [ast.Instruction, WarpState, Sequence[int], int],
                     bool] | None = None,
                 reconverge_at_exit: bool = False,
                 contract_fp16: bool = False,
                 verify: bool = False,
                 fast_mode: str = "superblock",
                 sanitize=None,
                 tracer=None) -> None:
        if fast_mode not in FAST_MODES:
            raise ValueError(f"unknown fast_mode {fast_mode!r}; "
                             f"expected one of {FAST_MODES}")
        self.launch = launch
        self.kernel = launch.kernel
        if tracer is None:
            from repro.trace.tracer import NULL_TRACER
            tracer = NULL_TRACER
        #: Observability sink (repro.trace).  Instrumentation here is
        #: kernel/CTA-granular only — step_warp and the superblock loop
        #: carry no tracer checks, keeping the disabled path free.
        self.tracer = tracer
        if verify:
            # Opt-in pre-launch gate: run the static verifier + lints
            # and refuse the launch on error-severity findings (raises
            # repro.errors.VerificationError).  Off by default — it
            # costs a CFG + dataflow solve per launch.
            from repro.analysis import verify_launch
            with tracer.span(f"verify:{self.kernel.name}", cat="engine"):
                verify_launch(self.kernel, quirks=launch.quirks)
        #: Fault-injection hook: called as (inst, warp, lanes, pc) before
        #: normal dispatch; returning True means the override performed
        #: the (deliberately wrong) semantics and dispatch is skipped.
        self.exec_override = exec_override
        self.contract_fp16 = contract_fp16
        #: Why a requested megablock launch fell back (None if it held).
        self.megablock_fallback: tuple[str, ...] | None = None
        #: Chunks this engine handed to the scalar engine mid-run.
        self.megablock_bailouts = 0
        self._megaplan = None
        _quirks = launch.quirks
        if (fast_mode == "megablock" and not contract_fp16
                and not (_quirks.rem_ignores_type
                         or _quirks.bfe_unsigned_only
                         or _quirks.brev_unsupported
                         or _quirks.fp16_unsupported)):
            # Load (disk cache) or compile the vector plan first: a warm
            # cache entry carries the reconvergence map, letting the
            # prepare_kernel CFG pass below be skipped entirely.
            plan = self._load_megaplan()
            if plan.eligible:
                self._megaplan = plan
            else:
                self.megablock_fallback = tuple(plan.reasons)
                from repro.functional.megablock import EVENTS
                EVENTS["fallbacks"] += 1
                # Surface *why* the kernel left the fast tier: one
                # instant per fallback (reasons attached) plus the
                # running tier-event counter series for Chrome traces.
                tracer.instant(
                    f"megablock-fallback:{self.kernel.name}",
                    cat="engine",
                    args={"reasons": list(plan.reasons)[:8]})
                tracer.counter("megablock", dict(EVENTS))
                fast_mode = "superblock"
        if (not self.kernel.reconvergence
                and any(i.opcode == "bra" and i.pred is not None
                        for i in self.kernel.body)):
            prepare_kernel(self.kernel,
                           reconverge_at_exit=reconverge_at_exit)
        self._body = self.kernel.body
        self._body_len = len(self._body)
        quirks = launch.quirks
        if (quirks.rem_ignores_type or quirks.bfe_unsigned_only
                or quirks.brev_unsupported or quirks.fp16_unsupported):
            # Legacy semantics in play: take the reference interpreter
            # everywhere so quirky behaviour is modelled exactly.
            fast_mode = "reference"
        #: pc -> ``fn(warp, lanes)``.  The compiled renderings are
        #: shared on the kernel and filled on first issue; a reference
        #: engine keeps a private, prefilled list so the two never mix
        #: (an unimplemented opcode stays None and faults when it issues).
        if fast_mode == "reference":
            from repro.functional.superblock import reference_step
            steps = [reference_step(inst) if inst.opcode in DISPATCH
                     else None for inst in self._body]
        else:
            steps = getattr(self.kernel, "_steps", None)
            if steps is None or len(steps) != self._body_len:
                steps = self.kernel._steps = [None] * self._body_len
        self._steps = steps
        self._contract_sites = (
            self._find_fp16_contractions() if contract_fp16 else {})
        if fast_mode in ("superblock", "megablock") and contract_fp16:
            # Contraction rewrites mul+add pairs at issue time; fused
            # blocks would execute the pair unfused.  Step instead.
            fast_mode = "fastpath"
        self._superblocks = {}
        if fast_mode in ("superblock", "megablock"):
            # The megablock tier needs superblocks too: they run the
            # scalar continuation after a divergent-barrier bailout and
            # every external-driver path (iter_ctas / run_cta).
            blocks = getattr(self.kernel, "_superblock", None)
            if blocks is None:
                from repro.functional.superblock import compile_superblocks
                blocks = self.kernel._superblock = compile_superblocks(
                    self.kernel)
            self._superblocks = blocks
        self.fast_mode = fast_mode
        #: Tier the latest non-empty :meth:`run_range` executed on, and
        #: one word on why where that is not ``fast_mode``.
        self.ran_tier = fast_mode
        self.ran_why: str | None = None
        #: Stream recorder the timing model arms on its megablock
        #: pre-pass (repro.timing.stream.StreamRecorder) or None.
        self.recorder = None
        #: Armed sanitizer (repro.sanitize.core.Sanitizer) or None.
        self.sanitizer = None
        if sanitize:
            self.sanitizer = sanitize
            if sanitize.tracer is None:
                sanitize.tracer = tracer
            # A megablock plan carries its affine memory facts; reuse
            # them so arming costs no extra dataflow solve.  The proof
            # sets are launch-specific and always re-evaluated.
            facts = (self._megaplan.facts
                     if self._megaplan is not None else None)
            sanitize.begin_launch(launch, facts=facts)
        #: What :meth:`step_warp` reports every stepped instruction to,
        #: composed here and nowhere else: the caller's ``on_exec``
        #: (fault injection, an oracle's counters) first, then the armed
        #: sanitizer's hook, which thus sees post-hook state.  Whatever
        #: sent the launch down the step path — a fault hook, a
        #: megablock bailout, CTA tracing — both observe it.  ``None``
        #: when nothing watches.  (Assigning a hook afterwards replaces
        #: the whole observer; pass hooks to the constructor.)
        check = self._sanitizer_hook = sanitize.hook if sanitize else None
        if on_exec is None or check is None:
            observer = on_exec or check
        else:
            def observer(record) -> None:
                on_exec(record)
                check(record)
        self.on_exec = observer

    # ------------------------------------------------------------------
    # Megablock plan loading (disk cache -> in-process cache -> compile)
    # ------------------------------------------------------------------
    def _load_megaplan(self):
        from repro.analysis.vectorize import ANALYSIS_VERSION
        from repro.functional import kernelcache
        from repro.functional.megablock import (
            PLAN_FORMAT, compile_megaplan, plan_from_payload)
        kernel = self.kernel
        versions = (PLAN_FORMAT, ANALYSIS_VERSION)
        cached = getattr(kernel, "_megablock", None)
        if cached is not None and cached[0] == versions:
            return cached[1]
        tracer = self.tracer
        plan = None
        payload = kernelcache.load(kernel, "megablock",
                                   plan_format=PLAN_FORMAT,
                                   analysis_version=ANALYSIS_VERSION)
        if payload is not None:
            try:
                plan = plan_from_payload(payload)
            except Exception:  # malformed payload: treat as a miss
                plan = None
        if (plan is not None and plan.kernel_name == kernel.name
                and plan.body_len == len(kernel.body)):
            if not kernel.reconvergence and plan.reconvergence:
                # Warm load: reuse the cached IPDOM map; the CFG /
                # dominator pass never runs in this process.
                kernel.reconvergence = dict(plan.reconvergence)
            tracer.instant(f"kernelcache:hit:{kernel.name}",
                           cat="kernelcache")
        else:
            tracer.instant(f"kernelcache:miss:{kernel.name}",
                           cat="kernelcache")
            with tracer.span(f"megablock-compile:{kernel.name}",
                             cat="engine"):
                plan = compile_megaplan(kernel)
            kernelcache.store(kernel, "megablock", plan.to_payload(),
                              plan_format=PLAN_FORMAT,
                              analysis_version=ANALYSIS_VERSION)
        tracer.counter("kernelcache", kernelcache.counters())
        kernel._megablock = (versions, plan)
        return plan

    # ------------------------------------------------------------------
    # Single-instruction stepping (used by both modes)
    # ------------------------------------------------------------------
    def step_warp(self, warp: WarpState) -> ExecRecord | str | None:
        """Execute the next instruction of *warp*.

        Returns an :class:`ExecRecord`, ``AT_BARRIER`` if the warp parked
        at a barrier, or ``None`` if the warp has finished.
        """
        if warp.finished:
            return None
        if warp.at_barrier:
            return AT_BARRIER
        pc = warp.simt.pc
        if pc >= self._body_len:
            # Fell off the end of the kernel: implicit exit.
            warp.simt.retire_lanes(warp.simt.active_mask)
            return None
        inst = self._body[pc]
        mask = warp.simt.active_mask
        lanes = (lanes_of(mask) if inst.pred is None
                 else guard_lanes(inst, warp.regs, mask))
        opcode = inst.opcode
        self.launch.clock += 1
        warp.instructions_executed += 1
        record = ExecRecord(
            pc=pc, inst=inst, active_mask=mask, active_lanes=len(lanes),
            op_class=OP_CLASS.get(opcode, ALU), warp=warp)

        if pc in self._contract_sites and lanes:
            # NVIDIA's assembler turns this FP16 mul + add/sub pair into
            # a fused SASS FMA with full intermediate precision — the
            # mismatch the paper traced and left as future work.
            self._exec_contracted(warp, pc, lanes)
            warp.instructions_executed += 1  # the absorbed add/sub
            warp.simt.advance(pc + 2)
            if self.on_exec is not None:
                self.on_exec(record)
            return record
        if opcode == "bra":
            self._exec_branch(warp, inst, pc, lanes)
        elif opcode in ("exit", "ret"):
            self._exec_exit(warp, pc, lanes)
        elif opcode == "bar":
            warp.at_barrier = True
        else:
            if lanes:
                warp.mem_trace.clear()
                if (self.exec_override is not None
                        and self.exec_override(inst, warp, lanes, pc)):
                    pass  # an injected fault supplied the semantics
                else:
                    fast = self._steps[pc] or self._compile_step(pc)
                    fast(warp, lanes)
                if warp.mem_trace:
                    record.mem_accesses = tuple(warp.mem_trace)
            warp.simt.advance(pc + 1)
        if self.on_exec is not None:
            self.on_exec(record)
        return record

    def _compile_step(self, pc: int):
        """Fill slot *pc* of the step list on its first issue.

        GPU-worker threads sharing a kernel may both compile a pc; the
        renderings are interchangeable and item assignment is atomic.
        """
        from repro.functional.superblock import compile_step
        step = self._steps[pc] = compile_step(self.kernel, pc)
        return step

    def _exec_branch(self, warp: WarpState, inst: ast.Instruction,
                     pc: int, lanes: Sequence[int]) -> None:
        target = None
        for operand in inst.operands:
            if operand.kind == ast.LABEL:
                target = self.kernel.labels[operand.name]
                break
        if target is None:
            raise SimulationFault(f"bra without target: {inst.text}")
        active_mask = warp.simt.active_mask
        taken_mask = 0
        for lane in lanes:
            taken_mask |= 1 << lane
        not_taken_mask = active_mask & ~taken_mask
        if not_taken_mask == 0:
            warp.simt.advance(target)
        elif taken_mask == 0:
            warp.simt.advance(pc + 1)
        else:
            rpc = self.kernel.reconvergence.get(pc, NO_RECONVERGE)
            warp.simt.diverge(rpc, target, taken_mask, pc + 1,
                              not_taken_mask)

    def _find_fp16_contractions(self) -> dict[int, tuple]:
        """pcs where an f16 mul is immediately consumed by an f16
        add/sub of its destination (the assembler's fusion pattern)."""
        sites: dict[int, tuple] = {}
        body = self._body
        for index in range(len(body) - 1):
            mul, nxt = body[index], body[index + 1]
            if (mul.opcode != "mul" or mul.dtype.name != "f16"
                    or mul.has_mod("wide") or mul.has_mod("hi")):
                continue
            if nxt.opcode not in ("add", "sub") or nxt.dtype.name != "f16":
                continue
            if mul.pred is not None or nxt.pred is not None:
                continue
            dst = mul.operands[0]
            if dst.kind != ast.REG:
                continue
            uses = [op for op in nxt.operands[1:]
                    if op.kind == ast.REG and op.name == dst.name]
            if not uses:
                continue
            sites[index] = (mul, nxt)
        return sites

    def _exec_contracted(self, warp: WarpState, pc: int,
                         lanes) -> None:
        from repro.ptx.dtypes import F16
        from repro.ptx.instructions.common import write_union
        from repro.ptx.values import write_typed
        mul, nxt = self._contract_sites[pc]
        a_op, b_op = mul.operands[1], mul.operands[2]
        for lane in lanes:
            a = warp.operand_value(a_op, F16, lane)
            b = warp.operand_value(b_op, F16, lane)
            product_full = a * b  # NOT rounded to f16: the fused extra
            # Architecturally the mul destination still gets the rounded
            # product (only the consumer sees the fused value).
            write_union(warp, mul.operands[0].name,
                        write_typed(product_full, F16), 16, lane)
            sources = []
            for op in nxt.operands[1:]:
                if op.kind == ast.REG and op.name == mul.operands[0].name:
                    sources.append(product_full)
                else:
                    sources.append(warp.operand_value(op, F16, lane))
            if nxt.opcode == "add":
                result = sources[0] + sources[1]
            else:
                result = sources[0] - sources[1]
            write_union(warp, nxt.operands[0].name,
                        write_typed(result, F16), 16, lane)

    def _exec_exit(self, warp: WarpState, pc: int,
                   lanes: Sequence[int]) -> None:
        exit_mask = 0
        for lane in lanes:
            exit_mask |= 1 << lane
        warp.simt.retire_lanes(exit_mask)
        if not warp.simt.empty and warp.simt.pc == pc:
            warp.simt.advance(pc + 1)

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def try_release_barrier(self, cta: CTAState) -> bool:
        """Release the CTA barrier if every live warp has arrived."""
        live = [warp for warp in cta.warps if not warp.finished]
        if not live or not all(warp.at_barrier for warp in live):
            return False
        for warp in live:
            warp.at_barrier = False
            warp.simt.advance(warp.simt.pc + 1)
        return True

    # ------------------------------------------------------------------
    # Functional-mode whole-grid execution
    # ------------------------------------------------------------------
    def iter_ctas(self) -> Iterator[CTAState]:
        for cta_linear in range(self.launch.num_ctas):
            yield CTAState(self.launch, cta_linear)

    def run_cta(self, cta: CTAState, stats: RunStats | None = None,
                max_warp_instructions: int | None = None) -> None:
        """Run one CTA to completion (or to an instruction budget)."""
        while not cta.finished:
            progressed = False
            for warp in cta.warps:
                if warp.finished or warp.at_barrier:
                    continue
                if (max_warp_instructions is not None
                        and warp.instructions_executed
                        >= max_warp_instructions):
                    continue
                budget = (max_warp_instructions
                          - warp.instructions_executed
                          if max_warp_instructions is not None else None)
                progressed |= self._run_warp_slice(warp, stats, budget)
            if self.try_release_barrier(cta):
                progressed = True
            if not progressed:
                if max_warp_instructions is not None:
                    return  # budget exhausted mid-CTA (checkpoint slice)
                raise TimingDeadlockError(
                    f"CTA {cta.cta_linear} deadlocked: live warps stuck "
                    "at a barrier that can never be released")

    def _user_hooked(self) -> bool:
        """Whether the *caller* watches per-instruction state.  Only
        that keeps a launch off the vector tier — megablock checks the
        sanitizer's rules in-tier — while any observer at all makes the
        scalar path step (:meth:`_fuses`)."""
        return (self.exec_override is not None
                or self.on_exec not in (None, self._sanitizer_hook))

    def _fuses(self, budget: int | None) -> bool:
        """Whether scalar execution issues whole fused blocks: functional
        mode with nothing observing per-instruction state.  Budgeted runs
        (partial checkpoint CTAs) and instrumented runs must step."""
        return (budget is None and bool(self._superblocks)
                and self.on_exec is None and self.exec_override is None)

    def _run_warp_slice(self, warp: WarpState, stats: RunStats | None,
                        budget: int | None) -> bool:
        """Run a warp until it finishes, parks, or exhausts *budget*."""
        if self._fuses(budget):
            return self._run_warp_slice_fast(warp, stats)
        executed = 0
        while not warp.finished and not warp.at_barrier:
            if budget is not None and executed >= budget:
                break
            result = self.step_warp(warp)
            if result is None or result == AT_BARRIER:
                break
            executed += 1
            if stats is not None:
                stats.instructions += 1
                opcode = result.inst.opcode
                stats.dynamic_per_opcode[opcode] = (
                    stats.dynamic_per_opcode.get(opcode, 0) + 1)
        return executed > 0

    def _run_warp_slice_fast(self, warp: WarpState,
                             stats: RunStats | None) -> bool:
        """Superblock issue loop for functional mode.

        Whole fused blocks execute in one call — no ``ExecRecord``, no
        per-instruction dispatch; aggregate stats come from each block's
        static metadata.  Any pc without a block (predicated code,
        control flow, a mid-block pc restored from a checkpoint) falls
        back to :meth:`step_warp` until the next block entry.
        """
        blocks = self._superblocks
        simt = warp.simt
        launch = self.launch
        per_opcode = stats.dynamic_per_opcode if stats is not None else None
        executed = 0
        while not simt.empty and not warp.at_barrier:
            block = blocks.get(simt.pc)
            if block is None:
                result = self.step_warp(warp)
                if result is None or result == AT_BARRIER:
                    break
                executed += 1
                if per_opcode is not None:
                    opcode = result.inst.opcode
                    per_opcode[opcode] = per_opcode.get(opcode, 0) + 1
                continue
            block.execute(warp, lanes_of(simt.active_mask))
            count = block.count
            executed += count
            warp.instructions_executed += count
            launch.clock += count
            simt.advance(block.end)
            if per_opcode is not None:
                for opcode, times in block.opcode_counts.items():
                    per_opcode[opcode] = per_opcode.get(opcode, 0) + times
        if stats is not None:
            stats.instructions += executed
        return executed > 0

    def run(self, **per_cta) -> RunStats:
        """Execute the launch's CTA extent (the whole grid unless the
        launch was narrowed) in functional simulation mode."""
        launch = self.launch
        return self.run_range(launch.first_cta, launch.limit_cta,
                              **per_cta)

    def run_range(self, first_cta: int, limit_cta: int,
                  stats: RunStats | None = None, *,
                  max_warp_instructions: int | None = None,
                  on_cta: Callable[[CTAState], None] | None = None
                  ) -> RunStats:
        """Execute CTAs ``first_cta .. limit_cta-1`` (a shard of the
        grid) in functional simulation mode.

        CTAs are independent in functional mode, so a launch partitioned
        with :func:`partition_ctas` and executed range-by-range — in any
        process — produces the same architectural state as :meth:`run`,
        provided CTA write sets do not overlap (and in ascending-range
        order even when they do).

        This is the only loop that creates, drives and releases CTAs for
        a functional launch.  A CTA in ``launch.restored`` (checkpoint
        Data1) runs on from its saved state; *max_warp_instructions*
        stops every warp at that many issued instructions (a
        checkpoint's partial CTAs); *on_cta* sees each CTA after it ran,
        before it is released (register capture).  Each needs per-lane
        CTA state, so such a launch runs scalar whatever the tier; so do
        hooked launches (they step) and CTA-span tracing.  What actually
        ran is left in ``ran_tier`` / ``ran_why`` for the launch's slice.
        """
        stats = RunStats() if stats is None else stats
        if not 0 <= first_cta <= limit_cta <= self.launch.num_ctas:
            raise ValueError(
                f"CTA range [{first_cta}, {limit_cta}) outside grid of "
                f"{self.launch.num_ctas} CTAs")
        if first_cta == limit_cta:
            # Nothing to run (a checkpoint at the grid's edge): no span,
            # and ``ran_tier`` keeps describing the range that did run.
            return stats
        tracer = self.tracer
        trace_ctas = tracer.enabled and tracer.cta_spans
        scalar_why = (
            "restored" if self.launch.restored
            else "budget" if max_warp_instructions is not None
            else "on_cta" if on_cta is not None
            else "hooks" if self._user_hooked()
            else "cta_spans" if trace_ctas else None)
        if scalar_why is None and self._megaplan is not None:
            from repro.functional.megablock import EVENTS, MegaMachine
            self.ran_tier, self.ran_why = "megablock", None
            with tracer.span(f"megablock:{self.kernel.name}",
                             cat="engine"):
                machine = MegaMachine(self, self._megaplan)
                machine.run(stats, first_cta=first_cta,
                            num_ctas=limit_cta - first_cta)
            self.megablock_bailouts += machine.bailouts
            if tracer.enabled:
                tracer.counter("megablock", dict(EVENTS))
            return stats
        self.ran_tier = (
            "reference" if self.fast_mode == "reference"
            else "superblock" if self._fuses(max_warp_instructions)
            else "fastpath")
        # An armed sanitizer alone also steps a superblock launch; its
        # hook is a hook.
        self.ran_why = ((scalar_why or "hooks")
                        if self.ran_tier != self.fast_mode else None)
        self._run_range_scalar(first_cta, limit_cta, stats, trace_ctas,
                               max_warp_instructions, on_cta)
        return stats

    def _run_range_scalar(self, first_cta: int, limit_cta: int,
                          stats: RunStats, trace_ctas: bool,
                          budget: int | None, on_cta) -> None:
        tracer = self.tracer
        restored = self.launch.restored
        for cta_linear in range(first_cta, limit_cta):
            cta = (restored.get(cta_linear)
                   or CTAState(self.launch, cta_linear))
            stats.ctas_launched += 1
            stats.warps_launched += len(cta.warps)
            if trace_ctas:
                # CTA spans ride the kernel's intra-launch clock: the
                # runtime advances sim time only after the whole kernel,
                # so launch.clock (instructions issued so far) gives the
                # CTAs distinct, monotonic stamps inside the slice.
                base = tracer.clock.now
                tracer.begin(f"cta {cta.cta_linear}", cat="cta",
                             ts=base + self.launch.clock)
            self.run_cta(cta, stats, budget)
            if trace_ctas:
                tracer.end(ts=base + self.launch.clock)
            if on_cta is not None:
                on_cta(cta)
            cta.release()
