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
:mod:`repro.functional.kernelcache`).  ``fast_mode`` is a request;
:func:`admit` decides which tier runs (a kernel the megablock codegen
cannot vectorize runs as superblocks, hooks that observe
per-instruction state always step) and ``engine.admission`` says why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.errors import SimulationFault, TimingDeadlockError
from repro.functional.cfg import branch_target, reconvergence
from repro.functional.state import CTAState, LaunchContext, WarpState
from repro.functional.simt import NO_RECONVERGE
from repro.ptx import ast
from repro.ptx.ast import kernel_fact
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


@kernel_fact
def _step_slots(kernel: ast.Kernel) -> list:
    """The compiled tiers' step list, one slot per pc, shared by every
    engine of *kernel* and filled on first issue (``_compile_step``)."""
    return [None] * len(kernel.body)


@kernel_fact
def _megaplan(kernel: ast.Kernel, tracer):
    """*kernel*'s vector plan: loaded from the disk cache, else compiled
    and stored.  *tracer* sees the hit or the miss and the compile."""
    from repro.analysis.vectorize import ANALYSIS_VERSION
    from repro.functional import kernelcache
    from repro.functional.megablock import (
        PLAN_FORMAT, compile_megaplan, plan_from_payload)
    plan = None
    payload = kernelcache.load(kernel, "megablock",
                               plan_format=PLAN_FORMAT,
                               analysis_version=ANALYSIS_VERSION)
    if payload is not None:
        try:
            plan = plan_from_payload(payload)
        except Exception:  # malformed payload: treat as a miss
            pass
    if (plan is not None and plan.kernel_name == kernel.name
            and plan.body_len == len(kernel.body)):
        tracer.instant(f"kernelcache:hit:{kernel.name}", cat="kernelcache")
    else:
        tracer.instant(f"kernelcache:miss:{kernel.name}", cat="kernelcache")
        with tracer.span(f"megablock-compile:{kernel.name}", cat="engine"):
            plan = compile_megaplan(kernel)
        kernelcache.store(kernel, "megablock", plan.to_payload(),
                          plan_format=PLAN_FORMAT,
                          analysis_version=ANALYSIS_VERSION)
    tracer.counter("kernelcache", kernelcache.counters())
    return plan


class Admission(NamedTuple):
    """Which tier runs a launch, and why (:func:`admit`)."""

    tier: str
    why: str | None
    live_why: str | None

    @property
    def recordable(self) -> bool:
        """A megablock pre-pass is the stream the timing model steps."""
        return self.tier == "megablock" and self.live_why is None


def admit(request: str, plan: Callable[[], object], *,
          quirky: bool = False, restored: bool = False,
          contract_fp16: bool = False, reconverge_at_exit: bool = False,
          hooked: bool = False, sanitize: bool = False,
          budget: bool = False, on_cta: bool = False,
          cta_spans: bool = False) -> Admission:
    """Which tier runs a launch that asked for *request*, and why
    (``None`` exactly when the request holds); ``live_why`` says why a
    megablock pre-pass could not stand in for its stepped stream.
    *plan* returns the kernel's vector plan; only a megablock request
    nothing else ruled out calls it.  The rules are tabulated in
    ``tests/test_admission.py``."""
    scalar = ("restored" if restored else "budget" if budget
              else "on_cta" if on_cta else "hooks" if hooked
              else "cta_spans" if cta_spans else None)
    tier, why, live_why = request, None, None
    if quirky and request != "reference":
        tier, why = "reference", "quirks"
    elif contract_fp16 and request in ("superblock", "megablock"):
        # Fused blocks would execute a contracted mul+add pair unfused.
        tier, why = "fastpath", "contract_fp16"
    elif request == "megablock":
        # The vector plan encodes IPDOM and starts every CTA at entry.
        vector = None if reconverge_at_exit or restored else plan()
        if vector is None:
            why = "reconverge_at_exit" if reconverge_at_exit else "restored"
        elif not vector.eligible:
            why = live_why = f"no vector plan ({vector.reasons[0]})"
        else:
            why = scalar
            # There the pre-pass could bail out to the scalar engine.
            live_why = next((f"pc {pc}: barrier reachable under divergence"
                             for pc, ctrl in vector.controls.items()
                             if ctrl["op"] == "bar" and ctrl["div"]), None)
        if why is not None:
            tier = "superblock"
    if tier == "superblock" and (budget or hooked or sanitize):
        tier, why = "fastpath", scalar or "sanitize"
    return Admission(tier, why, (
        "restored CTAs resume mid-kernel" if restored
        else "reconverge_at_exit changes the SIMT stacks"
        if reconverge_at_exit
        else "legacy quirks run on the reference tier" if quirky
        else live_why))


class FunctionalEngine:
    """Executes one kernel launch, warp-lockstep."""

    def __init__(self, launch: LaunchContext, *,
                 on_exec: Callable[[ExecRecord], None] | None = None,
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
        self.contract_fp16 = contract_fp16
        #: The reconvergence ablation (DESIGN.md §5.2): every divergent
        #: branch rejoins only at exit.  A setting of this engine alone;
        #: the vector plan encodes IPDOM, so it never runs under it.
        self.reconverge_at_exit = reconverge_at_exit
        #: The tier asked for; ``admission`` says which one runs.
        self.fast_mode = fast_mode
        #: Chunks this engine handed to the scalar engine mid-run.
        self.megablock_bailouts = 0
        self._megaplan = None
        #: Stream recorder the timing model arms on its megablock
        #: pre-pass (repro.timing.stream.StreamRecorder) or None.
        self.recorder = None
        #: Armed sanitizer (repro.sanitize.core.Sanitizer) or None.
        self.sanitizer = sanitize or None
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
        #: entry pc -> fused block, compiled at the scalar path's first
        #: fused issue, so a launch that stays vector never pays for it.
        self._superblocks: dict | None = None
        admission = self._admit()
        self._body = self.kernel.body
        self._body_len = len(self._body)
        #: pc -> ``fn(warp, lanes)``.  The compiled renderings are
        #: shared on the kernel and filled on first issue; a reference
        #: engine keeps a private, prefilled list so the two never mix
        #: (an unimplemented opcode stays None and faults when it issues).
        if admission.tier == "reference":
            from repro.functional.superblock import reference_step
            self._steps = [reference_step(inst) if inst.opcode in DISPATCH
                           else None for inst in self._body]
        else:
            self._steps = _step_slots(self.kernel)
        self._contract_sites = (
            self._find_fp16_contractions() if contract_fp16 else {})
        if sanitize:
            if sanitize.tracer is None:
                sanitize.tracer = tracer
            sanitize.begin_launch(launch)

    def _admit(self, budget: int | None = None, on_cta=None,
               cta_spans: bool = False) -> Admission:
        """Admit the launch (or a :meth:`run_range` request) under the
        hooks as they are now; cache whether the scalar path may fuse
        (a megablock bailout's continuation, an external run_cta)."""
        check = self._sanitizer_hook
        admission = self.admission = admit(
            self.fast_mode, self._plan,
            quirky=self.launch.quirks.alters_instructions,
            restored=bool(self.launch.restored),
            contract_fp16=self.contract_fp16,
            reconverge_at_exit=self.reconverge_at_exit,
            hooked=self.on_exec not in (None, check),
            sanitize=check is not None, budget=budget is not None,
            on_cta=on_cta is not None, cta_spans=cta_spans)
        self._fuses = admission.tier in ("superblock", "megablock")
        return admission

    def _plan(self):
        """The kernel's vector plan, once an admission asks; an
        ineligible one is this launch's fallback, traced with why."""
        if self._megaplan is None:
            plan = self._megaplan = _megaplan(self.kernel, self.tracer)
            if not plan.eligible:
                from repro.functional.megablock import EVENTS
                EVENTS["fallbacks"] += 1
                self.tracer.instant(
                    f"megablock-fallback:{self.kernel.name}",
                    cat="engine", args={"reasons": plan.reasons[:8]})
                self.tracer.counter("megablock", dict(EVENTS))
        return self._megaplan

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
        target = branch_target(self.kernel, inst)
        if target is None:
            raise SimulationFault(f"bra without target: {inst.text}")
        taken_mask = 0
        for lane in lanes:
            taken_mask |= 1 << lane
        self._branch(warp, pc, target, taken_mask)

    def _branch(self, warp: WarpState, pc: int, target: int,
                taken_mask: int) -> None:
        """Move *warp* past the ``bra`` at *pc*, taken by the active
        lanes in *taken_mask*: to *target* or the fall-through when they
        agree, else split at the reconvergence point."""
        not_taken_mask = warp.simt.active_mask & ~taken_mask
        if not_taken_mask == 0:
            warp.simt.advance(target)
        elif taken_mask == 0:
            warp.simt.advance(pc + 1)
        else:
            rpc = (NO_RECONVERGE if self.reconverge_at_exit
                   else reconvergence(self.kernel).get(pc, NO_RECONVERGE))
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

    def _run_warp_slice(self, warp: WarpState, stats: RunStats | None,
                        budget: int | None) -> bool:
        """Run a warp until it finishes, parks, or exhausts *budget*.
        Fused blocks report nothing, so any observer (a hook assigned
        after admission too) makes the warp step."""
        if budget is None and self._fuses and self.on_exec is None:
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
        static metadata; guarded instructions fuse like any other.  A
        block closed by a ``bra`` returns its taken lanes and the warp
        moves on through :meth:`_branch`, as a stepped ``bra`` does.
        Any pc without a block (a barrier or exit, a ``%clock`` read, a
        mid-block pc restored from a checkpoint) falls back to
        :meth:`step_warp` until the next block entry.
        """
        blocks = self._superblocks
        if blocks is None:
            from repro.functional.superblock import compile_superblocks
            blocks = self._superblocks = compile_superblocks(self.kernel)
        simt = warp.simt
        launch = self.launch
        per_opcode = stats.dynamic_per_opcode if stats is not None else None
        executed, runs = 0, {}
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
            mask = simt.active_mask
            taken = block.execute(warp, lanes_of(mask))
            count = block.count
            executed += count
            warp.instructions_executed += count
            launch.clock += count
            if block.target is None:
                simt.advance(block.end)
            else:
                self._branch(warp, block.end - 1, block.target,
                             mask if taken is None else taken)
            runs[block] = runs.get(block, 0) + 1
        if stats is not None:
            stats.instructions += executed
            for block, times in runs.items():
                for opcode, count in block.opcode_counts.items():
                    per_opcode[opcode] = (per_opcode.get(opcode, 0)
                                          + count * times)
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
        before it is released (register capture).  Each range is
        admitted (:func:`admit`) and ``admission`` says what ran.
        """
        stats = RunStats() if stats is None else stats
        if not 0 <= first_cta <= limit_cta <= self.launch.num_ctas:
            raise ValueError(
                f"CTA range [{first_cta}, {limit_cta}) outside grid of "
                f"{self.launch.num_ctas} CTAs")
        if first_cta == limit_cta:
            # Nothing to run (a checkpoint at the grid's edge): no span,
            # and ``admission`` keeps describing the range that did run.
            return stats
        tracer = self.tracer
        trace_ctas = tracer.enabled and tracer.cta_spans
        if self._admit(max_warp_instructions, on_cta,
                       trace_ctas).tier == "megablock":
            from repro.functional.megablock import EVENTS, MegaMachine
            with tracer.span(f"megablock:{self.kernel.name}",
                             cat="engine"):
                machine = MegaMachine(self, self._megaplan)
                machine.run(stats, first_cta=first_cta,
                            num_ctas=limit_cta - first_cta)
            self.megablock_bailouts += machine.bailouts
            if tracer.enabled:
                tracer.counter("megablock", dict(EVENTS))
            return stats
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
