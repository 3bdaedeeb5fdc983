"""Injection-site adapters: where a :class:`FaultSpec` plugs into the
simulator.

Each adapter knows how to wire one kind of seeded bug into a
:class:`~repro.cuda.runtime.CudaRuntime`:

* ``instruction_semantics`` — the semantics of one static instruction
  are wrong: it executes, then the destination of every lane its guard
  selects is XOR-ed with a mask (a deterministic "wrong opcode
  implementation", the class of bug quirks.py models for real).
* ``register_bitflip`` — one of those lanes' destination register takes
  a single-bit flip after the instruction executes (a transient datapath
  fault).
* ``mem_drop_response`` — the interconnect loses a read request, so its
  response never arrives and the blocked warp never wakes (the paper's
  "timing-model deadlock" bug class, Section III-D.2).
* ``stream_event_lost`` — a ``cudaEventRecord`` executes but its
  completion signal is lost, wedging any stream that waits on it.

Static pcs in a spec always refer to the *original* kernel body.  When
the same kernel is re-loaded in reprinted form (the debug tool's
instrumented replay), pcs shift — so the adapter re-resolves the target
by *instruction signature and occurrence rank*, which survives
reprinting because instrumentation instructions only ever touch
``%__dbg*`` registers and therefore never collide with original
signatures.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Callable

from repro.cuda.runtime import FunctionalBackend
from repro.debugtool.instrument import _dest_width
from repro.errors import FaultInjectionError
from repro.functional.executor import guard_lanes
from repro.ptx import ast

from repro.faultinject.spec import FaultSpec

#: site name -> adapter class (populated by @register_site).
SITE_REGISTRY: dict[str, type["SiteAdapter"]] = {}


def register_site(name: str):
    def decorate(cls: type["SiteAdapter"]) -> type["SiteAdapter"]:
        SITE_REGISTRY[name] = cls
        cls.site = name
        return cls
    return decorate


# ---------------------------------------------------------------------------
# Signature-based instruction matching
# ---------------------------------------------------------------------------
def _operand_key(op: ast.Operand) -> tuple:
    return (op.kind, op.name, op.payload, op.imm_float, op.offset,
            tuple(_operand_key(e) for e in op.elems), op.is_reg_base)


def instruction_signature(inst: ast.Instruction) -> tuple:
    """Position-independent identity of an instruction."""
    return (inst.opcode, inst.modifiers,
            tuple(str(d) for d in inst.dtypes),
            inst.pred, inst.pred_negated, inst.space, inst.cmp,
            tuple(_operand_key(op) for op in inst.operands))


def match_site(original: list[ast.Instruction],
               body: list[ast.Instruction], pc: int) -> int:
    """pc of ``original[pc]``'s counterpart in *body* (rank-matched)."""
    if not 0 <= pc < len(original):
        raise FaultInjectionError(
            f"pc {pc} out of range for a {len(original)}-instruction "
            "kernel body")
    signature = instruction_signature(original[pc])
    rank = sum(1 for inst in original[:pc]
               if instruction_signature(inst) == signature)
    seen = 0
    for index, inst in enumerate(body):
        if instruction_signature(inst) == signature:
            if seen == rank:
                return index
            seen += 1
    raise FaultInjectionError(
        f"instruction at pc {pc} has no signature match in the "
        "target kernel body")


# ---------------------------------------------------------------------------
# Trigger closures
# ---------------------------------------------------------------------------
def _trigger(spec: FaultSpec) -> Callable[[], bool]:
    """Fresh per-launch should-fire() predicate (deterministic)."""
    rng = (random.Random(spec.seed)
           if spec.probability is not None else None)
    hits = itertools.count()

    def should_fire() -> bool:
        hit = next(hits)
        if spec.dyn_index is not None and hit != spec.dyn_index:
            return False
        if rng is not None and rng.random() >= spec.probability:
            return False
        return True
    return should_fire


def _liveness_trigger(spec: FaultSpec) -> Callable[[], bool]:
    """Like :func:`_trigger` but single-shot (first hit) by default —
    losing exactly one completion signal is the subtle liveness bug."""
    if spec.dyn_index is None and spec.probability is None:
        spec = FaultSpec(**{**spec.to_dict(), "dyn_index": 0})
    return _trigger(spec)


# ---------------------------------------------------------------------------
# Adapters
# ---------------------------------------------------------------------------
class SiteAdapter:
    site = "?"

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        #: Observer called with a small info dict every time the fault
        #: actually fires (FaultInjector wires this to the tracer).
        self.on_fire: Callable[[dict], None] | None = None

    def _fire(self, **info) -> None:
        if self.on_fire is not None:
            self.on_fire({"site": self.site,
                          "fault_id": self.spec.fault_id, **info})

    def attach(self, runtime) -> None:
        raise NotImplementedError


class _InstructionSite(SiteAdapter):
    """Shared machinery for sites targeting one static instruction."""

    def attach(self, runtime) -> None:
        # Keep an armed sanitizer across the backend swap: fault
        # campaigns may run with shadow-state checking on, and the
        # engine chains the two on_exec hooks (fault fires first, so
        # the sanitizer observes the corrupted state).
        runtime.backend = FaultingFunctionalBackend(
            runtime, self,
            sanitize=getattr(runtime.backend, "sanitize", None))

    def _target(self, kernel: ast.Kernel, target_pc: int
                ) -> tuple[str, int]:
        """(dest register name, XOR mask clamped to its width)."""
        inst = kernel.body[target_pc]
        width = _dest_width(kernel, inst)
        if width is None:
            raise FaultInjectionError(
                f"pc {self.spec.pc} of kernel {kernel.name!r} has no "
                f"general-register destination ({inst.opcode})")
        if self.spec.xor_mask is not None:
            mask = self.spec.xor_mask & ((1 << width) - 1)
        else:
            mask = 1 << (self.spec.bit % width)
        if mask == 0:
            raise FaultInjectionError(
                f"fault {self.spec.fault_id!r}: XOR mask is zero after "
                f"clamping to the {width}-bit destination")
        return inst.operands[0].name, mask

    def observer(self, kernel: ast.Kernel, target_pc: int):
        """The launch's ``on_exec``: once the target instruction has
        executed, XOR its destination on the lanes :meth:`_hit` picks
        of those its guard selected (only they may be corrupted, else
        the identically guarded replay cannot see the fault).  The
        destination is a general register, never the guard, so the
        guard selects the same lanes after the step as before it."""
        dst, mask = self._target(kernel, target_pc)
        should_fire = _trigger(self.spec)

        def on_exec(record) -> None:
            if record.pc != target_pc:
                return
            regs = record.warp.regs
            lanes = guard_lanes(record.inst, regs, record.active_mask)
            if not lanes or not should_fire():
                return
            hit, info = self._hit(lanes)
            for lane in hit:
                regs[lane][dst] = regs[lane].get(dst, 0) ^ mask
            self._fire(pc=target_pc, **info)
        return on_exec

    def _hit(self, lanes: list[int]) -> tuple[list[int], dict]:
        """(lanes to corrupt, what the firing reports of them)."""
        raise NotImplementedError


@register_site("instruction_semantics")
class InstructionSemanticsSite(_InstructionSite):
    """Wrong semantics: correct result XOR mask, every lane the guard
    selects, every firing execution."""

    def _hit(self, lanes: list[int]) -> tuple[list[int], dict]:
        return lanes, {"lanes": len(lanes)}


@register_site("register_bitflip")
class RegisterBitflipSite(_InstructionSite):
    """Transient flip of one bit in one executing lane's destination."""

    def _hit(self, lanes: list[int]) -> tuple[list[int], dict]:
        lane = lanes[self.spec.lane % len(lanes)]
        return [lane], {"lane": lane}


@register_site("mem_drop_response")
class MemDropResponseSite(SiteAdapter):
    """The interconnect loses one read request (performance mode)."""

    def attach(self, runtime) -> None:
        gpu = getattr(runtime.backend, "gpu", None)
        if gpu is None or not hasattr(gpu, "mem_fault_filter"):
            raise FaultInjectionError(
                "mem_drop_response requires a timing backend "
                f"(got {getattr(runtime.backend, 'name', '?')!r})")
        should_fire = _liveness_trigger(self.spec)

        def fault_filter(req) -> bool:
            # Writes are fire-and-forget in the timing model; only a
            # lost *read* response can wedge a warp.
            dropped = not req.is_write and should_fire()
            if dropped:
                self._fire(line_addr=req.line_addr)
            return dropped
        gpu.mem_fault_filter = fault_filter


@register_site("stream_event_lost")
class StreamEventLostSite(SiteAdapter):
    """A record op executes but its completion signal is lost."""

    def attach(self, runtime) -> None:
        should_fire = _liveness_trigger(self.spec)

        def on_record(event) -> bool:
            lost = should_fire()
            if lost:
                self._fire(event=event.event_id)
            return lost

        for stream in runtime.streams:
            stream.on_record = on_record
        original_create = runtime.stream_create

        def stream_create():
            stream = original_create()
            stream.on_record = on_record
            return stream
        runtime.stream_create = stream_create


# ---------------------------------------------------------------------------
# Faulting functional backend
# ---------------------------------------------------------------------------
class FaultingFunctionalBackend(FunctionalBackend):
    """Functional backend that arms an instruction site's observer per
    launch.

    Only launches matching the spec's kernel/ordinal trigger pay for
    per-instruction stepping; everything else keeps the superblock tier,
    so a fault campaign stays fast even on multi-kernel workloads.
    """

    def __init__(self, runtime, adapter: _InstructionSite, *,
                 fast_mode: str = "superblock", sanitize=None) -> None:
        #: *sanitize*: inherited from the backend this one replaced.
        super().__init__(fast_mode=fast_mode, sanitize=sanitize)
        self.runtime = runtime
        self.adapter = adapter
        self._launches_seen: dict[str, int] = defaultdict(int)

    def _resolve_pc(self, kernel: ast.Kernel) -> int:
        spec = self.adapter.spec
        original = self.runtime.program.find_kernel(spec.kernel)
        if kernel is original:
            if not 0 <= spec.pc < len(kernel.body):
                raise FaultInjectionError(
                    f"pc {spec.pc} out of range for kernel "
                    f"{kernel.name!r} ({len(kernel.body)} instructions)")
            return spec.pc
        return match_site(original.body, kernel.body, spec.pc)

    def observer(self, launch):
        """The adapter's observer on the launch the spec targets (its
        ``kernel_ordinal`` counts launches of that kernel name)."""
        spec = self.adapter.spec
        kernel = launch.kernel
        if spec.kernel is None or kernel.name == spec.kernel:
            ordinal = self._launches_seen[kernel.name]
            self._launches_seen[kernel.name] += 1
            if (spec.kernel_ordinal is None
                    or ordinal == spec.kernel_ordinal):
                return self.adapter.observer(
                    kernel, self._resolve_pc(kernel))
        return None
