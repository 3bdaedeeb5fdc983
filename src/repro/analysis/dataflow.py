"""Generic dataflow analysis over a kernel's basic-block CFG.

The engine reuses :func:`repro.functional.cfg.build_cfg` (the same graph
the SIMT reconvergence machinery is built on) and runs a classic
worklist fixpoint at basic-block granularity, then expands the solution
to per-instruction ``in``/``out`` fact sets.  Facts are frozensets; the
meet is union, so every problem expressed here is a may-analysis.

Concrete problems shipped on top of the engine, each solved once per
kernel (:func:`repro.ptx.ast.kernel_fact`) and shared read-only:

* :func:`reaching_definitions` — with a synthetic :data:`UNINIT` def for
  every register at kernel entry, so uninitialised reads are visible.
* :func:`register_widths` — how many payload bits each register of a
  kernel can ever hold (its declaration and every def of it).
* :func:`liveness` — backward, feeding the compiled tiers' writeback
  pruning.  The register file stores 64-bit payload unions, so a narrow
  write composes with the old upper bits and *reads* its destination —
  unless the width map proves there are no upper bits to keep.
* :func:`def_use_chains` — both directions (def→uses, use→defs),
  derived from reaching definitions.
* :func:`variance` — forward taint from per-lane special registers
  (``%tid``/``%laneid``), the input to the divergence lints.
* :func:`producer_chain` — backward slice over the def→use graph; the
  debugger attaches it to a mis-executing instruction's report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.functional.cfg import EXIT, build_cfg
from repro.functional.state import is_special
from repro.ptx import ast
from repro.ptx.ast import Instruction, Kernel, kernel_fact
from repro.ptx.instructions import EXTENDED, REG_DST, facts, result_bits

#: Synthetic definition site meaning "never written on some path".
UNINIT = -1

#: Special registers that differ between lanes of one warp.  ``%ctaid``
#: ``%nctaid``/``%ntid``/``%warpid`` are uniform across a warp and so
#: cannot cause intra-warp divergence.
_VARIANT_SPECIALS = ("%tid", "%laneid", "%clock")


# ----------------------------------------------------------------------
# Per-instruction def/use extraction
# ----------------------------------------------------------------------
def _collect_reads(op: ast.Operand, out: set[str]) -> None:
    if op.kind == ast.REG:
        out.add(op.name)
    elif op.kind == ast.MEM:
        if op.is_reg_base:
            out.add(op.name)
        for elem in op.elems:        # tex coordinate vector
            _collect_reads(elem, out)
    elif op.kind == ast.VEC:
        for elem in op.elems:
            _collect_reads(elem, out)


def defs_of(inst: Instruction) -> frozenset[str]:
    """Register names written by *inst* (empty for stores/control flow)."""
    if facts(inst.opcode).dst != REG_DST or not inst.operands:
        return frozenset()
    dst = inst.operands[0]
    if dst.kind == ast.REG and not is_special(dst.name):
        return frozenset((dst.name,))
    if dst.kind == ast.VEC:
        return frozenset(e.name for e in dst.elems
                         if e.kind == ast.REG and not is_special(e.name))
    return frozenset()


def uses_of(inst: Instruction) -> frozenset[str]:
    """Register names read by *inst*, including the guard predicate and
    special registers (callers filter specials where irrelevant)."""
    reads: set[str] = set()
    if inst.pred is not None:
        reads.add(inst.pred)
    has_dst = facts(inst.opcode).dst == REG_DST
    for op in inst.operands[1 if has_dst else 0:]:
        _collect_reads(op, reads)
    if has_dst and inst.operands:
        # The destination of a memory-operand write (never the case for
        # the supported subset) or a VEC destination address base.
        dst = inst.operands[0]
        if dst.kind == ast.MEM and dst.is_reg_base:
            reads.add(dst.name)
    return frozenset(reads)


def write_bits(inst: Instruction) -> int:
    """Effective payload width of the destination write.

    The register file stores 64-bit unions; a row's ``raw_write``
    kinds (``ld``/``setp``/``tex``, ``mov.pred``) are written
    whole-payload, everything else composes
    :func:`~repro.ptx.instructions.result_bits` low bits with the
    previous upper bits.
    """
    if (not inst.dtypes
            or inst.dtype.kind in facts(inst.opcode).raw_write):
        return 64
    return result_bits(inst)


def value_bits(inst: Instruction) -> int:
    """Upper bound on the payload bits a def by *inst* can set: the
    composed low bits, or what its row says a whole-payload write
    holds (``raw_bits``: a zero-extended load stays as narrow as its
    type, a sign-extended one fills the payload)."""
    if not inst.dtypes:
        return 64
    row, dtype = facts(inst.opcode), inst.dtype
    if dtype.kind not in row.raw_write:
        return result_bits(inst)
    if row.raw_bits == EXTENDED:
        return 64 if dtype.is_signed else dtype.bits
    return row.raw_bits


@kernel_fact
def register_widths(kernel: Kernel) -> dict[str, int]:
    """Register name -> bits its payload can ever occupy (a register
    the map does not name is 64 wide): the declared width (a predicate
    holds 1) or the widest def of it in the body, guarded or not.  A
    write at least that wide leaves nothing of the old payload, so the
    compiled tiers render it without the read-modify-write and
    :func:`liveness` counts it as a plain def.
    """
    widths = {name: 1 if decl.kind == "p" else min(decl.bits, 64)
              for name, decl in kernel.reg_decls.items()}
    for inst in kernel.body:
        for name in defs_of(inst):
            widths[name] = max(widths.get(name, 64), value_bits(inst))
    return widths


def is_killing(inst: Instruction) -> bool:
    """True when the def certainly overwrites (not guarded by a pred)."""
    return inst.pred is None


# ----------------------------------------------------------------------
# Generic worklist solver
# ----------------------------------------------------------------------
@dataclass
class DataflowProblem:
    """A may-analysis: union meet, per-instruction transfer."""

    direction: str = "forward"          # "forward" | "backward"

    def boundary(self, kernel: Kernel) -> frozenset:
        """Fact set at kernel entry (forward) or exit (backward)."""
        del kernel
        return frozenset()

    def transfer(self, inst: Instruction, facts: frozenset) -> frozenset:
        raise NotImplementedError


@dataclass
class Solution:
    """Per-instruction fact sets: ``before[pc]`` / ``after[pc]``."""

    before: dict[int, frozenset] = field(default_factory=dict)
    after: dict[int, frozenset] = field(default_factory=dict)


def solve(kernel: Kernel, problem: DataflowProblem) -> Solution:
    """Run *problem* to fixpoint and expand to instruction granularity."""
    solution = Solution()
    if not kernel.body:
        return solution
    graph = build_cfg(kernel)
    leaders = list(graph.end)
    forward = problem.direction == "forward"
    boundary = problem.boundary(kernel)

    def block_insts(leader: int) -> list[Instruction]:
        insts = kernel.body[leader:graph.end[leader]]
        return insts if forward else list(reversed(insts))

    def edges_in(leader: int):
        """Blocks whose out-facts feed this block's in-facts."""
        nodes = graph.pred[leader] if forward else graph.succ[leader]
        return [n for n in nodes if n != EXIT]

    block_in: dict[int, frozenset] = {b: frozenset() for b in leaders}
    block_out: dict[int, frozenset] = {b: frozenset() for b in leaders}
    entry = leaders[0]
    worklist = list(leaders if forward else reversed(leaders))
    while worklist:
        leader = worklist.pop(0)
        feeds = edges_in(leader)
        facts: frozenset = frozenset()
        if forward:
            # Blocks with no predecessors (the entry block, plus any
            # unreachable block) start from the boundary facts.
            if leader == entry or not feeds:
                facts = boundary
        else:
            nodes = graph.succ[leader]
            if EXIT in nodes or not nodes:
                facts = boundary
        for other in feeds:
            facts = facts | block_out[other]
        block_in[leader] = facts
        for inst in block_insts(leader):
            facts = problem.transfer(inst, facts)
        if facts != block_out[leader]:
            block_out[leader] = facts
            targets = graph.succ[leader] if forward else graph.pred[leader]
            for nxt in targets:
                if nxt != EXIT and nxt not in worklist:
                    worklist.append(nxt)

    # Expand the block solution to per-instruction before/after sets.
    for leader in leaders:
        facts = block_in[leader]
        for inst in block_insts(leader):
            if forward:
                solution.before[inst.index] = facts
                facts = problem.transfer(inst, facts)
                solution.after[inst.index] = facts
            else:
                solution.after[inst.index] = facts
                facts = problem.transfer(inst, facts)
                solution.before[inst.index] = facts
    return solution


# ----------------------------------------------------------------------
# Reaching definitions (with UNINIT entry defs)
# ----------------------------------------------------------------------
def _register_universe(kernel: Kernel) -> frozenset[str]:
    names: set[str] = set(kernel.reg_decls)
    for inst in kernel.body:
        names.update(defs_of(inst))
        names.update(n for n in uses_of(inst) if not is_special(n))
    return frozenset(names)


class _ReachingDefs(DataflowProblem):
    """Facts are ``(register, def_pc)`` pairs; ``def_pc == UNINIT`` marks
    the synthetic kernel-entry definition."""

    def __init__(self) -> None:
        super().__init__(direction="forward")

    def boundary(self, kernel: Kernel) -> frozenset:
        return frozenset((name, UNINIT)
                         for name in _register_universe(kernel))

    def transfer(self, inst: Instruction, facts: frozenset) -> frozenset:
        written = defs_of(inst)
        if not written:
            return facts
        if is_killing(inst):
            facts = frozenset(f for f in facts if f[0] not in written)
        return facts | frozenset((name, inst.index) for name in written)


@kernel_fact
def reaching_definitions(kernel: Kernel) -> Solution:
    """(register, def_pc) pairs reaching each instruction."""
    return solve(kernel, _ReachingDefs())


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------
class _Liveness(DataflowProblem):
    """Backward live-register analysis.

    A def narrower than its register can hold (:func:`register_widths`)
    composes with the old payload, so it also *reads* its destination
    and kills nothing; sound for writeback pruning.
    """

    def __init__(self, widths: dict[str, int]) -> None:
        super().__init__(direction="backward")
        self.widths = widths

    def transfer(self, inst: Instruction, facts: frozenset) -> frozenset:
        written = defs_of(inst)
        reads = frozenset(n for n in uses_of(inst) if not is_special(n))
        if written:
            bits = write_bits(inst)
            replaced = frozenset(n for n in written
                                 if self.widths.get(n, 64) <= bits)
            if is_killing(inst):
                facts = facts - replaced
            reads = reads | (written - replaced)
        return facts | reads


@kernel_fact
def liveness(kernel: Kernel) -> Solution:
    """Live registers before/after each instruction."""
    return solve(kernel, _Liveness(register_widths(kernel)))


# ----------------------------------------------------------------------
# Def-use chains
# ----------------------------------------------------------------------
@dataclass
class DefUseChains:
    """Bidirectional def/use maps derived from reaching definitions.

    ``uses_of_def[(reg, def_pc)]`` — pcs that may read that definition;
    ``defs_of_use[(reg, use_pc)]`` — def pcs (or UNINIT) that may feed
    the read.
    """

    uses_of_def: dict[tuple[str, int], frozenset[int]]
    defs_of_use: dict[tuple[str, int], frozenset[int]]


@kernel_fact
def def_use_chains(kernel: Kernel) -> DefUseChains:
    reach = reaching_definitions(kernel)
    uses_of_def: dict[tuple[str, int], set[int]] = {}
    defs_of_use: dict[tuple[str, int], set[int]] = {}
    for inst in kernel.body:
        incoming = reach.before.get(inst.index, frozenset())
        for name in uses_of(inst):
            if is_special(name):
                continue
            sources = {pc for reg, pc in incoming if reg == name}
            defs_of_use[(name, inst.index)] = sources
            for pc in sources:
                uses_of_def.setdefault((name, pc), set()).add(inst.index)
    return DefUseChains(
        uses_of_def={k: frozenset(v) for k, v in uses_of_def.items()},
        defs_of_use={k: frozenset(v) for k, v in defs_of_use.items()})


def producer_chain(kernel: Kernel, pc: int,
                   *, max_depth: int = 4,
                   max_sites: int = 12) -> list[dict]:
    """Backward slice: the static producers of *pc*'s source registers.

    Returns a list of ``{"pc", "depth", "register", "text"}`` entries,
    nearest producers first — the debugger renders this under a bad
    instruction so the physical bisection can jump straight to the
    upstream computation.
    """
    if pc < 0 or pc >= len(kernel.body):
        return []
    chains = def_use_chains(kernel)
    sliced: list[dict] = []
    seen: set[tuple[str, int]] = set()
    frontier: list[tuple[str, int, int]] = []
    for name in sorted(uses_of(kernel.body[pc])):
        if not is_special(name):
            frontier.append((name, pc, 1))
    while frontier and len(sliced) < max_sites:
        name, use_pc, depth = frontier.pop(0)
        for def_pc in sorted(chains.defs_of_use.get((name, use_pc),
                                                    frozenset())):
            if def_pc == UNINIT or (name, def_pc) in seen:
                continue
            seen.add((name, def_pc))
            producer = kernel.body[def_pc]
            sliced.append({
                "pc": def_pc,
                "depth": depth,
                "register": name,
                "text": producer.text or str(producer),
            })
            if depth < max_depth:
                for src in sorted(uses_of(producer)):
                    if not is_special(src):
                        frontier.append((src, def_pc, depth + 1))
            if len(sliced) >= max_sites:
                break
    sliced.sort(key=lambda entry: (entry["depth"], entry["pc"]))
    return sliced


# ----------------------------------------------------------------------
# Thread-variance (divergence taint)
# ----------------------------------------------------------------------
def _reads_variant_special(inst: Instruction) -> bool:
    return any(name.startswith(_VARIANT_SPECIALS)
               for name in uses_of(inst) if is_special(name))


class _Variance(DataflowProblem):
    """Forward taint: which registers may differ between lanes.

    Seeds: per-lane specials (``%tid``/``%laneid``), data loaded from
    mutable memory spaces, ``atom``/``tex`` results.  ``ld.param`` and
    ``ld.const`` stay uniform unless their *address* is variant.
    A def guarded by a variant predicate is itself variant (some lanes
    keep the old value).
    """

    _UNIFORM_SPACES = ("param", "const")

    def __init__(self) -> None:
        super().__init__(direction="forward")

    def transfer(self, inst: Instruction, facts: frozenset) -> frozenset:
        written = defs_of(inst)
        if not written:
            return facts
        reads = frozenset(n for n in uses_of(inst) if not is_special(n))
        variant = bool(reads & facts) or _reads_variant_special(inst)
        if inst.pred is not None and inst.pred in facts:
            variant = True
        if inst.opcode in ("atom", "tex"):
            variant = True
        elif inst.opcode in ("ld", "ldu"):
            if (inst.space or "generic") not in self._UNIFORM_SPACES:
                variant = True
        if variant:
            return facts | written
        if is_killing(inst):
            return facts - written
        return facts


@kernel_fact
def variance(kernel: Kernel) -> Solution:
    """Thread-variant register sets before/after each instruction."""
    return solve(kernel, _Variance())
