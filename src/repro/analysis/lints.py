"""Dataflow/control-flow lint passes over a prepared kernel.

Each pass has signature ``pass_fn(ctx) -> list[Finding]`` where *ctx*
is a :class:`LintContext` carrying the kernel plus lazily computed
dataflow solutions, so passes share one CFG/liveness/variance run.

Passes::

    D301  register may be read before initialisation
    D302  dead store (definition with no reachable use)
    D303  global load from a non-pointer (fabricated) address
    C401  bar.sync reachable under thread-divergent control flow
          before the branch's IPDOM reconvergence point
    M501  static shared-memory race check (range-analysis backed:
          thread-injective stores are proven benign, provable
          overlaps are errors, the rest stays heuristic)
    M502  definite out-of-bounds access (negative offset from base)
    M503  definite misalignment (access size never divides address)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import dataflow, ranges
from repro.analysis.dataflow import UNINIT, defs_of, uses_of
from repro.analysis.findings import ERROR, Finding, WARNING
from repro.functional.cfg import build_cfg, prepare_kernel
from repro.functional.state import is_special
from repro.functional.simt import NO_RECONVERGE
from repro.ptx.ast import Instruction, Kernel


@dataclass
class LintContext:
    """Shared analysis state for one kernel."""

    kernel: Kernel
    file_id: str = ""
    _graph: object = None
    _reach: dataflow.Solution | None = None
    _live: dataflow.Solution | None = None
    _variance: dataflow.Solution | None = None
    _chains: dataflow.DefUseChains | None = None
    _ranges: ranges.RangeInfo | None = None

    @property
    def graph(self):
        if self._graph is None:
            self._graph = build_cfg(self.kernel)
        return self._graph

    @property
    def reach(self) -> dataflow.Solution:
        if self._reach is None:
            self._reach = dataflow.reaching_definitions(self.kernel)
        return self._reach

    @property
    def variance(self) -> dataflow.Solution:
        if self._variance is None:
            self._variance = dataflow.variance(self.kernel)
        return self._variance

    @property
    def chains(self) -> dataflow.DefUseChains:
        if self._chains is None:
            self._chains = dataflow.def_use_chains(self.kernel)
        return self._chains

    @property
    def ranges(self) -> ranges.RangeInfo:
        if self._ranges is None:
            self._ranges = ranges.analyze_ranges(self.kernel)
        return self._ranges

    def finding(self, rule: str, severity: str, inst: Instruction,
                message: str) -> Finding:
        return Finding(rule=rule, severity=severity,
                       kernel=self.kernel.name, pc=inst.index,
                       message=message, file_id=self.file_id,
                       text=inst.text or str(inst))


# ----------------------------------------------------------------------
# D301: uninitialised register read
# ----------------------------------------------------------------------
def lint_uninitialized_reads(ctx: LintContext) -> list[Finding]:
    findings: list[Finding] = []
    for inst in ctx.kernel.body:
        incoming = ctx.reach.before.get(inst.index, frozenset())
        for name in sorted(uses_of(inst)):
            if is_special(name):
                continue
            sources = {pc for reg, pc in incoming if reg == name}
            if not sources or UNINIT not in sources:
                continue
            if sources == {UNINIT}:
                findings.append(ctx.finding(
                    "D301", ERROR, inst,
                    f"{name} is read before any initialisation"))
            else:
                findings.append(ctx.finding(
                    "D301", WARNING, inst,
                    f"{name} may be read uninitialised on some path"))
    return findings


# ----------------------------------------------------------------------
# D302: dead store
# ----------------------------------------------------------------------
def lint_dead_stores(ctx: LintContext) -> list[Finding]:
    findings: list[Finding] = []
    for inst in ctx.kernel.body:
        written = sorted(defs_of(inst))
        if not written:
            continue
        dead = [n for n in written
                if not ctx.chains.uses_of_def.get((n, inst.index))]
        if len(dead) != len(written):
            # A vector destination with at least one live element is
            # idiomatic (ld.v2 reading only .x, tex.v4 using one channel).
            continue
        if inst.opcode == "atom":
            message = ("atomic result is never read; red.* expresses "
                       "the reduction without a destination register")
        else:
            message = f"value written to {', '.join(dead)} is never read"
        findings.append(ctx.finding("D302", WARNING, inst, message))
    return findings


# ----------------------------------------------------------------------
# C401: barrier under divergent control flow
# ----------------------------------------------------------------------
def _bars_reachable(ctx: LintContext, leader, stop_block) -> set[int]:
    """pcs of ``bar`` instructions reachable from block *leader* by a
    block-level DFS that stops at *stop_block* (the reconvergence
    block) and at kernel exit."""
    graph = ctx.graph
    kernel = ctx.kernel
    bars: set[int] = set()
    seen: set = set()
    stack = [leader]
    while stack:
        block = stack.pop()
        if block in seen or block == "exit" or block == stop_block:
            continue
        seen.add(block)
        end = graph.nodes[block]["end"]
        for inst in kernel.body[block:end]:
            if inst.opcode == "bar":
                bars.add(inst.index)
        stack.extend(graph.successors(block))
    return bars


def lint_divergent_barriers(ctx: LintContext) -> list[Finding]:
    kernel = ctx.kernel
    prepare_kernel(kernel)
    graph = ctx.graph
    block_of = graph.graph.get("block_of", {})
    findings: list[Finding] = []
    flagged: set[int] = set()
    for inst in kernel.body:
        if inst.opcode != "bra" or inst.pred is None:
            continue
        variant = ctx.variance.before.get(inst.index, frozenset())
        if inst.pred not in variant:
            continue                    # warp-uniform branch: no divergence
        rpc = kernel.reconvergence.get(inst.index, NO_RECONVERGE)
        stop = block_of.get(rpc) if rpc != NO_RECONVERGE else None
        taken = kernel.label_target(inst.operands[0].name)
        sides = []
        for succ_pc in (taken, inst.index + 1):
            if succ_pc < len(kernel.body):
                sides.append(_bars_reachable(
                    ctx, block_of[succ_pc], stop))
            else:
                sides.append(set())
        if rpc == NO_RECONVERGE and (not sides[0] or not sides[1]):
            # Early-exit guard pattern (one side runs straight to exit
            # without a barrier): safe, exited lanes do not participate.
            continue
        for pc in sorted(sides[0] | sides[1]):
            if pc in flagged:
                continue
            flagged.add(pc)
            findings.append(ctx.finding(
                "C401", ERROR, kernel.body[pc],
                "bar.sync is reachable under thread-divergent control "
                f"flow (branch at pc {inst.index} diverges per-lane "
                "before reconvergence)"))
    return findings


# ----------------------------------------------------------------------
# M502 / M503 / D303: range-analysis memory lints
# ----------------------------------------------------------------------
def lint_range_memory(ctx: LintContext) -> list[Finding]:
    """Definite-error memory lints from the affine address forms.

    These fire only on *proofs* — facts that hold in every possible
    launch — so all three are safe to gate launches on:

    * M502: some thread certainly accesses below its base pointer
      (e.g. ``[%rd0 + -4]`` where ``%rd0`` came straight from a param).
    * M503: the address is misaligned for the access width no matter
      the launch (all varying contributions are multiples of the
      width, the residual constant is not).
    * D303: a ``ld.global`` whose address provably contains no pointer
      at all — a fabricated/constant address that can only ever read
      unallocated (hence uninitialised) memory.
    """
    findings: list[Finding] = []
    for pc in sorted(ctx.ranges.facts):
        fact = ctx.ranges.facts[pc]
        inst = ctx.kernel.body[pc]
        if ranges.static_oob_below(fact):
            findings.append(ctx.finding(
                "M502", ERROR, inst,
                f"{inst.opcode}.{fact.space} at address "
                f"[{fact.addr.render()}] reaches {fact.addr.const} "
                "bytes below its base for the origin thread in every "
                "launch"))
        if ranges.static_misaligned(fact):
            findings.append(ctx.finding(
                "M503", ERROR, inst,
                f"{fact.nbytes}-byte {inst.opcode}.{fact.space} at "
                f"[{fact.addr.render()}] is misaligned in every launch "
                f"(address ≡ {fact.addr.const % fact.nbytes} "
                f"mod {fact.nbytes})"))
        if (fact.space == "global" and not fact.is_write
                and not ranges.pointer_symbols(fact.addr)):
            findings.append(ctx.finding(
                "D303", WARNING, inst,
                "global load address derives from no kernel parameter "
                "or module symbol — it can only read unallocated "
                f"(uninitialised) memory [{fact.addr.render()}]"))
    return findings


# ----------------------------------------------------------------------
# M501: static shared-memory race check (range-analysis backed)
# ----------------------------------------------------------------------
def _address_signature(ctx: LintContext, inst: Instruction):
    """(base defs, offset) identity of a ld/st address, for comparing
    whether two accesses compute the same per-lane address."""
    mem = None
    for operand in inst.operands:
        if operand.kind == "mem":
            mem = operand
            break
    if mem is None:
        return None
    if not mem.is_reg_base:
        return (mem.name, mem.offset)
    defs = ctx.chains.defs_of_use.get((mem.name, inst.index), frozenset())
    return (defs, mem.offset)


def _is_variant_address(ctx: LintContext, inst: Instruction) -> bool:
    for operand in inst.operands:
        if operand.kind == "mem" and operand.is_reg_base:
            variant = ctx.variance.before.get(inst.index, frozenset())
            return operand.name in variant
    return False


def lint_shared_races(ctx: LintContext) -> list[Finding]:
    kernel = ctx.kernel
    graph = ctx.graph
    facts = ctx.ranges.facts
    findings: list[Finding] = []
    shared_sts = [i for i in kernel.body
                  if i.opcode == "st" and i.space == "shared"]
    for st in shared_sts:
        st_fact = facts.get(st.index)
        st_variant = _is_variant_address(ctx, st)
        variant_in = ctx.variance.before.get(st.index, frozenset())
        guarded = st.pred is not None and st.pred in variant_in
        if not st_variant and not guarded:
            if st_fact is not None and ranges.uniform_address(st_fact):
                # Range analysis confirms the heuristic: every thread
                # computes the *same* address, so with more than one
                # thread the overlap is certain, not suspected.
                findings.append(ctx.finding(
                    "M501", ERROR, st,
                    "every thread stores to the same shared address "
                    f"[{st_fact.addr.render()}] with no thread-variant "
                    "guard — a certain write-write race for any "
                    "multi-thread CTA"))
            else:
                findings.append(ctx.finding(
                    "M501", WARNING, st,
                    "all lanes store to the same shared address with "
                    "no thread-variant guard (write-write race)"))
            continue
        # RAW check: a ld.shared reachable from the store with no
        # intervening bar.sync.  When both sides have affine address
        # forms the range analysis decides exactly; otherwise fall
        # back to the variance heuristic — flag only when exactly one
        # side has a thread-variant address, since two variant
        # accesses are usually an owner-computes partition.
        st_sig = _address_signature(ctx, st)
        for ld in _shared_loads_before_barrier(ctx, graph, st):
            if _address_signature(ctx, ld) == st_sig:
                continue                # same per-lane address: benign
            ld_fact = facts.get(ld.index)
            if (st_fact is not None and ld_fact is not None
                    and st_fact.addr.coeffs == ld_fact.addr.coeffs):
                delta = ld_fact.addr.const - st_fact.addr.const
                stride = st_fact.addr.coeff("%tid.x")
                if delta == 0:
                    continue            # same per-lane address: benign
                if stride and ranges.thread_injective(st_fact):
                    if delta % stride:
                        # The load sits strictly between two lanes'
                        # slots: provably disjoint, suppress the old
                        # false positive.
                        continue
                    findings.append(ctx.finding(
                        "M501", ERROR, ld,
                        f"ld.shared provably reads lane tid-"
                        f"{delta // stride}'s slot written at pc "
                        f"{st.index} with no intervening bar.sync"))
                    continue
            if _is_variant_address(ctx, ld) == st_variant:
                continue
            findings.append(ctx.finding(
                "M501", WARNING, ld,
                f"ld.shared may observe the st.shared at pc {st.index} "
                "with no intervening bar.sync on some path"))
    return findings


def _shared_loads_before_barrier(ctx: LintContext, graph,
                                 st: Instruction) -> list[Instruction]:
    kernel = ctx.kernel
    block_of = graph.graph.get("block_of", {})
    loads: list[Instruction] = []
    seen: set = set()

    def scan(block, start_pc) -> None:
        if block == "exit":
            return
        end = graph.nodes[block]["end"]
        for inst in kernel.body[start_pc:end]:
            if inst.opcode == "bar":
                return                  # path synchronised, stop here
            if inst.opcode in ("ld", "ldu") and inst.space == "shared":
                loads.append(inst)
        for succ in graph.successors(block):
            if succ not in seen:
                seen.add(succ)
                scan(succ, succ if succ != "exit" else 0)

    scan(block_of.get(st.index, 0), st.index + 1)
    return loads


# ----------------------------------------------------------------------
# Pass registry
# ----------------------------------------------------------------------
LintPass = Callable[[LintContext], list[Finding]]

LINT_PASSES: dict[str, LintPass] = {
    "uninitialized-read": lint_uninitialized_reads,
    "dead-store": lint_dead_stores,
    "divergent-barrier": lint_divergent_barriers,
    "shared-race": lint_shared_races,
    "range-memory": lint_range_memory,
}


def run_lints(kernel: Kernel, *, file_id: str = "",
              passes: list[str] | None = None) -> list[Finding]:
    """Run the named lint passes (default: all) over one kernel."""
    ctx = LintContext(kernel=kernel, file_id=file_id)
    findings: list[Finding] = []
    names = list(LINT_PASSES) if passes is None else passes
    for name in names:
        findings.extend(LINT_PASSES[name](ctx))
    return findings
