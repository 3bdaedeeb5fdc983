"""Vectorizability classification for the megablock execution tier.

The intra-warp :func:`repro.analysis.dataflow.variance` taint answers
"can this branch diverge *within a warp*?".  The megablock tier
(:mod:`repro.functional.megablock`) executes every thread of a grid
chunk in one lockstep vector, so it needs the stronger *grid* question:
"can this value differ between **any** two threads of the grid?".  A
branch whose predicate is grid-uniform moves the whole vector frame as
one — no mask arithmetic, no frame splits — which is the fast path that
keeps loop-heavy kernels (GEMM tiles, FFT stages) at array speed.

The grid analysis is the same forward taint with a wider seed set:
``%ctaid`` and ``%warpid`` are uniform within a warp but obviously not
across the grid, so they join ``%tid``/``%laneid``/``%clock`` as
variance sources.  ``%ntid``/``%nctaid`` remain uniform everywhere.

:data:`ANALYSIS_VERSION` stamps both this classification and the
compiled-plan payloads in the disk kernel cache
(:mod:`repro.functional.kernelcache`); bump it whenever the taint rules
or the classification shape change so stale cache entries are discarded
rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import (
    Solution, _Variance, defs_of, solve, uses_of)
from repro.functional.cfg import build_cfg
from repro.functional.state import is_special
from repro.ptx.ast import Kernel

#: Version of the vectorizability facts (cache-key component).
#: 2: megablock plans additionally carry affine memory facts from
#: :mod:`repro.analysis.ranges`.
#: 3: ``barrier_divergence`` is per barrier (reachability from a
#: divergent branch), no longer one kernel-wide flag.
#: 4: the liveness behind a plan's ``pruned`` lists counts a narrow def
#: as a use only where ``dataflow.register_widths`` leaves upper bits.
ANALYSIS_VERSION = 4

#: Specials that may differ between two threads *of the grid*.
_GRID_VARIANT_SPECIALS = ("%tid", "%laneid", "%clock", "%ctaid", "%warpid")


class _GridVariance(_Variance):
    """Forward taint seeded with every non-grid-uniform special."""

    def transfer(self, inst, facts):
        # The base class consults the narrower intra-warp special list;
        # widen by tainting any def that reads a grid-variant special.
        facts = super().transfer(inst, facts)
        written = defs_of(inst)
        if not written or written <= facts:
            return facts
        for name in uses_of(inst):
            if is_special(name) and name.startswith(_GRID_VARIANT_SPECIALS):
                return facts | written
        return facts


def grid_variance(kernel: Kernel) -> Solution:
    """Registers that may differ between any two grid threads."""
    return solve(kernel, _GridVariance())


@dataclass
class VectorReport:
    """Branch-level vectorizability facts for one kernel.

    ``uniform_branches`` — predicated ``bra`` pcs whose guard is
    grid-uniform: every thread takes the same side, so the vector tier
    can move a whole frame without computing masks.
    ``divergent_branches`` — the rest: mask splits with IPDOM
    reconvergence frames.
    ``barrier_pcs`` — every ``bar`` pc, for the barrier admission rule.
    ``divergent_barriers`` — the ``bar`` pcs some path reaches from a
    divergent branch.
    """

    kernel: str
    uniform_branches: frozenset[int] = frozenset()
    divergent_branches: frozenset[int] = frozenset()
    barrier_pcs: frozenset[int] = frozenset()
    divergent_barriers: frozenset[int] = frozenset()

    @property
    def has_divergence(self) -> bool:
        return bool(self.divergent_branches)

    def barrier_divergence(self) -> dict[int, bool]:
        """Per-barrier divergence fact feeding megablock plan admission.

        ``False`` proves the barrier can only ever be reached by a full
        frame: no path leads to it from a branch that diverges across
        the grid, so every frame arriving there has only moved through
        grid-uniform branches and still holds every thread.  The vector
        machine may then skip its runtime containment proof, and the
        timing model may record the launch — such a bar can neither
        park nor bail out.  ``True`` keeps the runtime check (and the
        park/bail protocol) armed.
        """
        return {pc: pc in self.divergent_barriers
                for pc in self.barrier_pcs}


def classify_kernel(kernel: Kernel) -> VectorReport:
    """Split the kernel's conditional branches by grid uniformity."""
    solution = grid_variance(kernel)
    uniform: set[int] = set()
    divergent: set[int] = set()
    barriers: set[int] = set()
    for inst in kernel.body:
        if inst.opcode == "bar":
            barriers.add(inst.index)
            continue
        if inst.opcode != "bra" or inst.pred is None:
            continue
        before = solution.before.get(inst.index, frozenset())
        if inst.pred in before:
            divergent.add(inst.index)
        else:
            uniform.add(inst.index)
    return VectorReport(
        kernel=kernel.name,
        uniform_branches=frozenset(uniform),
        divergent_branches=frozenset(divergent),
        barrier_pcs=frozenset(barriers),
        divergent_barriers=_reachable_from(kernel, divergent, barriers))


def _reachable_from(kernel: Kernel, branches: set[int],
                    targets: set[int]) -> frozenset[int]:
    """The *targets* pcs some CFG path reaches from one of *branches*
    (each the last instruction of its basic block).  A path starts at a
    successor of the branch's block, so the block's own instructions
    count only when a cycle leads back into it."""
    if not branches or not targets:
        return frozenset()
    graph = build_cfg(kernel)
    block_of = graph.block_of
    after: set = set()
    stack = [successor for pc in branches
             for successor in graph.succ[block_of[pc]]]
    while stack:
        node = stack.pop()
        if node not in after:
            after.add(node)
            stack.extend(graph.succ[node])
    return frozenset(pc for pc in targets if block_of[pc] in after)
