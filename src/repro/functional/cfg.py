"""Control-flow analysis: reconvergence points for divergent branches.

GPGPU-Sim reconverges diverged warps at the *immediate post-dominator*
(IPDOM) of the branch.  We build the kernel's CFG at basic-block
granularity, compute immediate dominators of the reversed graph with
networkx, and record, for every conditional-branch instruction index, the
instruction index at which its paths rejoin.

Every result here is a fact of the kernel body, memoised on the kernel
(:func:`repro.ptx.ast.kernel_fact`).  The reconverge-at-exit ablation
(DESIGN.md §5.2) is a setting of the engine that executes the branch,
not a different map.
"""

from __future__ import annotations

import networkx as nx

from repro.ptx.ast import Instruction, Kernel, LABEL, kernel_fact
from repro.functional.simt import NO_RECONVERGE

_EXIT = "exit"


def branch_target(kernel: Kernel, inst: Instruction) -> int | None:
    """The pc a ``bra`` jumps to (``None`` without a label operand)."""
    for operand in inst.operands:
        if operand.kind == LABEL:
            return kernel.labels[operand.name]
    return None


@kernel_fact
def block_leaders(kernel: Kernel) -> frozenset[int]:
    """Instruction indices that start a basic block.

    Superblock fusion (:mod:`repro.functional.superblock`) must not fuse
    across these: a leader is a potential control-flow entry point
    (branch target, post-branch/exit fallthrough, or pc 0).
    """
    leaders = {0}
    for inst in kernel.body:
        if inst.opcode == "bra":
            target = branch_target(kernel, inst)
            if target is None:
                raise KeyError(f"branch without label operand: {inst.text}")
            leaders.add(target)
            leaders.add(inst.index + 1)
        elif inst.opcode in ("exit", "ret"):
            leaders.add(inst.index + 1)
    return frozenset(i for i in leaders if i < len(kernel.body))


def basic_blocks(kernel: Kernel) -> list[tuple[int, int]]:
    """Half-open ``[start, end)`` instruction ranges of each basic block."""
    leaders = sorted(block_leaders(kernel))
    size = len(kernel.body)
    return [(leader, leaders[i + 1] if i + 1 < len(leaders) else size)
            for i, leader in enumerate(leaders)]


@kernel_fact
def build_cfg(kernel: Kernel) -> nx.DiGraph:
    """Basic-block CFG; node = leader instruction index, plus EXIT.
    Shared by every caller: read it, never mutate it."""
    graph = nx.DiGraph()
    graph.add_node(_EXIT)
    if not kernel.body:
        return graph
    blocks = basic_blocks(kernel)
    block_of: dict[int, int] = {}
    for leader, end in blocks:
        graph.add_node(leader, end=end)
        for index in range(leader, end):
            block_of[index] = leader
    for leader, end in blocks:
        last = kernel.body[end - 1]
        if last.opcode == "bra":
            graph.add_edge(leader, block_of[branch_target(kernel, last)])
            if last.pred is not None:
                if end < len(kernel.body):
                    graph.add_edge(leader, block_of[end])
                else:
                    graph.add_edge(leader, _EXIT)
        elif last.opcode in ("exit", "ret"):
            graph.add_edge(leader, _EXIT)
            # A predicated exit terminates only the lanes whose guard
            # holds; the rest fall through into the next block.
            if last.pred is not None and end < len(kernel.body):
                graph.add_edge(leader, block_of[end])
        elif end < len(kernel.body):
            graph.add_edge(leader, block_of[end])
        else:
            graph.add_edge(leader, _EXIT)
    graph.graph["block_of"] = block_of
    return graph


def compute_reconvergence(kernel: Kernel) -> dict[int, int]:
    """Map conditional-branch instruction index → IPDOM reconvergence pc.

    ``NO_RECONVERGE`` means the paths only rejoin at kernel exit.
    """
    result: dict[int, int] = {}
    branches = [inst.index for inst in kernel.body
                if inst.opcode == "bra" and inst.pred is not None]
    if not branches:
        return result
    graph = build_cfg(kernel)
    block_of = graph.graph["block_of"]
    reversed_graph = graph.reverse(copy=True)
    # Immediate dominators on the reversed CFG == immediate post-dominators.
    ipdom = nx.immediate_dominators(reversed_graph, _EXIT)
    for index in branches:
        block = block_of[index]
        join = ipdom.get(block, _EXIT)
        if join == block:
            join = _EXIT  # unreachable-from-exit corner; be conservative
        result[index] = NO_RECONVERGE if join == _EXIT else int(join)
    return result


@kernel_fact
def reconvergence(kernel: Kernel) -> dict[int, int]:
    """:func:`compute_reconvergence`, once per kernel: the map the
    engine's SIMT stacks, the megablock planner and lint C401 read."""
    return compute_reconvergence(kernel)
