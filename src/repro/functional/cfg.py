"""Control-flow analysis: reconvergence points for divergent branches.

GPGPU-Sim reconverges diverged warps at the *immediate post-dominator*
(IPDOM) of the branch.  We build the kernel's CFG at basic-block
granularity, compute immediate dominators of the reversed graph with
Cooper, Harvey and Kennedy's iterative algorithm ("A Simple, Fast
Dominance Algorithm", Software Practice & Experience, 2001), and record,
for every conditional-branch instruction index, the instruction index at
which its paths rejoin.

Every result here is a fact of the kernel body, memoised on the kernel
(:func:`repro.ptx.ast.kernel_fact`).  The reconverge-at-exit ablation
(DESIGN.md §5.2) is a setting of the engine that executes the branch,
not a different map.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ptx.ast import Instruction, Kernel, LABEL, kernel_fact
from repro.functional.simt import NO_RECONVERGE

#: The synthetic node every terminating block edges to.
EXIT = "exit"


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


@dataclass(frozen=True)
class CFG:
    """Basic-block CFG of one kernel.  A node is a block's leader pc or
    :data:`EXIT`.  Shared by every caller: read it, never mutate it.

    ``succ``/``pred`` give each node's neighbours in edge insertion
    order, each once (a predicated ``bra`` to its own fall-through is
    one edge); ``end`` maps each leader, ascending, to the pc its block
    stops before; ``block_of`` maps every pc to its block's leader.
    """

    succ: dict
    pred: dict
    end: dict[int, int]
    block_of: dict[int, int]


@kernel_fact
def build_cfg(kernel: Kernel) -> CFG:
    """The basic-block CFG of *kernel*, once per kernel."""
    size = len(kernel.body)
    succ: dict = {EXIT: []}
    pred: dict = {EXIT: []}
    end_of: dict[int, int] = {}
    block_of: dict[int, int] = {}
    blocks = basic_blocks(kernel)
    for leader, end in blocks:
        succ[leader], pred[leader] = [], []
        end_of[leader] = end
        for index in range(leader, end):
            block_of[index] = leader

    def edge(source, target) -> None:
        if target not in succ[source]:
            succ[source].append(target)
            pred[target].append(source)

    for leader, end in blocks:
        last = kernel.body[end - 1]
        fall = block_of[end] if end < size else EXIT
        if last.opcode == "bra":
            edge(leader, block_of[branch_target(kernel, last)])
            if last.pred is not None:
                edge(leader, fall)
        elif last.opcode in ("exit", "ret"):
            edge(leader, EXIT)
            # A predicated exit terminates only the lanes whose guard
            # holds; the rest fall through into the next block.
            if last.pred is not None and end < size:
                edge(leader, fall)
        else:
            edge(leader, fall)
    return CFG(succ={node: tuple(nodes) for node, nodes in succ.items()},
               pred={node: tuple(nodes) for node, nodes in pred.items()},
               end=end_of, block_of=block_of)


def _post_dominators(graph: CFG) -> dict:
    """Immediate post-dominator of every block that can reach EXIT
    (EXIT maps to itself): Cooper–Harvey–Kennedy on the reversed CFG."""
    # Postorder of the reversed graph from EXIT (walking ``pred``).
    order: list = []
    seen = {EXIT}
    stack = [(EXIT, iter(graph.pred[EXIT]))]
    while stack:
        node, rest = stack[-1]
        for child in rest:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(graph.pred[child])))
                break
        else:
            stack.pop()
            order.append(node)
    rank = {node: i for i, node in enumerate(order)}
    idom = {EXIT: EXIT}
    changed = True
    while changed:
        changed = False
        for node in reversed(order[:-1]):   # reverse postorder, EXIT done
            new = None
            for other in graph.succ[node]:  # its reversed-graph preds
                if other not in idom:
                    continue
                if new is None:
                    new = other
                    continue
                while other != new:         # intersect the two chains
                    while rank[other] < rank[new]:
                        other = idom[other]
                    while rank[new] < rank[other]:
                        new = idom[new]
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return idom


def compute_reconvergence(kernel: Kernel) -> dict[int, int]:
    """Map conditional-branch instruction index → IPDOM reconvergence pc.

    ``NO_RECONVERGE`` means the paths only rejoin at kernel exit, or
    never: a block that cannot reach exit has no post-dominator.
    """
    branches = [inst.index for inst in kernel.body
                if inst.opcode == "bra" and inst.pred is not None]
    if not branches:
        return {}
    graph = build_cfg(kernel)
    ipdom = _post_dominators(graph)
    result: dict[int, int] = {}
    for index in branches:
        join = ipdom.get(graph.block_of[index], EXIT)
        result[index] = NO_RECONVERGE if join == EXIT else join
    return result


@kernel_fact
def reconvergence(kernel: Kernel) -> dict[int, int]:
    """:func:`compute_reconvergence`, once per kernel: the map the
    engine's SIMT stacks, the megablock planner and lint C401 read."""
    return compute_reconvergence(kernel)
