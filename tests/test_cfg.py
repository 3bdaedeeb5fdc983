"""Edge-case tests for the CFG construction in ``repro.functional.cfg``.

Shapes exercised: back-to-back branches, unreachable blocks behind an
unconditional ``bra``, and the leader after a ``ret``/``exit`` that is
not also a branch target.  Reconvergence is checked against a
brute-force post-dominator oracle on every embedded kernel and on
generated branchy kernels (loops, predicated ``exit``, a ``bra`` to its
own fall-through, a loop that never reaches exit).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import embedded_units
from repro.functional.cfg import (
    EXIT, basic_blocks, block_leaders, branch_target, build_cfg,
    compute_reconvergence, reconvergence)
from repro.functional.simt import NO_RECONVERGE
from repro.ptx.parser import parse_module


def _kernel(body: str):
    ptx = f"""
.version 6.0
.target sm_60
.address_size 64

.visible .entry k(.param .u32 n)
{{
    .reg .b32 %r<8>;
    .reg .pred %p<4>;
{body}
}}
"""
    return parse_module(ptx, "cfg-test").kernel("k")


def test_back_to_back_branches_split_single_instruction_blocks():
    kernel = _kernel("""
    setp.lt.u32 %p0, %r0, 1;
    setp.lt.u32 %p1, %r0, 2;
@%p0 bra $A;
@%p1 bra $B;
$A:
    mov.u32 %r1, 1;
$B:
    mov.u32 %r2, 2;
    exit;
""")
    # pc: 0 setp, 1 setp, 2 bra $A, 3 bra $B, 4 mov($A), 5 mov($B), 6 exit
    leaders = block_leaders(kernel)
    assert leaders == frozenset({0, 3, 4, 5})
    # The second branch sits in a one-instruction block of its own.
    assert (3, 4) in basic_blocks(kernel)
    graph = build_cfg(kernel)
    assert graph.succ[0] == (4, 3)    # taken, then fallthrough
    assert graph.succ[3] == (5, 4)    # $B target, then fallthrough


def test_unreachable_block_after_unconditional_bra():
    kernel = _kernel("""
    mov.u32 %r0, 1;
    bra $END;
    mov.u32 %r1, 2;
    mov.u32 %r2, 3;
$END:
    exit;
""")
    # pc: 0 mov, 1 bra, 2 mov (unreachable leader), 3 mov, 4 exit
    graph = build_cfg(kernel)
    # Unconditional branch: exactly one successor, no fallthrough edge.
    assert graph.succ[0] == (4,)
    # The dead code still forms a block node with its instructions...
    assert 2 in graph.succ
    assert graph.end[2] == 4
    # ...whose fallthrough edge into $END exists, but nothing reaches it.
    assert graph.succ[2] == (4,)
    assert graph.pred[2] == ()


def test_pc_after_exit_is_a_leader_and_block_edges_go_to_exit():
    kernel = _kernel("""
    setp.lt.u32 %p0, %r0, 1;
@%p0 bra $TAIL;
    mov.u32 %r1, 1;
    exit;
$TAIL:
    mov.u32 %r2, 2;
    ret;
""")
    # pc: 0 setp, 1 bra, 2 mov, 3 exit, 4 mov($TAIL), 5 ret
    leaders = block_leaders(kernel)
    assert 4 in leaders                 # pc after exit (also bra target)
    graph = build_cfg(kernel)
    # Both terminating blocks edge to the synthetic exit node, never
    # fall through into each other.
    assert graph.succ[2] == (EXIT,)
    assert graph.succ[4] == (EXIT,)


def test_predicated_exit_keeps_the_fallthrough_edge():
    # @%p exit terminates only the guarded lanes; the block must edge
    # both to EXIT and into the fallthrough block, or liveness sees the
    # registers used after the guard as dead (a real pruning bug: the
    # tf_scale_and_shift early-exit guard).
    kernel = _kernel("""
    setp.lt.u32 %p0, %r0, 1;
@%p0 exit;
    mov.u32 %r1, 2;
    exit;
""")
    graph = build_cfg(kernel)
    assert graph.succ[0] == (EXIT, 2)


def test_ret_mid_kernel_starts_a_new_leader_without_branch_target():
    kernel = _kernel("""
    mov.u32 %r0, 1;
    ret;
    mov.u32 %r1, 2;
    exit;
""")
    # The mov after ret is a leader purely because of the terminator.
    assert 2 in block_leaders(kernel)
    graph = build_cfg(kernel)
    assert graph.succ[0] == (EXIT,)
    assert graph.pred[2] == ()


def test_reconvergence_if_then_joins_at_label():
    kernel = _kernel("""
    setp.lt.u32 %p0, %r0, 1;
@%p0 bra $SKIP;
    mov.u32 %r1, 1;
$SKIP:
    mov.u32 %r2, 2;
    exit;
""")
    recon = compute_reconvergence(kernel)
    assert recon[1] == 3                # joins at $SKIP


def test_reconvergence_no_join_before_exit():
    kernel = _kernel("""
    setp.lt.u32 %p0, %r0, 1;
@%p0 bra $OTHER;
    mov.u32 %r1, 1;
    exit;
$OTHER:
    mov.u32 %r2, 2;
    exit;
""")
    recon = compute_reconvergence(kernel)
    assert recon[1] == NO_RECONVERGE


def test_reconvergence_is_memoised_on_the_kernel():
    kernel = _kernel("""
    setp.lt.u32 %p0, %r0, 1;
@%p0 bra $SKIP;
    mov.u32 %r1, 1;
$SKIP:
    exit;
""")
    first = reconvergence(kernel)
    assert reconvergence(kernel) is first
    assert first == compute_reconvergence(kernel) == {1: 3}
    assert build_cfg(kernel) is build_cfg(kernel)
    assert block_leaders(kernel) is block_leaders(kernel)


# ----------------------------------------------------------------------
# Reconvergence against a brute-force post-dominator oracle
# ----------------------------------------------------------------------
def _oracle_reconvergence(kernel) -> dict[int, int]:
    """IPDOM by set intersection: pdom(EXIT) = {EXIT}, pdom(b) = {b} |
    the intersection of its successors' sets, over the blocks that can
    reach EXIT (any other block has no post-dominator)."""
    graph = build_cfg(kernel)
    reach, grown = {EXIT}, True
    while grown:
        before = len(reach)
        reach |= {p for node in reach for p in graph.pred[node]}
        grown = len(reach) != before
    pdom = {node: set(reach) for node in reach}
    pdom[EXIT] = {EXIT}
    changed = True
    while changed:
        changed = False
        for node in reach - {EXIT}:
            new = {node} | set.intersection(
                *(pdom[s] for s in graph.succ[node] if s in reach))
            if new != pdom[node]:
                pdom[node], changed = new, True
    result = {}
    for inst in kernel.body:
        if inst.opcode != "bra" or inst.pred is None:
            continue
        block = graph.block_of[inst.index]
        join = (max(pdom[block] - {block}, key=lambda d: len(pdom[d]))
                if block in reach else EXIT)
        result[inst.index] = NO_RECONVERGE if join == EXIT else join
    return result


def _assert_edges(kernel) -> None:
    """Each block's successors in the order its last instruction names
    them (taken target, then fall-through), each edge once, and ``pred``
    the exact mirror of ``succ``."""
    graph = build_cfg(kernel)
    size = len(kernel.body)
    for leader, end in graph.end.items():
        last = kernel.body[end - 1]
        fall = graph.block_of.get(end, EXIT)
        if last.opcode == "bra":
            named = [graph.block_of[branch_target(kernel, last)]]
            named += [fall] if last.pred else []
        elif last.opcode in ("exit", "ret"):
            named = [EXIT] + ([fall] if last.pred and end < size else [])
        else:
            named = [fall]
        assert graph.succ[leader] == tuple(dict.fromkeys(named)), leader
    edges = [(u, v) for u, vs in graph.succ.items() for v in vs]
    assert len(set(edges)) == len(edges)
    assert sorted(map(str, edges)) == sorted(
        str((u, v)) for v, us in graph.pred.items() for u in us)


@pytest.mark.parametrize("unit", embedded_units(), ids=lambda unit: unit[0])
def test_embedded_reconvergence_matches_the_oracle(unit):
    for kernel in parse_module(unit[1], unit[0]).kernels.values():
        _assert_edges(kernel)
        assert reconvergence(kernel) == _oracle_reconvergence(kernel), \
            kernel.name


#: Statement shapes of the generated kernels; ``{t}`` is a label drawn
#: anywhere in the kernel (a backward one makes a loop), ``{next}`` the
#: label of the following statement, ``{here}`` the statement's own.
_SHAPES = ("add.u32 %r0, %r0, 1;", "add.u32 %r0, %r0, 1;",
           "@%p0 bra {t};", "@!%p1 bra {t};", "bra {t};", "@%p0 exit;",
           "exit;", "@%p0 bra {next};", "bra {here};")


@st.composite
def _branchy_kernels(draw) -> str:
    count = draw(st.integers(1, 12))
    lines = []
    for index in range(count):
        shape = draw(st.sampled_from(_SHAPES))
        lines.append(f"$L{index}: " + shape.format(
            t=f"$L{draw(st.integers(0, count))}", next=f"$L{index + 1}",
            here=f"$L{index}"))
    lines.append(f"$L{count}: " + draw(st.sampled_from(
        ("exit;", "add.u32 %r0, %r0, 1;"))))
    return "\n".join(lines)


@given(_branchy_kernels())
@example("$L0: @%p0 bra $L1;\n$L1: @%p0 exit;\n$L2: bra $L2;\n$L3: exit;")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_generated_reconvergence_matches_the_oracle(body):
    kernel = _kernel(body)
    _assert_edges(kernel)
    assert compute_reconvergence(kernel) == _oracle_reconvergence(kernel), \
        body
