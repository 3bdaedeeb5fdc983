"""Edge-case tests for the CFG construction in ``repro.functional.cfg``.

Shapes exercised: back-to-back branches, unreachable blocks behind an
unconditional ``bra``, and the leader after a ``ret``/``exit`` that is
not also a branch target.
"""

from __future__ import annotations

from repro.functional.cfg import (
    basic_blocks, block_leaders, build_cfg, compute_reconvergence,
    reconvergence)
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
    assert set(graph.successors(0)) == {3, 4}    # taken + fallthrough
    assert set(graph.successors(3)) == {4, 5}    # $B target + fallthrough


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
    assert list(graph.successors(0)) == [4]
    # The dead code still forms a block node with its instructions...
    assert 2 in graph.nodes
    assert graph.nodes[2]["end"] == 4
    # ...whose fallthrough edge into $END exists, but nothing reaches it.
    assert list(graph.successors(2)) == [4]
    assert list(graph.predecessors(2)) == []


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
    assert list(graph.successors(2)) == ["exit"]
    assert list(graph.successors(4)) == ["exit"]


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
    assert set(graph.successors(0)) == {"exit", 2}


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
    assert list(graph.successors(0)) == ["exit"]
    assert list(graph.predecessors(2)) == []


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
