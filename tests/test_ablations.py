"""Ablation tests for the design choices DESIGN.md §5 calls out."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.functional.megablock import MegaPlan
from repro.functional.superblock import Superblock
from repro.ptx.builder import PTXBuilder
from repro.timing import TINY, TimingBackend

ROOT = Path(__file__).resolve().parent.parent


def _streaming_kernel() -> str:
    """Sequential streaming loads: maximally row-friendly traffic."""
    b = PTXBuilder("streamer", [("data", "u64"), ("out", "u64"),
                                ("n", "u32"), ("reads", "u32")])
    data = b.ld_param("u64", "data")
    out = b.ld_param("u64", "out")
    n = b.ld_param("u32", "n")
    reads = b.ld_param("u32", "reads")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    acc = b.imm_f32(0.0)
    i = b.reg("u32")
    with b.for_range(i, 0, reads):
        idx = b.reg("u32")
        b.ins("mad.lo.s32", idx, i, n, tid)
        value = b.load_global_f32(b.elem_addr(data, idx))
        b.ins("add.f32", acc, acc, value)
    b.store_global_f32(b.elem_addr(out, tid), acc)
    return b.build()


def _run(config, rng=None):
    del rng  # identical inputs across configurations by construction
    rt = CudaRuntime(backend=TimingBackend(config))
    rt.load_ptx(_streaming_kernel(), "s.cu")
    n, reads = 64, 32
    fixed = np.random.default_rng(99)
    data = rt.upload_f32(fixed.standard_normal(n * reads)
                         .astype(np.float32))
    out = rt.malloc(4 * n)
    rt.launch("streamer", (2, 1, 1), (32, 1, 1), [data, out, n, reads])
    rt.synchronize()
    return rt.profiles[-1], rt.download_f32(out, n)


class TestDramSchedulerAblation:
    def test_fcfs_closed_row_never_hits(self, rng):
        fcfs = replace(TINY, dram_scheduler="fcfs")
        profile, _ = _run(fcfs, rng)
        assert profile.result.stats["dram_row_hits"] == 0

    def test_frfcfs_open_row_hits_and_is_faster(self, rng):
        frfcfs_profile, frfcfs_out = _run(TINY, rng)
        fcfs_profile, fcfs_out = _run(
            replace(TINY, dram_scheduler="fcfs"), rng)
        assert frfcfs_profile.result.stats["dram_row_hits"] > 0
        # Same functional result, different timing.
        assert np.allclose(frfcfs_out, fcfs_out)
        assert (frfcfs_profile.result.cycles
                < fcfs_profile.result.cycles)


class TestWarpSchedulerAblation:
    @pytest.mark.parametrize("policy", ["lrr", "gto"])
    def test_policies_functionally_identical(self, rng, policy):
        config = replace(TINY, warp_scheduler=policy)
        profile, out = _run(config, rng)
        assert profile.result.cycles > 0
        # Both produce the exact same functional output.
        _, lrr_out = _run(TINY, rng)
        assert np.allclose(out, lrr_out)

    def test_gto_sticks_with_a_warp(self, rng):
        """Under GTO a ready warp keeps issuing; both policies finish
        the kernel but may take different cycle counts."""
        gto = replace(TINY, warp_scheduler="gto")
        gto_profile, _ = _run(gto, rng)
        lrr_profile, _ = _run(TINY, rng)
        assert gto_profile.result.stats["warp_instructions"] == \
            lrr_profile.result.stats["warp_instructions"]

    def test_unknown_policy_falls_back_to_lrr(self, rng):
        # Unknown strings behave as LRR (pick() dispatches on "gto").
        odd = replace(TINY, warp_scheduler="roundest-robin")
        profile, _ = _run(odd, rng)
        assert profile.result.cycles > 0


#: A 32-thread if/else diamond whose taken target ($THEN) is not the
#: join: under IPDOM the two sides rejoin at $JOIN and run the shared
#: tail once; under exit reconvergence each side runs it on its own.
_DIAMOND = """
.version 6.0
.target sm_60
.address_size 64

.visible .entry diamond(.param .u64 out)
{
    .reg .pred %p<1>;
    .reg .b32 %r<2>;
    .reg .b64 %rd<3>;
    ld.param.u64 %rd0, [out];
    mov.u32 %r0, %tid.x;
    setp.lt.u32 %p0, %r0, 16;
@%p0 bra $THEN;
    mov.u32 %r1, 2;
    add.u32 %r1, %r1, %r0;
    bra $JOIN;
$THEN:
    mov.u32 %r1, 1;
    add.u32 %r1, %r1, %r0;
$JOIN:
    add.u32 %r1, %r1, 1;
    add.u32 %r1, %r1, 2;
    add.u32 %r1, %r1, 3;
    add.u32 %r1, %r1, 4;
    mul.wide.u32 %rd1, %r0, 4;
    add.u64 %rd2, %rd0, %rd1;
    st.global.u32 [%rd2], %r1;
    exit;
}
"""

#: (warp instructions, cycles) of the diamond on TINY, each rule alone.
ALONE = {"pdom": (17, 96), "exit": (25, 149)}


def diamond_runs(modes, file_id):
    """Run the diamond once per reconvergence mode in *modes*, in this
    process, every load under *file_id* (hence one parse-cached
    kernel).  Returns ``[(warp_instructions, cycles)]`` and the kernel."""
    want = np.arange(32) + np.where(np.arange(32) < 16, 1, 2) + 10
    results = []
    for mode in modes:
        rt = CudaRuntime(backend=TimingBackend(
            TINY, reconverge_at_exit=mode == "exit"))
        rt.load_ptx(_DIAMOND, file_id)
        out = rt.malloc(4 * 32)
        rt.launch("diamond", 1, 32, [out])
        rt.synchronize()
        got = np.frombuffer(rt.memcpy_d2h(out, 128), np.uint32)
        assert (got == want).all(), mode  # functionally equal
        result = rt.profiles[-1].result
        results.append((result.stats["warp_instructions"], result.cycles))
    return results, rt.program.kernels["diamond"]


class TestReconvergenceAblation:
    def test_exit_reconvergence_executes_more_serially(self):
        """Reconverge-at-exit serialises divergent paths to the end,
        never merging them back: the shared tail issues once per side."""
        [pdom], _ = diamond_runs(["pdom"], "d_pdom.cu")
        [at_exit], _ = diamond_runs(["exit"], "d_exit.cu")
        assert at_exit[0] > pdom[0]       # warp instructions
        assert at_exit[1] > pdom[1]       # cycles


def _canonical(value):
    """A memo entry in a form two kernels' entries compare by."""
    if isinstance(value, MegaPlan):
        return value.to_payload()
    if isinstance(value, list):
        # The step list fills lazily with whatever stepped; a slot's
        # rendering does not depend on the mode that compiled it.
        return len(value)
    if isinstance(value, dict) and any(isinstance(v, Superblock)
                                       for v in value.values()):
        return {pc: block.source for pc, block in value.items()}
    return value


class TestReconvergenceModesShareNothing:
    """Exit reconvergence is a setting of one engine: no run under it
    leaves anything behind that a later IPDOM run (this process or one
    sharing its plan cache) could read."""

    @pytest.mark.parametrize("modes", [("pdom", "exit", "pdom"),
                                       ("exit", "pdom")],
                             ids="-".join)
    @pytest.mark.parametrize("cache", ["disabled", "shared"])
    def test_each_run_reports_its_mode_alone(self, modes, cache,
                                             tmp_path, monkeypatch):
        if cache == "disabled":
            monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        else:
            monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        results, _ = diamond_runs(modes,
                                  f"diamond-{'-'.join(modes)}-{cache}.cu")
        assert results == [ALONE[mode] for mode in modes]

    def test_fresh_process_on_an_exit_runs_cache_reports_pdom(self,
                                                             tmp_path):
        def process(*modes):
            env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
                       PYTHONPATH=os.pathsep.join(
                           [str(ROOT / "src"), str(ROOT)]))
            env.pop("REPRO_CACHE_DISABLE", None)
            script = ("import json, sys\n"
                      "from tests.test_ablations import diamond_runs\n"
                      "runs, _ = diamond_runs(sys.argv[1:], 'diamond.cu')\n"
                      "print(json.dumps(runs))\n")
            proc = subprocess.run(
                [sys.executable, "-c", script, *modes], cwd=ROOT, env=env,
                capture_output=True, text=True, check=True)
            return [tuple(run) for run in json.loads(proc.stdout)]

        process("exit", "pdom")
        assert list(tmp_path.glob("*-megablock.json"))
        assert process("pdom") == [ALONE["pdom"]]

    def test_exit_launch_leaves_the_kernel_memo_untouched(self,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        _, saw_exit = diamond_runs(["pdom", "exit", "pdom"],
                                   "diamond-memo-exit.cu")
        _, never = diamond_runs(["pdom", "pdom"], "diamond-memo-pdom.cu")
        assert saw_exit is not never
        # The exit runs step inside the cycle loop and fuse nothing.
        assert ({key: _canonical(value)
                 for key, value in saw_exit.derived.items()}
                == {key: _canonical(value)
                    for key, value in never.derived.items()})
