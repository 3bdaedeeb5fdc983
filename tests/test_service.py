"""Sharded simulation service tests.

The contract under test is the strongest one the service makes: a
launch fanned out across N worker processes is **bit-identical** to the
single-process run — global memory, instruction counts, per-opcode mix,
per-lane registers — at every shard count.  On top of that sit the job
queue's memoization semantics, the REST round-trip, and the concurrency
fixes the fan-out exposed (kernel-cache write races, stale worker
environments, truncated checkpoints).
"""

import json
import multiprocessing
import os
import pickle
import socket
import threading
import urllib.parse

import numpy as np
import pytest

from repro.checkpoint.state import Checkpoint, CTASnapshot, capture_cta
from repro.debugtool.ptxjit import ExtractedKernel
from repro.errors import (
    CheckpointError, DebugToolError, ServiceError, UnknownJobError)
from repro.functional import kernelcache
from repro.functional.executor import (
    Admission, FunctionalEngine, RunStats, partition_ctas)
from repro.functional.memory import GlobalMemory, LinearMemory
from repro.functional.state import CTAState, LaunchContext
from repro.ptx.builder import PTXBuilder, f32
from repro.ptx.parser import parse_module
from repro.service.client import ServiceClient
from repro.service.jobs import job_key, run_conv, run_lenet, run_saxpy
from repro.service.pool import (
    ShardExecutor, ShardResult, ShardedFunctionalBackend, _diff_writes)
from repro.service.rest import MAX_BODY_BYTES, make_server
from repro.service.scheduler import ClusterScheduler
from repro.util import atomicstore
from repro.trace.export import write_chrome_trace
from repro.trace.tracer import TraceEvent, Tracer, shard_tid


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep every test hermetic: no reads/writes of the user cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    kernelcache.reset_counters()


# ---------------------------------------------------------------------------
# Kernels under test
# ---------------------------------------------------------------------------
def _saxpy_ptx() -> str:
    b = PTXBuilder("sax", [("xs", "u64"), ("ys", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    ys = b.ld_param("u64", "ys")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    x = b.reg("f32")
    y = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("ld.global.f32", y, f"[{b.elem_addr(ys, tid)}]")
    b.ins("fma.rn.f32", y, x, f32(2.0), y)
    b.ins("st.global.f32", f"[{b.elem_addr(ys, tid)}]", y)
    return b.build()


def _divergent_ptx() -> str:
    """Within-warp if/else on tid parity: every warp diverges."""
    b = PTXBuilder("divk", [("xs", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    parity = b.reg("u32")
    b.ins("and.b32", parity, tid, "1")
    p = b.reg("pred")
    b.ins("setp.eq.u32", p, parity, "1")
    x = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    odd = b.fresh_label("odd")
    done = b.fresh_label("done")
    b.ins(f"bra {odd}", pred=p)
    b.ins("add.f32", x, x, f32(1.0))
    b.ins(f"bra {done}")
    b.place(odd)
    b.ins("mul.f32", x, x, f32(3.0))
    b.place(done)
    b.ins("st.global.f32", f"[{b.elem_addr(xs, tid)}]", x)
    return b.build()


def _abs_ptx() -> str:
    """``abs`` has no vector emitter: a megablock request runs scalar."""
    b = PTXBuilder("absk", [("xs", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    n = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, n)
    x = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("abs.f32", x, x)
    b.ins("st.global.f32", f"[{b.elem_addr(xs, tid)}]", x)
    return b.build()


def _build_launch(ptx: str, name: str, *, grid=(10, 1, 1),
                  block=(32, 1, 1), seed=3) -> LaunchContext:
    module = parse_module(ptx, "svc")
    kernel = module.kernel(name)
    gm = GlobalMemory()
    n = grid[0] * block[0]
    xs = gm.allocate(4 * n)
    ys = gm.allocate(4 * n)
    rng = np.random.default_rng(seed)
    gm.write(xs, rng.random(n, dtype=np.float32).tobytes())
    gm.write(ys, rng.random(n, dtype=np.float32).tobytes())
    params = {"xs": xs, "ys": ys, "n": n}
    pm = LinearMemory(max(kernel.param_bytes, 16))
    for decl in kernel.params:
        pm.write_uint(decl.offset, params[decl.name], decl.dtype.bytes)
    return LaunchContext(kernel=kernel, grid_dim=grid, block_dim=block,
                         global_mem=gm, param_mem=pm)


def _memory_image(launch: LaunchContext) -> bytes:
    gm = launch.global_mem
    return b"".join(gm.read(base, size)
                    for base in sorted(gm.allocations)
                    for size in (gm.allocations[base],))


def _reference_run(ptx: str, name: str, *, fast_mode="superblock",
                   **kwargs):
    launch = _build_launch(ptx, name, **kwargs)
    stats = FunctionalEngine(launch, fast_mode=fast_mode).run()
    return (_memory_image(launch), stats.instructions,
            dict(stats.dynamic_per_opcode), stats.ctas_launched,
            stats.warps_launched)


# ---------------------------------------------------------------------------
# Shardable launch API
# ---------------------------------------------------------------------------
class TestPartition:
    def test_even_split(self):
        assert partition_ctas(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_spreads_remainder(self):
        ranges = partition_ctas(10, 4)
        assert ranges == [(0, 3), (3, 6), (6, 8), (8, 10)]
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_clamps_shards_to_ctas(self):
        assert partition_ctas(2, 8) == [(0, 1), (1, 2)]

    def test_zero_ctas(self):
        assert partition_ctas(0, 4) == []

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            partition_ctas(8, 0)

    def test_covers_exactly_once(self):
        for num_ctas in (1, 7, 16, 100):
            for shards in (1, 2, 3, 8):
                ranges = partition_ctas(num_ctas, shards)
                flat = [c for lo, hi in ranges for c in range(lo, hi)]
                assert flat == list(range(num_ctas))


class TestRunStatsMerge:
    def test_merge_sums_everything(self):
        a = RunStats(instructions=10, warps_launched=2, ctas_launched=1,
                     dynamic_per_opcode={"add": 4, "ld": 6})
        b = RunStats(instructions=5, warps_launched=1, ctas_launched=1,
                     dynamic_per_opcode={"add": 2, "st": 3})
        a.merge(b)
        assert a.instructions == 15
        assert a.warps_launched == 3
        assert a.ctas_launched == 2
        assert a.dynamic_per_opcode == {"add": 6, "ld": 6, "st": 3}


class TestRunRange:
    @pytest.mark.parametrize("fast_mode", ["reference", "superblock",
                                           "megablock"])
    def test_concatenated_ranges_equal_full_run(self, fast_mode):
        full = _reference_run(_saxpy_ptx(), "sax", fast_mode=fast_mode)
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch, fast_mode=fast_mode)
        stats = RunStats()
        for first, limit in partition_ctas(launch.num_ctas, 3):
            engine.run_range(first, limit, stats)
        assert _memory_image(launch) == full[0]
        assert stats.instructions == full[1]
        assert dict(stats.dynamic_per_opcode) == full[2]

    def test_invalid_range_raises(self):
        launch = _build_launch(_saxpy_ptx(), "sax")
        engine = FunctionalEngine(launch)
        with pytest.raises(ValueError):
            engine.run_range(-1, 2)
        with pytest.raises(ValueError):
            engine.run_range(0, launch.num_ctas + 1)
        with pytest.raises(ValueError):
            engine.run_range(3, 2)


class TestDiffWrites:
    def test_exact_runs_no_gap_coalescing(self):
        old = bytes(16)
        new = bytearray(16)
        new[2] = 7
        new[3] = 8
        new[9] = 1
        out = []
        _diff_writes(bytes(old), bytes(new), 100, out)
        assert out == [(102, bytes([7, 8])), (109, bytes([1]))]

    def test_identical_pages_emit_nothing(self):
        out = []
        _diff_writes(bytes(64), bytes(64), 0, out)
        assert out == []


# ---------------------------------------------------------------------------
# Shard-merge determinism (the tentpole's core guarantee)
# ---------------------------------------------------------------------------
class TestShardDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_saxpy_bit_identical(self, shards):
        ref = _reference_run(_saxpy_ptx(), "sax")
        launch = _build_launch(_saxpy_ptx(), "sax")
        with ShardExecutor(shards) as executor:
            merged = executor.execute(launch)
        assert _memory_image(launch) == ref[0]
        assert merged.stats.instructions == ref[1]
        assert dict(merged.stats.dynamic_per_opcode) == ref[2]
        assert merged.stats.ctas_launched == ref[3]
        assert merged.stats.warps_launched == ref[4]
        assert len(merged.shard_ranges) == min(shards, launch.num_ctas)

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_divergent_kernel_bit_identical(self, shards):
        ref = _reference_run(_divergent_ptx(), "divk")
        launch = _build_launch(_divergent_ptx(), "divk")
        with ShardExecutor(shards) as executor:
            merged = executor.execute(launch)
        assert _memory_image(launch) == ref[0]
        assert merged.stats.instructions == ref[1]
        assert dict(merged.stats.dynamic_per_opcode) == ref[2]

    @pytest.mark.parametrize("shards", [2, 8])
    def test_per_lane_registers_match_reference(self, shards):
        # Reference: drive each CTA through the scalar engine and capture
        # its final state in the checkpoint format.
        ref_launch = _build_launch(_divergent_ptx(), "divk")
        engine = FunctionalEngine(ref_launch, fast_mode="superblock")
        reference: dict[int, CTASnapshot] = {}
        for cta_linear in range(ref_launch.num_ctas):
            cta = CTAState(ref_launch, cta_linear)
            engine.run_cta(cta)
            reference[cta_linear] = capture_cta(cta)

        launch = _build_launch(_divergent_ptx(), "divk")
        with ShardExecutor(shards, capture_registers=True) as executor:
            merged = executor.execute(launch)
        assert sorted(merged.snapshots) == sorted(reference)
        for cta_linear, snapshot in merged.snapshots.items():
            want = reference[cta_linear]
            assert snapshot.shared == want.shared
            assert len(snapshot.warps) == len(want.warps)
            for got_warp, want_warp in zip(snapshot.warps, want.warps):
                assert got_warp.regs == want_warp.regs
                assert got_warp.simt == want_warp.simt
                assert (got_warp.instructions_executed
                        == want_warp.instructions_executed)

    def test_multiple_workers_used(self):
        launch = _build_launch(_saxpy_ptx(), "sax", grid=(8, 1, 1))
        with ShardExecutor(4) as executor:
            merged = executor.execute(launch)
        assert len(merged.worker_pids) == 4
        assert os.getpid() not in merged.worker_pids

    def test_lenet_forward_bit_identical_across_shard_counts(self):
        ref = run_lenet({}, 5)
        for shards in (1, 2):
            sharded = run_lenet({"shards": shards}, 5)
            assert sharded["digest"] == ref["digest"]
            assert sharded["logits_sha256"] == ref["logits_sha256"]
            assert sharded["instructions"] == ref["instructions"]

    def test_conv_forward_bit_identical(self):
        ref = run_conv({}, 7)
        sharded = run_conv({"shards": 4}, 7)
        assert sharded["digest"] == ref["digest"]
        assert sharded["instructions"] == ref["instructions"]


class TestShardedBackend:
    def test_small_grids_run_inline(self):
        backend = ShardedFunctionalBackend(2, inline_below=100)
        launch = _build_launch(_saxpy_ptx(), "sax")
        backend.execute(launch)
        backend.close()
        assert backend.fanouts == []

    def test_fanouts_recorded(self):
        backend = ShardedFunctionalBackend(2)
        launch = _build_launch(_saxpy_ptx(), "sax")
        backend.execute(launch)
        backend.close()
        assert backend.fanouts == [("sax", 2)]

    def test_inline_after_fanout_is_a_functional_slice(self):
        """An inline launch is the base class's launch: a ``functional:``
        slice with no shard count — not ``sharded:`` carrying the
        previous fan-out's."""
        backend = ShardedFunctionalBackend(2)
        backend.tracer = tracer = Tracer()
        backend.execute(_build_launch(_saxpy_ptx(), "sax"))
        backend.inline_below = 100
        backend.execute(_build_launch(_saxpy_ptx(), "sax"))
        backend.close()
        slices = [(e.name, e.args.get("shards")) for e in tracer.events
                  if e.cat == "engine" and "tier" in (e.args or {})]
        assert slices == [("sharded:sax", 2), ("functional:sax", None)]

    def test_slice_reports_what_the_workers_ran(self):
        """Each worker sends its engine's admission back: a megablock
        request the kernel cannot vectorise reports superblock and why,
        and a register capture reports the per-CTA callback."""
        backend = ShardedFunctionalBackend(2, fast_mode="megablock")
        backend.tracer = tracer = Tracer()
        backend.execute(_build_launch(_abs_ptx(), "absk"))
        backend.close()
        (args,) = [e.args for e in tracer.events
                   if e.cat == "engine" and "tier" in (e.args or {})]
        assert args["tier"] == "superblock"
        assert args["tier_why"].startswith("no vector plan (")
        assert "abs" in args["tier_why"]
        with ShardExecutor(2, fast_mode="megablock",
                           capture_registers=True) as executor:
            merged = executor.execute(_build_launch(_saxpy_ptx(), "sax"))
        assert merged.admission[:2] == ("superblock", "on_cta")

    def test_shards_that_ran_different_tiers_do_not_merge(self):
        launch = _build_launch(_saxpy_ptx(), "sax", grid=(2, 1, 1))
        results = [
            ShardResult(first_cta=cta, limit_cta=cta + 1, stats=RunStats(),
                        clock_delta=0, writes=[], admission=admission)
            for cta, admission in enumerate([
                Admission("megablock", None, None),
                Admission("superblock", "cta_spans", None)])]
        with pytest.raises(ServiceError, match="different tiers"):
            ShardExecutor(2)._merge(launch, [(0, 1), (1, 2)], results,
                                    None)


# ---------------------------------------------------------------------------
# Kernel-cache concurrency (satellites 1 and 2)
# ---------------------------------------------------------------------------
def _store_worker(args):
    """One stress-test writer process: hammer the same cache entry."""
    cache_env, ptx, rounds = args
    kernelcache.apply_env_config(cache_env)
    module = parse_module(ptx, "stress")
    kernel = module.kernel("sax")
    ok = 0
    for i in range(rounds):
        if kernelcache.store(kernel, "megablock",
                             {"round": i, "pid": os.getpid()},
                             plan_format=1, analysis_version=1):
            ok += 1
    return ok


class TestKernelcacheConcurrency:
    def test_parallel_writers_never_corrupt_the_entry(self, tmp_path):
        """N processes store the same key concurrently; every store
        succeeds (wins or benign race loss) and the surviving entry is
        valid — never a torn or half-renamed hybrid."""
        cache_env = kernelcache.env_config()
        ptx = _saxpy_ptx()
        workers, rounds = 4, 25
        ctx = multiprocessing.get_context(
            "fork" if "fork"
            in multiprocessing.get_all_start_methods() else "spawn")
        with ctx.Pool(workers) as pool:
            counts = pool.map(_store_worker,
                              [(cache_env, ptx, rounds)] * workers)
        assert counts == [rounds] * workers
        module = parse_module(ptx, "stress")
        kernel = module.kernel("sax")
        payload = kernelcache.load(kernel, "megablock",
                                   plan_format=1, analysis_version=1)
        assert payload is not None
        assert payload["round"] == rounds - 1

    def test_unique_temp_names_per_process(self, tmp_path, monkeypatch):
        """The staging name embeds the writer's pid, so two processes
        can never collide on it (the root cause of the original race)."""
        seen = {}
        real_mkstemp = atomicstore.tempfile.mkstemp

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(atomicstore.tempfile, "mkstemp", spy)
        module = parse_module(_saxpy_ptx(), "tmpname")
        kernelcache.store(module.kernel("sax"), "t", {"x": 1},
                          plan_format=1, analysis_version=1)
        assert seen["prefix"] == f".{os.getpid()}-"

    def test_lost_rename_race_is_benign(self, tmp_path, monkeypatch):
        """A failed rename counts as success when an equivalent valid
        entry exists (another writer won); a hard failure without a
        usable entry still reports False."""
        module = parse_module(_saxpy_ptx(), "race")
        kernel = module.kernel("sax")
        assert kernelcache.store(kernel, "t", {"x": 1},
                                 plan_format=1, analysis_version=1)

        def lose_the_race(src, dst):
            raise OSError("simulated rename race loss")

        monkeypatch.setattr(kernelcache.os, "replace", lose_the_race)
        kernelcache.reset_counters()
        assert kernelcache.store(kernel, "t", {"x": 2},
                                 plan_format=1, analysis_version=1)
        assert kernelcache.counters()["stores"] == 1
        # No valid entry to fall back on -> genuine failure.
        assert not kernelcache.store(kernel, "other-tier", {"x": 3},
                                     plan_format=1, analysis_version=1)
        # The loser's temp file must not linger.
        leftovers = [name for name in os.listdir(kernelcache.cache_dir())
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_workers_reresolve_cache_env_at_task_start(
            self, tmp_path, monkeypatch):
        """An operator pointing REPRO_CACHE_DIR somewhere new after the
        pool has forked must affect the very next task — workers apply
        the parent's env snapshot at task start, not at fork."""
        launch = _build_launch(_saxpy_ptx(), "sax")
        with ShardExecutor(2, fast_mode="megablock") as executor:
            executor.execute(launch)  # pool is now forked and warm
            late_dir = tmp_path / "late-cache"
            monkeypatch.setenv("REPRO_CACHE_DIR", str(late_dir))
            launch2 = _build_launch(_saxpy_ptx(), "sax")
            executor.execute(launch2)
        entries = [name for name in os.listdir(late_dir)
                   if name.endswith(".json")]
        assert entries, "workers kept using the env inherited at fork"

    def test_env_config_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        snapshot = kernelcache.env_config()
        monkeypatch.delenv("REPRO_CACHE_DISABLE")
        assert kernelcache.enabled()
        kernelcache.apply_env_config(snapshot)
        assert not kernelcache.enabled()
        monkeypatch.delenv("REPRO_CACHE_DISABLE")


class TestAtomicWrite:
    def test_failed_write_keeps_old_target_and_no_temp(
            self, tmp_path, monkeypatch):
        target = tmp_path / "sub" / "store.bin"
        atomicstore.atomic_write(target, b"old")
        assert target.read_bytes() == b"old"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomicstore.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            atomicstore.atomic_write(target, b"new")
        assert target.read_bytes() == b"old"
        assert os.listdir(target.parent) == ["store.bin"]


# ---------------------------------------------------------------------------
# Checkpoint robustness (satellite 3)
# ---------------------------------------------------------------------------
#: The pickled on-disk formats: one of each, and the typed error its
#: ``load`` owes for a missing, truncated or foreign file.
def _pickled_formats():
    return [
        (Checkpoint(kernel_ordinal=0, first_cta=0, partial_ctas=0,
                    warp_instruction_budget=100, kernel_name="k"),
         CheckpointError),
        (ExtractedKernel(name="k", ptx="", grid=(1, 1, 1),
                         block=(1, 1, 1), args=[]),
         DebugToolError),
    ]


class TestCheckpointRobustness:
    def _checkpoint(self) -> Checkpoint:
        return _pickled_formats()[0][0]

    def test_truncated_file_raises_typed_error_with_path(self, tmp_path):
        for value, error in _pickled_formats():
            path = tmp_path / "trunc.ckpt"
            value.save(path)
            raw = path.read_bytes()
            path.write_bytes(raw[:len(raw) // 2])
            with pytest.raises(error) as excinfo:
                type(value).load(path)
            assert str(path) in str(excinfo.value)

    def test_garbage_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a pickle at all")
        for value, error in _pickled_formats():
            with pytest.raises(error):
                type(value).load(path)

    def test_wrong_object_raises_typed_error(self, tmp_path):
        path = tmp_path / "wrong.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        for value, error in _pickled_formats():
            with pytest.raises(error):
                type(value).load(path)

    def test_missing_file_raises_typed_error_with_path(self, tmp_path):
        for value, error in _pickled_formats():
            with pytest.raises(error, match="missing.bin"):
                type(value).load(tmp_path / "missing.bin")

    def test_save_leaves_no_temp_files(self, tmp_path):
        for value, _ in _pickled_formats():
            value.save(tmp_path / "ok.ckpt")
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_failed_save_cleans_up_temp(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomicstore.os, "replace", boom)
        with pytest.raises(OSError):
            self._checkpoint().save(tmp_path / "fail.ckpt")
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Job queue (tentpole part 2)
# ---------------------------------------------------------------------------
class TestJobKey:
    def test_key_is_order_insensitive(self):
        assert (job_key("conv", {"a": 1, "b": 2}, 3)
                == job_key("conv", {"b": 2, "a": 1}, 3))

    def test_key_distinguishes_inputs(self):
        base = job_key("conv", {"a": 1}, 3)
        assert job_key("conv", {"a": 2}, 3) != base
        assert job_key("conv", {"a": 1}, 4) != base
        assert job_key("lenet", {"a": 1}, 3) != base


class TestJobQueue:
    """The scheduler's queue contract on the real registry: memo hits,
    coalescing, failure isolation and the observation calls."""

    def test_memo_hit_on_repeat_submission(self):
        with ClusterScheduler(gpus=1, memo_path=None) as queue:
            first = queue.submit("saxpy", {"n": 64}, seed=1)
            result = queue.result(first.job_id, timeout=60)
            second = queue.submit("saxpy", {"n": 64}, seed=1)
            assert second.memo_hit
            assert second.state == "done"
            assert second.result == result
            stats = queue.stats()
            assert stats["executed"] == 1
            assert stats["memo_hits"] == 1

    def test_concurrent_identical_submissions_coalesce(self):
        release = threading.Event()
        started = threading.Event()

        def slow_runner(config, seed, control):
            started.set()
            assert release.wait(30)
            return {"value": 42}

        with ClusterScheduler(gpus=2, registry={"slow": slow_runner},
                              memo_path=None) as queue:
            leader = queue.submit("slow", {}, seed=0)
            assert started.wait(30)
            follower = queue.submit("slow", {}, seed=0)
            assert follower.memo_hit
            release.set()
            assert queue.result(leader.job_id, timeout=30) == {"value": 42}
            assert queue.result(follower.job_id,
                                timeout=30) == {"value": 42}
            stats = queue.stats()
            assert stats["executed"] == 1
            assert stats["coalesced"] == 1

    def test_failed_job_reports_error_and_poisons_nothing(self):
        def bad_runner(config, seed, control):
            raise RuntimeError("kernel exploded")

        with ClusterScheduler(gpus=1, memo_path=None,
                              registry={"bad": bad_runner,
                                        "saxpy": run_saxpy}) as queue:
            job = queue.submit("bad", {}, seed=0)
            with pytest.raises(ServiceError, match="kernel exploded"):
                queue.result(job.job_id, timeout=30)
            assert queue.poll(job.job_id) == "error"
            # Errors are not memoized: a resubmission runs again.
            retry = queue.submit("bad", {}, seed=0)
            assert not retry.memo_hit
            # And the queue keeps serving other work.
            good = queue.submit("saxpy", {"n": 64}, seed=2)
            assert queue.result(good.job_id, timeout=60)["n"] == 64

    def test_unknown_workload_rejected_at_submit(self):
        with ClusterScheduler(gpus=1, memo_path=None) as queue:
            with pytest.raises(ServiceError, match="unknown workload"):
                queue.submit("nope", {}, seed=0)

    def test_unknown_job_id(self):
        with ClusterScheduler(gpus=1, memo_path=None) as queue:
            for call in (queue.status, queue.poll, queue.result,
                         queue.cancel, queue.events):
                with pytest.raises(UnknownJobError,
                                   match="unknown job id"):
                    call("job-999999")

    def test_jobs_listing_ordered_without_results(self):
        with ClusterScheduler(gpus=1, memo_path=None) as queue:
            a = queue.submit("saxpy", {"n": 64}, seed=1)
            queue.result(a.job_id, timeout=60)
            b = queue.submit("saxpy", {"n": 64}, seed=1)
            records = queue.jobs()
            assert [r["job_id"] for r in records] == [a.job_id, b.job_id]
            assert all("result" not in r for r in records)


# ---------------------------------------------------------------------------
# REST front door + client (tentpole part 2, satellite 6's shape)
# ---------------------------------------------------------------------------
@pytest.fixture()
def service():
    queue = ClusterScheduler(memo_path=None)
    server = make_server(queue, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield client
    server.shutdown()
    server.server_close()
    queue.shutdown(wait=False)


class TestRestService:
    def test_health_and_workloads(self, service):
        assert service.health() == {"ok": True}
        assert "saxpy" in service.workloads()

    def test_submit_twice_second_is_memoized(self, service):
        first = service.submit("saxpy", {"n": 128}, seed=3)
        assert not first["memo_hit"]
        result = service.result(first["job_id"], timeout=60)
        second = service.submit("saxpy", {"n": 128}, seed=3)
        assert second["memo_hit"]
        assert second["state"] == "done"
        assert second["result"] == result
        stats = service.stats()
        assert stats["executed"] == 1
        assert stats["memo_hits"] == 1
        assert "kernelcache" in stats

    def test_job_listing_and_record(self, service):
        job = service.submit("saxpy", {"n": 64}, seed=9)
        service.result(job["job_id"], timeout=60)
        listed = service.jobs()
        assert any(j["job_id"] == job["job_id"] for j in listed)
        record = service.job(job["job_id"])
        assert record["state"] == "done"
        assert record["result"]["workload"] == "saxpy"

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            service.job("job-424242")

    def test_bad_submissions_are_400(self, service):
        with pytest.raises(ServiceError, match="HTTP 400"):
            service.submit("no-such-workload")
        with pytest.raises(ServiceError, match="HTTP 400"):
            service._request("POST", "/api/jobs", {"config": {}})

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            service._request("GET", "/api/nope")


def _raw_post(service, headers: list[str], body: bytes = b"") -> int:
    """POST /api/jobs over a bare socket; returns the HTTP status.

    The 1 s socket timeout is the assertion that the server answers a
    malformed length at once instead of waiting on the body.
    """
    url = urllib.parse.urlsplit(service.base_url)
    with socket.create_connection((url.hostname, url.port),
                                  timeout=1.0) as sock:
        head = "\r\n".join(["POST /api/jobs HTTP/1.1",
                            f"Host: {url.hostname}", *headers, "", ""])
        sock.sendall(head.encode() + body)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


class TestRestInputHardening:
    def test_negative_content_length_is_400(self, service):
        assert _raw_post(service, ["Content-Length: -1"]) == 400
        assert service.health() == {"ok": True}

    def test_oversized_content_length_is_413_unread(self, service):
        # Far more bytes promised than sent: the server must refuse on
        # the header alone rather than block reading the body.
        status = _raw_post(
            service, [f"Content-Length: {MAX_BODY_BYTES + 1}"], b"{}")
        assert status == 413
        assert service.health() == {"ok": True}

    def test_body_at_the_cap_is_still_read(self, service):
        spec = {"workload": "saxpy", "config": {"n": 8}, "pad": ""}
        spec["pad"] = "x" * (MAX_BODY_BYTES - len(json.dumps(spec)))
        body = json.dumps(spec).encode()
        assert len(body) == MAX_BODY_BYTES
        assert _raw_post(
            service, [f"Content-Length: {len(body)}"], body) == 202

    def test_negative_since_is_400(self, service):
        job = service.submit("saxpy", {"n": 8})
        with pytest.raises(ServiceError, match="HTTP 400.*since"):
            service.events(job["job_id"], since=-1, timeout_s=0)
        assert service.health() == {"ok": True}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_are_400(self, service, value):
        with pytest.raises(ServiceError, match="HTTP 400.*deadline_s"):
            service.submit("saxpy", {"n": 8}, deadline_s=value)
        job = service.submit("saxpy", {"n": 8})
        for tail in ("result", "events"):
            with pytest.raises(ServiceError, match="HTTP 400.*timeout_s"):
                service._request(
                    "GET",
                    f"/api/jobs/{job['job_id']}/{tail}?timeout_s={value}")
        assert service.result(job["job_id"], timeout=60)["n"] == 8

    def test_unknown_job_is_404_on_every_job_route(self, service):
        for method, tail in (("GET", ""), ("GET", "/result"),
                             ("GET", "/events"), ("POST", "/cancel")):
            with pytest.raises(ServiceError, match="HTTP 404"):
                service._request(method, f"/api/jobs/job-424242{tail}")


# ---------------------------------------------------------------------------
# Trace merging (per-worker tracks in one Chrome trace)
# ---------------------------------------------------------------------------
class TestTraceMerging:
    def test_ingest_rehomes_events_onto_shard_track(self):
        tracer = Tracer()
        events = [
            TraceEvent(name="cta", ph="B", ts=1.0, pid=1, tid=3,
                       cat="engine"),
            TraceEvent(name="cta", ph="E", ts=2.5, pid=1, tid=3,
                       cat="engine"),
        ]
        tracer.ingest(events, tid=shard_tid(1), track_name="shard 1",
                      ts_offset=10.0)
        merged = [e for e in tracer.events if e.name == "cta"]
        assert [e.tid for e in merged] == [shard_tid(1)] * 2
        assert [e.ts for e in merged] == [11.0, 12.5]

    def test_sharded_launch_merges_worker_tracks(self, tmp_path):
        tracer = Tracer()
        launch = _build_launch(_saxpy_ptx(), "sax")
        with ShardExecutor(2, trace=True) as executor:
            executor.execute(launch, tracer=tracer)
        tracer.finish()
        tids = {e.tid for e in tracer.events if e.tid >= shard_tid(0)}
        assert shard_tid(0) in tids and shard_tid(1) in tids
        out = tmp_path / "sharded.json"
        write_chrome_trace(out, tracer)
        doc = json.loads(out.read_text())
        names = {e.get("args", {}).get("name")
                 for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "thread_name"}
        assert any(name and name.startswith("shard 0") for name in names)
