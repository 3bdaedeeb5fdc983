"""Parallel CTA fan-out: one launch, many worker processes.

Functional mode executes CTAs independently (the property the paper's
checkpointing already relies on), so a launch's CTA range can be
partitioned into contiguous shards and farmed out to a process pool:

1. the parent snapshots everything a shard needs — the kernel AST
   (a pickled :class:`~repro.ptx.ast.Kernel` leaves its derived facts
   behind; the module backref is dropped here), param/const blocks,
   the global-memory image, quirks — into a :class:`ShardTask`;
2. each worker rebuilds a :class:`LaunchContext` narrowed to its CTA
   range, runs it through the engine of an ordinary
   :class:`~repro.cuda.runtime.FunctionalBackend`, and reports a
   :class:`ShardResult`: byte-exact global-memory *write* runs (diffed
   against the incoming image), merged-ready :class:`RunStats` counts,
   optional per-CTA register state in the checkpoint layer's
   :class:`~repro.checkpoint.state.CTASnapshot` format, and optional
   trace events;
3. the parent applies write runs in ascending shard order (ascending
   CTA order — the order the single-process engine runs them in), sums
   the counters, and merges worker trace events onto per-shard tracks.

The merge is bit-identical to a single-process run for kernels whose
CTAs do not write the same byte with *different* values (racy kernels
have no deterministic single-process answer either); instruction and
per-opcode counts are exact sums and always match.

Workers re-apply the parent's kernel-cache environment at task start
(:func:`repro.functional.kernelcache.apply_env_config`), so long-lived
pool workers honour ``REPRO_CACHE_DIR``/``REPRO_CACHE_DISABLE`` changes
made in the parent after the pool was forked.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro.checkpoint.state import CTASnapshot, capture_cta
from repro.errors import ServiceError
from repro.functional import kernelcache
from repro.cuda.runtime import FunctionalBackend
from repro.cuda.textures import snapshot_textures
from repro.functional.executor import RunStats, partition_ctas
from repro.functional.memory import (
    PAGE_SIZE, CudaArray, GlobalMemory, LinearMemory)
from repro.functional.state import LaunchContext
from repro.ptx.ast import Kernel
from repro.quirks import FIXED, LegacyQuirks
from repro.trace.tracer import NULL_TRACER, TraceEvent, shard_tid

#: Fallback worker count when none is requested.
DEFAULT_SHARDS = max(1, min(8, os.cpu_count() or 1))


@dataclass
class ShardTask:
    """Everything one worker needs to run a contiguous CTA range."""

    kernel: Kernel
    grid_dim: tuple[int, int, int]
    block_dim: tuple[int, int, int]
    param_bytes: bytes
    const_bytes: bytes
    module_symbols: dict[str, tuple[str, int]]
    textures: dict[str, tuple[int, int, bytes]]
    quirks: LegacyQuirks
    memory: dict
    first_cta: int
    limit_cta: int
    fast_mode: str = "superblock"
    capture_registers: bool = False
    trace: bool = False
    clock: int = 0
    #: Arm a shard-local sanitizer; findings ride back on the result.
    sanitize: bool = False
    #: Parent shadow-memory snapshot (initialized-byte maps), so the
    #: shard knows which bytes the host wrote before the launch.
    shadow: dict | None = None
    #: Parent uninitialised-read policy (poison while sanitizing).
    uninit_read: str = "zeros"
    #: Parent-process cache env, re-applied at task start (workers must
    #: not trust the environment they inherited at fork).
    cache_env: dict = field(default_factory=dict)


@dataclass
class ShardResult:
    """What one worker sends back for its CTA range."""

    first_cta: int
    limit_cta: int
    stats: RunStats
    clock_delta: int
    #: Byte-exact runs the shard wrote: ``(absolute addr, payload)``.
    writes: list[tuple[int, bytes]]
    snapshots: list[CTASnapshot] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    pid: int = 0
    #: Shard-local sanitizer findings (``sanitize`` tasks only).
    findings: list = field(default_factory=list)
    san_counters: dict = field(default_factory=dict)


@dataclass
class ShardedRunResult:
    """The merged outcome of one fanned-out launch."""

    stats: RunStats
    shard_ranges: list[tuple[int, int]]
    #: cta_linear -> final-state snapshot (``capture_registers`` only).
    snapshots: dict[int, CTASnapshot] = field(default_factory=dict)
    worker_pids: list[int] = field(default_factory=list)
    #: Deterministically merged sanitizer findings across shards.
    findings: list = field(default_factory=list)
    san_counters: dict = field(default_factory=dict)


def _diff_writes(old: bytes, new: bytes, base_addr: int,
                 out: list[tuple[int, bytes]]) -> None:
    """Append the exact byte runs where *new* differs from *old*.

    Runs are exact — no gap coalescing.  An unchanged byte inside a gap
    still holds the *initial* value, and blindly rewriting it in the
    parent would clobber another shard's write to the same location.
    """
    a = np.frombuffer(old, dtype=np.uint8)
    b = np.frombuffer(new, dtype=np.uint8)
    changed = np.flatnonzero(a != b)
    if changed.size == 0:
        return
    breaks = np.flatnonzero(np.diff(changed) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [changed.size - 1]))
    for s, e in zip(starts, ends):
        lo = int(changed[s])
        hi = int(changed[e]) + 1
        out.append((base_addr + lo, new[lo:hi]))


def _execute_shard(task: ShardTask) -> ShardResult:
    """Worker entry point: run CTAs ``[first_cta, limit_cta)``."""
    kernelcache.apply_env_config(task.cache_env)
    global_mem = GlobalMemory(uninit_read=task.uninit_read)
    global_mem.restore(task.memory)
    sanitizer = None
    if task.sanitize:
        from repro.sanitize.core import Sanitizer
        from repro.sanitize.shadow import attach_shadow
        shadow = attach_shadow(global_mem)
        if task.shadow is not None:
            shadow.restore(task.shadow)
        sanitizer = Sanitizer()
    param_mem = LinearMemory(len(task.param_bytes))
    param_mem.data[:] = task.param_bytes
    const_mem = LinearMemory(len(task.const_bytes))
    const_mem.data[:] = task.const_bytes
    textures = {}
    for name, (width, height, raw) in task.textures.items():
        array = CudaArray(width, height)
        array.upload(raw)
        textures[name] = array
    launch = LaunchContext(
        kernel=task.kernel, grid_dim=task.grid_dim,
        block_dim=task.block_dim, global_mem=global_mem,
        param_mem=param_mem, const_mem=const_mem,
        module_symbols=task.module_symbols, textures=textures,
        quirks=task.quirks, clock=task.clock,
        first_cta=task.first_cta, limit_cta=task.limit_cta)

    tracer = NULL_TRACER
    if task.trace:
        from repro.trace.tracer import Tracer
        tracer = Tracer(process_name=f"shard-{task.first_cta}",
                        cta_spans=True)
        tracer.begin(f"shard ctas {task.first_cta}..{task.limit_cta - 1}",
                     cat="shard")
    backend = FunctionalBackend(fast_mode=task.fast_mode,
                                sanitize=sanitizer)
    backend.tracer = tracer
    snapshots: list[CTASnapshot] = []
    # Per-lane register files only exist on the scalar path, which a
    # per-CTA callback selects; snapshots are in the checkpoint format.
    stats = backend.engine(launch).run(
        on_cta=((lambda cta: snapshots.append(capture_cta(cta)))
                if task.capture_registers else None))

    writes: list[tuple[int, bytes]] = []
    initial = task.memory["pages"]
    # A page the parent never wrote starts out as the policy's fill in
    # the worker too; diffing it against zeros would report every
    # poison byte as a write (and mark it initialised in the parent).
    fresh_page = global_mem.fresh_page()
    for page_id, new in sorted(global_mem.iter_pages()):
        old = initial.get(page_id, fresh_page)
        if old != new:
            _diff_writes(old, new, page_id * PAGE_SIZE, writes)

    events: list[TraceEvent] = []
    if task.trace:
        tracer.finish()
        events = list(tracer.events)
    return ShardResult(
        first_cta=task.first_cta, limit_cta=task.limit_cta, stats=stats,
        clock_delta=launch.clock - task.clock,
        writes=writes, snapshots=snapshots, events=events,
        pid=os.getpid(),
        findings=(sanitizer.findings_list()
                  if sanitizer is not None else []),
        san_counters=(dict(sanitizer.counters)
                      if sanitizer is not None else {}))


class ShardExecutor:
    """Owns a worker pool and fans launches across it.

    The pool is created lazily and reused across launches, so a
    multi-kernel workload (LeNet forward is ~a dozen launches) pays the
    fork cost once.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, shards: int | None = None, *,
                 fast_mode: str = "superblock",
                 capture_registers: bool = False,
                 trace: bool = False,
                 sanitize: bool = False) -> None:
        self.shards = shards or DEFAULT_SHARDS
        self.fast_mode = fast_mode
        self.capture_registers = capture_registers
        self.trace = trace
        self.sanitize = sanitize
        self._pool = None

    # -- pool lifecycle -------------------------------------------------
    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")

    def _get_pool(self):
        if self._pool is None:
            self._pool = self._context().Pool(processes=self.shards)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------
    def execute(self, launch: LaunchContext, *,
                tracer=None) -> ShardedRunResult:
        """Fan *launch*'s CTA extent out, merge, and mutate *launch* in
        place (global memory, clock) exactly as a single-process run
        would."""
        first = launch.first_cta
        ranges = [(first + lo, first + hi) for lo, hi in
                  partition_ctas(launch.limit_cta - first, self.shards)]
        if not ranges:
            return ShardedRunResult(stats=RunStats(), shard_ranges=[])
        # Workers compile their own tiers (warm, via the disk kernel
        # cache); the module would drag every sibling kernel along.
        kernel = replace(launch.kernel, module=None)
        memory = launch.global_mem.snapshot()
        textures = snapshot_textures(launch.kernel, launch.textures)
        cache_env = kernelcache.env_config()
        shadow_state = None
        if self.sanitize and launch.global_mem.shadow is not None:
            shadow_state = launch.global_mem.shadow.snapshot()
        tasks = [ShardTask(
            kernel=kernel, grid_dim=launch.grid_dim,
            block_dim=launch.block_dim,
            param_bytes=bytes(launch.param_mem.data),
            const_bytes=bytes(launch.const_mem.data),
            module_symbols=dict(launch.module_symbols),
            textures=textures, quirks=launch.quirks, memory=memory,
            first_cta=first, limit_cta=limit,
            fast_mode=self.fast_mode,
            capture_registers=self.capture_registers,
            trace=self.trace, clock=launch.clock,
            cache_env=cache_env,
            sanitize=self.sanitize, shadow=shadow_state,
            uninit_read=launch.global_mem.uninit_read,
        ) for first, limit in ranges]
        results = self._get_pool().map(_execute_shard, tasks)
        return self._merge(launch, ranges, results, tracer)

    def _merge(self, launch: LaunchContext,
               ranges: list[tuple[int, int]],
               results: list[ShardResult],
               tracer) -> ShardedRunResult:
        results.sort(key=lambda r: r.first_cta)
        covered = [(r.first_cta, r.limit_cta) for r in results]
        if covered != sorted(ranges):
            raise ServiceError(
                f"shard merge: workers covered {covered}, "
                f"expected {sorted(ranges)}")
        stats = RunStats()
        merged = ShardedRunResult(stats=stats, shard_ranges=covered)
        global_mem = launch.global_mem
        if tracer is None:
            tracer = NULL_TRACER
        base_ts = tracer.clock.now if tracer.enabled else 0.0
        for index, result in enumerate(results):
            stats.merge(result.stats)
            launch.clock += result.clock_delta
            # Ascending shard order == ascending CTA order: on the rare
            # overlapping write, the later CTA wins, as it would have
            # in the single-process loop.
            for addr, payload in result.writes:
                global_mem.write(addr, payload)
            for snapshot in result.snapshots:
                merged.snapshots[snapshot.cta_linear] = snapshot
            merged.worker_pids.append(result.pid)
            if tracer.enabled and result.events:
                first, limit = covered[index]
                tracer.ingest(
                    result.events, tid=shard_tid(index),
                    track_name=f"shard {index} (ctas {first}..{limit - 1})",
                    ts_offset=base_ts)
        if self.sanitize:
            # Ascending shard order makes the merge deterministic: the
            # lowest-CTA shard's message represents each finding key.
            from repro.sanitize.core import Sanitizer
            merged.findings = Sanitizer.merge_findings(
                result.findings for result in results)
            for result in results:
                for key, value in result.san_counters.items():
                    merged.san_counters[key] = (
                        merged.san_counters.get(key, 0) + value)
        return merged


class ShardedFunctionalBackend(FunctionalBackend):
    """A :class:`~repro.cuda.runtime.FunctionalBackend` that fans every
    launch across a :class:`ShardExecutor` worker pool.

    Drop-in for its base class: the whole workload (LeNet forward,
    conv_sample, ...) runs unchanged, each kernel launch transparently
    sharded.  Tiny grids are not worth a round-trip through the pool, so
    launches with fewer CTAs than ``inline_below`` run in-process on the
    base class's path instead, as do launches carrying restored CTAs
    (in-process state no worker has).
    """

    def __init__(self, shards: int | None = None, *,
                 fast_mode: str = "superblock",
                 inline_below: int = 0,
                 sanitize=None) -> None:
        #: ``self.sanitize`` is the parent-side sanitizer: it runs
        #: inline launches directly and accumulates shard-merged
        #: findings from fanned-out ones, so
        #: ``backend.sanitize.findings_list()`` reads the same either way.
        super().__init__(fast_mode=fast_mode, sanitize=sanitize)
        self.executor = ShardExecutor(shards, fast_mode=fast_mode,
                                      sanitize=self.sanitize is not None)
        self.inline_below = inline_below
        #: (kernel name, shard count) per fanned-out launch, for tests
        #: and the service stats endpoint.
        self.fanouts: list[tuple[str, int]] = []

    def execute(self, launch: LaunchContext):
        if launch.num_ctas < max(self.inline_below, 1) or launch.restored:
            return super().execute(launch)
        result = self.executor.execute(launch, tracer=self.tracer)
        shards = len(result.shard_ranges)
        self.fanouts.append((launch.kernel.name, shards))
        if self.sanitize is not None:
            # Fold the shard-merged findings into the parent-side
            # sanitizer through its normal dedup funnel.
            sanitizer = self.sanitize
            sanitizer.kernels.setdefault(launch.kernel.name,
                                         launch.kernel)
            for entry in result.findings:
                sanitizer.record(
                    entry["rule"], entry["kernel"], entry["pc"],
                    entry["message"], count=entry["count"])
            for key, value in result.san_counters.items():
                if key == "findings":
                    continue  # record() above already counted them
                if key == "launches":
                    value = 1  # however many shards armed for it
                sanitizer.counters[key] = (
                    sanitizer.counters.get(key, 0) + value)
        return self.report(launch, result.stats, self.fast_mode,
                           label="sharded", shards=shards)

    def close(self) -> None:
        self.executor.close()
