"""Job records, workload runners and the structural memo table.

A job is a ``(workload, config, seed)`` triple; its **structural key**
is the SHA-256 of the canonicalized triple, and results are memoized on
that key — a repeat submission is a cache hit that completes instantly,
and concurrent submissions of the same key coalesce onto one execution.
This is the sweep-economics shape SimNet motivates: a parameter sweep
resubmitting thousands of near-duplicate simulations pays for each
distinct configuration once.  The engine that queues and runs jobs is
:class:`repro.service.scheduler.ClusterScheduler`.

Workloads are looked up in a registry of named runners
``(config, seed, control)``.  Each runner builds a fresh
:class:`~repro.cuda.runtime.CudaRuntime` per execution (jobs never
share mutable simulator state; what they *do* share is the process-wide
warm kernel/compile cache) and returns a JSON-able result: an
allocation digest, instruction totals and a per-kernel launch table.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import JobCancelled, ServiceError
from repro.util.atomicstore import atomic_write

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, ERROR, CANCELLED})


def job_key(workload: str, config: dict | None, seed: int) -> str:
    """Structural memo key: equal inputs -> equal key, always."""
    canonical = json.dumps(
        {"workload": workload, "config": config or {}, "seed": seed},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Cooperative cancellation + progress
# ---------------------------------------------------------------------------
class JobControl:
    """Handle a runner uses to report progress and observe cancellation.

    The scheduler hands every running job one of these; the kernel
    hooks of the job's runtime (and any runner that wants finer
    granularity) call :meth:`progress` at natural boundaries — after
    each kernel launch,
    which on the sharded path is a full shard fan-out + merge.  Each
    call emits a ``shard-progress`` event on the job and then
    :meth:`check`\\ s for a requested cancel or an expired deadline,
    raising :class:`~repro.errors.JobCancelled` to unwind the workload.
    Cancellation is therefore *cooperative*: a queued job dies
    instantly, a running job dies at its next shard boundary.
    """

    def __init__(self, job: "Job") -> None:
        self.job = job

    def check(self) -> None:
        """Raise :class:`JobCancelled` if the job should stop now."""
        job = self.job
        if job.cancel_requested:
            raise JobCancelled(f"job {job.job_id} cancelled")
        if job.deadline_s is not None \
                and time.time() - job.submitted_at > job.deadline_s:
            job.cancel_requested = True
            raise JobCancelled(
                f"job {job.job_id} exceeded its {job.deadline_s}s "
                "deadline while running")

    def progress(self, stage: str, **data) -> None:
        """Emit a ``shard-progress`` event, then :meth:`check`."""
        self.job.emit("shard-progress", stage=stage, **data)
        self.check()


class NullJobControl(JobControl):
    """The no-op control: never cancels, records nothing."""

    def __init__(self) -> None:  # no job to carry
        pass

    def check(self) -> None:
        """Never raises."""

    def progress(self, stage: str, **data) -> None:
        """Discards the event."""


#: Shared stub for callers without a scheduler (direct runner calls).
NULL_CONTROL = NullJobControl()


# ---------------------------------------------------------------------------
# Workload runners
# ---------------------------------------------------------------------------
def _make_runtime(config: dict, control: JobControl = NULL_CONTROL):
    """Build the device a job asked for.

    ``config["shards"]`` switches the launch path to the multiprocessing
    CTA fan-out; otherwise the in-process tier named by
    ``config["fast_mode"]`` (default megablock — the fast sweep tier).
    ``config["sanitize"]`` arms the shadow-state sanitizer on either
    path; its findings ride back on the job result.  Every kernel
    launch is a launch boundary for *control* through the runtime's
    kernel hooks: cancellation is checked before the launch and
    progress reported after it, so a multi-kernel workload (LeNet
    forward is ~a dozen launches) streams per-launch events and can be
    cancelled between launches without poisoning the worker.
    """
    from repro.cuda.runtime import CudaRuntime, FunctionalBackend
    from repro.service.pool import ShardedFunctionalBackend
    fast_mode = config.get("fast_mode", "megablock")
    sanitize = bool(config.get("sanitize"))
    shards = config.get("shards")
    if shards:
        backend = ShardedFunctionalBackend(
            int(shards), fast_mode=fast_mode, sanitize=sanitize)
    else:
        backend = FunctionalBackend(fast_mode=fast_mode, sanitize=sanitize)
    runtime = CudaRuntime(backend=backend)
    profiles = runtime.profiles  # not the runtime: no cycle through it
    runtime.before_kernel_hooks.append(lambda *_launch: control.check())
    runtime.after_kernel_hooks.append(
        lambda _ordinal, name, *_dims: control.progress(
            "launch", kernel=name,
            instructions=profiles[-1].instructions))
    return runtime


def _finish(runtime, workload: str, extra: dict) -> dict:
    """Synchronize, digest memory, and build the JSON-able job result."""
    runtime.synchronize()
    backend = runtime.backend
    kernels: dict[str, int] = {}
    for profile in runtime.profiles:
        kernels[profile.name] = kernels.get(profile.name, 0) + 1
    result = {
        "workload": workload,
        "digest": runtime.global_mem.digest(),
        "instructions": sum(p.result.instructions
                            for p in runtime.profiles),
        "launches": len(runtime.profiles),
        "kernels": kernels,
    }
    result.update(extra)
    sanitizer = backend.sanitize
    if sanitizer is not None:
        result["sanitize"] = {
            "findings": sanitizer.findings_list(),
            "counters": dict(sanitizer.counters),
        }
    if hasattr(backend, "close"):
        backend.close()
    return result


def run_saxpy(config: dict, seed: int,
              control: JobControl = NULL_CONTROL) -> dict:
    """A tiny single-kernel job (the smoke-test workload)."""
    from repro.ptx.builder import PTXBuilder, f32
    n = int(config.get("n", 256))
    scale = float(config.get("scale", 2.0))
    rt = _make_runtime(config, control)
    b = PTXBuilder("saxpy", [("xs", "u64"), ("ys", "u64"), ("n", "u32")])
    xs = b.ld_param("u64", "xs")
    ys = b.ld_param("u64", "ys")
    count = b.ld_param("u32", "n")
    tid = b.global_tid_x()
    b.guard_tid_below(tid, count)
    x = b.reg("f32")
    y = b.reg("f32")
    b.ins("ld.global.f32", x, f"[{b.elem_addr(xs, tid)}]")
    b.ins("ld.global.f32", y, f"[{b.elem_addr(ys, tid)}]")
    b.ins("fma.rn.f32", y, x, f32(scale), y)
    b.ins("st.global.f32", f"[{b.elem_addr(ys, tid)}]", y)
    rt.load_ptx(b.build(), "service_saxpy")
    rng = np.random.default_rng(seed)
    xs_ptr = rt.upload_f32(rng.random(n, dtype=np.float32))
    ys_ptr = rt.upload_f32(rng.random(n, dtype=np.float32))
    rt.launch("saxpy", ((n + 63) // 64, 1, 1), (64, 1, 1),
              [xs_ptr, ys_ptr, n])
    return _finish(rt, "saxpy", {"n": n})


def run_conv(config: dict, seed: int,
             control: JobControl = NULL_CONTROL) -> dict:
    """conv_sample forward convolutions over the requested algorithms."""
    from repro.cudnn import ConvFwdAlgo
    from repro.workloads.conv_sample import ConvSample, ConvSampleConfig
    rt = _make_runtime(config, control)
    geometry = {name: int(config[name]) for name in
                ("batch", "channels", "height", "width", "filters")
                if name in config}
    sample = ConvSample(rt, ConvSampleConfig(seed=seed, **geometry))
    algo_names = config.get("algos", ["IMPLICIT_GEMM"])
    try:
        algos = [ConvFwdAlgo[name] for name in algo_names]
    except KeyError as exc:
        raise ServiceError(f"unknown conv algorithm {exc}") from exc
    for algo in algos:
        sample.run_forward(algo)
        control.progress("algo", algo=algo.name)
    return _finish(rt, "conv", {"algos": list(algo_names)})


def run_lenet(config: dict, seed: int,
              control: JobControl = NULL_CONTROL) -> dict:
    """Reduced LeNet forward pass (the paper's MNIST net at CI scale)."""
    from repro.cudnn import Cudnn, build_application_binary
    from repro.nn.lenet import LeNet, LeNetConfig
    rt = _make_runtime(config, control)
    rt.load_binary(build_application_binary())
    lenet_config = LeNetConfig.reduced()
    model = LeNet(Cudnn(rt), lenet_config)
    rng = np.random.default_rng(seed)
    images = rng.standard_normal(
        (int(config.get("images", 1)), lenet_config.in_channels,
         lenet_config.input_hw, lenet_config.input_hw)
        ).astype(np.float32)
    logits = model.forward(images)
    return _finish(rt, "lenet",
                   {"logits_sha256": hashlib.sha256(
                       logits.tobytes()).hexdigest()})


#: Named workloads a job may submit.
REGISTRY = {
    "saxpy": run_saxpy,
    "conv": run_conv,
    "lenet": run_lenet,
}


# ---------------------------------------------------------------------------
# The job record
# ---------------------------------------------------------------------------
@dataclass
class Job:
    """One submission's full lifecycle record."""

    job_id: str
    key: str
    workload: str
    config: dict
    seed: int
    state: str = QUEUED
    memo_hit: bool = False
    result: dict | None = None
    error: str | None = None
    submitted_at: float = 0.0
    finished_at: float | None = None
    #: Higher runs first under the ``priority`` policy; default 0.
    priority: int = 0
    #: Wall-second budget from submission; ``None`` = no deadline.
    deadline_s: float | None = None
    #: Fair-share group; defaults to the workload name when unset.
    tenant: str | None = None
    #: Index of the simulated GPU the job ran on (``None`` if never
    #: assigned — memo hits and queued cancellations).
    gpu: int | None = None
    #: Wall time the scheduler handed the job to a GPU worker.
    assigned_at: float | None = None
    #: Set by :meth:`request_cancel`; observed at shard boundaries.
    cancel_requested: bool = False
    #: Full worker traceback when ``state == "error"`` — the structured
    #: failure signal operators read instead of a bare message.
    traceback: str | None = None
    #: Streaming progress events (queued/assigned/shard-progress/...).
    events: list = field(default_factory=list, repr=False)
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False)
    event_cond: threading.Condition = field(
        default_factory=threading.Condition, repr=False)

    @property
    def terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in TERMINAL_STATES

    def emit(self, kind: str, **data) -> None:
        """Append one progress event and wake long-poll watchers.

        Events are monotonically sequenced dicts (``seq``, ``kind``,
        ``ts`` plus *data*); ``GET /api/jobs/<id>/events?since=N``
        serves the suffix from ``seq >= N``.
        """
        with self.event_cond:
            self.events.append({
                "seq": len(self.events), "kind": kind,
                "ts": time.time(), **data})
            self.event_cond.notify_all()

    def request_cancel(self) -> None:
        """Flag the job for cooperative cancellation (idempotent)."""
        if not self.cancel_requested and not self.terminal:
            self.cancel_requested = True
            self.emit("cancel-requested")

    def to_dict(self, *, with_result: bool = True) -> dict:
        """JSON-able job record (the REST ``/api/jobs/<id>`` shape)."""
        record = {
            "job_id": self.job_id,
            "key": self.key,
            "workload": self.workload,
            "config": self.config,
            "seed": self.seed,
            "state": self.state,
            "memo_hit": self.memo_hit,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "tenant": self.tenant,
            "gpu": self.gpu,
            "assigned_at": self.assigned_at,
            "cancel_requested": self.cancel_requested,
            "events_seen": len(self.events),
        }
        if self.error is not None:
            record["error"] = self.error
        if self.traceback is not None:
            record["traceback"] = self.traceback
        if with_result and self.result is not None:
            record["result"] = self.result
        return record


# ---------------------------------------------------------------------------
# Persistent memoization
# ---------------------------------------------------------------------------
class MemoTable:
    """The job memo table, optionally persisted to one JSON file.

    With a *path*, every completed result is published with the
    same discipline as :mod:`repro.functional.kernelcache`: staged to a
    pid-unique temp file, published with an atomic ``os.replace``, and
    on load a corrupt / truncated / wrong-format file is **discarded
    and deleted**, never trusted — the memo is a cache, losing it only
    costs re-simulation.  This is what lets a thousand-job sweep
    survive a ``repro-serve`` restart: resubmitted configurations come
    back as instant memo hits.

    Without a *path* it is a plain in-memory dict (what tests and the
    benchmark use for hermeticity).
    """

    #: On-disk schema version; bump to invalidate old files.
    FORMAT = 1

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._save_lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        #: True when a persisted table was successfully read back.
        self.loaded_from_disk = False
        if path is not None:
            self._load()

    def _discard(self) -> None:
        """Delete an unusable on-disk table (best effort)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            return
        except (OSError, ValueError):
            self._discard()
            return
        memo = doc.get("memo") if isinstance(doc, dict) else None
        if not isinstance(doc, dict) or doc.get("format") != self.FORMAT \
                or not isinstance(memo, dict):
            self._discard()
            return
        self._entries = {key: value for key, value in memo.items()
                         if isinstance(value, dict)}
        self.loaded_from_disk = True

    def get(self, key: str) -> dict | None:
        """Cached result for *key*, or ``None``."""
        with self._lock:
            return self._entries.get(key)

    def insert(self, key: str, result: dict) -> None:
        """Record *key* -> *result* in memory only (O(1)); the caller
        owes a :meth:`save`."""
        with self._lock:
            self._entries[key] = result

    def save(self) -> None:
        """Atomically publish the whole table (no-op without a path).

        Serialising and writing happen outside the entry lock, so
        ``get``/``insert`` never wait on them; savers queue on their own lock and each
        writes the table as it stands when its turn comes, so the file
        ends up holding the latest entries.  A failed write is
        swallowed: persistence is an optimisation and the in-memory
        table stays authoritative for this process.
        """
        if self.path is None:
            return
        with self._save_lock:
            with self._lock:
                entries = dict(self._entries)
            try:
                atomic_write(self.path, json.dumps(
                    {"format": self.FORMAT,
                     "memo": entries}).encode("utf-8"))
            except OSError:
                pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
