"""Cluster scheduler: N simulated GPUs over a prioritised job queue.

The paper's sweep workflow (Figs. 6/7 and the Sec. 5 sweeps each run
dozens of configurations; a production sweep runs thousands) needs more
than a thread pool with a memo table.  This module is the service's one
job engine: a :class:`ClusterScheduler` multiplexes queued jobs across
**N simulated GPU workers** (each worker is one execution lane; a job
on it may itself fan CTAs across the shard pool of
:mod:`repro.service.pool`), with

* **pluggable allocation policies** behind one :class:`Policy`
  interface — :class:`FifoPolicy`, :class:`PriorityPolicy` (strict),
  :class:`FairSharePolicy` (round-robin across tenants) and
  :class:`SjfPolicy` (cost-aware shortest-job-first fed by a
  :class:`~repro.service.costmodel.CostModel`);
* **job priorities, deadlines and cancellation** — queued jobs cancel
  instantly, running jobs cancel cooperatively at shard boundaries via
  :class:`~repro.service.jobs.JobControl`;
* **streaming progress events** per job
  (``queued`` → ``assigned`` → ``shard-progress``\\ * → terminal),
  long-pollable over ``GET /api/jobs/<id>/events``;
* a **persistent memo table** (:class:`~repro.service.jobs.MemoTable`
  under ``$REPRO_CACHE_DIR``) so a sweep survives a service restart;
* **observability**: per-GPU tracks (:func:`repro.trace.tracer.gpu_tid`)
  carrying one slice per executed job plus a ``cluster queue depth``
  counter series, and ``/api/cluster/stats`` for the REST view.

Selection is serialized under the scheduler lock: whenever a GPU
worker goes idle it asks the policy to pick from the pending list, so
a policy is just a pure choice function over queued jobs and never
deals with races itself.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field

from repro.errors import JobCancelled, ServiceError, UnknownJobError
from repro.functional import kernelcache
from repro.service.costmodel import CostModel, HistoryCostModel
from repro.service.jobs import (
    CANCELLED, DONE, ERROR, RUNNING, REGISTRY, Job, JobControl,
    MemoTable, job_key)
from repro.trace.tracer import NULL_TRACER, gpu_tid

#: File name of the persisted memo table inside the repro cache dir.
MEMO_FILENAME = "service_memo.json"


def default_memo_path() -> str:
    """Where the scheduler persists its memo table by default.

    Lives next to the kernel-plan cache (``$REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``) so one
    environment variable relocates all service state at once.
    """
    return os.path.join(kernelcache.cache_dir(), MEMO_FILENAME)


# ---------------------------------------------------------------------------
# Allocation policies
# ---------------------------------------------------------------------------
class Policy:
    """Chooses which pending job an idle GPU runs next.

    ``select`` is called under the scheduler lock with a non-empty
    *pending* list (submission order) and the current wall time; it
    must return one element of the list and may keep internal state
    (the fair-share rotation does).  It must not mutate the list.
    """

    #: Registry name (the ``repro-serve --policy`` value).
    name = "policy"

    def select(self, pending: list[Job], now: float) -> Job:
        """Return the pending job to run next."""
        raise NotImplementedError


class FifoPolicy(Policy):
    """First submitted, first served — the baseline."""

    name = "fifo"

    def select(self, pending: list[Job], now: float) -> Job:
        """The oldest pending job (the list is in submission order)."""
        return pending[0]


class PriorityPolicy(Policy):
    """Strict priority: highest ``priority`` first, FIFO within a tier.

    A steady stream of high-priority work can starve low-priority jobs
    indefinitely — that is the documented contract of *strict*
    priority; use :class:`FairSharePolicy` when starvation matters.
    """

    name = "priority"

    def select(self, pending: list[Job], now: float) -> Job:
        """Max priority, ties broken by submission order."""
        return min(pending,
                   key=lambda job: (-job.priority, job.submitted_at,
                                    job.job_id))


class FairSharePolicy(Policy):
    """Round-robin fair share across tenants.

    Jobs are grouped by ``job.tenant`` (defaulting to the workload
    name), and grant turns rotate through the groups that currently
    have pending work; within a group, FIFO.  A tenant flooding the
    queue with a thousand jobs therefore delays other tenants by at
    most one job per scheduling turn.
    """

    name = "fair"

    def __init__(self) -> None:
        self._last_group: str | None = None

    @staticmethod
    def group_of(job: Job) -> str:
        """The fair-share bucket a job charges its turn to."""
        return job.tenant or job.workload

    def select(self, pending: list[Job], now: float) -> Job:
        """The earliest job of the next group after the last served."""
        groups: list[str] = []
        for job in pending:
            group = self.group_of(job)
            if group not in groups:
                groups.append(group)
        if self._last_group in groups:
            start = groups.index(self._last_group) + 1
            groups = groups[start:] + groups[:start]
        chosen_group = groups[0]
        self._last_group = chosen_group
        for job in pending:
            if self.group_of(job) == chosen_group:
                return job
        raise AssertionError("unreachable: group vanished mid-select")


class SjfPolicy(Policy):
    """Cost-aware shortest-job-first.

    Asks the :class:`~repro.service.costmodel.CostModel` for a runtime
    estimate per pending job and runs the cheapest next — the classic
    mean-wait-time minimiser for batch sweeps.  With the default
    :class:`~repro.service.costmodel.HistoryCostModel` the first few
    jobs of an unseen shape run in FIFO order until measurements
    arrive and the estimates sharpen.
    """

    name = "sjf"

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model

    def select(self, pending: list[Job], now: float) -> Job:
        """Minimum estimated runtime, ties broken by submission."""
        return min(pending,
                   key=lambda job: (self.cost_model.estimate(
                       job.workload, job.config, job.seed),
                       job.submitted_at, job.job_id))


#: Policy name -> factory taking the scheduler's cost model.  The
#: REST CLI exposes exactly these names via ``repro-serve --policy``.
POLICIES = {
    "fifo": lambda cost_model: FifoPolicy(),
    "priority": lambda cost_model: PriorityPolicy(),
    "fair": lambda cost_model: FairSharePolicy(),
    "sjf": SjfPolicy,
}


def make_policy(name: str, cost_model: CostModel) -> Policy:
    """Instantiate a registered policy by name (:data:`POLICIES`)."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ServiceError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}") \
            from None
    return factory(cost_model)


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------
@dataclass
class GpuState:
    """Book-keeping for one simulated GPU worker."""

    index: int
    #: Job currently executing on this GPU (``None`` when idle).
    job_id: str | None = None
    jobs_completed: int = 0
    jobs_cancelled: int = 0
    jobs_failed: int = 0
    busy_s: float = 0.0
    thread: threading.Thread | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-able per-GPU row for ``/api/cluster/stats``."""
        return {
            "gpu": self.index,
            "state": "busy" if self.job_id else "idle",
            "job_id": self.job_id,
            "jobs_completed": self.jobs_completed,
            "jobs_cancelled": self.jobs_cancelled,
            "jobs_failed": self.jobs_failed,
            "busy_s": round(self.busy_s, 6),
        }


class ClusterScheduler:
    """Drives thousands of queued jobs across N simulated GPU workers.

    Observation is ``status``/``poll``/``result``/``jobs``/``stats``
    plus ``cancel``, ``events`` (long-poll) and ``cluster_stats``.
    Construction starts the worker threads; call :meth:`shutdown` (or
    use as a context manager) to stop them.

    A submission has three instant outcomes — **memo hit** (the key has
    a completed result; the job is born ``done`` with ``memo_hit``),
    **coalesced** (the key is queued or running; the job completes when
    that leader does, and the simulation runs once) or **fresh**
    (queued for a GPU).  The memo table is **persisted** (atomic JSON
    under the repro cache dir) unless ``memo_path=None``, so identical
    submissions after a restart are still instant hits.
    """

    def __init__(self, gpus: int = 2, policy: Policy | str = "fifo", *,
                 registry: dict | None = None,
                 cost_model: CostModel | None = None,
                 memo_path: str | None = "<default>",
                 tracer=None) -> None:
        if gpus < 1:
            raise ServiceError(f"need at least one GPU worker, got {gpus}")
        self.registry = dict(registry or REGISTRY)
        self.cost_model = cost_model or HistoryCostModel()
        if isinstance(policy, str):
            policy = make_policy(policy, self.cost_model)
        self.policy = policy
        if memo_path == "<default>":
            memo_path = default_memo_path()
        self.memo = MemoTable(memo_path)
        self.tracer = tracer or NULL_TRACER
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._pending: list[Job] = []
        self._leaders: dict[str, str] = {}      # key -> leader job_id
        self._followers: dict[str, list[str]] = {}
        self._seq = itertools.count(1)
        self._stopping = False
        self._t0 = time.perf_counter()
        self._counters = {
            "submitted": 0, "executed": 0, "memo_hits": 0,
            "coalesced": 0, "errors": 0, "cancelled": 0,
            "deadline_expired": 0}
        self.gpus = [GpuState(index) for index in range(gpus)]
        if self.tracer.enabled:
            for gpu in self.gpus:
                self.tracer.name_track(gpu_tid(gpu.index),
                                       f"gpu {gpu.index}")
        for gpu in self.gpus:
            thread = threading.Thread(
                target=self._worker_loop, args=(gpu,),
                name=f"repro-gpu-{gpu.index}", daemon=True)
            gpu.thread = thread
            thread.start()

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "ClusterScheduler":
        """``with ClusterScheduler(...) as sched:`` starts it running."""
        return self

    def __exit__(self, *exc) -> None:
        """Leaving the block shuts the workers down (waits for them)."""
        self.shutdown()

    # -- time & trace helpers -------------------------------------------
    def _ts(self) -> float:
        """Wall seconds since scheduler start (trace timestamp base)."""
        return time.perf_counter() - self._t0

    def _emit_queue_depth_locked(self) -> None:
        """Sample the queue-depth counter series (lock held)."""
        if self.tracer.enabled:
            self.tracer.counter("cluster queue depth",
                                len(self._pending), ts=self._ts())

    # -- submission -----------------------------------------------------
    def submit(self, workload: str, config: dict | None = None,
               seed: int = 0, *, priority: int = 0,
               deadline_s: float | None = None,
               tenant: str | None = None) -> Job:
        """Queue one job; returns immediately with its record.

        Besides the three instant outcomes (memo hit, coalesced,
        fresh) a job carries the scheduling attributes: *priority*
        (higher runs first under the ``priority`` policy), *deadline_s*
        (wall-second budget from submission — expiry cancels the job,
        queued or running), *tenant* (fair-share group; defaults to the
        workload name).
        """
        if workload not in self.registry:
            raise ServiceError(
                f"unknown workload {workload!r}; "
                f"known: {sorted(self.registry)}")
        if deadline_s is not None \
                and not (deadline_s > 0 and math.isfinite(deadline_s)):
            raise ServiceError(
                f"deadline_s must be positive and finite, "
                f"got {deadline_s}")
        config = dict(config or {})
        key = job_key(workload, config, seed)
        with self._cond:
            job = Job(job_id=f"job-{next(self._seq):06d}", key=key,
                      workload=workload, config=config, seed=int(seed),
                      submitted_at=time.time(), priority=int(priority),
                      deadline_s=deadline_s, tenant=tenant)
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._counters["submitted"] += 1
            cached = self.memo.get(key)
            if cached is not None:
                job.state = DONE
                job.memo_hit = True
                job.result = cached
                job.finished_at = time.time()
                self._counters["memo_hits"] += 1
                job.emit("queued")
                job.emit("done", memo_hit=True)
                job.done.set()
                return job
            leader = self._leaders.get(key)
            if leader is not None:
                job.memo_hit = True
                self._followers.setdefault(key, []).append(job.job_id)
                self._counters["coalesced"] += 1
                job.emit("queued", coalesced_with=leader)
                return job
            self._leaders[key] = job.job_id
            self._pending.append(job)
            job.emit("queued")
            self._emit_queue_depth_locked()
            self._cond.notify()
        return job

    # -- cancellation ---------------------------------------------------
    def cancel(self, job_id: str) -> dict:
        """Cancel a job: instant when queued, cooperative when running.

        A queued job is removed from the pending list and closed as
        ``cancelled`` on the spot (coalesced followers are promoted to
        a fresh leader).  A running job gets its ``cancel_requested``
        flag set and unwinds at the next shard boundary.  Cancelling a
        job that already finished is a no-op.  Returns the job record.
        """
        with self._cond:
            job = self._get(job_id)
            if job.terminal:
                return job.to_dict(with_result=False)
            if job in self._pending:
                self._pending.remove(job)
                self._close_cancelled_locked(job, "cancelled while queued")
                self._promote_followers_locked(job.key)
                self._emit_queue_depth_locked()
                return job.to_dict(with_result=False)
            if job.state == RUNNING:
                job.request_cancel()
                return job.to_dict(with_result=False)
            # A coalesced follower: detach it from its leader and close.
            followers = self._followers.get(job.key, [])
            if job_id in followers:
                followers.remove(job_id)
            self._close_cancelled_locked(job, "cancelled while queued")
            return job.to_dict(with_result=False)

    def _close_cancelled_locked(self, job: Job, reason: str) -> None:
        """Terminal bookkeeping for a cancellation (lock held)."""
        job.state = CANCELLED
        job.error = reason
        job.finished_at = time.time()
        if "deadline" in reason:
            self._counters["deadline_expired"] += 1
        self._counters["cancelled"] += 1
        job.emit("cancelled", reason=reason)
        job.done.set()

    def _promote_followers_locked(self, key: str) -> None:
        """Re-queue a dead leader's followers under a new leader.

        The first follower becomes the pending leader (keeping its own
        priority/deadline); the rest stay coalesced behind it.  Without
        this, cancelling a leader would strand followers forever.
        """
        self._leaders.pop(key, None)
        follower_ids = self._followers.pop(key, [])
        if not follower_ids:
            return
        new_leader = self._jobs[follower_ids[0]]
        new_leader.memo_hit = False
        self._leaders[key] = new_leader.job_id
        if len(follower_ids) > 1:
            self._followers[key] = follower_ids[1:]
        self._pending.append(new_leader)
        new_leader.emit("queued", promoted=True)
        self._cond.notify()

    def _expire_deadlines_locked(self) -> None:
        """Cancel queued jobs whose deadline has already passed."""
        now = time.time()
        expired = [job for job in self._pending
                   if job.deadline_s is not None
                   and now - job.submitted_at > job.deadline_s]
        for job in expired:
            self._pending.remove(job)
            self._close_cancelled_locked(
                job, f"deadline of {job.deadline_s}s expired while queued")
            self._promote_followers_locked(job.key)
        if expired:
            self._emit_queue_depth_locked()

    # -- the GPU worker loop --------------------------------------------
    def _worker_loop(self, gpu: GpuState) -> None:
        """One simulated GPU: pick (via policy), run, repeat."""
        while True:
            with self._cond:
                job = None
                while job is None:
                    if self._stopping:
                        return
                    self._expire_deadlines_locked()
                    if self._pending:
                        job = self.policy.select(self._pending,
                                                 time.time())
                        self._pending.remove(job)
                    else:
                        # Bounded wait so queued deadlines expire
                        # within ~half a second even when idle.
                        self._cond.wait(timeout=0.5)
                job.state = RUNNING
                job.gpu = gpu.index
                job.assigned_at = time.time()
                gpu.job_id = job.job_id
                job.emit("assigned", gpu=gpu.index)
                self._emit_queue_depth_locked()
            self._execute(job, gpu)

    def _execute(self, job: Job, gpu: GpuState) -> None:
        """Run one job on *gpu* and close it (and its followers)."""
        control = JobControl(job)
        start = time.perf_counter()
        start_ts = self._ts()
        outcome = "done"
        try:
            control.check()          # deadline may expire in the queue
            runner = self.registry[job.workload]
            result = runner(job.config, job.seed, control)
        except JobCancelled as exc:
            outcome = "cancelled"
            self._finish(job, cancelled_reason=str(exc))
        except Exception as exc:
            outcome = "error"
            self._finish(job, error=f"{type(exc).__name__}: {exc}",
                         traceback=traceback_module.format_exc())
        else:
            runtime_s = time.perf_counter() - start
            self.cost_model.observe(job.workload, job.config, job.seed,
                                    runtime_s)
            self._finish(job, result=result)
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                gpu.job_id = None
                gpu.busy_s += elapsed
                if outcome == "done":
                    gpu.jobs_completed += 1
                elif outcome == "cancelled":
                    gpu.jobs_cancelled += 1
                else:
                    gpu.jobs_failed += 1
            if self.tracer.enabled:
                self.tracer.complete(
                    f"{job.workload} {job.job_id}", ts=start_ts,
                    dur=elapsed, tid=gpu_tid(gpu.index), cat="scheduler",
                    args={"workload": job.workload, "seed": job.seed,
                          "priority": job.priority, "outcome": outcome,
                          "policy": self.policy.name})

    def _finish(self, job: Job, *, result: dict | None = None,
                error: str | None = None, traceback: str | None = None,
                cancelled_reason: str | None = None) -> None:
        """Terminal transition for an executed job.

        Success memoizes (persisted, when persistent, after the
        scheduler lock is released) and closes the
        coalesced followers with the same result; failure closes them
        with the same error + traceback; cancellation promotes them to
        a fresh leader — they asked for the result, not for the
        cancellation.
        """
        now = time.time()
        with self._cond:
            if cancelled_reason is not None:
                self._close_cancelled_locked(job, cancelled_reason)
                self._promote_followers_locked(job.key)
                return
            followers = self._followers.pop(job.key, [])
            self._leaders.pop(job.key, None)
            closing = [job] + [self._jobs[jid] for jid in followers]
            for record in closing:
                record.finished_at = now
                if error is None:
                    record.state = DONE
                    record.result = result
                else:
                    record.state = ERROR
                    record.error = error
                    record.traceback = traceback
            if error is None:
                # In memory under the lock — a submit must never miss
                # both the memo and the leader; the O(entries) disk
                # write waits until the lock is released.
                self.memo.insert(job.key, result)
                self._counters["executed"] += 1
            else:
                self._counters["errors"] += 1 + len(followers)
        if error is None:
            self.memo.save()
        for record in closing:
            record.emit("done" if record.state == DONE else "error",
                        **({} if error is None else {"error": error}))
            record.done.set()

    # -- observation ----------------------------------------------------
    def _get(self, job_id: str) -> Job:
        """Look up a job record or raise the typed unknown-id error."""
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> dict:
        """Full job record (result included once done)."""
        return self._get(job_id).to_dict()

    def poll(self, job_id: str) -> str:
        """Just the lifecycle state, non-blocking."""
        return self._get(job_id).state

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job finishes; raise on error/cancel/timeout."""
        job = self._get(job_id)
        if not job.done.wait(timeout):
            raise TimeoutError(
                f"job {job_id} still {job.state} after {timeout}s")
        if job.state in (ERROR, CANCELLED):
            raise ServiceError(f"job {job_id} {job.state}: {job.error}")
        assert job.result is not None
        return job.result

    def jobs(self) -> list[dict]:
        """All submissions, oldest first, without result payloads."""
        return [self._jobs[jid].to_dict(with_result=False)
                for jid in self._order]

    def events(self, job_id: str, since: int = 0,
               timeout: float | None = None) -> tuple[list[dict], str]:
        """Long-poll the job's event stream.

        Blocks until at least one event with ``seq >= since`` exists,
        the job reaches a terminal state, or *timeout* elapses; returns
        ``(events[since:], state)``.  An empty list therefore means
        "nothing new yet", never an error — poll again with the same
        ``since``.
        """
        job = self._get(job_id)
        if since < 0:
            raise ServiceError(f"'since' must be >= 0, got {since}")
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with job.event_cond:
            while len(job.events) <= since and not job.terminal:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                job.event_cond.wait(remaining)
            return list(job.events[since:]), job.state

    def queue_depth(self) -> int:
        """Number of jobs waiting for a GPU right now."""
        with self._lock:
            return len(self._pending)

    def stats(self) -> dict:
        """Flat counters (the ``/api/stats`` shape, plus cluster keys)."""
        with self._lock:
            counters = dict(self._counters)
            counters["queue_depth"] = len(self._pending)
        counters["memo_entries"] = len(self.memo)
        counters["jobs"] = len(self._jobs)
        counters["gpus"] = len(self.gpus)
        counters["policy"] = self.policy.name
        return counters

    def cluster_stats(self) -> dict:
        """The ``/api/cluster/stats`` document: per-GPU rows, queue
        depth, counters, memo persistence state and the cost model's
        own snapshot."""
        with self._lock:
            gpus = [gpu.to_dict() for gpu in self.gpus]
            counters = dict(self._counters)
            queue_depth = len(self._pending)
            pending = [{"job_id": job.job_id, "workload": job.workload,
                        "priority": job.priority, "tenant": job.tenant}
                       for job in self._pending]
        return {
            "policy": self.policy.name,
            "gpus": gpus,
            "queue_depth": queue_depth,
            "pending": pending,
            "counters": counters,
            "memo": {
                "entries": len(self.memo),
                "path": self.memo.path,
                "loaded_from_disk": self.memo.loaded_from_disk,
            },
            "cost_model": self.cost_model.snapshot(),
        }

    # -- lifecycle ------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the GPU workers.

        With ``wait=True`` each worker finishes its current job and
        exits (queued jobs stay queued and are never started).  The
        workers are daemon threads, so ``wait=False`` just signals and
        returns.
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if wait:
            for gpu in self.gpus:
                if gpu.thread is not None:
                    gpu.thread.join()
