"""The sharded simulation service and its cluster scheduler.

Functional-mode CTAs are independent, which makes the simulator
embarrassingly parallel at two levels — and this package exploits both:

* :mod:`repro.service.pool` — a ``multiprocessing`` **CTA shard
  executor**: one kernel launch is partitioned into contiguous CTA
  ranges, each range runs in a worker process, and global-memory writes
  plus instruction/opcode counters merge back bit-identically to a
  single-process run.  :class:`ShardedFunctionalBackend` plugs the
  executor into :class:`repro.cuda.runtime.CudaRuntime` as a drop-in
  backend.
* :mod:`repro.service.jobs` — **job records, workload runners and the
  memo table**: results are memoized on a structural key so repeat
  submissions are cache hits.
* :mod:`repro.service.scheduler` — the **cluster scheduler**, the one
  job engine: ``submit`` returns a job id immediately, and a driver
  multiplexes thousands of queued jobs across N simulated GPU workers
  under a pluggable allocation :class:`Policy` (FIFO, strict priority,
  round-robin fair share, cost-aware SJF), with priorities, deadlines,
  cooperative cancellation, streaming progress events, and a memo
  table persisted across restarts.
* :mod:`repro.service.costmodel` — the **runtime estimator** behind
  the SJF policy: :class:`HistoryCostModel` tracks measured runtimes
  per structural fingerprint; a SimNet-style learned predictor drops
  in by subclassing :class:`CostModel`.
* :mod:`repro.service.rest` — a stdlib-only **REST front door**
  (``repro-serve``) over the scheduler, with
  :mod:`repro.service.client` as its Python client.

Many concurrent sweeps share one warm kernel/compile cache
(:mod:`repro.functional.kernelcache`), which is what makes thousands of
memoized jobs cheap — the SimNet-style sweep economics the ROADMAP
calls the "millions of users" path.
"""

from repro.service.client import ServiceClient
from repro.service.costmodel import CostModel, HistoryCostModel, cost_key
from repro.service.jobs import JobControl, MemoTable, job_key
from repro.service.pool import (
    ShardExecutor, ShardedFunctionalBackend, ShardedRunResult)
from repro.service.scheduler import (
    POLICIES, ClusterScheduler, FairSharePolicy, FifoPolicy, GpuState,
    Policy, PriorityPolicy, SjfPolicy, make_policy)

__all__ = [
    "ClusterScheduler",
    "CostModel",
    "FairSharePolicy",
    "FifoPolicy",
    "GpuState",
    "HistoryCostModel",
    "JobControl",
    "MemoTable",
    "POLICIES",
    "Policy",
    "PriorityPolicy",
    "ServiceClient",
    "ShardExecutor",
    "ShardedFunctionalBackend",
    "ShardedRunResult",
    "SjfPolicy",
    "cost_key",
    "job_key",
    "make_policy",
]
