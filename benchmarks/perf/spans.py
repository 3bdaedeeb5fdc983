"""Host-time spans recorded by the benchmark around calls into the program.

Nothing here touches ``src/``: a span is a ``perf_counter`` pair taken
by the benchmark around a public call, a :class:`TimedBackend` splits a
pass into backend time and host-library time, and
:func:`profile_by_module` attributes one pass's ``cProfile`` self time
to the repo's packages.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    #: Shared by every span of one operation (pass, child job, REST job).
    op: str | None
    track: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Time the enclosed block as a child of this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), 0.0, parent,
                    op if op is not None else parent.op if parent else None,
                    threading.current_thread().name)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, *,
            parent: Span | None = None, op: str | None = None,
            track: str) -> Span:
        """Record a span measured elsewhere (a child process's own
        report, job-record timestamps)."""
        span = Span(name, start, end, parent,
                    op if op is not None else parent.op if parent else None,
                    track)
        self.spans.append(span)
        return span

    def covered(self) -> dict[int, float]:
        """``id(span)`` -> seconds its child spans cover; a span's self
        time is its duration minus this.

        Children of one span run on one thread and never overlap, so
        the covered time is the sum of their durations.
        """
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                covered[key] = covered.get(key, 0.0) + span.duration
        return covered

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (complete events; loads in Perfetto)."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        index = {id(span): i for i, span in enumerate(self.spans)}
        tracks = {name: tid for tid, name in enumerate(
            sorted({span.track for span in self.spans}), start=1)}
        events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                   "args": {"name": name}} for name, tid in tracks.items()]
        for i, span in enumerate(self.spans):
            events.append({
                "name": span.name, "ph": "X", "pid": 1,
                "tid": tracks[span.track],
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"id": i, "op": span.op,
                         "parent": (index[id(span.parent)]
                                    if span.parent else None)}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


@contextmanager
def no_span(name: str, op: str | None = None):
    """Stands in for :meth:`SpanRecorder.span` on an untraced run."""
    yield None


class TimedBackend:
    """Delegates everything to *inner*; records a span per ``execute``."""

    def __init__(self, inner, recorder: SpanRecorder, span_name: str) -> None:
        self.inner = inner
        self.recorder = recorder
        self.span_name = span_name

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def execute(self, launch):
        with self.recorder.span(self.span_name):
            return self.inner.execute(launch)


#: ``self_s.<bucket>`` names, in the order the ledger lists them.  A
#: bucket is a module path under ``src/repro`` (a package bucket takes
#: every file below it); generated tier code compiles under a
#: ``<megablock:...>`` / ``<superblock ...>`` filename and belongs to
#: the tier that emitted it.
MODULE_BUCKETS = (
    "timing.gpu", "timing.shader", "timing.memsys", "timing.cache",
    "timing.stats", "functional.executor", "functional.fastpath",
    "functional.superblock", "functional.megablock", "functional.memory",
    "functional.npops", "ptx.instructions", "cudnn.api", "cuda.runtime",
    "service.pool")


def _bucket(filename: str, function: str) -> str:
    if filename.startswith("<megablock"):
        return "functional.megablock"
    if filename.startswith("<superblock"):
        return "functional.superblock"
    if "/numpy/" in filename or "numpy" in function:
        return "numpy"
    marker = "/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        module = filename[at + len(marker):].removesuffix(".py")
        module = module.replace("/", ".")
        for bucket in MODULE_BUCKETS:
            if module == bucket or module.startswith(bucket + "."):
                return bucket
    return "other"


def profile_by_module(fn) -> tuple[float, dict[str, float]]:
    """Run *fn* once under ``cProfile``; return (wall seconds, self
    seconds per bucket).  ``other`` takes the remainder of the wall, so
    the buckets sum to the profiled pass's total."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(fn)
    wall = time.perf_counter() - start
    buckets = dict.fromkeys((*MODULE_BUCKETS, "numpy"), 0.0)
    for (filename, _line, function), row in pstats.Stats(
            profiler).stats.items():  # type: ignore[attr-defined]
        bucket = _bucket(filename, function)
        if bucket != "other":
            buckets[bucket] += row[2]
    buckets["other"] = max(0.0, wall - sum(buckets.values()))
    return wall, buckets
