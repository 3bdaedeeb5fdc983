"""The six benchmark workloads (README.md says why each exists).

Every workload measures the program from outside: it builds inputs from
the seed, calls public functions, times them with ``perf_counter`` and
checks what comes back.  ``measure`` runs the primary operation for the
whole window; ``measure_traced`` splits the window between the primary
operation (half the passes behind a :class:`~spans.TimedBackend`), the
workload's secondary path and its layer probes, and returns the
per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.analysis import ANALYSIS_VERSION, analyze_module
from repro.cuda import CudaRuntime
from repro.cuda.fatbinary import cuobjdump
from repro.cuda.runtime import FunctionalBackend
from repro.cudnn import ConvFwdAlgo, Cudnn, build_application_binary
from repro.functional import kernelcache, megablock
from repro.harness.correlation import run_mnist_correlation
from repro.nn import synthetic_mnist
from repro.nn.lenet import LeNet, LeNetConfig
from repro.nn.reference import conv2d_ref, reference_forward
from repro.ptx.parser import parse_module
from repro.service import ClusterScheduler, ServiceClient
from repro.service.pool import ShardedFunctionalBackend
from repro.service.rest import make_server
from repro.timing import GTX1050, TimingBackend
from repro.workloads.conv_sample import ConvSample, ConvSampleConfig
from repro.workloads.mnist_sample import MnistSample, MnistSampleConfig
from repro.workloads.predicated_blend import (
    PredicatedBlend, PredicatedBlendConfig)

from spans import SpanRecorder, TimedBackend, no_span, profile_by_module

HERE = Path(__file__).resolve().parent

#: The LeNet self-check's tolerances (``LeNet.self_check``).
REFERENCE_TOLERANCE = {"atol": 1e-2, "rtol": 1e-3}

median = statistics.median


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close_to(output: bytes, reference: np.ndarray) -> bool:
    """float32 *output* bytes against a reference array of their shape."""
    return np.allclose(
        np.frombuffer(output, np.float32).reshape(reference.shape),
        reference, **REFERENCE_TOLERANCE)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class Checks:
    """Counts attempted operations and those that failed an output check."""

    def __init__(self, expected: dict, at_default_seed: bool) -> None:
        self.expected = expected
        self.at_default_seed = at_default_seed
        self.attempted = 0
        self.failures: list[str] = []
        #: What the first operation observed, per key.
        self.first: dict[str, object] = {}
        self._lock = threading.Lock()

    def operation(self, label: str, **observed) -> None:
        """One attempted operation.  Each observed value must equal the
        one committed in ``expected.json`` (``output_sha256`` only at
        the default seed: other seeds make other inputs) and the one
        the first operation observed under the same key."""
        with self._lock:
            self.attempted += 1
            for key, value in observed.items():
                want = self.expected.get(key, value)
                if key == "output_sha256" and not self.at_default_seed:
                    want = value
                first = self.first.setdefault(key, value)
                if value != want or value != first:
                    self.failures.append(
                        f"{label}: {key} is {value!r}, committed "
                        f"{want!r}, first operation saw {first!r}")
                    return

    def failed(self, label: str, reason: str) -> None:
        """One attempted operation that raised or timed out."""
        with self._lock:
            self.attempted += 1
            self.failures.append(f"{label}: {reason}")

    def reference(self, label: str, ok: bool) -> None:
        """An output compared against an independent implementation."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(
                    f"{label}: output differs from the reference")


def run_for(operation, seconds: float) -> list[float]:
    """Repeat *operation* (returns its own wall seconds) until the
    window closes; at least once."""
    deadline = time.perf_counter() + seconds
    walls = [operation()]
    while time.perf_counter() < deadline:
        walls.append(operation())
    return walls


class Workload:
    """Base: a window of primary operations, each checked."""

    name = ""

    def __init__(self, seed: int, checks: Checks,
                 recorder: SpanRecorder | None, work_dir: Path) -> None:
        self.seed = seed
        self.checks = checks
        #: ``None`` on the untraced run that yields end-to-end metrics.
        self.recorder = recorder
        self.work_dir = work_dir
        #: Committed warp instructions of one primary operation.
        self.warp_instr = 0

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self) -> float:
        """One checked primary operation; returns its wall seconds."""
        raise NotImplementedError

    def measure(self, seconds: float) -> tuple[list[float], float]:
        """(wall of each primary operation, warp instructions per host
        second) over a window of *seconds*."""
        walls = run_for(self.operation, seconds)
        return walls, self.warp_instr / median(walls)

    def measure_traced(self, seconds: float) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``setup`` started."""


class PassWorkload(Workload):
    """In-process workloads: one operation is one forward pass on
    ``self.runtime``, whose backend ``execute`` is the layer seam."""

    #: Span / metric prefix of the backend layer ("functional", ...).
    layer = "functional"

    def run_pass(self) -> bytes:
        """Run one pass on ``self.runtime``; return the output bytes."""
        raise NotImplementedError

    def matches_reference(self, output: bytes) -> bool:
        """Compare a pass's output with an independent implementation."""
        raise NotImplementedError

    def operation(self, timed: bool = False) -> float:
        runtime = self.runtime
        bare = runtime.backend
        first_profile = len(runtime.profiles)
        start = time.perf_counter()
        try:
            if timed:
                runtime.backend = TimedBackend(
                    bare, self.recorder, f"{self.layer}.execute")
                with self.recorder.span(
                        "pass", op=f"pass-{self.checks.attempted}"):
                    output = self.run_pass()
            else:
                output = self.run_pass()
        except Exception as exc:  # a failed pass is counted, not fatal
            self.checks.failed("pass", repr(exc))
            return time.perf_counter() - start
        finally:
            runtime.backend = bare
        wall = time.perf_counter() - start
        if not self.checks.first:
            self.checks.reference("first pass",
                                  self.matches_reference(output))
        profiles = runtime.profiles[first_profile:]
        self.warp_instr = sum(p.result.instructions for p in profiles)
        self.checks.operation(
            "pass", warp_instr=self.warp_instr, launches=len(profiles),
            output_sha256=sha256(output), **self.exact(profiles))
        return wall

    def exact(self, profiles) -> dict:
        """More values every pass must repeat exactly."""
        return {}

    def measure_traced(self, seconds: float) -> dict[str, float]:
        bare: list[float] = []
        timed: list[float] = []

        def pair() -> float:
            bare.append(self.operation())
            timed.append(self.operation(timed=True))
            return 0.0

        run_for(pair, seconds / 2)
        execute, host = self.split_passes()
        layers = {
            f"{self.layer}.execute_s": execute,
            "cudnn.host_s": host,
            f"{self.layer}.launches": self.checks.first["launches"],
            f"{self.layer}.warp_instr": self.warp_instr,
            "trace.overhead_ratio": median(timed) / median(bare),
        }
        layers["profiled_pass_s"], buckets = profile_by_module(self.operation)
        for bucket, self_time in buckets.items():
            layers[f"self_s.{bucket}"] = self_time
        return layers

    def split_passes(self, since: int = 0) -> tuple[float, float]:
        """(median seconds inside the backend, median seconds outside
        it) over the timed passes recorded from span index *since*."""
        covered = self.recorder.covered()
        passes = [span for span in self.recorder.spans[since:]
                  if span.name == "pass"]
        inside = [covered.get(id(span), 0.0) for span in passes]
        return median(inside), median(
            span.duration - time_inside
            for span, time_inside in zip(passes, inside))


class LenetMegablock(PassWorkload):
    name = "lenet_megablock"

    def setup(self) -> None:
        self.runtime = CudaRuntime(
            backend=FunctionalBackend(fast_mode="megablock"))
        self.runtime.load_binary(build_application_binary())
        self.model = LeNet(Cudnn(self.runtime), LeNetConfig())
        self.images, _labels = synthetic_mnist(
            2, self.model.config.input_hw, seed=self.seed)
        self.operation()    # compiles and stores the plans
        self.operation()

    def run_pass(self) -> bytes:
        return self.model.forward(self.images).tobytes()

    def matches_reference(self, output: bytes) -> bool:
        return close_to(output, reference_forward(self.model, self.images))

    def measure_traced(self, seconds: float) -> dict[str, float]:
        layers = super().measure_traced(seconds)
        megablock.reset_events()
        self.operation()
        for event in ("fallbacks", "bailouts", "parked_barriers",
                      "overlapped_chunks"):
            layers[f"functional.megablock_{event}"] = megablock.EVENTS[event]
        for name, count in kernelcache.counters().items():
            layers[f"kernelcache.{name}"] = count
        return layers


class ConvScalar(PassWorkload):
    name = "conv_scalar"
    ALGOS = (ConvFwdAlgo.IMPLICIT_GEMM, ConvFwdAlgo.WINOGRAD_NONFUSED)

    def setup(self) -> None:
        self.build(None)
        self.operation()

    def build(self, on_exec) -> None:
        self.runtime = CudaRuntime(backend=FunctionalBackend(
            fast_mode="superblock", on_exec=on_exec))
        self.sample = ConvSample(self.runtime,
                                 ConvSampleConfig(seed=self.seed))
        self.outputs = [self.runtime.malloc(self.sample.y_desc.nbytes)
                        for _ in self.ALGOS]

    def run_pass(self) -> bytes:
        sample, runtime = self.sample, self.runtime
        for algo, y in zip(self.ALGOS, self.outputs):
            # Cleared, so a pass that computes nothing cannot pass.
            runtime.memset(y, 0, sample.y_desc.nbytes)
            sample.dnn.convolution_forward(
                sample.x_desc, sample.x, sample.w_desc, sample.w,
                sample.conv, algo, y=y)
        return b"".join(runtime.memcpy_d2h(y, sample.y_desc.nbytes)
                        for y in self.outputs)

    def matches_reference(self, output: bytes) -> bool:
        sample = self.sample
        reference = conv2d_ref(sample.x_host, sample.w_host, None,
                               sample.config.pad, 1)
        return close_to(output, np.stack([reference] * len(self.ALGOS)))

    def measure_traced(self, seconds: float) -> dict[str, float]:
        layers = super().measure_traced(seconds)
        # The path the sanitizer, fault injector and debug tool force:
        # the same passes with a per-instruction observer attached.
        calls = [0]

        def observer(_record) -> None:
            calls[0] += 1

        self.build(observer)
        self.layer = "functional.hooked"
        mark = len(self.recorder.spans)
        walls = run_for(lambda: self.operation(timed=True), seconds / 2)
        layers["hooked_warp_instr_per_s"] = self.warp_instr / median(walls)
        layers["functional.hooked_execute_s"] = self.split_passes(mark)[0]
        layers["functional.hook_calls"] = calls[0] / len(walls)
        return layers


class LenetTiming(PassWorkload):
    name = "lenet_timing"
    layer = "timing"
    #: ``KernelStats`` fields summed over one pass; simulated, exact.
    STATS = ("l1_hits", "l1_misses", "l2_hits", "l2_misses", "dram_reads",
             "dram_writes", "dram_row_hits", "stall_mem_cycles",
             "stall_alu_cycles", "idle_scheduler_cycles", "noc_flits",
             "active_sm_cycles")

    def setup(self) -> None:
        # The Sec. III-F reduced net of benchmarks/test_sec3f_checkpoint.py.
        self.config = MnistSampleConfig(
            images=1, seed=self.seed, lenet=LeNetConfig.reduced(
                conv1_fwd=ConvFwdAlgo.IMPLICIT_GEMM,
                conv2_fwd=ConvFwdAlgo.WINOGRAD_NONFUSED,
                conv1_channels=3, conv2_channels=4, fc_hidden=24))
        self.operation()

    def fresh(self, backend) -> None:
        """A new device: the modelled caches start empty on every pass,
        so every pass must report the same simulated cycles."""
        self.runtime = CudaRuntime(backend=backend)
        self.sample = MnistSample(self.runtime, self.config)

    def operation(self, timed: bool = False) -> float:
        self.fresh(TimingBackend(GTX1050))
        return super().operation(timed)

    def run_pass(self) -> bytes:
        return self.sample.run(self_check=False).logits.tobytes()

    def matches_reference(self, output: bytes) -> bool:
        images, _labels = synthetic_mnist(
            1, size=self.config.lenet.input_hw, seed=self.seed)
        return close_to(output, reference_forward(self.sample.model, images))

    def exact(self, profiles) -> dict:
        return {"sim_cycles": sum(p.result.cycles for p in profiles)}

    def functional_pass(self, fast_mode: str) -> float:
        self.fresh(FunctionalBackend(fast_mode=fast_mode))
        start = time.perf_counter()
        self.run_pass()
        return time.perf_counter() - start

    def measure_traced(self, seconds: float) -> dict[str, float]:
        layers = super().measure_traced(seconds)
        cycles = self.checks.first["sim_cycles"]
        execute = layers["timing.execute_s"]
        wall = execute + layers["cudnn.host_s"]
        layers["sim_cycles"] = cycles
        layers["sim_cycles_per_s"] = cycles / wall
        layers["timing.host_us_per_sim_cycle"] = 1e6 * execute / cycles
        layers["timing.host_us_per_warp_instr"] = (
            1e6 * execute / self.warp_instr)
        for field in self.STATS:
            layers[f"timing.{field}"] = sum(
                getattr(stats, field)
                for stats in self.runtime.backend.kernel_stats)
        # What share of a performance-mode pass is functional stepping:
        # the same net, one pass on each scalar functional tier.
        for tier in ("fastpath", "reference"):
            layers[f"timing.functional_share.{tier}"] = (
                self.functional_pass(tier) / wall)
        # Against the repo's analytical hardware stand-in, not a GPU.
        layers["sim_vs_hwmodel_err_pct"] = 100.0 * run_mnist_correlation(
            GTX1050, sample_config=self.config).total_error
        return layers


class ShardedBlend(PassWorkload):
    name = "sharded_blend"
    layer = "pool"

    def setup(self) -> None:
        self.pool = ShardedFunctionalBackend(2, fast_mode="superblock")
        self.build(self.pool)
        # The first launch forks the workers; it belongs to set-up.
        self.first_launch_s = self.operation()
        self.operation()

    def build(self, backend) -> None:
        self.runtime = CudaRuntime(backend=backend)
        self.blend = PredicatedBlend(
            self.runtime, PredicatedBlendConfig(ctas=512, seed=self.seed))

    def run_pass(self) -> bytes:
        blend, runtime = self.blend, self.runtime
        # Cleared, so a launch that computes nothing cannot pass.
        runtime.memset(blend.ys, 0, 4 * blend.config.threads)
        runtime.memset(blend.sums, 0, 4 * blend.config.ctas)
        blend.run()
        return b"".join(part.tobytes() for part in blend.results())

    def matches_reference(self, output: bytes) -> bool:
        # PredicatedBlend.expected() is exact: byte for byte.
        return output == b"".join(
            part.tobytes() for part in self.blend.expected())

    def measure_traced(self, seconds: float) -> dict[str, float]:
        layers = super().measure_traced(seconds)
        sharded = layers["pool.execute_s"] + layers["cudnn.host_s"]
        layers["pool.first_launch_s"] = self.first_launch_s
        # The ratio's base: the same launch in this process on the same
        # tier.  Checks.operation holds its output_sha256 to the sharded
        # launches', so the two agree byte for byte.
        self.build(FunctionalBackend(fast_mode="superblock"))
        walls = run_for(self.operation, seconds / 2)
        layers["inprocess_warp_instr_per_s"] = self.warp_instr / median(walls)
        layers["pool.speedup_over_inprocess"] = median(walls) / sharded
        return layers

    def close(self) -> None:
        self.pool.close()


class ColdStart(Workload):
    name = "cold_start"
    #: The child's own three spans, in order, as layer metric -> key.
    CHILD_SPANS = (("cold.import_s", "import_s"),
                   ("cuda.load_binary_s", "load_binary_s"),
                   ("cold.first_forward_s", "first_forward_s"))

    def setup(self) -> None:
        # The parent only computes the reference; children do the work.
        model = LeNet(Cudnn(CudaRuntime()), LeNetConfig())
        images, _labels = synthetic_mnist(
            2, model.config.input_hw, seed=self.seed)
        self.reference = reference_forward(model, images)
        self.children = 0
        if self.recorder is not None:
            self.warm_dir = self.work_dir / "warm-disk"
            self.child(self.warm_dir, "populate")

    def child(self, cache_dir: Path, kind: str) -> tuple[float, dict]:
        """Spawn one job; the wall runs from spawn to exit."""
        self.children += 1
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold_child.py"), str(self.seed)],
            env=dict(os.environ, REPRO_CACHE_DIR=str(cache_dir)),
            capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: "
                               f"{proc.stderr[-400:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if self.recorder is not None:
            op = f"child-{self.children}"
            job = self.recorder.add(f"{kind}.job", start, end, op=op,
                                    track=op)
            at = end - sum(report[key] for _, key in self.CHILD_SPANS)
            for name, key in self.CHILD_SPANS:
                self.recorder.add(name.removesuffix("_s"), at,
                                  at + report[key], parent=job, track=op)
                at += report[key]
        return end - start, report

    def checked_child(self, cache_dir: Path, kind: str) -> tuple[float, dict]:
        try:
            wall, report = self.child(cache_dir, kind)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            self.checks.failed(f"{kind} child", repr(exc))
            return 0.0, dict.fromkeys(
                (key for _, key in self.CHILD_SPANS), 0.0)
        logits = np.asarray(report["logits"], dtype=np.float32)
        if not self.checks.first:
            self.checks.reference(
                "first child", close_to(logits.tobytes(), self.reference))
        self.warp_instr = report["warp_instr"]
        self.checks.operation(
            f"{kind} child", warp_instr=report["warp_instr"],
            launches=report["launches"],
            output_sha256=sha256(logits.tobytes()),
            **{f"{kind}_hits": report["counters"]["hits"],
               f"{kind}_misses": report["counters"]["misses"]})
        return wall, report

    def cold(self) -> tuple[float, dict]:
        cache_dir = Path(tempfile.mkdtemp(dir=self.work_dir, prefix="cold-"))
        try:
            return self.checked_child(cache_dir, "cold")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def operation(self) -> float:
        return self.cold()[0]

    def measure_traced(self, seconds: float) -> dict[str, float]:
        cold: list[tuple[float, dict]] = []
        warm: list[tuple[float, dict]] = []

        def pair() -> float:
            cold.append(self.cold())
            warm.append(self.checked_child(self.warm_dir, "warm_disk"))
            return 0.0

        run_for(pair, seconds)
        layers = {
            "cold_job_wall_s": median(wall for wall, _ in cold),
            "warm_disk_job_wall_s": median(wall for wall, _ in warm),
            "warm_disk.first_forward_s": median(
                report["first_forward_s"] for _, report in warm),
        }
        for name, key in self.CHILD_SPANS:
            layers[name] = median(report[key] for _, report in cold)
        layers.update(self.frontend_probes())
        return layers

    def frontend_probes(self) -> dict[str, float]:
        """Time each frontend layer alone, over every embedded PTX image."""
        span = self.recorder.span
        images = cuobjdump(build_application_binary())
        with span("ptx.parse", op="frontend") as parse:
            modules = [parse_module(image.text, image.file_id)
                       for image in images]
        with span("analysis.analyze", op="frontend") as analyze:
            for module in modules:
                analyze_module(module)
        kernels = [kernel for module in modules
                   for kernel in module.kernels.values()]
        with span("functional.megaplan_compile", op="frontend") as compile_:
            plans = [megablock.compile_megaplan(kernel) for kernel in kernels]
        versions = {"plan_format": megablock.PLAN_FORMAT,
                    "analysis_version": ANALYSIS_VERSION}
        run_cache = os.environ["REPRO_CACHE_DIR"]
        os.environ["REPRO_CACHE_DIR"] = str(self.work_dir / "probe-cache")
        kernelcache.reset_counters()
        try:
            with span("functional.kernelcache_store", op="frontend") as store:
                for kernel, plan in zip(kernels, plans):
                    kernelcache.store(kernel, "megablock", plan.to_payload(),
                                      **versions)
            with span("functional.kernelcache_load", op="frontend") as load:
                for kernel in kernels:
                    megablock.plan_from_payload(kernelcache.load(
                        kernel, "megablock", **versions))
        finally:
            os.environ["REPRO_CACHE_DIR"] = run_cache
        layers = {
            "ptx.parse_s": parse.duration,
            "ptx.parse_bytes_per_s":
                sum(len(image.text) for image in images) / parse.duration,
            "analysis.analyze_s": analyze.duration,
            "functional.megaplan_compile_s": compile_.duration,
            "functional.megaplan_eligible_share":
                sum(plan.eligible for plan in plans) / len(plans),
            "functional.kernelcache_store_s": store.duration,
            "functional.kernelcache_load_s": load.duration,
        }
        for name, count in kernelcache.counters().items():
            layers[f"kernelcache.{name}"] = count
        return layers


class ServiceMix(Workload):
    name = "service_mix"
    #: One block of the mix: 30 fresh jobs in the 50/30/20 proportions
    #: and, one submission in four, 10 repeats of earlier jobs in the
    #: same proportions, in one fixed order.  Every block therefore
    #: carries the same work for every seed; the seed draws the job
    #: seeds and which earlier job a repeat repeats.  The window closes
    #: on a block boundary, so runs differ in how many blocks they
    #: finish, never in what a block holds.
    KINDS = {"saxpy": {"n": 4096},
             "lenet": {"images": 1},
             "conv": {"height": 12, "width": 12, "channels": 4,
                      "algos": ["IMPLICIT_GEMM"]}}
    SHARES = {"saxpy": 5, "lenet": 3, "conv": 2}
    BLOCK = [(kind, repeat) for kind, share in SHARES.items()
             for repeat in (False,) * 3 * share + (True,) * share]
    random.Random(0).shuffle(BLOCK)

    def jobs(self):
        """The endless seeded submission sequence."""
        rng = random.Random(self.seed)
        earlier: dict[str, list[tuple]] = {kind: [] for kind in self.KINDS}
        while True:
            for kind, repeat in self.BLOCK:
                if repeat and earlier[kind]:
                    yield rng.choice(earlier[kind])
                    continue
                job = (kind, self.KINDS[kind], rng.randrange(1 << 30))
                earlier[kind].append(job)
                yield job

    def setup(self) -> None:
        self.scheduler = ClusterScheduler(gpus=2, policy="fifo",
                                          memo_path=None)
        self.server = make_server(self.scheduler, quiet=True)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="rest-server", daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.sequence = self.jobs()
        self.lock = threading.Lock()
        self.digests: dict[tuple, str] = {}
        self.pairs: list[dict] = []
        # Warm the in-process plans of every job kind.  The seed is
        # outside the mix's range, so no timed job is a memo hit of these.
        client = ServiceClient(self.url)
        for kind, config in self.KINDS.items():
            self.pair(client, (kind, config, 1 << 30))
        self.pairs.clear()
        self.warp_instr = 0
        self.sent = 0

    def pair(self, client: ServiceClient, job: tuple) -> None:
        """Submit one job and wait for its result, as a sweep script does."""
        workload, config, seed = job
        span = self.recorder.span if self.recorder else no_span
        start = time.perf_counter()
        try:
            with span("service.job",
                      op=f"job-{self.checks.attempted}") as job_span:
                with span("service.submit") as submit_span:
                    record = client.submit(workload, config, seed)
                with span("service.await_result"):
                    result = record.get("result") or client.result(
                        record["job_id"], timeout=60)
        except Exception as exc:  # a failed job is counted, not fatal
            self.checks.failed(f"{workload} job", repr(exc))
            return
        end = time.perf_counter()
        key = (workload, json.dumps(config, sort_keys=True), seed)
        with self.lock:
            first_digest = self.digests.setdefault(key, result["digest"])
            self.warp_instr += result["instructions"]
            self.pairs.append({
                "workload": workload, "start": start, "end": end,
                "wall": end - start, "job_id": record["job_id"],
                "memo_hit": record["memo_hit"], "span": job_span,
                "submit_span": submit_span})
        self.checks.operation(
            f"{workload} job",
            **{f"{workload}_warp_instr": result["instructions"]},
            result_names_workload=result["workload"] == workload,
            # A repeated job must return the digest of its first run.
            repeat_returns_first_digest=result["digest"] == first_digest)

    def window(self, seconds: float, clients: int = 1) -> float:
        """Closed loop: each client sends its next job only after the
        previous result arrived.  Returns the median wall of a block.

        The timed window has one client, so per-job overhead is what
        moves it.  Two clients keep both simulated GPUs busy, but under
        the GIL two jobs running at once slow each other by an amount
        that depends on which jobs meet (a block takes three times as
        long, and now and then does not): over ten runs the spread of
        that throughput was 15-29 % of its median, against 5-8 % here.
        The traced run reports it as ``service.two_client_*``.
        """
        first, first_sent = len(self.pairs), self.sent
        deadline = time.perf_counter() + seconds

        def client_loop() -> None:
            client = ServiceClient(self.url)
            while True:
                with self.lock:
                    sent = self.sent - first_sent
                    if (sent and sent % len(self.BLOCK) == 0
                            and time.perf_counter() >= deadline):
                        return
                    self.sent += 1
                    job = next(self.sequence)
                self.pair(client, job)

        threads = [threading.Thread(target=client_loop, name=f"client-{i}")
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pairs = self.pairs[first:]
        ends = sorted(p["end"] for p in pairs)
        bounds = [min(p["start"] for p in pairs),
                  *ends[len(self.BLOCK) - 1::len(self.BLOCK)]]
        return median(end - start for start, end in zip(bounds, bounds[1:]))

    def measure(self, seconds: float) -> tuple[list[float], float]:
        block_wall = self.window(seconds)
        block_warp_instr = (self.warp_instr * len(self.BLOCK)
                            / len(self.pairs))
        return ([p["wall"] for p in self.pairs],
                block_warp_instr / block_wall)

    def measure_traced(self, seconds: float) -> dict[str, float]:
        block_wall = self.window(seconds * 2 / 3)
        client = ServiceClient(self.url)
        latencies = [p["wall"] for p in self.pairs]
        layers = {
            "jobs_per_s": len(self.BLOCK) / block_wall,
            "job_latency_p50_s": median(latencies),
            "job_latency_p95_s": percentile(latencies, 0.95),
            "service.submit_s_p50": median(
                p["submit_span"].duration for p in self.pairs),
            "service.memo_hit_latency_s_p50": percentile(
                [p["wall"] for p in self.pairs if p["memo_hit"]], 0.5),
        }
        # Job records carry time.time() stamps; spans are perf_counter.
        skew = time.perf_counter() - time.time()
        waits: list[float] = []
        runs: dict[str, list[float]] = {}
        for p in self.pairs:
            record = client.job(p["job_id"])
            if record["assigned_at"] is None:
                continue    # memo hit or coalesced: never reached a GPU
            submitted, assigned, finished = (
                record[key] + skew for key in
                ("submitted_at", "assigned_at", "finished_at"))
            waits.append(assigned - submitted)
            runs.setdefault(p["workload"], []).append(finished - assigned)
            track = f"gpu-{record['gpu']}"
            self.recorder.add("service.queue_wait", submitted, assigned,
                              parent=p["span"], track=track)
            self.recorder.add(f"service.run.{p['workload']}", assigned,
                              finished, parent=p["span"], track=track)
        layers["service.queue_wait_s_p50"] = percentile(waits, 0.5)
        layers["service.queue_wait_s_p95"] = percentile(waits, 0.95)
        for workload, values in runs.items():
            layers[f"service.run_s_p50.{workload}"] = median(values)
        counters = client.cluster_stats()["counters"]
        for name in ("executed", "memo_hits", "coalesced", "errors"):
            layers[f"service.{name}"] = counters[name]
        layers["service.memo_share"] = (
            (counters["memo_hits"] + counters["coalesced"])
            / counters["submitted"])
        round_trips = []
        for _ in range(200):
            start = time.perf_counter()
            client.health()
            round_trips.append(time.perf_counter() - start)
        layers["rest.roundtrip_s_p50"] = median(round_trips)
        # Both simulated GPUs busy: what two jobs at once buy or cost.
        layers["service.two_client_jobs_per_s"] = (
            len(self.BLOCK) / self.window(seconds / 3, clients=2))
        layers["service.two_client_speedup"] = (
            layers["service.two_client_jobs_per_s"] / layers["jobs_per_s"])
        return layers

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.scheduler.shutdown()


WORKLOADS = {cls.name: cls for cls in (
    LenetMegablock, ConvScalar, LenetTiming, ColdStart, ServiceMix,
    ShardedBlend)}
