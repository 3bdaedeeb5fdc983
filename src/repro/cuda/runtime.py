"""The CUDA Runtime + Driver API surface (our ``libcudart.so``).

PyTorch-style frameworks reach the simulator exactly the way the paper
describes: the framework calls runtime-API entry points, the loader has
already extracted PTX from (statically linked) library binaries, and each
library call fans out into several opaque kernel launches on streams.

Launches are *asynchronous*: they enqueue onto a stream and run when the
runtime drains (any synchronising API call).  ``cudaStreamWaitEvent`` —
the API the paper had to add — gates a stream on an event recorded in
another stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import CudaError
from repro.cuda.fatbinary import EmbeddedPTX, FatBinary
from repro.cuda.loader import LoadedProgram, ProgramLoader
from repro.cuda.streams import CudaEvent, CudaStream, StreamOp
from repro.cuda.textures import (
    TextureInfo, TextureReference, TextureReferenceAttr, TextureSystem)
from repro.functional.executor import Admission, FunctionalEngine, RunStats
from repro.functional.memory import CudaArray, GlobalMemory, LinearMemory
from repro.functional.state import LaunchContext
from repro.ptx.ast import Kernel
from repro.ptx.values import write_typed
from repro.quirks import FIXED, LegacyQuirks
from repro.trace.bridge import emit_sample_counters
from repro.trace.clock import SimClock
from repro.trace.tracer import NULL_TRACER, TID_RUNTIME, stream_tid

Dim = int | tuple[int, ...]


def _dim3(value: Dim) -> tuple[int, int, int]:
    if isinstance(value, int):
        return (value, 1, 1)
    padded = tuple(value) + (1, 1, 1)
    return padded[:3]  # type: ignore[return-value]


@dataclass
class KernelRunResult:
    """What one kernel execution reported back."""

    instructions: int = 0
    cycles: int = 0
    stats: dict = field(default_factory=dict)
    samples: object | None = None  # AerialVision sample block (timing mode)


@dataclass
class KernelProfile:
    """NVProf-style per-launch record."""

    name: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    start: float
    end: float
    result: KernelRunResult

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def instructions(self) -> int:
        return self.result.instructions


class FunctionalBackend:
    """Functional simulation mode: correctness only, no timing stats.

    ``fast_mode`` selects the interpreter tier ("megablock",
    "superblock", "fastpath" or "reference") for ablation.  The
    megablock tier executes all lanes of a launch as NumPy array
    operations and transparently falls back to the scalar tiers for
    kernels its vector codegen cannot handle, so it is safe as a
    drop-in; the default stays "superblock" for the scalar hooks'
    benefit (fault injection, per-instruction observers).
    """

    def __init__(self, *, fast_mode: str = "superblock",
                 on_exec=None, exec_override=None,
                 verify: bool = False,
                 sanitize=None) -> None:
        self.fast_mode = fast_mode
        #: Optional per-instruction hooks forwarded to FunctionalEngine
        #: (fault injection / instrumentation); either forces the
        #: engine off the superblock tier for the affected launch.
        self.on_exec = on_exec
        self.exec_override = exec_override
        #: Run the static verifier before every launch (VerificationError
        #: on error-severity findings).
        self.verify = verify
        #: Shadow-state sanitizer shared by every launch of the backend
        #: (pass True for a fresh one, or an existing Sanitizer to
        #: accumulate findings across runtimes).  The owning CudaRuntime
        #: attaches shadow memory and the poison read policy at init.
        if sanitize is True:
            from repro.sanitize.core import Sanitizer
            sanitize = Sanitizer()
        self.sanitize = sanitize or None
        #: Set by the owning CudaRuntime when tracing is on.
        self.tracer = NULL_TRACER

    def launch_hooks(self, launch: LaunchContext) -> dict:
        """The per-instruction hooks (``on_exec``/``exec_override``
        engine arguments) this launch runs under; a subclass overrides
        it to arm them per launch."""
        return {"on_exec": self.on_exec,
                "exec_override": self.exec_override}

    def engine(self, launch: LaunchContext) -> FunctionalEngine:
        """The engine for one functional launch — the only place a
        backend builds one."""
        return FunctionalEngine(launch, fast_mode=self.fast_mode,
                                verify=self.verify,
                                sanitize=self.sanitize,
                                tracer=self.tracer,
                                **self.launch_hooks(launch))

    def report(self, launch: LaunchContext, stats: RunStats,
               admission: Admission, *, label: str = "functional",
               **args) -> KernelRunResult:
        """What a functionally executed launch reports: its one engine
        slice, ``<label>:<kernel>`` with the tier that ran and why (the
        *admission*), and the :class:`KernelRunResult`."""
        tracer = self.tracer
        if tracer.enabled:
            if admission.why is not None:
                args["tier_why"] = admission.why
            tracer.complete(
                f"{label}:{launch.kernel.name}",
                ts=tracer.clock.now, dur=float(stats.instructions),
                cat="engine",
                args={"tier": admission.tier, "verify": self.verify,
                      **args, "instructions": stats.instructions})
        return KernelRunResult(instructions=stats.instructions, cycles=0,
                               stats={"per_opcode": stats.dynamic_per_opcode})

    def execute(self, launch: LaunchContext) -> KernelRunResult:
        engine = self.engine(launch)
        stats = engine.run()
        return self.report(launch, stats, engine.admission)


class CudaRuntime:
    """One simulated device context."""

    def __init__(self, *, quirks: LegacyQuirks = FIXED,
                 backend: object | None = None,
                 allow_brace_init: bool = False,
                 tracer: object | None = None,
                 clock: SimClock | None = None) -> None:
        self.quirks = quirks
        self.global_mem = GlobalMemory()
        self.loader = ProgramLoader(self.global_mem, quirks,
                                    allow_brace_init=allow_brace_init)
        self.program = LoadedProgram()
        self.textures = TextureSystem(quirks)
        self.backend = backend or FunctionalBackend()
        if getattr(self.backend, "sanitize", None) is not None:
            # Arm shadow state before any host upload: initialized-byte
            # tracking must see every memcpy from the first, and the
            # poison policy keeps stale reads from masquerading as
            # legitimate zeros (satellite of the sanitizer issue).
            from repro.sanitize.shadow import attach_shadow
            attach_shadow(self.global_mem)
            self.global_mem.uninit_read = "poison"
        self.default_stream = CudaStream(stream_id=0)
        self.streams: list[CudaStream] = [self.default_stream]
        #: Single monotonic sim-time source shared by the virtual
        #: timeline (``self.now``), the tracer's span stamps and — in
        #: timing mode — the SampleBlock interval bins, so the three can
        #: never disagree.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if clock is not None:
            self.clock = clock
            if self.tracer.enabled:
                self.tracer.clock = clock
        elif self.tracer.enabled:
            self.clock = self.tracer.clock
        else:
            self.clock = SimClock()
        if self.tracer.enabled:
            self.tracer.name_track(TID_RUNTIME, "CUDA runtime")
            self.tracer.name_track(stream_tid(0), "stream 0 (default)")
        self.profiles: list[KernelProfile] = []
        self.launch_log: list[dict] = []
        self._launch_ordinal = 0
        #: Launch-boundary observers (debug tools, fault campaigns, the
        #: service's cancellation/progress pair), called around each
        #: kernel execution with (ordinal, name, grid, block, args).
        self.before_kernel_hooks: list = []
        self.after_kernel_hooks: list = []

    @property
    def now(self) -> float:
        """Current simulated time (cycles), read from the shared clock."""
        return self.clock.now

    @now.setter
    def now(self, value: float) -> None:
        self.clock.advance_to(value)

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load_binary(self, binary: FatBinary) -> None:
        self._merge_program(self.loader.load_binary(binary))

    def load_ptx(self, text: str, file_id: str = "inline") -> None:
        self._merge_program(self.loader.load_images(
            [EmbeddedPTX(file_id=file_id, text=text)]))

    def _merge_program(self, extra: LoadedProgram) -> None:
        if not self.program.modules:
            self.program = extra
            return
        self.program.modules.extend(extra.modules)
        self.program.kernels_qualified.update(extra.kernels_qualified)
        for name, kernel in extra.kernels.items():
            self.program.kernels.setdefault(name, kernel)
        for name, entry in extra.module_symbols.items():
            self.program.module_symbols.setdefault(name, entry)
        if len(extra.const_mem.data) > len(self.program.const_mem.data):
            self.program.const_mem = extra.const_mem

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def malloc(self, nbytes: int) -> int:
        return self.global_mem.allocate(nbytes)

    def free(self, addr: int) -> None:
        self.global_mem.free(addr)

    def memcpy_h2d(self, dst: int, src: bytes | np.ndarray) -> None:
        self.synchronize()
        data = self._as_bytes(src)
        if self.tracer.enabled:
            self.tracer.instant("memcpy:h2d", tid=TID_RUNTIME, cat="memory",
                                args={"nbytes": len(data)})
        self.global_mem.write(dst, data)

    def memcpy_d2h(self, src: int, nbytes: int) -> bytes:
        self.synchronize()
        if self.tracer.enabled:
            self.tracer.instant("memcpy:d2h", tid=TID_RUNTIME, cat="memory",
                                args={"nbytes": nbytes})
        return self.global_mem.read(src, nbytes)

    def memcpy_d2d(self, dst: int, src: int, nbytes: int) -> None:
        self.synchronize()
        if self.tracer.enabled:
            self.tracer.instant("memcpy:d2d", tid=TID_RUNTIME, cat="memory",
                                args={"nbytes": nbytes})
        self.global_mem.write(dst, self.global_mem.read(src, nbytes))

    def memset(self, dst: int, value: int, nbytes: int) -> None:
        self.synchronize()
        self.global_mem.write(dst, bytes([value & 0xFF]) * nbytes)

    def memcpy_h2d_async(self, dst: int, src: bytes | np.ndarray,
                         stream: CudaStream) -> None:
        data = self._as_bytes(src)
        stream.enqueue(StreamOp(
            kind="memcpy", label="h2d",
            action=lambda: self.global_mem.write(dst, data)))

    @staticmethod
    def _as_bytes(src: bytes | np.ndarray) -> bytes:
        if isinstance(src, np.ndarray):
            return src.tobytes()
        return bytes(src)

    # Typed convenience wrappers used throughout the examples/tests.
    def upload_f32(self, values: Sequence[float] | np.ndarray) -> int:
        array = np.asarray(values, dtype=np.float32)
        addr = self.malloc(array.nbytes)
        self.memcpy_h2d(addr, array)
        return addr

    def download_f32(self, addr: int, count: int) -> np.ndarray:
        raw = self.memcpy_d2h(addr, 4 * count)
        return np.frombuffer(raw, dtype=np.float32).copy()

    # ------------------------------------------------------------------
    # Streams and events
    # ------------------------------------------------------------------
    def stream_create(self) -> CudaStream:
        stream = CudaStream()
        self.streams.append(stream)
        if self.tracer.enabled:
            self.tracer.name_track(stream_tid(stream.stream_id),
                                   f"stream {stream.stream_id}")
        return stream

    def event_create(self) -> CudaEvent:
        return CudaEvent()

    def event_record(self, event: CudaEvent,
                     stream: CudaStream | None = None) -> None:
        event.recorded = True
        (stream or self.default_stream).enqueue(
            StreamOp(kind="record", event=event))

    def stream_wait_event(self, stream: CudaStream,
                          event: CudaEvent) -> None:
        """cudaStreamWaitEvent — the call the paper added to GPGPU-Sim."""
        if self.quirks.stream_wait_event_unsupported:
            raise CudaError(
                "cudaStreamWaitEvent is not implemented in stock "
                "GPGPU-Sim (added by the paper, Section III-B)")
        stream.enqueue(StreamOp(kind="wait", event=event))

    def stream_synchronize(self, stream: CudaStream) -> None:
        self._drain(only=stream)

    def event_synchronize(self, event: CudaEvent) -> None:
        self.synchronize()
        if event.recorded and not event.completed:
            raise CudaError("event recorded but never completed")

    def event_elapsed(self, start: CudaEvent, end: CudaEvent) -> float:
        return end.timestamp - start.timestamp

    def synchronize(self) -> None:
        """cudaDeviceSynchronize: drain every stream."""
        self._drain(only=None)

    def _run_op(self, stream: CudaStream) -> StreamOp:
        """Pop-and-run the stream head; non-kernel ops (event record /
        wait, async memcpy) become instants on the stream's track."""
        op = stream.pop_and_run(self.now)
        if self.tracer.enabled and op.kind != "kernel":
            name = op.kind if op.label is None else f"{op.kind}:{op.label}"
            args = None
            if op.event is not None:
                args = {"event": op.event.event_id}
            self.tracer.instant(name, tid=stream_tid(stream.stream_id),
                                cat="stream", args=args)
        return op

    def _drain(self, only: CudaStream | None) -> None:
        if only is not None:
            # cudaStreamSynchronize: drain the target stream, running
            # other streams only as far as its event waits require.
            self._drain_stream(only, frozenset())
            return
        # cudaDeviceSynchronize: drain everything.
        while not all(s.idle for s in self.streams):
            progressed = False
            for stream in self.streams:
                while stream.head_ready():
                    self._run_op(stream)
                    progressed = True
            if not progressed:
                blocked = [s.stream_id for s in self.streams if not s.idle]
                raise CudaError(
                    f"stream deadlock: streams {blocked} are waiting on "
                    "events that will never complete")

    def _drain_stream(self, stream: CudaStream,
                      visiting: frozenset[CudaStream]) -> None:
        """Fully drain *stream*; recursively satisfy its event waits."""
        if stream in visiting:
            raise CudaError(
                f"stream deadlock: stream {stream.stream_id} waits on an "
                "event whose record depends on this stream")
        visiting = visiting | {stream}
        while stream.queue:
            if stream.head_ready():
                self._run_op(stream)
                continue
            # Head is a wait on a recorded-but-incomplete event: advance
            # the producer stream just far enough to execute the record.
            event = stream.queue[0].event
            assert event is not None
            self._complete_event(event, visiting)

    def _complete_event(self, event: CudaEvent,
                        visiting: frozenset[CudaStream]) -> None:
        producer = next(
            (s for s in self.streams
             if any(op.kind == "record" and op.event is event
                    for op in s.queue)), None)
        if producer is None:
            raise CudaError(
                f"stream deadlock: event {event.event_id} was recorded "
                "but its record op will never complete")
        if producer in visiting:
            raise CudaError(
                f"stream deadlock: cyclic event dependency through "
                f"stream {producer.stream_id}")
        while not event.completed:
            if producer.head_ready():
                op = self._run_op(producer)
                if op.kind == "record" and op.event is event:
                    return  # done, even if an injected fault ate the signal
            else:
                head = producer.queue[0].event
                assert head is not None
                self._complete_event(head, visiting | {producer})

    # ------------------------------------------------------------------
    # Kernel launch (Runtime API)
    # ------------------------------------------------------------------
    def launch(self, name: str, grid: Dim, block: Dim,
               args: Sequence[object],
               stream: CudaStream | None = None) -> None:
        """cudaLaunchKernel: enqueue a kernel by name."""
        kernel = self.program.find_kernel(name)
        self._enqueue_kernel(kernel, name, grid, block, args,
                             stream or self.default_stream)

    # ------------------------------------------------------------------
    # Kernel launch (Driver API)
    # ------------------------------------------------------------------
    def cu_module_get_function(self, name: str) -> Kernel:
        return self.program.find_kernel(name)

    def cu_launch_kernel(self, func: Kernel, grid: Dim, block: Dim,
                         args: Sequence[object],
                         stream: CudaStream | None = None) -> None:
        """cuLaunchKernel — the driver-API entry the paper had to add for
        its ptxjit-based debugging tool."""
        if self.quirks.cu_launch_kernel_unsupported:
            raise CudaError(
                "cuLaunchKernel is not implemented in stock GPGPU-Sim "
                "(added by the paper, Section III-B)")
        self._enqueue_kernel(func, func.name, grid, block, args,
                             stream or self.default_stream)

    def _enqueue_kernel(self, kernel: Kernel, name: str, grid: Dim,
                        block: Dim, args: Sequence[object],
                        stream: CudaStream) -> None:
        grid3 = _dim3(grid)
        block3 = _dim3(block)
        param_mem = self._pack_args(kernel, args)
        ordinal = self._launch_ordinal
        self._launch_ordinal += 1
        self.launch_log.append({
            "ordinal": ordinal, "name": name, "grid": grid3,
            "block": block3, "args": list(args),
        })

        def run() -> None:
            for hook in self.before_kernel_hooks:
                hook(ordinal, name, grid3, block3, args)
            launch = LaunchContext(
                kernel=kernel, grid_dim=grid3, block_dim=block3,
                global_mem=self.global_mem, param_mem=param_mem,
                const_mem=self.program.const_mem,
                module_symbols=self.program.module_symbols,
                textures=self.textures.view(),  # type: ignore[arg-type]
                quirks=self.quirks, ordinal=ordinal)
            tracer = self.tracer
            tid = stream_tid(stream.stream_id)
            if tracer.enabled:
                if getattr(self.backend, "tracer", NULL_TRACER) \
                        is NULL_TRACER:
                    try:
                        self.backend.tracer = tracer
                    except AttributeError:
                        pass
                tracer.begin(name, tid=tid, cat="kernel",
                             args={"grid": grid3, "block": block3,
                                   "ordinal": ordinal})
                tracer.push_default_tid(tid)
            start = self.now
            try:
                result = self.backend.execute(launch)
            finally:
                if tracer.enabled:
                    tracer.pop_default_tid()
            self.now += result.cycles or result.instructions
            if tracer.enabled:
                tracer.end(tid=tid,
                           args={"instructions": result.instructions,
                                 "cycles": result.cycles})
                if result.samples is not None:
                    tracer.attach_samples(f"{name}#{ordinal}",
                                          result.samples)
                    emit_sample_counters(tracer, result.samples, start,
                                         tid=tid)
            self.profiles.append(KernelProfile(
                name=name, grid=grid3, block=block3, start=start,
                end=self.now, result=result))
            for hook in self.after_kernel_hooks:
                hook(ordinal, name, grid3, block3, args)

        stream.enqueue(StreamOp(kind="kernel", action=run, label=name))

    def _pack_args(self, kernel: Kernel,
                   args: Sequence[object]) -> LinearMemory:
        if len(args) != len(kernel.params):
            raise CudaError(
                f"kernel {kernel.name!r} expects {len(kernel.params)} "
                f"arguments, got {len(args)}")
        param_mem = LinearMemory(max(kernel.param_bytes, 16))
        for decl, value in zip(kernel.params, args):
            if isinstance(value, (bytes, bytearray)):
                param_mem.write(decl.offset, bytes(value))
            else:
                payload = write_typed(value, decl.dtype)
                param_mem.write_uint(decl.offset, payload, decl.dtype.bytes)
        return param_mem

    # ------------------------------------------------------------------
    # Textures
    # ------------------------------------------------------------------
    def register_texture(self, name: str) -> TextureReference:
        return self.textures.register_texture(name)

    def bind_texture_to_array(self, ref: TextureReference, array: CudaArray,
                              info: TextureInfo | None = None,
                              attrs: TextureReferenceAttr | None = None
                              ) -> None:
        self.textures.bind_to_array(ref, array, info, attrs)

    def unbind_texture(self, ref: TextureReference) -> None:
        self.textures.unbind(ref)

    def malloc_array(self, width: int, height: int) -> CudaArray:
        return CudaArray(width, height)

    def memcpy_to_array(self, array: CudaArray,
                        src: bytes | np.ndarray) -> None:
        array.upload(self._as_bytes(src))

    # ------------------------------------------------------------------
    # Symbols & profiling
    # ------------------------------------------------------------------
    def get_symbol_address(self, name: str) -> int:
        entry = self.program.module_symbols.get(name)
        if entry is None or entry[0] != "global":
            raise CudaError(f"no device global named {name!r}")
        return entry[1]

    def profile_summary(self) -> dict[str, dict[str, float]]:
        """Aggregate per-kernel-name cycles/instructions (NVProf-style)."""
        summary: dict[str, dict[str, float]] = {}
        for profile in self.profiles:
            entry = summary.setdefault(
                profile.name,
                {"launches": 0, "cycles": 0, "instructions": 0})
            entry["launches"] += 1
            entry["cycles"] += profile.cycles
            entry["instructions"] += profile.instructions
        return summary
