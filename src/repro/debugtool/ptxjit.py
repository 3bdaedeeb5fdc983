"""The application pass, the captured launch and its replay (ptxjit).

The paper's debugging tool captures "the data which is being copied to
the GPU before a kernel is launched, along with the parameters passed
into the kernel" and replays individual kernels "using our debugging
framework, the extracted PTX, and a version of the ptxjit CUDA SDK
example".  Section VI asks for more of this: "extract specific kernels,
run them individually ... and study them using higher-level tools like
NVProf".

Everything in the debugging flow that *runs the application* goes
through :func:`run_application`, everything that holds *a launch as
data* is an :class:`ExtractedKernel` filled by :func:`capture_launches`,
and everything that *re-executes* one calls
:meth:`ExtractedKernel.replay_on` — the three-level bisection
(:mod:`repro.debugtool.bisect`), :class:`KernelExtractor` and the fault
campaign are callers, not copies.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.cuda.fatbinary import FatBinary
from repro.cuda.runtime import CudaRuntime, KernelProfile
from repro.cuda.textures import snapshot_textures
from repro.cudnn.api import Cudnn
from repro.cudnn.library import build_application_binary
from repro.debugtool.ptxprint import format_kernel, module_vars
from repro.errors import DebugToolError, ReproError
from repro.quirks import FIXED, LegacyQuirks
from repro.util.atomicstore import atomic_write, load_pickled

Workload = Callable[[Cudnn], None]

#: Builds a fresh, empty runtime (no program loaded).  The application
#: pass loads its binary into whatever the factory returns, so a factory
#: can pre-wire quirks, backends or fault injectors.
RuntimeFactory = Callable[[], CudaRuntime]


def run_application(factory: RuntimeFactory, binary: FatBinary,
                    workload: Workload, attach=None, *,
                    tolerant: bool = False) -> tuple[CudaRuntime, Cudnn]:
    """The one application pass: build the runtime, load *binary*,
    create the :class:`Cudnn` handle, let ``attach(runtime, dnn)``
    install its observers (``before/after_kernel_hooks``,
    ``on_api_end``) on the constructed pair, run *workload* and
    synchronize.  *tolerant* swallows a simulator fault mid-workload —
    for a suspect simulator, stopping early *is* a difference."""
    runtime = factory()
    runtime.load_binary(binary)
    dnn = Cudnn(runtime)
    if attach is not None:
        attach(runtime, dnn)
    try:
        workload(dnn)
        runtime.synchronize()
    except ReproError:
        if not tolerant:
            raise
    return runtime, dnn


@dataclass
class ExtractedKernel:
    """One captured launch, replayable in isolation."""

    name: str
    #: Loadable module text: the entry plus declarations of the
    #: module-scope variables its body names.
    ptx: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    args: list
    memory: dict = field(repr=False, default_factory=dict)
    ordinal: int = 0
    #: Contents of those module-scope variables at the launch.
    symbols: dict[str, bytes] = field(repr=False, default_factory=dict)
    #: The cudaArrays bound to the textures the body samples,
    #: ``name -> (width, height, texels)``.
    textures: dict[str, tuple[int, int, bytes]] = field(
        repr=False, default_factory=dict)

    # -- persistence ------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist atomically (temp file + ``os.replace``)."""
        path = Path(path)
        atomic_write(path, pickle.dumps(
            self, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExtractedKernel":
        """Read a saved launch back; a missing, truncated or foreign
        file raises :class:`DebugToolError` naming it."""
        return load_pickled(path, cls, DebugToolError, "extracted kernel")

    # -- replay -----------------------------------------------------------
    def replay_on(self, factory: RuntimeFactory, *, ptx: str | None = None,
                  extra_args=None, tolerant: bool = False) -> CudaRuntime:
        """Launch the kernel standalone on ``factory()`` through the
        driver-API ``cuLaunchKernel`` and return the runtime.

        *ptx* substitutes a rewritten body (the instrumented kernel);
        ``extra_args(runtime)`` supplies its trailing arguments, built
        on the replay runtime after the memory image is in place (the
        log buffer); *tolerant* keeps the runtime — and whatever the
        kernel wrote — when the launch faults.  Module-scope variables
        live wherever the replay runtime's loader put them, holding
        their captured contents."""
        runtime = factory()
        runtime.global_mem.restore(self.memory)
        file_id = f"extracted:{self.name}"
        runtime.load_ptx(ptx or self.ptx, file_id=file_id)
        program = runtime.program
        for name, blob in self.symbols.items():
            space, addr = program.module_symbols[name]
            (runtime.global_mem if space == "global"
             else program.const_mem).write(addr, blob)
        for name, (width, height, texels) in self.textures.items():
            array = runtime.malloc_array(width, height)
            runtime.memcpy_to_array(array, texels)
            runtime.bind_texture_to_array(
                runtime.register_texture(name), array)
        args = list(self.args)
        if extra_args is not None:
            args += extra_args(runtime)
        try:
            runtime.cu_launch_kernel(
                program.kernels_qualified[f"{file_id}::{self.name}"],
                self.grid, self.block, args)
            runtime.synchronize()
        except ReproError:
            if not tolerant:
                raise
        return runtime

    def replay(self, *, backend=None,
               quirks: LegacyQuirks = FIXED) -> CudaRuntime:
        """Launch the kernel standalone; returns the runtime (inspect
        ``runtime.profiles[-1]`` or read back device buffers)."""
        return self.replay_on(
            lambda: CudaRuntime(backend=backend, quirks=quirks))

    def profile(self, backend) -> KernelProfile:
        """Replay under *backend* and return the launch profile."""
        runtime = self.replay(backend=backend)
        return runtime.profiles[-1]


def capture_launches(factory: RuntimeFactory, binary: FatBinary,
                     workload: Workload, wanted: Callable[[int], bool]
                     ) -> tuple[CudaRuntime, list[ExtractedKernel]]:
    """One application pass that snapshots every launch whose ordinal
    *wanted* accepts, just before it executes.  Returns the runtime the
    pass ran on (its ``program`` holds the captured kernels' ASTs) and
    the captures in launch order."""
    captured: list[ExtractedKernel] = []

    def attach(runtime: CudaRuntime, dnn: Cudnn) -> None:
        def before(ordinal, name, grid, block, args) -> None:
            if not wanted(ordinal):
                return
            program = runtime.program
            kernel = program.find_kernel(name)
            symbols = {}
            for var in module_vars(kernel):
                space, addr = program.module_symbols[var.name]
                symbols[var.name] = (
                    runtime.global_mem if space == "global"
                    else program.const_mem).read(addr, var.size)
            captured.append(ExtractedKernel(
                name=kernel.name, ptx=format_kernel(kernel), grid=grid,
                block=block, args=list(args),
                memory=runtime.global_mem.snapshot(), ordinal=ordinal,
                symbols=symbols,
                textures=snapshot_textures(kernel,
                                           runtime.textures.view())))
        runtime.before_kernel_hooks.append(before)

    runtime, _ = run_application(factory, binary, workload, attach)
    return runtime, captured


def capture_launch(factory: RuntimeFactory, binary: FatBinary,
                   workload: Workload, ordinal: int
                   ) -> tuple[CudaRuntime, ExtractedKernel]:
    """:func:`capture_launches` for the one launch numbered *ordinal*;
    :class:`DebugToolError` if the workload never got there."""
    runtime, captured = capture_launches(
        factory, binary, workload, lambda seen: seen == ordinal)
    if not captured:
        raise DebugToolError(
            f"workload never launched kernel ordinal {ordinal} "
            f"(saw {len(runtime.launch_log)} launches)")
    return runtime, captured[0]


class KernelExtractor:
    """Runs a workload and captures chosen launches."""

    def __init__(self, workload: Workload, *,
                 binary: FatBinary | None = None,
                 quirks: LegacyQuirks = FIXED) -> None:
        self.workload = workload
        self.binary = binary or build_application_binary()
        self.quirks = quirks

    def _new_runtime(self) -> CudaRuntime:
        return CudaRuntime(quirks=self.quirks)

    def extract(self, ordinal: int) -> ExtractedKernel:
        return capture_launch(self._new_runtime, self.binary, self.workload,
                              ordinal)[1]

    def extract_all(self, *, limit: int | None = None
                    ) -> list[ExtractedKernel]:
        """Capture every launch of the workload (bounded by *limit*) in
        one pass."""
        return capture_launches(
            self._new_runtime, self.binary, self.workload,
            lambda seen: limit is None or seen < limit)[1]
