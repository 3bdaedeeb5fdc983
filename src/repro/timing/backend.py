"""Runtime backend running every launch through the timing model."""

from __future__ import annotations

from dataclasses import asdict

from repro.cuda.runtime import KernelRunResult
from repro.functional.state import LaunchContext
from repro.timing.config import GPUConfig, TINY
from repro.timing.gpu import GpuTiming
from repro.timing.stats import KernelStats
from repro.trace.tracer import NULL_TRACER


class TimingBackend:
    """Performance-simulation backend for :class:`CudaRuntime`.

    The paper notes performance mode is "generally 7-8 times slower than
    the Functional simulation mode" — here, too, each launch pays for
    cycle-level scheduling, caches and DRAM on top of its functional
    execution: a megablock pre-pass whose recorded per-warp streams the
    cycle loop replays, or, where a recording would not be provably
    identical, instruction-by-instruction stepping inside the loop
    (:attr:`launch_sources` says which, per launch, and why).
    """

    def __init__(self, config: GPUConfig = TINY, *,
                 max_cycles: int = 50_000_000,
                 reconverge_at_exit: bool = False,
                 mem_fault_filter=None) -> None:
        self.config = config
        self.gpu = GpuTiming(config, max_cycles=max_cycles,
                             reconverge_at_exit=reconverge_at_exit,
                             mem_fault_filter=mem_fault_filter)
        self.kernel_stats: list[KernelStats] = []
        #: Per launch: ``{"kernel", "source": "recorded" | "live"}`` plus
        #: ``"why"`` for a live one.  Kept out of ``KernelStats``, whose
        #: dicts feed byte-compared figure artifacts.
        self.launch_sources = self.gpu.launch_sources
        #: Set by the owning CudaRuntime when tracing is on.
        self.tracer = NULL_TRACER

    def execute(self, launch: LaunchContext) -> KernelRunResult:
        stats, samples = self.gpu.simulate(launch)
        self.kernel_stats.append(stats)
        if self.tracer.enabled:
            source = {key: value   # the event is named after the kernel
                      for key, value in self.launch_sources[-1].items()
                      if key != "kernel"}
            self.tracer.complete(
                f"timing:{launch.kernel.name}",
                ts=self.tracer.clock.now, dur=float(stats.cycles),
                cat="engine",
                args={"tier": "timing", **source, "cycles": stats.cycles,
                      "instructions": stats.warp_instructions,
                      "ipc": round(stats.warp_instructions / stats.cycles,
                                   4) if stats.cycles else 0.0})
        payload = asdict(stats)
        payload.pop("extra", None)
        payload.update(stats.extra)
        return KernelRunResult(
            instructions=stats.warp_instructions,
            cycles=stats.cycles,
            stats=payload,
            samples=samples,
        )
