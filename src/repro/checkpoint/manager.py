"""Checkpoint and resume flows (paper Figure 5).

Checkpoint flow (functional mode):
    kernels with ordinal < x  -> executed normally
    kernel x, CTAs < M        -> executed normally
    kernel x, CTAs M .. M+t   -> y instructions per warp, then Data1
    kernel x, CTAs > M+t      -> not executed
    kernels with ordinal > x  -> not executed
    global memory             -> Data2 snapshot

Resume flow (functional *or* performance mode):
    kernels with ordinal < x  -> skipped (Data2 already restored)
    kernel x, CTAs < M        -> skipped
    kernel x, CTAs M .. M+t   -> Data1 restored, executed to completion
    kernel x, CTAs > M+t      -> executed normally
    kernels with ordinal > x  -> executed normally

Both flows are backends plugged into the CUDA runtime; the workload
(host program) is simply re-run, which is exactly how GPGPU-Sim's
checkpointing replays the application.  Neither drives a CTA itself:
kernel ``x`` (a ``LaunchContext.ordinal``) asks the one CTA loop for a
budget and a capture callback on the way in, and is handed to the
inner backend's ordinary ``execute`` narrowed (``first_cta``,
``restored``) on the way out.
"""

from __future__ import annotations

from repro.cuda.runtime import FunctionalBackend, KernelRunResult
from repro.functional.state import LaunchContext
from repro.checkpoint.state import Checkpoint, capture_cta, restore_cta
from repro.errors import CheckpointError
from repro.trace.tracer import NULL_TRACER


def _check_order(launch: LaunchContext, x: int, passed: bool) -> None:
    """Both flows cut the application at kernel ``x`` in *enqueue*
    order (``launch.ordinal``); streams may execute launches in another
    order, and a kernel on the wrong side of the cut would silently be
    lost from (or doubled in) Data2."""
    if launch.ordinal != x and (launch.ordinal > x) != passed:
        raise CheckpointError(
            f"kernel #{launch.ordinal} ({launch.kernel.name}) executed "
            f"{'after' if passed else 'before'} checkpoint kernel #{x}, "
            "out of enqueue order; checkpointing needs the streams to "
            "run launches in the order they were enqueued")


class CheckpointingBackend(FunctionalBackend):
    """Functional-mode backend that captures a checkpoint at
    (kernel ``x``, CTA ``M``, ``t`` extra partial CTAs, ``y``
    instructions per warp)."""

    def __init__(self, kernel_ordinal: int, first_cta: int,
                 partial_ctas: int = 1,
                 warp_instruction_budget: int = 32) -> None:
        super().__init__()
        if partial_ctas < 1:
            raise CheckpointError("need at least one partial CTA")
        self.x = kernel_ordinal
        self.m = first_cta
        self.t = partial_ctas
        self.y = warp_instruction_budget
        self.checkpoint: Checkpoint | None = None

    @property
    def taken(self) -> bool:
        return self.checkpoint is not None

    def execute(self, launch: LaunchContext) -> KernelRunResult:
        _check_order(launch, self.x, self.taken)
        if launch.ordinal > self.x:
            return KernelRunResult()  # past the checkpoint: skip
        if launch.ordinal < self.x:
            return super().execute(launch)
        # Kernel x: the checkpoint kernel.
        checkpoint = Checkpoint(
            kernel_ordinal=self.x, first_cta=self.m,
            partial_ctas=self.t, warp_instruction_budget=self.y,
            kernel_name=launch.kernel.name)
        engine = self.engine(launch)
        whole = min(self.m, launch.num_ctas)
        stats = engine.run_range(0, whole)
        engine.run_range(
            whole, min(self.m + self.t, launch.num_ctas), stats,
            max_warp_instructions=self.y,
            on_cta=lambda cta: checkpoint.cta_snapshots.append(
                capture_cta(cta)))
        checkpoint.global_memory = launch.global_mem.snapshot()
        self.checkpoint = checkpoint
        if self.tracer.enabled:
            self.tracer.instant(
                f"checkpoint:save:{launch.kernel.name}", cat="checkpoint",
                args={"kernel_ordinal": self.x, "first_cta": self.m,
                      "partial_ctas": len(checkpoint.cta_snapshots),
                      "warp_instruction_budget": self.y,
                      "instructions": stats.instructions})
        return self.report(launch, stats, engine.admission)


class ResumeBackend:
    """Backend resuming from a checkpoint: skips what the checkpoint
    already covers and delegates everything else — the checkpoint
    kernel's remaining CTAs included — to an inner (functional or
    timing) backend."""

    def __init__(self, checkpoint: Checkpoint, inner) -> None:
        self.checkpoint = checkpoint
        self.inner = inner
        self._restored = False
        #: Set by the owning CudaRuntime when tracing is on.
        self.tracer = NULL_TRACER

    def execute(self, launch: LaunchContext) -> KernelRunResult:
        cp = self.checkpoint
        _check_order(launch, cp.kernel_ordinal, self._restored)
        if launch.ordinal < cp.kernel_ordinal:
            return KernelRunResult()  # skipped; Data2 covers its effects
        if launch.ordinal == cp.kernel_ordinal:
            if launch.kernel.name != cp.kernel_name:
                raise CheckpointError(
                    f"resume mismatch: kernel #{launch.ordinal} is "
                    f"{launch.kernel.name!r}, checkpoint was taken in "
                    f"{cp.kernel_name!r}")
            launch.global_mem.restore(cp.global_memory)
            self._restored = True
            if self.tracer.enabled:
                self.tracer.instant(
                    f"checkpoint:restore:{launch.kernel.name}",
                    cat="checkpoint",
                    args={"kernel_ordinal": cp.kernel_ordinal,
                          "first_cta": cp.first_cta,
                          "ctas_restored": len(cp.cta_snapshots)})
            # CTAs below M are done; M .. M+t run on from Data1.
            launch.first_cta = min(cp.first_cta, launch.num_ctas)
            launch.restored = {snap.cta_linear: restore_cta(launch, snap)
                               for snap in cp.cta_snapshots}
        if (self.tracer.enabled
                and getattr(self.inner, "tracer", None) is NULL_TRACER):
            self.inner.tracer = self.tracer
        return self.inner.execute(launch)
