"""Exception hierarchy for the repro GPU simulator.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch simulator faults without masking genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all simulator errors."""


class PTXSyntaxError(ReproError):
    """Raised when PTX text cannot be lexed or parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PTXLabelError(PTXSyntaxError):
    """Raised for duplicate label definitions or branches to undefined
    labels, at parse/build time rather than as a ``KeyError`` mid-run."""


class PTXNameError(ReproError):
    """Raised for duplicate or missing symbol names in a PTX module.

    The paper's fix (2) — extracting each embedded PTX file separately —
    exists precisely because cuDNN's combined PTX triggers this error.
    """


class UnsupportedInstructionError(ReproError):
    """Raised when the functional simulator meets an unimplemented opcode."""


class SimulationFault(ReproError):
    """Raised for illegal runtime behaviour (bad address, misalignment...)."""


class CudaError(ReproError):
    """Raised by the CUDA runtime/driver API layer (invalid handles etc.)."""


class CudnnError(ReproError):
    """Raised by the cuDNN-compatible library layer."""


class TimingDeadlockError(ReproError):
    """Raised when the performance model makes no progress.

    The paper fixed bugs "in the memory model and in GPUWattch code that
    caused cuDNN enabled programs to deadlock GPGPU-Sim's timing model";
    we surface the condition instead of hanging.
    """


class CycleBudgetExceededError(ReproError):
    """Raised when a kernel exceeds the configured ``max_cycles`` budget.

    Deliberately *not* a :class:`TimingDeadlockError`: a budget overrun
    means the simulation was still progressing when the wall was hit,
    while a deadlock means no progress was possible at all.  The fault
    campaign relies on the distinction — an injected dropped memory
    response must surface as a genuine deadlock, never as a slow run.
    """


class FaultInjectionError(ReproError):
    """Raised for malformed fault specs or unusable injection sites."""


class CheckpointError(ReproError):
    """Raised on malformed or incompatible checkpoint data."""


class DebugToolError(ReproError):
    """Raised by :mod:`repro.debugtool` when the debugging flow itself
    cannot proceed: a launch ordinal the workload never reached, a
    faulting *reference* replay, an overflowed instrumentation log, an
    unreadable extracted-kernel file."""


class ServiceError(ReproError):
    """Raised by the simulation service layer (:mod:`repro.service`):
    unknown workloads, unknown job ids, shard-merge failures, or a
    client asking for the result of a job that failed."""


class UnknownJobError(ServiceError):
    """Raised when a job id names no submission the scheduler has seen
    (the REST layer answers ``404``)."""


class JobCancelled(ServiceError):
    """Raised inside a running job when its cancellation (or deadline
    expiry) is observed at a shard boundary.

    The cluster scheduler's cancellation contract is cooperative:
    queued jobs cancel instantly, running jobs raise this from their
    :class:`repro.service.jobs.JobControl` at the next kernel-launch /
    shard-merge boundary, unwinding the workload cleanly.  The message
    says whether the cause was an explicit cancel or a deadline."""


class VerificationError(ReproError):
    """Raised by ``FunctionalEngine``'s ``verify=True`` launch gate when
    the static verifier reports error-severity findings.

    ``findings`` holds the :class:`repro.analysis.Finding` objects so
    callers can inspect rule ids programmatically.
    """

    def __init__(self, message: str, findings: list | None = None) -> None:
        super().__init__(message)
        self.findings = list(findings or [])
