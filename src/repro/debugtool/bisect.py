"""Three-level differential debugging (paper Section III-D).

The paper's process: "first identify which cuDNN API call results in
incorrect results, then identify which GPU kernel launched within that
API call is executing incorrectly, and finally identify the first
instruction in that kernel that executed incorrectly."

One application pass per side feeds levels 1 and 2: the workload runs
once on the *suspect* simulator (legacy quirks, or a fault-injecting
factory) and once on the *reference* (fixed semantics, playing the
real-GPU role), and each pass records both kinds of evidence.

* Level 1 — compare the hash of device memory after every cuDNN API
  call.
* Level 2 — within the first bad call, compare the buffers reachable
  from each kernel's pointer parameters after every launch ("we assume
  that any kernel parameter that is a pointer may point to an output
  buffer ... we also modified GPGPU-Sim to obtain the size of any GPU
  memory buffers pointed to by these pointers").
* Level 3 — a third pass (reference) captures the bad launch just
  before it runs (:func:`~repro.debugtool.ptxjit.capture_launch`);
  its PTX is instrumented to log every register write (Figure 3) and
  replayed on both simulators through the driver-API ``cuLaunchKernel``
  (the entry point the paper added for exactly this tool); the first
  differing log entry is the verdict.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field

from repro.cuda.runtime import CudaRuntime
from repro.cudnn.api import ApiCall
from repro.cudnn.library import build_application_binary
from repro.debugtool.instrument import (
    ENTRIES_PER_THREAD, decode_log, instrument_kernel)
from repro.debugtool.ptxjit import (
    RuntimeFactory, Workload, capture_launch, run_application)
from repro.errors import DebugToolError, ReproError
from repro.quirks import FIXED, LegacyQuirks


@dataclass
class InstructionDiff:
    pc: int
    text: str
    thread: int
    entry_index: int
    suspect_payload: int
    reference_payload: int
    #: Static def-use slice of the bad instruction's source registers:
    #: ``{"pc", "depth", "register", "text"}`` per producer site, nearest
    #: first (from :func:`repro.analysis.dataflow.producer_chain`).  The
    #: first wrong *value* often surfaces instructions after the wrong
    #: *semantics* executed; the slice names the upstream candidates.
    producers: list[dict] = field(default_factory=list)


@dataclass
class DebugReport:
    """The bisection verdict."""

    api_index: int | None = None
    api_name: str | None = None
    kernel_ordinal: int | None = None
    kernel_name: str | None = None
    instruction: InstructionDiff | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.api_index is None

    @property
    def level(self) -> int:
        """Deepest bisection level reached: 0 clean, 1 API call,
        2 kernel, 3 instruction."""
        if self.api_index is None:
            return 0
        if self.kernel_ordinal is None:
            return 1
        if self.instruction is None:
            return 2
        return 3

    def to_dict(self) -> dict:
        """Machine-readable verdict (campaign scoreboards, tooling)."""
        data: dict = {
            "level": self.level,
            "clean": self.clean,
            "api_index": self.api_index,
            "api_name": self.api_name,
            "kernel_ordinal": self.kernel_ordinal,
            "kernel_name": self.kernel_name,
            "notes": list(self.notes),
        }
        if self.instruction is not None:
            data["instruction"] = {
                **asdict(self.instruction),
                "text": self.instruction.text.strip()}
        return data

    def render(self) -> str:
        if self.clean:
            return "no divergence found: suspect matches reference"
        lines = [f"first bad API call: #{self.api_index} {self.api_name}"]
        if self.kernel_name is not None:
            lines.append(
                f"first bad kernel:   #{self.kernel_ordinal} "
                f"{self.kernel_name}")
        if self.instruction is not None:
            d = self.instruction
            lines.append(
                f"first bad instruction: pc={d.pc} `{d.text.strip()}` "
                f"(thread {d.thread}, entry {d.entry_index}: "
                f"suspect={d.suspect_payload:#x} "
                f"reference={d.reference_payload:#x})")
            if d.producers:
                lines.append("static producer chain of its sources:")
                for site in d.producers:
                    lines.append(
                        f"  [depth {site['depth']}] pc={site['pc']} "
                        f"{site['register']}: {site['text'].strip()}")
        lines.extend(self.notes)
        return "\n".join(lines)


def _digest_pointer_params(runtime: CudaRuntime, args: list) -> str:
    hasher = hashlib.sha256()
    for value in args:
        if not isinstance(value, int):
            continue
        found = runtime.global_mem.allocation_containing(value)
        if found is None:
            continue
        base, size = found
        hasher.update(base.to_bytes(8, "little"))
        hasher.update(runtime.global_mem.read(base, size))
    return hasher.hexdigest()


def _first_difference(suspect: list, reference: list) -> int | None:
    """Index at which two per-event sequences first differ; a missing
    tail counts (the suspect stopped early, or ran on)."""
    for index, (s_item, r_item) in enumerate(zip(suspect, reference)):
        if s_item != r_item:
            return index
    if len(suspect) != len(reference):
        return min(len(suspect), len(reference))
    return None


@dataclass
class Evidence:
    """What one application pass on one simulator left behind."""

    #: The cuDNN calls the workload completed, in order ...
    api_log: list[ApiCall]
    #: ... and the device-memory digest after each of them.
    api_digests: list[str]
    #: ``(ordinal, kernel name, digest of the buffers its pointer
    #: parameters reach)`` after every launch that ran.
    launches: list[tuple[int, str, str]]


class DifferentialDebugger:
    """Drives the 3-level bisection for one workload."""

    def __init__(self, workload: Workload, *,
                 suspect_quirks: LegacyQuirks | None = None,
                 reference_quirks: LegacyQuirks = FIXED,
                 suspect_factory: RuntimeFactory | None = None,
                 reference_factory: RuntimeFactory | None = None,
                 binary=None,
                 entries_per_thread: int = ENTRIES_PER_THREAD) -> None:
        if suspect_factory is None and suspect_quirks is None:
            raise DebugToolError(
                "need either suspect_quirks or suspect_factory")
        self.workload = workload
        self.suspect_quirks = suspect_quirks
        self.reference_quirks = reference_quirks
        self._factories: dict[str, RuntimeFactory] = {
            "suspect": suspect_factory or (
                lambda: CudaRuntime(quirks=suspect_quirks)),
            "reference": reference_factory or (
                lambda: CudaRuntime(quirks=reference_quirks)),
        }
        self.binary = binary or build_application_binary()
        self.entries_per_thread = entries_per_thread

    def _new_runtime(self, role: str) -> CudaRuntime:
        """Fresh runtime for *role* ("suspect"/"reference") with the
        application binary loaded — what a level-3 replay runs on: a
        fault injector re-resolves its target against the original
        kernel, so the replay's program must hold it."""
        runtime = self._factories[role]()
        runtime.load_binary(self.binary)
        return runtime

    # ------------------------------------------------------------------
    # Levels 1 and 2: one pass per side, two comparisons
    # ------------------------------------------------------------------
    def observe(self, role: str) -> Evidence:
        """Run the workload once on *role*'s simulator ("suspect" /
        "reference") and collect the evidence of both levels.  Quirky
        or faulty suspects may fault mid-workload; that *is* a diff, so
        the suspect pass keeps what it saw up to there."""
        api_digests: list[str] = []
        launches: list[tuple[int, str, str]] = []

        def attach(runtime, dnn) -> None:
            dnn.on_api_end = lambda call: api_digests.append(
                runtime.global_mem.digest())
            runtime.after_kernel_hooks.append(
                lambda ordinal, name, grid, block, args: launches.append(
                    (ordinal, name, _digest_pointer_params(runtime, args))))

        _, dnn = run_application(
            self._factories[role], self.binary, self.workload, attach,
            tolerant=role == "suspect")
        return Evidence(dnn.api_log, api_digests, launches)

    @staticmethod
    def find_bad_api_call(suspect: Evidence, reference: Evidence
                          ) -> tuple[int, ApiCall] | None:
        """Level 1: the first API call after which memory differs."""
        index = _first_difference(suspect.api_digests,
                                  reference.api_digests)
        if index is None:
            return None
        return index, reference.api_log[
            min(index, len(reference.api_log) - 1)]

    @staticmethod
    def find_bad_kernel(suspect: Evidence, reference: Evidence,
                        api_call: ApiCall) -> tuple[int, str] | None:
        """Level 2: the first launch of *api_call* after which the
        buffers its pointer parameters reach differ."""
        s_launches, r_launches = (
            [entry for entry in side.launches
             if api_call.first_ordinal <= entry[0] <= api_call.last_ordinal]
            for side in (suspect, reference))
        index = _first_difference([entry[2] for entry in s_launches],
                                  [entry[2] for entry in r_launches])
        if index is None:
            return None
        ordinal, name, _ = r_launches[min(index, len(r_launches) - 1)]
        return ordinal, name

    # ------------------------------------------------------------------
    # Level 3: instructions within the bad kernel
    # ------------------------------------------------------------------
    def find_bad_instruction(self, kernel_ordinal: int
                             ) -> InstructionDiff | None:
        runtime, launch = capture_launch(
            self._factories["reference"], self.binary, self.workload,
            kernel_ordinal)
        kernel = runtime.program.find_kernel(launch.name)
        instrumented = instrument_kernel(
            kernel, entries_per_thread=self.entries_per_thread)
        threads = math.prod(launch.grid + launch.block)
        log_bytes = threads * instrumented.bytes_per_thread

        def log_buffer(replay: CudaRuntime) -> list[int]:
            log_ptr = replay.malloc(log_bytes)
            replay.memset(log_ptr, 0xFF, log_bytes)
            return [log_ptr]

        logs = {}
        for role in ("suspect", "reference"):
            # A faulting quirk still leaves a partial suspect log; a
            # faulting reference has nothing to compare against.
            try:
                replay = launch.replay_on(
                    lambda: self._new_runtime(role),
                    ptx=instrumented.ptx, extra_args=log_buffer,
                    tolerant=role == "suspect")
            except ReproError as error:
                raise DebugToolError(
                    f"{role} replay of {launch.name} faulted: "
                    f"{error}") from error
            raw = replay.memcpy_d2h(replay.launch_log[-1]["args"][-1],
                                    log_bytes)
            logs[role] = decode_log(raw, threads, self.entries_per_thread)

        # "The first instruction that executed incorrectly": each
        # thread's log is its own dynamic clock, so the earliest
        # divergence is the one with the smallest entry index across
        # all threads — not the first divergence of the lowest thread
        # id, whose corruption may be second-hand (propagated through
        # memory from another thread's earlier bad write).  A bare
        # length mismatch (identical common prefix) is weaker evidence
        # — the suspect bug may have corrupted the instrumentation's
        # own log addressing, leaving whole slots empty — so it is
        # used only when no thread shows a real prefix divergence.
        best: tuple[int, int, tuple, tuple] | None = None
        best_length_only: tuple[int, int, tuple, tuple] | None = None
        for thread, (s_entries, r_entries) in enumerate(
                zip(logs["suspect"], logs["reference"])):
            entry_index = _first_difference(s_entries, r_entries)
            if entry_index is None:
                continue
            if entry_index < min(len(s_entries), len(r_entries)):
                found = (entry_index, thread, s_entries[entry_index],
                         r_entries[entry_index])
                if best is None or found < best:
                    best = found
                    if entry_index == 0:
                        break  # can't diverge earlier than entry 0
            else:
                pc = max(s_entries, r_entries, key=len)[entry_index][0]
                found = (entry_index, thread, (pc, 0), (pc, 0))
                if best_length_only is None or found < best_length_only:
                    best_length_only = found
        if best is None:
            best = best_length_only
        if best is None:
            return None
        entry_index, thread, s_entry, r_entry = best
        pc = r_entry[0]
        from repro.analysis.dataflow import producer_chain
        from repro.debugtool.ptxprint import format_instruction
        return InstructionDiff(
            pc=pc, text=format_instruction(kernel.body[pc]),
            thread=thread, entry_index=entry_index,
            suspect_payload=s_entry[1],
            reference_payload=r_entry[1],
            producers=producer_chain(kernel, pc))

    # ------------------------------------------------------------------
    def run(self) -> DebugReport:
        """Full three-level bisection."""
        report = DebugReport()
        suspect, reference = self.observe("suspect"), self.observe(
            "reference")
        bad_api = self.find_bad_api_call(suspect, reference)
        if bad_api is None:
            return report
        report.api_index, api_call = bad_api
        report.api_name = api_call.name
        bad_kernel = self.find_bad_kernel(suspect, reference, api_call)
        if bad_kernel is None:
            report.notes.append(
                "API-level diff found but kernels matched; host-side "
                "state (e.g. stream ordering) differs")
            return report
        report.kernel_ordinal, report.kernel_name = bad_kernel
        try:
            report.instruction = self.find_bad_instruction(
                report.kernel_ordinal)
        except ReproError as error:
            report.notes.append(f"instruction replay failed: {error}")
        return report
