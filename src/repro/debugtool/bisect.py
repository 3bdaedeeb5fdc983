"""Three-level differential debugging (paper Section III-D).

The paper's process: "first identify which cuDNN API call results in
incorrect results, then identify which GPU kernel launched within that
API call is executing incorrectly, and finally identify the first
instruction in that kernel that executed incorrectly."

* Level 1 — run the workload on the *suspect* simulator (with legacy
  quirks) and on the *reference* (fixed semantics, playing the real-GPU
  role), hashing device buffers after every cuDNN API call.
* Level 2 — within the first bad call, compare the buffers reachable
  from each kernel's pointer parameters after every launch ("we assume
  that any kernel parameter that is a pointer may point to an output
  buffer ... we also modified GPGPU-Sim to obtain the size of any GPU
  memory buffers pointed to by these pointers").
* Level 3 — capture the global-memory image and arguments just before
  the bad kernel, instrument its PTX to log every register write
  (Figure 3), replay it on both simulators through the driver-API
  ``cuLaunchKernel`` (the entry point the paper added for exactly this
  tool), and report the first differing log entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.cuda.runtime import CudaRuntime
from repro.cudnn.api import ApiCall, Cudnn
from repro.cudnn.library import build_application_binary
from repro.debugtool.instrument import (
    ENTRY_BYTES, LOG_PARAM, decode_log, instrument_kernel)
from repro.errors import ReproError
from repro.quirks import FIXED, LegacyQuirks

Workload = Callable[[Cudnn], None]

#: Builds a fresh, empty runtime (no program loaded).  The debugger
#: loads its application binary into whatever the factory returns, so a
#: factory can pre-wire quirks, backends or fault injectors.
RuntimeFactory = Callable[[], CudaRuntime]


class DebugToolError(ReproError):
    pass


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
            d = self.instruction
            data["instruction"] = {
                "pc": d.pc,
                "text": d.text.strip(),
                "thread": d.thread,
                "entry_index": d.entry_index,
                "suspect_payload": d.suspect_payload,
                "reference_payload": d.reference_payload,
                "producers": [dict(site) for site in d.producers],
            }
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


class DifferentialDebugger:
    """Drives the 3-level bisection for one workload."""

    def __init__(self, workload: Workload, *,
                 suspect_quirks: LegacyQuirks | None = None,
                 reference_quirks: LegacyQuirks = FIXED,
                 suspect_factory: RuntimeFactory | None = None,
                 reference_factory: RuntimeFactory | None = None,
                 binary=None,
                 entries_per_thread: int = 4096) -> None:
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

    # ------------------------------------------------------------------
    def _new_runtime(self, role: str) -> CudaRuntime:
        """Fresh runtime for *role* ("suspect"/"reference"), binary
        loaded."""
        runtime = self._factories[role]()
        runtime.load_binary(self.binary)
        return runtime

    # ------------------------------------------------------------------
    # Level 1: API calls
    # ------------------------------------------------------------------
    def find_bad_api_call(self) -> tuple[int, ApiCall] | None:
        suspect_digests: list[tuple[str, str]] = []
        reference_digests: list[tuple[str, str]] = []

        def collect(target, runtime_box):
            def hook(call: ApiCall) -> None:
                target.append((call.name,
                               runtime_box[0].global_mem.digest()))
            return hook

        box: list[CudaRuntime] = [None]  # type: ignore[list-item]
        runtime = self._new_runtime("suspect")
        box[0] = runtime
        dnn = Cudnn(runtime)
        dnn.on_api_end = collect(suspect_digests, box)
        self._run_workload_tolerant(dnn)

        box2: list[CudaRuntime] = [None]  # type: ignore[list-item]
        runtime2 = self._new_runtime("reference")
        box2[0] = runtime2
        dnn2 = Cudnn(runtime2)
        dnn2.on_api_end = collect(reference_digests, box2)
        self.workload(dnn2)
        runtime2.synchronize()

        for index, (suspect, reference) in enumerate(
                zip(suspect_digests, reference_digests)):
            if suspect[1] != reference[1]:
                return index, dnn2.api_log[index]
        if len(suspect_digests) != len(reference_digests):
            index = min(len(suspect_digests), len(reference_digests))
            return index, dnn2.api_log[min(index,
                                           len(dnn2.api_log) - 1)]
        return None

    def _run_workload_tolerant(self, dnn: Cudnn) -> None:
        """Quirky simulators may fault mid-workload; that *is* a diff."""
        try:
            self.workload(dnn)
            dnn.rt.synchronize()
        except ReproError:
            pass

    # ------------------------------------------------------------------
    # Level 2: kernels within the bad API call
    # ------------------------------------------------------------------
    def find_bad_kernel(self, api_call: ApiCall) -> tuple[int, str] | None:
        first, last = api_call.first_ordinal, api_call.last_ordinal

        def collector(target: list, runtime_box: list):
            def hook(ordinal, name, grid, block, args) -> None:
                if first <= ordinal <= last:
                    target.append((ordinal, name, _digest_pointer_params(
                        runtime_box[0], args)))
            return hook

        suspect: list = []
        box: list = [None]
        runtime = self._new_runtime("suspect")
        box[0] = runtime
        dnn = Cudnn(runtime)
        runtime.after_kernel_hooks.append(collector(suspect, box))
        self._run_workload_tolerant(dnn)

        reference: list = []
        box2: list = [None]
        runtime2 = self._new_runtime("reference")
        box2[0] = runtime2
        dnn2 = Cudnn(runtime2)
        runtime2.after_kernel_hooks.append(collector(reference, box2))
        self.workload(dnn2)
        runtime2.synchronize()

        for (s_ord, s_name, s_digest), (_r_ord, _r_name, r_digest) in zip(
                suspect, reference):
            if s_digest != r_digest:
                return s_ord, s_name
        if len(suspect) != len(reference):
            index = min(len(suspect), len(reference))
            entry = reference[index] if index < len(reference) else \
                reference[-1]
            return entry[0], entry[1]
        return None

    # ------------------------------------------------------------------
    # Level 3: instructions within the bad kernel
    # ------------------------------------------------------------------
    def find_bad_instruction(self, kernel_ordinal: int,
                             entries_per_thread: int = 4096
                             ) -> InstructionDiff | None:
        capture: dict = {}

        def before(ordinal, name, grid, block, args) -> None:
            if ordinal == kernel_ordinal and not capture:
                capture.update(
                    name=name, grid=grid, block=block, args=list(args),
                    memory=box[0].global_mem.snapshot())

        box: list = [None]
        runtime = self._new_runtime("reference")
        box[0] = runtime
        dnn = Cudnn(runtime)
        runtime.before_kernel_hooks.append(before)
        self.workload(dnn)
        runtime.synchronize()
        if not capture:
            raise DebugToolError(
                f"kernel ordinal {kernel_ordinal} never launched")

        kernel = runtime.program.find_kernel(capture["name"])
        instrumented = instrument_kernel(
            kernel, entries_per_thread=entries_per_thread)
        gx, gy, gz = capture["grid"]
        bx, by, bz = capture["block"]
        threads = gx * gy * gz * bx * by * bz

        logs = {}
        for label in ("suspect", "reference"):
            replay = self._new_runtime(label)
            replay.global_mem.restore(capture["memory"])
            replay.load_ptx(instrumented.ptx, file_id="instrumented")
            log_bytes = threads * instrumented.bytes_per_thread
            log_ptr = replay.malloc(log_bytes)
            replay.memset(log_ptr, 0xFF, log_bytes)
            func = replay.program.kernels_qualified[
                f"instrumented::{capture['name']}"]
            try:
                replay.cu_launch_kernel(func, capture["grid"],
                                        capture["block"],
                                        capture["args"] + [log_ptr])
                replay.synchronize()
            except ReproError:
                pass  # a faulting quirk still leaves a partial log
            raw = replay.memcpy_d2h(log_ptr, log_bytes)
            logs[label] = decode_log(raw, threads, entries_per_thread)

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
        for thread in range(threads):
            s_entries = logs["suspect"][thread]
            r_entries = logs["reference"][thread]
            found = None
            for entry_index, (s_entry, r_entry) in enumerate(
                    zip(s_entries, r_entries)):
                if s_entry != r_entry:
                    found = (entry_index, thread, s_entry, r_entry)
                    break
            if found is not None:
                if best is None or found < best:
                    best = found
                    if best[0] == 0:
                        break  # can't diverge earlier than entry 0
            elif len(s_entries) != len(r_entries):
                longer = r_entries if len(r_entries) > len(s_entries) \
                    else s_entries
                entry_index = min(len(s_entries), len(r_entries))
                found = (entry_index, thread,
                         (longer[entry_index][0], 0),
                         (longer[entry_index][0], 0))
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
        bad_api = self.find_bad_api_call()
        if bad_api is None:
            return report
        report.api_index, api_call = bad_api
        report.api_name = api_call.name
        bad_kernel = self.find_bad_kernel(api_call)
        if bad_kernel is None:
            report.notes.append(
                "API-level diff found but kernels matched; host-side "
                "state (e.g. stream ordering) differs")
            return report
        report.kernel_ordinal, report.kernel_name = bad_kernel
        try:
            report.instruction = self.find_bad_instruction(
                report.kernel_ordinal, self.entries_per_thread)
        except ReproError as error:
            report.notes.append(f"instruction replay failed: {error}")
        return report
