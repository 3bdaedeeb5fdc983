"""Checkpoint state containers and (de)serialisation.

Data1 and Data2 follow the paper's Figure 5 exactly:

* **Data1** — "Register file and local memory per thread, SIMT stack per
  warp, Shared memory per CTA" for the partially executed CTAs
  M .. M+t of kernel x.
* **Data2** — "Global memory per Kernel": the full global-memory image
  at the checkpoint.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CheckpointError
from repro.functional.simt import SimtStack
from repro.functional.state import CTAState, LaunchContext
from repro.util.atomicstore import atomic_write, load_pickled

_FORMAT_VERSION = 2


@dataclass
class WarpSnapshot:
    regs: list[dict[str, int]]
    simt: list[tuple[int, int, int]]
    at_barrier: bool
    instructions_executed: int


@dataclass
class CTASnapshot:
    cta_linear: int
    shared: bytes
    locals_: dict[int, bytes]
    warps: list[WarpSnapshot]


@dataclass
class Checkpoint:
    """Everything needed to resume at (kernel x, CTA M)."""

    kernel_ordinal: int              # x
    first_cta: int                   # M
    partial_ctas: int                # t + 1 (number of captured CTAs)
    warp_instruction_budget: int     # y
    kernel_name: str = ""
    global_memory: dict = field(default_factory=dict)   # Data2
    cta_snapshots: list[CTASnapshot] = field(default_factory=list)  # Data1
    format_version: int = _FORMAT_VERSION

    # -- persistence ------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist atomically (temp file + ``os.replace``).

        A crash mid-save must never leave a truncated file at *path* —
        a later :meth:`load` would have nothing to detect it by except
        a decode error, and the sharded service treats checkpoint files
        as durable job state.
        """
        path = Path(path)
        atomic_write(path, pickle.dumps(
            self, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Read a checkpoint back; a missing, truncated, foreign or
        wrong-format file raises :class:`CheckpointError` naming it."""
        checkpoint = load_pickled(path, cls, CheckpointError, "checkpoint")
        if checkpoint.format_version != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {checkpoint.format_version} != "
                f"{_FORMAT_VERSION}")
        return checkpoint


def capture_cta(cta: CTAState) -> CTASnapshot:
    """Capture Data1 for one partially executed CTA."""
    warps = [
        WarpSnapshot(
            regs=[dict(regs) for regs in warp.regs],
            simt=warp.simt.snapshot(),
            at_barrier=warp.at_barrier,
            instructions_executed=warp.instructions_executed,
        )
        for warp in cta.warps
    ]
    return CTASnapshot(
        cta_linear=cta.cta_linear,
        shared=bytes(cta.shared.data),
        locals_={tid: bytes(arena.data)
                 for tid, arena in cta._locals.items()},
        warps=warps,
    )


def restore_cta(launch: LaunchContext, snapshot: CTASnapshot) -> CTAState:
    """Recreate a CTA and load its Data1.

    All compatibility checks run *before* any state is written, so an
    incompatible snapshot raises without leaving a half-restored CTA (or
    a LaunchContext whose shared/local arenas were partially filled)
    behind.
    """
    cta = CTAState(launch, snapshot.cta_linear)
    if len(snapshot.warps) != len(cta.warps):
        raise CheckpointError(
            f"CTA {snapshot.cta_linear}: warp count mismatch "
            f"({len(snapshot.warps)} saved, {len(cta.warps)} expected)")
    if len(snapshot.shared) != len(cta.shared.data):
        raise CheckpointError(
            f"CTA {snapshot.cta_linear}: shared memory size mismatch "
            f"({len(snapshot.shared)} saved, {len(cta.shared.data)} "
            "expected)")
    cta.shared.data[:] = snapshot.shared
    for tid, blob in snapshot.locals_.items():
        arena = cta.local_for(int(tid))
        arena.data[:len(blob)] = blob
    for warp, saved in zip(cta.warps, snapshot.warps):
        warp.regs = [dict(regs) for regs in saved.regs]
        warp.simt = SimtStack.restore(saved.simt)
        warp.at_barrier = saved.at_barrier
        warp.instructions_executed = saved.instructions_executed
    return cta
