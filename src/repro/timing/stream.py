"""Per-warp instruction streams: what the SM model issues from.

The timing model never touches register state.  Each resident warp
pulls *items* from a :class:`WarpStream`, in program order::

    (op, active_lanes, lines, last)

``op`` is the item pre-classified for issue: the static class of its
pc (:func:`classify`: ALU / SFU / BAR / MEM / ATOM) or'd with the bits
of the spaces it touched (SHARED / TEX / OTHER, GLOBAL when it has line
ids), so the model reads what issuing costs from one per-op table.
``active_lanes`` is the lane count after the guard predicate, ``lines``
is ``None`` or ``(reads, writes)`` — the global line ids the instruction
reads and writes — and ``last`` marks the warp's final item.  When a
warp's active lanes run off the end of the kernel the item's ``op`` is
:data:`FELL_OFF`: those lanes retire and nothing issues, but lanes
still waiting on the warp's SIMT stack run on — only ``last`` retires
the warp.

Two producers make the same items, chosen per launch by the engine's
admission (``repro.functional.executor.admit``):

* :class:`StreamRecorder` — **recorded**.  The launch runs functionally
  first on the megablock tier with the recorder armed; ``MegaMachine``
  reports every frame it executes (block or control pc, per-warp lane
  counts), every guard it materialises and every ``ld``/``st``, and the
  recorder keeps them as NumPy columns per grid chunk.  A CTA's streams
  are expanded from those columns when the model makes it resident.
* :class:`LiveSource` — **live**.  A thin adapter over
  :meth:`FunctionalEngine.step_warp`, executing each instruction at the
  cycle the model issues it.  Used whenever a recording would not be
  provably identical (``Admission.live_why`` says why).

Every item a producer hands out but a fall-off issues before the launch
ends, so each counts them per op (``op_counts``): the model does not.

Two rules keep the producers bit-identical.  *Set order*: the model
walks an instruction's lines in the iteration order of the ``set`` they
were collected into — lane order, ``first..last`` line per lane, one
access per lane spanning the whole vector width — so both producers
build that set the same way (:func:`_line_order`) and ship its order.
*Zero lanes*: a memory instruction whose guard leaves no lane touches
no space: its ``op`` is its bare class and ``lines`` is ``None``.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np

from repro.errors import CycleBudgetExceededError
from repro.functional.executor import FunctionalEngine
from repro.functional.state import CTAState, WarpState
from repro.ptx import instructions
from repro.ptx.values import MASK64

#: Static instruction classes (``classify``): the pipeline a pc issues
#: to.  ``ATOM`` is ``MEM`` that also counts an atomic.
ALU, SFU, BAR, MEM, ATOM = range(5)

#: ``op`` bits above the class: the spaces an instruction touched.
SHARED, TEX, OTHER, GLOBAL = 8, 16, 32, 64

#: ``op`` values are below this.
OPS = GLOBAL * 2

#: ``op`` of the item a stream yields when the warp's active lanes ran
#: off the end of the kernel (an implicit exit: nothing issues).
FELL_OFF = -1

_CLASS_CODE = {instructions.SFU: SFU, instructions.BAR: BAR,
               instructions.MEM: MEM}
_SPACE_FLAG = {"shared": SHARED, "tex": TEX}


def classify(kernel) -> list[int]:
    """Class code of every pc of *kernel*: the unit and the atomic flag
    of its instruction-set table row."""
    rows = (instructions.facts(inst.opcode) for inst in kernel.body)
    return [ATOM if row.atomic else _CLASS_CODE.get(row.unit, ALU)
            for row in rows]


def _line_order(firsts, lasts) -> tuple[int, ...]:
    """Line ids of one instruction in the order the model visits them:
    the iteration order of a set filled lane by lane."""
    lines: set[int] = set()
    for first, last in zip(firsts, lasts):
        for line in range(first, last + 1):
            lines.add(line)
    return tuple(lines)


class WarpStream:
    """One warp's items: ``next()`` yields them in program order.

    ``finished``/``at_barrier`` are the warp's state when it becomes
    resident (a restored CTA can hold retired or parked warps)."""

    __slots__ = ("next", "finished", "at_barrier")

    def __init__(self, next, finished: bool = False,
                 at_barrier: bool = False) -> None:
        self.next = next
        self.finished = finished
        self.at_barrier = at_barrier


# ----------------------------------------------------------------------
# Live: execution-driven
# ----------------------------------------------------------------------
class LiveSource:
    """Streams that execute each instruction when the model issues it."""

    def __init__(self, engine: FunctionalEngine, line_size: int,
                 premade: dict[int, CTAState]) -> None:
        self.engine = engine
        self.line_size = line_size
        self.premade = premade
        self.kinds = classify(engine.launch.kernel)
        #: Items handed out per op (every one of them issues).
        self.op_counts = [0] * OPS
        self._made: dict[int, CTAState] = {}

    def open(self, cta_linear: int) -> list[WarpStream] | None:
        """Streams of one CTA's warps; ``None`` if it has nothing left
        to run (a restored CTA that had already finished)."""
        cta = self.premade.get(cta_linear)
        if cta is None:
            cta = self._made[cta_linear] = CTAState(self.engine.launch,
                                                    cta_linear)
        elif cta.finished:
            return None
        return [WarpStream(partial(self._step, warp), warp.finished,
                           warp.at_barrier) for warp in cta.warps]

    def close(self, cta_linear: int) -> None:
        """The CTA retired: free the warps this source created."""
        cta = self._made.pop(cta_linear, None)
        if cta is not None:
            cta.release()

    def _step(self, warp: WarpState):
        if warp.at_barrier:
            # The model only asks a parked warp for more once it has
            # released the CTA's barrier.
            warp.at_barrier = False
            warp.simt.advance(warp.simt.pc + 1)
        record = self.engine.step_warp(warp)
        if record is None:
            return FELL_OFF, 0, None, warp.finished
        op = self.kinds[record.pc]
        lines = None
        if record.mem_accesses:
            touched, lines = coalesce(record.mem_accesses, self.line_size)
            op |= touched
        self.op_counts[op] += 1
        return op, record.active_lanes, lines, warp.finished


def coalesce(accesses, line_size: int) -> tuple[int, tuple | None]:
    """The space bits one instruction's ``mem_accesses`` touched, and
    its ``(reads, writes)`` line ids (``None``: no global access)."""
    flags = 0
    reads: tuple[list, list] = ([], [])
    writes: tuple[list, list] = ([], [])
    for space, addr, nbytes, is_write in accesses:
        if space == "global":
            firsts, lasts = writes if is_write else reads
            firsts.append(addr // line_size)
            lasts.append((addr + max(nbytes, 1) - 1) // line_size)
        else:
            flags |= _SPACE_FLAG.get(space, OTHER)
    if not reads[0] and not writes[0]:
        return flags, None
    return flags | GLOBAL, (_line_order(*reads), _line_order(*writes))


# ----------------------------------------------------------------------
# Recorded: megablock pre-pass
# ----------------------------------------------------------------------
class _Chunk:
    """The log of one grid chunk, one entry per executed frame."""

    def __init__(self, first_cta: int, nct: int, wid: np.ndarray) -> None:
        self.first_cta = first_cta
        self.nct = nct
        #: first thread of each warp (``wid`` is non-decreasing).
        self.starts = np.flatnonzero(np.diff(wid, prepend=-1))
        self.warps_per_cta = len(self.starts) // nct
        #: lane counts of a frame covering every thread.
        self.full_row = np.diff(
            self.starts, append=len(wid)).astype(np.uint8)
        self.pcs: list[int] = []    # block-start or control pc
        self.lens: list[int] = []   # instructions the frame issues
        self.rows: list[np.ndarray] = []    # lanes per warp (0 = absent)
        #: (frame, pc, lanes per warp) of predicated instructions.
        self.guards: list[tuple[int, int, np.ndarray]] = []
        #: (frame, pc, space bit, is_write, firsts, lasts, bounds,
        #: straddles) per ld/st: the bit alone for a non-global space,
        #: else GLOBAL and each guarded lane's first/last line with warp
        #: w's lanes at ``bounds[w]:bounds[w + 1]``.
        self.accesses: list[tuple] = []
        self.matrix: np.ndarray | None = None

    def seal(self) -> None:
        """Turn the per-frame lists into the arrays expansion indexes."""
        self.matrix = np.stack(self.rows)
        self.rows = []
        self.pc_arr = np.array(self.pcs, np.int64)
        self.len_arr = np.array(self.lens, np.int64)
        guards = self.guards
        self.guard_frame = np.array([g[0] for g in guards], np.int64)
        self.guard_offset = np.array(
            [pc - self.pcs[frame] for frame, pc, _row in guards], np.int64)
        self.guard_rows = (np.stack([g[2] for g in guards]) if guards
                           else np.zeros((0, self.matrix.shape[1]),
                                         np.uint8))
        self.guards = []
        accesses = self.accesses
        self.access_frame = np.array([a[0] for a in accesses], np.int64)
        self.access_offset = np.array(
            [pc - self.pcs[frame] for frame, pc, *_rest in accesses],
            np.int64)
        self.access_bits = np.array([a[2] for a in accesses], np.int64)


class StreamRecorder:
    """Records a megablock run, then replays it warp by warp.

    Armed as ``engine.recorder``; ``MegaMachine`` calls
    :meth:`begin_chunk`, :meth:`frame`, :meth:`guard` and
    :meth:`access`.  *budget* bounds the warp instructions the run may
    issue — a kernel that never terminates must end in
    :class:`CycleBudgetExceededError` here, as it would in the cycle
    loop."""

    def __init__(self, kernel, line_size: int, budget: int,
                 max_cycles: int) -> None:
        self.kernel_name = kernel.name
        self.body_len = len(kernel.body)
        #: Class of each pc, then FELL_OFF for the pcs past the body.
        self.kinds = np.array(classify(kernel) + [FELL_OFF], np.int64)
        #: Items of the streams opened so far, per op: every one of them
        #: issues before the launch ends.
        self.op_counts = np.zeros(OPS, np.int64)
        self.line_size = np.uint64(line_size)
        self.budget = budget
        self.max_cycles = max_cycles
        self.issued = 0
        self._chunks: deque[_Chunk] = deque()
        self._chunk: _Chunk | None = None
        # Lane-count memo, keyed on mask identity (masks are replaced,
        # never mutated): the current frame's and the last guard's.
        self._frame_mask = self._frame_row = None
        self._guard_mask = self._guard_row = None

    # -- MegaMachine side ----------------------------------------------
    def begin_chunk(self, first_cta: int, nct: int,
                    wid: np.ndarray) -> None:
        self._chunk = _Chunk(first_cta, nct, wid)
        self._chunks.append(self._chunk)

    def _counts(self, mask: np.ndarray) -> np.ndarray:
        if mask is self._frame_mask:
            return self._frame_row
        if mask is not self._guard_mask:
            self._guard_mask = mask
            self._guard_row = np.add.reduceat(
                mask, self._chunk.starts, dtype=np.uint8)
        return self._guard_row

    def frame(self, pc: int, count: int, frame) -> None:
        """The machine is about to issue *count* instructions from *pc*
        for every warp with a thread in *frame*."""
        self.issued += frame.wa * count
        if self.issued > self.budget:
            raise CycleBudgetExceededError(
                f"kernel exceeded {self.max_cycles} cycles "
                f"({self.kernel_name})")
        chunk = self._chunk
        if frame.mask is not self._frame_mask:
            row = (chunk.full_row if frame.full
                   else self._counts(frame.mask))
            self._frame_mask, self._frame_row = frame.mask, row
        chunk.pcs.append(pc)
        chunk.lens.append(count)
        chunk.rows.append(self._frame_row)

    def guard(self, pc: int, pm: np.ndarray) -> None:
        """Lanes of the predicated instruction at *pc* that passed."""
        chunk = self._chunk
        chunk.guards.append((len(chunk.pcs) - 1, pc, self._counts(pm)))

    def access(self, pc: int, space: str, nbytes: int, addr, pm,
               is_write: bool) -> None:
        """One ``ld``/``st``: *nbytes* per guarded lane from *addr*."""
        chunk = self._chunk
        frame = len(chunk.pcs) - 1
        if pm is not self._frame_mask:
            self.guard(pc, pm)
        if space != "global":
            chunk.accesses.append(
                (frame, pc, _SPACE_FLAG.get(space, OTHER),
                 is_write, None, None, None, False))
            return
        row = self._counts(pm)
        if isinstance(addr, np.ndarray):
            addr = addr[pm]
        else:
            addr = np.full(int(row.sum()), np.uint64(int(addr) & MASK64))
        firsts = addr // self.line_size
        lasts = (addr + np.uint64(nbytes - 1)) // self.line_size
        bounds = np.zeros(len(row) + 1, np.int64)
        np.cumsum(row, out=bounds[1:])
        chunk.accesses.append(
            (frame, pc, GLOBAL, is_write, firsts, lasts, bounds,
             bool((firsts != lasts).any())))

    # -- model side ----------------------------------------------------
    def open(self, cta_linear: int) -> list[WarpStream]:
        """Streams of one CTA's warps.  CTAs open in ascending order, so
        a chunk's log is dropped once the model is past it."""
        chunks = self._chunks
        while cta_linear >= chunks[0].first_cta + chunks[0].nct:
            chunks.popleft()
        chunk = chunks[0]
        if chunk.matrix is None:
            chunk.seal()
        per_cta = chunk.warps_per_cta
        first = (cta_linear - chunk.first_cta) * per_cta
        return [WarpStream(self._expand(chunk, warp).__next__)
                for warp in range(first, first + per_cta)]

    def close(self, cta_linear: int) -> None:
        """Nothing to free: a recorded CTA owns no functional state."""

    def _expand(self, chunk: _Chunk, warp: int) -> zip:
        """The items of one warp, from the chunk's frame log, made as the
        model fetches them (``zip`` reuses the tuple it unpacked)."""
        column = chunk.matrix[:, warp]
        frames = np.flatnonzero(column)
        lens = chunk.len_arr[frames]
        ends = np.cumsum(lens)
        starts = ends - lens
        total = int(ends[-1])
        pcs = (np.repeat(chunk.pc_arr[frames] - starts, lens)
               + np.arange(total))
        ops = self.kinds[np.minimum(pcs, self.body_len)]
        lanes = np.repeat(column[frames], lens)
        # Offset of each frame in this warp's stream (-1: not in it).
        offset = np.full(len(column), -1, np.int64)
        offset[frames] = starts
        at = offset[chunk.guard_frame]
        mine = at >= 0
        lanes[at[mine] + chunk.guard_offset[mine]] = \
            chunk.guard_rows[mine, warp]
        # This warp's accesses, but for those fully predicated off: they
        # touch nothing.
        at = offset[chunk.access_frame]
        mine = np.flatnonzero(at >= 0)
        slots = at[mine] + chunk.access_offset[mine]
        touched = lanes[slots] > 0
        mine, slots = mine[touched], slots[touched]
        bits = chunk.access_bits[mine]
        ops[slots] |= bits
        self.op_counts += np.bincount(ops[ops != FELL_OFF], minlength=OPS)
        lines: list = [None] * total
        is_global = bits == GLOBAL
        for index, slot in zip(mine[is_global].tolist(),
                               slots[is_global].tolist()):
            (_frame, _pc, _global, is_write, firsts, lasts, bounds,
             straddles) = chunk.accesses[index]
            lo, hi = bounds[warp], bounds[warp + 1]
            if straddles:
                ids = _line_order(firsts[lo:hi].tolist(),
                                  lasts[lo:hi].tolist())
            else:
                ids = tuple(set(firsts[lo:hi].tolist()))
            lines[slot] = ((), ids) if is_write else (ids, ())
        last = [False] * total
        last[-1] = True
        return zip(ops.tolist(), lanes.tolist(), lines, last)
