"""Typed-instruction verifier: static structure/typing checks over PTX.

This is the pre-execution gate the paper's Section III-D motivates: the
GPGPU-Sim bugs catalogued there (``rem`` computing an untyped ``u64``
remainder, ``bfe`` ignoring signedness, ``brev`` missing outright) are
all *statically visible* — an instruction whose type specifier the
executor is known to ignore.  The verifier checks every instruction
against its row of the instruction-set table
(:data:`repro.ptx.instructions.TABLE`: operand count, operand kinds,
dtype family, declared register widths) and, given a
:class:`~repro.quirks.LegacyQuirks` configuration, emits a ``Q2xx``
"kernel depends on an active quirk" error for each instruction whose
semantics the active quirks corrupt.

Rule ids::

    V100  unknown opcode (functional simulator would raise at runtime)
    V101  wrong operand count
    V102  dtype family not valid for this opcode
    V103  malformed operand (wrong kind at a position, missing .cmp)
    V104  declared register narrower than the instruction type
    Q201  rem with a typed (.s*/sub-64-bit) specifier + rem_ignores_type
    Q202  signed bfe + bfe_unsigned_only
    Q203  brev + brev_unsupported
    Q204  f16 arithmetic/conversion + fp16_unsupported
"""

from __future__ import annotations

from repro.analysis.findings import ERROR, Finding, WARNING
from repro.ptx import ast
from repro.ptx.ast import Instruction, Kernel
from repro.ptx.instructions import (
    MEM_DST, Op, REG_DST, TABLE, result_bits, source_bits)
from repro.quirks import LegacyQuirks

#: Quirk flag → the rule id that detects static dependence on it.
QUIRK_RULES = {
    "rem_ignores_type": "Q201",
    "bfe_unsigned_only": "Q202",
    "brev_unsupported": "Q203",
    "fp16_unsupported": "Q204",
}

#: What operand 0 may be, per destination kind, and V103's word for it.
_DESTINATIONS = {
    REG_DST: ((ast.REG, ast.VEC), "a register"),
    MEM_DST: ((ast.MEM,), "a memory operand"),
}


class _KernelVerifier:
    def __init__(self, kernel: Kernel, quirks: LegacyQuirks,
                 file_id: str) -> None:
        self.kernel = kernel
        self.quirks = quirks
        self.file_id = file_id
        self.findings: list[Finding] = []

    def emit(self, rule: str, severity: str, inst: Instruction,
             message: str) -> None:
        self.findings.append(Finding(
            rule=rule, severity=severity, kernel=self.kernel.name,
            pc=inst.index, message=message, file_id=self.file_id,
            text=inst.text or str(inst)))

    # -- structural checks: every fact is a field of the table row ------
    def check(self, inst: Instruction) -> None:
        row = TABLE.get(inst.opcode)
        if row is None:
            self.emit("V100", ERROR, inst,
                      f"opcode {inst.opcode!r} is not implemented by the "
                      "functional simulator")
            return
        count = len(inst.operands)
        most = row.operands + row.optional
        if not row.operands <= count <= most:
            expect = (str(most) if not row.optional
                      else f"{row.operands}..{most}")
            self.emit("V101", ERROR, inst,
                      f"{inst.opcode} takes {expect} operands, got {count}")
            return
        self._check_kinds(inst, row)
        self._check_dtype(inst, row)
        if row.dst == REG_DST and inst.dtypes:
            self._check_widths(inst)
        self._check_quirks(inst)

    def _check_kinds(self, inst: Instruction, row: Op) -> None:
        op, operands = inst.opcode, inst.operands
        first = 0
        if row.dst is not None:
            kinds, what = _DESTINATIONS[row.dst]
            if operands[0].kind not in kinds:
                self.emit("V103", ERROR, inst,
                          f"{op} destination must be {what}")
                return
            first = 1
        if row.needs_cmp and inst.cmp is None:
            self.emit("V103", ERROR, inst,
                      f"{op} requires a comparison modifier")
        for position in range(first, len(operands)):
            source, kind = row.source(position), operands[position].kind
            if source.kinds is not None and kind not in source.kinds:
                self.emit("V103", ERROR, inst,
                          source.complaint.format(op=op, kind=kind))

    def _check_dtype(self, inst: Instruction, row: Op) -> None:
        if row.kinds is None:
            return
        if not inst.dtypes:
            self.emit("V102", ERROR, inst,
                      f"{inst.opcode} requires a type specifier")
            return
        for dtype in inst.dtypes:
            if dtype.kind not in row.kinds:
                wanted = "/".join(f".{k}*" for k in row.kinds)
                self.emit("V102", ERROR, inst,
                          f"{inst.opcode} does not accept .{dtype.name} "
                          f"(expected {wanted})")

    def _check_widths(self, inst: Instruction) -> None:
        """V104 for an instruction that writes a register: the declared
        width of its destination against :func:`result_bits`, of each
        register source against :func:`source_bits`."""
        decls = self.kernel.reg_decls
        for position, operand in enumerate(inst.operands):
            decl = decls.get(operand.name)
            if operand.kind != ast.REG or decl is None or decl.kind == "p":
                continue
            if position == 0:
                need = result_bits(inst)
                if decl.bits < need:
                    self.emit("V104", WARNING, inst,
                              f"destination {operand.name} is declared "
                              f".{decl.name} but the result is "
                              f"{need} bits wide")
                continue
            need = source_bits(inst, position)
            if need is not None and decl.bits < need:
                self.emit("V104", WARNING, inst,
                          f"source {operand.name} is declared "
                          f".{decl.name} but {inst.opcode} reads "
                          f"{need} bits")

    # -- quirk dependence ----------------------------------------------
    def _check_quirks(self, inst: Instruction) -> None:
        quirks = self.quirks
        op = inst.opcode
        if (quirks.rem_ignores_type and op == "rem" and inst.dtypes
                and (inst.dtype.kind == "s" or inst.dtype.bits < 64)):
            self.emit("Q201", ERROR, inst,
                      f"rem.{inst.dtype.name} depends on the active "
                      "rem_ignores_type quirk: the legacy implementation "
                      "computes an untyped u64 remainder")
        if (quirks.bfe_unsigned_only and op == "bfe" and inst.dtypes
                and inst.dtype.kind == "s"):
            self.emit("Q202", ERROR, inst,
                      f"bfe.{inst.dtype.name} depends on the active "
                      "bfe_unsigned_only quirk: sign extension of the "
                      "extracted field is skipped")
        if quirks.brev_unsupported and op == "brev":
            self.emit("Q203", ERROR, inst,
                      "brev depends on the active brev_unsupported "
                      "quirk: the legacy simulator aborts on bit-reverse")
        if (quirks.fp16_unsupported
                and any(d.kind == "f" and d.bits == 16
                        for d in inst.dtypes)
                and op not in ("ld", "ldu", "st")):
            self.emit("Q204", ERROR, inst,
                      "f16 operation depends on the active "
                      "fp16_unsupported quirk")


def verify_kernel(kernel: Kernel, *,
                  quirks: LegacyQuirks | None = None,
                  file_id: str = "") -> list[Finding]:
    """Run the typed-instruction verifier over one kernel."""
    checker = _KernelVerifier(kernel, quirks or LegacyQuirks(), file_id)
    for inst in kernel.body:
        checker.check(inst)
    return checker.findings
