"""AST -> PTX text printer.

Used by the debug tool to emit "extracted PTX" for single-kernel replay
(the paper's ptxjit flow) and by the instrumentation pass to write the
modified kernel back out as loadable PTX.
"""

from __future__ import annotations

from repro.ptx import ast
from repro.ptx.dtypes import DType


def format_operand(op: ast.Operand) -> str:
    kind = op.kind
    if kind == ast.REG or kind == ast.SYM or kind == ast.LABEL:
        return op.name
    if kind == ast.IMM:
        if op.imm_float:
            return f"0d{op.payload:016X}"
        # Emit as signed decimal when the payload looks negative in 64b.
        if op.payload >> 63:
            return str(op.payload - (1 << 64))
        return str(op.payload)
    if kind == ast.VEC:
        inner = ", ".join(format_operand(e) for e in op.elems)
        return "{" + inner + "}"
    if kind == ast.MEM:
        if op.elems:  # texture operand
            coords = ", ".join(format_operand(e) for e in op.elems)
            return f"[{op.name}, {{{coords}}}]"
        if op.offset > 0:
            return f"[{op.name}+{op.offset}]"
        if op.offset < 0:
            return f"[{op.name}{op.offset}]"
        return f"[{op.name}]"
    raise ValueError(f"cannot format operand kind {kind!r}")


def format_instruction(inst: ast.Instruction) -> str:
    parts = [inst.opcode]
    consumed_types = 0
    # Reassemble the dotted opcode: space, cmp, modifiers, dtypes.  The
    # original ordering is not recorded, but PTX accepts any order of
    # suffixes for our subset as long as dtypes come last.
    if inst.space:
        parts.append(inst.space)
    if inst.cmp:
        parts.append(inst.cmp)
    parts.extend(inst.modifiers)
    for dtype in inst.dtypes[:len(inst.dtypes) - consumed_types]:
        parts.append(dtype.name)
    opcode = ".".join(parts)
    guard = ""
    if inst.pred is not None:
        guard = f"@!{inst.pred} " if inst.pred_negated else f"@{inst.pred} "
    operands = ", ".join(format_operand(op) for op in inst.operands)
    if operands:
        return f"    {guard}{opcode} {operands};"
    return f"    {guard}{opcode};"


def module_vars(kernel: ast.Kernel) -> list[ast.VarDecl]:
    """The module-scope ``.global``/``.const`` variables the body of
    *kernel* names — what its text must declare to load on its own."""
    module = kernel.module
    if module is None:
        return []
    named = {op.name for inst in kernel.body for op in inst.operands
             if op.kind in (ast.SYM, ast.MEM)}
    return [var for scope in (module.global_vars, module.const_vars)
            for name, var in scope.items() if name in named]


def _format_var(var: ast.VarDecl, indent: str = "") -> str:
    align = f".align {var.align} " if var.align else ""
    return (f"{indent}.{var.space} {align}.{var.dtype.name} "
            f"{var.name}[{var.array_len}];")


def format_kernel(kernel: ast.Kernel, *,
                  extra_params: list[tuple[str, DType]] | None = None,
                  body_lines: list[str] | None = None) -> str:
    """Print a kernel (optionally with replaced body / extra params)
    as a loadable module: the module-scope variables it names are
    declared (uninitialised — a captured launch carries their contents)
    ahead of the entry."""
    params = [f"    .param .{p.dtype.name} {p.name}"
              + (f"[{p.array_len}]" if p.array_len else "")
              for p in kernel.params]
    for name, dtype in (extra_params or []):
        params.append(f"    .param .{dtype.name} {name}")
    lines = [
        ".version 6.0",
        f".target sm_60",
        ".address_size 64",
        "",
        *(_format_var(var) for var in module_vars(kernel)),
        f".visible .entry {kernel.name}(",
        ",\n".join(params),
        ")",
        "{",
    ]
    for name, dtype in sorted(kernel.reg_decls.items()):
        lines.append(f"    .reg .{dtype.name} {name};")
    for var in kernel.shared_vars + kernel.local_vars:
        lines.append(_format_var(var, "    "))
    if body_lines is None:
        body_lines = body_with_labels(kernel)
    lines.extend(body_lines)
    lines.append("}")
    return "\n".join(lines)


def body_with_labels(kernel: ast.Kernel) -> list[str]:
    """The kernel body as text lines with labels re-inserted."""
    labels_at: dict[int, list[str]] = {}
    for label, index in kernel.labels.items():
        labels_at.setdefault(index, []).append(label)
    lines: list[str] = []
    for inst in kernel.body:
        for label in labels_at.get(inst.index, []):
            lines.append(f"{label}:")
        lines.append(format_instruction(inst))
    for label in labels_at.get(len(kernel.body), []):
        lines.append(f"{label}:")
    return lines
