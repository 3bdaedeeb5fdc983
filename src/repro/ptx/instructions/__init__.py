"""The instruction-set table: one row per opcode of the PTX subset.

``TABLE`` is the one description of what the simulator supports.  A row
(:class:`Op`) holds every *static* fact about its opcode — the reference
implementation, the pipeline unit, how many operands it takes, which
dtype families its type suffix may name, what operand 0 is, what the
remaining operands may be and how wide a register each one reads, and
how wide the result is — and everything that needs such a fact reads it
here: the verifier (V100–V104), ``analysis/dataflow`` (``defs_of`` /
``uses_of`` / ``write_bits`` / ``register_widths``), the instrumentation
and fault-site selection built on them, the timing classifier, the
vector planner and the emit table's arity check.  Semantics stay written
twice by design: the reference (``exec_*``, named by the row) and
``functional/emit.ROWS``.

Control-flow opcodes (``bra``, ``exit``, ``ret``, ``bar``) have a row
without a reference implementation — the executor owns the SIMT stack
and handles them itself.  ``DISPATCH``, ``OP_CLASS``, ``CONTROL`` and
``lookup`` are views of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import UnsupportedInstructionError
from repro.ptx import ast
from repro.ptx.instructions import (
    arithmetic, bits, compare, convert, memory, special)

ExecFn = Callable[[ast.Instruction, object, list[int]], None]


def _nop(inst: ast.Instruction, warp, lanes) -> None:
    del inst, warp, lanes


# Pipeline class per opcode, consumed by the timing model.
ALU = "alu"
SFU = "sfu"
MEM = "mem"
CTRL = "ctrl"
BAR = "bar"

#: What operand 0 is: a register (or vector of registers) the
#: instruction writes, a memory operand it writes, or (``None``) just
#: the first source.
REG_DST = "reg"
MEM_DST = "mem"

#: Width rules of a source position (:func:`source_bits`): the
#: instruction type, the second type specifier (falling back to the
#: first), or the result type; an ``int`` is a fixed width and ``None``
#: means unchecked.
TYPED = "typed"
SECOND = "second"
RESULT = "result"
#: ``Op.raw_bits`` of a load: the type's width zero-extended, all 64
#: bits sign-extended.
EXTENDED = "extended"


@dataclass(frozen=True)
class Source:
    """What one source-operand position accepts (V103) and reads (V104)."""

    kinds: tuple[str, ...] | None     # operand kinds; None = unchecked
    complaint: str                    # V103 text, formatted with op/kind
    bits: str | int | None = None     # width rule, see above


_ANY_KIND = "usfbp"
_VALUES = (ast.REG, ast.IMM)
_NOT_ALLOWED = "{op} source operand of kind {kind!r} is not allowed"

VALUE = Source(_VALUES, _NOT_ALLOWED, TYPED)
#: ``mov``/``cvta`` also take the address of a symbol.
SYMBOLIC = Source(_VALUES + (ast.SYM,), _NOT_ALLOWED, TYPED)
#: Shift amounts and bit positions/lengths are always ``.u32``.
AMOUNT = Source(_VALUES, _NOT_ALLOWED, 32)
#: ``cvt``'s source and ``slct``'s selector: the second type specifier.
SECOND_TYPED = Source(_VALUES, _NOT_ALLOWED, SECOND)
#: ``mad``'s addend is as wide as the result (doubled by ``.wide``).
ADDEND = Source(_VALUES, _NOT_ALLOWED, RESULT)
SELECTOR = Source((ast.REG,),
                  "{op} selector must be a predicate register")
ADDRESS = Source((ast.MEM,), "{op} source must be a memory operand")
STORED = Source((ast.REG, ast.IMM, ast.VEC),
                "{op} source must be a register, immediate or vector")
TARGET = Source((ast.LABEL,), "{op} target must be a label")
BARRIER_ID = Source((ast.IMM,), "{op} operands must be immediates")
UNCHECKED = Source(None, "", TYPED)


@dataclass(frozen=True)
class Op:
    """Every static fact about one opcode.

    ``exec`` is the reference implementation ``fn(inst, warp, lanes)``
    (``None``: the executor owns the opcode).  It takes ``operands`` to
    ``operands + optional`` operands.  ``kinds`` are the dtype families
    its type suffix may name (``None``: the suffix is structural and
    unchecked — ``bra`` carries a default ``.b32`` the parser fills in).
    ``dst`` says what operand 0 is; ``sources`` describes the operands
    after it, the last entry repeating.  ``result`` fixes the result
    width where it is not the type's (:func:`result_bits`);
    ``raw_write`` names the type kinds whose result replaces the whole
    64-bit payload of the destination rather than being composed into
    the register's low bits, and ``raw_bits`` bounds the payload bits
    such a write can set (an ``int``, or :data:`EXTENDED`).
    """

    exec: ExecFn | None
    operands: int
    kinds: str | None = None
    unit: str = ALU
    dst: str | None = REG_DST
    sources: tuple[Source, ...] = (VALUE,)
    optional: int = 0
    atomic: bool = False              # counts as an atomic in the model
    needs_cmp: bool = False           # a comparison modifier is required
    result: int | None = None
    raw_write: str = ""
    raw_bits: str | int = 64

    def source(self, position: int) -> Source:
        """The :class:`Source` of operand *position* (not operand 0 of a
        row that has a destination)."""
        index = position if self.dst is None else position - 1
        return self.sources[min(index, len(self.sources) - 1)]


TABLE: dict[str, Op] = {
    "add": Op(arithmetic.exec_add, 3, "usf"),
    "sub": Op(arithmetic.exec_sub, 3, "usf"),
    "mul": Op(arithmetic.exec_mul, 3, "usf"),
    "mad": Op(arithmetic.exec_mad, 4, "usf",
              sources=(VALUE, VALUE, ADDEND)),
    "fma": Op(arithmetic.exec_fma, 4, "f"),
    "div": Op(arithmetic.exec_div, 3, "usf", SFU),
    "rem": Op(arithmetic.exec_rem, 3, "us", SFU),
    "abs": Op(arithmetic.exec_abs, 2, "sf"),
    "neg": Op(arithmetic.exec_neg, 2, "sf"),
    "min": Op(arithmetic.exec_min, 3, "usf"),
    "max": Op(arithmetic.exec_max, 3, "usf"),
    "sad": Op(arithmetic.exec_sad, 4, "us"),
    "and": Op(bits.exec_and, 3, "bp"),
    "or": Op(bits.exec_or, 3, "bp"),
    "xor": Op(bits.exec_xor, 3, "bp"),
    "not": Op(bits.exec_not, 2, "bp"),
    "shl": Op(bits.exec_shl, 3, "b", sources=(VALUE, AMOUNT)),
    "shr": Op(bits.exec_shr, 3, "bus", sources=(VALUE, AMOUNT)),
    "brev": Op(bits.exec_brev, 2, "b"),
    "bfe": Op(bits.exec_bfe, 4, "us", sources=(VALUE, AMOUNT)),
    "bfi": Op(bits.exec_bfi, 5, "b", sources=(VALUE, VALUE, AMOUNT)),
    "popc": Op(bits.exec_popc, 2, "b", result=32),
    "clz": Op(bits.exec_clz, 2, "b", result=32),
    "setp": Op(compare.exec_setp, 3, "usfb", needs_cmp=True,
               raw_write=_ANY_KIND, raw_bits=1),
    "selp": Op(compare.exec_selp, 4, "usfb",
               sources=(VALUE, VALUE, SELECTOR)),
    "slct": Op(compare.exec_slct, 4, "usfb",
               sources=(VALUE, VALUE, SECOND_TYPED)),
    "mov": Op(convert.exec_mov, 2, "usfbp", sources=(SYMBOLIC,),
              raw_write="p", raw_bits=1),
    "cvt": Op(convert.exec_cvt, 2, "usf", sources=(SECOND_TYPED,)),
    "cvta": Op(convert.exec_cvta, 2, sources=(SYMBOLIC,)),
    "ld": Op(memory.exec_ld, 2, unit=MEM, sources=(ADDRESS,),
             raw_write=_ANY_KIND, raw_bits=EXTENDED),
    "ldu": Op(memory.exec_ld, 2, unit=MEM, sources=(ADDRESS,),
              raw_write=_ANY_KIND, raw_bits=EXTENDED),
    "st": Op(memory.exec_st, 2, unit=MEM, dst=MEM_DST,
             sources=(STORED,)),
    "atom": Op(memory.exec_atom, 3, unit=MEM, optional=1, atomic=True,
               sources=(ADDRESS, UNCHECKED)),
    "red": Op(memory.exec_red, 2, unit=MEM, optional=1, atomic=True,
              dst=MEM_DST, sources=(UNCHECKED,)),
    "tex": Op(memory.exec_tex, 2, unit=MEM, optional=1,
              sources=(ADDRESS, UNCHECKED), raw_write=_ANY_KIND),
    "sqrt": Op(special.exec_sqrt, 2, "f", SFU),
    "rsqrt": Op(special.exec_rsqrt, 2, "f", SFU),
    "rcp": Op(special.exec_rcp, 2, "f", SFU),
    "ex2": Op(special.exec_ex2, 2, "f", SFU),
    "lg2": Op(special.exec_lg2, 2, "f", SFU),
    "sin": Op(special.exec_sin, 2, "f", SFU),
    "cos": Op(special.exec_cos, 2, "f", SFU),
    "membar": Op(_nop, 0, optional=1, dst=None, sources=(UNCHECKED,)),
    "fence": Op(_nop, 0, optional=1, dst=None, sources=(UNCHECKED,)),
    "bra": Op(None, 1, unit=CTRL, dst=None, sources=(TARGET,)),
    "exit": Op(None, 0, unit=CTRL, dst=None),
    "ret": Op(None, 0, unit=CTRL, dst=None),
    "bar": Op(None, 0, unit=BAR, dst=None, optional=2,
              sources=(BARRIER_ID,)),
}

#: What the analyses assume of an opcode the table does not have (V100
#: reports it, :func:`lookup` raises when it issues): an ALU operation
#: that writes a register.
_UNSUPPORTED = Op(None, 0, sources=(UNCHECKED,))


def facts(opcode: str) -> Op:
    """The table row of *opcode* (a permissive stand-in if unsupported)."""
    return TABLE.get(opcode, _UNSUPPORTED)


DISPATCH: dict[str, ExecFn] = {
    opcode: op.exec for opcode, op in TABLE.items() if op.exec is not None}
OP_CLASS: dict[str, str] = {opcode: op.unit for opcode, op in TABLE.items()}
#: The opcodes the executor handles itself.
CONTROL = frozenset(TABLE) - frozenset(DISPATCH)


def lookup(opcode: str) -> ExecFn:
    """Return the implementation for *opcode* or raise the paper's error."""
    fn = facts(opcode).exec
    if fn is None:
        raise UnsupportedInstructionError(
            f"PTX instruction {opcode!r} is not implemented by the "
            "functional simulator")
    return fn


def result_bits(inst: ast.Instruction) -> int:
    """Width of the value *inst* computes: its type's (``cvt``'s
    destination type comes first), doubled by ``.wide``, or the fixed
    width of its row (``popc``/``clz`` count into 32 bits)."""
    fixed = facts(inst.opcode).result
    if fixed is not None:
        return fixed
    return inst.dtype.bits * (2 if inst.has_mod("wide") else 1)


def source_bits(inst: ast.Instruction, position: int) -> int | None:
    """Width *inst* reads from a register at operand *position*, as the
    reference implementation types it; ``None`` where it reads no typed
    value (predicates, unchecked positions, no type suffix)."""
    rule = facts(inst.opcode).source(position).bits
    if rule is None or not inst.dtypes:
        return None
    if isinstance(rule, int):
        return rule
    dtype = (inst.dtypes[1] if rule == SECOND and len(inst.dtypes) > 1
             else inst.dtype)
    if dtype.kind == "p":
        return None
    return result_bits(inst) if rule == RESULT else dtype.bits
