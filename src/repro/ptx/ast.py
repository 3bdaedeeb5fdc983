"""AST node types for parsed PTX.

The parser produces one :class:`PTXModule` per embedded PTX file.  A
module owns kernels (``.entry``), module-scope variables (``.global`` /
``.const``) and its PTX version/target headers.  Instructions are kept in
a flat list per kernel with label names resolved to instruction indices —
the functional simulator's program counter is an index into that list.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.ptx.dtypes import DType

# Operand kind tags (plain strings keep the interpreter's dispatch cheap).
REG = "reg"
IMM = "imm"
MEM = "mem"
VEC = "vec"
SYM = "sym"
LABEL = "label"


@dataclass
class Operand:
    """One instruction operand.

    * ``kind == REG``   — ``name`` holds the register name (``%r12``).
    * ``kind == IMM``   — ``payload`` holds the raw 64-bit bit pattern and
      ``imm_float`` records whether the literal was written as a float.
    * ``kind == MEM``   — ``name`` holds the address base register or the
      symbol name, ``offset`` an additive byte displacement, and ``space``
      an optional state-space override taken from the opcode.
    * ``kind == VEC``   — ``elems`` holds component operands (``{%f0,%f1}``).
    * ``kind == SYM``   — a bare symbol (shared/global variable, param name).
    * ``kind == LABEL`` — branch target label name.
    """

    kind: str
    name: str = ""
    payload: int = 0
    imm_float: bool = False
    offset: int = 0
    elems: tuple["Operand", ...] = ()
    is_reg_base: bool = True


@dataclass
class Instruction:
    """A fully decoded PTX instruction."""

    opcode: str                       # base mnemonic, e.g. "add", "ld", "setp"
    modifiers: tuple[str, ...]        # raw dot-suffixes minus the dtype(s)
    dtypes: tuple[DType, ...]         # type specifiers, in order of appearance
    operands: tuple[Operand, ...]
    pred: str | None = None           # guard predicate register name
    pred_negated: bool = False
    space: str | None = None          # memory space for ld/st/atom/tex
    cmp: str | None = None            # comparison op for setp/set
    index: int = 0                    # position in the kernel body
    line: int = 0                     # source line for diagnostics
    text: str = ""                    # original statement text

    @property
    def dtype(self) -> DType:
        """The primary (usually only) type specifier."""
        return self.dtypes[0]

    def has_mod(self, name: str) -> bool:
        return name in self.modifiers

    def __str__(self) -> str:
        return self.text or f"{self.opcode}{''.join('.' + m for m in self.modifiers)}"


@dataclass
class ParamDecl:
    """A kernel ``.param`` declaration."""

    name: str
    dtype: DType
    offset: int = 0        # byte offset within the param block
    array_len: int = 0     # nonzero for .param .b8 name[N] style blobs

    @property
    def size(self) -> int:
        if self.array_len:
            return self.array_len
        return self.dtype.bytes


@dataclass
class VarDecl:
    """A module- or kernel-scope variable (.shared/.global/.const/.local)."""

    name: str
    space: str
    dtype: DType
    array_len: int = 1
    align: int = 0
    init: bytes | None = None

    @property
    def size(self) -> int:
        return max(1, self.array_len) * self.dtype.bytes


@dataclass
class Kernel:
    """One ``.entry`` function: params, declarations and the body."""

    name: str
    params: list[ParamDecl] = field(default_factory=list)
    body: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    shared_vars: list[VarDecl] = field(default_factory=list)
    local_vars: list[VarDecl] = field(default_factory=list)
    reg_decls: dict[str, DType] = field(default_factory=dict)
    module: "PTXModule | None" = None

    #: Every fact the body implies (CFG, IPDOM map, dataflow solutions,
    #: range facts, compiled tiers), each memoised here by the
    #: :func:`kernel_fact` that owns it.  Only the parser builds a body,
    #: so nothing here goes stale; it is never compared or pickled.
    derived: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["derived"] = {}
        return state

    @property
    def param_bytes(self) -> int:
        if not self.params:
            return 0
        last = self.params[-1]
        return last.offset + last.size

    @property
    def shared_bytes(self) -> int:
        return sum(v.size for v in self.shared_vars)


def kernel_fact(fact):
    """Memoise ``fact(kernel)`` in ``kernel.derived``: computed once per
    kernel, then the same object for every caller.  Further arguments
    only observe the one computation (a tracer), never change its value.
    Threads sharing a kernel may compute it twice; the first value
    stored wins for all."""
    key = f"{fact.__module__}.{fact.__qualname__}"

    @functools.wraps(fact)
    def memoised(kernel: Kernel, *observers):
        derived = kernel.derived
        try:
            return derived[key]
        except KeyError:
            return derived.setdefault(key, fact(kernel, *observers))

    return memoised


@dataclass
class PTXModule:
    """A parsed PTX translation unit.

    ``file_id`` namespaces the module: the paper's loader fix (2) extracts
    and processes each embedded PTX file separately so that duplicated
    kernel/variable names across cuDNN source files do not collide.
    """

    version: str = "6.0"
    target: str = "sm_60"
    address_size: int = 64
    file_id: str = ""
    kernels: dict[str, Kernel] = field(default_factory=dict)
    global_vars: dict[str, VarDecl] = field(default_factory=dict)
    const_vars: dict[str, VarDecl] = field(default_factory=dict)

    def kernel(self, name: str) -> Kernel:
        return self.kernels[name]
