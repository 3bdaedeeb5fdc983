"""One table of compiled PTX semantics, rendered by two dialects.

Every PTX opcode the compiled tiers understand — register ops and
``ld``/``st`` — has exactly one *row* here.  A row is written once and
owns what is true of the opcode on any tier: which modifier/dtype forms
it declines, whether an operand is read as a raw payload or as a typed
value, the width of the result, and the expression that computes it.
It renders through a :class:`Codegen` *dialect*:

* ``superblock._BlockCodegen`` — Python ints, one lane at a time (the
  fused-superblock and stepped renderings);
* ``megablock._VecGen`` — NumPy columns, every thread of a grid chunk
  at once, each stored at the width its register's payload can occupy
  (``bool``, ``uint32`` or ``uint64``; :mod:`repro.functional.npops`).

Most expressions spell the same in both (``(a) + (b)``, ``(a) * (b) +
(c)``, ``(b) < (a)``), so rows write them inline — the scalar tier's
speed is its inlined int arithmetic.  Where Python-int and NumPy
spellings genuinely differ the row asks the dialect for a primitive:
``select``, ``compare``, ``shift``, ``divrem``, ``to_float``,
``widened`` for a value a product or pack carries past 32 bits, the
float encoder and ``canonical`` behind ``write_float``, ``bind`` for a
single-evaluation temp, or ``call`` for a named helper that exists as a
scalar/NumPy pair with one signature (``fdiv``, ``fmin``, ``fmax``,
``f2i``, ``brev32`` and the seven SFU ops).

A NaN result of a float op with two or more float operands is PTX's
canonical NaN on every tier (``values.canonical``): ``write_float``
applies the rule for both dialects, the reference's ``apply_binary``/
``apply_ternary`` for the interpreter.

A row (or a dialect primitive) raises :class:`Decline` for a form it
does not compile; the instruction then runs through the reference
interpreter (scalar tier) or makes the kernel ineligible for the vector
tier.  :func:`emit` is the one dispatcher and catches nothing else — an
emitter bug fails loudly instead of becoming a silent fallback.

``ld``/``st`` are one row too (:func:`_ld_st`).  It owns what is true of
a memory access on any tier — operand shapes, ``.v2``/``.v4`` arity, the
declined spaces, element offsets, sign extension, store masking and
**one** access event per lane spanning the whole vector — and asks the
dialect only for the memory vocabulary: ``address(mem)`` (an opaque
handle), ``access(inst, addr, total_bytes, is_write)`` and
``elements(space, addr, nbytes, width, values)`` — by default a
``load(space, addr, offset, nbytes)`` or ``store(..., value)`` per
element, in the vector dialect one call for the whole access.  Where a
dialect's lanes must meet in memory order is its own business (the
scalar dialect decides per state space before each instruction).  The
access event is the single feed of ``warp.mem_trace`` (hence
``ExecRecord.mem_accesses`` and the scalar sanitizer hook), the timing
pre-pass's ``StreamRecorder.access`` and the vector tier's sanitizer
checks, so "per access, not per element" holds by construction.
``atom``/``red``/``tex`` stay reference-only: their value order is issue
order.

Adding an opcode: docs/ARCHITECTURE.md "Adding an opcode" — its row of
the instruction-set table (:mod:`repro.ptx.instructions`) and one row
here; how many operands a row renders and whether operand 0 is a
register come from the table.
"""

from __future__ import annotations

from typing import Callable

from repro.ptx import ast
from repro.ptx.dtypes import DType
from repro.ptx.instructions import MEM, TABLE
from repro.ptx.values import bits_to_f64, f32_to_bits, read_typed


class Decline(Exception):
    """No compiled rendering for this form."""


def _require(condition: bool) -> None:
    if not condition:
        raise Decline


def immediate(op: ast.Operand, dtype: DType, *,
              typed: bool = False) -> int | float:
    """Compile-time value of an ``IMM`` operand read at *dtype*.

    The raw payload, or with *typed* the Python value an instruction of
    that type computes on.  A float literal on a non-float or 16-bit
    type declines.
    """
    payload = op.payload
    supported_float = dtype.is_float and dtype.bits in (32, 64)
    if op.imm_float:
        _require(supported_float)
        if dtype.bits == 32:
            payload = f32_to_bits(bits_to_f64(payload))
    if not typed:
        return payload
    _require(supported_float or not dtype.is_float)
    return read_typed(payload, dtype)


class Codegen:
    """The vocabulary rows render through; a dialect implements it.

    Operand reads return expression strings (and raise :class:`Decline`
    for operand kinds the dialect cannot read); writes emit code.  A
    dialect provides ``reg``, ``decode``, ``const``, ``write``,
    ``write_pred``, ``float_encoder``, ``canonical``, ``bind``, ``select``,
    ``pred_true``, ``compare``, ``shift``, ``divrem``, ``to_float``,
    ``value_mod64``, ``symbol``, ``call``, and for memory rows
    ``address``, ``access``, ``load``/``store`` (or ``elements``) and
    ``write_raw`` (a whole-payload write of a loaded value).

    ``widths`` is the kernel's register width map
    (:func:`repro.analysis.dataflow.register_widths`; a register it
    does not name is 64 wide).  ``write`` composes a narrow result into
    the old payload's upper bits only where :meth:`replaces` says there
    can be any.
    """

    def __init__(self, widths: dict[str, int] | None = None) -> None:
        self.widths = widths or {}

    def replaces(self, name: str, bits: int) -> bool:
        """Does a *bits*-wide write cover everything *name* can hold?"""
        return self.widths.get(name, 64) <= bits

    def payload(self, op: ast.Operand, dtype: DType) -> str:
        """Raw 64-bit payload of a source operand."""
        if op.kind == ast.IMM:
            return self.const(immediate(op, dtype))
        _require(op.kind == ast.REG)
        return self.reg(op.name)

    def value(self, op: ast.Operand, dtype: DType) -> str:
        """Typed value of a source operand (signed int, float...)."""
        if op.kind == ast.IMM:
            return self.const(immediate(op, dtype, typed=True))
        return self.decode(self.payload(op, dtype), dtype)

    def widened(self, op: ast.Operand, dtype: DType) -> str:
        """Typed value of a source operand that a product or a pack
        carries past its own width (the NumPy dialect holds a 32-bit
        value at 64 bits)."""
        return self.value(op, dtype)

    def write_float(self, name: str, bits: int, expr: str,
                    canonical: bool = False) -> None:
        """Round *expr* to a *bits*-wide float and write its encoding;
        *canonical* (an op with two or more float operands) makes a NaN
        result the canonical NaN."""
        if canonical:
            expr = self.canonical(expr)
        self.write(name, bits, f"{self.float_encoder(bits)}({expr})")

    def elements(self, space: str, addr, nbytes: int, width: int,
                 values: list[str] | None = None):
        """Store *values*, or give the raw local of each of the *width*
        elements one access loads: per element, lazily (so element k's
        write renders before element k+1 loads)."""
        for index, value in enumerate(values or ()):
            self.store(space, addr, index * nbytes, nbytes, value)
        return () if values else (self.load(space, addr, index * nbytes,
                                            nbytes) for index in range(width))


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
#: opcode -> ``render(inst, gen, dst, *sources)``.  The operand count is
#: the table row's; a row of the memory unit gets its first operand
#: whole, any other ``dst`` as the name of the register it writes.
ROWS: dict[str, Callable[..., None]] = {}


def _row(*opcodes: str):
    def register(render):
        for opcode in opcodes:
            ROWS[opcode] = render
        return render
    return register


def emit(inst: ast.Instruction, gen: Codegen) -> bool:
    """Render *inst* through *gen*; ``False`` if it has no rendering.

    Malformed operand lists and ``.sat`` are declined here for every row
    (the reference saturates float ``add`` and ``cvt``)."""
    render = ROWS.get(inst.opcode)
    if render is None:
        return False
    row, operands = TABLE[inst.opcode], inst.operands
    if (len(operands) != row.operands or not inst.dtypes
            or inst.has_mod("sat")):
        return False
    dst = operands[0]
    if row.unit != MEM:
        if dst.kind != ast.REG:
            return False
        dst = dst.name
    try:
        render(inst, gen, dst, *operands[1:])
    except Decline:
        return False
    return True


_INFIX = {"add": "+", "sub": "-", "mul": "*",
          "and": "&", "or": "|", "xor": "^"}
_FLOAT_HELPERS = {"div": "fdiv", "min": "fmin", "max": "fmax"}
_COMPARE = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
            "ge": ">=", "lo": "<", "ls": "<=", "hi": ">", "hs": ">="}
_ROUNDERS = ("rni", "rzi", "rmi", "rpi")
_SFU = ("rcp", "rsqrt", "sqrt", "sin", "cos", "lg2", "ex2")


def _arith_float(dtype: DType) -> bool:
    """f32/f64: the float widths arithmetic compiles at (f16 only
    converts)."""
    return dtype.is_float and dtype.bits in (32, 64)


def _float_binary(inst, gen, dst, a, b) -> None:
    dtype, opcode = inst.dtype, inst.opcode
    _require(_arith_float(dtype))
    va, vb = gen.value(a, dtype), gen.value(b, dtype)
    if opcode in _FLOAT_HELPERS:
        expr = gen.call(_FLOAT_HELPERS[opcode], va, vb)
    else:
        _require(opcode in ("add", "sub", "mul"))
        expr = f"({va}) {_INFIX[opcode]} ({vb})"
    gen.write_float(dst, dtype.bits, expr, canonical=True)


@_row("add", "sub", "and", "or", "xor", "min", "max", "div", "rem")
def _binary(inst, gen, dst, a, b) -> None:
    dtype, opcode = inst.dtype, inst.opcode
    if dtype.is_float:
        _float_binary(inst, gen, dst, a, b)
    elif opcode in _INFIX:
        # Wrapping ops need no sign: the write truncates to the width.
        gen.write(dst, dtype.bits, f"({gen.payload(a, dtype)}) "
                  f"{_INFIX[opcode]} ({gen.payload(b, dtype)})")
    else:
        va, vb = gen.value(a, dtype), gen.value(b, dtype)
        if opcode in ("div", "rem"):
            # Quirky launches (rem_ignores_type) run the reference
            # interpreter, so a compiled rem never needs the quirk.
            expr = gen.divrem(opcode, va, vb, dtype)
        else:
            va, vb = gen.bind(va), gen.bind(vb)
            order = "<" if opcode == "min" else ">"
            expr = gen.select(f"({vb}) {order} ({va})", vb, va)
        gen.write(dst, dtype.bits, expr)


@_row("mul", "mad")
def _mul_mad(inst, gen, dst, a, b, c=None) -> None:
    dtype = inst.dtype
    if dtype.is_float:
        _require(c is None)
        _float_binary(inst, gen, dst, a, b)
        return
    _require(not inst.has_mod("hi"))
    wide = inst.has_mod("wide")
    out = DType(dtype.kind, dtype.bits * 2) if wide else dtype
    if a.kind == b.kind == ast.IMM:
        # Fold the product: one of two raw payloads can pass the type's
        # width, which no NumPy column takes (a .wide one fits its type).
        x, y = (immediate(op, dtype, typed=wide) for op in (a, b))
        expr = gen.const(x * y if wide else x * y % 2 ** dtype.bits)
    else:
        read = gen.widened if wide else gen.payload
        expr = f"({read(a, dtype)}) * ({read(b, dtype)})"
    if c is not None:
        addend = gen.value_mod64(c, out) if wide else gen.payload(c, dtype)
        expr += f" + ({addend})"
    gen.write(dst, out.bits, expr)


@_row("fma")
def _fma(inst, gen, dst, a, b, c) -> None:
    dtype = inst.dtype
    _require(_arith_float(dtype))
    # The f32 product is exact in binary64, so one final rounding makes
    # this a faithful fused multiply-add.
    va, vb, vc = (gen.value(op, dtype) for op in (a, b, c))
    gen.write_float(dst, dtype.bits, f"({va}) * ({vb}) + ({vc})",
                    canonical=True)


@_row("neg")
def _neg(inst, gen, dst, a) -> None:
    dtype = inst.dtype
    if dtype.is_float:
        _require(_arith_float(dtype))
        gen.write_float(dst, dtype.bits, f"-({gen.value(a, dtype)})")
    else:
        gen.write(dst, dtype.bits, f"0 - ({gen.payload(a, dtype)})")


@_row("setp")
def _setp(inst, gen, dst, a, b) -> None:
    dtype, cmp = inst.dtype, inst.cmp or "eq"
    _require(cmp in _COMPARE
             and (_arith_float(dtype) or not dtype.is_float))
    va, vb = gen.value(a, dtype), gen.value(b, dtype)
    # Ordered float comparisons are false on NaN, except ``ne``.
    nan = int(cmp == "ne") if dtype.is_float else None
    gen.write_pred(dst, gen.compare(_COMPARE[cmp], va, vb, nan))


@_row("selp")
def _selp(inst, gen, dst, a, b, pred) -> None:
    dtype = inst.dtype
    _require(pred.kind == ast.REG)
    pa, pb = gen.payload(a, dtype), gen.payload(b, dtype)
    gen.write(dst, dtype.bits,
              gen.select(gen.pred_true(pred.name), pa, pb))


@_row(*_SFU)
def _sfu(inst, gen, dst, a) -> None:
    dtype = inst.dtype
    _require(dtype.is_float and dtype.bits == 32)
    gen.write_float(dst, 32, gen.call(inst.opcode, gen.value(a, dtype)))


@_row("shl", "shr")
def _shift(inst, gen, dst, a, b) -> None:
    dtype = inst.dtype
    if inst.opcode == "shl":
        value, amount = gen.payload(a, dtype), gen.payload(b, dtype)
    else:  # typed value: a signed shr is arithmetic
        amount, value = gen.payload(b, dtype), gen.value(a, dtype)
    gen.write(dst, dtype.bits,
              gen.shift(inst.opcode, value, amount, dtype))


@_row("brev")
def _brev(inst, gen, dst, a) -> None:
    _require(inst.dtype.bits == 32)
    gen.write(dst, 32, gen.call("brev32", gen.payload(a, inst.dtype)))


@_row("mov")
def _mov(inst, gen, dst, src) -> None:
    dtype = inst.dtype
    if src.kind == ast.SYM:
        gen.write(dst, dtype.bits, gen.symbol(src.name, src.offset))
    elif src.kind == ast.VEC:  # pack: mov.b64 %rd, {lo, hi}
        half = DType("u", dtype.bits // 2)
        _require(len(src.elems) == 2 and half.bits in (16, 32))
        lo, hi = (gen.widened(elem, half) for elem in src.elems)
        gen.write(dst, dtype.bits, f"({lo}) | (({hi}) << {half.bits})")
    elif dtype.kind == "p":
        gen.write_pred(dst, gen.compare(
            "!=", gen.payload(src, dtype), "0", None))
    else:
        gen.write(dst, dtype.bits, gen.payload(src, dtype))


@_row("cvt")
def _cvt(inst, gen, dst, src) -> None:
    _require(len(inst.dtypes) >= 2)
    to, frm = inst.dtypes[0], inst.dtypes[1]
    # f16 converts to and from the other floats only.
    _require(to.is_float and frm.is_float or all(
        _arith_float(t) or not t.is_float for t in (to, frm)))
    value = gen.value(src, frm)
    if to.is_float:
        gen.write_float(dst, to.bits, gen.to_float(value, frm))
    elif frm.is_float:
        rounder = next((m for m in inst.modifiers if m in _ROUNDERS),
                       "rzi")
        gen.write(dst, to.bits, gen.call(
            "f2i", value, repr(rounder), str(to.bits), str(to.is_signed)))
    else:  # integer to integer: the value already carries frm's sign
        gen.write(dst, to.bits, value)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
#: State spaces with a compiled rendering (``generic`` and ``local``
#: resolve per lane: reference only).
_LD_SPACES = ("global", "shared", "param", "const")
_ST_SPACES = ("global", "shared")
_VECTOR_WIDTH = {"v2": 2, "v4": 4}


@_row("ld", "st")
def _ld_st(inst, gen, first, second) -> None:
    is_write = inst.opcode == "st"
    mem, data = (first, second) if is_write else (second, first)
    dtype, space = inst.dtype, inst.space
    width = next((w for mod, w in _VECTOR_WIDTH.items()
                  if inst.has_mod(mod)), 1)
    elems = data.elems if data.kind == ast.VEC else (data,)
    kinds = (ast.REG, ast.IMM) if is_write else (ast.REG,)
    _require(space in (_ST_SPACES if is_write else _LD_SPACES)
             and mem.kind == ast.MEM and len(elems) == width
             and all(elem.kind in kinds for elem in elems))
    nbytes, values = dtype.bytes, None
    if is_write:
        # Values are truncated to the access width.
        unsigned = DType("u", dtype.bits)
        values = [gen.decode(gen.payload(elem, dtype), unsigned)
                  for elem in elems]
    addr = gen.address(mem)
    # One event per lane for the whole vector, the way it issues.
    gen.access(inst, addr, nbytes * width, is_write)
    for elem, raw in zip(elems, gen.elements(space, addr, nbytes, width,
                                             values)):
        if dtype.is_signed and dtype.bits < 64:
            gen.write(elem.name, 64, gen.decode(raw, dtype))
        else:
            gen.write_raw(elem.name, raw)


# Every row renders a fixed operand list whose length the table states.
assert all(TABLE[opcode].optional == 0 for opcode in ROWS)
