"""Value-range analysis: affine address forms and bounds proofs.

The pass tracks, per register, an **affine form** — an integer linear
combination of launch symbols plus a constant::

    %rd4  =  param:out:0  +  4 * %tid.x  +  16

Symbols are per-thread specials (``%tid.*``, ``%laneid``), per-launch
uniforms (``%ctaid.*``, ``%ntid.*``, ``%nctaid.*``), kernel parameter
values (``param:<name>:<offset>``) and static memory bases
(``shared:<name>``, ``global:<name>``).  The transfer functions cover
the address-arithmetic subset (``mov``/``add``/``sub``/``shl`` and
``mul``/``mad`` with one constant factor, widening ``cvt``); anything
else drops the destination to TOP (unknown).  The fixpoint joins by
*keep-if-equal*: a register whose form differs between two paths (or
between loop iterations) is TOP, so the lattice height is two and the
worklist terminates quickly.

Two consumers ride on the result:

* **Static lints** (:mod:`repro.analysis.lints`): definite
  out-of-bounds (M502), definite misalignment (M503), non-pointer
  global loads (D303), and the precision upgrade of the shared-race
  heuristic M501 (thread-injective store proofs).
* **The sanitizer** (:mod:`repro.sanitize`): per-launch, the symbolic
  facts are evaluated against concrete grid/block dims, parameter
  values and the allocation map to build the *proven-safe PC set* —
  memory instructions whose whole address interval provably stays in
  bounds (and aligned, and for loads initialized), which the dynamic
  shadow-state checks then skip.  The facts serialize into the
  megablock plan payload so warm cache loads skip this pass too.

Soundness note: forms are proven over ideal integers; the pass only
claims safety when the evaluated interval is small enough that the
64-bit address arithmetic it abstracts cannot have wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.functional.cfg import EXIT, build_cfg
from repro.functional.state import is_special
from repro.ptx import ast
from repro.ptx.ast import Instruction, Kernel, kernel_fact

#: Specials usable as interval symbols.  ``%warpid``/``%clock`` are
#: deliberately absent: the former aliases ``%tid`` non-affinely, the
#: latter is not a pure value.
_DIM_SPECIALS = ("%tid.", "%ntid.", "%ctaid.", "%nctaid.")

#: Symbol-name prefixes whose value differs between threads of one CTA.
THREAD_VARYING = ("%tid.", "%laneid")


def is_thread_varying(symbol: str) -> bool:
    """True when *symbol* (possibly a product like ``%ctaid.x*%tid.x``)
    differs between threads of one CTA."""
    return any(part.startswith(THREAD_VARYING)
               for part in symbol.split("*"))

_MASK64 = (1 << 64) - 1


def _signed(payload: int) -> int:
    """Interpret a parser immediate (64-bit two's complement) as int."""
    payload &= _MASK64
    return payload - (1 << 64) if payload >= 1 << 63 else payload


# ----------------------------------------------------------------------
# Affine forms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Affine:
    """``const + sum(coeff * symbol)`` with integer coefficients."""

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine((), value)

    @staticmethod
    def symbol(name: str, coeff: int = 1) -> "Affine":
        return Affine(((name, coeff),), 0)

    def add(self, other: "Affine") -> "Affine":
        merged = dict(self.coeffs)
        for name, coeff in other.coeffs:
            merged[name] = merged.get(name, 0) + coeff
        return Affine(_norm(merged), self.const + other.const)

    def negate(self) -> "Affine":
        return self.scale(-1)

    def scale(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine.constant(0)
        return Affine(
            tuple((name, coeff * factor) for name, coeff in self.coeffs),
            self.const * factor)

    def shift(self, delta: int) -> "Affine":
        return Affine(self.coeffs, self.const + delta)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def coeff(self, name: str) -> int:
        for sym, value in self.coeffs:
            if sym == name:
                return value
        return 0

    def symbols(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def render(self) -> str:
        """Human-readable form for finding messages."""
        parts = []
        for name, coeff in self.coeffs:
            parts.append(name if coeff == 1 else f"{coeff}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


def _norm(coeffs: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))


def _try_mul(a: Affine, b: Affine) -> Affine | None:
    """``a * b`` when representable: one side constant, or the product
    of two atomic symbols (``%ctaid.x * %ntid.x`` becomes the composite
    symbol ``%ctaid.x*%ntid.x``, still launch-evaluable)."""
    if a.is_constant:
        return b.scale(a.const)
    if b.is_constant:
        return a.scale(b.const)
    if (len(a.coeffs) == 1 and len(b.coeffs) == 1
            and a.const == 0 and b.const == 0):
        (sa, ka), (sb, kb) = a.coeffs[0], b.coeffs[0]
        if "*" in sa or "*" in sb:
            return None  # keep products quadratic at most
        if sa.startswith(("param:", "global:", "shared:")) \
                or sb.startswith(("param:", "global:", "shared:")):
            return None  # scaling a pointer is not address arithmetic
        return Affine.symbol("*".join(sorted((sa, sb))), ka * kb)
    return None


# ----------------------------------------------------------------------
# Transfer functions
# ----------------------------------------------------------------------
def _operand_form(op: ast.Operand, env: dict[str, Affine],
                  kernel: Kernel) -> Affine | None:
    if op.kind == ast.REG:
        name = op.name
        if is_special(name):
            if name.startswith(_DIM_SPECIALS) or name == "%laneid":
                return Affine.symbol(name)
            return None
        return env.get(name)
    if op.kind == ast.IMM:
        if op.imm_float:
            return None
        return Affine.constant(_signed(op.payload))
    if op.kind == ast.SYM:
        return _symbol_base(op.name, None, kernel)
    return None


def _symbol_base(name: str, space: str | None,
                 kernel: Kernel) -> Affine | None:
    """Affine base for a named shared/global variable, if resolvable."""
    if any(v.name == name for v in kernel.shared_vars):
        return Affine.symbol(f"shared:{name}")
    module = kernel.module
    if module is not None and name in module.global_vars:
        return Affine.symbol(f"global:{name}")
    if space == "shared":
        return Affine.symbol(f"shared:{name}")
    if space == "global":
        return Affine.symbol(f"global:{name}")
    return None


def _transfer(inst: Instruction, env: dict[str, Affine],
              kernel: Kernel) -> None:
    """Update *env* in place for one instruction."""
    from repro.analysis.dataflow import defs_of

    written = defs_of(inst)
    if not written:
        return
    form = _def_form(inst, env, kernel)
    if len(written) != 1:
        form = None  # vector destinations: untracked
    (dest,) = written if len(written) == 1 else (None,)
    if dest is None:
        return
    if inst.pred is not None and form is not None:
        # Guarded def: some lanes keep the old value, so the result is
        # only known when old and new forms agree.
        if env.get(dest) != form:
            form = None
    if form is None:
        env.pop(dest, None)
    else:
        env[dest] = form


def _def_form(inst: Instruction, env: dict[str, Affine],
              kernel: Kernel) -> Affine | None:
    op = inst.opcode
    srcs = inst.operands[1:]

    def src(i: int) -> Affine | None:
        if i >= len(srcs):
            return None
        return _operand_form(srcs[i], env, kernel)

    if op == "mov":
        return src(0)
    if op == "add":
        a, b = src(0), src(1)
        return a.add(b) if a is not None and b is not None else None
    if op == "sub":
        a, b = src(0), src(1)
        return a.add(b.negate()) if a is not None and b is not None \
            else None
    if op in ("mul", "mad"):
        if not (inst.has_mod("lo") or inst.has_mod("wide")):
            return None
        a, b = src(0), src(1)
        if a is None or b is None:
            return None
        product = _try_mul(a, b)
        if product is None:
            return None
        if op == "mul":
            return product
        c = src(2)
        return product.add(c) if c is not None else None
    if op == "shl":
        a, b = src(0), src(1)
        if a is None or b is None or not b.is_constant:
            return None
        if not 0 <= b.const < 63:
            return None
        return a.scale(1 << b.const)
    if op == "cvt":
        if len(inst.dtypes) < 2:
            return None
        dst_t, src_t = inst.dtypes[0], inst.dtypes[1]
        if dst_t.is_float or src_t.is_float:
            return None
        if dst_t.bits < src_t.bits:
            return None  # narrowing may truncate
        return src(0)
    if op == "shr":
        return None  # division: outside the affine subset
    if op in ("ld", "ldu") and (inst.space or "") == "param":
        mem = srcs[0] if srcs else None
        if mem is not None and mem.kind == ast.MEM \
                and not mem.is_reg_base:
            return Affine.symbol(f"param:{mem.name}:{mem.offset}")
        return None
    return None


# ----------------------------------------------------------------------
# Per-kernel analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MemFact:
    """The affine address form of one memory instruction."""

    pc: int
    space: str          # "global" | "shared"
    nbytes: int
    is_write: bool
    addr: Affine


@dataclass
class RangeInfo:
    """Result of :func:`analyze_ranges` for one kernel."""

    facts: dict[int, MemFact] = field(default_factory=dict)


def _join(a: dict[str, Affine], b: dict[str, Affine]) -> dict[str, Affine]:
    return {name: form for name, form in a.items()
            if b.get(name) == form}


def _mem_fact(inst: Instruction, env: dict[str, Affine],
              kernel: Kernel) -> MemFact | None:
    if inst.opcode not in ("ld", "st"):
        return None
    space = inst.space or "generic"
    if space not in ("global", "shared"):
        return None
    mem_index = 1 if inst.opcode == "ld" else 0
    if mem_index >= len(inst.operands):
        return None
    mem = inst.operands[mem_index]
    if mem.kind != ast.MEM:
        return None
    if mem.is_reg_base:
        base = env.get(mem.name)
    else:
        base = _symbol_base(mem.name, space, kernel)
    if base is None:
        return None
    data = inst.operands[0 if inst.opcode == "ld" else 1]
    width = len(data.elems) if data.kind == ast.VEC else 1
    nbytes = inst.dtype.bytes * max(1, width)
    return MemFact(pc=inst.index, space=space, nbytes=nbytes,
                   is_write=inst.opcode == "st",
                   addr=base.shift(mem.offset))


def analyze_ranges(kernel: Kernel) -> RangeInfo:
    """Run the affine fixpoint and extract per-PC memory facts."""
    info = RangeInfo()
    if not kernel.body:
        return info
    graph = build_cfg(kernel)
    leaders = list(graph.end)
    entry = leaders[0]
    block_in: dict[int, dict[str, Affine]] = {b: {} for b in leaders}
    block_out: dict[int, dict[str, Affine] | None] = \
        {b: None for b in leaders}
    worklist = list(leaders)
    while worklist:
        leader = worklist.pop(0)
        preds = [p for p in graph.pred[leader] if p != EXIT]
        env: dict[str, Affine] | None = None
        if leader == entry or not preds:
            env = {}
        for pred in preds:
            out = block_out[pred]
            if out is None:
                continue  # not yet computed: optimistic, revisit later
            env = dict(out) if env is None else _join(env, out)
        if env is None:
            env = {}
        block_in[leader] = dict(env)
        for inst in kernel.body[leader:graph.end[leader]]:
            _transfer(inst, env, kernel)
        if env != block_out[leader]:
            block_out[leader] = env
            for succ in graph.succ[leader]:
                if succ != EXIT and succ not in worklist:
                    worklist.append(succ)

    for leader in leaders:
        env = dict(block_in[leader])
        for inst in kernel.body[leader:graph.end[leader]]:
            fact = _mem_fact(inst, env, kernel)
            if fact is not None:
                info.facts[fact.pc] = fact
            _transfer(inst, env, kernel)
    return info


@kernel_fact
def kernel_facts(kernel: Kernel) -> dict[int, MemFact]:
    """:func:`analyze_ranges`' memory facts, once per kernel."""
    return analyze_ranges(kernel).facts


# ----------------------------------------------------------------------
# Static (launch-independent) proofs for the lints
# ----------------------------------------------------------------------
def pointer_symbols(form: Affine) -> tuple[str, ...]:
    """Symbols that denote a memory base (parameter or static var)."""
    return tuple(name for name in form.symbols()
                 if name.startswith(("param:", "global:", "shared:")))


def static_oob_below(fact: MemFact) -> bool:
    """True when some thread *certainly* accesses below its base.

    Requires a single unit-coefficient pointer symbol, all other
    coefficients non-negative with non-negative symbols (``%tid`` etc.
    start at zero), and a negative constant: the thread at the origin
    then reads ``base + const < base`` in every possible launch.
    """
    pointers = pointer_symbols(fact.addr)
    if fact.space == "global":
        if len(pointers) != 1 or fact.addr.coeff(pointers[0]) != 1:
            return False
    elif pointers:
        return False
    for name, coeff in fact.addr.coeffs:
        if name in pointers:
            continue
        if coeff < 0:
            return False  # could be compensated at larger indices
    return fact.addr.const < 0


def static_misaligned(fact: MemFact) -> bool:
    """True when the access is misaligned in **every** launch.

    All symbol contributions must be multiples of the access size
    (pointer bases qualify: allocations are 256-aligned and shared
    offsets are size-aligned), leaving the constant to decide.
    """
    if fact.nbytes <= 1:
        return False
    for name, coeff in fact.addr.coeffs:
        if name.startswith(("param:", "global:", "shared:")):
            continue  # naturally aligned bases
        if coeff % fact.nbytes:
            return False
    return fact.addr.const % fact.nbytes != 0


def thread_injective(fact: MemFact) -> bool:
    """True when no two threads of a (1-D) CTA share a byte.

    The ``%tid.x`` coefficient must stride by at least the access
    width and no other thread-varying symbol may appear.  The dynamic
    sanitizer additionally checks ``block_dim.y == block_dim.z == 1``
    before trusting this for a concrete launch.
    """
    stride = fact.addr.coeff("%tid.x")
    if abs(stride) < fact.nbytes:
        return False
    for name, coeff in fact.addr.coeffs:
        if name == "%tid.x" or coeff == 0:
            continue
        if is_thread_varying(name):
            return False
    return True


def uniform_address(fact: MemFact) -> bool:
    """True when every thread of the CTA computes the same address."""
    return not any(is_thread_varying(name)
                   for name, coeff in fact.addr.coeffs if coeff)


# ----------------------------------------------------------------------
# Launch-time proof evaluation (the sanitizer's proven-safe set)
# ----------------------------------------------------------------------
#: Proof kinds attached to a pc by :func:`prove_launch`.
BOUNDS = "bounds"
ALIGN = "align"
INIT = "init"
INJECTIVE = "injective"


def _param_value(name: str, launch) -> int | None:
    """Concrete little-endian value of ``param:<name>:<off>``."""
    _, pname, offset = name.split(":")
    decl = next((p for p in launch.kernel.params if p.name == pname),
                None)
    if decl is None or decl.array_len:
        return None
    base = launch.param_offsets.get(pname)
    if base is None:
        return None
    raw = launch.param_mem.read(base + int(offset), decl.dtype.bytes)
    value = int.from_bytes(raw, "little")
    if decl.dtype.kind == "s":
        bits = decl.dtype.bits
        if value >= 1 << (bits - 1):
            value -= 1 << bits
    return value


def _symbol_interval(name: str, launch) -> tuple[int, int] | None:
    """Inclusive value interval of *name* under *launch*."""
    bx, by, bz = launch.block_dim
    gx, gy, gz = launch.grid_dim
    dims = {
        "%tid.x": (0, bx - 1), "%tid.y": (0, by - 1),
        "%tid.z": (0, bz - 1),
        "%ctaid.x": (0, gx - 1), "%ctaid.y": (0, gy - 1),
        "%ctaid.z": (0, gz - 1),
        "%ntid.x": (bx, bx), "%ntid.y": (by, by), "%ntid.z": (bz, bz),
        "%nctaid.x": (gx, gx), "%nctaid.y": (gy, gy),
        "%nctaid.z": (gz, gz),
        "%laneid": (0, min(31, bx * by * bz - 1)),
    }
    if name in dims:
        return dims[name]
    if name.startswith("param:"):
        value = _param_value(name, launch)
        return None if value is None else (value, value)
    if name.startswith("shared:"):
        offset = launch.shared_offsets.get(name.split(":", 1)[1])
        return None if offset is None else (offset, offset)
    if name.startswith("global:"):
        entry = launch.module_symbols.get(name.split(":", 1)[1])
        if entry is None:
            return None
        _space, addr = entry
        return (addr, addr)
    if "*" in name:
        left, right = name.split("*", 1)
        a = _symbol_interval(left, launch)
        b = _symbol_interval(right, launch)
        if a is None or b is None:
            return None
        corners = [x * y for x in a for y in b]
        return min(corners), max(corners)
    return None


def eval_interval(form: Affine, launch) -> tuple[int, int] | None:
    """Inclusive ``[lo, hi]`` of *form* under *launch*, or None."""
    lo = hi = form.const
    for name, coeff in form.coeffs:
        interval = _symbol_interval(name, launch)
        if interval is None:
            return None
        a, b = interval
        lo += coeff * (a if coeff > 0 else b)
        hi += coeff * (b if coeff > 0 else a)
    return lo, hi


def _aligned(fact: MemFact, lo: int) -> bool:
    if fact.nbytes <= 1:
        return True
    for name, coeff in fact.addr.coeffs:
        if name.startswith(("param:", "global:", "shared:")):
            continue  # the base's residue is already inside *lo*
        if coeff % fact.nbytes:
            return False
    return lo % fact.nbytes == 0


def prove_launch(facts: dict[int, "MemFact"], launch,
                 global_mem) -> dict[int, frozenset[str]]:
    """Evaluate symbolic facts against one concrete launch.

    Returns pc → proof set over {BOUNDS, ALIGN, INIT, INJECTIVE}.
    BOUNDS means the whole address interval stays inside one live
    allocation (global) or the kernel's shared segment; INIT (loads)
    additionally means every byte of that interval is initialized *at
    launch time* (the shadow must be consulted — monotone, so a proof
    now holds for the whole launch); INJECTIVE (shared) means no two
    threads of a CTA can touch the same byte between barriers.
    """
    bx, by, bz = launch.block_dim
    one_dim_block = by == 1 and bz == 1
    shadow = getattr(global_mem, "shadow", None)
    proofs: dict[int, frozenset[str]] = {}
    for pc, fact in facts.items():
        proved: set[str] = set()
        interval = eval_interval(fact.addr, launch)
        if interval is not None:
            lo, hi = interval
            if fact.space == "shared":
                if 0 <= lo and hi + fact.nbytes <= launch.shared_bytes:
                    proved.add(BOUNDS)
            else:
                span = global_mem.allocation_containing(lo)
                if span is not None:
                    base, size = span
                    if hi + fact.nbytes <= base + size:
                        proved.add(BOUNDS)
                        if (not fact.is_write and shadow is not None
                                and shadow.range_initialized(
                                    lo, hi + fact.nbytes - lo)):
                            proved.add(INIT)
            if _aligned(fact, lo):
                proved.add(ALIGN)
        if (fact.space == "shared" and one_dim_block
                and thread_injective(fact)):
            proved.add(INJECTIVE)
        if proved:
            proofs[pc] = frozenset(proved)
    return proofs
