"""A small emitter DSL for writing PTX kernels from Python.

The cuDNN-clone kernels (:mod:`repro.cudnn.kernels`) are *generated PTX
text*, mirroring how the real cuDNN ships opaque PTX inside
``libcudnn.so``: the simulator only ever sees the emitted assembly and
must parse, load and execute it through the same path the paper
exercised.  The builder exists purely so that this repository's kernel
sources stay readable.

Typical use::

    b = PTXBuilder("vecadd", [("a", "u64"), ("b", "u64"),
                              ("out", "u64"), ("n", "u32")])
    a = b.ld_param("u64", "a")
    ...
    ptx_text = b.build()
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from repro.errors import PTXLabelError
from repro.ptx.values import f32_to_bits, f64_to_bits

_REG_PREFIX = {
    "pred": "%p",
    "f16": "%h",
    "f32": "%f",
    "f64": "%fd",
    "u16": "%rs", "s16": "%rs", "b16": "%rs",
    "u32": "%r", "s32": "%r", "b32": "%r",
    "u64": "%rd", "s64": "%rd", "b64": "%rd",
    "u8": "%rc", "s8": "%rc", "b8": "%rc",
}

_DECL_TYPE = {
    "%p": "pred", "%h": "b16", "%f": "f32", "%fd": "f64",
    "%rs": "b16", "%r": "b32", "%rd": "b64", "%rc": "b16",
}


def f32(value: float) -> str:
    """Format an exact .f32 immediate as a PTX hex-float literal."""
    return f"0f{f32_to_bits(float(value)):08X}"


def f64(value: float) -> str:
    return f"0d{f64_to_bits(float(value)):016X}"


class PTXBuilder:
    """Accumulates PTX statements for one ``.entry`` kernel."""

    def __init__(self, name: str,
                 params: list[tuple[str, str]],
                 *, version: str = "6.0", target: str = "sm_60") -> None:
        self.name = name
        self.version = version
        self.target = target
        self._params = list(params)
        self._counters: dict[str, int] = {}
        self._lines: list[str] = []
        self._shared: list[str] = []
        self._local: list[str] = []
        self._label_counter = 0

    # ------------------------------------------------------------------
    # Registers, labels, declarations
    # ------------------------------------------------------------------
    def reg(self, dtype: str) -> str:
        """Allocate a fresh register of the given PTX type."""
        prefix = _REG_PREFIX[dtype]
        index = self._counters.get(prefix, 0)
        self._counters[prefix] = index + 1
        return f"{prefix}{index}"

    def regs(self, dtype: str, count: int) -> list[str]:
        return [self.reg(dtype) for _ in range(count)]

    def fresh_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f"$_{hint}_{self._label_counter}"

    def place(self, label: str) -> None:
        self._lines.append(f"{label}:")

    def shared(self, name: str, dtype: str, count: int,
               align: int = 0) -> str:
        align_text = f".align {align} " if align else ""
        self._shared.append(
            f"    .shared {align_text}.{dtype} {name}[{count}];")
        return name

    def local(self, name: str, dtype: str, count: int) -> str:
        self._local.append(f"    .local .{dtype} {name}[{count}];")
        return name

    # ------------------------------------------------------------------
    # Raw emission
    # ------------------------------------------------------------------
    def ins(self, text: str, *operands: str, pred: str | None = None,
            pred_neg: bool = False) -> None:
        guard = ""
        if pred is not None:
            guard = f"@!{pred} " if pred_neg else f"@{pred} "
        body = f"{text} {', '.join(operands)}" if operands else text
        self._lines.append(f"    {guard}{body};")

    def comment(self, text: str) -> None:
        self._lines.append(f"    // {text}")

    # ------------------------------------------------------------------
    # Common idioms
    # ------------------------------------------------------------------
    def ld_param(self, dtype: str, name: str) -> str:
        reg = self.reg(dtype)
        self.ins(f"ld.param.{dtype}", reg, f"[{name}]")
        return reg

    def special(self, name: str) -> str:
        """Read a special register (%tid.x, %ctaid.y, ...) into a fresh reg."""
        reg = self.reg("u32")
        self.ins("mov.u32", reg, name)
        return reg

    def global_tid_x(self) -> str:
        """ctaid.x * ntid.x + tid.x."""
        tid = self.special("%tid.x")
        ntid = self.special("%ntid.x")
        ctaid = self.special("%ctaid.x")
        out = self.reg("u32")
        self.ins("mad.lo.s32", out, ctaid, ntid, tid)
        return out

    def imm_u32(self, value: int) -> str:
        reg = self.reg("u32")
        self.ins("mov.u32", reg, str(value))
        return reg

    def imm_f32(self, value: float) -> str:
        reg = self.reg("f32")
        self.ins("mov.f32", reg, f32(value))
        return reg

    def elem_addr(self, base64: str, index32: str, elem_bytes: int = 4) -> str:
        """base + index * elem_bytes, as a 64-bit address register."""
        out = self.reg("u64")
        self.ins("mad.wide.s32", out, index32, str(elem_bytes), base64)
        return out

    def ld_params(self, skip: tuple[str, ...] = ()) -> dict[str, str]:
        """Load every declared parameter, in declaration order, except
        the names in *skip* (declared for the host's launch math but
        never read, or loaded later by the caller)."""
        return {name: self.ld_param(dtype, name)
                for name, dtype in self._params if name not in skip}

    def div_mod(self, value: str, divisor: str, *, need_div: bool = True,
                need_rem: bool = True) -> tuple[str | None, str | None]:
        """(value / divisor, value % divisor) for u32 registers.

        Emits the exact ``div.u32`` / ``rem.u32`` pair whose ``rem``
        implementation the paper had to fix inside ``fft2d_r2c_32x32``.
        Callers that only need one half pass ``need_div``/``need_rem`` so
        the other instruction is not emitted as a dead store.
        """
        quotient = None
        if need_div:
            quotient = self.reg("u32")
            self.ins("div.u32", quotient, value, divisor)
        remainder = None
        if need_rem:
            remainder = self.reg("u32")
            self.ins("rem.u32", remainder, value, divisor)
        return quotient, remainder

    def strides(self, dims: tuple[str, ...]) -> list[str]:
        """Row-major strides of the index space *dims*, outermost
        first: ``[d0*d1*...*dk, ..., dk-1*dk, dk]``.  Products are
        emitted innermost first; the last entry is ``dims[-1]`` itself."""
        out = [dims[-1]]
        for dim in reversed(dims[:-1]):
            stride = self.reg("u32")
            self.ins("mul.lo.s32", stride, dim, out[0])
            out.insert(0, stride)
        return out

    def unflatten(self, linear: str, strides: list[str]) -> list[str]:
        """Split a linear id into ``len(strides) + 1`` coordinates by
        dividing through *strides* (see :meth:`strides`) in turn; the
        leading coordinate is whatever is left above the first stride."""
        coords = []
        for stride in strides:
            quotient, linear = self.div_mod(linear, stride)
            coords.append(quotient)
        return [*coords, linear]

    def flatten(self, coords: tuple[str, ...], dims: tuple[str, ...]) -> str:
        """``((c0*d0 + c1)*d1 + c2)...`` accumulated into ONE register
        by a ``mad.lo`` chain; *dims* are the extents of ``coords[1:]``."""
        out = self.reg("u32")
        acc = coords[0]
        for dim, coord in zip(dims, coords[1:], strict=True):
            self.ins("mad.lo.s32", out, acc, dim, coord)
            acc = out
        return out

    def all_of(self, *tests: tuple[str, str, str]) -> str:
        """Predicate that holds when each of two or more signed
        ``(cmp, a, b)`` tests does: the first ``setp`` lands in the
        result, the rest in one scratch predicate that is ``and``-ed in."""
        ok = self.reg("pred")
        scratch = self.reg("pred")
        (cmp, lhs, rhs), *rest = tests
        self.ins(f"setp.{cmp}.s32", ok, lhs, rhs)
        for cmp, lhs, rhs in rest:
            self.ins(f"setp.{cmp}.s32", scratch, lhs, rhs)
            self.ins("and.pred", ok, ok, scratch)
        return ok

    def load_global_f32(self, addr: str, offset: int = 0) -> str:
        reg = self.reg("f32")
        suffix = f"+{offset}" if offset else ""
        self.ins("ld.global.f32", reg, f"[{addr}{suffix}]")
        return reg

    def store_global_f32(self, addr: str, value: str,
                         offset: int = 0) -> None:
        suffix = f"+{offset}" if offset else ""
        self.ins("st.global.f32", f"[{addr}{suffix}]", value)

    # ------------------------------------------------------------------
    # Structured control flow
    # ------------------------------------------------------------------
    @contextmanager
    def if_then(self, pred: str, *, negate: bool = False):
        """Skip the body when *pred* is false (or true, if negate)."""
        skip = self.fresh_label("endif")
        self.ins(f"bra {skip}", pred=pred, pred_neg=not negate)
        yield
        self.place(skip)

    @contextmanager
    def for_range(self, counter: str, start: str | int, end: str,
                  step: int = 1):
        """``for counter in range(start, end, step)`` over s32 values."""
        head = self.fresh_label("loop")
        done = self.fresh_label("done")
        self.ins("mov.u32", counter, str(start))
        self.place(head)
        pred = self.reg("pred")
        self.ins("setp.ge.s32", pred, counter, end)
        self.ins(f"bra {done}", pred=pred)
        yield head
        self.ins("add.s32", counter, counter, str(step))
        self.ins(f"bra {head}")
        self.place(done)

    @contextmanager
    def loop_nest(self, *bounds: tuple[str | int, str]):
        """Counted ``(start, end)`` loops nested in the order given;
        yields their counters, outermost first."""
        with ExitStack() as stack:
            counters = []
            for start, end in bounds:
                counter = self.reg("u32")
                stack.enter_context(self.for_range(counter, start, end))
                counters.append(counter)
            yield counters

    def guard_tid_below(self, tid: str, limit: str) -> None:
        """Exit threads whose global id is >= limit."""
        pred = self.reg("pred")
        self.ins("setp.ge.s32", pred, tid, limit)
        self.ins("bra $_exit_guard", pred=pred)
        self._needs_exit_guard = True

    def bar_sync(self) -> None:
        self.ins("bar.sync", "0")

    def exit(self) -> None:
        self.ins("exit")

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _check_labels(self, body_lines: list[str]) -> None:
        """Reject duplicate labels and branches to labels never placed.

        Both bugs would otherwise only surface downstream — the parser
        rejects the duplicate, but an undefined target survives all the
        way to the first warp that takes the branch.
        """
        defined: set[str] = set()
        for line in body_lines:
            text = line.strip()
            if text.endswith(":") and not text.startswith("//"):
                label = text[:-1]
                if label in defined:
                    raise PTXLabelError(
                        f"kernel {self.name!r}: label {label!r} placed "
                        "twice")
                defined.add(label)
        for line in body_lines:
            text = line.strip()
            if text.startswith("//"):
                continue
            tokens = text.rstrip(";").split()
            if "bra" in tokens:
                target = tokens[-1]
                if target not in defined:
                    raise PTXLabelError(
                        f"kernel {self.name!r}: branch to undefined "
                        f"label {target!r}")

    def build(self) -> str:
        params = ",\n".join(
            f"    .param .{dtype} {name}" for name, dtype in self._params)
        decls = []
        for prefix, count in sorted(self._counters.items()):
            decls.append(
                f"    .reg .{_DECL_TYPE[prefix]} {prefix}<{count}>;")
        body_lines = list(self._lines)
        if getattr(self, "_needs_exit_guard", False):
            body_lines.append("$_exit_guard:")
            body_lines.append("    exit;")
        if not body_lines or not body_lines[-1].strip().startswith(
                ("exit", "ret")):
            body_lines.append("    exit;")
        self._check_labels(body_lines)
        parts = [
            f".version {self.version}",
            f".target {self.target}",
            ".address_size 64",
            "",
            f".visible .entry {self.name}(",
            params,
            ")",
            "{",
            *decls,
            *self._shared,
            *self._local,
            *body_lines,
            "}",
            "",
        ]
        return "\n".join(parts)
