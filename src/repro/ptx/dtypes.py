"""PTX data-type specifiers (``.u32``, ``.s64``, ``.f32``, ``.pred``...).

A :class:`DType` couples a *kind* (unsigned, signed, float, untyped bits,
predicate) with a bit width.  Instruction semantics dispatch on both — the
paper's ``rem`` bug existed exactly because GPGPU-Sim ignored the type
specifier and always computed a ``.u64`` remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PTXSyntaxError

_VALID_KINDS = frozenset("usfbp")


@dataclass(frozen=True)
class DType:
    """A PTX scalar type: kind ∈ {u, s, f, b, p(red)} and width in bits."""

    kind: str
    bits: int

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise PTXSyntaxError(f"bad dtype kind {self.kind!r}")

    @property
    def bytes(self) -> int:
        return self.bits // 8

    @property
    def is_float(self) -> bool:
        return self.kind == "f"

    @property
    def is_signed(self) -> bool:
        return self.kind == "s"

    @property
    def name(self) -> str:
        if self.kind == "p":
            return "pred"
        return f"{self.kind}{self.bits}"

    def __str__(self) -> str:
        return f".{self.name}"


U8 = DType("u", 8)
U16 = DType("u", 16)
U32 = DType("u", 32)
U64 = DType("u", 64)
S8 = DType("s", 8)
S16 = DType("s", 16)
S32 = DType("s", 32)
S64 = DType("s", 64)
F16 = DType("f", 16)
F32 = DType("f", 32)
F64 = DType("f", 64)
B8 = DType("b", 8)
B16 = DType("b", 16)
B32 = DType("b", 32)
B64 = DType("b", 64)
PRED = DType("p", 1)

_BY_NAME = {
    "u8": U8, "u16": U16, "u32": U32, "u64": U64,
    "s8": S8, "s16": S16, "s32": S32, "s64": S64,
    "f16": F16, "f32": F32, "f64": F64,
    "b8": B8, "b16": B16, "b32": B32, "b64": B64,
    "pred": PRED,
}


def dtype_from_name(name: str) -> DType:
    """Look up a dtype by its PTX suffix name (``u32``, ``f16``, ``pred``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise PTXSyntaxError(f"unknown dtype {name!r}") from None


def is_dtype_name(name: str) -> bool:
    return name in _BY_NAME
