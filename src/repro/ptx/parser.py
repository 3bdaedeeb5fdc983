"""Recursive-descent parser producing :class:`repro.ptx.ast.PTXModule`.

The grammar covers the PTX 6.x subset emitted by the kernel generators in
:mod:`repro.cudnn.kernels` plus everything the paper's bug reports touch
(``brev``, ``bfe``, typed ``rem``, textures, vector loads, ``bar.sync``).

One deliberate compatibility quirk is preserved: GPGPU-Sim could not parse
global arrays initialised with curly braces (the reason TensorFlow support
was left as future work in the paper).  The parser reproduces that
behaviour by default and implements the initialiser as the opt-in
``allow_brace_init=True`` extension.
"""

from __future__ import annotations

from repro.errors import PTXLabelError, PTXSyntaxError
from repro.ptx import ast
from repro.ptx.dtypes import DType, dtype_from_name, is_dtype_name
from repro.ptx.lexer import EOF, FLOAT, INT, PUNCT, WORD, Token, tokenize
from repro.ptx.values import MASK64, f64_to_bits, write_typed

_SPACES = frozenset(["global", "shared", "local", "param", "const", "generic"])
_CMP_OPS = frozenset([
    "eq", "ne", "lt", "le", "gt", "ge", "lo", "ls", "hi", "hs",
    "equ", "neu", "ltu", "leu", "gtu", "geu", "num", "nan",
])
_CMP_OPCODES = frozenset(["setp", "set"])


class Parser:
    """Token-stream parser for one PTX translation unit."""

    def __init__(self, text: str, file_id: str = "", *,
                 allow_brace_init: bool = False) -> None:
        self._tokens = tokenize(text)
        self._pos = 0
        self._module = ast.PTXModule(file_id=file_id)
        self._allow_brace_init = allow_brace_init

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        try:
            return self._tokens[self._pos + ahead]
        except IndexError:  # past the end: the EOF token, as at it
            return self._tokens[-1]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise PTXSyntaxError(
                f"expected {want!r}, found {token.text!r}", token.line)
        return token

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._next()
        return None

    def _skip_statement(self) -> None:
        while self._peek().kind != EOF:
            if self._accept(PUNCT, ";"):
                return
            self._next()

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse(self) -> ast.PTXModule:
        while True:
            token = self._peek()
            if token.kind == EOF:
                break
            if token.kind != WORD:
                raise PTXSyntaxError(
                    f"unexpected token {token.text!r} at module scope",
                    token.line)
            word = token.text
            if word == ".version":
                self._next()
                self._module.version = self._next().text
                self._accept(PUNCT, ";")
            elif word == ".target":
                self._next()
                self._module.target = self._next().text
                while self._accept(PUNCT, ","):
                    self._next()
                self._accept(PUNCT, ";")
            elif word == ".address_size":
                self._next()
                self._module.address_size = int(self._next().value)
                self._accept(PUNCT, ";")
            elif word in (".file", ".loc", ".pragma"):
                self._skip_statement()
            else:
                self._parse_toplevel_decl()
        return self._module

    def _parse_toplevel_decl(self) -> None:
        qualifiers: list[str] = []
        while self._peek().kind == WORD and self._peek().text in (
                ".visible", ".extern", ".weak", ".common"):
            qualifiers.append(self._next().text)
        token = self._peek()
        if token.text == ".entry":
            self._next()
            self._parse_entry()
        elif token.text in (".global", ".const"):
            space = token.text.lstrip(".")
            self._next()
            decl = self._parse_var_decl(space, allow_init=True)
            target = (self._module.global_vars if space == "global"
                      else self._module.const_vars)
            target[decl.name] = decl
            self._expect(PUNCT, ";")
        elif token.text == ".func":
            raise PTXSyntaxError(
                "device functions (.func) are not supported; inline them",
                token.line)
        else:
            raise PTXSyntaxError(
                f"unexpected directive {token.text!r}", token.line)

    # ------------------------------------------------------------------
    # Kernel entries
    # ------------------------------------------------------------------
    def _parse_entry(self) -> None:
        name = self._expect(WORD).text
        kernel = ast.Kernel(name=name, module=self._module)
        if self._accept(PUNCT, "("):
            offset = 0
            while not self._accept(PUNCT, ")"):
                param = self._parse_param(offset)
                offset = param.offset + param.size
                kernel.params.append(param)
                self._accept(PUNCT, ",")
        # Skip performance-tuning directives before the body.
        while self._peek().kind == WORD and self._peek().text.startswith("."):
            self._skip_directive_before_body()
        self._expect(PUNCT, "{")
        self._parse_body(kernel)
        self._module.kernels[name] = kernel

    def _skip_directive_before_body(self) -> None:
        self._next()  # directive word, e.g. .maxntid
        while self._peek().kind in (INT, WORD) or self._peek().text == ",":
            if self._peek().text == "{":
                break
            self._next()

    def _parse_param(self, offset: int) -> ast.ParamDecl:
        self._expect(WORD, ".param")
        align = 0
        if self._accept(WORD, ".align"):
            align = int(self._expect(INT).value)
        dtype = self._parse_dtype()
        name = self._expect(WORD).text
        array_len = 0
        if self._accept(PUNCT, "["):
            array_len = int(self._expect(INT).value)
            self._expect(PUNCT, "]")
        alignment = align or dtype.bytes
        offset = (offset + alignment - 1) // alignment * alignment
        return ast.ParamDecl(name=name, dtype=dtype, offset=offset,
                             array_len=array_len * dtype.bytes)

    def _parse_dtype(self) -> DType:
        token = self._expect(WORD)
        name = token.text.lstrip(".")
        if not is_dtype_name(name):
            raise PTXSyntaxError(f"expected dtype, found {token.text!r}",
                                 token.line)
        return dtype_from_name(name)

    # ------------------------------------------------------------------
    # Kernel bodies
    # ------------------------------------------------------------------
    def _parse_body(self, kernel: ast.Kernel) -> None:
        while True:
            token = self._peek()
            if token.kind == EOF:
                raise PTXSyntaxError("unterminated kernel body", token.line)
            if self._accept(PUNCT, "}"):
                break
            if token.kind == WORD and token.text == ".reg":
                self._parse_reg_decl(kernel)
            elif token.kind == WORD and token.text in (".shared", ".local"):
                space = token.text.lstrip(".")
                self._next()
                decl = self._parse_var_decl(space, allow_init=False)
                if space == "shared":
                    kernel.shared_vars.append(decl)
                else:
                    kernel.local_vars.append(decl)
                self._expect(PUNCT, ";")
            elif token.kind == WORD and token.text in (".loc", ".pragma"):
                self._skip_statement()
            elif (token.kind == WORD
                  and self._peek(1).kind == PUNCT
                  and self._peek(1).text == ":"):
                label = self._next().text
                self._expect(PUNCT, ":")
                if label in kernel.labels:
                    raise PTXLabelError(f"duplicate label {label!r}",
                                        token.line)
                kernel.labels[label] = len(kernel.body)
            else:
                inst = self._parse_instruction(len(kernel.body))
                kernel.body.append(inst)
        # A branch to a label the body never defines would otherwise
        # surface as a KeyError (or a "bra without target" fault) the
        # first time a warp reaches it.  Bare-word targets lex as SYM;
        # promote the ones that resolve, reject the rest here.
        for inst in kernel.body:
            for operand in inst.operands:
                if (operand.kind == ast.SYM and inst.opcode == "bra"
                        and operand.name in kernel.labels):
                    operand.kind = ast.LABEL
                if (operand.kind == ast.LABEL
                        and operand.name not in kernel.labels):
                    raise PTXLabelError(
                        f"branch to undefined label {operand.name!r} "
                        f"in kernel {kernel.name!r}", inst.line)
                if (operand.kind == ast.SYM and inst.opcode == "bra"):
                    raise PTXLabelError(
                        f"branch to undefined label {operand.name!r} "
                        f"in kernel {kernel.name!r}", inst.line)

    def _parse_reg_decl(self, kernel: ast.Kernel) -> None:
        self._expect(WORD, ".reg")
        dtype = self._parse_dtype()
        while True:
            name = self._expect(WORD).text
            if self._accept(PUNCT, "<"):
                count = int(self._expect(INT).value)
                self._expect(PUNCT, ">")
                for i in range(count):
                    kernel.reg_decls[f"{name}{i}"] = dtype
            else:
                kernel.reg_decls[name] = dtype
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ";")

    def _parse_var_decl(self, space: str, *, allow_init: bool) -> ast.VarDecl:
        align = 0
        if self._accept(WORD, ".align"):
            align = int(self._expect(INT).value)
        dtype = self._parse_dtype()
        name = self._expect(WORD).text
        array_len = 1
        if self._accept(PUNCT, "["):
            array_len = int(self._expect(INT).value)
            self._expect(PUNCT, "]")
        init: bytes | None = None
        if self._accept(PUNCT, "="):
            init = self._parse_initializer(dtype, array_len, allow_init)
        return ast.VarDecl(name=name, space=space, dtype=dtype,
                           array_len=array_len, align=align, init=init)

    def _parse_initializer(self, dtype: DType, array_len: int,
                           allow_init: bool) -> bytes:
        token = self._peek()
        if token.text == "{":
            if not self._allow_brace_init:
                # Reproduces the GPGPU-Sim limitation the paper hit with
                # TensorFlow's PTX; enable allow_brace_init to lift it.
                raise PTXSyntaxError(
                    "curly-brace array initialisers are not supported "
                    "(pass allow_brace_init=True to enable)", token.line)
            self._next()
            values: list[int | float] = []
            while not self._accept(PUNCT, "}"):
                values.append(self._parse_scalar_literal())
                self._accept(PUNCT, ",")
        else:
            values = [self._parse_scalar_literal()]
        blob = bytearray()
        for value in values:
            blob += write_typed(value, dtype).to_bytes(dtype.bytes, "little")
        blob += bytes(max(0, array_len * dtype.bytes - len(blob)))
        return bytes(blob)

    def _parse_scalar_literal(self) -> int | float:
        negative = bool(self._accept(PUNCT, "-"))
        token = self._next()
        if token.kind not in (INT, FLOAT):
            raise PTXSyntaxError(
                f"expected literal, found {token.text!r}", token.line)
        value = token.value
        return -value if negative else value

    # ------------------------------------------------------------------
    # Instructions
    # ------------------------------------------------------------------
    def _parse_instruction(self, index: int) -> ast.Instruction:
        pred = None
        pred_negated = False
        if self._accept(PUNCT, "@"):
            if self._accept(PUNCT, "!"):
                pred_negated = True
            pred = self._expect(WORD).text
        opcode_token = self._expect(WORD)
        parts = opcode_token.text.split(".")
        opcode = parts[0]
        modifiers: list[str] = []
        dtypes: list[DType] = []
        space: str | None = None
        cmp: str | None = None
        for part in parts[1:]:
            if is_dtype_name(part):
                dtypes.append(dtype_from_name(part))
            elif part in _SPACES:
                space = part
            elif part in _CMP_OPS and opcode in _CMP_OPCODES and cmp is None:
                cmp = part
            else:
                modifiers.append(part)
        operands: list[ast.Operand] = []
        if not self._accept(PUNCT, ";"):
            while True:
                operands.append(self._parse_operand())
                if self._accept(PUNCT, ","):
                    continue
                self._expect(PUNCT, ";")
                break
        if not dtypes:
            dtypes.append(dtype_from_name("b32"))
        return ast.Instruction(
            opcode=opcode,
            modifiers=tuple(modifiers),
            dtypes=tuple(dtypes),
            operands=tuple(operands),
            pred=pred,
            pred_negated=pred_negated,
            space=space,
            cmp=cmp,
            index=index,
            line=opcode_token.line,
            text=opcode_token.text,
        )

    def _parse_operand(self) -> ast.Operand:
        token = self._peek()
        if token.kind == PUNCT and token.text == "{":
            self._next()
            elems: list[ast.Operand] = []
            while not self._accept(PUNCT, "}"):
                elems.append(self._parse_operand())
                self._accept(PUNCT, ",")
            return ast.Operand(kind=ast.VEC, elems=tuple(elems))
        if token.kind == PUNCT and token.text == "[":
            return self._parse_mem_operand()
        if token.kind == PUNCT and token.text in ("-", "+"):
            self._next()
            literal = self._next()
            sign = -1 if token.text == "-" else 1
            return self._literal_operand(literal, sign)
        if token.kind in (INT, FLOAT):
            self._next()
            return self._literal_operand(token, 1)
        word = self._expect(WORD).text
        if word.startswith("%"):
            return ast.Operand(kind=ast.REG, name=word)
        if word.startswith("$"):
            return ast.Operand(kind=ast.LABEL, name=word)
        return ast.Operand(kind=ast.SYM, name=word)

    def _parse_mem_operand(self) -> ast.Operand:
        self._expect(PUNCT, "[")
        base = self._expect(WORD).text
        offset = 0
        elems: tuple[ast.Operand, ...] = ()
        if self._accept(PUNCT, "+"):
            sign = -1 if self._accept(PUNCT, "-") else 1
            offset = sign * int(self._expect(INT).value)
        elif self._accept(PUNCT, "-"):
            offset = -int(self._expect(INT).value)
        elif self._accept(PUNCT, ","):
            # Texture operand: [texname, {coord, coord}]
            coords = self._parse_operand()
            elems = coords.elems if coords.kind == ast.VEC else (coords,)
        self._expect(PUNCT, "]")
        return ast.Operand(kind=ast.MEM, name=base, offset=offset,
                           elems=elems, is_reg_base=base.startswith("%"))

    def _literal_operand(self, token: Token, sign: int) -> ast.Operand:
        if token.kind == INT:
            return ast.Operand(kind=ast.IMM,
                               payload=(sign * int(token.value)) & MASK64)
        if token.kind == FLOAT:
            return ast.Operand(kind=ast.IMM,
                               payload=f64_to_bits(sign * float(token.value)),
                               imm_float=True)
        raise PTXSyntaxError(f"expected literal, found {token.text!r}",
                             token.line)


def parse_module(text: str, file_id: str = "", *,
                 allow_brace_init: bool = False) -> ast.PTXModule:
    """Parse one PTX translation unit into a module."""
    parser = Parser(text, file_id, allow_brace_init=allow_brace_init)
    return parser.parse()
