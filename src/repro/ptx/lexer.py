"""Tokenizer for the PTX subset the simulator executes.

PTX identifiers never contain ``.``, so a *dotted word* token — e.g.
``ld.global.v2.f32`` or ``%tid.x`` — can be lexed as a single unit and
split on dots later by the parser.  Comments (``//`` and ``/* */``) are
stripped while preserving line numbers for diagnostics.
"""

from __future__ import annotations

import re
import struct
from typing import NamedTuple

from repro.errors import PTXSyntaxError

WORD = "word"          # identifiers, opcodes, directives, registers, labels
INT = "int"            # integer literal (value already decoded)
FLOAT = "float"        # float literal (value already decoded, as Python float)
PUNCT = "punct"        # one of { } ( ) [ ] , ; : + - = !  @
EOF = "eof"


class Token(NamedTuple):
    kind: str
    text: str
    value: int | float = 0
    line: int = 0


#: One token, after any run of blanks: a match's named group is its
#: kind.  ``word`` and ``punct`` share no first character with the
#: literal and comment kinds, so testing them first changes no match;
#: ``ws`` is the blanks before the end of the text.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
    (?P<nl>\n)
  | (?P<word>[%$]?[A-Za-z_][A-Za-z0-9_$]*(?:\.[A-Za-z0-9_]+)*|\.[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}()\[\],;:+\-=!@<>|])
  | (?P<linecomment>//[^\n]*)
  | (?P<blockcomment>/\*.*?\*/)
  | (?P<hexf64>0[dD][0-9a-fA-F]{16})
  | (?P<hexf32>0[fF][0-9a-fA-F]{8})
  | (?P<hexint>0[xX][0-9a-fA-F]+U?)
  | (?P<float>\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\.\d+(?:[eE][-+]?\d+)?)
  | (?P<int>\d+U?)
  | (?P<ws>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

#: The ``0f``/``0d`` literals: big-endian IEEE bit patterns in hex.
_HEX_FLOAT = {"hexf32": struct.Struct(">f"), "hexf64": struct.Struct(">d")}

#: ``Token(...)`` without the Python frame of the NamedTuple constructor.
_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Convert PTX source into a token list terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    match = None
    # Kinds in order of frequency in real PTX; a line comment or the
    # trailing blanks match no branch.
    for match in iter(_TOKEN_RE.scanner(text).match, None):
        kind = match.lastgroup
        if kind == "word":
            append(_token(Token, (WORD, match[kind], 0, line)))
        elif kind == "punct":
            append(_token(Token, (PUNCT, match[kind], 0, line)))
        elif kind == "nl":
            line += 1
        elif kind == "int":
            raw = match[kind]
            append(_token(Token, (INT, raw, int(raw.rstrip("U")), line)))
        elif kind in _HEX_FLOAT:
            raw = match[kind]
            value = _HEX_FLOAT[kind].unpack(bytes.fromhex(raw[2:]))[0]
            append(Token(FLOAT, raw, value, line))
        elif kind == "float":
            raw = match[kind]
            append(Token(FLOAT, raw, float(raw), line))
        elif kind == "hexint":
            raw = match[kind]
            append(Token(INT, raw, int(raw.rstrip("U"), 16), line))
        elif kind == "blockcomment":
            line += match[kind].count("\n")
    # The scanner stops before the first character no token starts with.
    rest = text[0 if match is None else match.end():].lstrip(" \t\r")
    if rest:
        snippet = rest[:20].splitlines()[0]
        raise PTXSyntaxError(f"unexpected character at {snippet!r}", line)
    tokens.append(Token(EOF, "", 0, line))
    return tokens
