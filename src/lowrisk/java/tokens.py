"""Tokenizer for Java source files.

Produces a flat token stream with comments and whitespace stripped; line
numbers are retained so line-based metrics can be derived from the tokens
alone. Covers the Java 7 lexical grammar plus the Java 8 arrow and
double-colon operators (recognized so that lambda-bearing methods can be
detected and rejected upstream).

One master pattern, compiled at import, reads the source with ``finditer``.
Each match skips spaces, tabs and form feeds, then takes the first of these
named groups that fits: a line terminator (CR LF, CR or LF, as in Java), an
ASCII identifier, a ``//`` comment, a ``/* */`` comment, a number (hex form
first), a string literal, a char literal, an unterminated ``/*``, ``"`` or
``'``, an operator (longest first), any one other character, and the end of
input. The one-character group makes every character part of some match, so
none is skipped silently. Lines are counted on the newline group and on the line
terminators inside block comments, so CR-only, LF and CRLF sources give
the same lines and columns. Inside a literal a backslash escapes any
character but a line terminator, so a backslash before a line break leaves
the literal unterminated, as javac has it.

Identifiers outside ASCII take a slow path: a non-ASCII character reaches
the one-character group, and if Python accepts it in an identifier it joins
the ASCII identifier just before it, or starts one, and is read on by hand;
the pattern then resumes after the identifier. Any other character there is
an error.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from lowrisk.errors import JavaParseError


class Token(NamedTuple):
    kind: str  # 'ident' | 'keyword' | 'number' | 'string' | 'char' | 'op'
    text: str
    line: int
    col: int


KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null""".split()
)

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)

MODIFIERS = frozenset(
    """public protected private static final abstract native synchronized
    strictfp transient volatile default""".split()
)

# Maximal-munch operator table, longest first.
_OPERATORS = [
    ">>>=",
    "...",
    ">>>",
    "<<=",
    ">>=",
    "->",
    "::",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
]

ASSIGNMENT_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)

_IDENT_PART = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$0123456789")

_TOKEN_RE = re.compile(
    r"[ \t\f]*(?:"
    r"(?P<newline>\r\n?|\n)"
    r"|(?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)"
    r"|(?P<line_comment>//[^\r\n]*)"
    r"|(?P<block_comment>/\*[\s\S]*?\*/)"
    # A sign belongs to a hex literal only after the binary exponent 'p' of
    # a hex float, never after the hex digit 'e'; a decimal literal stops
    # before '..' so that 1..toString() keeps its member access.
    r"|(?P<number>0[xX](?:[pP][+-]?|[0-9a-fA-F._lL])*"
    r"|(?:[0-9]|\.[0-9])(?:[eE][+-]?|[0-9a-fA-FxXbBlLfFdD_]|\.(?!\.))*)"
    r'|(?P<string>"[^"\\\r\n]*(?:\\[^\r\n][^"\\\r\n]*)*")'
    r"|(?P<char>'[^'\\\r\n]*(?:\\[^\r\n][^'\\\r\n]*)*')"
    r"""|(?P<unterminated>/\*|["'])"""
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS))
    + "|[" + re.escape("+-*/%=<>!~&|^?:;,.()[]{}@") + "])"
    r"|(?P<other>[\s\S])"
    r"|(?P<end>\Z)"
    r")"
)

_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}


def tokenize(text: str, file_path: str | None = None) -> list[Token]:
    """Tokenize Java source, raising JavaParseError on lexical errors."""
    tokens: list[Token] = []
    append = tokens.append
    # Builds a Token without the Python-level __new__ that NamedTuple
    # generates; per token this is a tenth of the lexer's time.
    new = tuple.__new__
    line = 1
    line_start = 0
    pos = 0
    while True:
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastgroup
            if kind == "ident":
                word = m[kind]
                col = m.start(kind) - line_start + 1
                append(new(Token, ("keyword" if word in KEYWORDS else "ident", word, line, col)))
            elif kind == "op" or kind == "number" or kind == "string" or kind == "char":
                append(new(Token, (kind, m[kind], line, m.start(kind) - line_start + 1)))
            elif kind == "newline":
                line += 1
                line_start = m.end()
            elif kind == "block_comment":
                i, j = m.span(kind)
                # CR LF is one line terminator, a lone CR or LF is one too.
                newlines = text.count("\n", i, j) + text.count("\r", i, j) - text.count("\r\n", i, j)
                if newlines:
                    line += newlines
                    line_start = max(text.rfind("\n", i, j), text.rfind("\r", i, j)) + 1
            elif kind == "unterminated":
                col = m.start(kind) - line_start + 1
                raise JavaParseError(_UNTERMINATED[m[kind]], file_path, line, col)
            elif kind == "other":
                i = m.start(kind)
                start = _non_ascii_identifier_start(tokens, text, i, line)
                if start is None:
                    col = i - line_start + 1
                    raise JavaParseError(f"unexpected character {text[i]!r}", file_path, line, col)
                j = i + 1
                while j < len(text) and (text[j] in _IDENT_PART or _is_identifier_part(text[j])):
                    j += 1
                col = tokens.pop().col if start < i else i - line_start + 1
                append(Token("ident", text[start:j], line, col))
                pos = j
                break
        else:
            return tokens


def _is_identifier_part(c: str) -> bool:
    return c > "\x7f" and ("a" + c).isidentifier()


def _non_ascii_identifier_start(tokens: list[Token], text: str, i: int, line: int) -> int | None:
    """Where the identifier holding the non-ASCII character text[i] starts.

    The master pattern's identifier group stops at such a character, so an
    identifier it read just before position i (same line, no gap) is
    continued; otherwise text[i] must itself be able to start an identifier.
    None means text[i] is no identifier character.
    """
    c = text[i]
    if not _is_identifier_part(c):
        return None
    if tokens:
        prev = tokens[-1]
        start = i - len(prev.text)
        if prev.kind in ("ident", "keyword") and prev.line == line and text.startswith(prev.text, start):
            return start
    return i if c.isidentifier() else None
