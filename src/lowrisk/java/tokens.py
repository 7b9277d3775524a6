"""Tokenizer for Java source files.

Produces a flat token stream with comments and whitespace stripped; line
numbers are retained so line-based metrics can be derived from the tokens
alone. Covers the Java 7 lexical grammar plus the Java 8 arrow and
double-colon operators (recognized so that lambda-bearing methods can be
detected and rejected upstream).
"""

from __future__ import annotations

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
_SINGLE_OPS = set("+-*/%=<>!~&|^?:;,.()[]{}@")

ASSIGNMENT_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_PART = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")
_NUMBER_PART = _DIGITS | set("abcdefABCDEFxXbB._lLfFdD_")
_HEX_PART = _DIGITS | set("abcdefABCDEF._pPlL")


def tokenize(text: str, file_path: str | None = None) -> list[Token]:
    """Tokenize Java source, raising JavaParseError on lexical errors."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    line = 1
    line_start = 0

    def err(msg: str, at: int) -> JavaParseError:
        return JavaParseError(msg, file_path=file_path, line=line, col=at - line_start + 1)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r\f":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    raise err("unterminated block comment", i)
                line += text.count("\n", i, j)
                if "\n" in text[i:j]:
                    line_start = text.rfind("\n", i, j) + 1
                i = j + 2
                continue
        col = i - line_start + 1
        if c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_PART:
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            i = j
            continue
        if c == "0" and text[i + 1 : i + 2] in ("x", "X"):
            # Hex literal: a sign belongs to it only after the binary exponent
            # 'p' of a hex float, never after the hex digit 'e'.
            j = i + 2
            while j < n and (text[j] in _HEX_PART or (text[j] in "+-" and text[j - 1] in "pP")):
                j += 1
            tokens.append(Token("number", text[i:j], line, col))
            i = j
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and (text[j] in _NUMBER_PART or (text[j] in "+-" and text[j - 1] in "eEpP")):
                # Stop a trailing '.' that starts a member access like 1..toString()
                if text[j] == "." and j + 1 < n and text[j + 1] == ".":
                    break
                j += 1
            tokens.append(Token("number", text[i:j], line, col))
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    raise err("unterminated string literal", i)
                j += 1
            if j >= n:
                raise err("unterminated string literal", i)
            tokens.append(Token("string", text[i : j + 1], line, col))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                if text[j] == "\n":
                    raise err("unterminated character literal", i)
                j += 1
            if j >= n:
                raise err("unterminated character literal", i)
            tokens.append(Token("char", text[i : j + 1], line, col))
            i = j + 1
            continue
        matched = None
        for op in _OPERATORS:
            if text.startswith(op, i):
                matched = op
                break
        if matched is None and c in _SINGLE_OPS:
            matched = c
        if matched is None and c > "\x7f":
            start = _non_ascii_identifier_start(tokens, text, i, line)
            if start is not None:
                j = i + 1
                while j < n and (text[j] in _IDENT_PART or _is_identifier_part(text[j])):
                    j += 1
                if start < i:
                    col = tokens.pop().col
                tokens.append(Token("ident", text[start:j], line, col))
                i = j
                continue
        if matched is None:
            raise err(f"unexpected character {c!r}", i)
        tokens.append(Token("op", matched, line, col))
        i += len(matched)
    return tokens


def _is_identifier_part(c: str) -> bool:
    return c > "\x7f" and ("a" + c).isidentifier()


def _non_ascii_identifier_start(tokens: list[Token], text: str, i: int, line: int) -> int | None:
    """Where the identifier holding the non-ASCII character text[i] starts.

    The ASCII loop stops at such a character, so an identifier it began
    just before position i (same line, no gap) is continued; otherwise
    text[i] must itself be able to start an identifier. None means text[i]
    is no identifier character.
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
