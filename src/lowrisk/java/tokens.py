"""Tokenizer for Java source files.

Produces token columns with comments and whitespace stripped; line numbers
are kept so that line-based metrics can be derived from the tokens alone.
Covers the Java 7 lexical grammar plus the Java 8 arrow and double-colon
operators of lambdas and method references.

`tokenize` returns a `Tokens`: three parallel lists, `texts`, `kinds` and
`lines`, in which token k (counted from 1) sits at index k. Index 0 and the
two indexes after the last token hold sentinels (text and kind "", line 0),
so a reader may look one token before the first or two past the last
without a bounds check, and no real token has an empty text.

One master pattern, compiled at import, splits the source with one
``findall``. Each match skips spaces, tabs and form feeds, then captures
the first of these that fits: a line terminator (CR LF, CR or LF, as in
Java), a word (an identifier or keyword; a word holding non-ASCII
characters is checked against Python's identifier rules), a ``//`` comment,
a ``/* */`` comment, a number (hex form first), a string literal, a char
literal, an unterminated ``/*``, ``"`` or ``'``, an operator (the longest
that fits), any one other character, and the end of input. The one-character
alternative makes every character part of some match, so none is skipped
silently. One loop reads the captured strings, classifies each by its first
character through a dict, and counts lines on line terminators and inside
block comments, so CR-only, LF and CRLF sources give the same lines. Inside
a literal a backslash escapes any character but a line terminator, so a
backslash before a line break leaves the literal unterminated, as javac has
it. A Ctrl-Z (U+001A) that is the last character of the source is ignored
(JLS 3.5); anywhere else it is an error.

Columns are not kept: `token_columns` walks the same pattern with
``finditer`` and yields them, and it runs only when a `JavaParseError`
needs one (`Tokens.error` and the lexer's own errors).
"""

from __future__ import annotations

import re
from itertools import islice

from lowrisk.errors import JavaParseError

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

_SINGLE_OPS = "+-*/%=<>!~&|^?:;,.()[]{}@"
# Every operator, by maximal munch, in one branch per first character, so
# that a token fails few branches: each takes the longest operator that
# starts with its character, for example >>>= >>> >>= >> >= >.
_OPERATOR = r">(?:>>?)?=?|<<?=?|\+[+=]?|-[-=>]?|&[&=]?|\|[|=]?|[*/%^!=]=?|::?|\.(?:\.\.)?|[~?;,()\[\]{}@]"

ASSIGNMENT_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)

# The characters that start a word, A-Z a-z _ $ and every non-ASCII one,
# and those that continue it, the same and 0-9. The classes name the ASCII
# characters they leave out: a class that names a range past U+00FF makes
# `re` mark each code point of the range up to U+FFFF when it compiles.
_WORD_START = r"[^\x00-#%-@\[-^`{-\x7f]"
_WORD_PART = r"[^\x00-#%-/:-@\[-^`{-\x7f]"
_TOKEN_RE = re.compile(
    r"[ \t\f]*("
    r"\r\n?|\n"
    rf"|{_WORD_START}{_WORD_PART}*"
    r"|//[^\r\n]*"
    r"|/\*[\s\S]*?\*/"
    # A sign belongs to a hex literal only after the binary exponent 'p' of
    # a hex float, never after the hex digit 'e'; a decimal literal stops
    # before '..' so that 1..toString() keeps its member access.
    r"|0[xX](?:[pP][+-]?|[0-9a-fA-F._lL])*"
    r"|(?:[0-9]|\.[0-9])(?:[eE][+-]?|[0-9a-fA-FxXbBlLfFdD_]|\.(?!\.))*"
    r'|"[^"\\\r\n]*(?:\\[^\r\n][^"\\\r\n]*)*"'
    r"|'[^'\\\r\n]*(?:\\[^\r\n][^'\\\r\n]*)*'"
    r"""|/\*|["']"""
    rf"|{_OPERATOR}"
    r"|[\s\S]"
    r"|\Z"
    r")"
)

# The class of a captured string, by its first character. A string whose
# first character is missing here is a word with a non-ASCII start or a
# character no token starts with.
_CLASS = (
    dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$", "word")
    | dict.fromkeys("0123456789", "number")
    | dict.fromkeys(_SINGLE_OPS, "op")
    | {"\n": "newline", "\r": "newline", "/": "slash", ".": "dot", '"': "string", "'": "char"}
)
_WORD_KIND = dict.fromkeys(KEYWORDS, "keyword")

_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}


class Tokens:
    """The token columns of one source file (see the module docstring)."""

    __slots__ = ("texts", "kinds", "lines", "source", "file_path")

    def __init__(self, texts, kinds, lines, source, file_path=None):
        self.texts: list[str] = texts
        self.kinds: list[str] = kinds  # 'ident' | 'keyword' | 'number' | 'string' | 'char' | 'op'
        self.lines: list[int] = lines
        self.source = source
        self.file_path = file_path

    def __len__(self) -> int:
        return len(self.texts) - 3

    def error(self, message: str, i: int) -> JavaParseError:
        """A JavaParseError located at token i, or at the end of the file."""
        if 0 < i <= len(self):
            return JavaParseError(message, self.file_path, self.lines[i], _column(self.source, i - 1))
        return JavaParseError(message + " (at end of file)", self.file_path)


def token_columns(source: str):
    """Yield the column of each token of source, then of the item after them.

    Walks the master pattern with finditer; line terminators and comments
    only move the start of the current line. A consumer stops at the token
    it needs, so finding one column costs a walk up to that token.
    """
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        s = m[1]
        if s[:1] in ("\n", "\r"):
            line_start = m.end()
        elif s.startswith("//") or (s.startswith("/*") and len(s) > 2):
            last = max(s.rfind("\n"), s.rfind("\r"))
            if last >= 0:
                line_start = m.start(1) + last + 1
        else:
            yield m.start(1) - line_start + 1


def tokenize(text: str, file_path: str | None = None) -> Tokens:
    """Tokenize Java source, raising JavaParseError on lexical errors."""
    if text.endswith("\x1a"):
        text = text[:-1]
    items = _TOKEN_RE.findall(text)
    while items and not items[-1]:
        items.pop()  # the end of input, after any trailing blanks
    texts = [""]
    kinds = [""]
    lines = [0]
    add_text, add_kind, add_line = texts.append, kinds.append, lines.append
    classify = _CLASS.get
    word_kind = _WORD_KIND.get
    line = 1
    for s in items:
        c = classify(s[0])
        if c == "newline":
            line += 1
            continue
        if c == "op" or c == "number":
            add_kind(c)
        elif c == "word":
            if not s.isascii():
                _check_word(s, text, file_path, line, len(texts) - 1)
            add_kind(word_kind(s, "ident"))
        elif c == "slash":
            if s == "/" or s == "/=":
                add_kind("op")
            elif s == "/*":
                raise _lexical_error(_UNTERMINATED[s], text, file_path, line, len(texts) - 1)
            else:  # a comment
                if s[1] == "*":
                    line += s.count("\n") + s.count("\r") - s.count("\r\n")
                continue
        elif c == "dot":
            add_kind("op" if s == "." or s == "..." else "number")
        elif c == "string" or c == "char":
            if len(s) == 1:
                raise _lexical_error(_UNTERMINATED[s], text, file_path, line, len(texts) - 1)
            add_kind(c)
        else:
            _check_word(s, text, file_path, line, len(texts) - 1)
            add_kind("ident")
        add_text(s)
        add_line(line)
    texts += ("", "")
    kinds += ("", "")
    lines += (0, 0)
    return Tokens(texts, kinds, lines, text, file_path)


def _check_word(word: str, text: str, file_path: str | None, line: int, k: int) -> None:
    """Raise unless word, the text of the k-th token, is a Java identifier.

    The word pattern takes a run of ASCII identifier characters and
    non-ASCII characters, and the one-character alternative any other
    character. The first character must be able to start an identifier,
    and a later non-ASCII one must be able to continue one, by Python's
    rules; the error points at the first character that fails.
    """
    if word[0] == "$" or word[0].isidentifier():
        bad = next((j for j, c in enumerate(word) if c > "\x7f" and not ("a" + c).isidentifier()), None)
    else:
        bad = 0
    if bad is not None:
        raise _lexical_error(f"unexpected character {word[bad]!r}", text, file_path, line, k, bad)


def _lexical_error(
    message: str, text: str, file_path: str | None, line: int, k: int, offset: int = 0
) -> JavaParseError:
    """The error at offset characters into the k-th item (0-based) of token_columns(text)."""
    return JavaParseError(message, file_path, line, _column(text, k) + offset)


def _column(source: str, k: int) -> int:
    return next(islice(token_columns(source), k, None))
