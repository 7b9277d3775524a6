"""Structural parsing of Java compilation units.

This module does not build a full AST. It walks the token columns of one
file (see `lowrisk.java.tokens`), tracks type declarations (including
nested, local, anonymous, and enum-constant bodies), and records every
method and constructor declaration. It reads no code itself: it hands every
code region (method and constructor bodies, initializer blocks, field
initializers, enum-constant arguments and annotation `default` values) to
the statement and expression reader of `lowrisk.java.metrics`, which reads
the region in place and calls back into this parser at each anonymous class
body and local class. So a file is read once, in textual order, and a
method's metrics are read with its body. Its getter and setter flags wait
until the enclosing type closes, so that they see every field of the type.

Delimiters are matched once per file: `match_delimiters` pairs each '(',
'[' and '{' with its closer in one pass, one stack per kind, and the parser
and the reader take the closer of an opener from that partner list instead
of scanning forward for it. The matcher never raises; a reader that finds
no partner raises the error for the opener. Readers index the columns
directly and rely on the sentinels at both ends instead of bounds checks.

The one Java type grammar lives here: `skip_type_ref` and
`skip_type_arguments` read a type on any token columns, or return None where
none starts. So does the one annotation grammar: `skip_annotations` reads
'@', a possibly qualified name and an optional argument list, and no other
code reads an annotation's name or arguments. An annotation is neither code
nor part of a signature. The parser and the reader both call these readers.
"""

from __future__ import annotations

from itertools import compress, count
from typing import TYPE_CHECKING, NamedTuple

from lowrisk.errors import JavaParseError
from lowrisk.java.tokens import MODIFIERS, PRIMITIVE_TYPES, Tokens, tokenize

if TYPE_CHECKING:
    from lowrisk.java.metrics import CategoryFlags, RawMetrics

_TYPE_KEYWORDS = {"class", "interface", "enum"}
_PRIMITIVE_OR_VOID = PRIMITIVE_TYPES | {"void"}
_CLOSERS = {")": "(", "]": "[", "}": "{"}
_DELIMITERS = frozenset("()[]{}")
# Texts besides identifiers, primitive types, annotations, '<', '>' and '[]' pairs
# that a type-argument list may hold. None of them ends a type.
_TYPE_ARGUMENT_LINKS = frozenset((".", ",", "?", "extends", "super", "&"))


def skip_annotations(texts: list[str], kinds: list[str], i: int) -> int:
    """The index past the annotations from i, each '@', a possibly qualified
    name and maybe an argument list, balanced by counting parentheses; i when
    none starts there ('@interface' is none). At an argument list that does
    not close, the index of its '('."""
    while texts[i] == "@" and kinds[i + 1] == "ident":
        i += 2
        while texts[i] == "." and kinds[i + 1] == "ident":
            i += 2
        if texts[i] == "(":
            j, depth = i, 0
            while True:
                t = texts[j]
                if not t:
                    return i
                depth += (t == "(") - (t == ")")
                j += 1
                if not depth:
                    break
            i = j
    return i


def skip_type_arguments(texts: list[str], kinds: list[str], i: int) -> int | None:
    """The index past the type-argument list whose '<' is at i (its '>' may
    end a '>>' or '>>>'); None at a token that cannot be in one. A '[' must
    open a '[]' pair right after a type."""
    depth = 0
    typed = False  # whether the last token read ends a type
    while True:
        t = texts[i]
        if t == "@":
            i = skip_annotations(texts, kinds, i)
            t = texts[i]
        if t == "<":
            depth += 1
        elif t in (">", ">>", ">>>"):
            depth -= len(t)
            if depth <= 0:
                return i + 1
        elif t == "[" and typed and texts[i + 1] == "]":
            i += 1
        elif kinds[i] != "ident" and t not in _TYPE_ARGUMENT_LINKS and t not in PRIMITIVE_TYPES:
            return None
        typed = t != "<" and t not in _TYPE_ARGUMENT_LINKS
        i += 1


def skip_type_ref(texts: list[str], kinds: list[str], i: int) -> int | None:
    """The index past the type reference at i: annotations, then a primitive
    type or void, or a qualified name with type arguments, then '[]' pairs.
    Annotations may also follow a '.' of the name or precede a '[]', as in
    java.util.@NonNull List<String> and String @NonNull []. None when no type
    starts at i."""
    i = skip_annotations(texts, kinds, i)
    if texts[i] in _PRIMITIVE_OR_VOID:
        j = i + 1
    elif kinds[i] == "ident":
        j = i + 1
        while True:  # names, each maybe with type arguments, joined by '.' as in V<T>.Inner
            if texts[j] == "<":
                j = skip_type_arguments(texts, kinds, j)
                if j is None:
                    return None
            if texts[j] != ".":
                break
            k = skip_annotations(texts, kinds, j + 1)
            if kinds[k] != "ident":
                break
            j = k + 1
    else:
        return None
    while True:
        k = skip_annotations(texts, kinds, j)
        if texts[k] != "[" or texts[k + 1] != "]":
            return j
        j = k + 2


def match_delimiters(texts: list[str]) -> list[int]:
    """The partner offsets of the delimiters in texts.

    For an opener at i, partner[i] is j - i when the closer at j matches
    it, and 0 when none does. Each kind is matched on its own stack, so a
    closer of one kind never ends a run of another, as when each opener is
    matched by counting its own kind forward. For a closer at i,
    partner[i] points back at its opener, or at index 0 (the sentinel) when
    it has none or when it closes a '(' or '[' before an inner '(' or '['
    is closed, as in "( [ ) ]".
    """
    partner = [0] * len(texts)
    stacks = {"(": [], "[": [], "{": []}
    nested: list[int] = []  # the open '(' and '[', innermost last
    for i in compress(count(), map(_DELIMITERS.__contains__, texts)):
        t = texts[i]
        stack = stacks.get(t)
        if stack is not None:
            stack.append(i)
            if t != "{":
                nested.append(i)
            continue
        stack = stacks[_CLOSERS[t]]
        if not stack:
            partner[i] = -i
            continue
        j = stack.pop()
        partner[j] = i - j
        if t == "}":
            partner[i] = j - i
        elif nested[-1] == j:
            nested.pop()
            partner[i] = j - i
        else:
            nested.remove(j)
            partner[i] = -i
    return partner


class MethodDecl(NamedTuple):
    """One method or constructor declaration with a body, and what its body
    reads as; a method with a lambda in its own code has no metrics."""

    type_chain: tuple[str, ...]
    name: str
    param_types: tuple[str, ...]
    param_names: tuple[str, ...]
    is_constructor: bool
    has_lambda: bool
    field_names: frozenset[str]  # fields declared directly in the enclosing type
    metrics: RawMetrics | None
    categories: CategoryFlags | None


class CompilationUnit:
    """Parsed view of one Java source file."""

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.texts = tokens.texts
        self.kinds = tokens.kinds
        self.partner = match_delimiters(tokens.texts)
        self.methods: list[MethodDecl] = []
        self._anon_counter = 0

    @classmethod
    def parse(cls, source_text: str, file_path: str | None = None) -> "CompilationUnit":
        unit = cls(tokenize(source_text, file_path))
        unit._parse_top_level()
        return unit

    # -- helpers ---------------------------------------------------------

    def _err(self, msg: str, i: int) -> JavaParseError:
        return self.tokens.error(msg, i)

    def _skip_annotations_and_modifiers(self, i: int) -> int:
        texts, kinds = self.texts, self.kinds
        i = skip_annotations(texts, kinds, i)
        while texts[i] in MODIFIERS:
            i = skip_annotations(texts, kinds, i + 1)
        return i

    def _skip_type_arguments(self, i: int) -> int:
        """skip_type_arguments at the '<' at i, which must open a type-argument list."""
        j = skip_type_arguments(self.texts, self.kinds, i)
        if j is None:
            raise self._err("malformed type-argument list", i)
        return j

    def _type_text(self, i: int, end: int) -> str:
        """The type tokens from i to end joined, without annotations."""
        kept = self.texts[i:end]
        if "@" in kept:
            kept = []
            while i < end:
                i = skip_annotations(self.texts, self.kinds, i)
                kept.append(self.texts[i])
                i += 1
        return "".join(kept)

    def _skip_type_list(self, i: int, what: str) -> int:
        """The index past the ','-separated type references from i."""
        while True:
            j = skip_type_ref(self.texts, self.kinds, i)
            if j is None:
                raise self._err(f"malformed {what}", i)
            if self.texts[j] != ",":
                return j
            i = j + 1

    # -- nested types met in code ------------------------------------------

    def parse_anonymous_body(self, open_idx: int, chain: tuple[str, ...]) -> int:
        """Parse the anonymous class body whose '{' is at open_idx, named by
        its place in the file; the index past its '}'."""
        self._anon_counter += 1
        return self._parse_type_body(open_idx, chain + (f"$anon{self._anon_counter}",))

    def parse_local_class(self, i: int, chain: tuple[str, ...]) -> int | None:
        """Parse the local class declared at i, from its first modifier or
        annotation; the index past its '}', or None when no class is declared
        at i."""
        j = self._skip_annotations_and_modifiers(i)
        return self._parse_type_decl(j, chain) if self.texts[j] == "class" else None

    # -- declarations ----------------------------------------------------

    def _parse_top_level(self) -> None:
        """A package declaration, then imports, then type declarations, with
        stray ';' between them."""
        texts = self.texts
        i = 1
        j = skip_annotations(texts, self.kinds, i)  # as in package-info.java
        if texts[j] == "package":
            i = self._parse_package_or_import(j)
        while texts[i] in (";", "import"):
            i = i + 1 if texts[i] == ";" else self._parse_package_or_import(i)
        while texts[i]:
            if texts[i] == ";":
                i += 1
                continue
            j = self._skip_annotations_and_modifiers(i)
            tj = texts[j]
            if not tj:
                break
            if tj in _TYPE_KEYWORDS or (tj == "@" and texts[j + 1] == "interface"):
                i = self._parse_type_decl(j, ())
                continue
            raise self._err(f"expected type declaration, found {tj!r}", j)

    def _parse_package_or_import(self, i: int) -> int:
        """The index past the declaration whose 'package' or 'import' is at i:
        'package' a qualified name ';', or 'import' ['static'] a qualified name
        of at least two identifiers, maybe ending in '.*', ';'. javac too
        rejects an import of one identifier."""
        texts, kinds = self.texts, self.kinds
        is_import = texts[i] == "import"
        what = f"{texts[i]} declaration"
        i += 1 + (is_import and texts[i + 1] == "static")
        if kinds[i] != "ident":
            raise self._err(f"malformed {what}", i)
        j = i + 1
        while texts[j] == "." and kinds[j + 1] == "ident":
            j += 2
        if is_import:
            if texts[j] == "." and texts[j + 1] == "*":
                j += 2
            elif j == i + 1:
                raise self._err(f"malformed {what}", j)
        if texts[j] != ";":
            raise self._err(f"missing ';' after {what}", j)
        return j + 1

    def _parse_type_decl(self, i: int, chain: tuple[str, ...]) -> int:
        """Parse a class/interface/enum/@interface declaration, return end index."""
        texts = self.texts
        if texts[i] == "@":
            i += 1  # '@interface'
        if self.kinds[i + 1] != "ident":
            raise self._err("missing type name", i)
        j = i + 2
        if texts[j] == "<":
            j = self._skip_type_arguments(j)
        while texts[j] in ("extends", "implements"):
            j = self._skip_type_list(j + 1, "supertype list")
        if texts[j] != "{":
            raise self._err(f"expected type body, found {texts[j] or None!r}", j)
        return self._parse_type_body(j, chain + (texts[i + 1],), is_enum=(texts[i] == "enum"))

    def _parse_type_body(self, open_idx: int, chain: tuple[str, ...], is_enum: bool = False) -> int:
        """Parse a type body starting at '{'; returns index one past '}'."""
        texts = self.texts
        fields: set[str] = set()
        members: list[tuple] = []  # deferred so field_names is complete first
        i = open_idx + 1
        if is_enum:
            i = self._parse_enum_constants(i, chain)
        while texts[i] != "}":
            if texts[i] == ";":
                i += 1
                continue
            start = i
            j = self._skip_annotations_and_modifiers(i)
            tj = texts[j]
            if not tj:
                raise self._err("unterminated type body", open_idx)
            if tj in _TYPE_KEYWORDS or (tj == "@" and texts[j + 1] == "interface"):
                i = self._parse_type_decl(j, chain)
            elif tj == "{":  # static or instance initializer block
                i = metrics.Reader(self, chain).block(j)
            else:
                i = self._parse_member(start, j, chain, fields, members)
        frozen = frozenset(fields)
        for decl_start, name, ptypes, pnames, is_ctor, body in members:
            results = body.results(decl_start, name, pnames, is_ctor, frozen)
            self.methods.append(MethodDecl(chain, name, ptypes, pnames, is_ctor, body.has_lambda, frozen, *results))
        return i + 1

    def _parse_enum_constants(self, i: int, chain: tuple[str, ...]) -> int:
        """Parse enum constants up to the ';' separator (or the body '}')."""
        texts = self.texts
        while texts[i]:
            t = texts[i]
            if t in (";", "}"):
                return i if t == "}" else i + 1
            if t == ",":
                i += 1
                continue
            i = skip_annotations(texts, self.kinds, i)  # a constant takes no modifiers
            if self.kinds[i] != "ident":
                raise self._err("malformed enum constant", i)
            name = texts[i]
            i += 1
            if texts[i] == "(":
                i = metrics.Reader(self, chain).arguments(i)
            if texts[i] == "{":
                i = self._parse_type_body(i, chain + (name,))
        raise self._err("unterminated enum body", i)

    def _parse_member(
        self,
        start: int,
        i: int,
        chain: tuple[str, ...],
        fields: set[str],
        members: list,
    ) -> int:
        """Parse a method, constructor, or field member; return the end index."""
        texts, kinds = self.texts, self.kinds
        if texts[i] == "<":  # method type parameters
            i = self._skip_type_arguments(i)
        t = texts[i]
        if not t:
            raise self._err("unterminated member", start)
        # Constructor: simple name of the enclosing type followed by '('.
        if t == chain[-1] and kinds[i] == "ident" and texts[i + 1] == "(":
            return self._parse_method(start, i, i + 1, chain, members, is_ctor=True)
        type_end = skip_type_ref(texts, kinds, i)
        if type_end is None:
            j = skip_annotations(texts, kinds, i)
            if kinds[j] == "ident":  # a named type ends early only at a malformed type-argument list
                while texts[j] and (texts[j] != "<" or skip_type_arguments(texts, kinds, j) is not None):
                    j += 1
                raise self._err("malformed type-argument list", j)
            raise self._err(f"expected member declaration, found {t!r}", i)
        if kinds[type_end] != "ident":
            raise self._err("expected member name", type_end)
        if texts[type_end + 1] == "(":
            return self._parse_method(start, type_end, type_end + 1, chain, members, is_ctor=False)
        # Field declaration: collect declarator names, scan initializers.
        j = type_end
        while True:
            if kinds[j] != "ident":
                raise self._err("malformed field declaration", j)
            fields.add(texts[j])
            j += 1
            while texts[j] == "[" and texts[j + 1] == "]":
                j += 2
            if texts[j] == "=":
                j = metrics.Reader(self, chain).initializer(j + 1)
            if texts[j] == ",":
                j += 1
                continue
            if texts[j] == ";":
                return j + 1
            if texts[j] in MODIFIERS:  # the next member starts
                raise self._err(f"missing ';' before {texts[j]!r}", j)
            raise self._err("malformed field declaration", j)

    def _parse_method(
        self,
        decl_start: int,
        name_idx: int,
        paren_idx: int,
        chain: tuple[str, ...],
        members: list,
        is_ctor: bool,
    ) -> int:
        texts = self.texts
        ptypes, pnames, j = self.parse_params(paren_idx)
        while texts[j] == "[" and texts[j + 1] == "]":
            j += 2  # archaic C-style array return brackets
        if texts[j] == "throws":
            j = self._skip_type_list(j + 1, "throws clause")
        if texts[j] == ";":
            return j + 1  # abstract, native, or interface method: no body
        if texts[j] == "default":  # annotation member default value
            j = metrics.Reader(self, chain).element_value(j + 1)
            if texts[j] == ";":
                return j + 1
            raise self._err("malformed annotation member", j)
        if texts[j] != "{":
            raise self._err(f"expected method body, found {texts[j] or None!r}", j)
        body = metrics.scan_method(self, chain, j, pnames)
        members.append((decl_start, texts[name_idx], ptypes, pnames, is_ctor, body))
        return body.end + 1

    def parse_params(self, paren_idx: int) -> tuple[tuple[str, ...], tuple[str, ...], int]:
        """Parse a parameter list at '('; returns (types, names, index past ')')."""
        texts, kinds = self.texts, self.kinds
        types: list[str] = []
        names: list[str] = []
        i = paren_idx + 1
        if texts[i] == ")":
            return (), (), i + 1
        while True:
            i = self._skip_annotations_and_modifiers(i)
            type_start = i
            type_end = skip_type_ref(texts, kinds, i)
            if type_end is None:
                raise self._err("malformed parameter type", i)
            i = skip_annotations(texts, kinds, type_end)  # as in String @NonNull ... xs
            varargs = texts[i] == "..."
            i = i + 1 if varargs else type_end
            if kinds[i] != "ident":
                raise self._err("malformed parameter name", i)
            names.append(texts[i])
            i += 1
            suffix = ""
            while texts[i] == "[" and texts[i + 1] == "]":
                suffix += "[]"
                i += 2
            types.append(self._type_text(type_start, type_end) + suffix + ("..." if varargs else ""))
            if texts[i] == ",":
                i += 1
                continue
            if texts[i] == ")":
                return tuple(types), tuple(names), i + 1
            raise self._err("malformed parameter list", i)


def parse_compilation_unit(source_text: str, file_path: str | None = None) -> CompilationUnit:
    return CompilationUnit.parse(source_text, file_path)


# The reader reads with this module's grammar and calls back into the parser,
# so it is imported once the parser is defined.
from lowrisk.java import metrics  # noqa: E402
