"""Structural parsing of Java compilation units.

This module does not build a full AST. It walks the token stream, tracks
type declarations (including nested, local, anonymous, and enum-constant
bodies), and records every method and constructor declaration together
with its body token span. Spans of nested type bodies that occur inside a
method body are reported as "holes" so that metric computation can skip
code that belongs to separately enumerated methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lowrisk.errors import JavaParseError
from lowrisk.java.tokens import MODIFIERS, PRIMITIVE_TYPES, Token, tokenize

_TYPE_KEYWORDS = {"class", "interface", "enum"}
_PRIMITIVE_OR_VOID = PRIMITIVE_TYPES | {"void"}


@dataclass(frozen=True)
class MethodDecl:
    """One method or constructor declaration with a body."""

    type_chain: tuple[str, ...]
    name: str
    param_types: tuple[str, ...]
    param_names: tuple[str, ...]
    is_constructor: bool
    decl_start: int  # index of the first declaration token (annotations included)
    body_open: int  # index of the body '{'
    body_close: int  # index of the matching '}'
    holes: tuple[tuple[int, int], ...]  # inclusive nested-type spans inside the body
    has_lambda: bool
    field_names: frozenset[str]  # fields declared directly in the enclosing type


@dataclass
class _Region:
    """Result of scanning a balanced code region."""

    end: int  # index one past the closing delimiter
    holes: list[tuple[int, int]] = field(default_factory=list)
    has_lambda: bool = False


class CompilationUnit:
    """Parsed view of one Java source file."""

    def __init__(self, tokens: list[Token], file_path: str | None = None):
        self.tokens = tokens
        self.file_path = file_path
        self.methods: list[MethodDecl] = []
        self._anon_counter = 0

    @classmethod
    def parse(cls, source_text: str, file_path: str | None = None) -> "CompilationUnit":
        unit = cls(tokenize(source_text, file_path), file_path)
        unit._parse_top_level()
        return unit

    # -- helpers ---------------------------------------------------------

    def _err(self, msg: str, i: int) -> JavaParseError:
        if i < len(self.tokens):
            t = self.tokens[i]
            return JavaParseError(msg, self.file_path, t.line, t.col)
        return JavaParseError(msg + " (at end of file)", self.file_path)

    def _tok(self, i: int) -> Token | None:
        return self.tokens[i] if 0 <= i < len(self.tokens) else None

    def _text(self, i: int) -> str | None:
        t = self._tok(i)
        return t.text if t else None

    def _skip_annotations_and_modifiers(self, i: int) -> int:
        while True:
            t = self._tok(i)
            if t is None:
                return i
            if t.text == "@" and self._tok(i + 1) and self._tok(i + 1).text != "interface":
                i += 2  # '@' plus the annotation name
                while self._text(i) == ".":
                    i += 2
                if self._text(i) == "(":
                    i = self._match_delim(i)
                continue
            if t.kind == "keyword" and t.text in MODIFIERS:
                i += 1
                continue
            return i

    def _match_delim(self, i: int) -> int:
        """Return the index one past the delimiter matching tokens[i]."""
        opener = self._text(i)
        closer = {"(": ")", "[": "]", "{": "}"}[opener]
        depth = 0
        j = i
        while j < len(self.tokens):
            t = self.tokens[j].text
            if t == opener:
                depth += 1
            elif t == closer:
                depth -= 1
                if depth == 0:
                    return j + 1
            j += 1
        raise self._err(f"unbalanced {opener!r}", i)

    def _skip_generic(self, i: int) -> int:
        """Skip a type-argument list starting at '<'; handles '>>' and '>>>'."""
        depth = 0
        j = i
        while j < len(self.tokens):
            t = self.tokens[j].text
            if t == "<":
                depth += 1
            elif t in (">", ">>", ">>>"):
                depth -= len(t)
                if depth <= 0:
                    return j + 1
            elif t in (";", "{", ")"):
                raise self._err("unbalanced type-argument list", i)
            j += 1
        raise self._err("unbalanced type-argument list", i)

    def _skip_type_ref(self, i: int) -> int | None:
        """Skip a type reference (primitive or qualified, generics, arrays)."""
        t = self._tok(i)
        if t is None:
            return None
        if t.kind == "keyword" and t.text in _PRIMITIVE_OR_VOID:
            j = i + 1
        elif t.kind == "ident":
            j = i + 1
            while self._text(j) == "." and (tn := self._tok(j + 1)) and tn.kind == "ident":
                j += 2
        else:
            return None
        if self._text(j) == "<":
            try:
                j = self._skip_generic(j)
            except JavaParseError:
                return None
        while self._text(j) == "[" and self._text(j + 1) == "]":
            j += 2
        return j

    def _next_anon_name(self) -> str:
        self._anon_counter += 1
        return f"$anon{self._anon_counter}"

    # -- declarations ----------------------------------------------------

    def _parse_top_level(self) -> None:
        i = 0
        n = len(self.tokens)
        while i < n:
            t = self.tokens[i]
            if t.text in ("package", "import"):
                while i < n and self.tokens[i].text != ";":
                    i += 1
                i += 1
                continue
            if t.text == ";":
                i += 1
                continue
            j = self._skip_annotations_and_modifiers(i)
            tj = self._tok(j)
            if tj is None:
                break
            if tj.text in _TYPE_KEYWORDS or (
                tj.text == "@" and self._text(j + 1) == "interface"
            ):
                i = self._parse_type_decl(j, ())
                continue
            raise self._err(f"expected type declaration, found {tj.text!r}", j)

    def _parse_type_decl(self, i: int, chain: tuple[str, ...]) -> int:
        """Parse a class/interface/enum/@interface declaration, return end index."""
        if self._text(i) == "@":
            i += 1  # '@interface'
        kw = self._text(i)
        name_tok = self._tok(i + 1)
        if name_tok is None or name_tok.kind != "ident":
            raise self._err("missing type name", i)
        j = i + 2
        depth = 0
        while j < len(self.tokens):
            t = self.tokens[j].text
            if t == "<":
                depth += 1
            elif t in (">", ">>", ">>>"):
                depth -= len(t)
            elif t == "{" and depth <= 0:
                break
            j += 1
        if j >= len(self.tokens):
            raise self._err("type declaration without body", i)
        return self._parse_type_body(j, chain + (name_tok.text,), is_enum=(kw == "enum"))

    def _parse_type_body(self, open_idx: int, chain: tuple[str, ...], is_enum: bool = False) -> int:
        """Parse a type body starting at '{'; returns index one past '}'."""
        fields: set[str] = set()
        members: list[tuple] = []  # deferred so field_names is complete first
        i = open_idx + 1
        if is_enum:
            i = self._parse_enum_constants(i, chain)
        n = len(self.tokens)
        while i < n and self.tokens[i].text != "}":
            if self.tokens[i].text == ";":
                i += 1
                continue
            start = i
            j = self._skip_annotations_and_modifiers(i)
            tj = self._tok(j)
            if tj is None:
                raise self._err("unterminated type body", open_idx)
            if tj.text in _TYPE_KEYWORDS or (tj.text == "@" and self._text(j + 1) == "interface"):
                i = self._parse_type_decl(j, chain)
                continue
            if tj.text == "{":  # static or instance initializer block
                region = self._scan_code_region(j, chain)
                i = region.end
                continue
            i = self._parse_member(start, j, chain, fields, members)
        if i >= n:
            raise self._err("unterminated type body", open_idx)
        frozen = frozenset(fields)
        for decl_start, name, ptypes, pnames, is_ctor, body_open, region in members:
            self.methods.append(
                MethodDecl(
                    type_chain=chain,
                    name=name,
                    param_types=ptypes,
                    param_names=pnames,
                    is_constructor=is_ctor,
                    decl_start=decl_start,
                    body_open=body_open,
                    body_close=region.end - 1,
                    holes=tuple(region.holes),
                    has_lambda=region.has_lambda,
                    field_names=frozen,
                )
            )
        return i + 1

    def _parse_enum_constants(self, i: int, chain: tuple[str, ...]) -> int:
        """Parse enum constants up to the ';' separator (or the body '}')."""
        n = len(self.tokens)
        while i < n:
            t = self.tokens[i]
            if t.text in (";", "}"):
                return i if t.text == "}" else i + 1
            if t.text == ",":
                i += 1
                continue
            i = self._skip_annotations_and_modifiers(i)
            const_tok = self._tok(i)
            if const_tok is None or const_tok.kind != "ident":
                raise self._err("malformed enum constant", i)
            i += 1
            if self._text(i) == "(":
                region = self._scan_code_region(i, chain)
                i = region.end
            if self._text(i) == "{":
                i = self._parse_type_body(i, chain + (const_tok.text,))
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
        if self._text(i) == "<":  # method type parameters
            i = self._skip_generic(i)
        t = self._tok(i)
        if t is None:
            raise self._err("unterminated member", start)
        # Constructor: simple name of the enclosing type followed by '('.
        if t.kind == "ident" and t.text == chain[-1] and self._text(i + 1) == "(":
            return self._parse_method(start, i, i + 1, chain, members, is_ctor=True)
        type_end = self._skip_type_ref(i)
        if type_end is None:
            raise self._err(f"expected member declaration, found {t.text!r}", i)
        name_tok = self._tok(type_end)
        if name_tok is None or name_tok.kind != "ident":
            raise self._err("expected member name", type_end)
        after = self._text(type_end + 1)
        if after == "(":
            return self._parse_method(start, type_end, type_end + 1, chain, members, is_ctor=False)
        # Field declaration: collect declarator names, scan initializers.
        j = type_end
        while True:
            name_tok = self._tok(j)
            if name_tok is None or name_tok.kind != "ident":
                raise self._err("malformed field declaration", j)
            fields.add(name_tok.text)
            j += 1
            while self._text(j) == "[" and self._text(j + 1) == "]":
                j += 2
            if self._text(j) == "=":
                j = self._scan_initializer(j + 1, chain)
            if self._text(j) == ",":
                j += 1
                continue
            if self._text(j) == ";":
                return j + 1
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
        name = self._text(name_idx)
        ptypes, pnames, after_params = self._parse_params(paren_idx)
        j = after_params
        while self._text(j) == "[" and self._text(j + 1) == "]":
            j += 2  # archaic C-style array return brackets
        if self._text(j) == "throws":
            j += 1
            while True:
                end = self._skip_type_ref(j)
                if end is None:
                    raise self._err("malformed throws clause", j)
                j = end
                if self._text(j) == ",":
                    j += 1
                    continue
                break
        if self._text(j) == ";":
            return j + 1  # abstract, native, or interface method: no body
        if self._text(j) == "default":  # annotation member default value
            j += 1
            j = self._scan_initializer(j, chain)
            if self._text(j) == ";":
                return j + 1
            raise self._err("malformed annotation member", j)
        if self._text(j) != "{":
            raise self._err(f"expected method body, found {self._text(j)!r}", j)
        region = self._scan_code_region(j, chain)
        members.append((decl_start, name, ptypes, pnames, is_ctor, j, region))
        return region.end

    def _parse_params(self, paren_idx: int) -> tuple[tuple[str, ...], tuple[str, ...], int]:
        """Parse a parameter list at '('; returns (types, names, index past ')')."""
        types: list[str] = []
        names: list[str] = []
        i = paren_idx + 1
        if self._text(i) == ")":
            return (), (), i + 1
        while True:
            i = self._skip_annotations_and_modifiers(i)
            type_start = i
            type_end = self._skip_type_ref(i)
            if type_end is None:
                raise self._err("malformed parameter type", i)
            i = type_end
            varargs = False
            if self._text(i) == "...":
                varargs = True
                i += 1
            name_tok = self._tok(i)
            if name_tok is None or name_tok.kind != "ident":
                raise self._err("malformed parameter name", i)
            i += 1
            suffix = ""
            while self._text(i) == "[" and self._text(i + 1) == "]":
                suffix += "[]"
                i += 2
            types.append(self._format_type(type_start, type_end) + suffix + ("..." if varargs else ""))
            names.append(name_tok.text)
            if self._text(i) == ",":
                i += 1
                continue
            if self._text(i) == ")":
                return tuple(types), tuple(names), i + 1
            raise self._err("malformed parameter list", i)

    def _format_type(self, start: int, end: int) -> str:
        parts = []
        for k in range(start, end):
            text = self.tokens[k].text
            if text == ",":
                parts.append(",")
            else:
                parts.append(text)
        return "".join(parts)

    # -- code regions ----------------------------------------------------

    def _scan_initializer(self, i: int, chain: tuple[str, ...]) -> int:
        """Scan an initializer expression up to an unnested ',' or ';'."""
        n = len(self.tokens)
        while i < n:
            t = self.tokens[i].text
            if t in ("(", "[", "{"):
                region = self._scan_code_region(i, chain)
                i = region.end
                continue
            if t in (",", ";"):
                return i
            if t in (")", "]", "}"):
                return i
            if t == "new":
                i = self._scan_creation(i, chain, _Region(end=-1))
                continue
            if t == "<" and self._text(i - 1) == ".":
                i = self._skip_generic(i)  # explicit type args of a generic call
                continue
            i += 1
        raise self._err("unterminated initializer", i)

    def _scan_creation(self, i: int, chain: tuple[str, ...], region: _Region) -> int:
        """Scan a 'new' expression; registers an anonymous body when present.

        Consumes the creation's type tokens and, when an argument list is
        present, the whole argument list (nested creations included), so the
        caller never rescans tokens this method already processed. Returns
        the index at which the main scan should resume.
        """
        j = i + 1
        type_end = self._skip_type_ref(j)
        if type_end is None:
            return i + 1  # e.g. 'new' in malformed position; let caller continue
        j = type_end
        if self._text(j) == "(":
            close = self._find_matching_paren_with_types(j, chain, region)
            if self._text(close + 1) == "{":
                anon_chain = chain + (self._next_anon_name(),)
                body_end = self._parse_type_body(close + 1, anon_chain)
                region.holes.append((close + 1, body_end - 1))
                return body_end
            return close + 1  # plain object creation: args fully consumed
        return type_end  # array creation: dims/initializer rescanned by caller

    def _find_matching_paren_with_types(self, open_idx: int, chain: tuple[str, ...], region: _Region) -> int:
        """Find the ')' matching tokens[open_idx], processing nested creations."""
        depth = 0
        i = open_idx
        n = len(self.tokens)
        while i < n:
            t = self.tokens[i].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    return i
            elif t == "new":
                nxt = self._scan_creation(i, chain, region)
                if nxt > i + 1:
                    i = nxt
                    continue
            elif t == "->":
                region.has_lambda = True
            i += 1
        raise self._err("unbalanced '('", open_idx)

    def _scan_code_region(self, open_idx: int, chain: tuple[str, ...]) -> _Region:
        """Scan a balanced ()/[]/{} region, collecting holes and lambda flags."""
        opener = self._text(open_idx)
        closer = {"(": ")", "[": "]", "{": "}"}[opener]
        region = _Region(end=-1)
        depth = 0
        i = open_idx
        n = len(self.tokens)
        while i < n:
            t = self.tokens[i]
            if t.text == opener:
                depth += 1
            elif t.text == closer:
                depth -= 1
                if depth == 0:
                    region.end = i + 1
                    return region
            elif t.text in "([{" :
                pass  # other delimiters tracked implicitly by recursion below
            if t.text == "new":
                nxt = self._scan_creation(i, chain, region)
                if nxt > i + 1:
                    i = nxt
                    continue
            elif t.text == "class" and self._text(i - 1) != ".":
                # Local class declaration inside a code block.
                start = i
                end = self._parse_type_decl(i, chain)
                region.holes.append((start, end - 1))
                i = end
                continue
            elif t.text == "->":
                region.has_lambda = True
            i += 1
        raise self._err(f"unbalanced {opener!r}", open_idx)


def parse_compilation_unit(source_text: str, file_path: str | None = None) -> CompilationUnit:
    return CompilationUnit.parse(source_text, file_path)
