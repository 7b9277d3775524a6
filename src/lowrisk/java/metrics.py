"""Method-level metric computation over token spans.

The scanner makes two passes over a method body. A statement pass walks the
statement structure recursively, producing control-construct counts, scope
nesting depth, declared variable names, and the statement list used for
category checks. An expression pass then walks the remaining tokens linearly
and counts expression-level constructs, invocation chains, and variable
identifiers.

No symbol resolution is performed. Variable detection is a token-level
heuristic: declared parameters and locals always count; other identifiers
count when they appear in root expression position (not a call name, not a
member after '.') and do not follow the capitalized class-name convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from lowrisk.errors import JavaParseError
from lowrisk.java.structure import MethodDecl
from lowrisk.java.tokens import ASSIGNMENT_OPS, PRIMITIVE_TYPES, Token


class ConstructKind(enum.IntEnum):
    """Countable Java constructs, numbered in declaration order.

    A member is its position in RawMetrics.construct_counts; `column` is its
    CSV column name.
    """

    METHOD_INVOCATION = 0, "method_invocations"
    IF_CONDITION = 1, "if_conditions"
    ELSE_BLOCK = 2, "else_blocks"
    SWITCH_CASE_BLOCK = 3, "switch_case_blocks"
    TERNARY_OPERATION = 4, "ternary_operations"
    LOOP = 5, "loops"
    TRY_BLOCK = 6, "try_blocks"
    CATCH_CLAUSE = 7, "catch_clauses"
    FINALLY_BLOCK = 8, "finally_blocks"
    THROW_STATEMENT = 9, "throw_statements"
    RETURN_STATEMENT = 10, "return_statements"
    CAST_EXPRESSION = 11, "cast_expressions"
    INSTANCEOF_EXPRESSION = 12, "instanceof_expressions"
    NULL_LITERAL = 13, "null_literals"
    NULL_CHECK = 14, "null_checks"
    ARITHMETIC_INFIX_OP = 15, "arithmetic_infix_ops"
    INCREMENTATION = 16, "incrementations"
    DECREMENTATION = 17, "decrementations"
    LOGICAL_OPERATOR = 18, "logical_operators"
    COMPARISON_OPERATOR = 19, "comparison_operators"
    ASSIGNMENT = 20, "assignments"
    ARRAY_ACCESS = 21, "array_accesses"
    ARRAY_CREATION = 22, "array_creations"
    OBJECT_CREATION = 23, "object_creations"
    STRING_LITERAL = 24, "string_literals"
    ANONYMOUS_CLASS = 25, "anonymous_classes"

    def __new__(cls, position: int, column: str):
        member = int.__new__(cls, position)
        member._value_ = position
        member.column = column
        return member


N_CONSTRUCT_KINDS = len(ConstructKind)

# The counts that RawMetrics.all_conditions and all_arithmetic sum, as getters
# over a construct_counts tuple.
condition_counts = itemgetter(
    ConstructKind.IF_CONDITION, ConstructKind.SWITCH_CASE_BLOCK, ConstructKind.TERNARY_OPERATION
)
arithmetic_counts = itemgetter(
    ConstructKind.INCREMENTATION, ConstructKind.DECREMENTATION, ConstructKind.ARITHMETIC_INFIX_OP
)


@dataclass(frozen=True)
class RawMetrics:
    """Raw per-method metric values; derived sums are recomputed, never stored.

    construct_counts holds one int per ConstructKind, in ConstructKind order,
    so counts[kind] reads the count of kind.
    """

    sloc: int
    cyclomatic_complexity: int
    max_nesting: int
    max_chaining: int
    unique_variable_ids: int
    construct_counts: tuple[int, ...]

    def __post_init__(self):
        counts = self.construct_counts
        if type(counts) is not tuple or len(counts) != N_CONSTRUCT_KINDS:
            raise TypeError(
                f"construct_counts must be a tuple of {N_CONSTRUCT_KINDS} counts, got {counts!r}"
            )

    @property
    def all_conditions(self) -> int:
        return sum(condition_counts(self.construct_counts))

    @property
    def all_arithmetic(self) -> int:
        return sum(arithmetic_counts(self.construct_counts))


@dataclass(frozen=True)
class CategoryFlags:
    """Purpose categories; a method may set zero, one, or more flags."""

    is_constructor: bool = False
    is_getter: bool = False
    is_setter: bool = False
    is_empty: bool = False
    is_delegation: bool = False
    is_to_string: bool = False

    FIELDS = ("is_constructor", "is_getter", "is_setter", "is_empty", "is_delegation", "is_to_string")


class _Stmt(NamedTuple):
    kind: str
    start: int  # dense index
    end: int  # dense index one past the statement


_OPERAND_END_KINDS = {"ident", "number", "string", "char"}
_OPERAND_END_TEXTS = {")", "]", "++", "--", "this", "null", "true", "false", "class"}
_CAST_FOLLOWERS_KINDS = {"ident", "number", "string", "char"}
_CAST_FOLLOWERS_TEXTS = {"(", "this", "super", "new", "!", "~", "null", "true", "false"}


def scan_method(tokens: list[Token], decl: MethodDecl) -> tuple[RawMetrics, CategoryFlags]:
    """Compute raw metrics and category flags for one method declaration."""
    scanner = _Scanner(tokens, decl)
    scanner.run()
    return scanner.metrics(), scanner.categories()


class _Scanner:
    def __init__(self, tokens: list[Token], decl: MethodDecl):
        self.decl = decl
        self.counts = [0] * N_CONSTRUCT_KINDS
        self.max_depth = 0
        self.max_chain = 0
        self.short_circuit = 0
        self.declared: set[str] = set(decl.param_names)
        self.var_names: set[str] = set()
        self.type_idx: set[int] = set()
        self.label_idx: set[int] = set()
        self.creation_bracket: set[int] = set()
        self.cast_close: set[int] = set()
        self.statements: list[_Stmt] = []
        # Dense view of the body interior with nested-type holes excised.
        holes = sorted(decl.holes)
        self.toks: list[Token] = []
        h = 0
        for i in range(decl.body_open + 1, decl.body_close):
            while h < len(holes) and i > holes[h][1]:
                h += 1
            if h < len(holes) and holes[h][0] <= i <= holes[h][1]:
                continue
            self.toks.append(tokens[i])
        self.counts[ConstructKind.ANONYMOUS_CLASS] = sum(
            1 for hole in decl.holes if tokens[hole[0]].text == "{"
        )
        self._sloc = self._count_sloc(tokens, decl, holes)
        self.paren_match: dict[int, int] = {}
        self.bracket_match: dict[int, int] = {}
        self._match_delims()

    # -- setup -----------------------------------------------------------

    @staticmethod
    def _count_sloc(tokens: list[Token], decl: MethodDecl, holes) -> int:
        lines: set[int] = set()
        h = 0
        for i in range(decl.decl_start, decl.body_close + 1):
            while h < len(holes) and i > holes[h][1]:
                h += 1
            if h < len(holes) and holes[h][0] <= i <= holes[h][1]:
                continue
            lines.add(tokens[i].line)
        return len(lines)

    def _match_delims(self) -> None:
        stack: list[tuple[str, int]] = []
        pairs = {")": "(", "]": "["}
        for i, tok in enumerate(self.toks):
            t = tok.text
            if t in ("(", "["):
                stack.append((t, i))
            elif t in (")", "]"):
                if not stack or stack[-1][0] != pairs[t]:
                    raise self._err("unbalanced delimiter in method body", i)
                opener, j = stack.pop()
                if opener == "(":
                    self.paren_match[j] = i
                else:
                    self.bracket_match[j] = i

    def _err(self, msg: str, i: int) -> JavaParseError:
        if 0 <= i < len(self.toks):
            t = self.toks[i]
            return JavaParseError(msg, line=t.line, col=t.col)
        return JavaParseError(msg)

    # -- accessors ---------------------------------------------------------

    def _text(self, i: int) -> str | None:
        return self.toks[i].text if 0 <= i < len(self.toks) else None

    def _kind(self, i: int) -> str | None:
        return self.toks[i].kind if 0 <= i < len(self.toks) else None

    def run(self) -> None:
        self._parse_statements(0, len(self.toks), 0)
        self._expression_pass()

    def metrics(self) -> RawMetrics:
        cc = (
            1
            + self.counts[ConstructKind.IF_CONDITION]
            + self.counts[ConstructKind.LOOP]
            + self.counts[ConstructKind.SWITCH_CASE_BLOCK]
            + self.counts[ConstructKind.CATCH_CLAUSE]
            + self.counts[ConstructKind.TERNARY_OPERATION]
            + self.short_circuit
        )
        return RawMetrics(
            sloc=self._sloc,
            cyclomatic_complexity=cc,
            max_nesting=self.max_depth,
            max_chaining=self.max_chain,
            unique_variable_ids=len(self.declared | self.var_names),
            construct_counts=tuple(self.counts),
        )

    def categories(self) -> CategoryFlags:
        decl = self.decl
        single = self.statements[0] if len(self.statements) == 1 else None
        return CategoryFlags(
            is_constructor=decl.is_constructor,
            is_getter=self._is_getter(single),
            is_setter=self._is_setter(single),
            is_empty=not self.statements,
            is_delegation=self._is_delegation(single),
            is_to_string=(not decl.is_constructor and decl.name == "toString" and not decl.param_types),
        )

    # -- category helpers --------------------------------------------------

    def _stmt_texts(self, stmt: _Stmt) -> list[str]:
        return [self.toks[i].text for i in range(stmt.start, stmt.end)]

    def _is_getter(self, single: _Stmt | None) -> bool:
        if single is None or single.kind != "return":
            return False
        body = self._stmt_texts(single)  # ['return', ..., ';']
        expr = body[1:-1]
        if len(expr) == 3 and expr[0] == "this" and expr[1] == ".":
            expr = expr[2:]
        return len(expr) == 1 and expr[0] in self.decl.field_names

    def _is_setter(self, single: _Stmt | None) -> bool:
        if single is None or single.kind != "expr":
            return False
        body = self._stmt_texts(single)
        expr = body[:-1]
        if len(expr) == 5 and expr[0] == "this" and expr[1] == ".":
            expr = expr[2:]
        return (
            len(expr) == 3
            and expr[1] == "="
            and expr[0] in self.decl.field_names
            and expr[2] in self.decl.param_names
        )

    def _is_delegation(self, single: _Stmt | None) -> bool:
        if single is None or single.kind not in ("expr", "return"):
            return False
        i, end = single.start, single.end - 1  # drop ';'
        if single.kind == "return":
            i += 1
        if self._text(i) in ("this", "super") and self._text(i + 1) == ".":
            i += 2
        callee = self._text(i)
        if self._kind(i) not in ("ident", "keyword") or self._text(i + 1) != "(":
            return False
        same_name = callee == self.decl.name or (self.decl.is_constructor and callee == "this")
        if not same_name:
            return False
        close = self.paren_match.get(i + 1)
        if close is None or close != end - 1:
            return False
        args = self._split_args(i + 2, close)
        if len(args) <= len(self.decl.param_names):
            return False
        single_ident_args = {
            self.toks[a].text for a, b in args if b - a == 1 and self.toks[a].kind == "ident"
        }
        return set(self.decl.param_names) <= single_ident_args

    def _split_args(self, start: int, close: int) -> list[tuple[int, int]]:
        args = []
        depth = 0
        a = start
        for i in range(start, close):
            t = self.toks[i].text
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            elif t == "," and depth == 0:
                args.append((a, i))
                a = i + 1
        if a < close:
            args.append((a, close))
        return args

    # -- statement pass ----------------------------------------------------

    def _record_scope(self, depth: int) -> None:
        if depth > self.max_depth:
            self.max_depth = depth

    def _parse_statements(self, i: int, end: int, depth: int) -> int:
        while i < end and self._text(i) != "}":
            i = self._parse_statement(i, depth)
        return i

    def _parse_block(self, i: int, depth: int) -> int:
        """Parse '{ ... }' whose statements run at scope `depth`."""
        assert self._text(i) == "{"
        j = i + 1
        while self._text(j) != "}":
            if j >= len(self.toks):
                raise self._err("unterminated block", i)
            j = self._parse_statement(j, depth)
        return j + 1

    def _child(self, i: int, depth: int) -> int:
        """Parse the body of a control statement (block or single statement)."""
        self._record_scope(depth)
        if self._text(i) == "{":
            self.statements.append(_Stmt("block", i, -1))
            return self._parse_block(i, depth)
        return self._parse_statement(i, depth)

    def _skip_parens(self, i: int) -> int:
        if self._text(i) != "(":
            raise self._err("expected '('", i)
        return self.paren_match[i] + 1

    def _skip_to_semicolon(self, i: int) -> int:
        while i < len(self.toks):
            t = self._text(i)
            if t == ";":
                return i + 1
            if t == "(":
                i = self.paren_match[i] + 1
            elif t == "[":
                i = self.bracket_match[i] + 1
            elif t == "{":
                i = self._skip_braces(i)
            elif t in (")", "]", "}"):
                raise self._err("malformed statement", i)
            else:
                i += 1
        raise self._err("missing ';'", i - 1)

    def _skip_braces(self, i: int) -> int:
        depth = 0
        while i < len(self.toks):
            t = self._text(i)
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        raise self._err("unbalanced '{'", i - 1)

    def _parse_statement(self, i: int, depth: int) -> int:
        t = self._text(i)
        kind = self._kind(i)
        if t == ";":
            return i + 1
        if t == "{":
            self.statements.append(_Stmt("block", i, -1))
            self._record_scope(depth + 1)
            return self._parse_block(i, depth + 1)
        if t == "if":
            self.counts[ConstructKind.IF_CONDITION] += 1
            self.statements.append(_Stmt("if", i, -1))
            j = self._skip_parens(i + 1)
            j = self._child(j, depth + 1)
            if self._text(j) == "else":
                self.counts[ConstructKind.ELSE_BLOCK] += 1
                if self._text(j + 1) == "if":
                    # else-if chains stay at the parent's nesting level
                    j = self._parse_statement(j + 1, depth)
                else:
                    j = self._child(j + 1, depth + 1)
            return j
        if t == "while":
            self.counts[ConstructKind.LOOP] += 1
            self.statements.append(_Stmt("loop", i, -1))
            j = self._skip_parens(i + 1)
            return self._child(j, depth + 1)
        if t == "do":
            self.counts[ConstructKind.LOOP] += 1
            self.statements.append(_Stmt("loop", i, -1))
            j = self._child(i + 1, depth + 1)
            if self._text(j) != "while":
                raise self._err("expected 'while' after do body", j)
            j = self._skip_parens(j + 1)
            if self._text(j) != ";":
                raise self._err("expected ';' after do-while", j)
            return j + 1
        if t == "for":
            self.counts[ConstructKind.LOOP] += 1
            self.statements.append(_Stmt("loop", i, -1))
            close = self.paren_match[i + 1]
            self._parse_for_header(i + 2, close)
            return self._child(close + 1, depth + 1)
        if t == "switch":
            self.statements.append(_Stmt("switch", i, -1))
            j = self._skip_parens(i + 1)
            if self._text(j) != "{":
                raise self._err("expected switch block", j)
            self._record_scope(depth + 1)
            j += 1
            while self._text(j) != "}":
                tj = self._text(j)
                if tj in ("case", "default"):
                    if tj == "case":
                        self.counts[ConstructKind.SWITCH_CASE_BLOCK] += 1
                    j = self._skip_case_label(j + 1)
                else:
                    j = self._parse_statement(j, depth + 1)
            return j + 1
        if t == "try":
            self.counts[ConstructKind.TRY_BLOCK] += 1
            self.statements.append(_Stmt("try", i, -1))
            j = i + 1
            if self._text(j) == "(":
                self._parse_resources(j + 1, self.paren_match[j])
                j = self.paren_match[j] + 1
            self._record_scope(depth + 1)
            j = self._parse_block(j, depth + 1)
            while self._text(j) == "catch":
                self.counts[ConstructKind.CATCH_CLAUSE] += 1
                close = self.paren_match[j + 1]
                self._parse_catch_params(j + 2, close)
                self._record_scope(depth + 1)
                j = self._parse_block(close + 1, depth + 1)
            if self._text(j) == "finally":
                self.counts[ConstructKind.FINALLY_BLOCK] += 1
                self._record_scope(depth + 1)
                j = self._parse_block(j + 1, depth + 1)
            return j
        if t == "return":
            self.counts[ConstructKind.RETURN_STATEMENT] += 1
            j = self._skip_to_semicolon(i + 1)
            self.statements.append(_Stmt("return", i, j))
            return j
        if t == "throw":
            self.counts[ConstructKind.THROW_STATEMENT] += 1
            j = self._skip_to_semicolon(i + 1)
            self.statements.append(_Stmt("throw", i, j))
            return j
        if t in ("break", "continue", "assert"):
            if t != "assert" and self._kind(i + 1) == "ident":
                self.label_idx.add(i + 1)  # break/continue label, not a variable
            j = self._skip_to_semicolon(i + 1)
            self.statements.append(_Stmt(t, i, j))
            return j
        if t == "synchronized":
            self.statements.append(_Stmt("synchronized", i, -1))
            j = self._skip_parens(i + 1)
            self._record_scope(depth + 1)
            return self._parse_block(j, depth + 1)
        if kind == "ident" and self._text(i + 1) == ":":
            self.label_idx.add(i)
            return self._parse_statement(i + 2, depth)
        decl_end = self._try_parse_declaration(i)
        if decl_end is not None:
            self.statements.append(_Stmt("decl", i, decl_end))
            return decl_end
        j = self._skip_to_semicolon(i)
        self.statements.append(_Stmt("expr", i, j))
        return j

    def _skip_case_label(self, i: int) -> int:
        """Skip a case/default label expression up to and past its ':'."""
        pending = 0
        while i < len(self.toks):
            t = self._text(i)
            if t == "(":
                i = self.paren_match[i] + 1
                continue
            if t == "?":
                pending += 1
            elif t == ":":
                if pending == 0:
                    return i + 1
                pending -= 1
            i += 1
        raise self._err("unterminated case label", i - 1)

    def _parse_for_header(self, start: int, close: int) -> None:
        """Classify a for header; declare loop variables and mark type tokens."""
        depth = 0
        pending_ternary = 0
        colon = None
        for j in range(start, close):
            t = self._text(j)
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            elif depth == 0:
                if t == ";":
                    break
                if t == "?":
                    pending_ternary += 1
                elif t == ":":
                    if pending_ternary:
                        pending_ternary -= 1
                    else:
                        colon = j
                        break
        if colon is not None:
            j = start
            while self._text(j) in ("final",) or self._text(j) == "@":
                j = j + 2 if self._text(j) == "@" else j + 1
            te = self._skip_type_ref_dense(j)
            if te is not None and self._kind(te) == "ident" and te + 1 == colon:
                self.type_idx.update(range(j, te))
                self.declared.add(self._text(te))
            return
        # Classic for: the init clause may be a declaration.
        if self._text(start) != ";":
            self._try_parse_declaration(start, stop=close)

    def _parse_resources(self, start: int, close: int) -> None:
        i = start
        while i < close:
            while self._text(i) in ("final",):
                i += 1
            te = self._skip_type_ref_dense(i)
            if te is None or self._kind(te) != "ident":
                return  # not a resource declaration shape; leave to expr pass
            self.type_idx.update(range(i, te))
            self.declared.add(self._text(te))
            i = te + 1
            depth = 0
            while i < close:
                t = self._text(i)
                if t in ("(", "["):
                    depth += 1
                elif t in (")", "]"):
                    depth -= 1
                elif t == ";" and depth == 0:
                    i += 1
                    break
                i += 1

    def _parse_catch_params(self, start: int, close: int) -> None:
        i = start
        while self._text(i) in ("final",):
            i += 1
        while i < close:
            te = self._skip_type_ref_dense(i)
            if te is None:
                return
            self.type_idx.update(range(i, te))
            if self._text(te) == "|":
                i = te + 1
                continue
            if self._kind(te) == "ident":
                self.declared.add(self._text(te))
            return

    def _skip_type_ref_dense(self, i: int) -> int | None:
        t = self.toks[i] if i < len(self.toks) else None
        if t is None:
            return None
        if t.kind == "keyword" and t.text in PRIMITIVE_TYPES:
            j = i + 1
        elif t.kind == "ident":
            j = i + 1
            while self._text(j) == "." and self._kind(j + 1) == "ident":
                j += 2
        else:
            return None
        if self._text(j) == "<":
            j = self._skip_generic_dense(j)
            if j is None:
                return None
        while self._text(j) == "[" and self._text(j + 1) == "]":
            j += 2
        return j

    def _skip_generic_dense(self, i: int) -> int | None:
        """Skip a plausible type-argument list at '<'; None when not one."""
        allowed_texts = {".", ",", "?", "extends", "super", "[", "]", "&"}
        depth = 0
        j = i
        while j < len(self.toks):
            tok = self.toks[j]
            t = tok.text
            if t == "<":
                depth += 1
            elif t in (">", ">>", ">>>"):
                depth -= len(t)
                if depth <= 0:
                    return j + 1
            elif tok.kind == "ident" or t in allowed_texts or (
                tok.kind == "keyword" and t in PRIMITIVE_TYPES
            ):
                pass
            else:
                return None
            j += 1
        return None

    def _try_parse_declaration(self, i: int, stop: int | None = None) -> int | None:
        """Parse a local variable declaration; returns end index or None."""
        start = i
        while self._text(i) == "final":
            i += 1
        while self._text(i) == "@" and self._kind(i + 1) == "ident":
            i += 2
            if self._text(i) == "(":
                i = self.paren_match[i] + 1
        te = self._skip_type_ref_dense(i)
        if te is None or self._kind(te) != "ident":
            return None
        nxt = self._text(te + 1)
        if nxt not in ("=", ";", ",") and not (nxt == "[" and self._text(te + 2) == "]"):
            return None
        self.type_idx.update(range(i, te))
        j = te
        while True:
            if self._kind(j) != "ident":
                raise self._err("malformed declaration", j)
            self.declared.add(self._text(j))
            j += 1
            while self._text(j) == "[" and self._text(j + 1) == "]":
                self.type_idx.update((j, j + 1))
                j += 2
            if self._text(j) == "=":
                j = self._skip_initializer(j + 1, stop)
            t = self._text(j)
            if t == ",":
                j += 1
                continue
            if t == ";":
                return j + 1
            if stop is not None and (j >= stop or t == ")"):
                return j
            raise self._err("malformed declaration", j)

    def _skip_initializer(self, i: int, stop: int | None) -> int:
        while i < len(self.toks) and (stop is None or i < stop):
            t = self._text(i)
            if t in (",", ";"):
                return i
            if t == "(":
                i = self.paren_match[i] + 1
            elif t == "[":
                i = self.bracket_match[i] + 1
            elif t == "{":
                i = self._skip_braces(i)
            elif t in (")", "]", "}"):
                return i
            elif t == "new":
                # Protect generic-argument commas of the creation's type.
                te = self._skip_type_ref_dense(i + 1)
                i = te if te is not None else i + 1
            elif t == "<" and self._text(i - 1) == ".":
                skipped = self._skip_generic_dense(i)
                i = skipped if skipped is not None else i + 1
            else:
                i += 1
        return i

    # -- expression pass ---------------------------------------------------

    def _expression_pass(self) -> None:
        chain_at_close: dict[int, int] = {}
        toks = self.toks
        n = len(toks)
        i = 0
        while i < n:
            if i in self.type_idx or i in self.label_idx:
                i += 1
                continue
            tok = toks[i]
            t = tok.text
            kind = tok.kind
            prev = self._text(i - 1)
            nxt = self._text(i + 1)
            if kind == "ident":
                if nxt == "(" and prev != "@":
                    self.counts[ConstructKind.METHOD_INVOCATION] += 1
                    chain = 1
                    if prev == "." and self._text(i - 2) == ")" and (i - 2) in chain_at_close:
                        chain = chain_at_close[i - 2] + 1
                    close = self.paren_match[i + 1]
                    chain_at_close[close] = chain
                    if chain > self.max_chain:
                        self.max_chain = chain
                elif prev not in (".", "::", "@"):
                    if (t[0].islower() or t[0] in "_$") and not self._package_like(i):
                        self.var_names.add(t)
                i += 1
                continue
            if kind == "string":
                self.counts[ConstructKind.STRING_LITERAL] += 1
                i += 1
                continue
            if kind == "keyword":
                if t == "new":
                    i = self._scan_creation_expr(i)
                    continue
                if t in ("this", "super") and nxt == "(":
                    self.counts[ConstructKind.METHOD_INVOCATION] += 1
                    if self.max_chain < 1:
                        self.max_chain = 1
                    i += 1
                    continue
                if t == "instanceof":
                    self.counts[ConstructKind.INSTANCEOF_EXPRESSION] += 1
                    te = self._skip_type_ref_dense(i + 1)
                    if te is not None:
                        self.type_idx.update(range(i + 1, te))
                    i += 1
                    continue
                if t == "null":
                    self.counts[ConstructKind.NULL_LITERAL] += 1
                    i += 1
                    continue
                i += 1
                continue
            # Operators and punctuation.
            if t == "(" and self._is_cast(i):
                self.counts[ConstructKind.CAST_EXPRESSION] += 1
                self.type_idx.update(range(i + 1, self.paren_match[i]))
                self.cast_close.add(self.paren_match[i])
                i += 1
                continue
            if t == "?":
                if prev not in ("<", ","):
                    self.counts[ConstructKind.TERNARY_OPERATION] += 1
                i += 1
                continue
            if t in ("==", "!="):
                self.counts[ConstructKind.COMPARISON_OPERATOR] += 1
                if prev == "null" or nxt == "null":
                    self.counts[ConstructKind.NULL_CHECK] += 1
                i += 1
                continue
            if t == "<":
                if prev == ".":
                    skipped = self._skip_generic_dense(i)
                    if skipped is not None:
                        self.type_idx.update(range(i, skipped))
                        i = skipped
                        continue
                self.counts[ConstructKind.COMPARISON_OPERATOR] += 1
                i += 1
                continue
            if t in (">", "<=", ">="):
                self.counts[ConstructKind.COMPARISON_OPERATOR] += 1
                i += 1
                continue
            if t in ("&&", "||"):
                self.counts[ConstructKind.LOGICAL_OPERATOR] += 1
                self.short_circuit += 1
                i += 1
                continue
            if t == "!":
                self.counts[ConstructKind.LOGICAL_OPERATOR] += 1
                i += 1
                continue
            if t in ASSIGNMENT_OPS:
                self.counts[ConstructKind.ASSIGNMENT] += 1
                i += 1
                continue
            if t == "++":
                self.counts[ConstructKind.INCREMENTATION] += 1
                i += 1
                continue
            if t == "--":
                self.counts[ConstructKind.DECREMENTATION] += 1
                i += 1
                continue
            if t in ("+", "-", "*", "/", "%"):
                operand_before = (
                    self._kind(i - 1) in _OPERAND_END_KINDS or prev in _OPERAND_END_TEXTS
                )
                if operand_before and (i - 1) not in self.type_idx and (i - 1) not in self.cast_close:
                    self.counts[ConstructKind.ARITHMETIC_INFIX_OP] += 1
                i += 1
                continue
            if t == "[":
                if (
                    i not in self.creation_bracket
                    and nxt != "]"
                    and (self._kind(i - 1) in ("ident", "string") or prev in (")", "]"))
                    and (i - 1) not in self.type_idx
                ):
                    self.counts[ConstructKind.ARRAY_ACCESS] += 1
                i += 1
                continue
            i += 1

    def _package_like(self, i: int) -> bool:
        """True when tokens[i] roots a dotted chain that reaches a capitalized
        segment, i.e. a package/class qualifier rather than a variable."""
        j = i
        while self._text(j + 1) == "." and self._kind(j + 2) == "ident":
            j += 2
            if self._text(j)[0].isupper():
                return True
        return False

    def _scan_creation_expr(self, i: int) -> int:
        """Handle a 'new' token; marks type tokens, counts the creation."""
        j = i + 1
        te = self._skip_type_ref_dense(j)
        if te is None:
            return i + 1
        self.type_idx.update(range(j, te))
        if self._text(te) == "[":
            self.counts[ConstructKind.ARRAY_CREATION] += 1
            k = te
            while self._text(k) == "[":
                self.creation_bracket.add(k)
                k = self.bracket_match[k] + 1
            return te
        if self._text(te) == "(":
            self.counts[ConstructKind.OBJECT_CREATION] += 1
            return te
        return te

    def _is_cast(self, i: int) -> bool:
        close = self.paren_match.get(i)
        if close is None or close == i + 1:
            return False
        if self._kind(i - 1) in ("ident", "number", "string", "char") or self._text(i - 1) in (")", "]"):
            return False
        te = self._skip_type_ref_dense(i + 1)
        if te != close:
            return False
        after_kind = self._kind(close + 1)
        after_text = self._text(close + 1)
        return after_kind in _CAST_FOLLOWERS_KINDS or after_text in _CAST_FOLLOWERS_TEXTS
