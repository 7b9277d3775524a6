"""Method-level metric computation over token spans.

The scanner sees a method body as a dense view: the file's token columns
sliced around the holes of nested types, between sentinels (one before, two
after); a body without holes is one slice whose braces and next token
become the sentinels. It jumps over brackets by the file's partner list
(`structure.match_delimiters`) sliced with the view; only a body with holes
has its view matched again, because a pair may span a hole. A closer whose
opener is outside the view makes the body malformed. SLOC is the number of
distinct line numbers over the slices of the declaration and the body.
Errors map the view index back to the file token, with its line and column.

The scanner makes two passes over a method body. A statement pass walks the
statement structure recursively, producing control-construct counts, scope
nesting depth, declared variable names, and the statement list used for
category checks; a statement keyword inside a statement means a missing
';'. An expression pass then walks the tokens not in its skip set (types,
labels, creation brackets, cast closers) linearly and counts
expression-level constructs, invocation chains, and variable identifiers.
Both passes read types with the parser's grammar (`structure.skip_type_ref`)
and annotations with its `structure.skip_annotations`; the expression pass
jumps every annotation, arguments included, so no annotation counts as code.

No symbol resolution is performed. Variable detection is a token-level
heuristic: declared parameters and locals always count; other identifiers
count when they appear in root expression position (not a call name, not a
member after '.') and do not follow the capitalized class-name convention.
"""

from __future__ import annotations

import enum
from operator import add, itemgetter
from typing import NamedTuple

from lowrisk.errors import JavaParseError
from lowrisk.java.structure import (
    CompilationUnit,
    MethodDecl,
    match_delimiters,
    skip_annotations,
    skip_type_arguments,
    skip_type_ref,
)
from lowrisk.java.tokens import ASSIGNMENT_OPS


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
# The counts that the cyclomatic complexity adds to 1 and the short-circuit operators.
_complexity_counts = itemgetter(
    ConstructKind.IF_CONDITION, ConstructKind.LOOP, ConstructKind.SWITCH_CASE_BLOCK,
    ConstructKind.CATCH_CLAUSE, ConstructKind.TERNARY_OPERATION,
)


class _MetricFields(NamedTuple):
    sloc: int
    cyclomatic_complexity: int
    max_nesting: int
    max_chaining: int
    unique_variable_ids: int
    construct_counts: tuple[int, ...]


class RawMetrics(_MetricFields):
    """Raw per-method metric values; derived sums are recomputed, never stored.

    construct_counts holds one int per ConstructKind, in ConstructKind order,
    so counts[kind] reads the count of kind.
    """

    __slots__ = ()

    def __new__(
        cls, sloc, cyclomatic_complexity, max_nesting, max_chaining, unique_variable_ids, construct_counts
    ):
        if type(construct_counts) is not tuple or len(construct_counts) != N_CONSTRUCT_KINDS:
            raise TypeError(
                f"construct_counts must be a tuple of {N_CONSTRUCT_KINDS} counts, got {construct_counts!r}"
            )
        fields = sloc, cyclomatic_complexity, max_nesting, max_chaining, unique_variable_ids, construct_counts
        return tuple.__new__(cls, fields)

    @property
    def all_conditions(self) -> int:
        return sum(condition_counts(self.construct_counts))

    @property
    def all_arithmetic(self) -> int:
        return sum(arithmetic_counts(self.construct_counts))


class CategoryFlags(NamedTuple):
    """Purpose categories; a method may set zero, one, or more flags."""

    is_constructor: bool = False
    is_getter: bool = False
    is_setter: bool = False
    is_empty: bool = False
    is_delegation: bool = False
    is_to_string: bool = False


class _Stmt(NamedTuple):
    kind: str
    start: int  # dense index
    end: int  # dense index one past the statement


_OPERAND_END_KINDS = {"ident", "number", "string", "char"}
_OPERAND_END_TEXTS = {")", "]", "++", "--", "this", "null", "true", "false", "class"}
_CAST_FOLLOWERS_TEXTS = {"(", "this", "super", "new", "!", "~", "null", "true", "false"}
# Keywords that begin a statement or a part of one, and no expression; met
# inside an expression, they show that the ';' before them is missing.
_STATEMENT_KEYWORDS = frozenset(
    """return if else while do for switch case default try catch finally throw break continue
    synchronized assert""".split()
)
# The texts that begin a statement other than a label, a declaration or an expression.
_STATEMENT_STARTS = _STATEMENT_KEYWORDS - {"else", "case", "default", "catch", "finally"} | {";", "{"}
# The tokens at which the statement and initializer skips stop to look.
_STATEMENT_STOPS = frozenset(";()[]{}") | _STATEMENT_KEYWORDS
_INITIALIZER_STOPS = _STATEMENT_STOPS | {",", "new", "<"}
# The construct that an operator counts wherever it occurs.
_OPERATOR_COUNTS = {
    **dict.fromkeys(ASSIGNMENT_OPS, ConstructKind.ASSIGNMENT),
    **dict.fromkeys((">", "<=", ">="), ConstructKind.COMPARISON_OPERATOR),
    "!": ConstructKind.LOGICAL_OPERATOR,
    "++": ConstructKind.INCREMENTATION,
    "--": ConstructKind.DECREMENTATION,
}
# The operators whose count depends on the tokens around them, and the '@' of an annotation.
_CONTEXT_OPERATORS = frozenset(("(", "?", "==", "!=", "<", "&&", "||", "[", "+", "-", "*", "/", "%", "@"))


def scan_method(unit: CompilationUnit, decl: MethodDecl) -> tuple[RawMetrics, CategoryFlags]:
    """Compute raw metrics and category flags for one method declaration."""
    return _Scanner(unit, decl).run()


class _Scanner:
    def __init__(self, unit: CompilationUnit, decl: MethodDecl):
        self.tokens = tokens = unit.tokens
        self.decl = decl
        self.counts = [0] * N_CONSTRUCT_KINDS
        self.max_depth = self.max_chain = self.short_circuit = 0
        self.names: set[str] = set(decl.param_names)  # parameters, locals and variable identifiers
        # The view indices the expression pass passes over: type tokens,
        # labels, the '[' of array creations and the ')' of casts.
        self.skip: set[int] = set()
        self.statements: list[_Stmt] = []
        # The body interior as file index ranges, with nested-type holes cut out.
        start, end, holes = decl.body_open + 1, decl.body_close, decl.holes
        lines = tokens.lines
        if holes:
            self.ranges = ranges = []
            for hole_start, hole_end in sorted(holes):
                ranges.append((start, hole_start))
                start = hole_end + 1
            ranges.append((start, end))
            # The dense view: the ranges' column slices between sentinels.
            texts, kinds = [""], [""]
            for a, b in ranges:
                texts += tokens.texts[a:b]
                kinds += tokens.kinds[a:b]
            texts += ("", "")
            kinds += ("", "")
            self.partner = match_delimiters(texts)
            self.counts[ConstructKind.ANONYMOUS_CLASS] = sum(1 for a, _ in holes if tokens.texts[a] == "{")
            self._sloc = len(
                set(lines[decl.decl_start : decl.body_open + 1]).union(
                    *(lines[a:b] for a, b in ranges), (lines[end],)
                )
            )
        else:
            self.ranges = ((start, end),)
            # The view is the body between its braces, which become sentinels.
            texts, kinds = tokens.texts[start - 1 : end + 2], tokens.kinds[start - 1 : end + 2]
            self.partner = partner = unit.partner[start - 1 : end + 2]
            texts[0] = texts[-2] = texts[-1] = kinds[0] = kinds[-2] = kinds[-1] = ""
            partner[0] = partner[-2] = partner[-1] = 0
            self._sloc = len(set(lines[decl.decl_start : end + 1]))
        self.texts, self.kinds = texts, kinds
        self.n = n = len(texts) - 3
        # A closer whose opener is not in the view points at or before index 0.
        if min(map(add, range(1, n + 1), self.partner[1 : n + 1]), default=1) < 1:
            i = next(i for i in range(1, n + 1) if i + self.partner[i] < 1)
            raise self._err("unbalanced delimiter in method body", i)

    def _err(self, msg: str, i: int) -> JavaParseError:
        """The error at dense index i, located at its token in the file."""
        k = i - 1
        if k < 0:
            return self.tokens.error(msg, self.decl.body_open)
        for a, b in self.ranges:
            if k < b - a:
                return self.tokens.error(msg, a + k)
            k -= b - a
        return self.tokens.error(msg, self.decl.body_close)

    def _partner(self, i: int) -> int | None:
        """The index of the closer that matches the opener at i in the view."""
        j = i + self.partner[i]
        return j if i < j <= self.n else None

    def _close(self, i: int) -> int:
        j = self._partner(i)
        if j is None:
            raise self._err(f"unbalanced {self.texts[i]!r}", i)
        return j

    def run(self) -> tuple[RawMetrics, CategoryFlags]:
        """Both passes, then the metrics and the category flags."""
        texts, n = self.texts, self.n
        i = 1
        while i <= n and texts[i] != "}":
            i = self._parse_statement(i, 0)
        self._expression_pass()
        counts, decl, statements = self.counts, self.decl, self.statements
        metrics = RawMetrics(
            self._sloc,
            1 + sum(_complexity_counts(counts)) + self.short_circuit,
            self.max_depth,
            self.max_chain,
            len(self.names),
            tuple(counts),
        )
        is_to_string = not decl.is_constructor and decl.name == "toString" and not decl.param_types
        if len(statements) != 1:
            return metrics, CategoryFlags(decl.is_constructor, False, False, not statements, False, is_to_string)
        single = statements[0]
        return metrics, CategoryFlags(
            decl.is_constructor,
            single.kind == "return" and self._is_getter(single),
            single.kind == "expr" and self._is_setter(single),
            False,
            single.kind in ("expr", "return") and self._is_delegation(single),
            is_to_string,
        )

    # -- category helpers --------------------------------------------------

    def _is_getter(self, single: _Stmt) -> bool:
        expr = self.texts[single.start + 1 : single.end - 1]  # between 'return' and ';'
        if len(expr) == 3 and expr[0] == "this" and expr[1] == ".":
            expr = expr[2:]
        return len(expr) == 1 and expr[0] in self.decl.field_names

    def _is_setter(self, single: _Stmt) -> bool:
        expr = self.texts[single.start : single.end - 1]  # up to ';'
        if len(expr) == 5 and expr[0] == "this" and expr[1] == ".":
            expr = expr[2:]
        return (
            len(expr) == 3
            and expr[1] == "="
            and expr[0] in self.decl.field_names
            and expr[2] in self.decl.param_names
        )

    def _is_delegation(self, single: _Stmt) -> bool:
        texts, kinds = self.texts, self.kinds
        i, end = single.start, single.end - 1  # drop ';'
        if single.kind == "return":
            i += 1
        if texts[i] in ("this", "super") and texts[i + 1] == ".":
            i += 2
        callee = texts[i]
        if kinds[i] not in ("ident", "keyword") or texts[i + 1] != "(":
            return False
        same_name = callee == self.decl.name or (self.decl.is_constructor and callee == "this")
        if not same_name:
            return False
        close = self._partner(i + 1)
        if close is None or close != end - 1:
            return False
        args = self._split_args(i + 2, close)
        if len(args) <= len(self.decl.param_names):
            return False
        single_ident_args = {texts[a] for a, b in args if b - a == 1 and kinds[a] == "ident"}
        return set(self.decl.param_names) <= single_ident_args

    def _split_args(self, start: int, close: int) -> list[tuple[int, int]]:
        args = []
        a = i = start
        while i < close:
            t = self.texts[i]
            if t in ("(", "["):
                i = self._close(i)
            elif t == ",":
                args.append((a, i))
                a = i + 1
            i += 1
        if a < close:
            args.append((a, close))
        return args

    # -- statement pass ----------------------------------------------------

    def _record_scope(self, depth: int) -> None:
        if depth > self.max_depth:
            self.max_depth = depth

    def _parse_block(self, i: int, depth: int) -> int:
        """Parse '{ ... }' whose statements run at scope `depth`."""
        if self.texts[i] != "{":
            raise self._err("expected '{'", i)
        j = i + 1
        while self.texts[j] != "}":
            if j > self.n:
                raise self._err("unterminated block", i)
            j = self._parse_statement(j, depth)
        return j + 1

    def _child(self, i: int, depth: int) -> int:
        """Parse the body of a control statement (block or single statement)."""
        self._record_scope(depth)
        if self.texts[i] == "{":
            self.statements.append(_Stmt("block", i, -1))
            return self._parse_block(i, depth)
        return self._parse_statement(i, depth)

    def _skip_parens(self, i: int) -> int:
        if self.texts[i] != "(":
            raise self._err("expected '('", i)
        return self._close(i) + 1

    def _skip_to_semicolon(self, i: int) -> int:
        texts, n = self.texts, self.n
        while i <= n:
            t = texts[i]
            if t not in _STATEMENT_STOPS:
                i += 1
            elif t == ";":
                return i + 1
            elif t in ("(", "[", "{"):
                i = self._close(i) + 1
            elif t in (")", "]", "}"):
                raise self._err("malformed statement", i)
            else:  # a statement keyword: the ';' before it is missing
                break
        raise self._err("missing ';'", i - 1)

    def _parse_statement(self, i: int, depth: int) -> int:
        texts = self.texts
        t = texts[i]
        if t not in _STATEMENT_STARTS:  # a label, a local declaration or an expression
            if self.kinds[i] == "ident" and texts[i + 1] == ":":
                self.skip.add(i)
                return self._parse_statement(i + 2, depth)
            if t in _STATEMENT_KEYWORDS:  # an 'else', 'case', 'catch', ... that no statement takes
                raise self._err(f"unexpected {t!r}", i)
            decl_end = self._try_parse_declaration(i)
            if decl_end is not None:
                self.statements.append(_Stmt("decl", i, decl_end))
                return decl_end
            j = self._skip_to_semicolon(i)
            self.statements.append(_Stmt("expr", i, j))
            return j
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
            if texts[j] == "else":
                self.counts[ConstructKind.ELSE_BLOCK] += 1
                if texts[j + 1] == "if":
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
            if texts[j] != "while":
                raise self._err("expected 'while' after do body", j)
            j = self._skip_parens(j + 1)
            if texts[j] != ";":
                raise self._err("expected ';' after do-while", j)
            return j + 1
        if t == "for":
            self.counts[ConstructKind.LOOP] += 1
            self.statements.append(_Stmt("loop", i, -1))
            close = self._skip_parens(i + 1) - 1
            self._parse_for_header(i + 2, close)
            return self._child(close + 1, depth + 1)
        if t == "switch":
            self.statements.append(_Stmt("switch", i, -1))
            j = self._skip_parens(i + 1)
            if texts[j] != "{":
                raise self._err("expected switch block", j)
            self._record_scope(depth + 1)
            j += 1
            while texts[j] != "}":
                tj = texts[j]
                if tj in ("case", "default"):
                    if tj == "case":
                        self.counts[ConstructKind.SWITCH_CASE_BLOCK] += 1
                    colon = self._colon(j + 1, self.n + 1)
                    if colon is None:
                        raise self._err("unterminated case label", j)
                    j = colon + 1
                else:
                    j = self._parse_statement(j, depth + 1)
            return j + 1
        if t == "try":
            self.counts[ConstructKind.TRY_BLOCK] += 1
            self.statements.append(_Stmt("try", i, -1))
            j = i + 1
            if texts[j] == "(":
                close = self._close(j)
                self._parse_resources(j + 1, close)
                j = close + 1
            self._record_scope(depth + 1)
            j = self._parse_block(j, depth + 1)
            while texts[j] == "catch":
                self.counts[ConstructKind.CATCH_CLAUSE] += 1
                body = self._skip_parens(j + 1)
                self._parse_catch_params(j + 2)
                self._record_scope(depth + 1)
                j = self._parse_block(body, depth + 1)
            if texts[j] == "finally":
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
            if t != "assert" and self.kinds[i + 1] == "ident":
                self.skip.add(i + 1)  # break/continue label, not a variable
            j = self._skip_to_semicolon(i + 1)
            self.statements.append(_Stmt(t, i, j))
            return j
        # The last of _STATEMENT_STARTS: 'synchronized'.
        self.statements.append(_Stmt("synchronized", i, -1))
        j = self._skip_parens(i + 1)
        self._record_scope(depth + 1)
        return self._parse_block(j, depth + 1)

    def _colon(self, i: int, stop: int) -> int | None:
        """The index of the first ':' from i on that ends no '?' ternary,
        outside parentheses and brackets; None at a ';' or at stop."""
        texts = self.texts
        pending_ternary = 0
        while i < stop:
            t = texts[i]
            if t in ("(", "["):
                i = self._close(i)
            elif t == ";":
                return None
            elif t == "?":
                pending_ternary += 1
            elif t == ":":
                if not pending_ternary:
                    return i
                pending_ternary -= 1
            i += 1
        return None

    def _parse_for_header(self, start: int, close: int) -> None:
        """Classify a for header; declare loop variables and mark type tokens."""
        texts = self.texts
        colon = self._colon(start, close)
        if colon is not None:
            j, te = self._declaration_head(start)
            if te is not None and self.kinds[te] == "ident" and te + 1 == colon:
                self.skip.update(range(j, te))
                self.names.add(texts[te])
            return
        # Classic for: init; condition; update, with no ';' inside brackets
        # (an anonymous body is a hole, not part of the view).
        semicolons = 0
        i = start
        while i < close:
            t = texts[i]
            if t in ("(", "[", "{"):
                i = self._close(i)
            elif t == ";":
                semicolons += 1
            i += 1
        if semicolons != 2:
            raise self._err(f"for header has {semicolons} ';', not 2", start - 1)
        # The init clause may be a declaration.
        if texts[start] != ";":
            self._try_parse_declaration(start, stop=close)

    def _parse_resources(self, start: int, close: int) -> None:
        """Declare the variables of a try-with-resources header; a resource
        that is not a declaration is left to the expression pass."""
        i = start
        while i is not None and i < close:
            i = self._try_parse_declaration(i, stop=close)

    def _parse_catch_params(self, start: int) -> None:
        i, te = self._declaration_head(start)
        while te is not None:  # the alternatives of a multi-catch, then the name
            self.skip.update(range(i, te))
            if self.texts[te] != "|":
                if self.kinds[te] == "ident":
                    self.names.add(self.texts[te])
                return
            i = te + 1
            te = skip_type_ref(self.texts, self.kinds, i)

    def _declaration_head(self, i: int) -> tuple[int, int | None]:
        """(type start, type end or None) of the local, loop, resource or
        catch variable declared at i, past its 'final' and annotations."""
        texts, kinds = self.texts, self.kinds
        i = skip_annotations(texts, kinds, i)
        while texts[i] == "final":
            i = skip_annotations(texts, kinds, i + 1)
        return i, skip_type_ref(texts, kinds, i)

    def _try_parse_declaration(self, i: int, stop: int | None = None) -> int | None:
        """Parse a local variable declaration; returns end index or None."""
        texts, kinds = self.texts, self.kinds
        i, te = self._declaration_head(i)
        if te is None or kinds[te] != "ident":
            return None
        nxt = texts[te + 1]
        if nxt not in ("=", ";", ",") and not (nxt == "[" and texts[te + 2] == "]"):
            return None
        self.skip.update(range(i, te))
        j = te
        while True:
            if kinds[j] != "ident":
                raise self._err("malformed declaration", j)
            self.names.add(texts[j])
            j += 1
            while texts[j] == "[" and texts[j + 1] == "]":
                self.skip.update((j, j + 1))
                j += 2
            if texts[j] == "=":
                j = self._skip_initializer(j + 1, stop)
            t = texts[j]
            if t == ",":
                j += 1
                continue
            if t == ";":
                return j + 1
            if stop is not None and (j >= stop or t == ")"):
                return j
            raise self._err("malformed declaration", j)

    def _skip_initializer(self, i: int, stop: int | None) -> int:
        texts = self.texts
        end = self.n + 1 if stop is None else min(stop, self.n + 1)
        while i < end:
            t = texts[i]
            if t not in _INITIALIZER_STOPS:
                i += 1
            elif t in (",", ";", ")", "]", "}"):
                return i
            elif t in ("(", "[", "{"):
                i = self._close(i) + 1
            elif t in _STATEMENT_KEYWORDS:
                raise self._err("missing ';'", i - 1)
            elif t == "new":  # protect the commas of the created type's arguments
                i = skip_type_ref(texts, self.kinds, i + 1) or i + 1
            elif t == "<" and texts[i - 1] == ".":
                i = skip_type_arguments(texts, self.kinds, i) or i + 1
            else:
                i += 1
        return i

    # -- expression pass ---------------------------------------------------

    def _expression_pass(self) -> None:
        chain_at_close: dict[int, int] = {}
        texts, kinds, counts, skip, names = self.texts, self.kinds, self.counts, self.skip, self.names
        n = self.n
        i = 1
        while i <= n:
            if i in skip:
                i += 1
                continue
            t = texts[i]
            kind = kinds[i]
            if kind == "ident":
                prev = texts[i - 1]
                if texts[i + 1] == "(":
                    counts[ConstructKind.METHOD_INVOCATION] += 1
                    chain = 1
                    if prev == "." and texts[i - 2] == ")" and (i - 2) in chain_at_close:
                        chain = chain_at_close[i - 2] + 1
                    chain_at_close[self._close(i + 1)] = chain
                    if chain > self.max_chain:
                        self.max_chain = chain
                elif prev not in (".", "::") and t not in names:
                    if (t[0].islower() or t[0] in "_$") and (texts[i + 1] != "." or not self._package_like(i)):
                        names.add(t)
                i += 1
                continue
            if kind == "string":
                counts[ConstructKind.STRING_LITERAL] += 1
                i += 1
                continue
            if kind == "keyword":
                if t == "new":
                    i = self._scan_creation_expr(i)
                    continue
                if t in ("this", "super") and texts[i + 1] == "(":
                    counts[ConstructKind.METHOD_INVOCATION] += 1
                    if self.max_chain < 1:
                        self.max_chain = 1
                elif t == "instanceof":
                    counts[ConstructKind.INSTANCEOF_EXPRESSION] += 1
                    te = skip_type_ref(texts, kinds, i + 1)
                    if te is not None:
                        skip.update(range(i + 1, te))
                elif t == "null":
                    counts[ConstructKind.NULL_LITERAL] += 1
                i += 1
                continue
            # Operators and punctuation; most count whatever their context.
            counted = _OPERATOR_COUNTS.get(t)
            if counted is not None:
                counts[counted] += 1
            elif t not in _CONTEXT_OPERATORS:
                pass
            elif t == "(":
                if self._is_cast(i):
                    counts[ConstructKind.CAST_EXPRESSION] += 1
                    close = i + self.partner[i]
                    skip.update(range(i + 1, close + 1))
            elif t == "?":
                if texts[i - 1] not in ("<", ","):
                    counts[ConstructKind.TERNARY_OPERATION] += 1
            elif t == "==" or t == "!=":
                counts[ConstructKind.COMPARISON_OPERATOR] += 1
                if texts[i - 1] == "null" or texts[i + 1] == "null":
                    counts[ConstructKind.NULL_CHECK] += 1
            elif t == "<":
                if texts[i - 1] == ".":
                    skipped = skip_type_arguments(texts, kinds, i)
                    if skipped is not None:
                        skip.update(range(i, skipped))
                        i = skipped
                        continue
                counts[ConstructKind.COMPARISON_OPERATOR] += 1
            elif t == "&&" or t == "||":
                counts[ConstructKind.LOGICAL_OPERATOR] += 1
                self.short_circuit += 1
            elif t == "[":
                if (
                    texts[i + 1] != "]"
                    and (kinds[i - 1] in ("ident", "string") or texts[i - 1] in (")", "]"))
                    and (i - 1) not in skip
                ):
                    counts[ConstructKind.ARRAY_ACCESS] += 1
            elif t == "@":  # an annotation, with its arguments, is no code
                j = skip_annotations(texts, kinds, i)
                if j > i:
                    i = j
                    continue
            elif kinds[i - 1] in _OPERAND_END_KINDS or texts[i - 1] in _OPERAND_END_TEXTS:  # + - * / %
                if (i - 1) not in skip:
                    counts[ConstructKind.ARITHMETIC_INFIX_OP] += 1
            i += 1

    def _package_like(self, i: int) -> bool:
        """True when the token at i roots a dotted chain that reaches a
        capitalized segment, i.e. a package/class qualifier rather than a
        variable."""
        texts, kinds = self.texts, self.kinds
        j = i
        while texts[j + 1] == "." and kinds[j + 2] == "ident":
            j += 2
            if texts[j][0].isupper():
                return True
        return False

    def _scan_creation_expr(self, i: int) -> int:
        """Handle a 'new' token; marks type tokens, counts the creation."""
        te = skip_type_ref(self.texts, self.kinds, i + 1)
        if te is None:
            return i + 1
        self.skip.update(range(i + 1, te))
        k = skip_annotations(self.texts, self.kinds, te)  # as in new int @A [n]
        if self.texts[k] == "[":
            self.counts[ConstructKind.ARRAY_CREATION] += 1
            while self.texts[k] == "[":
                self.skip.add(k)
                k = skip_annotations(self.texts, self.kinds, self._close(k) + 1)
        elif self.texts[te] == "(":
            self.counts[ConstructKind.OBJECT_CREATION] += 1
        return te

    def _is_cast(self, i: int) -> bool:
        texts, kinds = self.texts, self.kinds
        close = self._partner(i)
        if close is None or close == i + 1:
            return False
        if kinds[i - 1] in _OPERAND_END_KINDS or texts[i - 1] in (")", "]"):
            return False
        if skip_type_ref(texts, kinds, i + 1) != close:
            return False
        return kinds[close + 1] in _OPERAND_END_KINDS or texts[close + 1] in _CAST_FOLLOWERS_TEXTS
