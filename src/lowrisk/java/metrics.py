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

The scanner walks a method body once. The statement walk recurses through
the statement structure, producing control-construct counts, scope nesting
depth, declared variable names and the statement list used for category
checks. It hands every expression it meets to one reader, which counts
expression-level constructs, invocation chains and variable identifiers as
it reads, and returns the index of the token that ends the expression; the
statement decides whether that token may end it. After an operand only an
operator, '.', '[' or '::' goes on, so two operands with nothing between
them end the expression, and a statement that does not end there misses a
';'. The reader jumps the types it meets (creations, casts, instanceof,
explicit type arguments) with the parser's grammar
(`structure.skip_type_ref`). Annotations are read only there and before a
declared variable (`structure.skip_annotations`), so an '@' that the reader
meets is an error, and no annotation counts as code.

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
from lowrisk.java.tokens import ASSIGNMENT_OPS, PRIMITIVE_TYPES


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


_PRIMITIVE_OR_VOID = PRIMITIVE_TYPES | {"void"}
# The kinds and texts that may follow a cast's ')' and not a parenthesized
# expression's: the start of an operand other than a sign, '++' or '--'.
_OPERAND_KINDS = {"ident", "number", "string", "char"}
_CAST_FOLLOWERS_TEXTS = {"(", "this", "super", "new", "!", "~", "null", "true", "false"} | _PRIMITIVE_OR_VOID
# Keywords that begin a statement or a part of one, and no expression.
_STATEMENT_KEYWORDS = frozenset(
    """return if else while do for switch case default try catch finally throw break continue
    synchronized assert""".split()
)
# The texts that begin a statement other than a label, a declaration or an expression.
_STATEMENT_STARTS = _STATEMENT_KEYWORDS - {"else", "case", "default", "catch", "finally"} | {";", "{"}
# The binary operators, each with the construct it counts or None.
_INFIX = {
    **dict.fromkeys(("&", "|", "^", "<<", ">>", ">>>")),
    **dict.fromkeys(ASSIGNMENT_OPS, ConstructKind.ASSIGNMENT),
    **dict.fromkeys(("+", "-", "*", "/", "%"), ConstructKind.ARITHMETIC_INFIX_OP),
    **dict.fromkeys(("<", ">", "<=", ">=", "==", "!="), ConstructKind.COMPARISON_OPERATOR),
    **dict.fromkeys(("&&", "||"), ConstructKind.LOGICAL_OPERATOR),
    "?": ConstructKind.TERNARY_OPERATION,
}
# The prefix operators, each with the construct it counts or None; '++' and
# '--' count the same after an operand.
_PREFIX = {
    "!": ConstructKind.LOGICAL_OPERATOR, "++": ConstructKind.INCREMENTATION, "--": ConstructKind.DECREMENTATION,
    **dict.fromkeys(("+", "-", "~")),
}


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
        """The statement walk, then the metrics and the category flags."""
        texts, n = self.texts, self.n
        i = 1
        while i <= n and texts[i] != "}":
            i = self._parse_statement(i, 0)
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

    # -- statement walk ----------------------------------------------------

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

    def _paren_close(self, i: int) -> int:
        """The index of the ')' that matches the '(' at i."""
        if self.texts[i] != "(":
            raise self._err("expected '('", i)
        return self._close(i)

    def _semicolon(self, j: int, what: str = "statement") -> int:
        """The index past the ';' at j that ends a statement or a declaration.
        A closer there, or the body's end after a declaration, makes it
        malformed; any other token means the ';' before it is missing."""
        t = self.texts[j]
        if t == ";":
            return j + 1
        if t in (")", "]", "}") or not t and what == "declaration":
            raise self._err(f"malformed {what}", j)
        raise self._err("missing ';'", j - 1)

    def _parse_statement(self, i: int, depth: int) -> int:
        texts, counts = self.texts, self.counts
        t = kind = texts[i]
        if t not in _STATEMENT_STARTS:  # a label, a local declaration or an expression
            if self.kinds[i] == "ident" and texts[i + 1] == ":":
                return self._parse_statement(i + 2, depth)
            if t in _STATEMENT_KEYWORDS:  # an 'else', 'case', 'catch', ... that no statement takes
                raise self._err(f"unexpected {t!r}", i)
            j = self._declaration(i)
            if j is None:
                kind, j = "expr", self._semicolon(self._expression(i))
            else:
                kind, j = "decl", self._semicolon(j, "declaration")
        elif t == ";":
            return i + 1
        elif t == "{":
            kind = "block"
            self._record_scope(depth + 1)
            j = self._parse_block(i, depth + 1)
        elif t == "if":
            counts[ConstructKind.IF_CONDITION] += 1
            j = self._child(self._within(i + 1), depth + 1)
            if texts[j] == "else":
                counts[ConstructKind.ELSE_BLOCK] += 1
                # else-if chains stay at the parent's nesting level
                j = self._parse_statement(j + 1, depth) if texts[j + 1] == "if" else self._child(j + 1, depth + 1)
        elif t in ("while", "do", "for"):
            kind = "loop"
            counts[ConstructKind.LOOP] += 1
            if t == "while":
                j = self._child(self._within(i + 1), depth + 1)
            elif t == "for":
                close = self._paren_close(i + 1)
                self._parse_for_header(i + 2, close)
                j = self._child(close + 1, depth + 1)
            else:
                j = self._child(i + 1, depth + 1)
                if texts[j] != "while":
                    raise self._err("expected 'while' after do body", j)
                j = self._semicolon(self._within(j + 1))
        elif t == "switch":
            j = self._within(i + 1)
            if texts[j] != "{":
                raise self._err("expected switch block", j)
            self._record_scope(depth + 1)
            j += 1
            while texts[j] != "}":
                if texts[j] == "case":
                    counts[ConstructKind.SWITCH_CASE_BLOCK] += 1
                    colon = self._expressions(j + 1)
                elif texts[j] == "default":
                    colon = j + 1
                else:
                    j = self._parse_statement(j, depth + 1)
                    continue
                if texts[colon] != ":":
                    raise self._err("unterminated case label", j)
                j = colon + 1
            j += 1
        elif t == "try":
            counts[ConstructKind.TRY_BLOCK] += 1
            j = i + 1
            if texts[j] == "(":  # resources: declarations or, as Java 9 allows, expressions
                close = self._close(j)
                j += 1
                while j < close:
                    j = self._declaration(j) or self._expression(j)
                    if j != close:
                        j = self._semicolon(j)
                j += 1
            self._record_scope(depth + 1)
            j = self._parse_block(j, depth + 1)
            while texts[j] == "catch":
                counts[ConstructKind.CATCH_CLAUSE] += 1
                close = self._paren_close(j + 1)
                self._parse_catch_params(j + 2, close)
                j = self._parse_block(close + 1, depth + 1)
            if texts[j] == "finally":
                counts[ConstructKind.FINALLY_BLOCK] += 1
                j = self._parse_block(j + 1, depth + 1)
        elif t == "synchronized":
            j = self._within(i + 1)
            self._record_scope(depth + 1)
            j = self._parse_block(j, depth + 1)
        else:  # return, throw, break, continue or assert, up to a ';'
            j = i + 1
            if t == "return" or t == "throw":
                counts[ConstructKind.RETURN_STATEMENT if t == "return" else ConstructKind.THROW_STATEMENT] += 1
                if t == "throw" or texts[j] != ";":
                    j = self._expression(j)
            elif t == "assert":  # a condition, then maybe ':' and a message
                j = self._expression(j)
                if texts[j] == ":":
                    j = self._expression(j + 1)
            elif self.kinds[j] == "ident":  # the label of a break or continue, which is no variable
                j += 1
            j = self._semicolon(j)
        self.statements.append(_Stmt(kind, i, j))
        return j

    def _parse_for_header(self, start: int, close: int) -> None:
        """Read a for header: a declared variable, ':' and an expression, or
        three clauses, each of which may be empty, between two ';'."""
        texts = self.texts
        te = self._declaration_head(start)
        if te is not None and self.kinds[te] == "ident" and texts[te + 1] == ":":
            self.names.add(texts[te])
            self._ends(self._expression(te + 2), close)
            return
        # Classic for: init; condition; update. No ';' of a method with no
        # lambda is inside brackets there: an anonymous body is a hole.
        semicolons = texts[start:close].count(";")
        if semicolons != 2:
            raise self._err(f"for header has {semicolons} ';', not 2", start - 1)
        j = start
        if texts[j] != ";":  # the init clause: a declaration or expressions
            j = self._declaration(j) or self._expressions(j)
        j = self._semicolon(j)
        if texts[j] != ";":
            j = self._expression(j)
        j = self._semicolon(j)
        self._ends(self._expressions(j) if j != close else j, close)

    def _parse_catch_params(self, start: int, close: int) -> None:
        """Declare the variable of a catch clause, after its type or types, up to its ')' at close."""
        te = self._declaration_head(start)
        while te is not None and self.texts[te] == "|":
            te = skip_type_ref(self.texts, self.kinds, te + 1)
        if te is None or self.kinds[te] != "ident" or te + 1 != close:
            raise self._err("malformed catch parameter", start)
        self.names.add(self.texts[te])

    def _declaration_head(self, i: int) -> int | None:
        """The index past the type of the local, loop, resource or catch
        variable declared at i, past its 'final' and annotations; None when
        no type starts there."""
        texts, kinds = self.texts, self.kinds
        i = skip_annotations(texts, kinds, i)
        while texts[i] == "final":
            i = skip_annotations(texts, kinds, i + 1)
        return skip_type_ref(texts, kinds, i)

    def _declaration(self, i: int) -> int | None:
        """Read the local variable declaration at i, declaring its names; the
        index of the token after it, or None when no declaration starts at i."""
        texts, kinds = self.texts, self.kinds
        te = self._declaration_head(i)
        if te is None or kinds[te] != "ident":
            return None
        nxt = texts[te + 1]
        if nxt not in ("=", ";", ",") and not (nxt == "[" and texts[te + 2] == "]"):
            return None
        j = te
        while True:
            if kinds[j] != "ident":
                raise self._err("malformed declaration", j)
            self.names.add(texts[j])
            j += 1
            while texts[j] == "[" and texts[j + 1] == "]":
                j += 2
            if texts[j] == "=":
                self.counts[ConstructKind.ASSIGNMENT] += 1
                j = self._array_initializer(j + 1) if texts[j + 1] == "{" else self._expression(j + 1)
            if texts[j] != ",":
                return j
            j += 1

    # -- expressions -------------------------------------------------------

    def _expression(self, i: int) -> int:
        """Read the expression at i, counting its constructs, invocation
        chains and variables; the index of the token that ends it, which the
        caller checks. `operand` is True when the last token read ended an
        operand: then an infix or postfix operator, '.', '[' or '::' goes on
        and any other token ends the expression. Brackets are read by
        recursion, so a closer never ends an operand at this level."""
        texts, kinds, counts, names = self.texts, self.kinds, self.counts, self.names
        operand = False
        ternaries = 0  # the '?' read whose ':' is still to come
        chain, chain_close = 0, -1  # the last invocation's chain length and ')'
        while True:
            t = texts[i]
            if operand:
                if t in _INFIX:
                    counted = _INFIX[t]
                    if counted is not None:
                        counts[counted] += 1
                        if t == "&&" or t == "||":
                            self.short_circuit += 1
                        elif t == "==" or t == "!=":
                            if texts[i - 1] == "null" or texts[i + 1] == "null":
                                counts[ConstructKind.NULL_CHECK] += 1
                        elif t == "?":
                            ternaries += 1
                    operand = False
                elif t == ".":
                    i += 1
                    if texts[i] == "<":  # the type arguments of a generic method call
                        i = skip_type_arguments(texts, kinds, i) or i
                    if kinds[i] != "ident" and texts[i] not in ("this", "super", "new", "class"):
                        raise self._err("malformed expression", i)
                    operand = False
                    continue
                elif t == "[":
                    if texts[i + 1] == "]":  # an array type, before '.class' or '::'
                        i += 2
                        continue
                    if kinds[i - 1] in ("ident", "string") or texts[i - 1] in (")", "]"):
                        counts[ConstructKind.ARRAY_ACCESS] += 1
                    i = self._within(i)
                    continue
                elif t == "++" or t == "--":
                    counts[_PREFIX[t]] += 1
                elif t == ":" and ternaries:
                    ternaries -= 1
                    operand = False
                elif t == "instanceof":
                    counts[ConstructKind.INSTANCEOF_EXPRESSION] += 1
                    j = skip_type_ref(texts, kinds, i + 1)
                    if j is None:
                        raise self._err("malformed expression", i + 1)
                    i = j
                    if kinds[i] == "ident":  # a pattern variable, as Java 16 has it
                        names.add(texts[i])
                        i += 1
                    continue
                elif t == "::":  # a method reference
                    if kinds[i + 1] != "ident" and texts[i + 1] != "new":
                        raise self._err("malformed expression", i + 1)
                    i += 2
                    continue
                elif t == "@":
                    raise self._err("annotation in an expression", i)
                elif ternaries:  # a '?' without its ':'
                    raise self._err("malformed expression", i)
                else:
                    return i
                i += 1
                continue
            # An operand, or a prefix operator before one.
            kind = kinds[i]
            if texts[i + 1] == "(" and (kind == "ident" or t == "this" or t == "super"):  # an invocation
                counts[ConstructKind.METHOD_INVOCATION] += 1
                chain = chain + 1 if i - 2 == chain_close and texts[i - 1] == "." else 1
                if chain > self.max_chain:
                    self.max_chain = chain
                i = self._arguments(i + 1)
                chain_close = i - 1
                operand = True
                continue
            if kind == "ident":
                # A variable unless it is a member, a qualifier that reaches a
                # capitalized segment, or itself capitalized.
                if texts[i - 1] != "." and t not in names and (t[0].islower() or t[0] in "_$"):
                    if texts[i + 1] != "." or not self._package_like(i):
                        names.add(t)
            elif kind == "string":
                counts[ConstructKind.STRING_LITERAL] += 1
            elif kind == "number" or kind == "char" or t in ("true", "false", "class", "this", "super"):
                pass
            elif t == "(":
                close = self._close(i)
                if self._is_cast(i, close):
                    counts[ConstructKind.CAST_EXPRESSION] += 1
                    i = close + 1
                    continue
                i = self._within(i)
                operand = True
                continue
            elif t in _PREFIX:
                counted = _PREFIX[t]
                if counted is not None:
                    counts[counted] += 1
                i += 1
                continue
            elif t == "new":
                i = self._creation(i)
                operand = True
                continue
            elif t == "null":
                counts[ConstructKind.NULL_LITERAL] += 1
            elif t in _PRIMITIVE_OR_VOID:  # int.class, int[].class, int[]::clone
                i = skip_type_ref(texts, kinds, i)
                if texts[i] != "::" and (texts[i] != "." or texts[i + 1] != "class"):
                    raise self._err("malformed expression", i)
                operand = True
                continue
            else:
                raise self._err("malformed expression", i)
            operand = True
            i += 1

    def _expressions(self, i: int) -> int:
        """Read the comma-separated expressions from i; the index of the
        token that ends the last."""
        i = self._expression(i)
        while self.texts[i] == ",":
            i = self._expression(i + 1)
        return i

    def _ends(self, j: int, close: int) -> int:
        """The index past the closer at close, where what was read up to j must end."""
        if j != close:
            raise self._err("malformed expression", j)
        return close + 1

    def _within(self, i: int, read=None) -> int:
        """Read the expression (or what `read` reads) between the '(' or '['
        at i and its partner; the index past the partner."""
        if self.texts[i] != "(" and self.texts[i] != "[":
            raise self._err("expected '('", i)
        close = self._close(i)
        return self._ends((read or self._expression)(i + 1), close)

    def _arguments(self, i: int) -> int:
        """Read the argument list whose '(' is at i; the index past its ')'."""
        return i + 2 if self.texts[i + 1] == ")" else self._within(i, self._expressions)

    def _array_initializer(self, i: int) -> int:
        """Read the array initializer whose '{' is at i; the index past its '}'."""
        texts = self.texts
        close = self._close(i)
        j = close if texts[i + 1] == "," and i + 2 == close else i + 1  # '{,}' is empty
        while j < close:
            j = self._array_initializer(j) if texts[j] == "{" else self._expression(j)
            if texts[j] == ",":
                j += 1
            elif j != close:
                raise self._err("malformed expression", j)
        return close + 1

    def _creation(self, i: int) -> int:
        """Read the creation expression whose 'new' is at i and count it; the
        index past it. An anonymous class body is a hole of the view."""
        texts, kinds, counts = self.texts, self.kinds, self.counts
        te = skip_type_ref(texts, kinds, i + 1)
        if te is None:
            raise self._err("malformed expression", i + 1)
        if texts[te] == "(":
            counts[ConstructKind.OBJECT_CREATION] += 1
            return self._arguments(te)
        counts[ConstructKind.ARRAY_CREATION] += 1
        if texts[te] == "{" and texts[te - 1] == "]":
            return self._array_initializer(te)
        # Dimension expressions, then '[]' pairs, each maybe after annotations.
        j = skip_annotations(texts, kinds, te)
        if texts[j] != "[":
            raise self._err("malformed expression", te)
        while texts[j] == "[":
            te = j + 2 if texts[j + 1] == "]" else self._within(j)
            j = skip_annotations(texts, kinds, te)
        return te

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

    def _is_cast(self, i: int, close: int) -> bool:
        """True when the '(' at i, whose partner is at close, opens a cast: a
        type, then an operand that cannot follow a parenthesized expression,
        or, after a primitive type, any operand."""
        texts, kinds = self.texts, self.kinds
        if close == i + 1 or skip_type_ref(texts, kinds, i + 1) != close:
            return False
        if kinds[close + 1] in _OPERAND_KINDS or texts[close + 1] in _CAST_FOLLOWERS_TEXTS:
            return True
        return texts[close - 1] in PRIMITIVE_TYPES and texts[close + 1] in _PREFIX
