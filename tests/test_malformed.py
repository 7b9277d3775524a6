"""Malformed Java ends in a located JavaParseError, never in another exception.

The method-body shapes below used to end in a raw KeyError or
AssertionError from the metric scanner; the fuzz deletes or inserts one
delimiter or ';' in every Java file of the test data.
"""

import random
from pathlib import Path

import pytest

from lowrisk.errors import JavaParseError
from lowrisk.java.analyzer import analyze_source
from lowrisk.java.tokens import tokenize
from tools.javac_verdicts import semicolon_deletions

DATA_DIR = Path(__file__).parent / "data"
JAVA_FILES = sorted(DATA_DIR.rglob("*.java"))


@pytest.mark.parametrize(
    "body, message, col",
    [
        ("foo(;", "unbalanced '('", 25),
        ("a[;", "unbalanced '['", 23),
        ("int x = (1;", "unbalanced '('", 30),
        ("new int[;", "unbalanced '['", 29),
        ("for x;", "expected '('", 26),
        ("try {} catch x {}", "expected '('", 35),
        ("try x;", "expected '{'", 26),
    ],
)
def test_malformed_method_body_is_a_parse_error(body, message, col):
    with pytest.raises(JavaParseError) as err:
        analyze_source("class A { void f() { " + body + " } }", "A.java")
    e = err.value
    assert (str(e), e.file_path, e.line, e.col) == (f"A.java:1:{col}: {message}", "A.java", 1, col)


def test_scanner_errors_carry_file_line_and_column():
    with pytest.raises(JavaParseError) as err:
        analyze_source("class A { void f() { foo() } }", "A.java")
    assert str(err.value) == "A.java:1:26: missing ';'"
    # A scanner error past the last body token points at the body's '}'.
    with pytest.raises(JavaParseError) as err:
        analyze_source("class A {\n  void f() {\n    int x = 1\n  }\n}", "A.java")
    assert str(err.value) == "A.java:4:3: malformed declaration"


@pytest.mark.parametrize(
    "source, text",
    [
        # A declaration without its ';' before a return statement.
        ("class A { int f() { int x = 1\n return x; } }", "A.java:1:29: missing ';'"),
        # An expression statement without its ';' before a return statement.
        ("class A { int f() { g()\n return 1; } }", "A.java:1:23: missing ';'"),
        ("class A { void f() { x = 1\n if (x > 0) g(); } }", "A.java:1:26: missing ';'"),
        ("class A { void f() { if (a) { } else { } else g(); } }", "A.java:1:42: unexpected 'else'"),
    ],
)
def test_a_statement_keyword_inside_a_statement_is_a_missing_semicolon(source, text):
    with pytest.raises(JavaParseError) as err:
        analyze_source(source, "A.java")
    e = err.value
    assert (str(e), e.file_path, e.line, e.col) == (text, "A.java", *map(int, text.split(":")[1:3]))


def test_crossed_delimiters_in_a_body_are_a_parse_error():
    for body in ("a[(];", "f([)];", "x = a);", "y = b];"):
        with pytest.raises(JavaParseError, match="unbalanced delimiter in method body"):
            analyze_source("class A { void f() { " + body + " } }", "A.java")


def mutations(source, rng, inserts):
    """Every deletion of one delimiter or ';', then seeded single insertions."""
    for i, c in enumerate(source):
        if c in "()[]{};":
            yield source[:i] + source[i + 1 :]
    for _ in range(inserts):
        i = rng.randrange(len(source) + 1)
        yield source[:i] + rng.choice("()[]{};") + source[i:]


@pytest.mark.parametrize("path", JAVA_FILES, ids=lambda p: p.name)
def test_one_delimiter_more_or_less_parses_or_is_a_parse_error(path):
    source = path.read_text(encoding="utf-8")
    rng = random.Random(path.name)
    parsed = failed = 0
    for mutant in mutations(source, rng, inserts=200):
        try:
            analyze_source(mutant, path.name, "p")
        except JavaParseError as e:
            assert e.file_path == path.name
            failed += 1
        else:
            parsed += 1
    assert parsed > 0 and failed > 0


@pytest.mark.parametrize(
    "name, text, mutant, message",
    [
        ("corpus/Lambdas.java", "Callable<Integer>", "Callable<In}teger>", "6:20: malformed type-argument list"),
        ("corpus/Lambdas.java", "Callable<Integer>", "Callable<I(nteger>", "6:20: malformed type-argument list"),
        ("corpus/Lambdas.java", "Callable<Integer>", "Callable<I}nteger>", "6:20: malformed type-argument list"),
        ("corpus/Lambdas.java", "Callable<Integer>", "Callable<I[nteger>", "6:20: malformed type-argument list"),
        ("corpus/Lambdas.java", "Callable<Integer>", "Callable<Inte]ger>", "6:20: malformed type-argument list"),
        ("corpus/Lambdas.java", "Callable<Integer>", "Callable<[]>", "6:20: malformed type-argument list"),
        (
            "corpus_extra/Stress.java",
            "new HashMap<String, List<Integer>>()",
            "new HashMap<String, :List<Integer>>()",
            "8:65: malformed expression",
        ),
        ("corpus_extra/Stress.java", "Map<K, V> zip(", "Map<K,: V> zip(", "32:29: malformed type-argument list"),
    ],
)
def test_a_type_argument_list_holds_only_type_tokens(name, text, mutant, message):
    """javac rejects each of these mutants: a type-argument list holds names,
    '?', 'extends', 'super', '&', '[]', '.', ',' and annotations, nothing else.
    In a member's type the error is at the list's '<'."""
    path = DATA_DIR / name
    source = path.read_text(encoding="utf-8")
    assert source.count(text) == 1
    analyze_source(source, path.name)
    with pytest.raises(JavaParseError, match=f"^{path.name}:{message}"):
        analyze_source(source.replace(text, mutant), path.name)


@pytest.mark.parametrize(
    "source, text",
    [
        ("package ;\nclass T {}", "T.java:1:9: malformed package declaration"),
        ("import (x);\nclass T {}", "T.java:1:8: malformed import declaration"),
        ("import static ;\nclass T {}", "T.java:1:15: malformed import declaration"),
        ("import a.*.b;\nclass T {}", "T.java:1:11: missing ';' after import declaration"),
        ("class T {}\nimport a.b;", "T.java:2:1: expected type declaration, found 'import'"),
        ("enum E { A, static B; }", "T.java:1:13: malformed enum constant"),
        ("class T {\n  int a = 1\n  private int b = 2;\n}", "T.java:3:3: missing ';' before 'private'"),
        # A member type whose type-argument list holds a token that cannot be in
        # one fails at the list's '<', as method type parameters do.
        ("class T { java.util.List<S[tring> x; }", "T.java:1:25: malformed type-argument list"),
        ("class T { List<Str]ing> f() { return null; } }", "T.java:1:15: malformed type-argument list"),
        ("class T {\n  @B(x < 1) Map<K, List<V>>.Entry<K[> e;\n}", "T.java:2:34: malformed type-argument list"),
        ("class T { <T[> void f() {} }", "T.java:1:11: malformed type-argument list"),
        ("class T { 3 x; }", "T.java:1:11: expected member declaration, found '3'"),
    ],
)
def test_a_malformed_declaration_outside_a_body_is_located(source, text):
    # Each is rejected by javac's parser too (see tests/data/javac_verdicts.json).
    with pytest.raises(JavaParseError) as err:
        analyze_source(source, "T.java")
    assert str(err.value) == text


@pytest.mark.parametrize(
    "header, text",
    [
        ("(int i = 0 i < n; i++)", "T.java:1:31: for header has 1 ';', not 2"),
        ("(int i = 0; i < n i++)", "T.java:1:31: for header has 1 ';', not 2"),
        ("(i; i < n; i++; i++)", "T.java:1:31: for header has 3 ';', not 2"),
    ],
)
def test_a_classic_for_header_needs_two_semicolons(header, text):
    """Semicolons inside brackets, such as those of an anonymous body or a lambda body, do not count."""
    analyze_source("class T { void f(int n) { for (Runnable r = new Runnable() { public void run() { a(); b(); } };"
                   " n > 0; n--) { } } }", "T.java")
    _, skipped = analyze_source("class T { void f(int n) { for (Runnable r = () -> { a(); b(); }; n > 0; n--) { } } }",
                                "T.java")
    assert [s.identity.method_name for s in skipped] == ["f"]
    with pytest.raises(JavaParseError) as err:
        analyze_source(f"class T {{ void f(int n) {{ for {header} {{ }} }} }}", "T.java")
    assert str(err.value) == text


def _semicolon_deletions():
    for path in JAVA_FILES:
        for line, col, source in semicolon_deletions(path):
            yield pytest.param(path.name, source, id=f"{path.name}:{line}:{col}")


@pytest.mark.parametrize("name, source", list(_semicolon_deletions()))
def test_deleting_one_semicolon_is_a_parse_error(name, source):
    """javac rejects every one of these files; CI checks that with
    tests/tools/javac_verdicts.py --semicolon-deletions."""
    with pytest.raises(JavaParseError):
        analyze_source(source, name)


def test_the_semicolon_deletions_are_those_of_the_tokens():
    for path in JAVA_FILES:
        assert len(semicolon_deletions(path)) == tokenize(path.read_text(encoding="utf-8")).texts.count(";")
