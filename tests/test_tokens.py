import random
import re
from itertools import product
from pathlib import Path

import pytest
from oracles import LEXER_OPERATORS, LEXER_SINGLE_OPS, Token, reference_tokenize

from lowrisk.errors import JavaParseError
from lowrisk.java.analyzer import analyze_source
from lowrisk.java import tokens
from lowrisk.java.tokens import token_columns, tokenize

DATA_DIR = Path(__file__).parent / "data"


def token_list(source, file_path=None):
    """tokenize's columns as Token tuples, with the columns from token_columns."""
    toks = tokenize(source, file_path)
    cols = token_columns(toks.source)
    return [Token(toks.kinds[i], toks.texts[i], toks.lines[i], next(cols)) for i in range(1, len(toks) + 1)]


def texts(source):
    return [t.text for t in token_list(source)]


def kinds(source):
    return [(t.kind, t.text) for t in token_list(source)]


def test_columns_are_padded_with_sentinels():
    toks = tokenize("a = b;\n")
    assert len(toks) == 4
    assert toks.texts == ["", "a", "=", "b", ";", "", ""]
    assert toks.kinds == ["", "ident", "op", "ident", "op", "", ""]
    assert toks.lines == [0, 1, 1, 1, 1, 0, 0]
    assert len(tokenize("")) == 0 and tokenize(" // c").texts == ["", "", ""]


def test_keywords_and_identifiers():
    assert kinds("int foo") == [("keyword", "int"), ("ident", "foo")]
    assert kinds("classic class") == [("ident", "classic"), ("keyword", "class")]


def test_numbers():
    assert texts("0 42 0x1F 0b101 1_000 3.14 1e10 2.5f 7L") == [
        "0", "42", "0x1F", "0b101", "1_000", "3.14", "1e10", "2.5f", "7L",
    ]


def test_string_and_char_literals():
    toks = token_list(r'x = "a \" b" + '
                      r"'\''" + ";")
    assert [t.kind for t in toks] == ["ident", "op", "string", "op", "char", "op"]
    assert toks[2].text == r'"a \" b"'


def test_maximal_munch_operators():
    assert texts("a >>>= b >>> c >> d >= e > f") == [
        "a", ">>>=", "b", ">>>", "c", ">>", "d", ">=", "e", ">", "f",
    ]
    assert texts("i++ + ++j") == ["i", "++", "+", "++", "j"]
    assert texts("a->b::c") == ["a", "->", "b", "::", "c"]
    assert texts("void f(int... xs)") == ["void", "f", "(", "int", "...", "xs", ")"]


def test_comments_are_stripped_and_lines_tracked():
    toks = token_list("a // trailing\n/* block\n comment */ b")
    assert [t.text for t in toks] == ["a", "b"]
    assert toks[0].line == 1
    assert toks[1].line == 3


def test_unterminated_literals_raise():
    with pytest.raises(JavaParseError):
        tokenize('"open')
    with pytest.raises(JavaParseError):
        tokenize("/* open")
    with pytest.raises(JavaParseError) as err:
        tokenize("a\n  'x", file_path="Foo.java")
    assert "Foo.java" in str(err.value)


def test_unexpected_character():
    with pytest.raises(JavaParseError):
        tokenize("int § = 1;")
    with pytest.raises(JavaParseError):
        tokenize("int \u0661x = 1;")  # a digit cannot start an identifier


def test_non_ascii_identifiers():
    assert kinds("int café;") == [("keyword", "int"), ("ident", "café"), ("op", ";")]
    assert texts("éa = aéb + café2 + inté") == ["éa", "=", "aéb", "+", "café2", "+", "inté"]
    assert [t.col for t in token_list("x + café")] == [1, 3, 5]


def test_hex_float_keeps_its_binary_exponent():
    assert texts("0x1.8p1 0X1P-3f 0x.8p+2d") == ["0x1.8p1", "0X1P-3f", "0x.8p+2d"]


def test_sign_after_hex_digit_e_is_an_operator():
    assert texts("0x1e+2") == ["0x1e", "+", "2"]
    assert texts("0x1E-2 0xeL") == ["0x1E", "-", "2", "0xeL"]
    assert texts("1e+2 1.5E-3") == ["1e+2", "1.5E-3"]


def test_backslash_before_newline_leaves_a_literal_unterminated():
    # javac rejects a line break inside a literal, escaped or not; accepting
    # it would put every later token one line too low.
    with pytest.raises(JavaParseError) as err:
        tokenize('a = "x\\\ny";\nb;', file_path="Lit.java")
    assert (str(err.value), err.value.line, err.value.col) == (
        "Lit.java:1:5: unterminated string literal", 1, 5,
    )
    with pytest.raises(JavaParseError) as err:
        tokenize("a;\n  c = '\\\n';", file_path="Lit.java")
    assert (str(err.value), err.value.line, err.value.col) == (
        "Lit.java:2:7: unterminated character literal", 2, 7,
    )


def test_a_final_ctrl_z_is_ignored():
    assert token_list("x\x1a") == [Token("ident", "x", 1, 1)]
    assert token_list("a;\n\x1a") == [Token("ident", "a", 1, 1), Token("op", ";", 1, 2)]
    assert token_list("/* c */ \x1a") == [] and token_list("\x1a") == []
    with pytest.raises(JavaParseError, match="unterminated block comment"):
        tokenize("/* open\x1a")


def test_a_lone_carriage_return_ends_a_line():
    assert [(t.text, t.line, t.col) for t in token_list("a;\rb;")] == [
        ("a", 1, 1), (";", 1, 2), ("b", 2, 1), (";", 2, 2),
    ]
    source = 'a; // note\n/* two\n lines */ b\n  "s" + \'c\';\n\n  d;'
    lf = token_list(source)
    assert [t.line for t in lf] == [1, 1, 3, 4, 4, 4, 4, 6, 6]
    assert token_list(source.replace("\n", "\r\n")) == lf
    assert token_list(source.replace("\n", "\r")) == lf
    for bad in ('x = "a\rb";', 'x = "a\\\rb";', "c = '\r';", "c = '\\\r';"):
        with pytest.raises(JavaParseError, match="unterminated") as err:
            tokenize(bad)
        assert (err.value.line, err.value.col) == (1, 5)


@pytest.mark.parametrize(
    "source, message, line, col",
    [
        ("a;\n  /* open\nb;", "unterminated block comment", 2, 3),
        ("a; /*", "unterminated block comment", 1, 4),
        ('x = "open;\ny = 1;', "unterminated string literal", 1, 5),
        ('x;\ny = "open', "unterminated string literal", 2, 5),
        ("c = 'ab;\nd;", "unterminated character literal", 1, 5),
        ("c;\n\td = '", "unterminated character literal", 2, 6),
        ('s = "abc\\', "unterminated string literal", 1, 5),
        ("a \\ b;", "unexpected character '\\\\'", 1, 3),
        ("a;\n b\\", "unexpected character '\\\\'", 2, 3),
        ("#define X\nint a;", "unexpected character '#'", 1, 1),
        ("x #", "unexpected character '#'", 1, 3),
        ("int \u00a7 = 1;", "unexpected character '\u00a7'", 1, 5),
        ("x\n\u00a7", "unexpected character '\u00a7'", 2, 1),
        ("int \u0661x = 1;", "unexpected character '\u0661'", 1, 5),
        ("y /* c\n */ \u0661x", "unexpected character '\u0661'", 2, 5),
        # Only a Ctrl-Z that ends the source is ignored (JLS 3.5).
        ("x\x1a\x1a", "unexpected character '\\x1a'", 1, 2),
        ("\x1ax", "unexpected character '\\x1a'", 1, 1),
        ("x\x1a\n", "unexpected character '\\x1a'", 1, 2),
        ("a;\n  \x1a b;\x1a", "unexpected character '\\x1a'", 2, 3),
    ],
)
def test_lexer_error_table(source, message, line, col):
    with pytest.raises(JavaParseError) as err:
        tokenize(source, file_path="T.java")
    e = err.value
    assert (str(e), e.line, e.col, e.file_path) == (f"T.java:{line}:{col}: {message}", line, col, "T.java")


def outcome(lexer, source):
    """A lexer's token list, or the parts of the error it raised.

    Both reference_tokenize and token_list return Token tuples, so kind,
    text, line and column of every token are compared.
    """
    try:
        return lexer(source, "Soup.java")
    except JavaParseError as e:
        return (str(e), e.line, e.col, e.file_path)


JAVA_FILES = sorted(DATA_DIR.rglob("*.java"))


@pytest.mark.parametrize("path", JAVA_FILES, ids=lambda p: p.name)
def test_data_files_lex_as_the_reference_lexer_does(path):
    source = path.read_text(encoding="utf-8")
    assert token_list(source, path.name) == reference_tokenize(source, path.name)


def test_every_data_file_is_compared():
    assert {p.name for p in JAVA_FILES} >= {"Accounts.java", "Lambdas.java", "Stress.java"}
    assert len(JAVA_FILES) >= 6


def _analysis(source):
    """analyze_source's methods, or the parts of the error it raised."""
    try:
        return analyze_source(source, "Ends.java", "p")
    except JavaParseError as e:
        return (str(e), e.line, e.col)


@pytest.mark.parametrize("path", JAVA_FILES, ids=lambda p: p.name)
def test_analysis_is_the_same_for_every_line_ending(path):
    source = path.read_text(encoding="utf-8")
    broken = source.replace("{", "{ #", 3)  # an error on a later line
    for text in (source, broken):
        lf = _analysis(text)
        assert _analysis(text.replace("\n", "\r\n")) == lf
        assert _analysis(text.replace("\n", "\r")) == lf
    assert isinstance(_analysis(broken), tuple)


SOUP_PIECES = (
    LEXER_OPERATORS
    + sorted(LEXER_SINGLE_OPS)
    + ["//", "/*", "*/", "/**/", '"', "'", '"s"', "'c'", "\\", "\\n", "\\\\"]
    + [" ", " ", "\t", "\r", "\f", "\n", "\n", "\r\n"]
    + ["0x", "0X1P-3f", "1e+", "1", "0", ".5", "e", "p", "L", "f", "_", "$", "...", ".."]
    + ["a", "ab", "int", "class", "x9"]
    + ["\u00e9", "\u03c0", "\u53d8", "\u0301", "\u00b7"]
    + ["\u20ac", "\u2028", " \u0661x", "\u0661", "\x1a"]
)
# Most soups with a quote or a lone backslash end in an error; soups drawn
# without them reach the end of input often enough to compare token lists.
_ERROR_PRONE = {'"', "'", "\\", "\\\\", "/*", "\u20ac", "\u2028", " \u0661x", "\u0661", "\x1a"}
CALM_PIECES = [p for p in SOUP_PIECES if p not in _ERROR_PRONE]


@pytest.mark.parametrize("seed", range(4))
def test_random_soups_lex_as_the_reference_lexer_does(seed):
    rng = random.Random(seed)
    ok = failed = 0
    for _ in range(5000):
        pieces = SOUP_PIECES if rng.random() < 0.5 else CALM_PIECES
        source = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
        if rng.random() < 0.25:
            source += rng.choice([" ", "\t", " \r\f", "\n  ", "\x1a"])
        expected = outcome(reference_tokenize, source)
        assert outcome(token_list, source) == expected, repr(source)
        if isinstance(expected, list):
            ok += 1
        else:
            failed += 1
    # Both outcomes must be common, or the comparison would check little.
    assert ok > 1000 and failed > 1000


def test_the_word_classes_hold_the_code_points_of_the_plain_ranges():
    """The negated word classes hold the code points of the classes that name
    the non-ASCII range, which re compiles by walking U+0080 to U+FFFF."""
    plain_start = re.compile("[A-Za-z_$\x80-\U0010ffff]")
    plain_part = re.compile("[0-9A-Za-z_$\x80-\U0010ffff]")
    start, part = re.compile(tokens._WORD_START), re.compile(tokens._WORD_PART)
    for c in [*map(chr, range(0x80)), "\x80", "\uffff", "\U00010000", "\U0010ffff"]:
        assert bool(start.fullmatch(c)) == bool(plain_start.fullmatch(c)), repr(c)
        assert bool(part.fullmatch(c)) == bool(plain_part.fullmatch(c)), repr(c)


def test_every_run_of_operator_characters_lexes_as_the_reference_lexer_does():
    """Maximal munch: all runs of up to three operator characters, and of up
    to four of the characters in the longest operators."""
    runs = [run for n in range(1, 4) for run in product("=<>!~?:&|+-*/^%.", repeat=n)]
    runs += [run for run in product("<>=.-", repeat=4)]
    for run in map("".join, runs):
        assert outcome(token_list, run) == outcome(reference_tokenize, run), repr(run)
