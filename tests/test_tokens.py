import pytest

from lowrisk.errors import JavaParseError
from lowrisk.java.tokens import tokenize


def texts(source):
    return [t.text for t in tokenize(source)]


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def test_keywords_and_identifiers():
    assert kinds("int foo") == [("keyword", "int"), ("ident", "foo")]
    assert kinds("classic class") == [("ident", "classic"), ("keyword", "class")]


def test_numbers():
    assert texts("0 42 0x1F 0b101 1_000 3.14 1e10 2.5f 7L") == [
        "0", "42", "0x1F", "0b101", "1_000", "3.14", "1e10", "2.5f", "7L",
    ]


def test_string_and_char_literals():
    toks = tokenize(r'x = "a \" b" + '
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
    toks = tokenize("a // trailing\n/* block\n comment */ b")
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
    assert [t.col for t in tokenize("x + café")] == [1, 3, 5]


def test_hex_float_keeps_its_binary_exponent():
    assert texts("0x1.8p1 0X1P-3f 0x.8p+2d") == ["0x1.8p1", "0X1P-3f", "0x.8p+2d"]


def test_sign_after_hex_digit_e_is_an_operator():
    assert texts("0x1e+2") == ["0x1e", "+", "2"]
    assert texts("0x1E-2 0xeL") == ["0x1E", "-", "2", "0xeL"]
    assert texts("1e+2 1.5E-3") == ["1e+2", "1.5E-3"]
