"""The one-pass lexer against the per-position lexer it replaced
(`oracles.tokenize_reference`): the same tokens at the same lines and
columns, or the same LexicalError message and line."""

import random

import pytest

from methodlens.java_extract import LexicalError, tokenize
from oracles import tokenize_reference

PIECES = ["a", "X", "0", "1", ".", '"', '"""', "'", "\\", "/", "*", "/*", "*/", "//", "\n", "\r", "\t",
          "(", ")", "{", "}", "@", "#", "é", "𝄞", ">>", "=", "<", "-", "+", "e", "_", "$", ";", " "]
# pieces that open or are an error on their own, drawn less often so that
# about half of the strings lex
RARE = {'"', '"""', "'", "\\", "#", "/*"}
WEIGHTS = [1 if piece in RARE else 6 for piece in PIECES]


def lex(lexer, source):
    try:
        return [tuple(t[:4]) for t in lexer(source)]
    except LexicalError as err:
        return ("error", str(err), err.line)


def test_random_strings_lex_as_the_reference_lexer_does():
    rng = random.Random(20240501)
    outcomes = {"tokens": 0, "error": 0}
    for _ in range(4000):
        source = "".join(rng.choices(PIECES, WEIGHTS, k=rng.randrange(0, 40)))
        expected = lex(tokenize_reference, source)
        assert lex(tokenize, source) == expected, repr(source)
        outcomes["error" if isinstance(expected, tuple) else "tokens"] += 1
    assert min(outcomes.values()) > 1000, outcomes


@pytest.mark.parametrize("source, message", [
    ('"""abc\\"""', "line 1: unterminated string literal"),  # closes, but only through an escape
    ('"""abc', "line 1: unterminated text block"),
    ("/*/ x", "line 1: unterminated block comment"),
    ("x /* y", "line 1: unterminated block comment"),
    ('a\n\n"b', "line 3: unterminated string literal"),
    ("a\n'b", "line 2: unterminated character literal"),
    ("a\n/* b */ # c", "line 2: unexpected character '#'"),
])
def test_pinned_lexical_errors(source, message):
    assert lex(tokenize_reference, source) == ("error", message, int(message.split()[1][:-1]))
    assert lex(tokenize, source) == lex(tokenize_reference, source)


def test_multiline_tokens_report_their_line_count_and_the_next_column():
    source = 'x = """\n  a\n  """; /* b\n c */ y "d\\\ne" z'
    assert lex(tokenize, source) == lex(tokenize_reference, source)
    assert [(t.text, t.line_count) for t in tokenize(source) if t.line_count > 1] == [
        ('"""\n  a\n  """', 3), ("/* b\n c */", 2), ('"d\\\ne"', 2)]
    assert all(t.line_count == t.text.count("\n") + 1 for t in tokenize(source))


@pytest.mark.parametrize("source", [
    "int a;  \t\f",  # blanks at the end of a line
    "int a; \t\f\nint b;\t \n",
    "   \t\f ",  # a line of blanks only
    "a\n \t \nb\n  \n",
    "a\rb \r c\r",  # a carriage return inside a line
    "/* x */ \r y\r\n z",
    "int a =  \x0b 1;",  # an unexpected character after blanks
    "a\n  \t# b",  # a stray character after blanks, on line 2
    "a\n/* b */  \f`",
    # a whitespace run that holds several newlines, in context: the lex
    # resumes at the start of the line after the last of them
    "x /* a */  \n\n \t\n  y = 1;\n z",
    "x /* a */  \n\n \t\n  y = 1;\n\"z",
    's = """\n  a\n  """;  \t\n\n\f\n    t = "u";',
    "/* a\n b */ \n \n\t c /* d */ \n\n e",
])
def test_blanks_and_newline_runs_lex_as_the_reference_does(source):
    assert lex(tokenize, source) == lex(tokenize_reference, source)
