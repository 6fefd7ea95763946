"""The regex lexer against the character-at-a-time reference scanner.

Both must produce the same ``(kind, text, line, column)`` tokens, and
on malformed input the same ``LexerError`` at the same ``line:column``,
on the corpus and on random text that mixes ASCII, non-ASCII letters
and the numeric characters where ``isalpha``/``isdigit`` and the regex
classes part ways.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lexer
from repro.frontend import LexerError, Token, tokenize
from repro.workloads.corpus import all_programs

PROGRAMS = all_programs()


def lex(tokenizer, source):
    """Tokens as plain tuples, or the error's ``(message, line, col)``."""
    try:
        return [tuple(token) for token in tokenizer(source)]
    except LexerError as exc:
        return ("error", str(exc), exc.line, exc.column)


def test_corpus_is_the_forty_programs():
    assert len(PROGRAMS) == 40


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_corpus_tokens_match_reference(program):
    expected = lex(reference_lexer.tokenize, program.source)
    assert isinstance(expected, list)
    assert lex(tokenize, program.source) == expected


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_corpus_errors_match_reference(program):
    """A stray character, and an unclosed comment, at several places
    in every program: same message, same ``line:column``."""
    source = program.source
    errors = 0
    for fraction in (0.1, 0.5, 0.9):
        cut = int(len(source) * fraction)
        for insert in ("@", "`", "\u00a0", "/* never closed"):
            broken = source[:cut] + insert + source[cut:]
            expected = lex(reference_lexer.tokenize, broken)
            errors += expected[0] == "error"  # not inside a comment
            assert lex(tokenize, broken) == expected
    assert errors >= 4


#: Characters where a careless regex translation of ``isalpha``,
#: ``isalnum`` and ``isdigit`` would go wrong: letters outside ASCII,
#: a CJK numeral that is also a letter, non-decimal digits
#: (superscript, circled, fractions), a Roman numeral, a decimal
#: digit from another script and a no-break space.
TRICKY = "éßΩж一²①½Ⅻ٣\u00a0"
ALPHABET = st.sampled_from(
    list("abexyzEX_0189 \t\r\n.+-*/%<>=!&|^~?:;,(){}[]$@'\"")
    + list(TRICKY)
)
FRAGMENTS = st.sampled_from([
    "int", "double", "for", "while", "return", "continue", "const",
    "//", "/*", "*/", "1e", "2.5e-3", ".5", "<<=", ">>=", "&&", "++",
])
TEXT = st.lists(st.one_of(ALPHABET, FRAGMENTS, st.characters()),
                max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(TEXT)
def test_random_text_matches_reference(source):
    assert lex(tokenize, source) == lex(reference_lexer.tokenize, source)


def test_non_ascii_identifiers_and_numbers():
    assert [tuple(t)[:2] for t in tokenize("café x² 3² 一")[:-1]] \
        == [("ident", "café"), ("ident", "x²"), ("int", "3²"),
            ("ident", "一")]
    with pytest.raises(LexerError, match="1:12: unexpected character"):
        tokenize("café x² 3² ½")


def test_token_is_a_value():
    token = tokenize("sum")[0]
    assert token == Token("ident", "sum", 1, 1)
    assert hash(token) == hash(Token("ident", "sum", 1, 1))
    assert (token.kind, token.text, token.line, token.column) \
        == ("ident", "sum", 1, 1)
    assert token.is_keyword("sum") is False
    assert tokenize("for")[0].is_keyword("for")
    assert tokenize("+=")[0].is_op("+=")
    assert repr(token) == "Token(kind='ident', text='sum', line=1, column=1)"
    with pytest.raises(AttributeError):
        token.text = "other"
