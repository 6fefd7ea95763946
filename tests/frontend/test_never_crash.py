"""Property test: the frontend never crashes on malformed source.

``compile_source`` is fed corpus programs with a span deleted,
duplicated or spliced in from another program, and function bodies of
token soup.  Whatever the input, the only exceptions that may escape
are the frontend's own: ``LexerError``, ``ParseError``, ``SemaError``
and ``LoweringError``.  Any other exception (a ``ValueError`` out of a
literal conversion, a ``KeyError`` out of the lowering) is a crash.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import (
    LexerError,
    LoweringError,
    ParseError,
    SemaError,
    compile_source,
)
from repro.workloads.corpus import all_programs

FRONTEND_ERRORS = (LexerError, ParseError, SemaError, LoweringError)

SOURCES = [program.source for program in all_programs()]

#: Token soup vocabulary: every token kind, and literals the lexer
#: takes whole but no conversion accepts.
SOUP = (
    "int", "double", "void", "const", "if", "else", "for", "while",
    "return", "break", "continue", "x", "y", "a", "f", "sqrt",
    "0", "7", "1.5", "2e3", "0e", "1e+", "3.0e-",
    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "!", "~",
    "<", "<=", "==", "!=", "&&", "||", "?", ":", "=", "+=", "++",
    "(", ")", "[", "]", "{", "}", ",", ";",
)


def compiles_or_rejects(source: str) -> None:
    try:
        compile_source(source)
    except FRONTEND_ERRORS:
        pass


@st.composite
def mutated_corpus_sources(draw):
    source = draw(st.sampled_from(SOURCES))
    start = draw(st.integers(0, len(source)))
    end = draw(st.integers(start, min(len(source), start + 200)))
    kind = draw(st.sampled_from(("delete", "duplicate", "splice")))
    if kind == "delete":
        return source[:start] + source[end:]
    if kind == "duplicate":
        return source[:end] + source[start:end] + source[end:]
    donor = draw(st.sampled_from(SOURCES))
    at = draw(st.integers(0, len(donor)))
    return source[:start] + donor[at:at + end - start] + source[end:]


@st.composite
def token_soup_functions(draw):
    statements = draw(st.lists(
        st.tuples(
            st.sampled_from(("", "return ", "x = ", "a[x] += ")),
            st.lists(st.sampled_from(SOUP), min_size=1, max_size=8),
        ),
        min_size=1, max_size=4,
    ))
    body = " ".join(lead + " ".join(tokens) + ";"
                    for lead, tokens in statements)
    return (
        "double a[8];\n"
        f"int f(int x, double y) {{ {body} }}\n"
        "int main(void) { return f(1, 2.0); }\n"
    )


@given(mutated_corpus_sources())
@settings(max_examples=150, deadline=None)
def test_mutated_corpus_sources_never_crash(source):
    compiles_or_rejects(source)


@given(token_soup_functions())
@settings(max_examples=300, deadline=None)
def test_token_soup_never_crashes(source):
    compiles_or_rejects(source)


@pytest.mark.parametrize("literal", ["0e", "1e+", "3.0e-"])
def test_dangling_exponent_is_a_parse_error_with_position(literal):
    with pytest.raises(ParseError, match=r"^2:12: malformed float literal"):
        compile_source(f"int f(void) {{\n    return {literal};\n}}\n")
