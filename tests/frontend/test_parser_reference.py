"""The precedence-climbing parser against the recursive reference.

Both must build equal trees (node types, operators, operands and line
numbers) on the corpus, on generated program sets and on random
expressions drawn from a grammar over every binary operator, the
prefix operators, casts, parentheses and the ternary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from repro.frontend import ParseError, Parser, parse
from repro.frontend.parser import _LEVELS
from repro.workloads.corpus import all_programs

BINARY_OPS = [op for level in _LEVELS for op in level]


@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_corpus_trees_match_reference(program):
    assert parse(program.source) == reference_parser.parse(program.source)


@pytest.mark.parametrize("seed", [0, 7, 4242])
def test_generated_trees_match_reference(generator, seed):
    for program in generator.generate(seed):
        assert parse(program.source) == \
            reference_parser.parse(program.source), program.name


LEAVES = st.sampled_from(["a", "b", "n", "0", "7", "2.5", "a[i]",
                          "m[i][j]", "f(a, b)", "g()"])


def compose(children):
    """One grammar step over already-rendered sub-expressions."""
    return st.one_of(
        st.tuples(children, st.sampled_from(BINARY_OPS), children).map(
            lambda t: f"{t[0]} {t[1]} {t[2]}"),
        st.tuples(st.sampled_from(["-", "!", "~"]), children).map(
            lambda t: f"{t[0]} {t[1]}"),
        st.tuples(st.sampled_from(["int", "double", "long", "float"]),
                  children).map(lambda t: f"({t[0]}) {t[1]}"),
        children.map(lambda c: f"({c})"),
        st.tuples(children, children, children).map(
            lambda t: f"{t[0]} ? {t[1]} : {t[2]}"),
        st.tuples(children, children).map(lambda t: f"a[{t[0]}][{t[1]}]"),
        st.lists(children, max_size=3).map(
            lambda args: f"h({', '.join(args)})"),
    )


EXPRESSIONS = st.recursive(LEAVES, compose, max_leaves=24)


def parse_alone(parser_class, text):
    """The expression's tree, or the error text; the whole input must
    be consumed."""
    parser = parser_class(text)
    try:
        expr = parser.parse_expr()
    except ParseError as exc:
        return ("error", str(exc))
    return expr, parser.current.kind


@settings(max_examples=500, deadline=None)
@given(EXPRESSIONS)
def test_random_expressions_match_reference(text):
    expected = parse_alone(reference_parser.ReferenceParser, text)
    assert expected[1] == "eof"
    assert parse_alone(Parser, text) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(LEAVES, st.sampled_from(
    BINARY_OPS + ["-", "!", "~", "(", ")", "?", ":", "(int)", ","])),
    min_size=1, max_size=16).map(" ".join))
def test_random_token_soup_matches_reference(text):
    """Malformed input fails the same way, at the same token."""
    assert parse_alone(Parser, text) == \
        parse_alone(reference_parser.ReferenceParser, text)


def test_every_operator_is_left_associative_within_its_level():
    for level in _LEVELS:
        for op in level:
            expr = Parser(f"a {op} b {op} c").parse_expr()
            assert expr.op == op and expr.rhs.name == "c"
            assert expr.lhs.op == op and expr.lhs.lhs.name == "a"
