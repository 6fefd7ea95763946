"""Lexer for the mini-C language.

The corpus programs (``repro.workloads``) are written in a C subset
large enough to express the paper's benchmark kernels: functions,
global arrays, ``for``/``while``/``if``, calls to math intrinsics,
compound assignment and multi-dimensional array indexing.

:func:`tokenize` matches every token kind with one compiled regular
expression.  ``tests/frontend/reference_lexer.py`` keeps the
character-at-a-time scanner it replaced, and the tests hold the two to
the same tokens and the same errors.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

KEYWORDS = frozenset(
    {
        "int",
        "long",
        "float",
        "double",
        "void",
        "if",
        "else",
        "for",
        "while",
        "return",
        "const",
        "break",
        "continue",
    }
)

#: Operators and punctuators, longest first so maximal munch works.
_OPS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "++", "--", "<<", ">>",
    *"+-*/%<>=!&|^~?:;,(){}[]",
)


class LexerError(Exception):
    """Raised on malformed input, with line/column context."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is ``ident``, ``int``, ``float``, ``keyword``, ``op`` or
    ``eof``; ``text`` is the exact source spelling.  A token is a
    plain tuple underneath: cheap to build, equal and hashed by value.
    """

    kind: str
    text: str
    line: int
    column: int

    def is_op(self, text: str) -> bool:
        """True if this is the operator/punctuator ``text``."""
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        """True if this is the keyword ``text``."""
        return self.kind == "keyword" and self.text == text


_TOKEN_KINDS = frozenset({"ident", "keyword", "int", "float", "op"})


@lru_cache(maxsize=16)
def _master(extra_digits: str = "", not_letters: str = "") -> re.Pattern:
    r"""The one alternation every token kind is matched by.

    Identifiers start with a ``str.isalpha`` letter or ``_`` and go on
    with ``str.isalnum`` characters or ``_``; numbers are runs of
    ``str.isdigit`` characters.  ``\w`` is exactly ``isalnum`` or
    ``_``, and ``\d`` exactly ``isdecimal``.  So on a source without
    numeric characters that are neither decimal digits nor letters
    (superscripts, fractions, Roman numerals), ``[^\W\d]`` is exactly
    ``isalpha`` or ``_``.  For any other source, :func:`tokenize`
    passes that source's own such characters: ``not_letters`` cannot
    start an identifier, and ``extra_digits`` (the ``isdigit`` ones)
    also make up numbers.
    """
    digit = f"[\\d{re.escape(extra_digits)}]" if extra_digits else r"\d"
    letter = f"[^\\W\\d{re.escape(not_letters)}]"
    keywords = "|".join(sorted(KEYWORDS))
    ops = "|".join(map(re.escape, _OPS))
    # A token swallows the blanks after it, so a line costs one extra
    # match (its newline and indentation), not one per gap.
    return re.compile(
        rf"""(?:(?P<space>[ \t\r\n]+)
        |(?P<comment>//[^\n]*|/\*.*?\*/)
        |(?P<open_comment>/\*)
        |(?P<float>(?:{digit}+\.{digit}*|\.{digit}+)(?:[eE][+-]?{digit}*)?
                  |{digit}+[eE][+-]?{digit}*)
        |(?P<int>{digit}+)
        |(?P<keyword>(?:{keywords})\b)
        |(?P<ident>{letter}\w*)
        |(?P<op>{ops})
        |(?P<bad>.))[ \t\r]*""",
        re.DOTALL | re.VERBOSE,
    )


def tokenize(source: str) -> list[Token]:
    """Convert ``source`` into a token list ending with an ``eof`` token."""
    master = _master()
    if not source.isascii():
        odd = sorted(
            char for char in set(source)
            if char.isnumeric() and not char.isdecimal()
            and not char.isalpha()
        )
        if odd:
            master = _master(
                "".join(char for char in odd if char.isdigit()),
                "".join(odd),
            )
    new = tuple.__new__
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the first character of ``line``
    for match in master.finditer(source):
        kind = match.lastgroup
        if kind in _TOKEN_KINDS:
            append(new(Token, (kind, match[kind], line,
                               match.start() - line_start + 1)))
        elif kind == "space" or kind == "comment":
            text = match.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
        elif kind == "bad":
            raise LexerError(f"unexpected character {match[kind]!r}",
                             line, match.start() - line_start + 1)
        else:
            raise LexerError("unterminated block comment",
                             line, match.start() - line_start + 1)
    append(new(Token, ("eof", "", line, len(source) - line_start + 1)))
    return tokens
