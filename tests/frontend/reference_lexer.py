"""The character-at-a-time mini-C lexer, kept as the reference.

``repro.frontend.lexer`` tokenizes with one compiled regular
expression.  This is the scanner it replaced, unchanged apart from
returning plain ``(kind, text, line, column)`` tuples and raising the
production :class:`~repro.frontend.lexer.LexerError`, so the tests can
compare the two token for token and error for error.
"""

from __future__ import annotations

from repro.frontend.lexer import KEYWORDS, LexerError

#: Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "++",
    "--",
    "<<",
    ">>",
)

_SINGLE_OPS = "+-*/%<>=!&|^~?:;,(){}[]"


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Convert ``source`` into a token list ending with an ``eof`` token."""
    tokens: list[tuple[str, str, int, int]] = []
    index = 0
    line = 1
    column = 1
    length = len(source)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and source[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = source[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", index):
            end = source.find("\n", index)
            advance((end - index) if end != -1 else (length - index))
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise LexerError("unterminated block comment", line, column)
            advance(end + 2 - index)
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (
                source[index].isalnum() or source[index] == "_"
            ):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append((kind, text, line, column))
            column += index - start
            continue
        if char.isdigit() or (
            char == "." and index + 1 < length and source[index + 1].isdigit()
        ):
            start = index
            is_float = False
            while index < length and source[index].isdigit():
                index += 1
            if index < length and source[index] == ".":
                is_float = True
                index += 1
                while index < length and source[index].isdigit():
                    index += 1
            if index < length and source[index] in "eE":
                is_float = True
                index += 1
                if index < length and source[index] in "+-":
                    index += 1
                while index < length and source[index].isdigit():
                    index += 1
            text = source[start:index]
            tokens.append(
                ("float" if is_float else "int", text, line, column)
            )
            column += index - start
            continue
        matched = False
        for op in _MULTI_OPS:
            if source.startswith(op, index):
                tokens.append(("op", op, line, column))
                advance(len(op))
                matched = True
                break
        if matched:
            continue
        if char in _SINGLE_OPS:
            tokens.append(("op", char, line, column))
            advance(1)
            continue
        raise LexerError(f"unexpected character {char!r}", line, column)

    tokens.append(("eof", "", line, column))
    return tokens
