"""The recursive-descent expression parser, kept as the reference.

``repro.frontend.parser.Parser.parse_binary`` parses binary operators
by precedence climbing over one binding-power table.  This is the
method it replaced: one recursive call per precedence level per
operand.  Everything else is inherited, so the two parsers differ only
in how they parse binary expressions and the tests can compare their
trees node for node.
"""

from __future__ import annotations

from repro.frontend.ast_nodes import Binary, Expr, Program
from repro.frontend.parser import _LEVELS, Parser


class ReferenceParser(Parser):
    """:class:`~repro.frontend.parser.Parser` with the old
    ``parse_binary``, unchanged."""

    def parse_binary(self, level: int) -> Expr:
        if level >= len(_LEVELS):
            return self.parse_unary()
        expr = self.parse_binary(level + 1)
        ops = _LEVELS[level]
        while self.current.kind == "op" and self.current.text in ops:
            token = self.advance()
            rhs = self.parse_binary(level + 1)
            expr = Binary(token.text, expr, rhs, line=token.line)
        return expr


def parse(source: str) -> Program:
    """Parse mini-C ``source`` with the reference parser."""
    return ReferenceParser(source).parse_program()
