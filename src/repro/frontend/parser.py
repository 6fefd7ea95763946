"""Recursive-descent parser for the mini-C language.

Statements descend recursively; binary expressions are parsed by
precedence climbing over one binding-power table (:data:`_LEVELS`).
"""

from __future__ import annotations

from .ast_nodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    CastExpr,
    Continue,
    CType,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FuncDef,
    GlobalVar,
    If,
    IncDec,
    Index,
    IntLit,
    Param,
    Program,
    Return,
    Stmt,
    Ternary,
    Unary,
    Var,
    VarDecl,
    While,
)
from .lexer import Token, tokenize

#: Type keywords; ``long`` folds to ``int`` and ``float`` to ``double``.
_TYPE_KEYWORDS = {"int": "int", "long": "int", "float": "double",
                  "double": "double", "void": "void"}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")

#: Binary operators by precedence level, loosest first; an operator's
#: binding power is its level.
_LEVELS: tuple[tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)
_BINDING_POWER = {op: level for level, ops in enumerate(_LEVELS) for op in ops}

#: The deepest nesting the parser accepts, on two counts: statements,
#: sub-expressions, prefix operators and operator precedence climbs
#: open at once (bounds the parser's own recursion), and the height of
#: an expression tree (bounds every recursive walk over it, such as
#: sema's constant folding and lowering).  Past it, a ParseError at the
#: offending token; within it, both stay far inside Python's default
#: recursion limit.
MAX_DEPTH = 100


class ParseError(Exception):
    """Raised on syntax errors with source position."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{token.line}:{token.column}: {message} "
                         f"(got {token.kind} {token.text!r})")
        self.token = token


class Parser:
    """Token-stream parser producing a :class:`Program`."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.position = 0
        #: Constructs open at once; see :data:`MAX_DEPTH`.
        self._nesting = 0
        #: Height of every expression node above a leaf, by ``id``.
        self._heights: dict[int, int] = {}

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
        return token

    def expect_op(self, text: str) -> Token:
        if not self.current.is_op(text):
            raise ParseError(f"expected {text!r}", self.current)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise ParseError("expected identifier", self.current)
        return self.advance()

    def at_type(self, offset: int = 0) -> bool:
        token = self.peek(offset) if offset else self.current
        return token.kind == "keyword" and token.text in _TYPE_KEYWORDS

    # -- nesting limits --------------------------------------------------------

    def _enter(self, token: Token) -> None:
        """Open one nesting level at ``token``; the caller closes it
        by decrementing ``_nesting``."""
        self._nesting += 1
        if self._nesting > MAX_DEPTH:
            raise _too_deep("nesting", token)

    def _tree(self, node: Expr, token: Token, *children: Expr) -> Expr:
        """Record the height of ``node`` over ``children``."""
        heights = self._heights
        height = 1
        for child in children:
            below = heights.get(id(child), 1)
            if below >= height:
                height = below + 1
        if height > MAX_DEPTH:
            raise _too_deep("expression", token)
        heights[id(node)] = height
        return node

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> Program:
        """Parse a full translation unit."""
        globals_: list[GlobalVar] = []
        functions: list[FuncDef] = []
        while self.current.kind != "eof":
            is_const = False
            if self.current.is_keyword("const"):
                is_const = True
                self.advance()
            if not self.at_type():
                raise ParseError("expected declaration", self.current)
            base = self.parse_base_type()
            name = self.expect_ident()
            if self.current.is_op("("):
                if is_const:
                    raise ParseError("const function", name)
                functions.append(self.parse_function_rest(base, name))
            else:
                globals_.append(self.parse_global_rest(base, name, is_const))
        return Program(globals_, functions)

    def parse_base_type(self) -> CType:
        if not self.at_type():
            raise ParseError("expected type", self.current)
        keyword = self.advance()
        base = _TYPE_KEYWORDS[keyword.text]
        pointer = 0
        while self.current.is_op("*"):
            pointer += 1
            self.advance()
        return CType(base, pointer)

    def parse_global_rest(
        self, base: CType, name: Token, is_const: bool
    ) -> GlobalVar:
        dims: list[Expr] = []
        while self.current.is_op("["):
            self.advance()
            dims.append(self.parse_expr())
            self.expect_op("]")
        init = None
        if self.current.is_op("="):
            self.advance()
            init = self.parse_expr()
        self.expect_op(";")
        ctype = CType(base.base, base.pointer, tuple(dims))
        return GlobalVar(name.text, ctype, init, is_const, line=name.line)

    def parse_function_rest(self, base: CType, name: Token) -> FuncDef:
        self.expect_op("(")
        params: list[Param] = []
        if self.current.is_keyword("void") and self.peek().is_op(")"):
            self.advance()
        elif not self.current.is_op(")"):
            while True:
                param_type = self.parse_base_type()
                param_name = self.expect_ident()
                while self.current.is_op("["):
                    # ``double a[]`` and ``double a[N]`` parameters decay
                    # to pointers, as in C.
                    self.advance()
                    if not self.current.is_op("]"):
                        self.parse_expr()
                    self.expect_op("]")
                    param_type = CType(
                        param_type.base, param_type.pointer + 1
                    )
                params.append(Param(param_name.text, param_type))
                if self.current.is_op(","):
                    self.advance()
                    continue
                break
        self.expect_op(")")
        if self.current.is_op(";"):
            self.advance()
            body = None
        else:
            body = self.parse_block()
        return FuncDef(name.text, base, params, body, line=name.line)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> Block:
        start = self.expect_op("{")
        statements: list[Stmt] = []
        while not self.current.is_op("}"):
            if self.current.kind == "eof":
                raise ParseError("unterminated block", self.current)
            statements.append(self.parse_statement())
        self.expect_op("}")
        return Block(statements, line=start.line)

    def parse_statement(self) -> Stmt:
        self._enter(self.current)
        statement = self._parse_statement()
        self._nesting -= 1
        return statement

    def _parse_statement(self) -> Stmt:
        token = self.current
        if token.is_op("{"):
            return self.parse_block()
        if token.is_keyword("if"):
            return self.parse_if()
        if token.is_keyword("for"):
            return self.parse_for()
        if token.is_keyword("while"):
            return self.parse_while()
        if token.is_keyword("return"):
            self.advance()
            value = None
            if not self.current.is_op(";"):
                value = self.parse_expr()
            self.expect_op(";")
            return Return(value, line=token.line)
        if token.is_keyword("break"):
            self.advance()
            self.expect_op(";")
            return Break(line=token.line)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_op(";")
            return Continue(line=token.line)
        if token.is_op(";"):
            self.advance()
            return Block([], line=token.line)
        statement = self.parse_simple_statement()
        self.expect_op(";")
        return statement

    def parse_if(self) -> If:
        token = self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        then = self.parse_statement()
        orelse = None
        if self.current.is_keyword("else"):
            self.advance()
            orelse = self.parse_statement()
        return If(cond, then, orelse, line=token.line)

    def parse_for(self) -> For:
        token = self.advance()
        self.expect_op("(")
        init = None
        if not self.current.is_op(";"):
            init = self.parse_simple_statement()
        self.expect_op(";")
        cond = None
        if not self.current.is_op(";"):
            cond = self.parse_expr()
        self.expect_op(";")
        step = None
        if not self.current.is_op(")"):
            step = self.parse_simple_statement()
        self.expect_op(")")
        body = self.parse_statement()
        return For(init, cond, step, body, line=token.line)

    def parse_while(self) -> While:
        token = self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        body = self.parse_statement()
        return While(cond, body, line=token.line)

    def parse_simple_statement(self) -> Stmt:
        """Declaration, assignment, increment or bare expression."""
        token = self.current
        if self.current.is_keyword("const") or self.at_type():
            if self.current.is_keyword("const"):
                self.advance()
            base = self.parse_base_type()
            name = self.expect_ident()
            dims: list[Expr] = []
            while self.current.is_op("["):
                self.advance()
                dims.append(self.parse_expr())
                self.expect_op("]")
            init = None
            if self.current.is_op("="):
                self.advance()
                init = self.parse_expr()
            ctype = CType(base.base, base.pointer, tuple(dims))
            return VarDecl(name.text, ctype, init, line=token.line)
        expr = self.parse_expr()
        op_token = self.current
        if op_token.kind == "op" and op_token.text in _ASSIGN_OPS:
            self.advance()
            value = self.parse_expr()
            _require_lvalue(expr, self.current)
            return Assign(expr, op_token.text, value, line=token.line)
        if op_token.is_op("++") or op_token.is_op("--"):
            self.advance()
            _require_lvalue(expr, op_token)
            return IncDec(expr, op_token.text, line=token.line)
        return ExprStmt(expr, line=token.line)

    # -- expressions (precedence climbing) ----------------------------------

    def parse_expr(self) -> Expr:
        """Parse a full (non-assignment) expression."""
        self._nesting += 1
        if self._nesting > MAX_DEPTH:
            raise _too_deep("nesting", self.current)
        expr = self.parse_ternary()
        self._nesting -= 1
        return expr

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary(0)
        if self.current.is_op("?"):
            token = self.advance()
            if_true = self.parse_expr()
            self.expect_op(":")
            self._enter(token)
            if_false = self.parse_ternary()
            self._nesting -= 1
            return self._tree(
                Ternary(cond, if_true, if_false, line=token.line),
                token, cond, if_true, if_false,
            )
        return cond

    def parse_binary(self, min_power: int) -> Expr:
        """Operators binding at least ``min_power``, left-associative.

        One loop folds every operator of the loosest level present
        into the left operand; only a tighter-binding right operand
        recurses.
        """
        expr = self.parse_unary()
        tokens = self.tokens
        heights = self._heights
        height = heights.get(id(expr), 1)
        while True:
            token = tokens[self.position]
            if token.kind != "op":
                return expr
            power = _BINDING_POWER.get(token.text, -1)
            if power < min_power:
                return expr
            self.position += 1
            self._nesting += 1
            if self._nesting > MAX_DEPTH:
                raise _too_deep("nesting", token)
            rhs = self.parse_binary(power + 1)
            self._nesting -= 1
            height = max(height, heights.get(id(rhs), 1)) + 1
            if height > MAX_DEPTH:
                raise _too_deep("expression", token)
            expr = Binary(token.text, expr, rhs, line=token.line)
            heights[id(expr)] = height

    def parse_unary(self) -> Expr:
        token = self.current
        if token.kind == "op" and token.text in ("-", "!", "~"):
            self.advance()
            self._enter(token)
            operand = self.parse_unary()
            self._nesting -= 1
            return self._tree(Unary(token.text, operand, line=token.line),
                              token, operand)
        if token.is_op("(") and self.at_type(1):
            self.advance()
            target = self.parse_base_type()
            self.expect_op(")")
            self._enter(token)
            operand = self.parse_unary()
            self._nesting -= 1
            return self._tree(CastExpr(target, operand, line=token.line),
                              token, operand)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.current.is_op("["):
            token = self.current
            indices: list[Expr] = []
            while self.current.is_op("["):
                self.advance()
                indices.append(self.parse_expr())
                self.expect_op("]")
            expr = self._tree(Index(expr, indices, line=self.current.line),
                              token, expr, *indices)
        return expr

    def parse_primary(self) -> Expr:
        token = self.current
        if token.kind == "int":
            self.advance()
            return IntLit(int(token.text), line=token.line)
        if token.kind == "float":
            self.advance()
            try:
                value = float(token.text)
            except ValueError:
                # The lexer takes ``0e`` and ``1e+`` as one token.
                raise ParseError("malformed float literal", token) from None
            return FloatLit(value, line=token.line)
        if token.kind == "ident":
            self.advance()
            if self.current.is_op("("):
                self.advance()
                args: list[Expr] = []
                if not self.current.is_op(")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.current.is_op(","):
                            self.advance()
                            continue
                        break
                self.expect_op(")")
                return self._tree(Call(token.text, args, line=token.line),
                                  token, *args)
            return Var(token.text, line=token.line)
        if token.is_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        raise ParseError("expected expression", token)


def _too_deep(what: str, token: Token) -> ParseError:
    return ParseError(f"{what} deeper than {MAX_DEPTH} levels", token)


def _require_lvalue(expr: Expr, token: Token) -> None:
    if not isinstance(expr, (Var, Index)):
        raise ParseError("assignment target is not an lvalue", token)


def parse(source: str) -> Program:
    """Parse mini-C ``source`` into a :class:`Program`."""
    return Parser(source).parse_program()
