"""Tests for the mini-C parser."""

import pytest

from repro.frontend import ParseError, compile_source, parse
from repro.frontend.ast_nodes import (
    Assign,
    Binary,
    Block,
    Call,
    CastExpr,
    For,
    If,
    IncDec,
    Index,
    IntLit,
    Return,
    Ternary,
    Unary,
    Var,
    While,
)
from repro.frontend.parser import MAX_DEPTH


def _single_function(source):
    program = parse(source)
    assert len(program.functions) == 1
    return program.functions[0]


def test_function_signature():
    fn = _single_function("double f(int n, double *a) { return 0.0; }")
    assert fn.name == "f"
    assert fn.return_type.base == "double"
    assert fn.params[0].type.base == "int"
    assert fn.params[1].type.pointer == 1


def test_array_parameter_decays_to_pointer():
    fn = _single_function("void f(double a[], int b[16]) { }")
    assert fn.params[0].type.pointer == 1
    assert fn.params[1].type.pointer == 1


def test_global_array_dims():
    program = parse("const int N = 8; double a[N][2*N];")
    decl = program.globals[1]
    assert decl.name == "a"
    assert len(decl.type.dims) == 2


def test_for_loop_structure():
    fn = _single_function(
        "void f(void) { for (int i = 0; i < 4; i++) { } }"
    )
    loop = fn.body.statements[0]
    assert isinstance(loop, For)
    assert loop.init is not None
    assert isinstance(loop.cond, Binary)
    assert isinstance(loop.step, IncDec)


def test_precedence_mul_over_add():
    fn = _single_function("int f(void) { return 1 + 2 * 3; }")
    expr = fn.body.statements[0].value
    assert isinstance(expr, Binary) and expr.op == "+"
    assert isinstance(expr.rhs, Binary) and expr.rhs.op == "*"


def test_precedence_comparison_over_logic():
    fn = _single_function("int f(int a, int b) { return a < 1 && b > 2; }")
    expr = fn.body.statements[0].value
    assert expr.op == "&&"
    assert expr.lhs.op == "<" and expr.rhs.op == ">"


def test_ternary_parses_right_associative():
    fn = _single_function(
        "int f(int a) { return a ? 1 : a ? 2 : 3; }"
    )
    expr = fn.body.statements[0].value
    assert isinstance(expr, Ternary)
    assert isinstance(expr.if_false, Ternary)


def test_multidim_index():
    fn = _single_function("double a[4][4]; double f(void) { return a[1][2]; }".replace("double a[4][4]; ", ""))
    # parse separately with the global present
    program = parse("double a[4][4]; double f(void) { return a[1][2]; }")
    expr = program.functions[0].body.statements[0].value
    assert isinstance(expr, Index)
    assert len(expr.indices) == 2


def test_cast_expression():
    fn = _single_function("int f(double x) { return (int) x; }")
    expr = fn.body.statements[0].value
    assert isinstance(expr, CastExpr)
    assert expr.target.base == "int"


def test_call_with_arguments():
    fn = _single_function("double f(double x) { return fmax(x, 1.0); }")
    expr = fn.body.statements[0].value
    assert isinstance(expr, Call)
    assert expr.name == "fmax"
    assert len(expr.args) == 2


def test_compound_assignment():
    fn = _single_function("void f(void) { int x = 0; x += 3; }")
    stmt = fn.body.statements[1]
    assert isinstance(stmt, Assign)
    assert stmt.op == "+="


def test_assignment_requires_lvalue():
    with pytest.raises(ParseError, match="lvalue"):
        parse("void f(void) { 1 = 2; }")


def test_if_else_chains():
    fn = _single_function(
        "int f(int x) { if (x > 0) return 1; else if (x < 0) return 2; "
        "else return 3; }"
    )
    stmt = fn.body.statements[0]
    assert isinstance(stmt, If)
    assert isinstance(stmt.orelse, If)


def test_while_break_continue():
    fn = _single_function(
        "void f(int n) { while (n > 0) { if (n == 3) break; n--; } }"
    )
    loop = fn.body.statements[0]
    assert isinstance(loop, While)


def test_unary_operators():
    fn = _single_function("int f(int x) { return -x + !x + ~x; }")
    expr = fn.body.statements[0].value
    assert isinstance(expr.lhs.lhs, Unary)


def test_missing_semicolon_reports_position():
    with pytest.raises(ParseError):
        parse("int f(void) { return 1 }")


def test_empty_statement_allowed():
    fn = _single_function("void f(void) { ; }")
    assert isinstance(fn.body.statements[0], Block)


def test_declaration_only_function():
    program = parse("double sin2(double x);")
    assert program.functions[0].body is None


#: Sources nesting one construct ``n`` levels deep.
NESTED = {
    "parentheses": lambda n: f"a = {'(' * n}a{')' * n};",
    "sum": lambda n: "a = " + " + ".join(["a"] * n) + ";",
    # Each level opens two: an operand climb and a parenthesis.
    "right-nested sum": lambda n: f"a = {'a + (' * (n // 2)}a"
                                  f"{')' * (n // 2)};",
    "negation": lambda n: "a = " + "- " * n + "a;",
    "not in a condition": lambda n: f"if ({'!' * n}a) a = 1;",
    "casts": lambda n: "a = " + "(int) " * n + "a;",
    "ternary chain": lambda n: "a = " + "a ? 1 : " * n + "0;",
    "subscripts": lambda n: f"a = {'b[' * n}0{']' * n};",
    "calls": lambda n: f"a = {'f(' * n}a{')' * n};",
    "conjunction": lambda n: "if (" + " && ".join(["a"] * n) + ") a = 1;",
    "blocks": lambda n: "{" * n + "a = 1;" + "}" * n,
    "ifs": lambda n: "if (a) " * n + "a = 1;",
    "loops": lambda n: "".join(
        f"for (int i{k} = 0; i{k} < 2; i{k}++) " for k in range(n)
    ) + "a = a + 1;",
}


def _nested_program(body: str) -> str:
    return ("int a; int b[4]; int f(int x) { return x; }\n"
            f"int main(void) {{ {body} return 0; }}")


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_within_the_limit_compiles(kind):
    compile_source(_nested_program(NESTED[kind](MAX_DEPTH - 10)))


@pytest.mark.parametrize("kind", sorted(NESTED))
@pytest.mark.parametrize("depth", [MAX_DEPTH + 20, 2000])
def test_nesting_past_the_limit_is_a_parse_error(kind, depth):
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse(_nested_program(NESTED[kind](depth)))


def test_seventy_nested_parentheses_parse():
    fn = _single_function(f"int f(int a) {{ return {'(' * 70}a{')' * 70}; }}")
    assert fn.body.statements[0].value.name == "a"
