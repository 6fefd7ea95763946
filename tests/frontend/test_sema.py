"""Tests for semantic analysis helpers."""

import pytest

from repro.frontend import compile_source
from repro.ir import print_module
from repro.frontend.ast_nodes import Binary, FloatLit, IntLit, Unary, Var
from repro.frontend.sema import (
    INTRINSICS,
    ConstEvaluator,
    SemaError,
    intrinsic_signature,
)


def test_intrinsic_table_purity():
    assert INTRINSICS["sqrt"].pure
    assert INTRINSICS["fmax"].pure
    assert not INTRINSICS["rand"].pure
    assert not INTRINSICS["print_double"].pure


def test_intrinsic_signature_lookup():
    sig = intrinsic_signature("fmin")
    assert sig is not None
    assert sig.pure
    assert [t.base for t in sig.param_types] == ["double", "double"]
    assert intrinsic_signature("unknown_fn") is None


def test_const_eval_literals():
    evaluator = ConstEvaluator()
    assert evaluator.try_eval(IntLit(4)) == 4
    assert evaluator.try_eval(FloatLit(2.5)) == 2.5


def test_const_eval_named_constants():
    evaluator = ConstEvaluator()
    evaluator.define("N", 16)
    assert evaluator.try_eval(Var("N")) == 16
    assert evaluator.try_eval(Var("M")) is None


def test_const_eval_arithmetic():
    evaluator = ConstEvaluator()
    evaluator.define("N", 10)
    expr = Binary("+", Binary("*", Var("N"), IntLit(2)), IntLit(4))
    assert evaluator.try_eval(expr) == 24


def test_const_eval_c_division():
    evaluator = ConstEvaluator()
    assert evaluator.try_eval(Binary("/", IntLit(-7), IntLit(2))) == -3
    assert evaluator.try_eval(Binary("%", IntLit(-7), IntLit(2))) == -1
    assert evaluator.try_eval(Binary("/", IntLit(1), IntLit(0))) is None


def test_const_eval_unary():
    evaluator = ConstEvaluator()
    assert evaluator.try_eval(Unary("-", IntLit(3))) == -3
    assert evaluator.try_eval(Unary("!", IntLit(0))) == 1
    assert evaluator.try_eval(Unary("~", IntLit(0))) == -1


def test_const_eval_comparisons():
    evaluator = ConstEvaluator()
    assert evaluator.try_eval(Binary("<", IntLit(1), IntLit(2))) == 1
    assert evaluator.try_eval(Binary("==", IntLit(1), IntLit(2))) == 0


def test_eval_int_requires_constant():
    evaluator = ConstEvaluator()
    with pytest.raises(SemaError, match="constant integer"):
        evaluator.eval_int(Var("unknown"), "array dim")
    with pytest.raises(SemaError):
        evaluator.eval_int(FloatLit(2.5), "array dim")


def test_const_eval_shifts_only_by_counts_in_0_63():
    evaluator = ConstEvaluator()
    shift = lambda op, lhs, count: evaluator.try_eval(
        Binary(op, IntLit(lhs), IntLit(count)))
    assert shift("<<", 1, 0) == 1
    assert shift("<<", 1, 63) == 2**63
    assert shift(">>", -8, 1) == -4
    for count in (-1, 64, 70, 100000000):
        assert shift("<<", 1, count) is None
        assert shift(">>", 1, count) is None


def test_shift_by_a_huge_count_lowers_to_a_shift():
    """Folding ``1 << 100000000`` built a 12.5 MB int and returned 0;
    unfolded, the shift reaches the interpreter, which rejects the
    count."""
    ir = print_module(compile_source(
        "int f(void) { return 1 << 100000000; }"))
    assert "shl i64 1, 100000000" in ir
    assert "ret i64 0" not in ir


def test_array_dimension_shifted_out_of_range_is_a_sema_error():
    with pytest.raises(SemaError, match="constant integer"):
        compile_source("int a[1 << 70];\nint f(void) { return 0; }")
