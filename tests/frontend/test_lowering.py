"""Tests for AST→IR lowering and the full compile pipeline."""

import pytest

from repro.frontend import LoweringError, compile_source, lower_source
from repro.frontend.sema import SemaError
from repro.ir import (
    AllocaInst,
    GEPInst,
    LoadInst,
    PhiInst,
    StoreInst,
    print_function,
    verify_module,
)


def test_locals_become_ssa_values_while_lowering():
    module = lower_source(
        "double f(void) { double x = 1.0; double y = x + 2.0; return y; }"
    )
    fn = module.get_function("f")
    assert not any(isinstance(i, (AllocaInst, LoadInst, StoreInst))
                   for i in fn.instructions())
    ret = fn.blocks[-1].terminator
    add = ret.return_value
    assert add.opcode == "fadd"
    assert [op.value for op in add.operands] == [1.0, 2.0]


def test_mem2reg_removes_scalar_allocas():
    module = compile_source(
        "double f(void) { double x = 1.0; double y = x + 2.0; return y; }"
    )
    fn = module.get_function("f")
    assert not any(isinstance(i, AllocaInst) for i in fn.instructions())


def test_canonical_for_loop_shape():
    module = compile_source(
        """
        double a[16]; int n;
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + a[i];
            return s;
        }
        """
    )
    fn = module.get_function("f")
    header = next(b for b in fn.blocks if b.name.startswith("for.cond"))
    phis = header.phis()
    assert len(phis) == 2  # iterator and accumulator
    terminator = header.terminator
    assert terminator.is_conditional
    latch = next(
        b for b in fn.blocks
        if header in b.successors() and b is not fn.entry
    )
    assert not latch.terminator.is_conditional


def test_multidim_array_flattened_to_single_gep():
    module = compile_source(
        """
        double a[4][8];
        double f(int i, int j) { return a[i][j]; }
        """
    )
    fn = module.get_function("f")
    geps = [i for i in fn.instructions() if isinstance(i, GEPInst)]
    assert len(geps) == 1  # one flat gep: a + (i*8 + j)


def test_wrong_index_count_rejected():
    with pytest.raises(LoweringError, match="indices"):
        compile_source("double a[4][8]; double f(int i) { return a[i]; }")


def test_pointer_parameter_indexing():
    module = compile_source(
        "double f(double *p, int i) { return p[i]; }"
    )
    fn = module.get_function("f")
    loads = [i for i in fn.instructions() if isinstance(i, LoadInst)]
    assert len(loads) == 1


def test_int_to_double_promotion():
    module = compile_source("double f(int x) { return x + 0.5; }")
    fn = module.get_function("f")
    assert any(i.opcode == "sitofp" for i in fn.instructions())


def test_double_to_int_cast():
    module = compile_source("int f(double x) { return (int) x; }")
    fn = module.get_function("f")
    assert any(i.opcode == "fptosi" for i in fn.instructions())


def test_constant_folding_of_literal_bounds():
    module = compile_source(
        """
        double a[64];
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < 64 - 1; i++) s = s + a[i];
            return s;
        }
        """
    )
    fn = module.get_function("f")
    text = print_function(fn)
    assert "icmp slt i64 %i, 63" in text


def test_short_circuit_and_lowering():
    module = compile_source(
        """
        int f(int a, int b) {
            if (a > 0 && b > 0) return 1;
            return 0;
        }
        """
    )
    fn = module.get_function("f")
    # two comparisons across two blocks, not a bitwise and
    assert sum(1 for i in fn.instructions() if i.opcode == "icmp") >= 2


def test_ternary_lowers_to_select():
    module = compile_source("double f(double a, double b) { return a > b ? a : b; }")
    fn = module.get_function("f")
    assert any(i.opcode == "select" for i in fn.instructions())


def test_while_loop_and_break():
    module = compile_source(
        """
        int f(int n) {
            int i = 0;
            while (1) {
                if (i >= n) break;
                i++;
            }
            return i;
        }
        """
    )
    verify_module(module)


def test_continue_statement():
    module = compile_source(
        """
        double a[16]; int n;
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) {
                if (a[i] < 0.0) continue;
                s = s + a[i];
            }
            return s;
        }
        """
    )
    verify_module(module)


def test_unknown_variable_reported():
    with pytest.raises(LoweringError, match="unknown variable"):
        compile_source("int f(void) { return nope; }")


def test_unknown_function_reported():
    with pytest.raises(LoweringError, match="unknown function"):
        compile_source("int f(void) { return mystery(1); }")


def test_modulo_on_doubles_rejected():
    with pytest.raises(LoweringError):
        compile_source("double f(double x) { return x % 2.0; }")


def test_const_global_requires_constant_init():
    with pytest.raises(SemaError):
        compile_source("int n; const int M = n; double f(void) { return M; }")


def test_const_global_inlined_as_literal():
    module = compile_source(
        "const int N = 12; int f(void) { return N * 2; }"
    )
    fn = module.get_function("f")
    text = print_function(fn)
    assert "ret i64 24" in text


def test_missing_return_value_synthesised():
    module = compile_source("double f(void) { }")
    fn = module.get_function("f")
    assert "ret double 0.0" in print_function(fn)


def test_void_call_as_statement():
    module = compile_source(
        "void g(void) { } void f(void) { g(); }"
    )
    verify_module(module)


def test_scoped_shadowing():
    module = compile_source(
        """
        int f(void) {
            int x = 1;
            {
                int x = 2;
                x = x + 1;
            }
            return x;
        }
        """
    )
    fn = module.get_function("f")
    assert "ret i64 1" in print_function(fn)


def test_array_local_not_promoted():
    module = compile_source(
        """
        double f(void) {
            double buf[8];
            buf[0] = 3.0;
            return buf[0];
        }
        """
    )
    fn = module.get_function("f")
    assert any(isinstance(i, AllocaInst) for i in fn.instructions())
    assert any(isinstance(i, StoreInst) for i in fn.instructions())
