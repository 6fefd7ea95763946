"""Tests for the IR interpreter."""

import pytest

from repro.frontend import compile_source
from repro.runtime import Interpreter, InterpreterError, Memory


def _run(source, fn="f", args=(), globals_=None, seed=12345):
    module = compile_source(source)
    memory = Memory(module)
    for name, values in (globals_ or {}).items():
        buffer = memory.buffers[name]
        if isinstance(values, (int, float)):
            buffer.data[0] = values
        else:
            for index, value in enumerate(values):
                buffer.data[index] = value
    interp = Interpreter(module, memory, seed=seed)
    result = interp.call(module.get_function(fn), list(args))
    return result, interp, memory


def test_arithmetic_and_return():
    result, _, _ = _run("int f(int a, int b) { return a * b + 7; }",
                        args=[6, 7])
    assert result == 49


def test_c_style_integer_division():
    result, _, _ = _run("int f(int a, int b) { return a / b; }",
                        args=[-7, 2])
    assert result == -3  # truncation toward zero, not floor
    result, _, _ = _run("int f(int a, int b) { return a % b; }",
                        args=[-7, 2])
    assert result == -1


INT64_MAX = 2**63 - 1
INT64_MIN = -2**63


def test_int64_max_plus_one_wraps_to_int64_min():
    """Integer arithmetic wraps in two's complement: the interpreter
    computes what the lowering's constant folder computes."""
    result, _, _ = _run("int f(int a) { return a + 1; }", args=[INT64_MAX])
    assert result == INT64_MIN
    folded, _, _ = _run(f"int f(void) {{ return {INT64_MAX} + 1; }}")
    assert folded == INT64_MIN


@pytest.mark.parametrize("expr", ["a + 1", "a * 2", "a << 1", "0 - a - 2",
                                  "a * a", "(0 - a - 1) / (0 - 1)"])
def test_wrapping_ops_agree_with_the_folder(expr):
    interpreted, _, _ = _run(f"int f(int a) {{ return {expr}; }}",
                             args=[INT64_MAX])
    literal = expr.replace("a", str(INT64_MAX))
    folded, _, _ = _run(f"int f(void) {{ return {literal}; }}")
    assert interpreted == folded
    assert INT64_MIN <= interpreted <= INT64_MAX


def test_division_by_zero_raises():
    with pytest.raises(InterpreterError, match="division by zero"):
        _run("int f(int a) { return 1 / a; }", args=[0])


@pytest.mark.parametrize("op, opcode", [("<<", "shl"), (">>", "ashr")])
@pytest.mark.parametrize("count", [-1, 64, 10**9])
def test_out_of_range_shift_count_raises(op, opcode, count):
    """A count outside 0..63 is refused before shifting, naming the
    opcode and the count: 10**9 must not build a 10**9-bit int."""
    with pytest.raises(InterpreterError, match=f"{opcode} by {count}:"):
        _run(f"int f(int a, int b) {{ return a {op} b; }}", args=[3, count])


@pytest.mark.parametrize("count, expected", [(0, 3), (63, INT64_MIN)])
def test_shift_counts_at_the_range_ends(count, expected):
    result, _, _ = _run("int f(int a, int b) { return a << b; }",
                        args=[3, count])
    assert result == expected


def test_loop_sum_and_counters():
    source = """
    double a[8]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + a[i];
        return s;
    }
    """
    result, interp, _ = _run(
        source, globals_={"a": [1.0] * 8, "n": 5}
    )
    assert result == 5.0
    assert interp.instructions_executed > 0
    assert interp.block_counts


def test_conditionals_and_select():
    result, _, _ = _run(
        "double f(double a, double b) { return a > b ? a : b; }",
        args=[2.5, 9.0],
    )
    assert result == 9.0


def test_global_store_visible_after_call():
    source = """
    double out;
    void f(double x) { out = x * 2.0; }
    """
    _, _, memory = _run(source, args=[21.0])
    assert memory.read_global("out") == 42.0


def test_array_out_of_bounds_caught():
    source = """
    double a[4];
    double f(int i) { return a[i]; }
    """
    with pytest.raises(Exception, match="out of bounds"):
        _run(source, args=[9])


def test_intrinsics():
    result, _, _ = _run(
        "double f(double x) { return sqrt(x) + fabs(0.0 - x) + "
        "fmin(x, 1.0) + pow(x, 2.0); }",
        args=[4.0],
    )
    assert result == 2.0 + 4.0 + 1.0 + 16.0


def test_rand_is_deterministic():
    source = "int f(void) { return rand(); }"
    a, _, _ = _run(source, seed=7)
    b, _, _ = _run(source, seed=7)
    c, _, _ = _run(source, seed=8)
    assert a == b
    assert a != c


def test_print_output_collected():
    source = """
    void f(void) { print_int(3); print_double(1.5); }
    """
    _, interp, _ = _run(source)
    assert interp.output == ["3", "1.500000"]


def test_instruction_budget_enforced():
    source = """
    int n;
    int f(void) {
        int x = 0;
        for (int i = 0; i < n; i++) x = x + 1;
        return x;
    }
    """
    module = compile_source(source)
    memory = Memory(module)
    memory.buffers["n"].data[0] = 10**9
    interp = Interpreter(module, memory, max_instructions=10_000)
    with pytest.raises(InterpreterError, match="budget"):
        interp.call(module.get_function("f"), [])


def test_user_function_calls():
    source = """
    double square(double x) { return x * x; }
    double f(double x) { return square(x) + square(x + 1.0); }
    """
    result, _, _ = _run(source, args=[3.0])
    assert result == 9.0 + 16.0


def test_local_array_alloca():
    source = """
    double f(void) {
        double buf[4];
        for (int i = 0; i < 4; i++) buf[i] = i * 2.0;
        return buf[0] + buf[3];
    }
    """
    result, _, _ = _run(source)
    assert result == 6.0


def test_while_loop_binary_search():
    source = """
    double b[8]; int nb;
    int f(double d) {
        int lo = 0;
        int hi = nb;
        while (lo < hi) {
            int mid = (lo + hi) / 2;
            if (d < b[mid]) hi = mid; else lo = mid + 1;
        }
        return lo;
    }
    """
    result, _, _ = _run(
        source, args=[0.35],
        globals_={"b": [0.125 * (i + 1) for i in range(8)], "nb": 8},
    )
    assert result == 2


def test_run_main_requires_main():
    module = compile_source("int g(void) { return 1; }")
    interp = Interpreter(module)
    with pytest.raises(InterpreterError, match="no main"):
        interp.run_main()


def test_instructions_in_blocks_helper():
    source = """
    double a[8]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + a[i];
        return s;
    }
    """
    module = compile_source(source)
    memory = Memory(module)
    memory.buffers["n"].data[0] = 6
    interp = Interpreter(module, memory)
    interp.call(module.get_function("f"), [])
    fn = module.get_function("f")
    total = interp.instructions_in_blocks(fn.blocks)
    assert total == sum(interp.block_counts.values())
