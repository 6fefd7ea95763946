"""Property test: the whole compile pipeline preserves semantics.

Random straight-line/branchy/loopy mini-C programs are generated from a
small grammar.  Beside each source the strategy builds a Python
evaluator of the same program, with C's int64 wraparound; the fully
optimized SSA form (SSA lowering + DCE + trivial-phi + merge + LICM +
CSE) must compute the evaluator's result through the interpreter.
The interpreter wraps int arithmetic to 64 bits as well, so programs
whose arithmetic leaves the int64 range are compared like any other.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import lower_source
from repro.ir import verify_module
from repro.passes.cse import local_cse
from repro.passes.licm import hoist_invariant_loads
from repro.passes.simplify import (
    dead_code_elimination,
    merge_straightline_blocks,
    remove_trivial_phis,
    remove_unreachable_blocks,
)
from repro.runtime import Interpreter, Memory

_VARS = ("x", "y", "z")


class _Env(dict):
    """Variable values of one evaluation."""

    @staticmethod
    def wrap(value: int) -> int:
        """``value`` wrapped to int64, as C's arithmetic computes it."""
        return (value + 2**63) % 2**64 - 2**63


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}
_COMPARE = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
}


# Each strategy draws ``(mini-C text, evaluator)``: an expression's
# evaluator maps an environment to its value, a statement's updates the
# environment in place.


def _literal(value):
    return str(value), lambda env: value


def _variable(name):
    return name, lambda env: env[name]


@st.composite
def expressions(draw, depth=0):
    if depth > 2:
        return _variable(draw(st.sampled_from(_VARS)))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return _literal(draw(st.integers(-3, 9)))
    if kind == 1:
        return _variable(draw(st.sampled_from(_VARS)))
    if kind == 2:
        op = draw(st.sampled_from(sorted(_ARITH)))
        lhs, lhs_eval = draw(expressions(depth=depth + 1))
        rhs, rhs_eval = draw(expressions(depth=depth + 1))
        fn = _ARITH[op]
        return f"({lhs} {op} {rhs})", lambda env: env.wrap(
            fn(lhs_eval(env), rhs_eval(env)))
    if kind == 3:
        cond_op = draw(st.sampled_from(sorted(_COMPARE)))
        lhs, lhs_eval = draw(expressions(depth=depth + 1))
        rhs, rhs_eval = draw(expressions(depth=depth + 1))
        a, a_eval = draw(expressions(depth=depth + 1))
        b, b_eval = draw(expressions(depth=depth + 1))
        test = _COMPARE[cond_op]
        text = f"(({lhs} {cond_op} {rhs}) ? {a} : {b})"

        def select(env):
            # ``select`` evaluates both arms.
            chosen, other = a_eval(env), b_eval(env)
            return chosen if test(lhs_eval(env), rhs_eval(env)) else other

        return text, select
    inner, inner_eval = draw(expressions(depth=depth + 1))
    # The space avoids lexing "--" as decrement.
    return f"(- {inner})", lambda env: env.wrap(-inner_eval(env))


@st.composite
def statements(draw, depth=0):
    kind = draw(st.integers(0, 3 if depth < 2 else 1))
    target = draw(st.sampled_from(_VARS))
    if kind == 0:
        value, value_eval = draw(expressions())

        def assign(env):
            env[target] = value_eval(env)

        return f"{target} = {value};", assign
    if kind == 1:
        op = draw(st.sampled_from(["+=", "-=", "*="]))
        value, value_eval = draw(expressions())
        fn = _ARITH[op[0]]

        def update(env):
            env[target] = env.wrap(fn(env[target], value_eval(env)))

        return f"{target} {op} {value};", update
    if kind == 2:
        cond, cond_eval = draw(expressions())
        body, body_exec = draw(statements(depth=depth + 1))
        orelse, orelse_exec = draw(statements(depth=depth + 1))

        def branch(env):
            (body_exec if cond_eval(env) > 0 else orelse_exec)(env)

        return f"if ({cond} > 0) {{ {body} }} else {{ {orelse} }}", branch
    body, body_exec = draw(statements(depth=depth + 1))
    bound = draw(st.integers(1, 5))

    def loop(env):
        for _ in range(bound):
            body_exec(env)

    text = (f"for (int i{depth} = 0; i{depth} < {bound}; i{depth}++) "
            f"{{ {body} }}")
    return text, loop


@st.composite
def programs_with_evaluators(draw):
    """``(source, evaluate)``: ``evaluate(x, y)`` returns ``f(x, y)``."""
    drawn = draw(st.lists(statements(), min_size=1, max_size=5))
    result, result_eval = draw(expressions())
    body = " ".join(text for text, _ in drawn)
    source = f"""
    int f(int x, int y) {{
        int z = 0;
        {body}
        return {result};
    }}
    """

    def evaluate(x, y):
        env = _Env(x=x, y=y, z=0)
        for _, run in drawn:
            run(env)
        return result_eval(env)

    return source, evaluate


def programs():
    """The sources alone."""
    return programs_with_evaluators().map(lambda pair: pair[0])


def _run(module, args):
    interp = Interpreter(module, Memory(module), max_instructions=500_000)
    return interp.call(module.get_function("f"), list(args))


@given(program=programs_with_evaluators(), x=st.integers(-5, 5),
       y=st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_optimized_pipeline_preserves_semantics(program, x, y):
    source, evaluate = program
    expected = evaluate(x, y)

    optimized = lower_source(source)
    for fn in optimized.defined_functions():
        remove_unreachable_blocks(fn)
        dead_code_elimination(fn)
        remove_trivial_phis(fn)
        merge_straightline_blocks(fn)
        hoist_invariant_loads(fn)
        local_cse(fn)
    verify_module(optimized)

    assert _run(optimized, (x, y)) == expected
