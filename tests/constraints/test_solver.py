"""Tests for the backtracking solver, including differential testing
against the exponential brute-force enumeration of §3.2."""

from repro.constraints import (
    CFGEdge,
    ConstraintAnd,
    ConstraintOr,
    EndsInUncondBranch,
    IdiomSpec,
    Opcode,
    SolverContext,
    SolverStats,
    detect,
    detect_brute_force,
)
from repro.frontend import compile_source
from repro.idioms import default_registry


def _tiny_ctx():
    module = compile_source(
        """
        int f(int a, int b) {
            int c = a + b;
            int d = c + a;
            return d;
        }
        """
    )
    return SolverContext(module.get_function("f"), module)


def test_solver_matches_brute_force_on_adds():
    ctx = _tiny_ctx()
    spec = IdiomSpec(
        "chained-add",
        ("x", "y"),
        ConstraintAnd(
            Opcode("x", "add", ("y", None)),
            Opcode("y", "add"),
        ),
    )
    fast = detect(ctx, spec)
    slow = detect_brute_force(ctx, spec)
    as_set = lambda sols: {tuple(id(s[l]) for l in spec.label_order)
                           for s in sols}
    assert as_set(fast) == as_set(slow)
    assert len(fast) == 1  # d = c + a with c = a + b


def test_solver_matches_brute_force_with_disjunction():
    ctx = _tiny_ctx()
    spec = IdiomSpec(
        "add-or-ret",
        ("x",),
        ConstraintOr(Opcode("x", "add"), Opcode("x", "ret")),
    )
    fast = detect(ctx, spec)
    slow = detect_brute_force(ctx, spec)
    assert len(fast) == len(slow) == 3  # two adds + one ret


def test_solver_stats_reflect_pruning():
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
    ctx = SolverContext(module.get_function("f"), module)
    spec = default_registry().spec("for-loop")
    stats = SolverStats()
    solutions = detect(ctx, spec, stats=stats)
    assert len(solutions) == 1
    assert stats.solutions == 1
    # Guided search must try far fewer assignments than the naive
    # |universe|^12 space.
    assert stats.assignments_tried < len(ctx.universe) ** 2


def test_bad_label_order_explodes_candidates():
    """§3.3: the enumeration order drives solver effort."""
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
    ctx = SolverContext(module.get_function("f"), module)
    spec = default_registry().spec("for-loop")
    good = SolverStats()
    detect(ctx, spec, stats=good)
    # Move the weakly-constrained value labels first: candidates must
    # now be drawn from much larger sets.
    bad_order = tuple(reversed(spec.label_order))
    bad_spec = spec.reordered(bad_order)
    bad = SolverStats()
    solutions = detect(ctx, bad_spec, stats=bad)
    assert len(solutions) == 1  # same result...
    assert bad.assignments_tried > good.assignments_tried  # ...more work


def test_limit_stops_enumeration():
    ctx = _tiny_ctx()
    spec = IdiomSpec("any-add", ("x",), Opcode("x", "add"))
    solutions = detect(ctx, spec, limit=1)
    assert len(solutions) == 1


def test_or_eliminates_failed_disjuncts():
    ctx = _tiny_ctx()
    ret = ctx.instructions_with_opcode("ret")[0]
    disjunction = ConstraintOr(Opcode("x", "add"), Opcode("x", "ret"))
    assert disjunction.partial_check(ctx, {"x": ret})
    load_free = ConstraintOr(Opcode("x", "load"), Opcode("x", "store"))
    assert not load_free.partial_check(ctx, {"x": ret})
