"""Tests for generalized graph domination (the flow constraints)."""

import gc
import weakref

from repro.analysis import LoopInfo
from repro.constraints import FlowChecker, FlowPolicy, SolverContext
from repro.frontend import compile_source


def _setup(source, function="f"):
    module = compile_source(source)
    fn = module.get_function(function)
    ctx = SolverContext(fn, module)
    loop = ctx.loop_info.top_level_loops()[0]
    header = loop.header
    acc = None
    iterator = None
    for phi in header.phis():
        if phi.type.is_float():
            acc = phi
        else:
            iterator = phi
    update = acc.incoming_for_block(
        next(p for p in header.predecessors() if p in loop.blocks)
    )
    return ctx, loop, header, acc, iterator, update


GOOD = """
double a[32]; int n;
double f(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        if (a[i] > 0.5) { s = s + a[i]; }
    }
    return s;
}
"""


def test_good_reduction_update_passes():
    ctx, loop, header, acc, iterator, update = _setup(GOOD)
    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                      index_sources=(iterator,), require_affine_index=True)
    control = FlowPolicy(rejected=(iterator, acc),
                         index_sources=(iterator,),
                         require_affine_index=True)
    result = checker.check(update, data, control)
    assert result.ok
    assert result.loads  # a[i] feeds the slice
    assert id(acc) in result.visited


def test_paper_counterexample_rejected():
    """§2: changing the condition to t1 <= sx breaks the reduction."""
    source = """
    double a[32]; int n;
    double f(void) {
        double s = 0.0;
        double t = 0.0;
        for (int i = 0; i < n; i++) {
            if (a[i] <= t) { t = t + a[i]; s = s + 1.0; }
        }
        return s + t;
    }
    """
    module = compile_source(source)
    fn = module.get_function("f")
    ctx = SolverContext(fn, module)
    loop = ctx.loop_info.top_level_loops()[0]
    header = loop.header
    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    phis = [p for p in header.phis() if p.type.is_float()]
    iterator = next(p for p in header.phis() if p.type.is_integer())
    for acc in phis:
        update = acc.incoming_for_block(
            next(p for p in header.predecessors() if p in loop.blocks)
        )
        data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                          index_sources=(iterator,),
                          require_affine_index=True)
        control = FlowPolicy(rejected=(iterator, acc),
                             index_sources=(iterator,),
                             require_affine_index=True)
        result = checker.check(update, data, control)
        # Both accumulators fail: each is control dependent on a
        # loop-carried value (t reads itself; s reads t).
        assert not result.ok


def test_impure_call_rejected():
    source = """
    double a[32]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + a[i] * rand();
        return s;
    }
    """
    ctx, loop, header, acc, iterator, update = _setup(source)
    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                      index_sources=(iterator,))
    result = checker.check(update, data)
    assert not result.ok
    assert "impure" in result.reason


def test_pure_call_traversed():
    source = """
    double a[32]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + sqrt(fabs(a[i]));
        return s;
    }
    """
    ctx, loop, header, acc, iterator, update = _setup(source)
    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                      index_sources=(iterator,), require_affine_index=True)
    result = checker.check(update, data)
    assert result.ok
    assert len(result.calls) == 2


def test_load_from_stored_base_rejected():
    source = """
    double a[32]; double b[32]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            b[i] = a[i];
            s = s + b[i];
        }
        return s;
    }
    """
    ctx, loop, header, acc, iterator, update = _setup(source)
    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                      index_sources=(iterator,), require_affine_index=True)
    result = checker.check(update, data)
    assert not result.ok
    assert "stores to" in result.reason


def test_forbidden_base_rejected():
    source = """
    double a[32]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + a[i];
        return s;
    }
    """
    ctx, loop, header, acc, iterator, update = _setup(source)
    base = ctx.module.get_global("a")
    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                      forbidden_bases=(base,), index_sources=(iterator,))
    result = checker.check(update, data)
    assert not result.ok
    assert "forbidden base" in result.reason


def test_non_affine_index_rejected_when_required():
    source = """
    double a[64]; int idx[64]; int n;
    double f(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + a[idx[i]];
        return s;
    }
    """
    ctx, loop, header, acc, iterator, update = _setup(source)
    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    strict = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                        index_sources=(iterator,),
                        require_affine_index=True)
    assert not checker.check(update, strict).ok
    relaxed = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                         index_sources=(iterator,))
    assert checker.check(update, relaxed).ok


def test_header_phi_recurrence_rejected():
    """Another header PHI feeding the value is an intermediate result."""
    source = """
    double a[32]; int n;
    double f(void) {
        double s = 0.0;
        double t = 1.0;
        for (int i = 0; i < n; i++) {
            s = s + t;
            t = t * 0.5;
        }
        return s + t;
    }
    """
    ctx, loop, header, acc, iterator, update = _setup(source)
    # _setup picks one float phi; make sure we evaluate s (which reads t)
    for phi in header.phis():
        if phi.name.startswith("s"):
            acc = phi
    update = acc.incoming_for_block(
        next(p for p in header.predecessors() if p in loop.blocks)
    )
    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                      index_sources=(iterator,), require_affine_index=True)
    result = checker.check(update, data)
    assert not result.ok
    assert "loop-carried" in result.reason


def test_a_flow_check_leaves_no_cycle_holding_the_context():
    """Once the caller drops the checker and the result, the context is
    freed by reference counting alone, not at the next full garbage
    collection (dead contexts held that way raised the corpus CLI's
    peak memory)."""
    ctx, loop, header, acc, iterator, update = _setup(GOOD)
    data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                      index_sources=(iterator,), require_affine_index=True)
    gc.disable()
    try:
        checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
        assert checker.check(update, data).ok
        ref = weakref.ref(checker)
        del checker
        assert ref() is None
    finally:
        gc.enable()
