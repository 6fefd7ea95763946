"""The solver context hand-off from detection to the extension idioms.

The two-call library path: ``find_reductions(module)`` leaves each
function's context on the function, stamped with the module's
mutation epochs; ``find_extended_reductions(module)`` reuses it while
the stamp holds and builds a fresh one otherwise.  Reuse must never
change a report.  ``find_reductions(module, extended=True)`` runs the
extension idioms itself and leaves no context behind.
"""

import gc
import weakref

import pytest

import repro.idioms.extensions as extensions
from repro import compile_source
from repro.constraints import SolverContext
from repro.idioms import (
    find_extended_in_function,
    find_extended_reductions,
    find_reductions,
    find_reductions_in_function,
)
from repro.idioms.extensions import ExtendedReport
from repro.ir import BinaryInst, const_int
from repro.workloads.corpus import all_programs

SOURCE = """
double a[64]; double b[64]; int n;
double norm(double x);
double dot(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i] * b[i]; }
    return s;
}
double total(void) {
    double t = 0.0;
    for (int i = 0; i < n; i++) { t = t + a[i]; }
    return t;
}
"""


def names(report: ExtendedReport):
    return (
        [d.name for d in report.dot_products],
        [f"{m.name} {m.kind}" for m in report.argminmax],
        [f"{x.name} {x.op.value}" for x in report.nested_array],
    )


def fresh_extended(module) -> ExtendedReport:
    """The extension report from a fresh context per function."""
    report = ExtendedReport(module.name)
    for function in module.defined_functions():
        report.extend(find_extended_in_function(function, module))
    return report


@pytest.fixture
def built(monkeypatch):
    """Counts the contexts ``find_extended_in_function`` builds."""
    counter = []

    class CountingContext(SolverContext):
        def __init__(self, *args, **kwargs):
            counter.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(extensions, "SolverContext", CountingContext)
    return counter


def test_find_reductions_leaves_its_contexts_on_the_functions():
    module = compile_source(SOURCE, "m")
    report = find_reductions(module)
    for found in report.functions:
        ctx, _stamp = found.function.solver_handoff
        assert isinstance(ctx, SolverContext)
        assert ctx.function is found.function and ctx.module is module
    assert module.get_function("norm").solver_handoff is None


def test_extended_detection_leaves_no_context():
    module = compile_source(SOURCE, "m")
    find_reductions(module)
    find_reductions(module, extended=True)
    assert all(f.solver_handoff is None for f in module.functions.values())


def test_per_function_detection_leaves_no_context():
    module = compile_source(SOURCE, "m")
    find_reductions_in_function(module.get_function("dot"), module)
    assert module.get_function("dot").solver_handoff is None


def test_extension_reuses_an_unchanged_context(built):
    module = compile_source(SOURCE, "m")
    find_reductions(module)
    report = find_extended_reductions(module)
    assert built == []
    # Taken off: the function no longer keeps the context alive.
    assert all(f.solver_handoff is None for f in module.functions.values())
    assert names(report) == names(fresh_extended(module))
    assert len(names(report)[0]) == 1  # the dot product


def test_extension_without_detection_builds_fresh_contexts(built):
    module = compile_source(SOURCE, "m")
    find_extended_reductions(module)
    assert len(built) == 2


def test_a_mutation_after_detection_forces_fresh_contexts(built):
    module = compile_source(SOURCE, "m")
    find_reductions(module)
    before = names(fresh_extended(module))
    assert len(before[0]) == 1
    built.clear()
    # Make the product square ``a[i]``: no longer a dot product of two
    # distinct arrays.
    dot = module.get_function("dot")
    product = next(i for i in dot.instructions() if i.opcode == "fmul")
    product.set_operand(1, product.operand(0))
    after = find_extended_reductions(module)
    assert len(built) == 2  # both functions: the stamp is module-wide
    assert names(after) == names(fresh_extended(module))
    assert names(after) != before


@pytest.mark.parametrize("change", ["insert", "purity", "new function"])
def test_any_module_change_forces_fresh_contexts(built, change):
    module = compile_source(SOURCE, "m")
    find_reductions(module)
    if change == "insert":
        block = module.get_function("total").entry
        block.insert(0, BinaryInst("add", const_int(1), const_int(2)))
    elif change == "purity":
        module.get_function("norm").pure = True
    else:
        module.add_function("extra", module.get_function("norm").type)
    find_extended_reductions(module)
    assert len(built) == 2


def test_a_context_built_for_another_module_is_not_reused(built):
    module = compile_source(SOURCE, "m")
    find_reductions(module)
    other = compile_source(SOURCE, "m")
    for function in other.defined_functions():
        function.solver_handoff = \
            module.get_function(function.name).solver_handoff
    find_extended_reductions(other)
    assert len(built) == 2


def test_contexts_do_not_outlive_their_module():
    module = compile_source(SOURCE, "m")
    find_reductions(module)
    refs = [weakref.ref(f.solver_handoff[0])
            for f in module.defined_functions()]
    del module
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_no_context_outlives_find_extended_reductions():
    """The handed-over contexts die when ``find_extended_reductions``
    returns, with no cycle collection, while the module and both
    reports are still alive: no report keeps a context."""
    module = compile_source(SOURCE, "m")
    report = find_reductions(module)
    refs = [weakref.ref(f.solver_handoff[0])
            for f in module.defined_functions()]
    gc.disable()
    try:
        extended = find_extended_reductions(module)
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert report.counts() == (2, 0)
    assert len(extended.dot_products) == 1


def _assert_reuse_matches_fresh(programs):
    for name, source in programs:
        module = compile_source(source, name)
        find_reductions(module)
        reused = find_extended_reductions(module)
        assert names(reused) == names(fresh_extended(module)), name


def test_reused_contexts_match_fresh_ones_on_the_corpus():
    _assert_reuse_matches_fresh(
        [(p.name, p.source) for p in all_programs()])


@pytest.mark.parametrize("seed", [0, 7, 4242])
def test_reused_contexts_match_fresh_ones_on_generated_code(generator, seed):
    _assert_reuse_matches_fresh(
        [(p.name, p.source) for p in generator.generate(seed)])
