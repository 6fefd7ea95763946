"""The one detection call: base, extension and custom idioms on one
solver context per function.

``find_reductions(module, extended=True)`` must find what the
two-step sequence finds (``find_reductions_in_function``, then
``find_extended_in_function`` on the same context, charged to the same
statistics) and charge every function exactly the same search effort,
spec by spec.
"""

import pytest

from repro import compile_source
from repro.constraints import SolverContext
from repro.idioms import (
    IdiomRegistry,
    find_extended_in_function,
    find_reductions,
    find_reductions_in_function,
)
from repro.pipeline.digest import digest_extensions, digest_function
from repro.workloads.corpus import all_programs

MUL_ACCUMULATE = """
idiom mul-accumulate extends for-loop {
  order: header test body exit entry latch iterator next_iter iter_begin iter_step iter_end acc acc_update acc_init
  phi2(acc, acc_update, acc_init)
  inblock(acc, header)
  phiedge(acc, acc_update, latch)
  phiedge(acc, acc_init, entry)
  opcode(acc_update, fadd, acc, _) commutative
  invariant(acc_init, entry)
  flow(acc_update, header, sources=acc, rejected=iterator, index=iterator, affine)
}
"""

SOURCE = """
double a[64]; double b[64]; int n;
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


def effort(fr):
    """One function's detections and search effort, comparable."""
    return (
        digest_function(fr),
        fr.stats.canonical(),
        {name: stats.canonical() for name, stats in fr.spec_stats.items()},
        list(fr.spec_stats),
    )


def one_call(source, name):
    module = compile_source(source, name)
    return [
        (effort(fr), digest_extensions(fr.extensions))
        for fr in find_reductions(module, extended=True).functions
    ]


def two_steps(source, name):
    module = compile_source(source, name)
    found = []
    for function in module.defined_functions():
        ctx = SolverContext(function, module)
        fr = find_reductions_in_function(function, module, ctx=ctx)
        matches = find_extended_in_function(
            function, module, ctx=ctx, stats=fr.stats,
            spec_stats=fr.spec_stats)
        found.append((effort(fr), digest_extensions(matches)))
    return found


def _assert_one_call_matches_two_steps(programs):
    for name, source in programs:
        assert one_call(source, name) == two_steps(source, name), name


def test_one_call_matches_two_steps_on_the_corpus():
    _assert_one_call_matches_two_steps(
        [(p.name, p.source) for p in all_programs()])


@pytest.mark.parametrize("seed", [0, 7, 4242])
def test_one_call_matches_two_steps_on_generated_code(generator, seed):
    _assert_one_call_matches_two_steps(
        [(p.name, p.source) for p in generator.generate(seed)])


@pytest.fixture
def registry(tmp_path):
    path = tmp_path / "mul_accumulate.icsl"
    path.write_text(MUL_ACCUMULATE)
    registry = IdiomRegistry()
    registry.load_file(str(path))
    return registry


@pytest.mark.parametrize("extended", [False, True])
def test_custom_idioms_run_in_the_one_call(registry, extended):
    module = compile_source(SOURCE, "m")
    report = find_reductions(module, registry=registry, extended=extended)
    for fr in report.functions:
        assert len(fr.custom["mul-accumulate"]) == 1, fr.function.name
        custom = fr.spec_stats["mul-accumulate"]
        assert custom.constraint_evals > 0
        # The custom search comes last, and the function's aggregate is
        # still the merge of its per-spec breakdown.
        assert list(fr.spec_stats)[-1] == "mul-accumulate"
        assert fr.stats.constraint_evals == sum(
            s.constraint_evals for s in fr.spec_stats.values())
        assert (fr.extensions is not None) == extended


def test_without_custom_idioms_custom_is_empty():
    module = compile_source(SOURCE, "m")
    report = find_reductions(module, extended=True)
    assert all(fr.custom == {} for fr in report.functions)
    assert [len(fr.extensions.dot_products) for fr in report.functions] \
        == [1, 0]
