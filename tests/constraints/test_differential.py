"""Differential-testing harness for the constraint solver.

Three independent equivalences, each parametrized across all six
shipped idioms (core + §8 extensions) and a small C-source corpus:

* ``detect`` ≡ ``detect_brute_force`` — the guided backtracking search
  finds exactly the §3.2 enumeration's solution set.  Brute force is
  ``|values(F)|^|I|``, so this runs on *derived mini-specs* (2–3 labels
  drawn from each idiom's constraint vocabulary); the full 11–21 label
  specs are infeasible to enumerate by construction, which is the
  paper's point.

* file-spec ≡ native-spec — every shipped ``.icsl`` file produces the
  identical solution set to its Python transliteration
  (``native_specs.py``, the test reference), on every corpus program,
  for the full specs.

* shared-cache ≡ per-call-cache — running every spec against one
  context's :class:`~repro.constraints.SharedSolverCache` (memoized
  proposals shared across specs, solved for-loop prefixes replayed)
  returns the identical solution list, in the identical order, as the
  PR-1 engine's per-``detect``-call state.

The helpers (:func:`solution_set`, :func:`assert_same_solutions`,
:func:`contexts_for`) are reusable for future idioms: add a spec pair
or corpus entry and the whole matrix re-runs.
"""

import pytest

from repro.constraints import (
    ConstraintAnd,
    IdiomSpec,
    Opcode,
    PhiOfTwo,
    SharedSolverCache,
    SolverContext,
    SolverStats,
    detect,
    detect_brute_force,
    load_spec_file,
)
from repro.constraints.predicates import load_before_store, same_join
from repro.constraints.specfile import builtin_spec_path
from repro.frontend import compile_source
from repro.idioms import BUILTIN_IDIOMS, IdiomRegistry
from native_specs import NATIVE_SPECS

# -- the corpus ---------------------------------------------------------------

CORPUS = {
    "scalar-sum": """
        double a[16]; int n;
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = 0.5 * s + a[i];
            return s;
        }
        """,
    "nested-sum": """
        double a[64]; int n;
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                for (int j = 0; j < 8; j++)
                    s = s + a[i*8 + j];
            return s;
        }
        """,
    "histogram": """
        int hist[8]; int keys[32]; int n;
        void f(void) {
            for (int i = 0; i < n; i++) hist[keys[i]]++;
        }
        """,
    "not-a-reduction": """
        int f(int n) {
            int i = 0;
            int lim = n;
            while (i < lim) { lim = lim - 1; i = i + 1; }
            return i;
        }
        """,
    "iterator-carried": """
        double a[16]; int n;
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + a[i] * i;
            return s;
        }
        """,
    "dot-product": """
        double xs[16]; double ys[16]; int n;
        double dot(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + xs[i] * ys[i];
            return s;
        }
        double norm(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + xs[i] * xs[i];
            return s;
        }
        """,
    "argminmax": """
        double a[16]; int n;
        int argmin_of(void) {
            double best = 1000000.0;
            int pos = 0;
            for (int i = 0; i < n; i++) {
                if (a[i] < best) { best = a[i]; pos = i; }
            }
            return pos;
        }
        """,
    "nested-rms": """
        double rms[5]; double rhs[80]; int n;
        void norms(void) {
            for (int i = 0; i < n; i++)
                for (int m = 0; m < 5; m++) {
                    double add = rhs[i*5 + m];
                    rms[m] = rms[m] + add * add;
                }
        }
        """,
}

# -- the reusable harness -----------------------------------------------------


def contexts_for(source: str):
    """Solver contexts for every defined function of a C source."""
    module = compile_source(source)
    return [
        SolverContext(function, module)
        for function in module.defined_functions()
    ]


def solution_set(solutions, order):
    """Canonicalize solutions: a set of per-label value-identity tuples."""
    return {tuple(id(s[label]) for label in order) for s in solutions}


def assert_same_solutions(ctx, spec_a, spec_b):
    """Both specs must produce the identical solution set in ``ctx``.

    The canonical key uses ``spec_a``'s label order, so the two specs
    must share a label set (their orders may differ).
    """
    assert set(spec_a.label_order) == set(spec_b.label_order)
    a = solution_set(detect(ctx, spec_a), spec_a.label_order)
    b = solution_set(detect(ctx, spec_b), spec_a.label_order)
    assert a == b


# -- detect ≡ brute force on derived mini-specs -------------------------------

#: 2–3 label sub-idioms, one derived from each shipped idiom's
#: vocabulary, small enough for |universe|^|I| enumeration.
MINI_SPECS = {
    "for-loop": lambda: IdiomSpec(
        "forloop-mini",
        ("iterator", "next_iter", "iter_begin"),
        ConstraintAnd(
            PhiOfTwo("iterator", "next_iter", "iter_begin"),
            Opcode("next_iter", "add", ("iterator", None), commutative=True),
        ),
    ),
    "scalar-reduction": lambda: IdiomSpec(
        "scalar-mini",
        ("acc", "acc_update", "acc_init"),
        ConstraintAnd(
            PhiOfTwo("acc", "acc_update", "acc_init"),
            Opcode("acc_update", "fadd", (None, None), commutative=True),
        ),
    ),
    "histogram": lambda: IdiomSpec(
        "histogram-mini",
        ("hist_store", "update", "gep_st"),
        ConstraintAnd(
            Opcode("hist_store", "store", ("update", "gep_st")),
            Opcode("gep_st", "gep", (None, None)),
        ),
    ),
    "dot-product": lambda: IdiomSpec(
        "dot-product-mini",
        ("product", "load_a", "load_b"),
        ConstraintAnd(
            Opcode("product", "fmul", ("load_a", "load_b"),
                   commutative=True),
            Opcode("load_a", "load", (None,)),
            Opcode("load_b", "load", (None,)),
        ),
    ),
    "argminmax": lambda: IdiomSpec(
        "argminmax-mini",
        ("best_update", "pos_update"),
        ConstraintAnd(
            Opcode("best_update", "phi", ()),
            Opcode("pos_update", "phi", ()),
            same_join("best_update", "pos_update"),
        ),
    ),
    "nested-array-reduction": lambda: IdiomSpec(
        "nested-mini",
        ("arr_load", "arr_store"),
        ConstraintAnd(
            Opcode("arr_store", "store", (None, None)),
            Opcode("arr_load", "load", (None,)),
            load_before_store("arr_load", "arr_store"),
        ),
    ),
}


@pytest.mark.parametrize("idiom", sorted(MINI_SPECS))
@pytest.mark.parametrize("program", sorted(CORPUS))
def test_detect_matches_brute_force(idiom, program):
    spec = MINI_SPECS[idiom]()
    for ctx in contexts_for(CORPUS[program]):
        fast = solution_set(detect(ctx, spec), spec.label_order)
        slow = solution_set(detect_brute_force(ctx, spec), spec.label_order)
        assert fast == slow


# -- file-spec ≡ native-spec on the full idioms -------------------------------


@pytest.mark.parametrize("idiom", sorted(NATIVE_SPECS))
@pytest.mark.parametrize("program", sorted(CORPUS))
def test_file_spec_matches_native_spec(idiom, program):
    native = NATIVE_SPECS[idiom]()
    external = load_spec_file(builtin_spec_path(idiom))[idiom]
    assert external.label_order == native.label_order
    for ctx in contexts_for(CORPUS[program]):
        assert_same_solutions(ctx, native, external)


def test_all_builtin_idioms_covered():
    """The differential matrix covers every built-in idiom."""
    assert set(NATIVE_SPECS) == set(BUILTIN_IDIOMS)
    assert set(MINI_SPECS) == set(BUILTIN_IDIOMS)


# -- shared-cache ≡ per-call-cache on the full idioms -------------------------


@pytest.mark.parametrize("program", sorted(CORPUS))
def test_shared_cache_matches_per_call_cache(program):
    """One context's shared cache (memoized proposals + replayed
    for-loop prefixes, accumulated across all six specs) returns the
    identical solution list — order included — as PR-1's fresh
    per-``detect``-call state."""
    registry = IdiomRegistry()
    for ctx in contexts_for(CORPUS[program]):
        for name in BUILTIN_IDIOMS:
            spec = registry.spec(name)
            shared = detect(ctx, spec)  # ctx.solver_cache, persistent
            private = detect(ctx, spec, cache=SharedSolverCache())
            assert shared == private, (program, name)


def test_limit_bounded_search_never_computes_the_base():
    """``limit`` must stay cheap: a bounded search on a cold cache
    falls back to plain DFS rather than fully enumerating the base
    spec first; on a warm cache it replays the existing list."""
    registry = IdiomRegistry()
    spec = registry.spec("scalar-reduction")
    for ctx in contexts_for(CORPUS["scalar-sum"]):
        cold_stats = SolverStats()
        first = detect(ctx, spec, stats=cold_stats, limit=1,
                       cache=SharedSolverCache())
        assert len(first) == 1
        assert cold_stats.prefix_reuses == 0
        unbounded = detect(ctx, spec)  # warms ctx.solver_cache
        warm_stats = SolverStats()
        bounded = detect(ctx, spec, stats=warm_stats, limit=1)
        assert warm_stats.prefix_reuses == 1
        assert bounded == unbounded[:1] == first


def test_shared_cache_saves_constraint_evals():
    """Running the extends-family specs on one context must replay the
    solved for-loop prefix: fewer total conjunct evaluations than the
    per-call engine, for the same solutions."""
    registry = IdiomRegistry()
    specs = [registry.spec(n) for n in ("scalar-reduction", "histogram")]
    for ctx in contexts_for(CORPUS["histogram"]):
        shared_stats, private_stats = SolverStats(), SolverStats()
        shared = [
            detect(ctx, spec, stats=shared_stats) for spec in specs
        ]
        private = [
            detect(ctx, spec, stats=private_stats,
                   cache=SharedSolverCache())
            for spec in specs
        ]
        assert shared == private
        assert shared_stats.prefix_reuses == len(specs)
        assert shared_stats.constraint_evals < private_stats.constraint_evals


def test_corpus_finds_expected_reductions():
    """Sanity: the corpus exercises both hit and miss paths."""
    registry = IdiomRegistry()
    scalar = registry.spec("scalar-reduction")
    histogram = registry.spec("histogram")
    expected = {
        "scalar-sum": (1, 0),
        # only the inner accumulator: the outer update is the inner
        # loop's result, a loop-carried value the flow slice rejects
        "nested-sum": (1, 0),
        "histogram": (0, 1),
        "not-a-reduction": (0, 0),
        "iterator-carried": (0, 0),  # §3.1.1 cond. 4: iterator in value
        "dot-product": (2, 0),  # both dot and norm are scalar sums too
        "argminmax": (0, 0),  # the guard reads the accumulator
        "nested-rms": (0, 0),  # §6.1: mid-nest stores stay out
    }
    assert set(expected) == set(CORPUS)
    for name, (scalars, histograms) in expected.items():
        found_scalars = found_histograms = 0
        for ctx in contexts_for(CORPUS[name]):
            found_scalars += len(
                {id(s["acc"]) for s in detect(ctx, scalar)}
            )
            found_histograms += len(
                {id(s["hist_store"]) for s in detect(ctx, histogram)}
            )
        assert (found_scalars, found_histograms) == (scalars, histograms), name
