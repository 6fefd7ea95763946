"""The per-function analysis cache (``repro.analysis.cache``).

An analysis is kept while the function's mutation epoch holds and
rebuilt after any mutation.  The debug check below runs the compile
pipeline and the outliner with every cache hit compared against a
fresh build.  It fills the cache before and after every pass and, on
the corpus and the outliner, before every IR mutation a pass makes,
so a mutation that forgets to bump the epoch shows up as a stale
analysis at the next request.  (Filling per mutation costs about 30 s
per generated seed, so the seeds are filled per pass.)
"""

import contextlib

import pytest

from repro import compile_source, frontend
from repro.analysis.cache import FunctionAnalyses, function_analyses
from repro.analysis.cfg import CFG
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopInfo
from repro.analysis.scev import ScalarEvolution
from repro.constraints import SolverContext
from repro.idioms import find_reductions
from repro.ir import (
    BasicBlock,
    BinaryInst,
    Function,
    Instruction,
    PhiInst,
    const_int,
)
from repro.passes.simplify import remove_unreachable_blocks
from repro.pipeline import PipelineOptions
from repro.pipeline.shard import WorkUnit
from repro.pipeline.worker import ModuleCache, _build_registry, detect_unit
from repro.transform import outline_loop, plan_all
from repro.workloads import program
from repro.workloads.corpus import FIGURE15_BENCHMARKS, all_programs

ANALYSES = ("cfg", "dom", "postdom", "loop_info", "scev", "control_deps",
            "value_index")

#: ``compile_source``'s passes, looked up in ``repro.frontend``.
PASSES = ("remove_unreachable_blocks", "dead_code_elimination",
          "remove_trivial_phis", "merge_straightline_blocks",
          "hoist_invariant_loads", "local_cse")

LOOP_SOURCE = """
double a[16]; int n;
double total(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}
"""


@pytest.fixture
def function():
    return compile_source(LOOP_SOURCE).get_function("total")


def kept(function):
    """Every analysis, requested through the cache."""
    cache = function_analyses(function)
    return {name: getattr(cache, name) for name in ANALYSES}


# -- reuse and invalidation ---------------------------------------------------


def test_analyses_are_reused_while_the_epoch_holds(function):
    first = kept(function)
    assert all(kept(function)[name] is first[name] for name in ANALYSES)
    ctx = SolverContext(function)
    assert [ctx.cfg, ctx.dom, ctx.postdom, ctx.loop_info, ctx.scev,
            ctx.control_deps, ctx.universe] == [first[name]
                                                for name in ANALYSES[:-1]] \
        + [first["value_index"].universe]
    assert ctx.instruction_position is first["value_index"].position
    assert function_analyses(function).scev.loop_info is first["loop_info"]


def mutations(function):
    """``(kind, mutate)`` for every way the IR is edited."""
    body = next(b for b in function.blocks
                if any(isinstance(i, BinaryInst) for i in b.instructions))
    extra = BinaryInst("add", const_int(1), const_int(2), "extra")
    add = next(i for i in body.instructions if isinstance(i, BinaryInst))
    dead = BasicBlock("dead")
    return [
        ("instruction insert", lambda: body.insert(0, extra)),
        ("instruction remove", lambda: body.remove(extra)),
        ("operand set", lambda: add.set_operand(1, const_int(3))),
        ("block append", lambda: function.append_block(dead)),
        ("simplify's block removal",
         lambda: remove_unreachable_blocks(function)),
    ]


def test_every_kind_of_mutation_rebuilds_every_analysis(function):
    for kind, mutate in mutations(function):
        before = kept(function)
        mutate()
        after = kept(function)
        assert all(after[name] is not before[name] for name in ANALYSES), \
            kind


def test_simplify_block_removal_alone_invalidates(function):
    """An empty dead block: no instruction is dropped, so only the
    pass's own epoch bump tells the cache the block list changed."""
    function.append_block(BasicBlock("dead"))
    stale = function_analyses(function).cfg
    assert remove_unreachable_blocks(function) == 1
    fresh = function_analyses(function).cfg
    assert fresh is not stale
    assert set(fresh.successors) == set(function.blocks)


CALL_SOURCE = """
double a[16]; int n;
double twice(double x) { return x * 2.0; }
double total(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + twice(a[i]);
    return s;
}
"""


def test_flow_memo_follows_the_purity_of_the_callees():
    """Flow verdicts depend on whether the calls they cross are pure,
    so contexts share a memo only when their callees are pure alike."""
    module = compile_source(CALL_SOURCE)
    total, twice = module.get_function("total"), module.get_function("twice")
    analysed = SolverContext(total, module).flow_memo  # twice is pure
    assert SolverContext(total, module).flow_memo is analysed
    flagged = SolverContext(total).flow_memo  # twice's own flag: impure
    assert flagged is not analysed
    twice.pure = True
    assert SolverContext(total).flow_memo is analysed


# -- the debug check ----------------------------------------------------------


def fresh_build(name, function):
    """``name`` built anew by a cache of its own."""
    return getattr(FunctionAnalyses(function), name)


def summary(name, analysis, function):
    """What the check compares: CFG edges, (post-)idoms, loop headers
    and blocks, SCEV loop bounds, control dependences, and the
    universe and opcode index."""
    if name == "cfg":
        return dict(analysis.successors), dict(analysis.predecessors)
    if name in ("dom", "postdom"):
        return dict(analysis.idom)
    if name == "loop_info":
        return {loop.header: (frozenset(loop.blocks),
                              loop.parent and loop.parent.header)
                for loop in analysis.loops}
    if name == "scev":
        # Loops of a fresh build: a stale SCEV must still answer for
        # the function as it is.
        return {loop.header: analysis.loop_bounds(loop)
                for loop in LoopInfo(function).loops}
    return analysis


class CacheChecker:
    """Compares every cache hit with a fresh build, and fills the cache
    of the tracked functions around each pass and, with
    ``per_mutation``, before each IR mutation."""

    def __init__(self, monkeypatch, per_mutation: bool):
        self.hits = 0
        self.tracked: set = set()
        original_get = FunctionAnalyses._get
        checker = self

        def checked_get(cache, name, build):
            hit = (cache.epoch == cache.function.epoch
                   and name in cache._built)
            analysis = original_get(cache, name, build)
            if hit:
                checker.hits += 1
                checker.compare(cache.function, name, analysis)
            return analysis

        monkeypatch.setattr(FunctionAnalyses, "_get", checked_get)
        for name in PASSES:
            monkeypatch.setattr(frontend, name,
                                self.checked_pass(getattr(frontend, name)))
        if not per_mutation:
            return
        for owner, method in (
            (BasicBlock, "append"), (BasicBlock, "insert"),
            (BasicBlock, "remove"), (Instruction, "set_operand"),
            (Instruction, "drop_all_references"),
            (PhiInst, "add_incoming"), (PhiInst, "set_incoming"),
            (Function, "append_block"),
        ):
            monkeypatch.setattr(owner, method,
                                self._filling(getattr(owner, method)))

    @staticmethod
    def compare(function, name, analysis):
        expected = summary(name, fresh_build(name, function), function)
        assert summary(name, analysis, function) == expected, (
            f"{function.name}: cached {name} is stale at epoch "
            f"{function.epoch}")

    def fill(self, function):
        """Request every analysis (a hit is compared), and fill SCEV's
        induction-variable memo."""
        cache = function_analyses(function)
        for name in ANALYSES:
            getattr(cache, name)
        for loop in cache.loop_info.loops:
            cache.scev.loop_bounds(loop)

    def _filling(self, method):
        checker = self

        def filled_first(target, *args, **kwargs):
            function = target if isinstance(target, Function) else (
                target.parent if isinstance(target, BasicBlock)
                else target.function)
            if function in checker.tracked:
                checker.fill(function)
            return method(target, *args, **kwargs)

        return filled_first

    @contextlib.contextmanager
    def tracking(self, functions):
        """Fill before, during (see ``per_mutation``) and after."""
        functions = [f for f in functions if not f.is_declaration]
        for function in functions:
            self.fill(function)
        self.tracked.update(functions)
        try:
            yield
        finally:
            self.tracked.difference_update(functions)
        for function in functions:
            self.fill(function)

    def checked_pass(self, run_pass):
        def checked(function):
            with self.tracking([function]):
                return run_pass(function)

        return checked

    def check_module(self, module):
        """Every analysis of every defined function equals a fresh
        build."""
        for function in module.defined_functions():
            for name, analysis in kept(function).items():
                self.compare(function, name, analysis)


@pytest.fixture
def checker(monkeypatch):
    return CacheChecker(monkeypatch, per_mutation=True)


def compile_checked(checker, source, name):
    module = compile_source(source, name)
    checker.check_module(module)
    return module


def test_cache_matches_fresh_builds_on_the_corpus(checker):
    for bench in all_programs():
        compile_checked(checker, bench.source, bench.name)
    assert checker.hits > 1000


@pytest.mark.parametrize("seed", [0, 7, 4242])
def test_cache_matches_fresh_builds_on_generated_programs(monkeypatch,
                                                          generator, seed):
    checker = CacheChecker(monkeypatch, per_mutation=False)
    for generated in generator.generate(seed):
        compile_checked(checker, generated.source, generated.name)
    assert checker.hits > 0


def test_cache_matches_fresh_builds_after_outlining(checker):
    outlined = 0
    for name in FIGURE15_BENCHMARKS:
        bench = program(name)
        module = compile_checked(checker, bench.source, bench.name)
        report = find_reductions(module)
        for reductions in report.functions:
            plans, _ = plan_all(module, reductions)
            for plan in plans:
                with checker.tracking(list(module.defined_functions())):
                    outline_loop(module, plan)
                outlined += 1
        checker.check_module(module)
    assert outlined >= len(FIGURE15_BENCHMARKS)


def test_the_checker_catches_a_missed_epoch_bump(checker, function):
    """Sanity check of the check itself: an edit that does not bump
    the epoch leaves a stale CFG, and the next request says so."""
    checker.fill(function)
    exit_block = function.blocks[-1]
    function.blocks.remove(exit_block)  # a raw list edit: no bump
    with pytest.raises(AssertionError, match="cached cfg is stale"):
        function_analyses(function).cfg


# -- the warm worker ----------------------------------------------------------


def test_warm_detect_unit_builds_no_analysis(monkeypatch):
    options = PipelineOptions(extended=True, baselines=True)
    registry = _build_registry(options)
    unit = WorkUnit("histo", "Parboil")
    modules = ModuleCache()
    detect_unit(unit, options, registry, modules)

    builds = []
    for owner, method in ((CFG, "__init__"), (LoopInfo, "__init__"),
                          (ScalarEvolution, "__init__")):
        original = getattr(owner, method)

        def counted(self, *args, _original=original, **kwargs):
            builds.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, method, counted)
    for method in ("compute", "compute_post"):
        original = getattr(DominatorTree, method)

        def counted(*args, _original=original, _name=method, **kwargs):
            builds.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(DominatorTree, method, counted)

    warm = detect_unit(unit, options, registry, modules)
    assert builds == []
    # Another registry on the same warm cache shares its flow verdicts.
    other = detect_unit(unit, options, _build_registry(options), modules)
    assert builds == []
    monkeypatch.undo()
    cold = detect_unit(unit, options, _build_registry(options), ModuleCache())
    canonical = lambda digest: {name: stats.canonical()
                                for name, stats in digest.spec_stats.items()}
    for digest in (warm, other):
        assert digest == cold
        assert canonical(digest) == canonical(cold)
    assert warm.functions and warm.icc is not None
