"""Warm serving: per-worker task pipes and kept solver contexts.

A serving worker reads its tasks from a private pipe and keeps one
solver context (the function's analyses) per function of each cached
module.  Neither may change a report: a warm request must send the
digests, effort counters included, that a cold worker would.  And
neither may leak: recycled, dead and stopped workers leave no file
descriptor and no child process behind, and an engine collected
without ``shutdown()`` says so.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import pytest

from repro.idioms.detect import find_reductions_in_function
from repro.ir import BinaryInst, const_int
from repro.pipeline import PipelineOptions, ServingEngine, detect_corpus
from repro.pipeline.worker import ModuleCache, _build_registry

SRC = Path(__file__).resolve().parents[2] / "src"

#: Two small programs and two others, 20 function units in all.
FIRST = [("EP", "NAS"), ("IS", "NAS")]
OTHER = [("bfs", "Parboil"), ("mri-q", "Parboil")]


def reference(keys):
    return detect_corpus(jobs=1, keys=keys, extended=True, baselines=True)


def test_warm_requests_reproduce_the_serial_reports():
    """The same keys served twice on one warm worker, interleaved with
    other keys and with a whole-corpus batch between the rounds: every
    report equals the serial one, effort counters included."""
    options = PipelineOptions(jobs=1, extended=True, baselines=True,
                              granularity="function")
    with ServingEngine(options) as engine:
        rounds = []
        for _ in range(2):
            first = engine.submit(FIRST, priority="interactive")
            other = engine.submit(OTHER, priority="batch")
            rounds.append((first.result(), other.result()))
            corpus = engine.serve()
    expected_first, expected_other = reference(FIRST), reference(OTHER)
    for first, other in rounds:
        assert first.programs == expected_first.programs
        assert first.fingerprint() == expected_first.fingerprint()
        assert other.fingerprint() == expected_other.fingerprint()
    assert corpus.fingerprint() == reference(None).fingerprint()


# -- ModuleCache's kept contexts ----------------------------------------------


@pytest.fixture
def registry():
    return _build_registry(PipelineOptions())


def kept_context(cache, key, function, registry):
    """The context ``cache`` keeps for ``function``: the one built at
    its second use."""
    cache.solver_context(key, function, registry)
    return cache.solver_context(key, function, registry)


def test_a_context_is_kept_from_the_second_use_on(registry):
    cache = ModuleCache()
    module, _ = cache.module(FIRST[0])
    function = next(iter(module.defined_functions()))
    once = cache.solver_context(FIRST[0], function, registry)
    twice = cache.solver_context(FIRST[0], function, registry)
    assert twice is not once
    assert cache.solver_context(FIRST[0], function, registry) is twice


def test_kept_context_is_reused_with_an_empty_search_cache(registry):
    cache = ModuleCache()
    module, _ = cache.module(FIRST[0])
    function = next(iter(module.defined_functions()))
    ctx = kept_context(cache, FIRST[0], function, registry)
    cold = find_reductions_in_function(function, module, registry, ctx=ctx)
    assert ctx._solver_cache is not None

    again = cache.solver_context(FIRST[0], function, registry)
    assert again is ctx
    assert ctx._solver_cache is None
    warm = find_reductions_in_function(function, module, registry, ctx=ctx)
    assert warm.stats == cold.stats
    assert warm.spec_stats == cold.spec_stats


def test_kept_context_drops_its_flow_memo_under_another_registry(registry):
    cache = ModuleCache()
    key = ("histo", "Parboil")
    module, _ = cache.module(key)
    contexts = [kept_context(cache, key, function, registry)
                for function in module.defined_functions()]
    for ctx in contexts:
        find_reductions_in_function(ctx.function, module, registry, ctx=ctx)
    filled = [ctx for ctx in contexts if ctx.flow_memo]
    assert filled, "no function of the program consulted a flow verdict"
    ctx = filled[0]
    assert cache.solver_context(key, ctx.function, registry) is ctx
    assert ctx.flow_memo
    other = _build_registry(PipelineOptions())
    assert cache.solver_context(key, ctx.function, other) is ctx
    assert ctx.flow_memo == {}


def test_kept_contexts_are_rebuilt_after_a_mutation(registry):
    cache = ModuleCache()
    module, _ = cache.module(FIRST[0])
    first, second = list(module.defined_functions())[:2]
    kept = {f: kept_context(cache, FIRST[0], f, registry)
            for f in (first, second)}
    assert cache.solver_context(FIRST[0], first, registry) is kept[first]

    # Mutate one function (and undo it): its epoch moves, so the
    # module stamp changes and every context of the module is stale.
    block = second.blocks[0]
    extra = BinaryInst("add", const_int(1), const_int(2), "extra")
    block.insert(0, extra)
    block.remove(extra)
    rebuilt = cache.solver_context(FIRST[0], first, registry)
    assert rebuilt is not kept[first]
    assert cache.solver_context(FIRST[0], second, registry) \
        is not kept[second]
    assert cache.solver_context(FIRST[0], first, registry) is rebuilt


def test_eviction_drops_the_kept_contexts(registry):
    cache = ModuleCache(max_entries=1)
    module, _ = cache.module(FIRST[0])
    function = next(iter(module.defined_functions()))
    ctx = weakref.ref(kept_context(cache, FIRST[0], function, registry))
    del module, function
    gc.collect()
    assert ctx() is not None
    cache.module(FIRST[1])          # evicts FIRST[0]
    gc.collect()
    assert ctx() is None
    assert cache.keys() == [FIRST[1]]


# -- the task pipe ------------------------------------------------------------


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count descriptors")
def test_recycled_workers_leave_no_descriptors_or_children():
    """A worker per unit: every recycle closes the parent's ends of both
    pipes and releases the retired process."""
    # One engine first, so descriptors the multiprocessing machinery
    # keeps for the life of the interpreter are in the baseline.
    with ServingEngine(PipelineOptions(jobs=1)) as engine:
        engine.serve(FIRST[:1])
    baseline = _open_fds()
    options = PipelineOptions(jobs=2, max_tasks_per_worker=1,
                              prefetch_units=0, granularity="function")
    engine = ServingEngine(options).start()
    first_handles = list(engine._workers.values())
    try:
        report = engine.serve(FIRST + OTHER)
        # Recycled at their first completion: the parent's ends of
        # both pipes were closed then, not when the handle is freed.
        assert all(handle.tasks.closed and handle.conn.closed
                   for handle in first_handles)
        last_handles = list(engine._workers.values())
    finally:
        engine.shutdown()
    assert all(handle.tasks.closed and handle.conn.closed
               for handle in last_handles)
    assert report.fingerprint() == detect_corpus(
        jobs=1, keys=FIRST + OTHER).fingerprint()
    assert engine.recycled == 20
    assert multiprocessing.active_children() == []
    assert _open_fds() == baseline


def test_a_task_sent_to_a_dead_worker_is_recovered():
    """The dispatcher writes to a worker that already died: the write
    must not raise, and the result pipe's EOF recovers the unit."""
    options = PipelineOptions(jobs=1, granularity="function")
    with ServingEngine(options) as engine:
        handle = next(iter(engine._workers.values()))
        handle.process.kill()
        handle.process.join(timeout=30)
        assert not handle.process.is_alive()
        job = engine.submit(FIRST)
        assert handle.assignments, "the unit went to the dead worker"
        report = job.result()
        assert engine.worker_deaths == 1
        assert handle.tasks.closed and handle.conn.closed
    assert report.fingerprint() == detect_corpus(
        jobs=1, keys=FIRST).fingerprint()


# -- the leak guard -----------------------------------------------------------


def test_collected_running_engine_warns():
    engine = ServingEngine(PipelineOptions(jobs=1)).start()
    processes = [handle.process for handle in engine._workers.values()]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del engine
            gc.collect()
    finally:
        for process in processes:
            process.kill()
            process.join(timeout=30)
    assert not any(process.is_alive() for process in processes)
    assert [w.category for w in caught] == [ResourceWarning]
    assert "shutdown()" in str(caught[0].message)


def test_stopped_engine_does_not_warn():
    engine = ServingEngine(PipelineOptions(jobs=1)).start()
    engine.shutdown()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del engine
        gc.collect()
    assert caught == []


def test_leak_warning_goes_to_stderr_only():
    script = (
        "import gc\n"
        "from repro.pipeline import PipelineOptions, ServingEngine\n"
        "engine = ServingEngine(PipelineOptions(jobs=1)).start()\n"
        "del engine\n"
        "gc.collect()\n"
        # Alive at exit: not collected, so not reported.
        "kept = ServingEngine(PipelineOptions(jobs=1)).start()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-W", "default::ResourceWarning", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == ""
    assert run.stderr.count("ResourceWarning: ServingEngine collected") \
        == 1


def test_the_suite_fails_a_test_that_leaks_an_engine(tmp_path):
    """The filters in ``tests/conftest.py`` turn the leak warning, and
    only it, into a failure of the test that leaked."""
    (tmp_path / "conftest.py").write_text(
        (Path(__file__).resolve().parents[1] / "conftest.py").read_text())
    (tmp_path / "test_leaky.py").write_text(
        "import gc\n"
        "import warnings\n"
        "from repro.pipeline import PipelineOptions, ServingEngine\n"
        "def test_leaks_an_engine():\n"
        "    engine = ServingEngine(PipelineOptions(jobs=1)).start()\n"
        "    del engine\n"
        "    gc.collect()\n"
        "def test_other_resource_warning():\n"
        "    warnings.warn('unclosed file', ResourceWarning)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_leaky.py"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert "FAILED test_leaky.py::test_leaks_an_engine" in run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
