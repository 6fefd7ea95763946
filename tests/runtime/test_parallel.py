"""Tests for the simulated parallel executor, including a hypothesis
property: privatized parallel execution must match sequential
execution for any input and any thread count."""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source
from repro.idioms import find_reductions
from repro.runtime import MachineModel, ParallelExecutor
from repro.runtime.parallel import run_sequential
from repro.transform import outline_loop, plan_all

SOURCE = """
int hist[32]; int keys[256]; double a[256]; int n;
double total;

void build(void) {
    for (int i = 0; i < n; i++)
        hist[keys[i]] = hist[keys[i]] + 1;
}

double accumulate(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}

int main(void) {
    build();
    total = accumulate();
    print_double(total);
    print_int(hist[0] + hist[7] + hist[31]);
    return 0;
}
"""


def _prepare():
    module = compile_source(SOURCE)
    report = find_reductions(module)
    tasks = []
    for function_reductions in report.functions:
        plans, failures = plan_all(module, function_reductions)
        assert not failures
        for plan in plans:
            tasks.append(outline_loop(module, plan))
    assert len(tasks) == 2
    return module, tasks


def _fill(memory, keys, values):
    memory.buffers["n"].data[0] = len(keys)
    for i, key in enumerate(keys):
        memory.buffers["keys"].data[i] = key
    for i, value in enumerate(values):
        memory.buffers["a"].data[i] = value


def test_parallel_matches_sequential_fixed_input():
    module, tasks = _prepare()
    keys = [(i * 11) % 32 for i in range(200)]
    values = [0.25 * (i % 9) for i in range(200)]

    _, seq_memory, seq_interp = _run_with(module, [], keys, values)
    executor = ParallelExecutor(module, tasks, threads=8)
    _fill_and_run = _run_parallel(executor, keys, values)
    par_result = _fill_and_run
    assert par_result.output == seq_interp.output
    assert par_result.memory.read_global("hist") == (
        seq_memory.read_global("hist")
    )
    assert math.isclose(
        par_result.memory.read_global("total"),
        seq_memory.read_global("total"),
        rel_tol=1e-9,
    )


def _run_with(module, tasks, keys, values):
    from repro.runtime import Interpreter, Memory

    memory = Memory(module)
    _fill(memory, keys, values)
    interp = Interpreter(module, memory)
    value = interp.call(module.get_function("main"), [])
    return value, memory, interp


def _run_parallel(executor, keys, values):
    from repro.runtime import Memory, Interpreter

    executor.records = []
    memory = Memory(executor.module)
    _fill(memory, keys, values)
    interp = Interpreter(executor.module, memory)
    from repro.runtime.parallel import _LoopHandler

    for task in executor.tasks:
        interp.loop_overrides[id(task.plan.loop.header)] = _LoopHandler(
            executor, task
        )
    interp.call(executor.module.get_function("main"), [])

    class Result:
        pass

    result = Result()
    result.output = interp.output
    result.memory = memory
    result.regions = executor.records
    return result


@given(
    keys=st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                  max_size=120),
    scale=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    threads=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=25, deadline=None)
def test_parallel_equals_sequential_property(keys, scale, threads):
    module, tasks = _prepare()
    values = [scale * (i % 5) for i in range(len(keys))]
    _, seq_memory, seq_interp = _run_with(module, [], keys, values)
    executor = ParallelExecutor(module, tasks, threads=threads)
    par = _run_parallel(executor, keys, values)
    # Histogram counts are integers: must match exactly.
    assert par.memory.read_global("hist") == seq_memory.read_global("hist")
    # Scalar sum matches up to float reassociation.
    assert math.isclose(
        par.memory.read_global("total"),
        seq_memory.read_global("total"),
        rel_tol=1e-9, abs_tol=1e-9,
    )


def test_simulated_time_decreases_with_threads():
    # Cheap thread management so the small test workload still scales.
    machine = MachineModel(spawn_cost=10.0, merge_cost_per_element=0.1,
                           alloc_cost_per_element=0.1)
    module, tasks = _prepare()
    keys = [(i * 13) % 32 for i in range(250)]
    values = [0.5] * 250
    times = {}
    for threads in (1, 4, 16):
        executor = ParallelExecutor(module, tasks, threads=threads)
        par = _run_parallel(executor, keys, values)
        times[threads] = sum(
            r.critical_path(machine) for r in par.regions
        )
    assert times[4] < times[1]
    assert times[16] < times[4]


def test_spawn_overhead_can_dominate_small_workloads():
    """With the default machine, parallelizing a tiny loop loses — the
    profitability concern §3 mentions."""
    machine = MachineModel()
    module, tasks = _prepare()
    keys = [(i * 13) % 32 for i in range(40)]
    values = [0.5] * 40
    seq_executor = ParallelExecutor(module, tasks, threads=1)
    seq = _run_parallel(seq_executor, keys, values)
    par_executor = ParallelExecutor(module, tasks, threads=32)
    par = _run_parallel(par_executor, keys, values)
    seq_time = sum(r.critical_path(machine) for r in seq.regions)
    par_time = sum(r.critical_path(machine) for r in par.regions)
    assert par_time > seq_time


def test_region_records_capture_shards():
    module, tasks = _prepare()
    keys = [(i * 3) % 32 for i in range(100)]
    values = [1.0] * 100
    executor = ParallelExecutor(module, tasks, threads=8)
    par = _run_parallel(executor, keys, values)
    assert len(par.regions) == 2
    for record in par.regions:
        assert len(record.shard_costs) == 8
        assert record.iterations == 100
        assert record.total_work() > 0


@pytest.mark.parametrize("threads", [0, -1])
def test_executor_rejects_threads_below_one(threads):
    module = compile_source(SOURCE)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        ParallelExecutor(module, [], threads=threads)
