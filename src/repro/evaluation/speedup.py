"""Experiment fig15: speedup of exploited reductions (§6.3).

For each benchmark with significant histogram coverage (EP, IS, histo,
tpacf, kmeans) this experiment

1. detects the reductions, plans and outlines the parallel tasks (§4),
2. runs the program sequentially and with the reduction loops executed
   as privatized shards on the simulated 64-core machine (validating
   that both runs produce the same results),
3. models the *original* hand-parallelized version's strategy on the
   same measurements — coarse outer parallelism (EP), bin distribution
   (IS), atomic updates (histo), a critical section (tpacf) and
   reduction parallelism (kmeans, where our transform fails exactly as
   in the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis.cache import function_analyses
from ..idioms import find_reductions
from ..runtime import Interpreter, MachineModel, Memory, ParallelExecutor
from ..runtime.parallel import ParallelRunResult
from ..transform import outline_loop, plan_all
from ..workloads import program
from ..workloads.corpus import FIGURE15_BENCHMARKS
from . import paper
from .render import bar_chart, table


@dataclass
class SpeedupRow:
    """One Figure 15 benchmark."""

    benchmark: str
    ours: float | None
    original: float | None
    original_strategy: str
    failure_reason: str | None = None
    results_match: bool | None = None
    paper_ours: float | None = None
    paper_original: float | None = None


@dataclass
class SpeedupResult:
    """The whole Figure 15 experiment."""

    rows: list[SpeedupRow] = field(default_factory=list)
    threads: int = 64

    def render(self) -> str:
        """Figure 15 as a table."""
        rows = []
        for r in self.rows:
            rows.append([
                r.benchmark,
                "fail" if r.ours is None else f"{r.ours:.2f}x",
                "-" if r.original is None else f"{r.original:.2f}x",
                r.original_strategy,
                "-" if r.paper_ours is None else f"{r.paper_ours:.2f}x",
                "-" if r.paper_original is None else
                f"{r.paper_original:.2f}x",
                r.failure_reason or ("ok" if r.results_match else ""),
            ])
        return table(
            ["benchmark", "ours", "original", "strategy", "paper ours",
             "paper orig", "note"],
            rows,
            title=f"Figure 15: speedup vs sequential ({self.threads} "
                  f"threads)",
        )

    def render_bars(self) -> str:
        """Our speedups as a bar chart."""
        rows = [r for r in self.rows if r.ours is not None]
        return bar_chart(
            [r.benchmark for r in rows],
            [r.ours for r in rows],
            title="Figure 15: reduction-parallel speedup (ours)",
        )


def evaluate_benchmark(
    name: str,
    threads: int = 64,
    machine: MachineModel | None = None,
) -> SpeedupRow:
    """Run the Figure 15 experiment for one benchmark."""
    machine = machine or MachineModel(cores=threads)
    bench = program(name)
    module = bench.fresh_module()
    report = find_reductions(module)

    tasks = []
    failures = []
    histogram_loop_failed = False
    for function_reductions in report.functions:
        plans, function_failures = plan_all(module, function_reductions)
        failures.extend(function_failures)
        histogram_headers = {
            id(h.loop.header) for h in function_reductions.histograms
        }
        for failure in function_failures:
            if id(failure.loop.header) in histogram_headers:
                histogram_loop_failed = True
        for plan in plans:
            tasks.append(outline_loop(module, plan))

    # Sequential baseline.
    memory = Memory(module)
    interp = Interpreter(module, memory)
    interp.call(module.get_function("main"), [])
    t_seq = interp.instructions_executed
    seq_output = list(interp.output)
    seq_memory = memory.snapshot()

    row = SpeedupRow(
        benchmark=name,
        ours=None,
        original=None,
        original_strategy=bench.original_strategy or "none",
        paper_ours=paper.FIGURE15.get(name, {}).get("ours"),
        paper_original=paper.FIGURE15.get(name, {}).get("original"),
    )

    parallel_result: ParallelRunResult | None = None
    if histogram_loop_failed or not tasks:
        reasons = "; ".join(str(f) for f in failures) or "no plans"
        row.failure_reason = f"transform failed: {reasons}"
    else:
        executor = ParallelExecutor(module, tasks, threads=threads)
        parallel_result = executor.run()
        row.results_match = _results_match(
            seq_output, parallel_result.output, seq_memory,
            parallel_result.memory.snapshot(),
        )
        t_par = parallel_result.simulated_time(machine)
        row.ours = t_seq / t_par if t_par > 0 else None

    row.original = _original_speedup(
        bench.original_strategy, module, interp, t_seq, parallel_result,
        report, threads, machine,
    )
    return row


def run_figure15(
    threads: int = 64, machine: MachineModel | None = None
) -> SpeedupResult:
    """Reproduce Figure 15 across all five benchmarks."""
    result = SpeedupResult(threads=threads)
    for name in FIGURE15_BENCHMARKS:
        result.rows.append(evaluate_benchmark(name, threads, machine))
    return result


# -- original parallel version models (§6.3) -----------------------------------


def _original_speedup(strategy, module, seq_interp, t_seq, parallel_result,
                      report, threads, machine: MachineModel):
    if strategy is None:
        return None
    if strategy == "coarse":
        # Coarse outer parallelism: every loop region runs in parallel.
        loop_instructions = _loop_instructions(module, seq_interp)
        coverage = loop_instructions / t_seq if t_seq else 0.0
        denominator = (1 - coverage) + coverage / threads
        return 1.0 / (denominator + machine.spawn_path_cost(threads) / t_seq)
    if strategy == "reduction":
        # What reduction parallelism would achieve (the paper includes
        # kmeans "as speedup achievable by reduction parallelism").
        histogram_instructions = _histogram_instructions(seq_interp, report)
        coverage = histogram_instructions / t_seq if t_seq else 0.0
        region = (
            coverage / threads
            + (machine.spawn_path_cost(threads)
               + machine.merge_path_cost(threads, 64)) / t_seq
        )
        return 1.0 / ((1 - coverage) + region)
    if parallel_result is None:
        return None
    outside = parallel_result.sequential_cost
    if strategy == "bucketed":
        # IS's original: distribute keys into disjoint bins first (an
        # extra pass over the data), then no merge is needed.
        total = outside
        for record in parallel_result.regions:
            total += (
                2 * record.total_work() / threads
                + machine.spawn_path_cost(threads)
            )
        return t_seq / total
    if strategy == "atomic":
        # histo's original: atomic bin updates; contention serializes
        # the read-modify-writes.
        total = outside
        for record in parallel_result.regions:
            total += (
                record.total_work() / threads
                + record.iterations * machine.atomic_update_cost
            )
        return t_seq / total
    if strategy == "critical":
        # tpacf's original: a critical section around every update
        # (§6.3: "implemented poorly using a critical section").
        total = outside
        for record in parallel_result.regions:
            total += (
                record.total_work() / threads
                + record.iterations * machine.critical_section_cost
            )
        return t_seq / total
    return None


def _loop_instructions(module, interp: Interpreter) -> int:
    total = 0
    for function in module.defined_functions():
        counted = set()
        for loop in function_analyses(function).loop_info.loops:
            for block in loop.blocks:
                if id(block) not in counted:
                    counted.add(id(block))
                    total += interp.block_counts.get(id(block), 0)
    return total


def _histogram_instructions(interp: Interpreter, report) -> int:
    total = 0
    counted = set()
    for histogram in report.histograms:
        for block in histogram.loop.blocks:
            if id(block) not in counted:
                counted.add(id(block))
                total += interp.block_counts.get(id(block), 0)
    return total


def _results_match(seq_output, par_output, seq_memory, par_memory) -> bool:
    if len(seq_output) != len(par_output):
        return False
    for a, b in zip(seq_output, par_output):
        if not _values_close(a, b):
            return False
    for name, seq_data in seq_memory.items():
        par_data = par_memory.get(name)
        if par_data is None or len(par_data) != len(seq_data):
            return False
        for a, b in zip(seq_data, par_data):
            if not math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6):
                return False
    return True


def _values_close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-4)
    except ValueError:
        return False
