"""Simulated parallel execution of privatized reduction loops (§4).

The executor reproduces the paper's pthread scheme on a simulated
machine: the iteration space is partitioned across threads; every
thread except the first works on freshly allocated private copies of
the histogram arrays (zero-initialized — merges are additive) and
private scalar partials starting at the operator's identity; partial
results are merged element-wise afterwards.

Execution is *real* — each shard actually runs through the IR
interpreter, so the merged result can be compared against sequential
execution — while *time* is simulated: per-shard dynamic instruction
counts feed the :class:`~repro.runtime.machine.MachineModel`, giving
the critical-path time of the recursive-bisection scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..idioms.reports import ReductionOp
from ..ir.module import Module
from ..ir.types import FloatType
from ..ir.values import GlobalVariable
from ..transform.outline import OutlinedTask
from ..transform.plan import identity_value, merge_values
from .interpreter import Interpreter, InterpreterError
from .machine import MachineModel
from .memory import Buffer, Memory, Pointer


@dataclass
class RegionRecord:
    """One dynamic execution of a parallelized loop."""

    task_name: str
    shard_costs: list[int] = field(default_factory=list)
    iterations: int = 0
    private_elements: int = 0
    dynamic_bounds: bool = False

    def critical_path(self, machine: MachineModel) -> float:
        """Simulated time of the parallel region."""
        threads = max(1, len(self.shard_costs))
        shard = max(self.shard_costs) if self.shard_costs else 0.0
        if self.dynamic_bounds and threads > 1:
            shard += (
                machine.bounds_check_cost * self.iterations / threads
            )
        return (
            shard
            + machine.spawn_path_cost(threads)
            + machine.alloc_path_cost(threads, self.private_elements)
            + machine.merge_path_cost(threads, self.private_elements)
        )

    def total_work(self) -> int:
        """Sum of all shard instruction counts."""
        return sum(self.shard_costs)


@dataclass
class ParallelRunResult:
    """Outcome of a program run with parallelized reduction loops."""

    return_value: object
    memory: Memory
    output: list[str]
    #: Instructions executed outside parallel regions.
    sequential_cost: int = 0
    regions: list[RegionRecord] = field(default_factory=list)

    def simulated_time(self, machine: MachineModel) -> float:
        """Critical-path time: sequential part + each region's path."""
        return self.sequential_cost + sum(
            r.critical_path(machine) for r in self.regions
        )


class _LoopHandler:
    """Interpreter hook replacing one loop with sharded task calls."""

    def __init__(self, executor: "ParallelExecutor", task: OutlinedTask):
        self.executor = executor
        self.task = task

    def __call__(self, interp: Interpreter, frame, header):
        task = self.task
        plan = task.plan
        bounds = plan.bounds
        begin = interp._value(bounds.start, frame)
        end_value = interp._value(bounds.end, frame)
        if bounds.predicate == "sle":
            end_value += 1
        total = max(0, end_value - begin)
        threads = min(self.executor.threads, max(1, total))
        if not self._alias_checks_pass(interp, frame):
            # §3.1.2: "aliasing problems could be avoided with simple
            # runtime checks" — when a check fails, fall back to
            # sequential in-place execution of the loop.
            threads = 1
            self.executor.alias_fallbacks += 1

        closure_values = [interp._value(v, frame) for v in task.closure]
        hist_pointers = [interp._value(b, frame) for b in task.hist_bases]
        private_elements = sum(len(p.buffer.data) for p in hist_pointers)

        record = RegionRecord(
            task_name=task.task.name,
            iterations=total,
            private_elements=private_elements,
            dynamic_bounds=plan.dynamic_bounds,
        )

        scalar_inits = [
            interp._value(s.acc_init, frame) for s in plan.scalars
        ]
        # previous partial value of each acc is the init value; shards
        # start from the identity and are merged below.
        finals = list(scalar_inits)

        hist_privates: list[list[Pointer]] = []
        for t in range(threads):
            if t == 0:
                hist_privates.append(hist_pointers)
            else:
                copies = []
                for pointer in hist_pointers:
                    buffer = Buffer(
                        pointer.buffer.element_type,
                        len(pointer.buffer.data),
                        f"{pointer.buffer.name}.priv{t}",
                    )
                    copies.append(Pointer(buffer, 0))
                hist_privates.append(copies)

        for t in range(threads):
            lo = begin + (total * t) // threads
            hi = begin + (total * (t + 1)) // threads
            out_pointers = []
            for scalar in plan.scalars:
                is_float = isinstance(scalar.acc.type, FloatType)
                buffer = Buffer(scalar.acc.type, 1, "partial")
                buffer.data[0] = identity_value(scalar.op, is_float)
                out_pointers.append(Pointer(buffer, 0))
            args = [lo, hi, *hist_privates[t], *out_pointers,
                    *closure_values]
            before = interp.instructions_executed
            interp.call(task.task, args)
            record.shard_costs.append(interp.instructions_executed - before)
            for index, pointer in enumerate(out_pointers):
                finals[index] = merge_values(
                    plan.scalars[index].op, finals[index],
                    pointer.buffer.data[0],
                )

        # Merge private histogram copies back (additive, §4).
        for t in range(1, threads):
            for original, private in zip(hist_pointers, hist_privates[t]):
                data = original.buffer.data
                priv = private.buffer.data
                for i in range(len(data)):
                    data[i] += priv[i]

        # Publish loop results: the header PHIs hold the exit values.
        frame[id(bounds.iterator)] = begin + total
        for scalar, final in zip(plan.scalars, finals):
            frame[id(scalar.acc)] = final

        self.executor.records.append(record)
        exit_targets = [
            t for t in header.successors() if t not in plan.loop.blocks
        ]
        return exit_targets[0]

    def _alias_checks_pass(self, interp: Interpreter, frame) -> bool:
        """Evaluate the detection-time no-alias obligations at runtime."""
        for histogram in self.task.plan.histograms:
            for check in histogram.runtime_checks:
                try:
                    a = interp._value(check.array_a, frame)
                    b = interp._value(check.array_b, frame)
                except Exception:
                    return False
                if isinstance(a, Pointer) and isinstance(b, Pointer):
                    if a.buffer is b.buffer:
                        return False
        return True


class ParallelExecutor:
    """Runs a module with selected loops executed as parallel shards."""

    def __init__(
        self,
        module: Module,
        tasks: list[OutlinedTask],
        threads: int = 64,
        seed: int = 12345,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.module = module
        self.tasks = tasks
        self.threads = threads
        self.seed = seed
        self.records: list[RegionRecord] = []
        #: Loops demoted to sequential execution by a failed runtime
        #: alias check (§3.1.2).
        self.alias_fallbacks = 0

    def run(self, entry: str = "main") -> ParallelRunResult:
        """Execute ``entry`` with all planned loops parallelized."""
        self.records = []
        self.alias_fallbacks = 0
        memory = Memory(self.module)
        interp = Interpreter(self.module, memory, seed=self.seed)
        for task in self.tasks:
            handler = _LoopHandler(self, task)
            interp.loop_overrides[id(task.plan.loop.header)] = handler
        value = interp.call(self.module.get_function(entry), [])
        shard_work = sum(r.total_work() for r in self.records)
        return ParallelRunResult(
            return_value=value,
            memory=memory,
            output=interp.output,
            sequential_cost=interp.instructions_executed - shard_work,
            regions=list(self.records),
        )


def run_sequential(
    module: Module, entry: str = "main", seed: int = 12345
) -> tuple[object, Memory, Interpreter]:
    """Plain sequential execution, for baselines and validation."""
    memory = Memory(module)
    interp = Interpreter(module, memory, seed=seed)
    value = interp.call(module.get_function(entry), [])
    return value, memory, interp
