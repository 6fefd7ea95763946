"""Profitability analysis for reduction parallelization (§3).

§3: *"Profitability heuristics are critical in practice to determine
whether or not to apply parallelizing code transformations.  We use a
simple approach based on profiling information to determine whether or
not to apply our optimization."*

Given a profile run (dynamic instruction counts) and the machine model,
:func:`assess` estimates for every planned loop the whole-program
speedup of parallelizing it — Amdahl over the measured region coverage
minus the privatization overheads — and recommends applying the
transform only when the estimate clears a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..idioms.reports import FunctionReductions
from ..ir.module import Module
from ..runtime.interpreter import Interpreter
from ..runtime.machine import MachineModel
from ..runtime.memory import Memory
from .plan import ParallelPlan, TransformFailure, plan_all


@dataclass
class ProfitabilityDecision:
    """Verdict for one parallelizable loop."""

    plan: ParallelPlan
    #: Fraction of program runtime inside the loop.
    coverage: float
    #: Estimated whole-program speedup from parallelizing this loop.
    estimated_speedup: float
    #: True when the estimate clears the threshold.
    apply: bool

    @property
    def name(self) -> str:
        """Stable identifier."""
        return (
            f"{self.plan.function.name}:{self.plan.loop.header.name}"
        )


@dataclass
class ProfitabilityReport:
    """All decisions for one module."""

    module_name: str
    total_instructions: int = 0
    decisions: list[ProfitabilityDecision] = field(default_factory=list)
    failures: list[TransformFailure] = field(default_factory=list)


def estimate_speedup(
    coverage: float,
    region_instructions: float,
    private_elements: int,
    threads: int,
    machine: MachineModel,
) -> float:
    """Amdahl with privatization overheads on the critical path."""
    if region_instructions <= 0:
        return 1.0
    overhead = (
        machine.spawn_path_cost(threads)
        + machine.alloc_path_cost(threads, private_elements)
        + machine.merge_path_cost(threads, private_elements)
    )
    parallel_region = region_instructions / threads + overhead
    sequential_region = region_instructions
    total = sequential_region / coverage if coverage > 0 else float("inf")
    new_total = (total - sequential_region) + parallel_region
    return total / new_total if new_total > 0 else 1.0


def assess(
    module: Module,
    reductions_by_function: list[FunctionReductions],
    entry: str = "main",
    threads: int = 64,
    machine: MachineModel | None = None,
    threshold: float = 1.05,
    seed: int = 12345,
) -> ProfitabilityReport:
    """Profile ``entry`` and judge each planned loop (§3's heuristic)."""
    machine = machine or MachineModel(cores=threads)
    memory = Memory(module)
    interp = Interpreter(module, memory, seed=seed)
    interp.call(module.get_function(entry), [])
    total = sum(interp.block_counts.values())

    report = ProfitabilityReport(module.name, total_instructions=total)
    for function_reductions in reductions_by_function:
        plans, failures = plan_all(module, function_reductions)
        report.failures.extend(failures)
        for plan in plans:
            region = sum(
                interp.block_counts.get(id(block), 0)
                for block in plan.loop.blocks
            )
            coverage = region / total if total else 0.0
            private = sum(
                h.base.size
                for h in plan.histograms
                if hasattr(h.base, "size")
            )
            speedup = estimate_speedup(
                coverage, region, private, threads, machine
            )
            report.decisions.append(
                ProfitabilityDecision(
                    plan=plan,
                    coverage=round(coverage, 4),
                    estimated_speedup=round(speedup, 3),
                    apply=speedup >= threshold,
                )
            )
    return report
