"""Detection result records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..analysis.loops import Loop
from ..constraints import SolverContext, SolverStats
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import LoadInst, PhiInst, StoreInst
from ..ir.values import Value


class ReductionOp(enum.Enum):
    """The associative combining operator of a reduction.

    Determines how privatized partial results merge (§4: element-wise
    merge of histogram copies; §3.1.2: associativity established in a
    post-processing step).
    """

    ADD = "add"
    MUL = "mul"
    MIN = "min"
    MAX = "max"


@dataclass
class AliasCheck:
    """A runtime disambiguation requirement between two arrays.

    §3.1.2: "aliasing problems could be avoided with simple runtime
    checks" — the code generator emits one comparison per pair.
    """

    array_a: Value
    array_b: Value

    def describe(self) -> str:
        """Human-readable form."""
        return f"{self.array_a.short_name()} does-not-alias {self.array_b.short_name()}"


@dataclass
class ScalarReduction:
    """One detected scalar reduction (§3.1.1)."""

    function: Function
    loop: Loop
    header: BasicBlock
    iterator: PhiInst
    acc: PhiInst
    acc_init: Value
    acc_update: Value
    op: ReductionOp
    #: Arrays read by the update computation.
    input_bases: list[Value] = field(default_factory=list)
    #: Loads feeding the update (all at affine indices by construction).
    input_loads: list[LoadInst] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Stable identifier for reports."""
        return (
            f"{self.function.name}:{self.header.name}:"
            f"{self.acc.short_name()}"
        )


@dataclass
class HistogramReduction:
    """One detected histogram / generalized reduction (§3.1.2)."""

    function: Function
    loop: Loop
    header: BasicBlock
    iterator: PhiInst
    base: Value
    idx: Value
    hist_load: LoadInst
    hist_store: StoreInst
    update: Value
    op: ReductionOp
    #: True when the bin index is affine in the loop nest — those are
    #: plain array reductions; real histograms are the non-affine ones.
    idx_affine: bool = False
    input_bases: list[Value] = field(default_factory=list)
    runtime_checks: list[AliasCheck] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Stable identifier for reports."""
        return (
            f"{self.function.name}:{self.header.name}:"
            f"{self.base.short_name()}"
        )


@dataclass
class FunctionReductions:
    """All reductions found in one function."""

    function: Function
    scalars: list[ScalarReduction] = field(default_factory=list)
    histograms: list[HistogramReduction] = field(default_factory=list)
    #: The solver context detection ran with (CFG, dominators, loops,
    #: SCEV, ...), kept so callers can run further specs — e.g. the
    #: CLI's custom idioms or the pipeline's extension stage — without
    #: recomputing every analysis (or re-solving the for-loop prefix).
    solver_context: SolverContext | None = None
    #: Search-effort counters accumulated across the specs run on this
    #: function (the pipeline's ``constraint_evals`` metric).
    stats: SolverStats | None = None
    #: The same effort broken down **per spec name** — the raw material
    #: of the solver feedback store.  ``stats`` is always the merge of
    #: these (plus whatever extension-stage searches charged to it), so
    #: the aggregate metric cannot drift from the breakdown.
    spec_stats: dict[str, SolverStats] = field(default_factory=dict)


@dataclass
class DetectionReport:
    """Module-level detection outcome."""

    module_name: str
    functions: list[FunctionReductions] = field(default_factory=list)
    #: Wall-clock seconds spent in the constraint solver.
    solve_seconds: float = 0.0

    @property
    def scalars(self) -> list[ScalarReduction]:
        """All scalar reductions across functions."""
        return [s for f in self.functions for s in f.scalars]

    @property
    def histograms(self) -> list[HistogramReduction]:
        """All histogram reductions across functions."""
        return [h for f in self.functions for h in f.histograms]

    def counts(self) -> tuple[int, int]:
        """(scalar count, histogram count)."""
        return len(self.scalars), len(self.histograms)

    @property
    def total_constraint_evals(self) -> int:
        """Conjunct evaluations summed over all functions — the search
        effort the shared-cache pipeline minimizes."""
        return sum(
            f.stats.constraint_evals for f in self.functions
            if f.stats is not None
        )

    def release_solver_state(self) -> None:
        """Drop the retained solver contexts and their shared caches.

        Each :class:`FunctionReductions` keeps its context (analyses,
        memoized proposals, solved for-loop prefixes) so callers can
        run further specs cheaply.  A caller that instead *retains
        reports* — e.g. collecting one per corpus program — should
        release that state once detection is final, or the caches live
        as long as the reports do.
        """
        for function_reductions in self.functions:
            context = function_reductions.solver_context
            if context is not None:
                context.reset_solver_cache()
            function_reductions.solver_context = None

    def summary(self) -> str:
        """One-line summary used by examples and the harness."""
        scalars, histograms = self.counts()
        return (
            f"{self.module_name}: {scalars} scalar reduction(s), "
            f"{histograms} histogram reduction(s) "
            f"[{self.solve_seconds * 1000:.1f} ms]"
        )
