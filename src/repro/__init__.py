"""repro — constraint-based discovery and exploitation of general reductions.

A faithful, self-contained Python reproduction of

    Philip Ginsbach and Michael F. P. O'Boyle,
    "Discovery and Exploitation of General Reductions:
     A Constraint Based Approach", CGO 2017.

The package provides the full stack the paper builds on:

* :mod:`repro.ir` — a typed SSA intermediate representation;
* :mod:`repro.frontend` — a mini-C compiler producing canonical SSA;
* :mod:`repro.analysis` — dominators, loops, purity, scalar evolution;
* :mod:`repro.constraints` — the constraint description language and
  the backtracking solver (the paper's core contribution);
* :mod:`repro.idioms` — the for-loop, scalar-reduction and histogram
  specifications plus post-processing;
* :mod:`repro.transform` / :mod:`repro.runtime` — reduction
  privatization, loop outlining and the simulated 64-core executor;
* :mod:`repro.baselines` — Polly+reductions and icc comparison models;
* :mod:`repro.workloads` — the 40-program NAS/Parboil/Rodinia corpus;
* :mod:`repro.pipeline` — the corpus-scale detection pipeline
  (staged workers, shared solver caches, deterministic merge);
* :mod:`repro.evaluation` — one harness per table/figure of §6.

Quickstart::

    from repro import compile_source, find_reductions

    module = compile_source('''
        double a[100];
        int n;
        double sum(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + a[i];
            return s;
        }
    ''')
    report = find_reductions(module)
    print(report.summary())
"""

from .frontend import compile_source
from .idioms import (
    DetectionReport,
    HistogramReduction,
    ReductionOp,
    ScalarReduction,
    find_extended_reductions,
    find_for_loops,
    find_reductions,
    find_reductions_in_function,
)
from .pipeline import detect_corpus
from .runtime import Interpreter, MachineModel, Memory, ParallelExecutor
from .transform import (
    OutlinedTask,
    ParallelPlan,
    TransformFailure,
    outline_loop,
    plan_all,
)

__version__ = "1.0.0"

__all__ = [
    "compile_source",
    "find_reductions",
    "find_reductions_in_function",
    "find_extended_reductions",
    "find_for_loops",
    "detect_corpus",
    "DetectionReport",
    "ScalarReduction",
    "HistogramReduction",
    "ReductionOp",
    "Interpreter",
    "Memory",
    "MachineModel",
    "ParallelExecutor",
    "ParallelPlan",
    "TransformFailure",
    "OutlinedTask",
    "plan_all",
    "outline_loop",
    "__version__",
]
