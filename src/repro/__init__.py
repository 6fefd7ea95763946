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

``import repro`` loads none of these: every exported name, and every
subpackage, loads its module on first use (:mod:`repro._lazy`).

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

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "compile_source": "frontend",
    "find_reductions": "idioms",
    "find_reductions_in_function": "idioms",
    "find_extended_reductions": "idioms",
    "find_for_loops": "idioms",
    "detect_corpus": "pipeline",
    "DetectionReport": "idioms",
    "ScalarReduction": "idioms",
    "HistogramReduction": "idioms",
    "ReductionOp": "idioms",
    "Interpreter": "runtime",
    "Memory": "runtime",
    "MachineModel": "runtime",
    "ParallelExecutor": "runtime",
    "ParallelPlan": "transform",
    "TransformFailure": "transform",
    "OutlinedTask": "transform",
    "plan_all": "transform",
    "outline_loop": "transform",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
