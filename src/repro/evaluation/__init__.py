"""Experiment harness: one module per table/figure of the paper.

* ``discovery``   — Figure 8a/8b/8c (+ §6.1 totals)
* ``scops``       — Figures 9-11 (+ §6.1 SCoP statistics)
* ``coverage``    — Figures 12-14 (+ §6.2 headline numbers)
* ``speedup``     — Figure 15 (+ §6.3 numbers)
* ``compile_time``— §6.1 detection cost
* ``paper``       — every number the paper states, for comparison
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "paper": "paper",
    "render": "render",
    "discovery": "discovery",
    "scops": "scops",
    "coverage": "coverage",
    "speedup": "speedup",
    "compile_time": "compile_time",
    "run_discovery": "discovery",
    "run_all_discovery": "discovery",
    "DiscoveryResult": "discovery",
    "run_scops": "scops",
    "run_all_scops": "scops",
    "ScopResult": "scops",
    "run_coverage": "coverage",
    "run_all_coverage": "coverage",
    "CoverageResult": "coverage",
    "run_figure15": "speedup",
    "evaluate_benchmark": "speedup",
    "SpeedupResult": "speedup",
    "SpeedupRow": "speedup",
    "run_compile_time": "compile_time",
    "CompileTimeResult": "compile_time",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
