"""Idiom detection: for loops, scalar reductions, histograms and the
§8 extension idioms.

Every idiom spec is a shipped ``.icsl`` file
(``repro/constraints/specs/``) loaded through :class:`IdiomRegistry`;
this package runs them and turns their solutions into reports.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "find_reductions": "detect",
    "find_reductions_in_function": "detect",
    "find_for_loops": "detect",
    "IdiomRegistry": "registry",
    "RegisteredIdiom": "registry",
    "BUILTIN_IDIOMS": "registry",
    "CORE_IDIOMS": "registry",
    "EXTENSION_IDIOMS": "registry",
    "default_registry": "registry",
    "reset_default_registry": "registry",
    "ForLoopMatch": "forloop",
    "classify_update": "postprocess",
    "accumulator_confined": "postprocess",
    "base_memory_ops_confined": "postprocess",
    "alias_checks_for": "postprocess",
    "DetectionReport": "reports",
    "FunctionReductions": "reports",
    "ScalarReduction": "reports",
    "HistogramReduction": "reports",
    "ReductionOp": "reports",
    "AliasCheck": "reports",
    "find_extended_reductions": "extensions",
    "find_extended_in_function": "extensions",
    "ExtendedReport": "extensions",
    "FunctionExtensions": "extensions",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
