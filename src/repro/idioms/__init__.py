"""Idiom specifications: for loops, scalar reductions, histograms."""

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
    "for_loop_spec": "forloop",
    "for_loop_constraint": "forloop",
    "ForLoopMatch": "forloop",
    "FOR_LOOP_LABEL_ORDER": "forloop",
    "scalar_reduction_spec": "scalar_reduction",
    "scalar_reduction_constraint": "scalar_reduction",
    "SCALAR_REDUCTION_LABEL_ORDER": "scalar_reduction",
    "histogram_spec": "histogram",
    "histogram_constraint": "histogram",
    "HISTOGRAM_LABEL_ORDER": "histogram",
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
    "dot_product_spec": "extensions",
    "argminmax_spec": "extensions",
    "nested_array_reduction_spec": "extensions",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
