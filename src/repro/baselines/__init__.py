"""Comparison baselines: Polly+reductions, icc, SCEV, LRPD models."""

from .._lazy import lazy_exports

_EXPORTS = {
    "icc": "icc",
    "polly": "polly",
    "lrpd": "lrpd",
    "scev_reduction": "scev_reduction",
    "IccReport": "icc",
    "IccLoopReport": "icc",
    "PollyReport": "polly",
    "SCoP": "polly",
    "LrpdReport": "lrpd",
    "ScevReductionReport": "scev_reduction",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
