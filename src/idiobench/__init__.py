"""Benchmarking and transformation toolkit for nine Python idioms.

The pipeline synthesizes non-idiomatic/idiomatic code pairs over a
controlled feature matrix, checks behavioral equivalence, measures both
variants under a repeated fresh-process protocol, summarizes performance
changes with hierarchical bootstrap confidence intervals, and explains
differences by diffing bytecode instruction streams.

The names below are imported from their modules on first use (PEP 562),
so a stage that needs none of them does not pay for their import.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "CodePair": "idiobench.synth",
    "FeatureSpaceDescriptor": "idiobench.catalog",
    "FeatureVector": "idiobench.catalog",
    "IdiomKind": "idiobench.catalog",
    "IllegalFeature": "idiobench.catalog",
    "enumerate_matrix": "idiobench.catalog",
    "feature_space": "idiobench.catalog",
    "synthesize": "idiobench.synth",
    "wrap_pair": "idiobench.synth",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
