"""Benchmarking and transformation toolkit for nine Python idioms.

The pipeline synthesizes non-idiomatic/idiomatic code pairs over a
controlled feature matrix, checks behavioral equivalence, measures both
variants under a repeated fresh-process protocol, summarizes performance
changes with hierarchical bootstrap confidence intervals, and explains
differences by diffing bytecode instruction streams.
"""

from idiobench.catalog import (
    FeatureSpaceDescriptor,
    FeatureVector,
    IdiomKind,
    IllegalFeature,
    enumerate_matrix,
    feature_space,
)
from idiobench.synth import CodePair, synthesize, wrap_pair

__version__ = "0.1.0"

__all__ = [
    "CodePair",
    "FeatureSpaceDescriptor",
    "FeatureVector",
    "IdiomKind",
    "IllegalFeature",
    "enumerate_matrix",
    "feature_space",
    "synthesize",
    "wrap_pair",
    "__version__",
]
