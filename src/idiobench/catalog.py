"""Idiom kinds, their legal feature spaces, and full matrix enumeration.

Each of the nine idioms owns a small set of named dimensions (AST-node
counts, structural flags, scope, data size, execution-path booleans).
``enumerate_matrix`` walks the cross product of those dimensions in a
deterministic order and yields one :class:`FeatureVector` per point.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping

# ============================================================
# Idiom kinds
# ============================================================


class IdiomKind(Enum):
    """The nine idiom transformations handled by this toolkit."""

    LIST_COMPREHENSION = "list-comprehension"
    SET_COMPREHENSION = "set-comprehension"
    DICT_COMPREHENSION = "dict-comprehension"
    CHAIN_COMPARISON = "chain-comparison"
    TRUTH_VALUE_TEST = "truth-value-test"
    LOOP_ELSE = "loop-else"
    ASSIGN_MULTI_TARGETS = "assign-multi-targets"
    STAR_IN_FUNC_CALL = "star-in-func-call"
    FOR_MULTI_TARGETS = "for-multi-targets"


COMPREHENSIONS = (
    IdiomKind.LIST_COMPREHENSION,
    IdiomKind.SET_COMPREHENSION,
    IdiomKind.DICT_COMPREHENSION,
)

# ============================================================
# Dimension value tables
# ============================================================

#: Element counts / iteration counts available to size-bearing idioms.
SIZES: tuple[int, ...] = (0, 1, 10, 10**2, 10**3, 10**4, 10**5, 10**6)

#: Comparison operators available to chain-comparison, in the canonical
#: order used when a chosen operator multiset is rendered into a chain.
COMPOP_SET: tuple[str, ...] = (
    "==", "!=", "<", "<=", ">", ">=", "is", "is not", "in", "not in",
)

CHAIN_LENGTHS: tuple[int, ...] = (2, 3, 4, 5)

TEST_SET: tuple[str, ...] = ("while", "assert", "if")
EQ_SET: tuple[str, ...] = ("==", "!=")
LOOP_SET: tuple[str, ...] = ("for", "while")
CONDITION_SET: tuple[str, ...] = ("if", "if-else")
SCOPES: tuple[str, ...] = ("Local", "Global")

NUM_ASSIGN_RANGE = range(2, 31)
NUM_SUBSCRIPT_RANGE = range(1, 31)
NUM_TARGET_RANGE = range(1, 6)
NUM_FOR_RANGE = range(1, 5)
NUM_IF_RANGE = range(0, 5)
NUM_IFELSE_RANGE = range(0, 5)


@dataclass(frozen=True)
class EmptyValue:
    """One member of the falsy-comparand set used by truth-value-test.

    ``source`` is the expression a non-idiomatic test compares against;
    ``truthy_source`` is a same-type truthy expression used to prepare
    the tested variable when the test outcome should be true.
    """

    name: str
    source: str
    truthy_source: str
    import_stmt: str | None = None


#: The 14 predefined empty values an object may be compared against.
EMPTY_VALUES: tuple[EmptyValue, ...] = (
    EmptyValue("None", "None", "1"),
    EmptyValue("False", "False", "True"),
    EmptyValue("str", "''", "'x'"),
    EmptyValue("int", "0", "1"),
    EmptyValue("float", "0.0", "1.0"),
    EmptyValue("complex", "0j", "1j"),
    EmptyValue("Decimal", "Decimal(0)", "Decimal(1)", "from decimal import Decimal"),
    EmptyValue("Fraction", "Fraction(0, 1)", "Fraction(1, 1)", "from fractions import Fraction"),
    EmptyValue("tuple", "()", "(0,)"),
    EmptyValue("list", "[]", "[0]"),
    EmptyValue("dict-literal", "{}", "{0: 0}"),
    EmptyValue("dict-call", "dict()", "{0: 0}"),
    EmptyValue("set", "set()", "{0}"),
    EmptyValue("range", "range(0)", "range(1)"),
)

EMPTY_VALUE_NAMES: tuple[str, ...] = tuple(v.name for v in EMPTY_VALUES)
EMPTY_VALUE_BY_NAME: Mapping[str, EmptyValue] = {v.name: v for v in EMPTY_VALUES}


class IllegalFeature(ValueError):
    """A feature vector violates its idiom's legal feature space."""


# ============================================================
# Feature vectors
# ============================================================

# Field groups legal for each idiom. A vector must carry exactly these
# fields; anything else is rejected.
_COMPREHENSION_FIELDS = {
    "counts": frozenset({"num_for", "num_if", "num_ifelse"}),
    "choices": frozenset(),
    "flags": frozenset(),
    "size": True,
    "bools": frozenset(),
}

_IDIOM_FIELDS: dict[IdiomKind, dict[str, Any]] = {
    IdiomKind.LIST_COMPREHENSION: _COMPREHENSION_FIELDS,
    IdiomKind.SET_COMPREHENSION: _COMPREHENSION_FIELDS,
    IdiomKind.DICT_COMPREHENSION: _COMPREHENSION_FIELDS,
    IdiomKind.CHAIN_COMPARISON: {
        "counts": frozenset({"num_compop"}),
        "choices": frozenset({"compops"}),
        "flags": frozenset(),
        "size": False,
        "bools": frozenset({"is_true"}),
    },
    IdiomKind.TRUTH_VALUE_TEST: {
        "counts": frozenset(),
        "choices": frozenset({"test_parent", "eq_op", "empty_value"}),
        "flags": frozenset(),
        "size": False,
        "bools": frozenset({"is_true"}),
    },
    IdiomKind.LOOP_ELSE: {
        "counts": frozenset(),
        "choices": frozenset({"loop_kind", "condition_kind"}),
        "flags": frozenset(),
        "size": True,
        "bools": frozenset({"is_break"}),
    },
    IdiomKind.ASSIGN_MULTI_TARGETS: {
        "counts": frozenset({"num_assign"}),
        "choices": frozenset(),
        "flags": frozenset(),
        "size": False,
        "bools": frozenset({"is_swap", "is_const"}),
    },
    IdiomKind.STAR_IN_FUNC_CALL: {
        "counts": frozenset({"num_subscript"}),
        "choices": frozenset(),
        "flags": frozenset({"has_subscript", "has_step", "has_lower", "has_upper"}),
        "size": False,
        "bools": frozenset({"is_const"}),
    },
    IdiomKind.FOR_MULTI_TARGETS: {
        "counts": frozenset({"num_subscript", "num_target"}),
        "choices": frozenset(),
        "flags": frozenset({"has_starred"}),
        "size": True,
        "bools": frozenset(),
    },
}

_COUNT_RANGES: dict[str, range] = {
    "num_for": NUM_FOR_RANGE,
    "num_if": NUM_IF_RANGE,
    "num_ifelse": NUM_IFELSE_RANGE,
    "num_compop": range(min(CHAIN_LENGTHS), max(CHAIN_LENGTHS) + 1),
    "num_assign": NUM_ASSIGN_RANGE,
    "num_subscript": NUM_SUBSCRIPT_RANGE,
    "num_target": NUM_TARGET_RANGE,
}

_CHOICE_VALUES: dict[str, tuple[str, ...]] = {
    "test_parent": TEST_SET,
    "eq_op": EQ_SET,
    "empty_value": EMPTY_VALUE_NAMES,
    "loop_kind": LOOP_SET,
    "condition_kind": CONDITION_SET,
}


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """One point in an idiom's synthesis matrix.

    Args:
        idiom: the idiom this vector belongs to.
        node_counts: count-name to integer (only names legal for the idiom).
        node_choices: choice-name to value; ``compops`` holds the operator
            multiset for chain-comparison as a tuple in canonical order.
        has_flags: boolean structure flags.
        scope: ``Local`` (payload wrapped in a function) or ``Global``.
        size: element/iteration count, ``None`` for idioms without one.
        is_true / is_swap / is_const / is_break: execution-path and data
            properties, ``None`` where the idiom does not define them.
    """

    idiom: IdiomKind
    node_counts: Mapping[str, int] = field(default_factory=dict)
    node_choices: Mapping[str, Any] = field(default_factory=dict)
    has_flags: Mapping[str, bool] = field(default_factory=dict)
    scope: str = "Local"
    size: int | None = None
    is_true: bool | None = None
    is_swap: bool | None = None
    is_const: bool | None = None
    is_break: bool | None = None

    def __post_init__(self) -> None:
        legal = _IDIOM_FIELDS[self.idiom]
        if set(self.node_counts) != set(legal["counts"]):
            raise IllegalFeature(
                f"{self.idiom.value}: node_counts must be exactly "
                f"{sorted(legal['counts'])}, got {sorted(self.node_counts)}"
            )
        if set(self.node_choices) != set(legal["choices"]):
            raise IllegalFeature(
                f"{self.idiom.value}: node_choices must be exactly "
                f"{sorted(legal['choices'])}, got {sorted(self.node_choices)}"
            )
        if set(self.has_flags) != set(legal["flags"]):
            raise IllegalFeature(
                f"{self.idiom.value}: has_flags must be exactly "
                f"{sorted(legal['flags'])}, got {sorted(self.has_flags)}"
            )
        for name, value in self.node_counts.items():
            if value not in _COUNT_RANGES[name]:
                raise IllegalFeature(f"{name}={value} outside legal range")
        for name, value in self.node_choices.items():
            if name == "compops":
                if not self._compops_legal(value):
                    raise IllegalFeature(f"illegal operator multiset {value!r}")
            elif value not in _CHOICE_VALUES[name]:
                raise IllegalFeature(f"{name}={value!r} not a legal choice")
        for name, value in self.has_flags.items():
            if not isinstance(value, bool):
                raise IllegalFeature(f"{name} must be a bool")
        if self.scope not in SCOPES:
            raise IllegalFeature(f"scope={self.scope!r} not in {SCOPES}")
        if legal["size"]:
            if self.size not in SIZES:
                raise IllegalFeature(f"size={self.size!r} not in {SIZES}")
        elif self.size is not None:
            raise IllegalFeature(f"{self.idiom.value} has no size dimension")
        for name in ("is_true", "is_swap", "is_const", "is_break"):
            value = getattr(self, name)
            if name in legal["bools"]:
                if not isinstance(value, bool):
                    raise IllegalFeature(f"{name} must be set for {self.idiom.value}")
            elif value is not None:
                raise IllegalFeature(f"{name} is foreign to {self.idiom.value}")
        if self.idiom is IdiomKind.CHAIN_COMPARISON:
            compops = self.node_choices["compops"]
            if self.node_counts["num_compop"] != len(compops):
                raise IllegalFeature("num_compop must equal len(compops)")
        if self.idiom is IdiomKind.ASSIGN_MULTI_TARGETS:
            # Constants cannot swap.
            if self.is_const and self.is_swap:
                raise IllegalFeature("is_const=True implies is_swap=False")

    @staticmethod
    def _compops_legal(value: Any) -> bool:
        if not isinstance(value, tuple) or len(value) not in CHAIN_LENGTHS:
            return False
        if any(op not in COMPOP_SET for op in value):
            return False
        order = [COMPOP_SET.index(op) for op in value]
        return order == sorted(order)

    def key(self) -> tuple:
        """Canonical hashable identity used for equality and ordering."""
        return (
            self.idiom.value,
            tuple(sorted(self.node_counts.items())),
            tuple(sorted(self.node_choices.items())),
            tuple(sorted(self.has_flags.items())),
            self.scope,
            self.size,
            self.is_true,
            self.is_swap,
            self.is_const,
            self.is_break,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def dims(self) -> dict[str, Any]:
        """Flatten the vector back into a dimension-name to value map."""
        out: dict[str, Any] = {}
        out.update(self.node_counts)
        out.update(self.node_choices)
        out.update(self.has_flags)
        out["scope"] = self.scope
        if self.size is not None:
            out["size"] = self.size
        for name in ("is_true", "is_swap", "is_const", "is_break"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def to_json(self) -> dict[str, Any]:
        data = {
            "idiom": self.idiom.value,
            "node_counts": dict(self.node_counts),
            "node_choices": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.node_choices.items()
            },
            "has_flags": dict(self.has_flags),
            "scope": self.scope,
            "size": self.size,
            "is_true": self.is_true,
            "is_swap": self.is_swap,
            "is_const": self.is_const,
            "is_break": self.is_break,
        }
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FeatureVector":
        choices = {
            k: (tuple(v) if isinstance(v, list) else v)
            for k, v in data.get("node_choices", {}).items()
        }
        return cls(
            idiom=IdiomKind(data["idiom"]),
            node_counts=dict(data.get("node_counts", {})),
            node_choices=choices,
            has_flags=dict(data.get("has_flags", {})),
            scope=data.get("scope", "Local"),
            size=data.get("size"),
            is_true=data.get("is_true"),
            is_swap=data.get("is_swap"),
            is_const=data.get("is_const"),
            is_break=data.get("is_break"),
        )


# ============================================================
# Feature spaces and enumeration
# ============================================================


@dataclass(frozen=True)
class FeatureSpaceDescriptor:
    """Named dimensions with their legal values for one idiom."""

    idiom: IdiomKind
    dims: Mapping[str, tuple]
    constraint: str | None = None


def _chain_multisets() -> tuple[tuple[str, ...], ...]:
    """All operator multisets of length 2..5, in canonical order."""
    out: list[tuple[str, ...]] = []
    for length in CHAIN_LENGTHS:
        out.extend(itertools.combinations_with_replacement(COMPOP_SET, length))
    return tuple(out)


_BOOLS = (False, True)


def feature_space(idiom: IdiomKind) -> FeatureSpaceDescriptor:
    """Describe every dimension and legal value set for ``idiom``."""
    if idiom in COMPREHENSIONS:
        return FeatureSpaceDescriptor(idiom, {
            "num_for": tuple(NUM_FOR_RANGE),
            "num_if": tuple(NUM_IF_RANGE),
            "num_ifelse": tuple(NUM_IFELSE_RANGE),
            "scope": SCOPES,
            "size": SIZES,
        })
    if idiom is IdiomKind.CHAIN_COMPARISON:
        return FeatureSpaceDescriptor(idiom, {
            "compops": _chain_multisets(),
            "scope": SCOPES,
            "is_true": _BOOLS,
        })
    if idiom is IdiomKind.TRUTH_VALUE_TEST:
        return FeatureSpaceDescriptor(idiom, {
            "test_parent": TEST_SET,
            "eq_op": EQ_SET,
            "empty_value": EMPTY_VALUE_NAMES,
            "scope": SCOPES,
            "is_true": _BOOLS,
        })
    if idiom is IdiomKind.LOOP_ELSE:
        return FeatureSpaceDescriptor(idiom, {
            "loop_kind": LOOP_SET,
            "condition_kind": CONDITION_SET,
            "scope": SCOPES,
            "size": SIZES,
            "is_break": _BOOLS,
        })
    if idiom is IdiomKind.ASSIGN_MULTI_TARGETS:
        return FeatureSpaceDescriptor(idiom, {
            "num_assign": tuple(NUM_ASSIGN_RANGE),
            "scope": SCOPES,
            "is_const": _BOOLS,
            "is_swap": _BOOLS,
        }, constraint="is_const=True implies is_swap=False")
    if idiom is IdiomKind.STAR_IN_FUNC_CALL:
        return FeatureSpaceDescriptor(idiom, {
            "num_subscript": tuple(NUM_SUBSCRIPT_RANGE),
            "has_subscript": _BOOLS,
            "has_step": _BOOLS,
            "has_lower": _BOOLS,
            "has_upper": _BOOLS,
            "is_const": _BOOLS,
            "scope": SCOPES,
        })
    if idiom is IdiomKind.FOR_MULTI_TARGETS:
        return FeatureSpaceDescriptor(idiom, {
            "num_subscript": tuple(NUM_SUBSCRIPT_RANGE),
            "num_target": tuple(NUM_TARGET_RANGE),
            "has_starred": _BOOLS,
            "scope": SCOPES,
            "size": SIZES,
        })
    raise ValueError(f"unknown idiom {idiom!r}")


def vector_from_dims(idiom: IdiomKind, dims: Mapping[str, Any]) -> FeatureVector:
    """Build a validated vector from a flat dimension-name map."""
    legal = _IDIOM_FIELDS[idiom]
    counts = {k: v for k, v in dims.items() if k in legal["counts"]}
    choices = {k: v for k, v in dims.items() if k in legal["choices"]}
    flags = {k: v for k, v in dims.items() if k in legal["flags"]}
    if idiom is IdiomKind.CHAIN_COMPARISON:
        counts["num_compop"] = len(dims["compops"])
    kwargs: dict[str, Any] = {}
    for name in ("is_true", "is_swap", "is_const", "is_break"):
        if name in dims:
            kwargs[name] = dims[name]
    return FeatureVector(
        idiom=idiom,
        node_counts=counts,
        node_choices=choices,
        has_flags=flags,
        scope=dims["scope"],
        size=dims.get("size"),
        **kwargs,
    )


def enumerate_matrix(idiom: IdiomKind) -> list[FeatureVector]:
    """Enumerate the full synthesis matrix for ``idiom``.

    The ordering is deterministic: dimensions are sorted by name and the
    cross product iterates each dimension's values in declared order,
    rightmost dimension fastest. Illegal combinations (constant swap
    assignments) are excluded.

    Returns:
        Ordered list of distinct feature vectors.
    """
    space = feature_space(idiom)
    names = sorted(space.dims)
    values = [space.dims[name] for name in names]
    out: list[FeatureVector] = []
    for combo in itertools.product(*values):
        dims = dict(zip(names, combo))
        if idiom is IdiomKind.ASSIGN_MULTI_TARGETS and dims["is_const"] and dims["is_swap"]:
            continue
        out.append(vector_from_dims(idiom, dims))
    return out


# ============================================================
# CSV export
# ============================================================


def matrix_to_csv(idiom: IdiomKind, fileobj) -> int:
    """Write one row per feature vector; returns the row count.

    Columns are ``idiom`` followed by the idiom's dimension names in
    sorted order. Operator multisets are joined with ``|``; booleans are
    written as 0/1.
    """
    space = feature_space(idiom)
    names = sorted(space.dims)
    writer = csv.writer(fileobj)
    writer.writerow(["idiom"] + names)
    count = 0
    for vector in enumerate_matrix(idiom):
        dims = vector.dims()
        row: list[str] = [idiom.value]
        for name in names:
            value = dims[name]
            if isinstance(value, tuple):
                row.append("|".join(value))
            elif isinstance(value, bool):
                row.append(str(int(value)))
            else:
                row.append(str(value))
        writer.writerow(row)
        count += 1
    return count
