"""Idiom kinds, their legal feature spaces, and full matrix enumeration.

Each of the nine idioms owns a small set of named dimensions (AST-node
counts, structural flags, scope, data size, execution-path booleans).
``enumerate_matrix`` walks the cross product of those dimensions in a
deterministic order and yields one :class:`FeatureVector` per point.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, NamedTuple

# ============================================================
# Idiom kinds
# ============================================================


class IdiomKind(Enum):
    """The nine idiom transformations handled by this toolkit."""

    # Members are singletons that compare by identity. Enum's own hash
    # runs Python code on every dict lookup keyed by an idiom.
    __hash__ = object.__hash__

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

SCOPES: tuple[str, ...] = ("Local", "Global")


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


def _chain_multisets() -> tuple[tuple[str, ...], ...]:
    """All operator multisets of length 2..5, in canonical order."""
    out: list[tuple[str, ...]] = []
    for length in CHAIN_LENGTHS:
        out.extend(itertools.combinations_with_replacement(COMPOP_SET, length))
    return tuple(out)


_BOOLS = (False, True)

_COMPREHENSION_SPACE: dict[str, tuple] = {
    "num_for": tuple(range(1, 5)),
    "num_if": tuple(range(0, 5)),
    "num_ifelse": tuple(range(0, 5)),
    "scope": SCOPES,
    "size": SIZES,
}

#: Every dimension of every idiom with its legal values in declared
#: order. A dimension's name says which field of a :class:`FeatureVector`
#: holds it: ``num_*`` node counts, ``has_*`` structure flags, ``is_*``
#: execution-path booleans, ``size`` and ``scope`` themselves, and any
#: other name a node choice.
_SPACES: dict[IdiomKind, dict[str, tuple]] = {
    IdiomKind.LIST_COMPREHENSION: _COMPREHENSION_SPACE,
    IdiomKind.SET_COMPREHENSION: _COMPREHENSION_SPACE,
    IdiomKind.DICT_COMPREHENSION: _COMPREHENSION_SPACE,
    IdiomKind.CHAIN_COMPARISON: {
        "compops": _chain_multisets(),
        "scope": SCOPES,
        "is_true": _BOOLS,
    },
    IdiomKind.TRUTH_VALUE_TEST: {
        "test_parent": ("while", "assert", "if"),
        "eq_op": ("==", "!="),
        "empty_value": EMPTY_VALUE_NAMES,
        "scope": SCOPES,
        "is_true": _BOOLS,
    },
    IdiomKind.LOOP_ELSE: {
        "loop_kind": ("for", "while"),
        "condition_kind": ("if", "if-else"),
        "scope": SCOPES,
        "size": SIZES,
        "is_break": _BOOLS,
    },
    IdiomKind.ASSIGN_MULTI_TARGETS: {
        "num_assign": tuple(range(2, 31)),
        "scope": SCOPES,
        "is_const": _BOOLS,
        "is_swap": _BOOLS,
    },
    IdiomKind.STAR_IN_FUNC_CALL: {
        "num_subscript": tuple(range(1, 31)),
        "has_subscript": _BOOLS,
        "has_step": _BOOLS,
        "has_lower": _BOOLS,
        "has_upper": _BOOLS,
        "is_const": _BOOLS,
        "scope": SCOPES,
    },
    IdiomKind.FOR_MULTI_TARGETS: {
        "num_subscript": tuple(range(1, 31)),
        "num_target": tuple(range(1, 6)),
        "has_starred": _BOOLS,
        "scope": SCOPES,
        "size": SIZES,
    },
}


class _Fields(NamedTuple):
    """One idiom's field groups and legal value sets, read off ``_SPACES``."""

    counts: frozenset[str]
    choices: frozenset[str]
    flags: frozenset[str]
    bools: frozenset[str]
    legal: dict[str, frozenset]
    #: Each count, choice and flag name to the index of its group among
    #: counts, choices and flags.
    group: dict[str, int]


def _fields(space: Mapping[str, tuple]) -> _Fields:
    legal = {name: frozenset(values) for name, values in space.items()}
    if "compops" in space:
        # The chain length is a count derived from the operator multiset.
        legal["num_compop"] = frozenset(len(ops) for ops in space["compops"])
    counts = frozenset(n for n in legal if n.startswith("num_"))
    flags = frozenset(n for n in legal if n.startswith("has_"))
    bools = frozenset(n for n in legal if n.startswith("is_"))
    choices = frozenset(legal) - counts - flags - bools - {"scope", "size"}
    group = {name: i for i, names in enumerate((counts, choices, flags)) for name in names}
    return _Fields(counts, choices, flags, bools, legal, group)


_FIELDS: dict[IdiomKind, _Fields] = {
    idiom: _fields(space) for idiom, space in _SPACES.items()
}


def _is_legal(value: Any, legal: frozenset) -> bool:
    try:
        return value in legal
    except TypeError:  # unhashable, e.g. a list read from JSON
        return False


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
        fields = _FIELDS[self.idiom]
        for group, given, names in (
            ("node_counts", self.node_counts, fields.counts),
            ("node_choices", self.node_choices, fields.choices),
            ("has_flags", self.has_flags, fields.flags),
        ):
            # A keys view compares with a set as a set, without a copy.
            if given.keys() != names:
                raise IllegalFeature(
                    f"{self.idiom.value}: {group} must be exactly "
                    f"{sorted(names)}, got {sorted(given)}"
                )
        for name, value in self.node_counts.items():
            if not _is_legal(value, fields.legal[name]):
                raise IllegalFeature(f"{name}={value} outside legal range")
        for name, value in self.node_choices.items():
            if not _is_legal(value, fields.legal[name]):
                raise IllegalFeature(f"{name}={value!r} not a legal choice")
        for name, value in self.has_flags.items():
            if not isinstance(value, bool):
                raise IllegalFeature(f"{name} must be a bool")
        if self.scope not in SCOPES:
            raise IllegalFeature(f"scope={self.scope!r} not in {SCOPES}")
        if "size" in fields.legal:
            if not _is_legal(self.size, fields.legal["size"]):
                raise IllegalFeature(f"size={self.size!r} not in {SIZES}")
        elif self.size is not None:
            raise IllegalFeature(f"{self.idiom.value} has no size dimension")
        for name in ("is_true", "is_swap", "is_const", "is_break"):
            value = getattr(self, name)
            if name in fields.bools:
                if not isinstance(value, bool):
                    raise IllegalFeature(f"{name} must be set for {self.idiom.value}")
            elif value is not None:
                raise IllegalFeature(f"{name} is foreign to {self.idiom.value}")
        if "num_compop" in fields.counts:
            if self.node_counts["num_compop"] != len(self.node_choices["compops"]):
                raise IllegalFeature("num_compop must equal len(compops)")
        if self.idiom is IdiomKind.ASSIGN_MULTI_TARGETS:
            # Constants cannot swap.
            if self.is_const and self.is_swap:
                raise IllegalFeature("is_const=True implies is_swap=False")

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


def feature_space(idiom: IdiomKind) -> FeatureSpaceDescriptor:
    """Describe every dimension and legal value set for ``idiom``."""
    return FeatureSpaceDescriptor(idiom, _SPACES[idiom])


def vector_from_dims(idiom: IdiomKind, dims: Mapping[str, Any]) -> FeatureVector:
    """Build a validated vector from a flat dimension-name map."""
    fields = _FIELDS[idiom]
    counts: dict[str, Any] = {}
    choices: dict[str, Any] = {}
    flags: dict[str, Any] = {}
    groups = (counts, choices, flags)
    for name, value in dims.items():
        index = fields.group.get(name)
        if index is not None:
            groups[index][name] = value
    if "num_compop" in fields.counts:
        # Validate before deriving the count: len() of a non-sequence
        # would raise TypeError, not IllegalFeature.
        compops = dims.get("compops")
        if not _is_legal(compops, fields.legal["compops"]):
            raise IllegalFeature(f"compops={compops!r} not a legal choice")
        counts["num_compop"] = len(compops)
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


def enumerate_matrix(
    idiom: IdiomKind, pick: Callable[[int], Iterable[int]] | None = None
) -> list[FeatureVector]:
    """Enumerate the full synthesis matrix for ``idiom``.

    The ordering is deterministic: dimensions are sorted by name and the
    cross product iterates each dimension's values in declared order,
    rightmost dimension fastest. Illegal combinations (constant swap
    assignments) are excluded.

    With ``pick``, only the vectors at the indices that ``pick`` chooses
    from the matrix size are returned, in the order given, and only they
    are built: an index is decoded mixed-radix in the order above.
    Assign-multi-targets is the exception, since dropping its constant
    swaps leaves no full cross product; it is enumerated, then picked.

    Returns:
        Ordered list of distinct feature vectors.
    """
    space = _SPACES[idiom]
    names = sorted(space)
    values = [space[name] for name in names]
    out: list[FeatureVector] = []
    if pick is not None and idiom is not IdiomKind.ASSIGN_MULTI_TARGETS:
        for index in pick(math.prod(len(levels) for levels in values)):
            dims: dict[str, Any] = {}
            for name, levels in zip(reversed(names), reversed(values)):
                index, digit = divmod(index, len(levels))
                dims[name] = levels[digit]
            out.append(vector_from_dims(idiom, dims))
        return out
    for combo in itertools.product(*values):
        dims = dict(zip(names, combo))
        if idiom is IdiomKind.ASSIGN_MULTI_TARGETS and dims["is_const"] and dims["is_swap"]:
            continue
        out.append(vector_from_dims(idiom, dims))
    return out if pick is None else [out[i] for i in pick(len(out))]


# ============================================================
# CSV export
# ============================================================


def feature_cell(value: Any) -> str:
    """One feature value as a CSV cell: operator multisets joined with
    ``|``, booleans as 0/1, anything else as ``str``."""
    if isinstance(value, tuple):
        return "|".join(value)
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def vector_from_row(row: Mapping[str, str]) -> FeatureVector | None:
    """The vector that a CSV row's ``idiom`` and :func:`feature_cell`
    columns encode, or None if a cell is blank or not a legal value."""
    try:
        idiom = IdiomKind(row["idiom"])
    except ValueError:
        return None
    dims: dict[str, Any] = {}
    for name, levels in _SPACES[idiom].items():
        raw = row.get(name, "")
        if raw == "":
            return None
        sample = levels[0]
        try:
            if isinstance(sample, tuple):
                dims[name] = tuple(raw.split("|"))
            elif isinstance(sample, bool):
                dims[name] = bool(int(raw))
            elif isinstance(sample, int):
                dims[name] = int(raw)
            else:
                dims[name] = raw
        except ValueError:
            return None
    try:
        return vector_from_dims(idiom, dims)
    except IllegalFeature:
        return None


def matrix_to_csv(idiom: IdiomKind, fileobj) -> int:
    """Write one row per feature vector; returns the row count.

    Columns are ``idiom`` followed by the idiom's dimension names in
    sorted order, each cell written by :func:`feature_cell`.
    """
    names = sorted(_SPACES[idiom])
    writer = csv.writer(fileobj)
    writer.writerow(["idiom"] + names)
    count = 0
    for vector in enumerate_matrix(idiom):
        dims = vector.dims()
        writer.writerow([idiom.value] + [feature_cell(dims[name]) for name in names])
        count += 1
    return count
