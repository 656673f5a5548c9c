"""Feature space shape, vector invariants, and matrix enumeration."""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idiobench.catalog import (
    CHAIN_LENGTHS,
    COMPOP_SET,
    EMPTY_VALUE_NAMES,
    SCOPES,
    SIZES,
    FeatureVector,
    IdiomKind,
    IllegalFeature,
    enumerate_matrix,
    feature_space,
    matrix_to_csv,
    vector_from_dims,
    vector_from_row,
)

EXPECTED_CARDINALITIES = {
    IdiomKind.LIST_COMPREHENSION: 1600,
    IdiomKind.SET_COMPREHENSION: 1600,
    IdiomKind.DICT_COMPREHENSION: 1600,
    IdiomKind.CHAIN_COMPARISON: 11968,
    IdiomKind.TRUTH_VALUE_TEST: 336,
    IdiomKind.LOOP_ELSE: 128,
    IdiomKind.ASSIGN_MULTI_TARGETS: 174,
    IdiomKind.STAR_IN_FUNC_CALL: 1920,
    IdiomKind.FOR_MULTI_TARGETS: 4800,
}


def test_nine_idioms():
    assert len(IdiomKind) == 9
    assert {k.value for k in IdiomKind} == {
        "list-comprehension",
        "set-comprehension",
        "dict-comprehension",
        "chain-comparison",
        "truth-value-test",
        "loop-else",
        "assign-multi-targets",
        "star-in-func-call",
        "for-multi-targets",
    }


@pytest.mark.parametrize("idiom", list(IdiomKind), ids=lambda k: k.value)
def test_matrix_cardinality(idiom):
    assert len(enumerate_matrix(idiom)) == EXPECTED_CARDINALITIES[idiom]


def test_total_cardinality():
    assert sum(EXPECTED_CARDINALITIES.values()) == 24126


@pytest.mark.parametrize("idiom", list(IdiomKind), ids=lambda k: k.value)
def test_matrix_vectors_distinct_and_ordered(idiom):
    vectors = enumerate_matrix(idiom)
    keys = [v.key() for v in vectors]
    assert len(set(keys)) == len(keys)
    # Enumeration is deterministic across calls.
    assert keys == [v.key() for v in enumerate_matrix(idiom)]


@pytest.mark.parametrize("idiom", list(IdiomKind), ids=lambda k: k.value)
def test_picked_vectors_are_the_enumerated_ones(idiom):
    from idiobench.cli import _stratified_indices

    keys = [v.key() for v in enumerate_matrix(idiom)]
    assert [v.key() for v in enumerate_matrix(idiom, range)] == keys
    for limit in (1, 3, 11, 40, 400):
        for seed in (0, 1, 9101):
            indices = _stratified_indices(len(keys), limit, seed)
            picked = enumerate_matrix(idiom, lambda total: _stratified_indices(total, limit, seed))
            assert [v.key() for v in picked] == [keys[i] for i in indices]


def test_chain_compops_are_sorted_multisets():
    space = feature_space(IdiomKind.CHAIN_COMPARISON)
    combos = space.dims["compops"]
    assert {len(c) for c in combos} == set(CHAIN_LENGTHS)
    for combo in combos:
        assert all(op in COMPOP_SET for op in combo)
        assert tuple(sorted(combo, key=COMPOP_SET.index)) == combo
    # Multisets, not sequences: no permutation duplicates.
    assert len(set(combos)) == len(combos)


def test_no_constant_swap_vectors():
    for vector in enumerate_matrix(IdiomKind.ASSIGN_MULTI_TARGETS):
        assert not (vector.is_const and vector.is_swap)


def test_assign_counts_span_two_to_thirty():
    counts = {
        v.node_counts["num_assign"]
        for v in enumerate_matrix(IdiomKind.ASSIGN_MULTI_TARGETS)
    }
    assert counts == set(range(2, 31))


def test_sizes_ladder():
    assert SIZES == (0, 1, 10, 100, 1000, 10000, 100000, 1000000)
    assert set(SCOPES) == {"Global", "Local"}
    assert len(EMPTY_VALUE_NAMES) == 14


def test_vector_validation_rejects_bad_scope():
    good = enumerate_matrix(IdiomKind.LIST_COMPREHENSION)[0]
    with pytest.raises(IllegalFeature):
        FeatureVector(
            idiom=good.idiom,
            node_counts=good.node_counts,
            node_choices=good.node_choices,
            has_flags=good.has_flags,
            scope="Module",
            size=good.size,
        )


def test_vector_validation_rejects_constant_swap():
    with pytest.raises(IllegalFeature):
        vector_from_dims(
            IdiomKind.ASSIGN_MULTI_TARGETS,
            {"num_assign": 2, "scope": "Global", "is_const": True, "is_swap": True},
        )


def test_vector_validation_rejects_bad_size():
    with pytest.raises(IllegalFeature):
        vector_from_dims(
            IdiomKind.LIST_COMPREHENSION,
            {"num_for": 1, "num_if": 0, "num_ifelse": 0, "scope": "Global", "size": 7},
        )


@pytest.mark.parametrize("compops", [3, None, ("<", 7)])
def test_vector_validation_rejects_bad_compops(compops):
    dims = dict(enumerate_matrix(IdiomKind.CHAIN_COMPARISON)[0].dims(), compops=compops)
    with pytest.raises(IllegalFeature):
        vector_from_dims(IdiomKind.CHAIN_COMPARISON, dims)


@pytest.mark.parametrize("idiom", list(IdiomKind), ids=lambda k: k.value)
def test_dims_round_trip(idiom):
    for vector in enumerate_matrix(idiom)[:: max(1, len(enumerate_matrix(idiom)) // 40)]:
        rebuilt = vector_from_dims(idiom, vector.dims())
        assert rebuilt == vector
        assert rebuilt.key() == vector.key()


@st.composite
def matrix_vector(draw):
    idiom = draw(st.sampled_from(list(IdiomKind)))
    vectors = enumerate_matrix(idiom)
    return vectors[draw(st.integers(0, len(vectors) - 1))]


@settings(max_examples=60, deadline=None)
@given(matrix_vector())
def test_json_round_trip(vector):
    rebuilt = FeatureVector.from_json(vector.to_json())
    assert rebuilt == vector


@settings(max_examples=60, deadline=None)
@given(matrix_vector())
def test_key_starts_with_idiom_and_is_hashable(vector):
    key = vector.key()
    assert key[0] == vector.idiom.value
    assert hash(key) == hash(vector.key())


@pytest.mark.parametrize("idiom", list(IdiomKind), ids=lambda k: k.value)
def test_matrix_csv_rows_read_back_to_their_vectors(idiom):
    buf = io.StringIO()
    matrix_to_csv(idiom, buf)
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    assert [vector_from_row(row) for row in rows] == enumerate_matrix(idiom)


@pytest.mark.parametrize(
    ("name", "cell"), [("num_target", " 1"), ("num_subscript", "05"), ("has_starred", "2")]
)
def test_a_cell_feature_cell_never_writes_is_not_a_vector(name, cell):
    buf = io.StringIO()
    matrix_to_csv(IdiomKind.FOR_MULTI_TARGETS, buf)
    buf.seek(0)
    row = next(csv.DictReader(buf))
    assert vector_from_row(row) is not None
    assert vector_from_row({**row, name: cell}) is None


def test_matrix_csv_row_count():
    buf = io.StringIO()
    rows = matrix_to_csv(IdiomKind.LOOP_ELSE, buf)
    lines = buf.getvalue().strip().splitlines()
    assert rows == 128
    assert len(lines) == 129  # header + one row per vector
    header = lines[0].split(",")
    assert header[0] == "idiom"
