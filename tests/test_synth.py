"""Synthesis: payload structure realizes each feature vector exactly."""

from __future__ import annotations

import ast
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.synth import (
    CodePair,
    load_pairs,
    save_pair,
    setup_for_size,
    star_list_len,
    synthesize,
    wrap_calibration,
    wrap_pair,
)

from conftest import sample_vectors


def _exec_pair_side(source: str, setup: str) -> dict:
    ns: dict = {"__name__": "__payload__"}
    exec(setup, ns)
    exec(source, ns)
    return ns


def _count(tree: ast.AST, node_type: type) -> int:
    return sum(isinstance(n, node_type) for n in ast.walk(tree))


# ============================================================
# Per-idiom structure
# ============================================================


@pytest.mark.parametrize(
    "idiom", [IdiomKind.LIST_COMPREHENSION, IdiomKind.SET_COMPREHENSION, IdiomKind.DICT_COMPREHENSION],
    ids=lambda k: k.value,
)
def test_comprehension_structure(idiom):
    for vector in sample_vectors(idiom, 12):
        pair = synthesize(vector)
        tree = ast.parse(pair.non_idiomatic_source)
        assert _count(tree, ast.For) == vector.node_counts["num_for"]
        assert _count(tree, ast.If) == vector.node_counts["num_if"]
        assert _count(tree, ast.IfExp) == vector.node_counts["num_ifelse"]
        ns = _exec_pair_side(pair.non_idiomatic_source, pair.setup_source)
        result = {
            IdiomKind.LIST_COMPREHENSION: list,
            IdiomKind.SET_COMPREHENSION: set,
            IdiomKind.DICT_COMPREHENSION: dict,
        }[idiom]
        name = {"list": "l_0", "set": "s_0", "dict": "d_0"}[result.__name__]
        assert isinstance(ns[name], result)


def test_comprehension_result_tracks_size():
    vectors = [
        v
        for v in enumerate_matrix(IdiomKind.LIST_COMPREHENSION)
        if v.node_counts == {"num_for": 1, "num_if": 0, "num_ifelse": 0}
        and v.scope == "Global"
    ]
    for vector in vectors:
        pair = synthesize(vector)
        ns = _exec_pair_side(pair.non_idiomatic_source, pair.setup_source)
        assert len(ns["l_0"]) == vector.size


def test_chain_structure_and_truth():
    for vector in sample_vectors(IdiomKind.CHAIN_COMPARISON, 60):
        pair = synthesize(vector)
        tree = ast.parse(pair.non_idiomatic_source)
        compares = [n for n in ast.walk(tree) if isinstance(n, ast.Compare)]
        num_compop = vector.node_counts["num_compop"]
        # Non-idiomatic form: one single-op compare per link, joined by and.
        assert len(compares) == num_compop
        assert all(len(c.ops) == 1 for c in compares)
        if num_compop > 1:
            assert _count(tree, ast.BoolOp) == 1
        ns = _exec_pair_side(pair.non_idiomatic_source, pair.setup_source)
        assert ns["r_0"] == vector.is_true


def test_truth_value_test_structure():
    for vector in sample_vectors(IdiomKind.TRUTH_VALUE_TEST, 40):
        pair = synthesize(vector)
        tree = ast.parse(pair.non_idiomatic_source)
        parent = vector.node_choices["test_parent"]
        expected = {"if": ast.If, "while": ast.While, "assert": ast.Assert}[parent]
        assert _count(tree, expected) == 1
        assert vector.node_choices["eq_op"] in pair.non_idiomatic_source
        ns = _exec_pair_side(pair.non_idiomatic_source, pair.setup_source)
        # The comparison against the empty value drives the branch; the
        # assert parent binds r_0 on failure, the others on success.
        fires = vector.is_true if vector.node_choices["eq_op"] == "!=" else not vector.is_true
        binds = not fires if parent == "assert" else fires
        assert ("r_0" in ns) == binds


def test_loop_else_break_semantics():
    for vector in sample_vectors(IdiomKind.LOOP_ELSE, 24):
        pair = synthesize(vector)
        ns = _exec_pair_side(pair.non_idiomatic_source, pair.setup_source)
        breaks = vector.is_break and vector.size > 0
        # r_0 marks normal (non-break) completion.
        assert ("r_0" in ns) == (not breaks)


def test_assign_multi_structure():
    for vector in sample_vectors(IdiomKind.ASSIGN_MULTI_TARGETS, 24):
        pair = synthesize(vector)
        tree = ast.parse(pair.non_idiomatic_source)
        k = vector.node_counts["num_assign"]
        assigns = [n for n in ast.walk(tree) if isinstance(n, ast.Assign)]
        if vector.is_swap:
            # Prologue initializers plus temp-based rotation.
            assert len(assigns) == k + (k + 1)
        else:
            assert len(assigns) == k
        ns = _exec_pair_side(pair.non_idiomatic_source, pair.setup_source)
        if vector.is_swap:
            values = [ns[f"a_{t}"] for t in range(k)]
            assert values == [(t + 1) % k for t in range(k)]
        elif vector.is_const:
            assert [ns[f"a_{t}"] for t in range(k)] == list(range(k))
        else:
            assert [ns[f"a_{t}"] for t in range(k)] == [10 + t for t in range(k)]


def test_star_call_structure():
    for vector in sample_vectors(IdiomKind.STAR_IN_FUNC_CALL, 40):
        pair = synthesize(vector)
        tree = ast.parse(pair.non_idiomatic_source)
        call = next(n for n in ast.walk(tree) if isinstance(n, ast.Call))
        n = vector.node_counts["num_subscript"]
        assert len(call.args) == n
        assert all(isinstance(a, ast.Subscript) for a in call.args)
        ns = _exec_pair_side(pair.non_idiomatic_source, pair.setup_source)
        assert ns["r_0"] == tuple(range(n))
        assert len(ns["e_list"]) == star_list_len(vector)


def test_for_multi_structure():
    for vector in sample_vectors(IdiomKind.FOR_MULTI_TARGETS, 40):
        pair = synthesize(vector)
        tree = ast.parse(pair.non_idiomatic_source)
        subscripts = [n for n in ast.walk(tree) if isinstance(n, ast.Subscript)]
        assert len(subscripts) == vector.node_counts["num_subscript"]
        ns = _exec_pair_side(pair.non_idiomatic_source, pair.setup_source)
        if vector.size > 0:
            m = vector.node_counts["num_target"]
            for t in range(vector.node_counts["num_subscript"]):
                assert ns[f"r_{t}"] == t % m


# ============================================================
# Cross-cutting invariants
# ============================================================


@st.composite
def any_vector(draw):
    idiom = draw(st.sampled_from(list(IdiomKind)))
    vectors = enumerate_matrix(idiom)
    return vectors[draw(st.integers(0, len(vectors) - 1))]


@settings(max_examples=80, deadline=None)
@given(any_vector())
def test_synthesized_sources_compile(vector):
    pair = synthesize(vector)
    compile(pair.setup_source, "<setup>", "exec")
    compile(pair.non_idiomatic_source, "<payload>", "exec")
    assert pair.idiomatic_source == ""
    assert pair.scope_mode == vector.scope


@settings(max_examples=80, deadline=None)
@given(any_vector())
def test_pair_id_is_stable_hex(vector):
    pair_a = synthesize(vector)
    pair_b = synthesize(vector)
    assert pair_a.pair_id == pair_b.pair_id
    assert len(pair_a.pair_id) == 16
    int(pair_a.pair_id, 16)


def test_pair_ids_unique_across_idioms():
    seen: set[str] = set()
    for idiom in IdiomKind:
        for vector in sample_vectors(idiom, 30):
            pair_id = synthesize(vector).pair_id
            assert pair_id not in seen
            seen.add(pair_id)


def test_setup_for_size_regenerates():
    vector = next(
        v for v in enumerate_matrix(IdiomKind.LIST_COMPREHENSION) if v.size == 100
    )
    assert "range(100)" in synthesize(vector).setup_source
    assert "range(1000)" in setup_for_size(vector, 1000)


def test_setup_for_size_identity_for_unsized():
    vector = enumerate_matrix(IdiomKind.CHAIN_COMPARISON)[0]
    pair = synthesize(vector)
    assert setup_for_size(vector, 10) == pair.setup_source


# ============================================================
# Persistence
# ============================================================


def test_save_load_round_trip(tmp_path):
    vectors = sample_vectors(IdiomKind.LOOP_ELSE, 4)
    pairs = [synthesize(v) for v in vectors]
    for pair in pairs:
        save_pair(pair, tmp_path)
    loaded = load_pairs(tmp_path)
    assert {p.pair_id for p in loaded} == {p.pair_id for p in pairs}
    by_id = {p.pair_id: p for p in loaded}
    for pair in pairs:
        assert by_id[pair.pair_id] == pair


def test_pair_json_is_sorted_and_stable(tmp_path):
    pair = synthesize(enumerate_matrix(IdiomKind.TRUTH_VALUE_TEST)[0])
    path = save_pair(pair, tmp_path)
    first = path.read_text()
    save_pair(pair, tmp_path)
    assert path.read_text() == first
    keys = list(json.loads(first))
    assert keys == sorted(keys)


# ============================================================
# Harness wrappers
# ============================================================


def test_wrap_pair_emits_timings():
    from idiobench.refactor import refactor_pair

    vector = next(
        v
        for v in enumerate_matrix(IdiomKind.LIST_COMPREHENSION)
        if v.size == 10 and v.scope == "Local"
    )
    pair = refactor_pair(synthesize(vector))
    module = wrap_pair(
        pair.non_idiomatic_source,
        pair.idiomatic_source,
        pair.setup_source,
        pair.scope_mode,
        k_iterations=4,
        repetitions=3,
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", module], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["repetitions"] == 3
    assert len(record["timings_ns"]) == 2
    for timings in record["timings_ns"]:
        assert len(timings) == 4
        assert all(t > 0 for t in timings)


@pytest.mark.parametrize("scope", ["Global", "Local"])
def test_wrap_pair_imports_no_json(scope):
    # json pulls in re and enum; the timed child must not pay for them.
    module = wrap_pair("r_0 = [1]\n", "r_0 = [1]\n", "", scope, k_iterations=2, repetitions=3)
    probe = "import sys; print(sorted({'json', 're', 'enum'} & set(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", module + probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    record_line, loaded = proc.stdout.strip().splitlines()[-2:]
    assert loaded == "[]"
    assert json.loads(record_line)["repetitions"] == 3


@pytest.mark.parametrize("scope", ["Global", "Local"])
def test_wrap_calibration_grows_to_the_floor_or_the_cap(scope):
    def run(floor, cap):
        module = wrap_calibration(
            "r_0 = [1]\n",
            "r_0 = [1, 2, 3]\n",
            "",
            scope,
            min_iteration_ns=floor,
            max_repetitions=cap,
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", module], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    reached = run(200_000, 1 << 30)
    assert len(reached["timings_ns"]) == len(reached["repetitions"]) == 2
    for duration, reps in zip(reached["timings_ns"], reached["repetitions"]):
        assert duration >= 200_000
        assert reps > 1
    capped = run(10**12, 100)
    assert capped["repetitions"] == [100, 100]
    assert len(capped["timings_ns"]) == 2


@pytest.mark.parametrize("scope", ["Global", "Local"])
def test_wrap_pair_places_payload(scope):
    module = wrap_pair("r_0 = 1\n", "r_0 = 2\n", "", scope, k_iterations=1, repetitions=1)
    tree = ast.parse(module)
    defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert len(defs) == (2 if scope == "Local" else 0)


def _tagging_module(scope: str, invocation: int) -> str:
    """A paired module whose payloads append their variant's tag to ``tags``."""
    module = wrap_pair(
        "tags.append('N')\n",
        "tags.append('I')\n",
        "tags = []\n",
        scope,
        invocation=invocation,
        k_iterations=4,
        repetitions=1,
    )
    return module + "print(''.join(tags))\n"


@pytest.mark.parametrize("invocation", [0, 1])
@pytest.mark.parametrize("scope", ["Global", "Local"])
def test_wrap_pair_alternates_run_and_definition_order(scope, invocation):
    module = _tagging_module(scope, invocation)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", module], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    # Iteration i runs NonIdiomatic first when i is even, Idiomatic first
    # when it is odd, whatever the invocation: NI, IN, NI, IN.
    assert proc.stdout.strip().splitlines()[-1] == "NIINNIIN"
    defined = [n.name for n in ast.parse(module).body if isinstance(n, ast.FunctionDef)]
    if scope == "Local":
        order = ["__payload_0", "__payload_1"]
        assert defined == (order if invocation % 2 == 0 else order[::-1])
    else:
        assert defined == []
