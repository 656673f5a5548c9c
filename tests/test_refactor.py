"""Rewrites: each idiom's transform, fixpoint behavior, and detection."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.equivalence import is_scaffold_name
from idiobench.refactor import NotApplicable, detect, hints_for, refactor, refactor_pair
from idiobench.synth import synthesize

from conftest import sample_vectors


def _same_tree(actual: str, expected: str) -> bool:
    # unparse may parenthesize tuple targets; compare trees, not text.
    return ast.dump(ast.parse(actual)) == ast.dump(ast.parse(expected))


def _exec_names(source: str, setup: str) -> dict:
    ns: dict = {"__name__": "__payload__"}
    exec(setup, ns)
    exec(source, ns)
    loop_targets = {
        sub.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.For)
        for sub in ast.walk(node.target)
        if isinstance(sub, ast.Name)
    }
    return {
        k: v
        for k, v in ns.items()
        if not k.startswith("__")
        and not callable(v)
        and not is_scaffold_name(k)
        and k not in loop_targets
    }


SAMPLE_BUDGET = {
    IdiomKind.CHAIN_COMPARISON: 24,
    IdiomKind.STAR_IN_FUNC_CALL: 16,
    IdiomKind.FOR_MULTI_TARGETS: 16,
}


@pytest.mark.parametrize("idiom", list(IdiomKind), ids=lambda k: k.value)
def test_refactor_round_trip(idiom):
    """Transform compiles, is behavior-preserving, and reaches a fixpoint."""
    for vector in sample_vectors(idiom, SAMPLE_BUDGET.get(idiom, 8)):
        if vector.size is not None and vector.size > 1000:
            vector = next(
                v for v in enumerate_matrix(idiom)
                if v.dims() == {**vector.dims(), "size": 100}
            )
        pair = refactor_pair(synthesize(vector))
        compile(pair.idiomatic_source, "<idiomatic>", "exec")
        left = _exec_names(pair.non_idiomatic_source, pair.setup_source)
        right = _exec_names(pair.idiomatic_source, pair.setup_source)
        assert left == right, f"{vector.dims()} diverged"
        # Fixpoint: with the pair's own hints the transform finds nothing
        # left to do. (Swap pairs keep their operand-init run verbatim,
        # which hint-free detection still reports as a mergeable site.)
        with pytest.raises(NotApplicable):
            refactor(pair.idiomatic_source, idiom, hints_for(pair.features))
        if not (idiom is IdiomKind.ASSIGN_MULTI_TARGETS and vector.is_swap):
            residual = [k for k, _ in detect(pair.idiomatic_source) if k is idiom]
            assert not residual, f"{vector.dims()} left {residual}"


# ============================================================
# Comprehensions
# ============================================================


def test_list_comprehension_basic():
    out = refactor(
        "l_0 = []\nfor e_0 in x_0:\n    l_0.append(e_0)\n",
        IdiomKind.LIST_COMPREHENSION,
    )
    assert out == "l_0 = [e_0 for e_0 in x_0]\n"


def test_dict_comprehension_with_condition():
    out = refactor(
        "d_0 = {}\nfor e_0 in x_0:\n    if e_0 % 2:\n        d_0[e_0] = e_0 * 2\n",
        IdiomKind.DICT_COMPREHENSION,
    )
    assert out == "d_0 = {e_0: e_0 * 2 for e_0 in x_0 if e_0 % 2}\n"


def test_set_comprehension_nested_loops():
    out = refactor(
        "s_0 = set()\nfor e_0 in x_0:\n    for e_1 in x_1:\n        s_0.add(e_0)\n",
        IdiomKind.SET_COMPREHENSION,
    )
    assert out == "s_0 = {e_0 for e_0 in x_0 for e_1 in x_1}\n"


def test_comprehension_requires_empty_init():
    # Accumulator seeded with data is not an empty-build pattern.
    with pytest.raises(NotApplicable):
        refactor(
            "l_0 = [1]\nfor e_0 in x_0:\n    l_0.append(e_0)\n",
            IdiomKind.LIST_COMPREHENSION,
        )


def test_comprehension_ignores_interleaved_statement():
    # A statement between init and loop breaks the pattern only if the
    # loop body does more than append.
    with pytest.raises(NotApplicable):
        refactor(
            "l_0 = []\nfor e_0 in x_0:\n    l_0.append(e_0)\n    print(e_0)\n",
            IdiomKind.LIST_COMPREHENSION,
        )


# ============================================================
# Chain comparison
# ============================================================


def test_chain_merges_links():
    out = refactor("r_0 = a < b and b < c\n", IdiomKind.CHAIN_COMPARISON)
    assert out == "r_0 = a < b < c\n"


def test_chain_flips_first_link_when_needed():
    out = refactor("r_0 = b > a and b < c\n", IdiomKind.CHAIN_COMPARISON)
    assert out == "r_0 = a < b < c\n"


def test_chain_flips_later_link():
    out = refactor("r_0 = a < b and c > b\n", IdiomKind.CHAIN_COMPARISON)
    assert out == "r_0 = a < b < c\n"


def test_chain_membership_not_flippable():
    # x in y cannot be reversed; mismatched shared operand stays as is.
    with pytest.raises(NotApplicable):
        refactor("r_0 = a in b and a in c\n", IdiomKind.CHAIN_COMPARISON)


def test_chain_requires_shared_operand():
    with pytest.raises(NotApplicable):
        refactor("r_0 = a < b and c < d\n", IdiomKind.CHAIN_COMPARISON)


def test_chain_three_links():
    out = refactor("r_0 = a < b and b <= c and c != d\n", IdiomKind.CHAIN_COMPARISON)
    assert out == "r_0 = a < b <= c != d\n"


# ============================================================
# Truth value test
# ============================================================


@pytest.mark.parametrize(
    "test_in, test_out",
    [
        ("a_0 != 0", "a_0"),
        ("a_0 != ''", "a_0"),
        ("a_0 != []", "a_0"),
        ("a_0 == 0", "not a_0"),
        ("a_0 == {}", "not a_0"),
        ("a_0 == set()", "not a_0"),
        ("a_0 == dict()", "not a_0"),
        ("a_0 == 0.0", "not a_0"),
        ("a_0 == None", "not a_0"),
        ("a_0 == False", "not a_0"),
        ("a_0 == range(0)", "not a_0"),
    ],
)
def test_truth_test_rewrites(test_in, test_out):
    out = refactor(f"if {test_in}:\n    r_0 = 1\n", IdiomKind.TRUTH_VALUE_TEST)
    assert out == f"if {test_out}:\n    r_0 = 1\n"


def test_truth_test_only_in_test_position():
    # An equality whose result is stored is not a truth-value test.
    with pytest.raises(NotApplicable):
        refactor("r_0 = a_0 == 0\n", IdiomKind.TRUTH_VALUE_TEST)


def test_truth_test_skips_nonempty_literal():
    with pytest.raises(NotApplicable):
        refactor("if a_0 == 5:\n    r_0 = 1\n", IdiomKind.TRUTH_VALUE_TEST)


def test_truth_test_while_and_assert_parents():
    out = refactor("while a_0 != 0:\n    break\n", IdiomKind.TRUTH_VALUE_TEST)
    assert out == "while a_0:\n    break\n"
    out = refactor("assert a_0 == ''\n", IdiomKind.TRUTH_VALUE_TEST)
    assert out == "assert not a_0\n"


# ============================================================
# Loop else
# ============================================================


def test_loop_else_flag_becomes_orelse():
    src = (
        "flag_0 = True\n"
        "for e_0 in x_0:\n"
        "    if e_0 == b_0:\n"
        "        flag_0 = False\n"
        "        break\n"
        "if flag_0:\n"
        "    r_0 = 1\n"
    )
    out = refactor(src, IdiomKind.LOOP_ELSE)
    tree = ast.parse(out)
    loop = tree.body[0]
    assert isinstance(loop, ast.For)
    assert loop.orelse and isinstance(loop.orelse[0], ast.Assign)
    assert "flag_0" not in out


def test_loop_else_allows_intervening_statements():
    src = (
        "flag_0 = True\n"
        "i_0 = 0\n"
        "while i_0 < n_0:\n"
        "    if i_0 == b_0:\n"
        "        flag_0 = False\n"
        "        break\n"
        "    i_0 = i_0 + 1\n"
        "if flag_0:\n"
        "    r_0 = 1\n"
    )
    out = refactor(src, IdiomKind.LOOP_ELSE)
    assert "flag_0" not in out
    assert "i_0 = 0" in out  # intervening init preserved


def test_loop_else_needs_trailing_flag_check():
    src = (
        "flag_0 = True\n"
        "for e_0 in x_0:\n"
        "    if e_0 == b_0:\n"
        "        flag_0 = False\n"
        "        break\n"
    )
    with pytest.raises(NotApplicable):
        refactor(src, IdiomKind.LOOP_ELSE)


def test_loop_else_rejects_flag_use_between():
    src = (
        "flag_0 = True\n"
        "other = flag_0\n"
        "for e_0 in x_0:\n"
        "    if e_0 == b_0:\n"
        "        flag_0 = False\n"
        "        break\n"
        "if flag_0:\n"
        "    r_0 = 1\n"
    )
    with pytest.raises(NotApplicable):
        refactor(src, IdiomKind.LOOP_ELSE)


# ============================================================
# Assign multi targets
# ============================================================


def test_assign_merge_constants():
    out = refactor("a_0 = 0\na_1 = 1\na_2 = 2\n", IdiomKind.ASSIGN_MULTI_TARGETS)
    assert _same_tree(out, "a_0, a_1, a_2 = (0, 1, 2)")


def test_assign_swap_rotation():
    out = refactor(
        "t_0 = a_0\na_0 = a_1\na_1 = t_0\n", IdiomKind.ASSIGN_MULTI_TARGETS
    )
    assert _same_tree(out, "a_0, a_1 = (a_1, a_0)")


def test_assign_rotation_three_way():
    out = refactor(
        "t_0 = a_0\na_0 = a_1\na_1 = a_2\na_2 = t_0\n",
        IdiomKind.ASSIGN_MULTI_TARGETS,
    )
    assert _same_tree(out, "a_0, a_1, a_2 = (a_1, a_2, a_0)")


def test_assign_dependent_run_not_merged():
    # a_1 reads a_0, so parallel assignment would change behavior.
    with pytest.raises(NotApplicable):
        refactor("a_0 = 1\na_1 = a_0\n", IdiomKind.ASSIGN_MULTI_TARGETS)


def test_assign_single_statement_not_merged():
    with pytest.raises(NotApplicable):
        refactor("a_0 = 1\n", IdiomKind.ASSIGN_MULTI_TARGETS)


# ============================================================
# Star in func call
# ============================================================


def test_star_call_full_list():
    out = refactor(
        "r_0 = func_0(e_list[0], e_list[1], e_list[2])\n",
        IdiomKind.STAR_IN_FUNC_CALL,
        hints={"list_len": 3},
    )
    assert out == "r_0 = func_0(*e_list)\n"


def test_star_call_prefix_slice():
    # List longer than the accessed prefix: a bare star would overfeed.
    out = refactor(
        "r_0 = func_0(e_list[0], e_list[1])\n",
        IdiomKind.STAR_IN_FUNC_CALL,
        hints={"list_len": 4, "slice_flags": {"has_subscript": True, "has_lower": False, "has_upper": True, "has_step": False}},
    )
    assert out == "r_0 = func_0(*e_list[:2])\n"


def test_star_call_variable_indices_need_hint():
    src = "r_0 = func_0(e_list[i_0], e_list[i_1])\n"
    with pytest.raises(NotApplicable):
        refactor(src, IdiomKind.STAR_IN_FUNC_CALL)
    out = refactor(
        src,
        IdiomKind.STAR_IN_FUNC_CALL,
        hints={"list_len": 2, "index_values": {"i_0": 0, "i_1": 1}},
    )
    assert out == "r_0 = func_0(*e_list)\n"


def test_star_call_rejects_gapped_indices():
    with pytest.raises(NotApplicable):
        refactor(
            "r_0 = func_0(e_list[0], e_list[2])\n",
            IdiomKind.STAR_IN_FUNC_CALL,
            hints={"list_len": 3},
        )


def test_star_call_rejects_mixed_lists():
    with pytest.raises(NotApplicable):
        refactor(
            "r_0 = func_0(a_list[0], b_list[1])\n",
            IdiomKind.STAR_IN_FUNC_CALL,
            hints={"list_len": 2},
        )


# ============================================================
# For multi targets
# ============================================================


def test_for_multi_unpacks():
    out = refactor(
        "for e in x_0:\n    r_0 = e[0]\n    r_1 = e[1]\n",
        IdiomKind.FOR_MULTI_TARGETS,
        hints={"element_len": 2},
    )
    assert _same_tree(out, "for e_0, e_1 in x_0:\n    r_0 = e_0\n    r_1 = e_1")


def test_for_multi_starred_tail():
    out = refactor(
        "for e in x_0:\n    r_0 = e[0]\n",
        IdiomKind.FOR_MULTI_TARGETS,
        hints={"element_len": 3},
    )
    tree = ast.parse(out)
    target = tree.body[0].target
    assert isinstance(target, ast.Tuple)
    assert isinstance(target.elts[-1], ast.Starred)


def test_for_multi_exact_width_no_star():
    out = refactor(
        "for e in x_0:\n    r_0 = e[0]\n    r_1 = e[1]\n",
        IdiomKind.FOR_MULTI_TARGETS,
        hints={"element_len": 2},
    )
    assert "*" not in out


def test_for_multi_rejects_non_constant_index():
    with pytest.raises(NotApplicable):
        refactor(
            "for e in x_0:\n    r_0 = e[i]\n",
            IdiomKind.FOR_MULTI_TARGETS,
        )


# ============================================================
# Detection and hints
# ============================================================


def test_detect_reports_sites_with_spans():
    src = "l_0 = []\nfor e_0 in x_0:\n    l_0.append(e_0)\nr_0 = a < b and b < c\n"
    found = detect(src)
    kinds = [k for k, _ in found]
    assert IdiomKind.LIST_COMPREHENSION in kinds
    assert IdiomKind.CHAIN_COMPARISON in kinds
    spans = dict(found)
    assert spans[IdiomKind.LIST_COMPREHENSION] == (1, 3)
    assert spans[IdiomKind.CHAIN_COMPARISON] == (4, 4)


def test_detect_empty_on_plain_code():
    assert detect("x = compute()\ny = x + 1\n") == []


@pytest.mark.parametrize("idiom", list(IdiomKind), ids=lambda k: k.value)
def test_detect_finds_synthesized_site(idiom):
    for vector in sample_vectors(idiom, 4):
        pair = synthesize(vector)
        kinds = {k for k, _ in detect(pair.non_idiomatic_source)}
        if idiom is IdiomKind.STAR_IN_FUNC_CALL and not vector.is_const:
            # Variable-index call sites need feature hints to prove the
            # unpacking is faithful, so hint-free detection skips them.
            continue
        assert idiom in kinds, vector.dims()


def test_detect_does_not_report_a_call_enclosing_a_star_site():
    found = detect("print(\n    f(e[0], e[1]),\n)\n")
    assert found == [(IdiomKind.STAR_IN_FUNC_CALL, (2, 2))]


_STDLIB_SOURCES = (
    "textwrap", "shlex", "fractions", "heapq", "colorsys",
    "statistics", "difflib", "string", "calendar", "bisect",
)


def _agreement_sources() -> list[tuple[str, str]]:
    sources = [
        (f"{idiom.value}-{n}", synthesize(vector).non_idiomatic_source)
        for idiom in IdiomKind
        for n, vector in enumerate(sample_vectors(idiom, 6))
    ]
    for name in _STDLIB_SOURCES:
        origin = importlib.util.find_spec(name).origin
        sources.append((name, Path(origin).read_text(encoding="utf-8")))
    return sources


@pytest.mark.parametrize("source", [pytest.param(s, id=n) for n, s in _agreement_sources()])
def test_detect_agrees_with_refactor(source):
    """An idiom is detected exactly where refactor finds a site for it."""
    detected = {k for k, _ in detect(source)}
    for idiom in IdiomKind:
        try:
            refactor(source, idiom)
            applies = True
        except NotApplicable:
            applies = False
        assert (idiom in detected) == applies, idiom.value


def test_hints_for_none_features():
    assert hints_for(None) == {}


def test_refactor_pair_raises_on_unrelated_source():
    pair = synthesize(enumerate_matrix(IdiomKind.LOOP_ELSE)[0])
    import dataclasses

    broken = dataclasses.replace(pair, non_idiomatic_source="x = 1\n")
    with pytest.raises(NotApplicable):
        refactor_pair(broken)
