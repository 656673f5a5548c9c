"""Differential checking: agreement, witnesses, and mutant sensitivity."""

from __future__ import annotations

import ast
import dataclasses

import pytest

from idiobench import child
from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.equivalence import (
    DEFAULT_TRIAL_SIZES,
    _loop_target_names,
    _run_snapshots,
    check,
    is_scaffold_name,
    mutants,
    trial_sizes_for,
)
from idiobench.refactor import refactor_pair
from idiobench.synth import CodePair, synthesize

from conftest import digest, sample_vectors


def test_scaffold_name_classification():
    for name in ("e", "e_0", "e_17", "t_0", "flag_3", "e_len", "x_len"):
        assert is_scaffold_name(name)
    for name in ("r_0", "l_0", "s_0", "d_0", "a_2", "c_1", "x_0", "e_list", "element"):
        assert not is_scaffold_name(name)


def test_trial_sizes_follow_features(pair_per_idiom):
    sized = pair_per_idiom[IdiomKind.LIST_COMPREHENSION]
    assert trial_sizes_for(sized) == list(DEFAULT_TRIAL_SIZES)
    unsized = pair_per_idiom[IdiomKind.CHAIN_COMPARISON]
    assert trial_sizes_for(unsized) == [None]


@pytest.mark.parametrize("scope", ["Global", "Local"])
def test_run_snapshots_reports_names(scope):
    payload = "r_0 = [1, 2]\nprint('p', end='')\nif x_0 > 5:\n    raise ValueError('big')\n"
    setups = [
        "import os\n_h = 1\ndef f_0():\n    pass\ny_0 = 0\nx_0 = 5\nprint('setup')\n",
        "x_0 = 6\n",
    ]
    fine, raised = _run_snapshots(
        payload, setups, scope, 30.0, child.resolve_interpreter()
    )
    # Under Local, r_0 is one of the payload's locals.
    assert fine == {
        "names": {"y_0": "0", "x_0": "5", "r_0": "[1, 2]"},
        "exception": None,
        "stdout": "p",
    }
    # Each setup gets a fresh namespace, and a raise under Local loses
    # the payload's locals.
    assert raised == {
        "names": {"x_0": "6", "r_0": "[1, 2]"} if scope == "Global" else {"x_0": "6"},
        "exception": "ValueError: big",
        "stdout": "p",
    }


def test_check_requires_idiomatic_half():
    pair = synthesize(enumerate_matrix(IdiomKind.LOOP_ELSE)[0])
    with pytest.raises(ValueError):
        check(pair)


def test_all_idioms_equivalent(pair_per_idiom):
    for idiom, pair in pair_per_idiom.items():
        report = check(pair)
        assert report.status == "Equivalent", (idiom.value, report.witness)
        expected = trial_sizes_for(pair)
        assert [t.size for t in report.trials] == expected
        assert report.witness is None


def test_check_respects_size_override(pair_per_idiom):
    pair = pair_per_idiom[IdiomKind.SET_COMPREHENSION]
    report = check(pair, sizes=[0, 1])
    assert [t.size for t in report.trials] == [0, 1]


def test_divergent_witness_details():
    pair = CodePair(
        pair_id="unit-divergent",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="x_0 = list(range(4))\n",
        non_idiomatic_source="l_0 = []\nfor e_0 in x_0:\n    l_0.append(e_0)\n",
        idiomatic_source="l_0 = [e_0 + 1 for e_0 in x_0]\n",
        scope_mode="Global",
    )
    report = check(pair)
    assert report.status == "Divergent"
    witness = report.witness
    assert witness is not None
    assert "l_0" in witness.detail["names"]["non_idiomatic"]


def test_exception_channel_diverges():
    pair = CodePair(
        pair_id="unit-raises",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="x_0 = [1]\n",
        non_idiomatic_source="l_0 = []\nfor e_0 in x_0:\n    l_0.append(e_0)\n",
        idiomatic_source="l_0 = [e_0 for e_0 in x_0]\nraise ValueError('boom')\n",
        scope_mode="Global",
    )
    report = check(pair)
    assert report.status == "Divergent"
    assert "exception" in report.witness.detail


def test_stdout_channel_diverges():
    pair = CodePair(
        pair_id="unit-prints",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="x_0 = [1]\n",
        non_idiomatic_source="l_0 = []\nfor e_0 in x_0:\n    l_0.append(e_0)\n",
        idiomatic_source="l_0 = [e_0 for e_0 in x_0]\nprint('hi')\n",
        scope_mode="Global",
    )
    report = check(pair)
    assert report.status == "Divergent"
    assert "stdout" in report.witness.detail


@pytest.mark.parametrize("scope", ["Global", "Local"])
def test_a_payload_that_exits_is_an_error(scope):
    """An exiting payload leaves no snapshot to compare, so the pair
    cannot pass as Equivalent on no trials."""
    pair = CodePair(
        pair_id="unit-exits",
        idiom=IdiomKind.TRUTH_VALUE_TEST,
        features=None,
        setup_source="x_0 = 3\n",
        non_idiomatic_source="if x_0 != 0:\n    r_0 = 1\n",
        idiomatic_source="if x_0:\n    r_0 = 2\n    raise SystemExit\n",
        scope_mode=scope,
    )
    report = check(pair)
    assert report.status == "Error"
    assert "bound no result" in report.trials[0].detail["reason"]


def test_error_status_on_broken_setup():
    pair = CodePair(
        pair_id="unit-broken",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="x_0 = (\n",  # syntax error crashes the child
        non_idiomatic_source="l_0 = []\n",
        idiomatic_source="l_0 = []\n",
        scope_mode="Global",
    )
    report = check(pair)
    assert report.status == "Error"
    assert report.trials[0].status == "error"


def test_loop_variable_leak_is_scaffolding():
    # External naming: the loop target leaks from the statement form but
    # not from the comprehension; that alone must not diverge.
    pair = CodePair(
        pair_id="unit-external-leak",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="data = list(range(6))\n",
        non_idiomatic_source="out = []\nfor item in data:\n    out.append(item * 2)\n",
        idiomatic_source="out = [item * 2 for item in data]\n",
        scope_mode="Global",
    )
    assert check(pair).status == "Equivalent"


def test_reliance_on_leaked_variable_diverges():
    pair = CodePair(
        pair_id="unit-external-reliant",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="data = list(range(6))\n",
        non_idiomatic_source="out = []\nfor item in data:\n    out.append(item)\nlast = item\n",
        idiomatic_source="out = [item for item in data]\nlast = item\n",
        scope_mode="Global",
    )
    report = check(pair)
    assert report.status == "Divergent"
    assert "exception" in report.witness.detail


MUTANT_SAMPLE = {
    IdiomKind.LIST_COMPREHENSION: 2,
    IdiomKind.SET_COMPREHENSION: 1,
    IdiomKind.DICT_COMPREHENSION: 1,
    IdiomKind.CHAIN_COMPARISON: 2,
    IdiomKind.TRUTH_VALUE_TEST: 2,
    IdiomKind.LOOP_ELSE: 2,
    IdiomKind.ASSIGN_MULTI_TARGETS: 2,
    IdiomKind.STAR_IN_FUNC_CALL: 2,
    IdiomKind.FOR_MULTI_TARGETS: 2,
}


@pytest.mark.parametrize("idiom", list(IdiomKind), ids=lambda k: k.value)
def test_mutants_are_caught(idiom):
    """Every generated mutant must diverge: the comparator is sensitive."""
    vectors = [
        v for v in sample_vectors(idiom, MUTANT_SAMPLE[idiom] * 3, seed=2)
        if v.size is None or 0 < v.size <= 100
    ][: MUTANT_SAMPLE[idiom]]
    if not vectors:
        vectors = [
            v for v in enumerate_matrix(idiom) if v.size is None or v.size == 10
        ][: MUTANT_SAMPLE[idiom]]
    checked = 0
    for vector in vectors:
        pair = refactor_pair(synthesize(vector))
        for label, mutant in mutants(pair):
            report = check(mutant)
            assert report.status == "Divergent", (vector.dims(), label)
            checked += 1
    assert checked > 0


def test_mutant_ids_are_distinct():
    vector = next(
        v for v in enumerate_matrix(IdiomKind.LIST_COMPREHENSION) if v.size == 10
    )
    pair = refactor_pair(synthesize(vector))
    ids = [m.pair_id for _, m in mutants(pair)]
    assert len(set(ids)) == len(ids)
    assert all(i.startswith(pair.pair_id) for i in ids)


def test_mutants_keep_original_untouched():
    vector = next(
        v for v in enumerate_matrix(IdiomKind.CHAIN_COMPARISON) if v.is_true
    )
    pair = refactor_pair(synthesize(vector))
    before = pair.idiomatic_source
    mutants(pair)
    assert pair.idiomatic_source == before


def test_mutants_of_the_gen_limit_40_sample_are_pinned():
    parts = [
        part
        for idiom in IdiomKind
        for vector in sample_vectors(idiom, 40)
        for label, mutant in mutants(refactor_pair(synthesize(vector)))
        for part in (label, mutant.pair_id, mutant.idiomatic_source, mutant.notes)
    ]
    assert len(parts) == 4 * 456
    assert digest(parts) == "e187580b7f45fcd9006dd9ef9f002a6a82a88dcf373d98c5aaa2490d299e5e25"


def _walked_loop_target_names(*sources: str) -> frozenset[str]:
    """The for-target scan over every AST node, as a reference."""
    found: set[str] = set()
    for source in sources:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        found.add(sub.id)
    return frozenset(found)


_NESTED_LOOPS = """\
for a in x:
    for b in x:
        pass
else:
    for c in x:
        pass
if x:
    for d in x:
        pass
elif y:
    for e in x:
        pass
else:
    for f, (g, *h) in x:
        pass
while x:
    for i in x:
        pass
else:
    for j in x:
        pass
try:
    for k in x:
        pass
except ValueError:
    for l in x:
        pass
else:
    for m in x:
        pass
finally:
    for n in x:
        pass
with x as o:
    for p in x:
        pass
match x:
    case [q]:
        for r in x:
            pass
    case _:
        for s in x:
            pass
def t():
    for u in x:
        pass
async def v():
    for w in x:
        pass
    async for aa in x:
        pass
    async with x:
        for bb in x:
            pass
class Cc:
    for dd in x:
        pass
ee = [ff for ff in x]
gg = lambda: [hh for hh in x]
for ii.jj, kk[0] in x:
    pass
"""


def test_loop_target_scan_matches_a_full_walk_on_nested_statements():
    names = _loop_target_names(_NESTED_LOOPS)
    assert names == _walked_loop_target_names(_NESTED_LOOPS)
    assert set("abcdefghijklmnprsuw") | {"bb", "dd", "ii", "kk"} == names


def test_loop_target_scan_matches_a_full_walk_on_a_sample_and_its_mutants():
    checked = 0
    for idiom in IdiomKind:
        for vector in sample_vectors(idiom, 40):
            pair = refactor_pair(synthesize(vector))
            for candidate in [pair, *(mutant for _, mutant in mutants(pair))]:
                sources = (candidate.non_idiomatic_source, candidate.idiomatic_source)
                assert _loop_target_names(*sources) == _walked_loop_target_names(*sources)
                checked += 1
    assert checked > 360
