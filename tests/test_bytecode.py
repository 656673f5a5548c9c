"""Opcode diffing, runtime probe, and root-cause classification."""

from __future__ import annotations

from collections import Counter

import pytest

from idiobench.bytecode import (
    SPECIALIZED_OPS,
    BytecodeDiff,
    CompileError,
    Instruction,
    RootCause,
    RuntimeProbe,
    Unclassifiable,
    canonical,
    classify_root_cause,
    diff_pair,
    diff_report,
    disassemble_source,
    r5_evidence,
    runtime_probe,
)
from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.refactor import refactor_pair
from idiobench.synth import CodePair, synthesize

from conftest import pyenv_interpreter


def _pair_for(idiom: IdiomKind, predicate) -> CodePair:
    vector = next(v for v in enumerate_matrix(idiom) if predicate(v))
    return refactor_pair(synthesize(vector))


# ============================================================
# Stream parsing and normalization
# ============================================================


def test_disassemble_module_payload():
    ops = [i.opname for i in disassemble_source("r_0 = a_0 + 1\n", "Global")]
    assert "LOAD_NAME" in ops
    assert "STORE_NAME" in ops


def test_disassemble_local_uses_fast_locals():
    ops = [i.opname for i in disassemble_source("x = 1\nr_0 = x\n", "Local")]
    assert "LOAD_FAST" in ops
    assert "STORE_FAST" in ops
    assert "LOAD_NAME" not in ops


def test_disassemble_includes_nested_code():
    # Comprehensions compile to nested code objects; their per-element
    # opcode must be visible in the stream.
    ops = [
        i.opname
        for i in disassemble_source("l_0 = [e for e in x_0]\n", "Global")
    ]
    assert "LIST_APPEND" in ops


def test_disassemble_rejects_bad_source():
    with pytest.raises(CompileError):
        disassemble_source("def (\n", "Global")


def test_canonical_drops_noise_and_maps_stack_ops():
    stream = [
        Instruction("RESUME", "0"),
        Instruction("SWAP", "2"),
        Instruction("SWAP", "3"),
        Instruction("COPY", "1"),
        Instruction("CACHE", ""),
        Instruction("JUMP_ABSOLUTE", "12"),
        Instruction("CALL", "1"),
        Instruction("LOAD_NAME", "x"),
    ]
    names = [i.opname for i in canonical(stream)]
    assert names == [
        "ROT_TWO",
        "ROT_THREE",
        "DUP_TOP",
        "JUMP",
        "CALL_FUNCTION",
        "LOAD_NAME",
    ]


def test_specialized_ops_catalog():
    assert SPECIALIZED_OPS == {
        "LIST_APPEND",
        "SET_ADD",
        "MAP_ADD",
        "DUP_TOP",
        "ROT_TWO",
        "ROT_THREE",
        "BUILD_SLICE",
    }


# ============================================================
# Expected opcode movements per idiom
# ============================================================


def test_list_comprehension_diff_shape():
    pair = _pair_for(
        IdiomKind.LIST_COMPREHENSION,
        lambda v: v.size == 100
        and v.scope == "Global"
        and v.node_counts == {"num_for": 1, "num_if": 0, "num_ifelse": 0},
    )
    bdiff = diff_pair(pair)
    assert bdiff.added["LIST_APPEND"] >= 1
    assert bdiff.removed["LOAD_METHOD"] >= 1
    assert bdiff.removed["CALL_METHOD"] >= 1


def test_chain_comparison_diff_shape():
    pair = _pair_for(
        IdiomKind.CHAIN_COMPARISON,
        lambda v: v.node_counts["num_compop"] == 2 and v.scope == "Global" and v.is_true,
    )
    bdiff = diff_pair(pair)
    assert bdiff.added["DUP_TOP"] >= 1
    assert bdiff.added["ROT_THREE"] >= 1
    assert bdiff.removed  # short-circuit jump machinery goes away


def test_swap_diff_has_rot_two():
    pair = _pair_for(
        IdiomKind.ASSIGN_MULTI_TARGETS,
        lambda v: v.is_swap and v.node_counts["num_assign"] == 2 and v.scope == "Global",
    )
    bdiff = diff_pair(pair)
    assert bdiff.added["ROT_TWO"] >= 1


def test_truth_test_diff_removes_comparison():
    pair = _pair_for(
        IdiomKind.TRUTH_VALUE_TEST,
        lambda v: v.node_choices["empty_value"] == "int"
        and v.node_choices["test_parent"] == "if"
        and v.node_choices["eq_op"] == "!="
        and v.scope == "Global"
        and v.is_true,
    )
    bdiff = diff_pair(pair)
    assert bdiff.removed["COMPARE_OP"] >= 1
    assert bdiff.removed["LOAD_CONST"] >= 1
    assert not bdiff.added


def test_pure_assign_merge_adds_tuple_unpack():
    pair = _pair_for(
        IdiomKind.ASSIGN_MULTI_TARGETS,
        lambda v: not v.is_swap
        and not v.is_const
        and v.node_counts["num_assign"] == 4
        and v.scope == "Global",
    )
    bdiff = diff_pair(pair)
    assert bdiff.added["BUILD_TUPLE"] >= 1
    assert bdiff.added["UNPACK_SEQUENCE"] >= 1


def test_aligned_view_marks_changes():
    pair = _pair_for(
        IdiomKind.TRUTH_VALUE_TEST,
        lambda v: v.node_choices["empty_value"] == "int"
        and v.node_choices["test_parent"] == "if"
        and v.node_choices["eq_op"] == "!="
        and v.scope == "Global"
        and v.is_true,
    )
    view = diff_pair(pair).aligned_view()
    assert any(line.startswith("- ") for line in view)
    assert any(line.startswith("  ") for line in view)


# ============================================================
# Runtime probe
# ============================================================


def test_probe_ignores_plain_int():
    pair = _pair_for(
        IdiomKind.TRUTH_VALUE_TEST,
        lambda v: v.node_choices["empty_value"] == "int" and v.scope == "Global",
    )
    probe = runtime_probe(pair)
    assert probe.flagged == []


def test_probe_flags_fraction():
    pair = _pair_for(
        IdiomKind.TRUTH_VALUE_TEST,
        lambda v: v.node_choices["empty_value"] == "Fraction" and v.scope == "Global",
    )
    probe = runtime_probe(pair)
    assert probe.flagged
    assert any(f.definer_module == "fractions" for f in probe.flagged)


def test_probe_flags_injected_bool_override():
    pair = CodePair(
        pair_id="unit-overload",
        idiom=IdiomKind.TRUTH_VALUE_TEST,
        features=None,
        setup_source=(
            "class Box:\n"
            "    def __init__(self, v):\n"
            "        self.v = v\n"
            "    def __bool__(self):\n"
            "        return self.v != 0\n"
            "    def __eq__(self, other):\n"
            "        return self.v == other\n"
            "    def __hash__(self):\n"
            "        return hash(self.v)\n"
            "a_0 = Box(3)\n"
        ),
        non_idiomatic_source="if a_0 != 0:\n    r_0 = 1\n",
        idiomatic_source="if a_0:\n    r_0 = 1\n",
        scope_mode="Global",
    )
    probe = runtime_probe(pair)
    methods = {f.method for f in probe.flagged}
    assert "__bool__" in methods
    assert "__eq__" in methods
    assert all(f.definer_module != "builtins" for f in probe.flagged)


def test_diff_pair_carries_the_probe_it_ran(pair_per_idiom):
    pair = pair_per_idiom[IdiomKind.TRUTH_VALUE_TEST]
    plain, probed = diff_pair(pair), diff_pair(pair, probe=True)
    assert plain.probe is None
    assert probed.probe == runtime_probe(pair)
    assert (probed.added, probed.removed) == (plain.added, plain.removed)


# ============================================================
# R5 template scan
# ============================================================


def test_r5_empty_for_template_pairs(pair_per_idiom):
    for idiom, pair in pair_per_idiom.items():
        assert r5_evidence(pair) == [], idiom.value


def test_r5_flags_function_call_in_body():
    pair = CodePair(
        pair_id="unit-complex",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="def work(v):\n    return v * v\nx_0 = list(range(50))\n",
        non_idiomatic_source="l_0 = []\nfor e_0 in x_0:\n    l_0.append(work(e_0))\n",
        idiomatic_source="l_0 = [work(e_0) for e_0 in x_0]\n",
        scope_mode="Global",
    )
    evidence = r5_evidence(pair)
    assert any("work(e_0)" in item for item in evidence)


def test_r5_flags_attribute_chase():
    pair = CodePair(
        pair_id="unit-attr",
        idiom=IdiomKind.ASSIGN_MULTI_TARGETS,
        features=None,
        setup_source="",
        non_idiomatic_source="a_0 = obj.field\na_1 = obj.other\n",
        idiomatic_source="a_0, a_1 = obj.field, obj.other\n",
        scope_mode="Global",
    )
    assert len(r5_evidence(pair)) == 2


# ============================================================
# Classification
# ============================================================


def _diff_of(added: dict, removed: dict) -> BytecodeDiff:
    return BytecodeDiff(
        pair_id="synthetic",
        instructions_non_id=[],
        instructions_id=[],
        added=Counter(added),
        removed=Counter(removed),
        interpreter_id="cpython-test",
    )


def test_classifier_r2_needs_specialized_and_removed():
    cause = classify_root_cause(_diff_of({"LIST_APPEND": 1}, {"CALL_METHOD": 1}))
    assert cause.primary == "R2_SpecializedReplacement"
    # Specialized op with nothing removed is plain added preparation.
    cause = classify_root_cause(_diff_of({"LIST_APPEND": 1}, {}))
    assert cause.primary == "R1_AddedPreparation"


def test_classifier_r1_r3_fallbacks():
    assert classify_root_cause(_diff_of({"BUILD_TUPLE": 1}, {})).primary == (
        "R1_AddedPreparation"
    )
    assert classify_root_cause(_diff_of({}, {"COMPARE_OP": 1})).primary == (
        "R3_RemovedInstructions"
    )


def test_classifier_unclassifiable_on_identical_streams():
    with pytest.raises(Unclassifiable):
        classify_root_cause(_diff_of({}, {}))


def test_classifier_probe_takes_precedence():
    from idiobench.bytecode import ProbeFinding

    probe = RuntimeProbe(
        findings=[
            ProbeFinding(
                name="a_0",
                type_qualname="Box",
                method="__bool__",
                definer_module="__probe__",
                definer="Box",
            )
        ]
    )
    cause = classify_root_cause(
        _diff_of({"LIST_APPEND": 1}, {"CALL_METHOD": 1}), probe=probe
    )
    assert cause.primary == "R4_OverloadedBuiltins"
    assert "a_0" in cause.evidence[0]


def test_classifier_r5_beats_r2():
    pair = CodePair(
        pair_id="unit-complex",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="def work(v):\n    return v\nx_0 = [1]\n",
        non_idiomatic_source="l_0 = []\nfor e_0 in x_0:\n    l_0.append(work(e_0))\n",
        idiomatic_source="l_0 = [work(e_0) for e_0 in x_0]\n",
        scope_mode="Global",
    )
    cause = classify_root_cause(
        _diff_of({"LIST_APPEND": 1}, {"CALL_METHOD": 1}), pair=pair
    )
    assert cause.primary == "R5_ComplexComputation"


def test_classifier_size_zero_comprehension_is_r1():
    vector = next(
        v
        for v in enumerate_matrix(IdiomKind.LIST_COMPREHENSION)
        if v.size == 0
        and v.scope == "Global"
        and v.node_counts == {"num_for": 1, "num_if": 0, "num_ifelse": 0}
    )
    pair = refactor_pair(synthesize(vector))
    cause = classify_root_cause(diff_pair(pair), pair=pair)
    # The per-element specialized opcode never executes over empty data.
    assert cause.primary == "R1_AddedPreparation"


def test_classifier_size_hundred_comprehension_is_r2():
    vector = next(
        v
        for v in enumerate_matrix(IdiomKind.LIST_COMPREHENSION)
        if v.size == 100
        and v.scope == "Global"
        and v.node_counts == {"num_for": 1, "num_if": 0, "num_ifelse": 0}
    )
    pair = refactor_pair(synthesize(vector))
    cause = classify_root_cause(diff_pair(pair), pair=pair)
    assert cause.primary == "R2_SpecializedReplacement"


def test_root_cause_label_validation():
    with pytest.raises(ValueError):
        RootCause(primary="R9_Unknown", evidence=("x",))
    with pytest.raises(ValueError):
        RootCause(primary="R1_AddedPreparation", evidence=())


def test_diff_report_serializable(pair_per_idiom):
    import json

    pair = pair_per_idiom[IdiomKind.CHAIN_COMPARISON]
    record = diff_report(pair, probe=True)
    encoded = json.dumps(record)
    decoded = json.loads(encoded)
    assert decoded["pair_id"] == pair.pair_id
    assert decoded["root_cause"].startswith("R")
    assert isinstance(decoded["added"], dict)
    assert isinstance(decoded["aligned_view"], list)


# ============================================================
# One child job per pair
# ============================================================

_FLAT = {"num_for": 1, "num_if": 0, "num_ifelse": 0}

#: The five criterion-4 desk pairs, chosen as in test_acceptance.
_DESK = {
    "listcomp-1e4": (
        IdiomKind.LIST_COMPREHENSION,
        lambda v: v.size == 10_000 and v.scope == "Local" and v.node_counts == _FLAT,
    ),
    "tvt-fraction": (
        IdiomKind.TRUTH_VALUE_TEST,
        lambda v: v.node_choices["empty_value"] == "Fraction"
        and v.node_choices["test_parent"] == "if"
        and v.node_choices["eq_op"] == "!="
        and v.scope == "Local"
        and v.is_true,
    ),
    "assign-4": (
        IdiomKind.ASSIGN_MULTI_TARGETS,
        lambda v: not v.is_const
        and not v.is_swap
        and v.node_counts["num_assign"] == 4
        and v.scope == "Local",
    ),
    "swap-2": (
        IdiomKind.ASSIGN_MULTI_TARGETS,
        lambda v: v.is_swap and v.node_counts["num_assign"] == 2 and v.scope == "Local",
    ),
    "listcomp-0": (
        IdiomKind.LIST_COMPREHENSION,
        lambda v: v.size == 0 and v.scope == "Local" and v.node_counts == _FLAT,
    ),
}


def _reference_disassembly(source: str) -> list[Instruction]:
    """A Local-mode payload disassembled in this process, which runs the
    same interpreter as the analysis children."""
    import dis
    import textwrap
    import types

    def walk(code: types.CodeType) -> list[Instruction]:
        out = [
            Instruction(i.opname, i.argrepr or ("" if i.arg is None else str(i.arg)))
            for i in dis.get_instructions(code)
        ]
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                out += walk(const)
        return out

    ns: dict = {}
    source = "def __payload():\n" + textwrap.indent(source, "    ")
    exec(compile(source, "<payload>", "exec"), ns)
    return canonical(walk(ns["__payload"].__code__))


def _without_addresses(instructions: list[Instruction]) -> list[Instruction]:
    """Nested code objects print their address, which differs per process."""
    import re

    return [
        Instruction(i.opname, re.sub(r" at 0x[0-9a-f]+", "", i.argrepr))
        for i in instructions
    ]


def _reference_probe(pair: CodePair) -> list[tuple[str, str, str, str, str]]:
    """The probe's findings, computed in this process."""
    import types

    from idiobench.bytecode import _PROBE_METHODS

    ns = {"__name__": "__probe__"}
    exec(pair.setup_source, ns)
    exec(pair.non_idiomatic_source, ns)
    found = []
    for name, obj in list(ns.items()):
        if name.startswith("_") or callable(obj) or isinstance(obj, types.ModuleType):
            continue
        checks = [(type(obj), method) for method in _PROBE_METHODS]
        try:
            checks.append((type(iter(obj)), "__next__"))
        except TypeError:
            pass
        for tp, method in checks:
            klass = next((k for k in tp.__mro__ if method in vars(k)), None)
            if klass is not None:
                found.append(
                    (name, tp.__qualname__, method, klass.__module__, klass.__qualname__)
                )
    return found


@pytest.mark.parametrize("name", sorted(_DESK))
def test_driver_matches_reference_on_desk_pairs(name):
    pair = _pair_for(*_DESK[name])
    for source in (pair.non_idiomatic_source, pair.idiomatic_source):
        assert _without_addresses(disassemble_source(source, "Local")) == (
            _without_addresses(_reference_disassembly(source))
        )
    findings = [
        (f.name, f.type_qualname, f.method, f.definer_module, f.definer)
        for f in runtime_probe(pair).findings
    ]
    assert findings == _reference_probe(pair)


@pytest.mark.parametrize("probe", [True, False])
def test_diff_report_runs_one_job_per_pair(pair_per_idiom, monkeypatch, probe):
    from idiobench import child

    calls = []
    real = child.run_job

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(child, "run_job", counting)
    for pair in pair_per_idiom.values():
        before = len(calls)
        record = diff_report(pair, probe=probe)
        assert len(calls) == before + 1, pair.pair_id
        assert record["root_cause"] != "Error"


# ============================================================
# Every local interpreter
# ============================================================


@pytest.mark.parametrize("minor", range(8, 14), ids=lambda minor: f"3.{minor}")
def test_diff_classifies_on_each_local_interpreter(minor, pair_per_idiom):
    interp = pyenv_interpreter(minor)
    if interp is None:
        pytest.skip(f"no CPython 3.{minor} under pyenv")
    chain = disassemble_source("r_0 = a_0 < b_0 < c_0\n", "Global", interp)
    assert [i.opname for i in chain].count("COMPARE_OP") == 2
    unclassifiable = [
        idiom.value
        for idiom, pair in pair_per_idiom.items()
        if diff_report(pair, probe=True, interpreter=interp)["root_cause"]
        == "Unclassifiable"
    ]
    assert unclassifiable == []
