"""Measurement protocol: isolation, calibration, persistence, resume."""

from __future__ import annotations

import json

import pytest

from idiobench.bench import (
    IDIOMATIC,
    NON_IDIOMATIC,
    VARIANTS,
    BenchConfig,
    ChildCrash,
    ClockResolution,
    EquivalenceGate,
    TimingMatrix,
    TimingStore,
    _child_env,
    calibrate,
    host_id,
    interpreter_id,
    load_matrices,
    measure,
    resolve_interpreter,
)
from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.refactor import refactor_pair
from idiobench.synth import synthesize

FAST_CFG = BenchConfig(
    n_invocations=3, k_iterations=5, warmup=1, min_iteration_ns=50_000, timeout_s=60.0
)


@pytest.fixture(scope="module")
def small_pair():
    vector = next(
        v
        for v in enumerate_matrix(IdiomKind.TRUTH_VALUE_TEST)
        if v.node_choices["empty_value"] == "int"
        and v.node_choices["test_parent"] == "if"
        and v.scope == "Global"
    )
    return refactor_pair(synthesize(vector))


# ============================================================
# Config and matrix validation
# ============================================================


def test_default_protocol_parameters():
    cfg = BenchConfig()
    assert (cfg.n_invocations, cfg.k_iterations, cfg.warmup) == (50, 35, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_invocations": 0},
        {"k_iterations": 0},
        {"warmup": -1},
        {"warmup": 35},  # warmup must leave at least one measured iteration
    ],
)
def test_config_rejects_bad_shapes(kwargs):
    with pytest.raises(ValueError):
        BenchConfig(**kwargs)


def _matrix(grid, warmup=1, variant=NON_IDIOMATIC):
    return TimingMatrix(
        pair_id="p",
        variant=variant,
        n_invocations=len(grid),
        k_iterations=len(grid[0]),
        warmup=warmup,
        timings_ns=grid,
        interpreter_id="cpython-test",
        host_id="host",
    )


def test_matrix_measured_drops_warmup():
    grid = [[9.0, 1.0, 2.0], [9.0, 3.0, 4.0]]
    measured = _matrix(grid).measured()
    assert measured.shape == (2, 2)
    assert measured.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_matrix_rejects_ragged_grid():
    with pytest.raises(ValueError):
        _matrix([[1.0, 2.0], [1.0]])


def test_matrix_rejects_nonpositive_durations():
    with pytest.raises(ClockResolution):
        _matrix([[1.0, 0.0]])


def test_matrix_rejects_unknown_variant():
    with pytest.raises(ValueError):
        _matrix([[1.0, 2.0]], variant="Baseline")


# ============================================================
# Environment and identity
# ============================================================


def test_child_env_is_scrubbed(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/somewhere")
    monkeypatch.setenv("LD_PRELOAD", "/lib/evil.so")
    env = _child_env(scrub=True)
    assert "PYTHONPATH" not in env
    assert "LD_PRELOAD" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["LC_ALL"] == "C"
    assert "PATH" in env


def test_child_env_unscrubbed_pins_hash_seed(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/somewhere")
    env = _child_env(scrub=False)
    assert env["PYTHONPATH"] == "/somewhere"
    assert env["PYTHONHASHSEED"] == "0"


def test_interpreter_id_format():
    ident = interpreter_id(resolve_interpreter())
    impl, _, version = ident.partition("-")
    assert impl == "cpython"
    assert version.count(".") == 2


def test_resolve_interpreter_prefers_config_then_env(monkeypatch):
    assert resolve_interpreter(BenchConfig(interpreter="/opt/py")) == "/opt/py"
    monkeypatch.setenv("TARGET_INTERPRETER", "/env/py")
    assert resolve_interpreter() == "/env/py"
    assert resolve_interpreter(BenchConfig(interpreter="/opt/py")) == "/opt/py"


def test_host_id_nonempty():
    assert host_id()


# ============================================================
# Timing store
# ============================================================


def _record(pair_id="p", variant=NON_IDIOMATIC, invocation=0, k=3):
    return {
        "kind": "invocation",
        "pair_id": pair_id,
        "variant": variant,
        "invocation": invocation,
        "timings_ns": [100.0 + invocation] * k,
        "repetitions": 4,
        "interpreter_id": "cpython-test",
        "host_id": "host",
        "pid": 1234 + invocation,
    }


def test_store_round_trip(tmp_path):
    path = tmp_path / "timings.jsonl"
    store = TimingStore(path)
    store.record_calibration("p", 4)
    for i in range(3):
        store.record_invocation(_record(invocation=i))
    reopened = TimingStore(path)
    assert reopened.calibration("p") == 4
    assert [r["invocation"] for r in reopened.rows("p", NON_IDIOMATIC)] == [0, 1, 2]
    assert reopened.pair_ids() == ["p"]


def test_store_idempotent_writes(tmp_path):
    path = tmp_path / "timings.jsonl"
    store = TimingStore(path)
    store.record_invocation(_record())
    store.record_invocation(_record())
    store.record_calibration("p", 4)
    store.record_calibration("p", 4)
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    assert len(lines) == 2  # one invocation + one calibration


def test_store_rows_sorted_even_if_appended_out_of_order(tmp_path):
    store = TimingStore(tmp_path / "t.jsonl")
    for i in (2, 0, 1):
        store.record_invocation(_record(invocation=i))
    assert [r["invocation"] for r in store.rows("p", NON_IDIOMATIC)] == [0, 1, 2]


# ============================================================
# Measurement (subprocess; kept tiny)
# ============================================================


def test_measure_produces_full_grids(tmp_path, small_pair):
    store = TimingStore(tmp_path / "t.jsonl")
    non_id, idio = measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    for matrix in (non_id, idio):
        assert matrix.measured().shape == (3, 4)
        assert matrix.repetitions >= 1
        assert matrix.interpreter_id.startswith("cpython-")
    assert non_id.variant == NON_IDIOMATIC
    assert idio.variant == IDIOMATIC


def test_measure_records_distinct_pids(tmp_path, small_pair):
    store = TimingStore(tmp_path / "t.jsonl")
    measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    pids = [
        row["pid"]
        for variant in VARIANTS
        for row in store.rows(small_pair.pair_id, variant)
    ]
    # Fresh process per invocation per variant.
    assert len(set(pids)) == len(pids) == 2 * FAST_CFG.n_invocations


def test_measure_resumes_without_respawning(tmp_path, small_pair, monkeypatch):
    store_path = tmp_path / "t.jsonl"
    measure(small_pair, FAST_CFG, TimingStore(store_path), assume_equivalent=True)

    import idiobench.bench as bench_mod

    def refuse(*args, **kwargs):
        raise AssertionError("resume must not spawn children")

    monkeypatch.setattr(bench_mod, "run_invocation", refuse)
    resumed = TimingStore(store_path)
    non_id, idio = measure(small_pair, FAST_CFG, resumed, assume_equivalent=True)
    assert non_id.measured().shape == (3, 4)
    assert idio.measured().shape == (3, 4)


def test_measure_reuses_stored_calibration(tmp_path, small_pair, monkeypatch):
    store = TimingStore(tmp_path / "t.jsonl")
    store.record_calibration(small_pair.pair_id, 7)

    import idiobench.bench as bench_mod

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration must be reused from the store")

    monkeypatch.setattr(bench_mod, "calibrate", no_calibration)
    measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    assert store.rows(small_pair.pair_id, NON_IDIOMATIC)[0]["repetitions"] == 7


def test_measure_gates_on_divergence(tmp_path, small_pair):
    import dataclasses

    broken = dataclasses.replace(
        small_pair,
        idiomatic_source=small_pair.idiomatic_source + "r_9 = 1\n",
    )
    with pytest.raises(EquivalenceGate):
        measure(broken, FAST_CFG, TimingStore(tmp_path / "t.jsonl"))


def test_measure_requires_idiomatic_half(tmp_path):
    pair = synthesize(enumerate_matrix(IdiomKind.TRUTH_VALUE_TEST)[0])
    with pytest.raises(ValueError):
        measure(pair, FAST_CFG, TimingStore(tmp_path / "t.jsonl"))


def test_calibration_amplifies_fast_payload(small_pair):
    # An int truth test runs in tens of nanoseconds; meeting a 50us floor
    # needs triple-digit repetition counts at minimum.
    reps = calibrate(small_pair, FAST_CFG)
    assert reps > 100


def test_load_matrices_round_trip(tmp_path, small_pair):
    store = TimingStore(tmp_path / "t.jsonl")
    non_id, idio = measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    loaded_non, loaded_id = load_matrices(store, small_pair.pair_id, FAST_CFG)
    assert loaded_non.timings_ns == non_id.timings_ns
    assert loaded_id.timings_ns == idio.timings_ns
    assert loaded_non.repetitions == non_id.repetitions


def test_load_matrices_rejects_partial_grid(tmp_path):
    store = TimingStore(tmp_path / "t.jsonl")
    store.record_invocation(_record(invocation=0))
    store.record_invocation(_record(invocation=2))  # hole at 1
    store.record_invocation(_record(variant=IDIOMATIC, invocation=0))
    with pytest.raises(ValueError):
        load_matrices(store, "p", BenchConfig(warmup=1))


def test_run_invocation_reports_child_crash():
    from idiobench.bench import run_invocation

    with pytest.raises(ChildCrash):
        run_invocation("import sys; sys.exit(3)", FAST_CFG, resolve_interpreter())


def test_gate_runs_on_the_configured_interpreter(tmp_path, small_pair, monkeypatch):
    import dataclasses
    import sys

    spawned = tmp_path / "spawned.log"
    wrapper = tmp_path / "python"
    wrapper.write_text(
        f'#!/bin/sh\necho "$1 $2" >> "{spawned}"\nexec "{sys.executable}" "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("TARGET_INTERPRETER", str(tmp_path / "no-such-python"))
    broken = dataclasses.replace(
        small_pair, idiomatic_source=small_pair.idiomatic_source + "r_9 = 1\n"
    )
    cfg = dataclasses.replace(FAST_CFG, interpreter=str(wrapper))
    with pytest.raises(EquivalenceGate):
        measure(broken, cfg, TimingStore(tmp_path / "t.jsonl"))
    lines = spawned.read_text().splitlines()
    assert lines and set(lines) == {"-I -S"}


def test_store_drops_only_a_torn_final_line(tmp_path, caplog):
    path = tmp_path / "timings.jsonl"
    store = TimingStore(path)
    for i in range(2):
        store.record_invocation(_record(invocation=i))
    intact = path.read_text()
    path.write_text(intact + json.dumps(_record(invocation=2))[:40])
    with caplog.at_level("WARNING"):
        reopened = TimingStore(path)
    assert "torn final line" in caplog.text
    assert [r["invocation"] for r in reopened.rows("p", NON_IDIOMATIC)] == [0, 1]
    assert path.read_text() == intact

    first, second = intact.splitlines(keepends=True)
    path.write_text(first[:40] + "\n" + second)
    with pytest.raises(json.JSONDecodeError):
        TimingStore(path)


def test_bench_resumes_after_a_torn_line(tmp_path, small_pair, monkeypatch, capsys):
    import itertools
    import re

    import idiobench.bench as bench_mod
    from idiobench.cli import main
    from idiobench.synth import save_pair

    pids = itertools.count(1000)
    calls = []

    def fake_invocation(module_source, cfg, interpreter):
        # Durations depend only on the module text, so two runs give equal grids.
        calls.append(module_source)
        k = int(re.search(r"for __i in range\((\d+)\)", module_source).group(1))
        base = 2_000_000 + len(module_source)
        return {"timings_ns": [base + i for i in range(k)], "repetitions": 1}, next(pids)

    monkeypatch.setattr(bench_mod, "run_invocation", fake_invocation)
    save_pair(small_pair, tmp_path / "pairs")

    def bench(store):
        args = ["bench", "--in", str(tmp_path / "pairs"), "--timings", str(store)]
        assert main(args + ["--n", "3", "--k", "4", "--warmup", "1", "--assume-equivalent"]) == 0
        capsys.readouterr()

    whole, resumed = tmp_path / "whole.jsonl", tmp_path / "resumed.jsonl"
    bench(whole)
    text = whole.read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    start = len(text) - len(last) - 1
    resumed.write_text(text[: start + len(last) // 2])  # killed mid-append
    calls.clear()
    bench(resumed)
    assert len(calls) == 1
    cfg = BenchConfig(warmup=1)
    for left, right in zip(
        load_matrices(TimingStore(whole), small_pair.pair_id, cfg),
        load_matrices(TimingStore(resumed), small_pair.pair_id, cfg),
    ):
        assert left.timings_ns == right.timings_ns
