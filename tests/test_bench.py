"""Measurement protocol: isolation, calibration, persistence, resume."""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    _calibrate_variant,
    _child_env,
    _variant_source,
    calibrate,
    host_id,
    interpreter_id,
    load_matrices,
    measure,
    resolve_interpreter,
)
from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.refactor import refactor_pair
from idiobench.synth import save_pair, synthesize, wrap_scope

from conftest import pyenv_interpreter

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


@pytest.fixture(scope="module")
def local_pair():
    vector = next(
        v
        for v in enumerate_matrix(IdiomKind.LIST_COMPREHENSION)
        if v.size == 10 and v.scope == "Local"
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
    env = _child_env()
    assert "PYTHONPATH" not in env
    assert "LD_PRELOAD" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["LC_ALL"] == "C"
    assert "PATH" in env


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


@pytest.mark.parametrize("minor", range(8, 14), ids=lambda minor: f"3.{minor}")
def test_protocol_runs_on_each_local_interpreter(minor, small_pair, local_pair, tmp_path):
    import dataclasses

    from idiobench.equivalence import check

    interp = pyenv_interpreter(minor)
    if interp is None:
        pytest.skip(f"no CPython 3.{minor} under pyenv")
    platform_probe = (
        "import json, platform; print(json.dumps("
        "platform.python_implementation().lower() + '-' + platform.python_version()))"
    )
    proc = subprocess.run(
        [interp, "-I", "-c", platform_probe], capture_output=True, text=True, check=True
    )
    ident = interpreter_id(interp)
    assert ident == json.loads(proc.stdout)
    cfg = dataclasses.replace(FAST_CFG, n_invocations=2, k_iterations=3, interpreter=interp)
    for pair in (small_pair, local_pair):
        assert check(pair, interpreter=interp).status == "Equivalent"
        store = TimingStore(tmp_path / f"{pair.pair_id}.jsonl")
        for matrix in measure(pair, cfg, store, assume_equivalent=True):
            assert matrix.interpreter_id == ident
            assert matrix.measured().shape == (2, 2)
            assert matrix.repetitions > 1


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


def test_calibration_spawns_one_child_per_variant(small_pair, monkeypatch):
    import idiobench.bench as bench_mod

    real = bench_mod.run_invocation
    modules = []

    def counting(module_source, cfg, interpreter):
        modules.append(module_source)
        return real(module_source, cfg, interpreter)

    monkeypatch.setattr(bench_mod, "run_invocation", counting)
    calibrate(small_pair, FAST_CFG)
    assert len(modules) == 2
    for module, source in zip(
        modules, (small_pair.non_idiomatic_source, small_pair.idiomatic_source)
    ):
        assert source.splitlines()[0] in module
        assert "while True:" in module


@pytest.mark.parametrize("variant", VARIANTS)
def test_calibrated_count_reaches_the_floor(small_pair, variant):
    import dataclasses

    from idiobench.bench import run_invocation

    cfg = dataclasses.replace(FAST_CFG, min_iteration_ns=1_000_000)
    interp = resolve_interpreter(cfg)
    reps = _calibrate_variant(small_pair, variant, cfg, interp)
    assert 1 < reps < cfg.max_repetitions
    module = wrap_scope(
        _variant_source(small_pair, variant),
        small_pair.setup_source,
        small_pair.scope_mode,
        k_iterations=1,
        repetitions=reps,
    )
    record, _ = run_invocation(module, cfg, interp)
    # A fresh child at that count lasts about the floor or more; the
    # allowance covers a change of host speed between the two children.
    assert record["timings_ns"][0] >= cfg.min_iteration_ns / 2

    capped = dataclasses.replace(cfg, max_repetitions=16)
    assert _calibrate_variant(small_pair, variant, capped, interp) == 16


def test_bench_stage_imports_no_numpy():
    import idiobench

    env = dict(os.environ, PYTHONPATH=str(Path(idiobench.__file__).parents[1]))
    code = "import sys, idiobench.bench, idiobench.bytecode; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


class _FakeChild:
    """Stands in for ``run_invocation``; durations depend only on the
    module text, so two runs give equal grids."""

    def __init__(self) -> None:
        self.calls: list[str] = []
        self._pids = itertools.count(1000)

    def __call__(self, module_source, cfg, interpreter):
        self.calls.append(module_source)
        # A calibration module times one pass and already meets the floor.
        loop = re.search(r"for __i in range\((\d+)\)", module_source)
        k = int(loop.group(1)) if loop else 1
        base = 2_000_000 + len(module_source)
        return {"timings_ns": [base + i for i in range(k)], "repetitions": 1}, next(self._pids)


def _bench_cli(pairs_dir, store) -> None:
    from idiobench.cli import main

    args = ["bench", "--in", str(pairs_dir), "--timings", str(store)]
    assert main(args + ["--n", "3", "--k", "4", "--warmup", "1", "--assume-equivalent"]) == 0


def test_bench_resumes_after_a_torn_line(tmp_path, small_pair, monkeypatch, capsys):
    import idiobench.bench as bench_mod

    fake_invocation = _FakeChild()
    calls = fake_invocation.calls
    monkeypatch.setattr(bench_mod, "run_invocation", fake_invocation)
    save_pair(small_pair, tmp_path / "pairs")

    def bench(store):
        _bench_cli(tmp_path / "pairs", store)
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


@pytest.fixture(scope="module")
def whole_bench(tmp_path_factory, small_pair):
    """A pairs directory and the store an uninterrupted fake bench writes."""
    import idiobench.bench as bench_mod

    root = tmp_path_factory.mktemp("whole_bench")
    save_pair(small_pair, root / "pairs")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench_mod, "run_invocation", _FakeChild())
        _bench_cli(root / "pairs", root / "whole.jsonl")
    return root / "pairs", TimingStore(root / "whole.jsonl")


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_bench_resume_after_a_kill_at_any_byte(tmp_path, small_pair, whole_bench, data):
    import idiobench.bench as bench_mod

    pairs_dir, whole = whole_bench
    text = whole.path.read_bytes()
    cut = data.draw(st.integers(0, len(text)), label="cut")
    kept = text[:cut].count(b"\n")
    lines = text.splitlines()
    lost = [json.loads(line) for line in lines[kept:]]
    lost_invocations = sum(rec.get("kind") == "invocation" for rec in lost)
    lost_calibration = any(rec.get("kind") == "calibration" for rec in lost)

    store = tmp_path / f"cut-{cut}.jsonl"
    store.write_bytes(text[:cut])
    fake = _FakeChild()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench_mod, "run_invocation", fake)
        _bench_cli(pairs_dir, store)
    calibrations = sum("for __i in range(" not in module for module in fake.calls)
    assert calibrations == (2 if lost_calibration else 0)
    assert len(fake.calls) - calibrations == lost_invocations
    cfg = BenchConfig(warmup=1)
    for left, right in zip(
        load_matrices(whole, small_pair.pair_id, cfg),
        load_matrices(TimingStore(store), small_pair.pair_id, cfg),
    ):
        assert left.timings_ns == right.timings_ns
