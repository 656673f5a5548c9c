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

from idiobench import child
from idiobench.bench import (
    BenchConfig,
    ChildCrash,
    ClockResolution,
    EquivalenceGate,
    TimingGrid,
    TimingStore,
    _child_env,
    calibrate,
    content_id,
    host_id,
    interpreter_id,
    load_grid,
    measure,
)
from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.refactor import refactor_pair
from idiobench.synth import save_pair, synthesize, wrap_pair

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
# Config and grid validation
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


def _grid(rows, warmup=1):
    return TimingGrid(
        pair_id="p",
        warmup=warmup,
        rows=rows,
        repetitions=1,
        interpreter_id="cpython-test",
        host_id="host",
    )


def _shapes(grid) -> set:
    """The (n, k - warmup) shapes of the grid's two halves."""
    return {(len(half), len(half[0])) for half in grid.halves()}


def test_matrix_measured_drops_warmup():
    grid = _grid([[9.0, 1.0, 2.0, 9.0, 5.0, 6.0], [9.0, 3.0, 4.0, 9.0, 7.0, 8.0]])
    assert grid.halves() == ([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])


def test_matrix_rejects_ragged_grid():
    with pytest.raises(ValueError):
        _grid([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0]], warmup=0)


@pytest.mark.parametrize("rows", [[[1.0, 2.0, 3.0]], [], [[]]], ids=["odd", "no-rows", "empty"])
def test_grid_rejects_rows_that_are_not_2k_long(rows):
    with pytest.raises(ValueError):
        _grid(rows, warmup=0)


def test_matrix_rejects_nonpositive_durations():
    with pytest.raises(ClockResolution):
        _grid([[1.0, 0.0]], warmup=0)


def test_grid_rejects_a_warmup_that_leaves_no_iteration():
    rows = [[1.0, 2.0, 3.0, 4.0]]
    assert _shapes(_grid(rows, warmup=1)) == {(1, 1)}
    for warmup in (2, -1):
        with pytest.raises(ValueError, match="below k=2"):
            _grid(rows, warmup=warmup)


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
    ident = interpreter_id(child.resolve_interpreter())
    impl, _, version = ident.partition("-")
    assert impl == "cpython"
    assert version.count(".") == 2


def test_host_id_nonempty():
    assert host_id()


def test_host_id_is_the_platform_node_name():
    import platform

    assert host_id() == (platform.node() or "unknown-host")


_ID_PROBE = "import sys; print('%s-%s' % (sys.implementation.name, sys.version.split()[0]))"


def _probed_id(interpreter: str) -> str:
    """The id an explicit ``-I -S`` child of ``interpreter`` reports."""
    proc = subprocess.run(
        [interpreter, "-I", "-S", "-c", _ID_PROBE], capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def _no_child(*args, **kwargs):
    raise AssertionError("a child process was started")


def test_the_running_interpreter_names_itself_without_a_child(monkeypatch):
    monkeypatch.setattr(child, "exec_json", _no_child)
    # The undecorated function: the cache may hold an earlier answer.
    assert interpreter_id.__wrapped__(sys.executable) == _probed_id(sys.executable)


def test_another_interpreter_is_probed_in_a_child(monkeypatch):
    argvs = []

    def probe(argv, **kwargs):
        argvs.append(argv)
        return "cpython-9.9.9", 1

    monkeypatch.setattr(child, "exec_json", probe)
    assert interpreter_id.__wrapped__("other-python") == "cpython-9.9.9"
    assert [argv[:3] for argv in argvs] == [["other-python", "-I", "-S"]]


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
        grid = measure(pair, cfg, store, assume_equivalent=True)
        assert grid.interpreter_id == ident
        assert _shapes(grid) == {(2, 2)}
        assert grid.repetitions > 1


# ============================================================
# Timing store
# ============================================================


def _record(pair_id="p", invocation=0, k=3, content="c0ffee", repetitions=4, **fields):
    """A store row calibrated for ``FAST_CFG``'s floor and cap, unless
    ``fields`` say otherwise."""
    return {
        "pair_id": pair_id,
        "invocation": invocation,
        "content_id": content,
        "timings_ns": [100.0 + invocation] * k + [200.0 + invocation] * k,
        "repetitions": repetitions,
        "min_iteration_ns": FAST_CFG.min_iteration_ns,
        "max_repetitions": FAST_CFG.max_repetitions,
        "interpreter_id": "cpython-test",
        "host_id": "host",
        "pid": 1234 + invocation,
        **fields,
    }


def test_store_round_trip(tmp_path):
    path = tmp_path / "timings.jsonl"
    store = TimingStore(path)
    for i in range(3):
        store.record_invocation(_record(invocation=i))
    reopened = TimingStore(path)
    assert reopened.rows("p") == [_record(invocation=i) for i in range(3)]
    assert reopened.pair_ids() == ["p"]


def test_store_idempotent_writes(tmp_path):
    path = tmp_path / "timings.jsonl"
    store = TimingStore(path)
    store.record_invocation(_record())
    store.record_invocation(_record())
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    assert len(lines) == 1


def test_store_rows_sorted_even_if_appended_out_of_order(tmp_path):
    store = TimingStore(tmp_path / "t.jsonl")
    for i in (2, 0, 1):
        store.record_invocation(_record(invocation=i))
    assert [r["invocation"] for r in store.rows("p")] == [0, 1, 2]


def test_a_later_row_replaces_its_invocation(tmp_path):
    path = tmp_path / "t.jsonl"
    store = TimingStore(path)
    store.record_invocation(_record(invocation=0))
    store.record_invocation(_record(invocation=0, content="beef"))
    assert [r["content_id"] for r in TimingStore(path).rows("p")] == ["beef"]


@pytest.mark.parametrize(
    "old",
    [
        {"kind": "calibration", "pair_id": "p", "repetitions": 4},
        {
            "kind": "invocation",
            "pair_id": "p",
            "variant": "NonIdiomatic",
            "invocation": 0,
            "timings_ns": [100.0] * 3,
            "repetitions": 4,
        },
    ],
    ids=["calibration", "per-variant"],
)
def test_store_written_before_content_keys_fails_loudly(tmp_path, old):
    path = tmp_path / "old.jsonl"
    text = json.dumps(_record()) + "\n" + json.dumps(old) + "\n"
    path.write_text(text)
    with pytest.raises(ValueError, match="re-run bench into a new store") as err:
        TimingStore(path)
    assert str(path) in str(err.value)
    assert path.read_text() == text


# ============================================================
# Measurement (subprocess; kept tiny)
# ============================================================


def test_measure_produces_full_grids(tmp_path, small_pair):
    store = TimingStore(tmp_path / "t.jsonl")
    grid = measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    assert _shapes(grid) == {(3, 4)}
    assert grid.warmup == FAST_CFG.warmup
    assert grid.repetitions >= 1
    assert grid.interpreter_id.startswith("cpython-")


def _assert_one_line_per_invocation(path, n):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    assert sorted(row["invocation"] for row in rows) == list(range(n))


def test_measure_records_distinct_pids(tmp_path, small_pair):
    store = TimingStore(tmp_path / "t.jsonl")
    measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    # One fresh process per invocation, timing both variants: one row
    # each, holding both grids.
    n, k = FAST_CFG.n_invocations, FAST_CFG.k_iterations
    _assert_one_line_per_invocation(store.path, n)
    rows = store.rows(small_pair.pair_id)
    assert all(len(row["timings_ns"]) == 2 * k for row in rows)
    assert len({row["pid"] for row in rows}) == n


def test_measure_survives_a_payload_printing_without_newline(tmp_path, small_pair):
    import dataclasses

    printing = "print('p', end='')\n"
    pair = dataclasses.replace(
        small_pair,
        non_idiomatic_source=printing + small_pair.non_idiomatic_source,
        idiomatic_source=printing + small_pair.idiomatic_source,
    )
    cfg = dataclasses.replace(FAST_CFG, n_invocations=1, k_iterations=2)
    assert _shapes(measure(pair, cfg, TimingStore(tmp_path / "t.jsonl"))) == {(1, 1)}


def test_measure_resumes_without_respawning(tmp_path, small_pair, monkeypatch):
    store_path = tmp_path / "t.jsonl"
    measure(small_pair, FAST_CFG, TimingStore(store_path), assume_equivalent=True)

    import idiobench.bench as bench_mod

    def refuse(*args, **kwargs):
        raise AssertionError("resume must not spawn children")

    monkeypatch.setattr(bench_mod, "run_invocation", refuse)
    resumed = TimingStore(store_path)
    assert _shapes(measure(small_pair, FAST_CFG, resumed, assume_equivalent=True)) == {(3, 4)}


def test_measure_reuses_stored_calibration(tmp_path, small_pair, monkeypatch):
    store = TimingStore(tmp_path / "t.jsonl")
    key = content_id(small_pair, interpreter_id(child.resolve_interpreter()))
    kept = _record(
        small_pair.pair_id, invocation=1, k=FAST_CFG.k_iterations, content=key, repetitions=7
    )
    store.record_invocation(kept)

    import idiobench.bench as bench_mod

    def no_calibration(*args, **kwargs):
        raise AssertionError("the count must be read back from the stored row")

    monkeypatch.setattr(bench_mod, "calibrate", no_calibration)
    measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    rows = store.rows(small_pair.pair_id)
    assert [row["repetitions"] for row in rows] == [7, 7, 7]
    assert rows[1] == kept


@pytest.mark.parametrize(
    "stored",
    [
        {"min_iteration_ns": 100_000},
        {"max_repetitions": 64},
        {"min_iteration_ns": None, "max_repetitions": None},
    ],
    ids=["another-floor", "another-cap", "no-floor-fields"],
)
def test_measure_reuses_rows_only_at_the_runs_floor_and_cap(
    tmp_path, small_pair, monkeypatch, stored
):
    import idiobench.bench as bench_mod

    store = TimingStore(tmp_path / "t.jsonl")
    key = content_id(small_pair, interpreter_id(child.resolve_interpreter()))
    n, k = FAST_CFG.n_invocations, FAST_CFG.k_iterations
    for invocation in range(n):
        row = _record(small_pair.pair_id, invocation, k=k, content=key, repetitions=7)
        # A field stored as None is left out of the row.
        row.update(stored)
        store.record_invocation({f: v for f, v in row.items() if v is not None})
    fake = _FakeChild()
    monkeypatch.setattr(bench_mod, "run_invocation", fake)
    measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    calibrations = sum("for __i in range(" not in module for module in fake.calls)
    assert (calibrations, len(fake.calls) - calibrations) == (1, n)
    for row in TimingStore(store.path).rows(small_pair.pair_id):
        assert row["repetitions"] == 1
        assert row["min_iteration_ns"] == FAST_CFG.min_iteration_ns
        assert row["max_repetitions"] == FAST_CFG.max_repetitions


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
    # One child calibrates both variants, each in a growth loop of its own.
    (module,) = modules
    for source in (small_pair.non_idiomatic_source, small_pair.idiomatic_source):
        assert source.splitlines()[0] in module
    assert module.count("while True:") == 2


@pytest.mark.parametrize("index", [0, 1], ids=["NonIdiomatic", "Idiomatic"])
def test_calibrated_count_reaches_the_floor(small_pair, index):
    import dataclasses

    from idiobench.bench import run_invocation

    # The other half is slowed, so half ``index`` is the faster one: the
    # larger count, which both halves share, is its own.
    slow = "for _ in range(30):\n    pass\n"
    sources = [small_pair.non_idiomatic_source, small_pair.idiomatic_source]
    sources[1 - index] = slow + sources[1 - index]
    pair = dataclasses.replace(
        small_pair, non_idiomatic_source=sources[0], idiomatic_source=sources[1]
    )
    cfg = dataclasses.replace(FAST_CFG, min_iteration_ns=1_000_000)
    interp = child.resolve_interpreter(cfg.interpreter)
    reps = calibrate(pair, cfg, interp)
    assert 1 < reps < cfg.max_repetitions
    module = wrap_pair(*sources, pair.setup_source, pair.scope_mode, repetitions=reps)
    record, _ = run_invocation(module, cfg, interp)
    # A fresh child at that count lasts about the floor or more; the
    # allowance covers a change of host speed between the two children.
    assert record["timings_ns"][index][0] >= cfg.min_iteration_ns / 2

    capped = dataclasses.replace(cfg, max_repetitions=16)
    assert calibrate(pair, capped, interp) == 16


def test_bench_stage_imports_no_numpy(tmp_path):
    import idiobench

    store = TimingStore(tmp_path / "t.jsonl")
    for i in range(2):
        store.record_invocation(_record(invocation=i))
    env = dict(os.environ, PYTHONPATH=str(Path(idiobench.__file__).parents[1]))
    code = (
        "import sys, idiobench.bytecode\n"
        "from idiobench.bench import TimingStore, load_grid\n"
        f"halves = load_grid(TimingStore({str(store.path)!r}), 'p', warmup=1).halves()\n"
        "assert halves == ([[100.0] * 2, [101.0] * 2], [[200.0] * 2, [201.0] * 2])\n"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_load_matrices_round_trip(tmp_path, small_pair):
    store = TimingStore(tmp_path / "t.jsonl")
    grid = measure(small_pair, FAST_CFG, store, assume_equivalent=True)
    assert load_grid(store, small_pair.pair_id, FAST_CFG.warmup) == grid


def test_load_matrices_splits_each_row_into_both_grids(tmp_path):
    store = TimingStore(tmp_path / "t.jsonl")
    for i in range(2):
        store.record_invocation(_record(invocation=i))
    grid = load_grid(store, "p", warmup=1)
    assert grid.rows == [[100.0] * 3 + [200.0] * 3, [101.0] * 3 + [201.0] * 3]
    assert grid.halves() == ([[100.0] * 2, [101.0] * 2], [[200.0] * 2, [201.0] * 2])
    assert grid.repetitions == 4


def test_load_matrices_rejects_partial_grid(tmp_path):
    store = TimingStore(tmp_path / "t.jsonl")
    store.record_invocation(_record(invocation=0))
    store.record_invocation(_record(invocation=2))  # hole at 1
    with pytest.raises(ValueError):
        load_grid(store, "p", warmup=1)


@pytest.mark.parametrize(
    "odd_one",
    [
        {"content": "beef"},
        {"repetitions": 8},
        {"k": 4},
        {"min_iteration_ns": 5_000_000},
        {"max_repetitions": 64},
    ],
    ids=["content_id", "repetitions", "k", "min_iteration_ns", "max_repetitions"],
)
def test_load_matrices_rejects_a_mixed_grid(tmp_path, odd_one):
    store = TimingStore(tmp_path / "t.jsonl")
    store.record_invocation(_record(invocation=0))
    store.record_invocation(_record(invocation=1, **odd_one))
    with pytest.raises(ValueError):
        load_grid(store, "p", warmup=1)


def test_run_invocation_reports_child_crash():
    from idiobench.bench import run_invocation

    with pytest.raises(ChildCrash):
        run_invocation("import sys; sys.exit(3)", FAST_CFG, child.resolve_interpreter())


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
    assert [r["invocation"] for r in reopened.rows("p")] == [0, 1]
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
        base = 2_000_000 + len(module_source)
        pid = next(self._pids)
        loop = re.search(r"for __i in range\((\d+)\)", module_source)
        if loop is None:
            # A calibration module: both variants already meet the floor.
            return {"timings_ns": [base, base], "repetitions": [1, 1]}, pid
        k = int(loop.group(1))
        grids = [[base + i for i in range(k)], [base + k + i for i in range(k)]]
        return {"timings_ns": grids, "repetitions": 1}, pid


def _bench_cli(pairs_dir, store, *extra: str, gated: bool = False) -> None:
    from idiobench.cli import main

    args = ["bench", "--in", str(pairs_dir), "--timings", str(store), "--n", "3", "--k", "4"]
    gate = [] if gated else ["--assume-equivalent"]
    assert main(args + ["--warmup", "1", *gate, *extra]) == 0


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
    _assert_one_line_per_invocation(resumed, 3)
    assert load_grid(TimingStore(whole), small_pair.pair_id) == load_grid(
        TimingStore(resumed), small_pair.pair_id
    )


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
    lost = len(text.splitlines()) - kept

    store = tmp_path / f"cut-{cut}.jsonl"
    store.write_bytes(text[:cut])
    fake = _FakeChild()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench_mod, "run_invocation", fake)
        _bench_cli(pairs_dir, store)
    calibrations = sum("for __i in range(" not in module for module in fake.calls)
    # The count is read back from any surviving row, so calibration runs
    # only when none survived; every lost row costs one timing child.
    assert calibrations == (1 if kept == 0 else 0)
    assert len(fake.calls) - calibrations == lost
    assert load_grid(whole, small_pair.pair_id) == load_grid(
        TimingStore(store), small_pair.pair_id
    )
    _assert_one_line_per_invocation(store, 3)


# ============================================================
# The gate runs only for a pair with an invocation to time
# ============================================================


@pytest.fixture
def gate_log(monkeypatch):
    """The real gate and a fake timing child, logged in call order."""
    import idiobench.bench as bench_mod
    import idiobench.equivalence as equivalence

    log: list[str] = []
    fake, real_check = _FakeChild(), equivalence.check

    def timing_child(*args):
        log.append("child")
        return fake(*args)

    def check(*args, **kwargs):
        log.append("gate")
        return real_check(*args, **kwargs)

    monkeypatch.setattr(bench_mod, "run_invocation", timing_child)
    monkeypatch.setattr(equivalence, "check", check)
    return log


def _gates(store, pair_id) -> set:
    return {row.get("gate") for row in TimingStore(store).rows(pair_id)}


def test_a_complete_gated_store_is_not_gated_again(tmp_path, small_pair, gate_log, capsys):
    pairs_dir, store = tmp_path / "pairs", tmp_path / "t.jsonl"
    save_pair(small_pair, pairs_dir)
    _bench_cli(pairs_dir, store, gated=True)
    # Gated once, before the calibration child and the three timing children.
    assert gate_log == ["gate"] + ["child"] * 4
    assert _gates(store, small_pair.pair_id) == {"Equivalent"}
    text = store.read_bytes()
    gate_log.clear()
    _bench_cli(pairs_dir, store, gated=True)
    assert gate_log == []
    assert store.read_bytes() == text


def test_a_store_keyed_by_probed_ids_starts_no_child(tmp_path, small_pair, monkeypatch, capsys):
    """Rows whose interpreter id came from a probe child and whose host id
    came from ``platform.node()``, as ``bench`` wrote them while it still
    probed the running interpreter, are reused whole by a gated run."""
    import platform

    import idiobench.bench as bench_mod
    import idiobench.equivalence as equivalence

    ident = _probed_id(sys.executable)
    pairs_dir, path = tmp_path / "pairs", tmp_path / "t.jsonl"
    save_pair(small_pair, pairs_dir)
    store = TimingStore(path)
    for invocation in range(3):
        store.record_invocation(
            _record(
                pair_id=small_pair.pair_id,
                invocation=invocation,
                k=4,
                content=content_id(small_pair, ident),
                min_iteration_ns=BenchConfig.min_iteration_ns,
                max_repetitions=BenchConfig.max_repetitions,
                gate="Equivalent",
                interpreter_id=ident,
                host_id=platform.node(),
            )
        )
    text = path.read_bytes()
    for module, name in (
        (bench_mod, "run_invocation"),
        (equivalence, "check"),
        (child, "exec_json"),
        (child, "exec_child"),
    ):
        monkeypatch.setattr(module, name, _no_child)
    _bench_cli(pairs_dir, path, gated=True)
    assert path.read_bytes() == text


def test_rows_written_under_assume_equivalent_do_not_vouch_for_a_gated_run(
    tmp_path, small_pair, gate_log, capsys
):
    import dataclasses

    from idiobench.cli import main

    broken = dataclasses.replace(
        small_pair, idiomatic_source=small_pair.idiomatic_source + "r_9 = 1\n"
    )
    pairs_dir, store = tmp_path / "pairs", tmp_path / "t.jsonl"
    save_pair(broken, pairs_dir)
    _bench_cli(pairs_dir, store)
    assert gate_log == ["child"] * 4
    assert _gates(store, broken.pair_id) == {"assumed"}
    text = store.read_bytes()

    cfg = BenchConfig(n_invocations=3, k_iterations=4, warmup=1)
    with pytest.raises(EquivalenceGate):
        measure(broken, cfg, TimingStore(store))
    capsys.readouterr()
    args = ["bench", "--in", str(pairs_dir), "--timings", str(store)]
    assert main(args + ["--n", "3", "--k", "4", "--warmup", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {"measured": 0, "failed": 1}
    assert gate_log[4:] == ["gate", "gate"]
    assert store.read_bytes() == text


def test_a_store_missing_a_row_is_gated_before_that_row_is_timed(
    tmp_path, small_pair, gate_log, capsys
):
    pairs_dir, store = tmp_path / "pairs", tmp_path / "t.jsonl"
    save_pair(small_pair, pairs_dir)
    _bench_cli(pairs_dir, store, gated=True)
    lines = store.read_text().splitlines(keepends=True)
    store.write_text("".join(lines[:-1]))
    gate_log.clear()
    _bench_cli(pairs_dir, store, gated=True)
    assert gate_log == ["gate", "child"]
    assert _gates(store, small_pair.pair_id) == {"Equivalent"}


def test_a_passing_gate_upgrades_assumed_rows(tmp_path, small_pair, gate_log, capsys):
    pairs_dir, store = tmp_path / "pairs", tmp_path / "t.jsonl"
    save_pair(small_pair, pairs_dir)
    _bench_cli(pairs_dir, store)
    assert _gates(store, small_pair.pair_id) == {"assumed"}
    gate_log.clear()
    _bench_cli(pairs_dir, store, gated=True)
    assert gate_log == ["gate"]
    assert _gates(store, small_pair.pair_id) == {"Equivalent"}
    text = store.read_bytes()
    _bench_cli(pairs_dir, store, gated=True)
    assert gate_log == ["gate"]
    assert store.read_bytes() == text


def test_a_row_without_a_gate_field_is_gated(tmp_path, small_pair, gate_log, capsys):
    pairs_dir, store = tmp_path / "pairs", tmp_path / "t.jsonl"
    save_pair(small_pair, pairs_dir)
    _bench_cli(pairs_dir, store, gated=True)
    rows = [json.loads(line) for line in store.read_text().splitlines()]
    del rows[1]["gate"]
    store.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    gate_log.clear()
    _bench_cli(pairs_dir, store, gated=True)
    # The gate passes and every row is reused: no child, and the row
    # without a gate now says it was admitted behind one.
    assert gate_log == ["gate"]
    assert _gates(store, small_pair.pair_id) == {"Equivalent"}
    _bench_cli(pairs_dir, store, gated=True)
    assert gate_log == ["gate"]


# ============================================================
# Rows are reused only for the code and interpreter they timed
# ============================================================


def _with_slow_idiomatic_half(pair):
    """``pair`` with a 2,000-iteration loop prepended to its idiomatic half."""
    import dataclasses

    slow = "for _ in range(2000):\n    pass\n"
    return dataclasses.replace(pair, idiomatic_source=slow + pair.idiomatic_source)


def _stats_cli(pairs_dir, store, out) -> int:
    from idiobench.cli import main

    args = ["stats", "--timings", str(store), "--in", str(pairs_dir), "--out", str(out)]
    return main(args + ["--warmup", "1", "--bootstrap", "50"])


def _rho(results_csv, pair_id) -> float:
    import csv

    with open(results_csv, newline="") as fh:
        return float(next(r for r in csv.DictReader(fh) if r["pair_id"] == pair_id)["rho"])


def test_bench_retimes_an_edited_pair(tmp_path, small_pair, capsys):
    from idiobench.cli import main

    pairs_dir, store = tmp_path / "pairs", tmp_path / "t.jsonl"
    bench = ["bench", "--in", str(pairs_dir), "--timings", str(store)]
    bench += ["--n", "3", "--k", "4", "--warmup", "1"]
    bench += ["--min-iteration-ns", "100000", "--assume-equivalent"]
    save_pair(small_pair, pairs_dir)
    assert main(bench) == 0
    assert _stats_cli(pairs_dir, store, tmp_path / "before.csv") == 0
    before = _rho(tmp_path / "before.csv", small_pair.pair_id)
    lines = len(store.read_text().splitlines())

    save_pair(_with_slow_idiomatic_half(small_pair), pairs_dir)
    assert main(bench) == 0
    assert len(store.read_text().splitlines()) == lines + 3
    assert _stats_cli(pairs_dir, store, tmp_path / "after.csv") == 0
    after = _rho(tmp_path / "after.csv", small_pair.pair_id)
    # The idiomatic half now runs 2,000 loop iterations more than the
    # non-idiomatic one, so the idiom turns from faster to far slower.
    assert after < before / 2


def test_bench_at_a_higher_floor_recalibrates(tmp_path, small_pair, capsys):
    from idiobench.cli import main

    pairs_dir, store = tmp_path / "pairs", tmp_path / "t.jsonl"
    save_pair(small_pair, pairs_dir)
    bench = ["bench", "--in", str(pairs_dir), "--timings", str(store)]
    bench += ["--n", "2", "--k", "4", "--warmup", "1", "--assume-equivalent"]

    def counts() -> list[int]:
        return [row["repetitions"] for row in TimingStore(store).rows(small_pair.pair_id)]

    assert main(bench + ["--min-iteration-ns", "100000"]) == 0
    low = counts()
    assert main(bench + ["--min-iteration-ns", "5000000"]) == 0
    high = counts()
    capsys.readouterr()
    # A floor 50 times higher needs a count far above the stored one;
    # rows calibrated for the lower floor must not be reused.
    assert len(low) == len(high) == 2
    assert len(set(low)) == len(set(high)) == 1
    assert high[0] > 10 * low[0]
    rows = TimingStore(store).rows(small_pair.pair_id)
    assert {row["min_iteration_ns"] for row in rows} == {5_000_000}


def test_bench_under_a_second_interpreter_retimes_every_invocation(
    tmp_path, small_pair, monkeypatch, capsys
):
    import idiobench.bench as bench_mod

    other = pyenv_interpreter(12 if sys.version_info[:2] == (3, 10) else 10)
    if other is None:
        pytest.skip("no second CPython under pyenv")
    fake = _FakeChild()
    monkeypatch.setattr(bench_mod, "run_invocation", fake)
    save_pair(small_pair, tmp_path / "pairs")
    store = tmp_path / "t.jsonl"
    _bench_cli(tmp_path / "pairs", store)
    fake.calls.clear()
    _bench_cli(tmp_path / "pairs", store, "--interpreter", other)
    capsys.readouterr()
    calibrations = sum("for __i in range(" not in module for module in fake.calls)
    assert (calibrations, len(fake.calls) - calibrations) == (1, 3)
    rows = TimingStore(store).rows(small_pair.pair_id)
    assert {row["interpreter_id"] for row in rows} == {interpreter_id(other)}
    assert len(store.read_text().splitlines()) == 2 * 3


@pytest.fixture
def two_pair_bench(tmp_path, small_pair, local_pair, monkeypatch):
    """Two pairs benched at n=3 by a fake child; the first is then edited."""
    import idiobench.bench as bench_mod

    monkeypatch.setattr(bench_mod, "run_invocation", _FakeChild())
    pairs_dir, store = tmp_path / "pairs", tmp_path / "t.jsonl"
    for pair in (small_pair, local_pair):
        save_pair(pair, pairs_dir)
    _bench_cli(pairs_dir, store)
    save_pair(_with_slow_idiomatic_half(small_pair), pairs_dir)
    return pairs_dir, store


def _assert_only_the_second_pair_reported(results_csv, local_pair):
    import csv

    with open(results_csv, newline="") as fh:
        assert [r["pair_id"] for r in csv.DictReader(fh)] == [local_pair.pair_id]


def test_stats_refuses_a_grid_mixed_from_two_runs(
    tmp_path, small_pair, local_pair, two_pair_bench, caplog
):
    from idiobench.cli import main

    pairs_dir, store = two_pair_bench
    args = ["bench", "--in", str(pairs_dir), "--timings", str(store)]
    assert main(args + ["--n", "2", "--k", "4", "--warmup", "1", "--assume-equivalent"]) == 0
    caplog.clear()
    assert _stats_cli(pairs_dir, store, tmp_path / "r.csv") == 1
    assert f"pair {small_pair.pair_id} skipped" in caplog.text
    assert "disagree on content_id" in caplog.text
    _assert_only_the_second_pair_reported(tmp_path / "r.csv", local_pair)


def test_stats_names_a_stale_pair(tmp_path, small_pair, local_pair, two_pair_bench, caplog):
    pairs_dir, store = two_pair_bench
    caplog.clear()
    assert _stats_cli(pairs_dir, store, tmp_path / "r.csv") == 1
    assert f"pair {small_pair.pair_id} skipped" in caplog.text and "stale" in caplog.text
    _assert_only_the_second_pair_reported(tmp_path / "r.csv", local_pair)


def test_store_payload_matches_both_grids(tmp_path, small_pair, local_pair, monkeypatch):
    """The benchmark's payload time reads the store line by line."""
    import importlib.util

    import idiobench.bench as bench_mod

    spec = importlib.util.spec_from_file_location(
        "perfbench_metrics", Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"
    )
    metrics = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, metrics)
    spec.loader.exec_module(metrics)

    monkeypatch.setattr(bench_mod, "run_invocation", _FakeChild())
    for pair in (small_pair, local_pair):
        save_pair(pair, tmp_path / "pairs")
    store = tmp_path / "t.jsonl"
    _bench_cli(tmp_path / "pairs", store)
    expected_ns = 0.0
    for pair in (small_pair, local_pair):
        grid = load_grid(TimingStore(store), pair.pair_id)
        expected_ns += sum(map(sum, grid.rows)) * grid.repetitions
    assert metrics.store_payload_s(store) == pytest.approx(expected_ns / 1e9, rel=1e-12)
