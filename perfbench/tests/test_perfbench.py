"""Tests for the benchmark's own code: extraction, spans, metric names.

Run from the repository root: python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import run, tracer
from perfbench.metrics import (
    DESK_RHO,
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    RHO_BAND,
    StageRun,
    count_records,
    desk_results,
    layer_metrics,
    measures_with_timing_child,
    rho_in_band,
    self_time_table,
    self_times,
    span_total,
    stage_outcome,
    store_payload_s,
    unclassifiable_by_design,
)

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent=None, stage="bench", **extra):
    return {"name": name, "start": start, "end": end, "parent": parent, "stage": stage, **extra}


# ============================================================
# Timing store and results CSV
# ============================================================


def test_store_payload_multiplies_repetitions_and_skips_calibration(tmp_path):
    store = tmp_path / "timings.jsonl"
    rows = [
        {"kind": "calibration", "pair_id": "p", "repetitions": 4},
        {"kind": "invocation", "pair_id": "p", "variant": "NonIdiomatic", "invocation": 0,
         "timings_ns": [250.0, 500.0], "repetitions": 4},
        {"pair_id": "p", "variant": "Idiomatic", "invocation": 0,
         "timings_ns": [1e9], "repetitions": 2},
    ]
    store.write_text("".join(json.dumps(r) + "\n" for r in rows) + "\n")
    assert store_payload_s(store) == pytest.approx((750.0 * 4 + 2e9) / 1e9)


def test_desk_results_maps_pair_ids_to_desk_names(tmp_path):
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(
        "pair_id,idiom,rho,ci_low,ci_high,rciw,classification\n"
        "aaa,swap,1.1,1.0,1.2,0.18,Unchanged\n"
        "bbb,assign,0.55,0.5,0.6,0.2,Slowdown\n"
    )
    found = desk_results(csv_path, {"swap-2": "aaa", "assign-4": "bbb", "listcomp-0": "zzz"})
    assert found == {"swap-2": {"rho": 1.1, "rciw": 0.18}, "assign-4": {"rho": 0.55, "rciw": 0.2}}


def test_rho_band_is_two_sided():
    median = DESK_RHO["swap-2"]
    assert rho_in_band("swap-2", median)
    assert rho_in_band("swap-2", median * (1 + RHO_BAND * 0.99))
    assert rho_in_band("swap-2", median * (1 - RHO_BAND * 0.99))
    assert not rho_in_band("swap-2", median * (1 + RHO_BAND * 1.01))
    assert not rho_in_band("swap-2", median * (1 - RHO_BAND * 1.01))
    assert not rho_in_band("swap-2", math.inf) and not rho_in_band("swap-2", math.nan)


# ============================================================
# Stage outputs and failure accounting
# ============================================================


def _lines(*records):
    return "".join(json.dumps(r) + "\n" for r in records)


@pytest.mark.parametrize(
    "stage, stdout, returncode, expected",
    [
        ("gen", _lines({"written": 27, "out": "x"}), 0, (27, 0)),
        ("gen", _lines({"written": 25, "out": "x"}), 0, (27, 2)),
        ("refactor", _lines({"refactored": 26, "failed": 1}), 1, (27, 1)),
        ("bench", _lines({"measured": 27, "failed": 0}), 0, (27, 0)),
        ("bench-resume", _lines({"measured": 20, "failed": 2}), 1, (27, 7)),
        ("stats", _lines({"rows": 27, "out": "r.csv"}), 0, (27, 0)),
        ("stats", _lines({"rows": 26, "out": "r.csv"}), 0, (27, 1)),
        ("bench", "", 1, (27, 27)),
        ("stats", "not json\n", 0, (27, 27)),
        ("bench", _lines({"measured": 27, "failed": 0}), 1, (27, 27)),
    ],
)
def test_stage_outcome_reads_summaries(stage, stdout, returncode, expected):
    assert stage_outcome(stage, stdout, returncode, 27) == expected


def test_stage_outcome_reads_per_pair_records():
    check = _lines(
        {"pair_id": "a", "idiom": "x", "status": "Equivalent"},
        {"pair_id": "b", "idiom": "x", "status": "Divergent", "witness": {}},
        {"pair_id": "c", "idiom": "x", "status": "Equivalent"},
    )
    assert stage_outcome("check", check, 1, 3) == (3, 1)
    assert stage_outcome("check", check, 1, 4) == (4, 2)
    assert count_records(check, "status", "Equivalent", negate=True) == 1
    diff = _lines(
        {"pair_id": "a", "root_cause": "R1_AddedPreparation"},
        {"pair_id": "b", "root_cause": "Unclassifiable"},
    )
    exempt = frozenset({"b"})
    assert stage_outcome("diff", diff, 1, 2) == (2, 1)
    assert stage_outcome("diff", diff, 1, 2, exempt) == (2, 0)
    assert stage_outcome("diff", diff, 1, 3, exempt) == (3, 1)
    assert stage_outcome("diff", diff, 2, 2, exempt) == (2, 2)
    assert count_records(diff, "root_cause", "Unclassifiable") == 1
    assert count_records(diff, "root_cause", "Unclassifiable", pair_ids=exempt) == 1
    assert count_records(diff, "root_cause", "Unclassifiable", pair_ids=frozenset("a")) == 0
    classified = _lines({"pair_id": "a", "root_cause": "R1_AddedPreparation"})
    assert stage_outcome("diff", classified, 1, 1) == (1, 1)


def _assign_pair(num_assign, is_swap=False, is_const=False, idiom="assign-multi-targets"):
    features = {"idiom": idiom, "node_counts": {"num_assign": num_assign},
                "is_swap": is_swap, "is_const": is_const}
    return {"pair_id": "p", "idiom": idiom, "features": features}


def test_only_pure_two_and_three_target_assignments_are_unclassifiable_by_design():
    assert unclassifiable_by_design(_assign_pair(2))
    assert unclassifiable_by_design(_assign_pair(3))
    assert not unclassifiable_by_design(_assign_pair(4))
    assert not unclassifiable_by_design(_assign_pair(2, is_swap=True))
    assert not unclassifiable_by_design(_assign_pair(3, is_const=True))
    assert not unclassifiable_by_design(_assign_pair(2, idiom="for-multi-targets"))
    assert not unclassifiable_by_design({"pair_id": "p", "idiom": "assign-multi-targets"})


def test_exempt_pair_ids_reads_the_pair_files(tmp_path):
    for name, num_assign in (("x", 2), ("y", 4)):
        pair = {**_assign_pair(num_assign), "pair_id": name}
        (tmp_path / f"{name}.json").write_text(json.dumps(pair))
    assert run.exempt_pair_ids(tmp_path) == frozenset({"x"})


def test_stage_outcome_reads_analyze_and_report():
    analyze = json.dumps(
        {"idioms": {"loop-else": {"pairs": 3}, "swap": {"pairs": 2}}}, indent=2
    )
    assert stage_outcome("analyze", analyze, 0, 5) == (5, 0)
    assert stage_outcome("analyze", analyze, 0, 6) == (6, 1)
    report = "# Idiom performance report\n\nPairs analyzed: 5\n\n| idiom |\n"
    assert stage_outcome("report", report, 0, 5) == (5, 0)
    assert stage_outcome("report", "no summary\n", 0, 5) == (5, 5)


# ============================================================
# Spans
# ============================================================


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("bench.measure", 1.0, 6.0, parent=0),
        _span("bench.calibrate", 1.5, 2.5, parent=1),
        _span("bench.run_invocation", 2.0, 3.0, parent=1),  # overlaps the previous
        _span("bench.measure", 7.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 1.0, 2.0])
    table = self_time_table([StageRun("bench", 0, "", 10.0, 9.0, 0.0, spans)])
    assert table["bench.measure"] == {"calls": 2, "total_s": 7.0, "self_s": 5.5}


def test_span_total_filters_on_ancestors_and_counts_spawns():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("equivalence.check", 0.5, 1.0, parent=0),
        _span("subprocess.Popen", 0.6, 0.7, parent=1),
        _span("bench.measure", 1.0, 6.0, parent=0),
        _span("equivalence.check", 1.0, 1.5, parent=3),
        _span("subprocess.Popen", 1.1, 1.2, parent=4),
        _span("subprocess.Popen", 1.3, 1.4, parent=4),
        _span("bench.calibrate", 2.0, 3.0, parent=3),
        _span("bench.run_invocation", 2.0, 2.9, parent=7),
        _span("bench.run_invocation", 3.0, 4.0, parent=3, raised="ChildCrash"),
    ]
    runs = [StageRun("bench", 0, "", 10.0, 9.0, 0.0, spans)]
    assert span_total(runs, "equivalence.check", not_under="bench.measure") == (0.5, 1, 1, 0)
    assert span_total(runs, "equivalence.check", under="bench.measure") == (0.5, 1, 2, 0)
    assert span_total(runs, "bench.run_invocation", parent="bench.measure") == (1.0, 1, 0, 1)
    assert span_total(runs, "bench.run_invocation")[1] == 2
    assert span_total(runs, "bench.measure", stages=["bench-resume"]) == (0.0, 0, 0, 0)
    assert measures_with_timing_child(spans) == 1
    assert measures_with_timing_child(spans[:7]) == 0


def test_recursive_span_time_counts_once():
    spans = [_span("catalog.f", 0.0, 4.0), _span("catalog.f", 1.0, 2.0, parent=0)]
    runs = [StageRun("gen", 0, "", 4.0, 4.0, 0.0, spans)]
    assert span_total(runs, "catalog.f")[:2] == (4.0, 2)


# ============================================================
# Metric names and units
# ============================================================


def test_benchmark_json_declares_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_layer_metrics_emits_every_name_from_a_traced_pass():
    spans = [
        _span("cli.main", 1.25, 9.0, stage="bench"),
        _span("bench.TimingStore.load", 1.5, 1.75, parent=0),
        _span("bench.measure", 2.0, 8.0, parent=0),
        _span("equivalence.check", 2.0, 2.5, parent=2),
        _span("bench.run_invocation", 3.0, 4.0, parent=2),
        _span("subprocess.Popen", 3.0, 3.25, parent=4),
        _span("bench.run_invocation", 4.0, 5.0, parent=2),
        _span("subprocess.Popen", 4.0, 4.25, parent=6),
    ]
    runs = [StageRun("bench", 0, "", 9.0, 8.5, 1.0, spans)]
    extras = {"rho.swap-2": 1.1, "failed_share": 0.0}
    values = layer_metrics(runs, payload_s=1.5, extras=extras)
    assert set(values) == set(PER_LAYER_UNITS)
    assert values["cli.bench.startup_s"] == 0.25
    assert values["cli.bench.spawns"] == 2
    assert values["bench.gate.calls"] == 1 and values["equivalence.check.calls"] == 0
    assert values["bench.run_invocation.calls"] == 2
    assert values["bench.payload_share"] == pytest.approx(0.75)
    assert values["bench.overhead_ms_per_invocation"] == pytest.approx(250.0)
    assert values["bench_overhead_s"] == pytest.approx(7.5)
    assert values["bench.TimingStore.load_s"] == 0.25
    assert values["rho.swap-2"] == 1.1 and values["cli.diff.wall_s"] == 0.0
    with pytest.raises(KeyError):
        layer_metrics(runs, 0.0, {"no.such.metric": 1.0})


def test_metric_names_follow_the_naming_rules():
    import re

    names = list(END_TO_END_UNITS) + list(PER_LAYER_UNITS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in PER_LAYER_UNITS.values())
    stages = {stage.name for workload in run.WORKLOADS.values() for stage in workload.stages}
    for stage in stages:
        assert {f"cli.{stage}.{m}" for m in ("wall_s", "cpu_s", "startup_s", "spawns")} <= set(
            PER_LAYER_UNITS
        )
    assert {f"rho.{name}" for name in DESK_RHO} <= set(PER_LAYER_UNITS)


# ============================================================
# Tracer and runner
# ============================================================


def test_recorder_wraps_public_functions_and_records_raises():
    module = types.ModuleType("idiobench.fake")
    exec(
        "def outer(x):\n    return inner(x) + 1\n"
        "def inner(x):\n    if x < 0:\n        raise ValueError(x)\n    return x\n"
        "def _private(x):\n    return x\n",
        module.__dict__,
    )
    recorder = tracer.Recorder("gen")
    recorder.instrument(module)
    assert module.outer(1) == 2
    with pytest.raises(ValueError):
        module.outer(-1)
    assert module._private(3) == 3
    names = [(s["name"], s["parent"], "raised" in s) for s in recorder.spans]
    assert names == [
        ("fake.outer", None, False),
        ("fake.inner", 0, False),
        ("fake.outer", None, True),
        ("fake.inner", 2, True),
    ]
    assert all(s["stage"] == "gen" and s["end"] >= s["start"] for s in recorder.spans)


def test_tracer_records_stage_spans_and_imports(tmp_path):
    trace_file = tmp_path / "trace.json"
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_file), "gen",
         "gen", "--idiom", "loop-else", "--limit", "2", "--out", str(tmp_path / "pairs")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_file.read_text())
    names = [span["name"] for span in trace["spans"]]
    assert trace["stage"] == "gen"
    assert {"import.catalog", "import.cli", "cli.main", "catalog.enumerate_matrix"} <= set(names)
    assert names.count("synth.save_pair") == 2
    main = names.index("cli.main")
    enumerate_span = trace["spans"][names.index("catalog.enumerate_matrix")]
    assert enumerate_span["parent"] == main


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def test_spawn_timeout_kills_the_stage_and_its_children(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    script = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(60)\n"
    )
    code, stdout = run._spawn([sys.executable, "-c", script], {}, tmp_path, timeout=2.0)
    assert (code, stdout) == (run.TIMED_OUT, "")
    grandchild = int(pid_file.read_text())
    for _ in range(50):
        if not _alive(grandchild):
            break
        time.sleep(0.1)
    assert not _alive(grandchild)


def test_harness_counts_a_repeated_stage_with_its_median_wall():
    result = run.PassResult(pairs=5, payload_s=2.0)
    for name, wall in (("bench", 5.0), ("stats", 1.0), ("stats", 3.0), ("stats", 1.5)):
        result.runs.append(StageRun(name, 0, "", wall, wall, 0.0))
    assert result.wall_s == pytest.approx(10.5)
    assert result.harness_s == pytest.approx(5.0 + 1.5 - 2.0)


def test_pair_cost_divides_harness_per_pair_by_the_mean_reference():
    passes = []
    for harness in (8.0, 10.0, 30.0):
        result = run.PassResult(pairs=4)
        result.runs.append(StageRun("check", 0, "", harness, harness, 0.0))
        passes.append(result)
    # Median harness per pair 2.5 s; mean reference 0.125 s, median 0.1 s.
    assert run.pair_cost(passes, [0.1, 0.1, 0.2, 0.1]) == pytest.approx(20.0)


def test_reference_task_runs_without_idiobench():
    samples = []
    run.time_reference({"PATH": "/nonexistent"}, samples)
    assert len(samples) == 1 and samples[0] > 0
    assert "idiobench" not in run.REFERENCE_SOURCE


def test_repeats_start_after_bench_on_the_measuring_workloads():
    after_bench = ["bench-resume", "stats", "analyze", "report"]
    for name in ("bench-sweep", "desk-quality"):
        assert [s.name for s in run.WORKLOADS[name].repeat_stages] == after_bench
    sweep = run.WORKLOADS["analyze-sweep"]
    assert sweep.repeat_stages == sweep.stages


def test_drop_large_pairs_keeps_unsized_and_small(tmp_path):
    for name, size in (("a", None), ("b", 10), ("c", 10**4), ("d", 10**5)):
        features = {"size": size} if size is not None else None
        (tmp_path / f"{name}.json").write_text(json.dumps({"features": features}))
    assert run.drop_large_pairs(tmp_path, 10**4) == 3
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == ["a", "b", "c"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-quality",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
