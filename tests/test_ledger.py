"""The benchmark ledger folds run records and a Tier-1 summary into one file."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1] / "tools" / "ledger.py"


def _record(seed: int, pair_cost: float, rho: float, trace: int = 0) -> dict:
    return {
        "provenance": {
            "workload": "desk-quality",
            "seed": seed,
            "seconds": 36.0,
            "trace": trace,
            "interpreter_id": "cpython-3.11.7",
            "python": "3.11.7",
            "cpu_count": 2,
            "git_rev": None,
            "source_sha256": "abc",
        },
        "passes": [{"extras": {"rho.swap-2": rho, "stats.rciw.swap-2": 0.1, "other": 1.0}}],
        "result": {
            "correct": True,
            "attempted": 25,
            "failed": 0,
            "metrics": {
                "pair_cost": {"value": pair_cost, "unit": "ref/pair"},
                "peak_rss_mb": {"value": 60.0, "unit": "MB"},
            },
        },
    }


def test_ledger_folds_two_runs_and_tier1(tmp_path):
    (tmp_path / "result-a.json").write_text(json.dumps(_record(2, 9.0, 1.2)))
    (tmp_path / "result-b.json").write_text(json.dumps(_record(1, 8.0, 1.0)))
    (tmp_path / "tier1.txt").write_text("...\n3 failed, 263 passed in 95.12s (0:01:35)\n")
    out = tmp_path / "BENCH.json"

    proc = subprocess.run(
        [sys.executable, str(LEDGER), str(tmp_path), str(out)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads(out.read_text())

    assert ledger["tier1"] == {
        "summary": "3 failed, 263 passed in 95.12s (0:01:35)",
        "failed": 3,
        "passed": 263,
        "wall_s": 95.12,
    }
    desk = ledger["workloads"]["desk-quality"]
    assert desk["runs"] == 2 and desk["seeds"] == [1, 2]
    assert desk["correct"] is True and desk["attempted"] == 50 and desk["failed"] == 0
    cost = desk["end_to_end"]["pair_cost"]
    assert cost["unit"] == "ref/pair"
    assert cost["median"] == 8.5 and cost["values"] == [8.0, 9.0]
    assert cost["q1"] <= cost["median"] <= cost["q3"]
    assert desk["end_to_end"]["peak_rss_mb"]["median"] == 60.0
    assert set(desk["quality"]) == {"rho.swap-2", "stats.rciw.swap-2"}
    assert desk["quality"]["rho.swap-2"]["median"] == 1.1
    assert "per_layer" not in desk
    assert desk["provenance"]["interpreter_id"] == ["cpython-3.11.7"]
    assert desk["provenance"]["git_rev"] == [None]


def _write_runs(directory: Path, runs: list[dict], tier1: str) -> None:
    directory.mkdir()
    for index, run in enumerate(runs):
        (directory / f"result-{index}.json").write_text(json.dumps(run))
    (directory / "tier1.txt").write_text(tier1 + "\n")


def test_ledger_folds_the_parent_side_and_pairs_the_seeds_both_ran(tmp_path):
    change, parent = tmp_path / "change", tmp_path / "parent"
    # Seed 3 ran on the change only, seed 4 on the parent only; the
    # traced run is not paired.
    _write_runs(
        change,
        [
            _record(1, 8.0, 1.0),
            _record(2, 9.0, 1.2),
            _record(3, 1.0, 1.1),
            _record(5, 0.5, 1.0, trace=1),
        ],
        "4 failed, 263 passed in 90.00s",
    )
    _write_runs(
        parent,
        [_record(1, 10.0, 1.0), _record(2, 8.0, 1.2), _record(4, 99.0, 1.1)],
        "5 failed, 262 passed in 95.00s",
    )
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(LEDGER), str(change), str(out), str(parent)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads(out.read_text())

    assert ledger["tier1"]["failed"] == 4
    assert ledger["parent"]["tier1"]["failed"] == 5
    assert ledger["workloads"]["desk-quality"]["seeds"] == [1, 2, 3, 5]
    assert ledger["parent"]["workloads"]["desk-quality"]["seeds"] == [1, 2, 4]
    parent_desk = ledger["parent"]["workloads"]["desk-quality"]
    assert parent_desk["end_to_end"]["pair_cost"]["median"] == 10.0

    desk = ledger["paired"]["desk-quality"]
    assert desk["seeds"] == [1, 2]
    assert desk["pair_cost"] == {
        "change_median": 8.5,
        "parent_median": 9.0,
        "median_rel_change": (-0.2 + 0.125) / 2,
        "change_lower": 1,
    }
    assert desk["peak_rss_mb"]["median_rel_change"] == 0.0
    assert desk["peak_rss_mb"]["change_lower"] == 0


def test_ledger_refuses_a_seed_run_twice_on_one_side(tmp_path):
    change, parent = tmp_path / "change", tmp_path / "parent"
    _write_runs(change, [_record(1, 8.0, 1.0)], "1 passed in 1.00s")
    _write_runs(parent, [_record(1, 8.0, 1.0), _record(1, 9.0, 1.0)], "1 passed in 1.00s")
    proc = subprocess.run(
        [sys.executable, str(LEDGER), str(change), str(tmp_path / "out.json"), str(parent)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "seed 1" in proc.stderr
    assert not (tmp_path / "out.json").exists()
