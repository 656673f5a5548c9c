"""Fold benchmark result records and a Tier-1 run into one ledger file.

Usage: python tools/ledger.py INPUT_DIR OUTPUT_PATH [PARENT_DIR]

INPUT_DIR holds the records that ``perfbench/run.py`` writes as
``.perfbench/result-<workload>.json``, one file per run, under any name
matching ``result-*.json`` (copy each run's record aside before the
next run overwrites it). It also holds ``tier1.txt``: the final summary
line of the Tier-1 pytest run, such as ``263 passed, 3 failed in
95.12s``.

OUTPUT_PATH gets one JSON document. Per workload, untraced runs give the
end-to-end metrics (and, on desk-quality, each desk pair's rho and
RCIW) and traced runs the per-layer metrics; each metric
carries its unit, median, quartiles (``statistics.quantiles(values,
n=4)``, as in ``perfbench/spread.py``) and every run's value. Next to
them are the runs' outcome counts and their provenance: seeds, run
length, interpreter, CPU count, git revision and source digest. The
Tier-1 entry has the pass and fail counts and the wall time.

PARENT_DIR, if given, holds the parent commit's records and Tier-1 line
in the same layout; its fold goes under ``"parent"``. Then ``"paired"``
compares the two sides per workload and end-to-end metric over the seeds
that both ran untraced: each side's median over those seeds, the median
per-seed relative change (change - parent) / parent, and the number of
seeds on which the change is lower. A side may run a seed once per
workload untraced.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path
from typing import Any

_TIER1_COUNT = re.compile(r"(\d+) ([a-z]+)")
_TIER1_WALL = re.compile(r" in ([0-9.]+)s\b")
_PROVENANCE = ("interpreter_id", "python", "cpu_count", "seconds", "git_rev", "source_sha256")


def summarize(values: list[float]) -> dict[str, Any]:
    q1, q3 = (values[0], values[0]) if len(values) < 2 else statistics.quantiles(values, n=4)[::2]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def parse_tier1(line: str) -> dict[str, Any]:
    wall = _TIER1_WALL.search(line)
    if wall is None:
        raise ValueError(f"no wall time in Tier-1 summary {line!r}")
    counts = {kind: int(n) for n, kind in _TIER1_COUNT.findall(line)}
    return {"summary": line, **counts, "wall_s": float(wall.group(1))}


def _metrics(runs: list[dict[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        out[name] = {"unit": metric["unit"], **summarize(values)}
    return out


def _quality(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Desk rho and RCIW per run, read from each run's last pass."""
    series: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run["passes"][-1]["extras"].items():
            if name.startswith(("rho.", "stats.rciw.")):
                series.setdefault(name, []).append(value)
    return {name: summarize(values) for name, values in sorted(series.items())}


def _distinct(runs: list[dict[str, Any]], key: str) -> list[Any]:
    seen: list[Any] = []
    for run in runs:
        value = run["provenance"].get(key)
        if value not in seen:
            seen.append(value)
    return seen


def fold(records: list[dict[str, Any]], tier1: dict[str, Any]) -> dict[str, Any]:
    workloads: dict[str, Any] = {}
    by_name: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        by_name.setdefault(record["provenance"]["workload"], []).append(record)
    for name in sorted(by_name):
        runs = sorted(by_name[name], key=lambda r: (r["provenance"]["trace"], r["provenance"]["seed"]))
        entry: dict[str, Any] = {
            "runs": len(runs),
            "seeds": [r["provenance"]["seed"] for r in runs],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
        }
        untraced = [r for r in runs if not r["provenance"]["trace"]]
        traced = [r for r in runs if r["provenance"]["trace"]]
        if untraced:
            entry["end_to_end"] = _metrics(untraced)
            if quality := _quality(untraced):
                entry["quality"] = quality
        if traced:
            entry["per_layer"] = _metrics(traced)
        entry["provenance"] = {key: _distinct(runs, key) for key in _PROVENANCE}
        workloads[name] = entry
    return {"tier1": tier1, "workloads": workloads}


def _untraced_by_seed(records: list[dict[str, Any]]) -> dict[str, dict[int, dict[str, float]]]:
    """Workload to seed to end-to-end metric values, over untraced runs."""
    out: dict[str, dict[int, dict[str, float]]] = {}
    for record in records:
        provenance = record["provenance"]
        if provenance["trace"]:
            continue
        seeds = out.setdefault(provenance["workload"], {})
        if provenance["seed"] in seeds:
            raise ValueError(
                f"two untraced {provenance['workload']} runs of seed {provenance['seed']}"
            )
        metrics = record["result"]["metrics"]
        seeds[provenance["seed"]] = {name: metric["value"] for name, metric in metrics.items()}
    return out


def paired(records: list[dict[str, Any]], parent_records: list[dict[str, Any]]) -> dict[str, Any]:
    change, parent = _untraced_by_seed(records), _untraced_by_seed(parent_records)
    out: dict[str, Any] = {}
    for name in sorted(change.keys() & parent.keys()):
        seeds = sorted(change[name].keys() & parent[name].keys())
        if not seeds:
            continue
        entry: dict[str, Any] = {"seeds": seeds}
        for metric in change[name][seeds[0]]:
            new = [change[name][seed][metric] for seed in seeds]
            old = [parent[name][seed][metric] for seed in seeds]
            entry[metric] = {
                "change_median": statistics.median(new),
                "parent_median": statistics.median(old),
                "median_rel_change": statistics.median((n - o) / o for n, o in zip(new, old)),
                "change_lower": sum(n < o for n, o in zip(new, old)),
            }
        out[name] = entry
    return out


def _read(in_dir: Path) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """A directory's run records and its parsed Tier-1 line."""
    paths = sorted(in_dir.glob("result-*.json"))
    if not paths:
        raise FileNotFoundError(f"no result-*.json files in {in_dir}")
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    tier1 = parse_tier1((in_dir / "tier1.txt").read_text(encoding="utf-8").strip().splitlines()[-1])
    return records, tier1


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    try:
        records, tier1 = _read(Path(argv[0]))
        ledger = fold(records, tier1)
        if len(argv) == 3:
            parent_records, parent_tier1 = _read(Path(argv[2]))
            ledger["parent"] = fold(parent_records, parent_tier1)
            ledger["paired"] = paired(records, parent_records)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    Path(argv[1]).write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
