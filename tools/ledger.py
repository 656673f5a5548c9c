"""Fold benchmark result records and a Tier-1 run into one ledger file.

Usage: python tools/ledger.py INPUT_DIR OUTPUT_PATH

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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    in_dir, out_path = Path(argv[0]), Path(argv[1])
    paths = sorted(in_dir.glob("result-*.json"))
    if not paths:
        print(f"no result-*.json files in {in_dir}", file=sys.stderr)
        return 1
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    tier1 = parse_tier1((in_dir / "tier1.txt").read_text(encoding="utf-8").strip().splitlines()[-1])
    out_path.write_text(json.dumps(fold(records, tier1), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
