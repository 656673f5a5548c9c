"""Run-to-run spread of the end-to-end metrics over ten seeds.

Usage: python3 perfbench/spread.py --workload NAME

Runs ``perfbench/run.py`` once for each of the seeds 1 to 10 and
prints, per metric, the median and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json. A steady
benchmark keeps each spread, ``setup_s`` aside, below a third of its
bound. For desk-quality it also prints each desk rho's median and its
largest distance from it as a share, read from the run records: the
numbers behind ``DESK_RHO`` and ``RHO_BAND`` in ``perfbench/metrics.py``.
The wall-clock ``pairs_per_s`` of the provenance line, which has no
bound, is printed the same way, for comparison with ``pair_cost``.
Exits 1 if any run failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    wall: list[float] = []
    rho: dict[str, list[float]] = {}
    incorrect = 0
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        incorrect += not result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        record = json.loads(
            (ROOT / ".perfbench" / f"result-{args.workload}.json").read_text(encoding="utf-8")
        )
        wall.append(record["provenance"]["pairs_per_s"])
        seen = {}
        for run_pass in record["passes"]:
            for name, value in run_pass["extras"].items():
                if name.startswith("rho."):
                    rho.setdefault(name, []).append(value)
                    seen[name] = value
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          **{k: v[-1] for k, v in values.items()},
                          "wall_pairs_per_s": wall[-1], **seen}), flush=True)
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        print(
            f"{metric['name']:<14} median {statistics.median(series):.4g} "
            f"spread {spread(series):.4f} bound {metric['bound']}"
        )
    print(f"{'pairs_per_s':<14} median {statistics.median(wall):.4g} "
          f"spread {spread(wall):.4f} (wall clock, no bound)")
    for name, series in rho.items():
        median = statistics.median(series)
        furthest = max(abs(v / median - 1.0) for v in series)
        print(f"{name:<17} median {median:.4g} furthest {furthest:.4f} n={len(series)}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
