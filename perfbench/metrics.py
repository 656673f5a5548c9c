"""Metric definitions and extraction for the idiobench benchmark.

Everything here is a pure function of what the stages left behind: their
stdout, the JSONL timing store, the results CSV and the tracer's spans.
Failure accounting reads the stages' own summaries and per-pair records;
nothing is re-derived from the pairs.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text("utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Median rho of each desk pair over desk-quality seeds 1-10 on CPython
# 3.11.7 (2 vCPUs), as perfbench/spread.py prints it. A desk rho more than
# RHO_BAND away from it, as a share, either way, fails the run: a change to
# the timing child or the protocol must not move what the instrument
# measures. Over twenty runs the furthest rho was 23% from its median
# (listcomp-0), and the band must hold on every run, hence 0.4.
# Re-measure both on another interpreter.
DESK_RHO = {
    "listcomp-1e4": 1.38,
    "tvt-fraction": 14.2,
    "assign-4": 0.541,
    "swap-2": 1.10,
    "listcomp-0": 0.351,
}
RHO_BAND = 0.4


@dataclass
class StageRun:
    """One idiobench stage process as the benchmark saw it."""

    name: str
    returncode: int
    stdout: str
    wall_s: float
    cpu_s: float
    spawned_at: float
    spans: list[dict[str, Any]] = field(default_factory=list)


# ============================================================
# Stage outputs and failure accounting
# ============================================================


def _json_lines(text: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in text.splitlines() if line.startswith("{")]


def stage_outcome(
    name: str, stdout: str, returncode: int, expected: int, exempt: frozenset[str] = frozenset()
) -> tuple[int, int]:
    """(attempted, failed) for one stage over ``expected`` pairs.

    One operation is one pair through one stage. Counts come from the
    stage's own JSON summary or per-pair records. A count that should
    equal ``expected`` but does not counts the difference as failed; an
    unreadable output or a nonzero exit with no failure recorded counts
    every pair as failed.

    An ``Unclassifiable`` diff record fails, except for the pairs in
    ``exempt`` (see ``unclassifiable_by_design``); the exit status 1 that
    ``diff`` returns for those is expected.
    """
    exit_explained = False
    try:
        if name == "gen":
            failed = abs(expected - _json_lines(stdout)[-1]["written"])
        elif name in ("refactor", "bench", "bench-resume"):
            summary = _json_lines(stdout)[-1]
            done = summary["refactored" if name == "refactor" else "measured"]
            failed = summary["failed"] + abs(expected - done - summary["failed"])
        elif name == "check":
            records = _json_lines(stdout)
            failed = sum(r["status"] != "Equivalent" for r in records)
            failed += abs(expected - len(records))
        elif name == "diff":
            records = _json_lines(stdout)
            unclassified = [r for r in records if r["root_cause"] == "Unclassifiable"]
            failed = abs(expected - len(records))
            failed += sum(r["pair_id"] not in exempt for r in unclassified)
            exit_explained = returncode == 1 and bool(unclassified)
        elif name == "stats":
            failed = abs(expected - _json_lines(stdout)[-1]["rows"])
        elif name == "analyze":
            idioms = json.loads(stdout)["idioms"]
            failed = abs(expected - sum(entry["pairs"] for entry in idioms.values()))
        elif name == "report":
            match = re.search(r"^Pairs analyzed: (\d+)$", stdout, re.M)
            failed = abs(expected - int(match.group(1)))  # type: ignore[union-attr]
        else:
            raise ValueError(f"unknown stage {name!r}")
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return expected, expected
    failed = min(failed, expected)
    if returncode != 0 and failed == 0 and not exit_explained:
        failed = expected
    return expected, failed


def unclassifiable_by_design(pair: dict[str, Any]) -> bool:
    """True for a pair the classifier answers ``Unclassifiable`` by design.

    That is a pure two- or three-target assignment, given as a pair's
    JSON. CPython 3.11 compiles ``a_0, a_1 = (v_0, v_1)`` to the same loads
    and stores as two plain assignments, reordered, so the opcode
    multisets match; equal streams are the classifier's documented
    ``Unclassifiable`` case. On CPython 3.11.7 no other vector of the
    matrix with data size up to 10^4 comes out ``Unclassifiable``.
    """
    features = pair.get("features") or {}
    return (
        pair.get("idiom") == "assign-multi-targets"
        and features.get("is_swap") is False
        and features.get("is_const") is False
        and (features.get("node_counts") or {}).get("num_assign") in (2, 3)
    )


def count_records(
    stdout: str, key: str, value: str, negate: bool = False, pair_ids: frozenset[str] | None = None
) -> int:
    """Per-pair records whose ``key`` equals (or, negated, differs from) ``value``.

    With ``pair_ids``, only the records of those pairs count.
    """
    return sum(
        (r.get(key) == value) != negate
        for r in _json_lines(stdout)
        if pair_ids is None or r.get("pair_id") in pair_ids
    )


def store_payload_s(path: Path) -> float:
    """In-child timed payload in a timing store, in seconds.

    Each invocation row holds per-repetition durations; the child timed
    ``timings_ns[i] * repetitions`` for iteration i.
    """
    total_ns = 0.0
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("kind", "invocation") == "invocation":
                total_ns += sum(record["timings_ns"]) * int(record["repetitions"])
    return total_ns / 1e9


def desk_results(results_csv: Path, desk_ids: dict[str, str]) -> dict[str, dict[str, float]]:
    """rho and RCIW of each desk pair found in a results CSV, by desk name."""
    with Path(results_csv).open("r", encoding="utf-8", newline="") as fh:
        rows = {row["pair_id"]: row for row in csv.DictReader(fh)}
    out = {}
    for name, pair_id in desk_ids.items():
        row = rows.get(pair_id)
        if row is not None:
            out[name] = {"rho": float(row["rho"]), "rciw": float(row["rciw"])}
    return out


def rho_in_band(name: str, value: float) -> bool:
    """Whether a desk rho is finite and within RHO_BAND of its median."""
    return math.isfinite(value) and abs(value / DESK_RHO[name] - 1.0) <= RHO_BAND


# ============================================================
# Spans
# ============================================================


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _ancestor_names(spans: list[dict[str, Any]], index: int) -> Iterator[str]:
    parent = spans[index]["parent"]
    while parent is not None:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


def _spans(runs: Iterable[StageRun], stages: Iterable[str] | None = None):
    wanted = set(stages) if stages is not None else None
    for run in runs:
        if wanted is None or run.name in wanted:
            yield run.spans


def span_total(
    runs: Iterable[StageRun],
    name: str,
    *,
    under: str | None = None,
    not_under: str | None = None,
    parent: str | None = None,
    stages: Iterable[str] | None = None,
) -> tuple[float, int, int, int]:
    """(seconds, calls, spawns, raised) over spans called ``name``.

    ``under``/``not_under`` filter on any ancestor's name, ``parent`` on
    the direct parent's. Seconds count a recursive call once; spawns are
    ``subprocess.Popen`` spans anywhere below the matching spans.
    """
    seconds, calls, spawns, raised = 0.0, 0, 0, 0
    for spans in _spans(runs, stages):
        matched: set[int] = set()
        for index, span in enumerate(spans):
            if span["name"] != name:
                continue
            ancestors = list(_ancestor_names(spans, index))
            if under is not None and under not in ancestors:
                continue
            if not_under is not None and not_under in ancestors:
                continue
            if parent is not None and (not ancestors or ancestors[0] != parent):
                continue
            matched.add(index)
            calls += 1
            raised += "raised" in span
            if name not in ancestors:
                seconds += span["end"] - span["start"]
        for index, span in enumerate(spans):
            if span["name"] == "subprocess.Popen":
                node = span["parent"]
                while node is not None and node not in matched:
                    node = spans[node]["parent"]
                spawns += node is not None
    return seconds, calls, spawns, raised


def measures_with_timing_child(spans: list[dict[str, Any]]) -> int:
    """``bench.measure`` calls that started a timing or calibration child."""
    timing = {"bench.run_invocation", "bench.calibrate"}
    hits = set()
    for index, span in enumerate(spans):
        if span["name"] not in timing:
            continue
        node = span["parent"]
        while node is not None and spans[node]["name"] != "bench.measure":
            node = spans[node]["parent"]
        if node is not None:
            hits.add(node)
    return len(hits)


def stage_startup_s(run: StageRun) -> float:
    """Spawn to entry into ``cli.main``, from the tracer's span."""
    for span in run.spans:
        if span["name"] == "cli.main":
            return span["start"] - run.spawned_at
    return 0.0


# ============================================================
# Per-layer metrics
# ============================================================


def layer_metrics(
    runs: list[StageRun], payload_s: float, extras: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric for one traced pass; 0 for unexercised layers.

    ``payload_s`` is the timed payload the pass's ``bench`` stage wrote.
    ``extras`` holds values read from stage outputs (counts, rho, RCIW,
    failure share, tracing overhead) and overrides nothing else.
    """
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for run in runs:
        out[f"cli.{run.name}.wall_s"] += run.wall_s
        out[f"cli.{run.name}.cpu_s"] += run.cpu_s
        out[f"cli.{run.name}.startup_s"] += stage_startup_s(run)
        out[f"cli.{run.name}.spawns"] += sum(
            span["name"] == "subprocess.Popen" for span in run.spans
        )

    s, calls, spawns, _ = span_total(runs, "equivalence.check", not_under="bench.measure")
    out["equivalence.check.s"], out["equivalence.check.calls"] = s, calls
    out["equivalence.check.spawns"] = spawns
    s, calls, _, _ = span_total(runs, "equivalence.check", under="bench.measure")
    out["bench.gate.s"], out["bench.gate.calls"] = s, calls
    for fn in ("disassemble_source", "runtime_probe", "diff_report"):
        s, calls, _, _ = span_total(runs, f"bytecode.{fn}")
        out[f"bytecode.{fn}.s"], out[f"bytecode.{fn}.calls"] = s, calls

    s, calls, _, _ = span_total(runs, "bench.run_invocation", parent="bench.measure")
    out["bench.run_invocation.s"], out["bench.run_invocation.calls"] = s, calls
    out["bench.payload_s"] = payload_s
    if calls:
        out["bench.payload_share"] = payload_s / s
        out["bench.overhead_ms_per_invocation"] = 1000.0 * (s - payload_s) / calls
    s, _, spawns, _ = span_total(runs, "bench.calibrate")
    out["bench.calibrate.s"], out["bench.calibrate.spawns"] = s, spawns
    out["bench.TimingStore.load_s"] = span_total(runs, "bench.TimingStore.load")[0]
    out["bench.resume.new_invocations"] = span_total(
        runs, "bench.run_invocation", stages=["bench-resume"]
    )[1]
    bench_wall = sum(run.wall_s for run in runs if run.name == "bench")
    if bench_wall:
        out["bench_overhead_s"] = bench_wall - payload_s

    s, calls, _, _ = span_total(runs, "stats.perf_change")
    out["stats.perf_change.s"], out["stats.perf_change.calls"] = s, calls
    out["bench.import_s"] = span_total(runs, "import.bench")[0]
    out["stats.import_s"] = span_total(runs, "import.stats")[0]
    s, calls, _, _ = span_total(runs, "catalog.enumerate_matrix")
    out["catalog.enumerate_matrix.s"], out["catalog.enumerate_matrix.calls"] = s, calls
    for fn in ("synthesize", "load_pairs", "save_pair"):
        out[f"synth.{fn}.s"] = span_total(runs, f"synth.{fn}")[0]
    s, calls, _, raised = span_total(runs, "refactor.refactor_pair")
    out["refactor.refactor_pair.s"], out["refactor.refactor_pair.calls"] = s, calls
    out["refactor.refactor_pair.failed"] = raised
    out["trace.spans"] = sum(len(run.spans) for run in runs)

    unknown = set(extras) - set(out)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    out.update(extras)
    return out


def self_time_table(runs: list[StageRun]) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name over all stages."""
    table: dict[str, dict[str, float]] = {}
    for spans in _spans(runs):
        for span, own in zip(spans, self_times(spans)):
            row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span["end"] - span["start"]
            row["self_s"] += own
    return table
