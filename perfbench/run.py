"""idiobench benchmark: three workloads through the real CLI stages.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each stage runs as its own ``python -m idiobench.cli`` process, one at a
time, from ``src/`` of the checkout. A run sets up four times (fresh
workspace, interpreter probe, desk pairs), times a bare interpreter
spawn for provenance, runs the workload's pass and then repeats it (on
bench-sweep and desk-quality only its stages after ``bench``) while the
next repeat still fits in ``--seconds``, with one set-up after each, and
sets up four times more; ``setup_s`` is the median of all set-ups. After
every set-up and every stage it times a fixed reference task, and
``pair_cost`` is harness time per pair in units of that task's mean
time, so that the host's speed cancels out. The last stdout line is one
JSON object:
``correct``, ``attempted``, ``failed`` (one operation is one pair
through one stage) and ``metrics``. With ``--trace 0`` those are the end-to-end metrics. With
``--trace 1`` the run makes one untraced and one traced pass, and the
metrics are the per-layer ones of the traced pass, whose stages run
under ``perfbench/tracer.py``. The line before it holds the run's
provenance. A full record and the traced spans are written under
``.perfbench/`` in the checkout. The exit code is 0 only if every output
check passed; 2 means the checkout holds no idiobench sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    DESK_RHO,
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    StageRun,
    count_records,
    desk_results,
    layer_metrics,
    measures_with_timing_child,
    rho_in_band,
    self_time_table,
    stage_outcome,
    store_payload_s,
    unclassifiable_by_design,
)

# Set-ups before the passes, after each pass and after the last one:
# host speed drifts within a run, and spreading the samples keeps their
# median steady.
SETUPS_BEFORE = 4
SETUPS_AFTER = 4
SPAWN_FLOOR_REPEATS = 11
# A fixed task that uses no idiobench code: a fresh interpreter compiling
# a small function and serializing small objects, about 0.1 s. A run
# times it after every set-up and every stage; ``pair_cost`` is harness
# time in units of its mean, so that host speed cancels out.
REFERENCE_SOURCE = (
    "import json\n"
    "src = 'def f(x):\\n    return [i * x for i in range(10)]\\n'\n"
    "t = 0\n"
    "for i in range(1500):\n"
    "    compile(src, '<ref>', 'exec')\n"
    "    t += len(json.dumps({'k': i, 'v': [i, i + 1]}))\n"
)
# Every run must end within 180 s; stages get what is left of this.
RUN_BUDGET_S = 170.0
TIMED_OUT = -9


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    pairs: int
    stages: tuple[Stage, ...]
    on_desk: bool = False
    # Pairs whose data size exceeds this are removed right after gen.
    max_size: int | None = None
    # A repeat runs the stages from this one on again in the same pass
    # directory; None repeats the whole pass in a fresh one.
    repeat_from: str | None = None

    @property
    def repeat_stages(self) -> tuple[Stage, ...]:
        if self.repeat_from is None:
            return self.stages
        return self.stages[[s.name for s in self.stages].index(self.repeat_from) :]


# The sweeps measure the harness, not the payload. Pairs over 10^4 data
# items run seconds of payload in the runtime probe and in each timed
# iteration, so they would make a pass payload-bound and its length
# depend on which sizes the seed draws.
MAX_SWEEP_SIZE = 10**4

_BENCH_SHORT = ("bench", "--in", "{pairs}", "--timings", "{store}", "--n", "3", "--k", "5")
_BENCH_DESK = (
    "bench", "--in", "{pairs}", "--timings", "{store}",
    "--n", "5", "--k", "20", "--warmup", "3", "--min-iteration-ns", "5000000",
)

WORKLOADS = {
    # Analysis children only: 2 snapshot spawns per pair in check, 2 dis
    # spawns and 1 probe spawn per pair in diff; bench never runs.
    # gen's systematic sample aliases with the eight-level size dimension
    # at --limit 10 (every pick of a sized idiom gets one size); 11 spreads
    # the picks over the sizes.
    "analyze-sweep": Workload(
        pairs=99,
        max_size=MAX_SWEEP_SIZE,
        stages=(
            Stage("gen", ("gen", "--limit", "11", "--seed", "{seed}", "--out", "{pairs}")),
            Stage("refactor", ("refactor", "--in", "{pairs}")),
            Stage("check", ("check", "--in", "{pairs}")),
            Stage("diff", ("diff", "--in", "{pairs}", "--probe")),
        ),
    ),
    # Short protocol, so the per-invocation harness dominates bench; the
    # second bench finds the store complete and must add nothing. The
    # stages from the resume pass on only read the store, so the run
    # repeats them to measure them for longer.
    "bench-sweep": Workload(
        pairs=27,
        max_size=MAX_SWEEP_SIZE,
        repeat_from="bench-resume",
        stages=(
            Stage("gen", ("gen", "--limit", "3", "--seed", "{seed}", "--out", "{pairs}")),
            Stage("refactor", ("refactor", "--in", "{pairs}")),
            Stage("bench", _BENCH_SHORT),
            Stage("bench-resume", _BENCH_SHORT),
            Stage("stats", ("stats", "--timings", "{store}", "--in", "{pairs}", "--out", "{results}")),
            Stage("analyze", ("analyze", "--results", "{results}")),
            Stage("report", ("report", "--results", "{results}")),
        ),
    ),
    # The criterion-4 desk pairs at the desk protocol of
    # tests/test_acceptance.py, with 5 invocations instead of 10 so one
    # pass fits a run, through the same measuring stages as bench-sweep;
    # stats runs perf_change(B=1000, seed=0). Timed payload dominates
    # bench; the run repeats the stages after it, as on bench-sweep.
    "desk-quality": Workload(
        pairs=len(DESK_RHO),
        on_desk=True,
        repeat_from="bench-resume",
        stages=(
            Stage("bench", _BENCH_DESK),
            Stage("bench-resume", _BENCH_DESK),
            Stage(
                "stats",
                (
                    "stats", "--timings", "{store}", "--in", "{pairs}",
                    "--out", "{results}", "--warmup", "3",
                    "--bootstrap", "1000", "--seed", "0",
                ),
            ),
            Stage("analyze", ("analyze", "--results", "{results}")),
            Stage("report", ("report", "--results", "{results}")),
        ),
    ),
}


@dataclass
class Context:
    seed: int
    deadline: float
    env: dict[str, str]
    desk_dir: Path
    desk_ids: dict[str, str]
    reference_s: list[float]


@dataclass
class PassResult:
    pairs: int
    runs: list[StageRun] = field(default_factory=list)
    payload_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    unclassifiable_exempt: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs)

    @property
    def harness_s(self) -> float:
        """Stage wall time minus the in-child timed payload.

        A stage that ran more than once counts with its median wall.
        """
        walls: dict[str, list[float]] = {}
        for run in self.runs:
            walls.setdefault(run.name, []).append(run.wall_s)
        return sum(statistics.median(w) for w in walls.values()) - self.payload_s


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _spawn(argv: list[str], env: dict[str, str], cwd: Path, timeout: float) -> tuple[int, str]:
    """Run one stage to completion.

    The stage gets its own process group, so that on a timeout or an
    interrupt the stage and the timing children it started are killed
    together.
    """
    with subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            sys.stderr.write(f"timed out after {timeout:.0f}s: {' '.join(argv[:4])}\n")
            return TIMED_OUT, ""
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0:
        sys.stderr.write(stderr[-2000:])
    return proc.returncode, stdout


def run_stage(stage: Stage, fmt: dict[str, str], ctx: Context, pass_dir: Path, traced: bool) -> StageRun:
    args = [part.format(**fmt) for part in stage.argv]
    trace_file = pass_dir / f"trace-{stage.name}.json"
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file), stage.name, *args]
    else:
        argv = [sys.executable, "-m", "idiobench.cli", *args]
    cpu0 = _children_cpu_s()
    spawned_at = time.monotonic()
    returncode, stdout = _spawn(argv, ctx.env, pass_dir, ctx.deadline - spawned_at)
    wall = time.monotonic() - spawned_at
    run = StageRun(stage.name, returncode, stdout, wall, _children_cpu_s() - cpu0, spawned_at)
    if traced and trace_file.exists():
        run.spans = json.loads(trace_file.read_text(encoding="utf-8"))["spans"]
    return run


def run_pass(
    workload: Workload,
    ctx: Context,
    pass_dir: Path,
    traced: bool,
    result: PassResult | None = None,
) -> PassResult:
    """Run the workload's stages in ``pass_dir``.

    Given the ``result`` of an earlier pass in the same directory, run the
    stages from ``workload.repeat_from`` on again and add to it.
    """
    stages = workload.stages
    if result is None:
        pass_dir.mkdir(parents=True)
        result = PassResult(pairs=workload.pairs)
    else:
        stages = workload.repeat_stages
    pairs = ctx.desk_dir if workload.on_desk else pass_dir / "pairs"
    store = pass_dir / "timings.jsonl"
    results = pass_dir / "results.csv"
    fmt = {"pairs": str(pairs), "store": str(store), "results": str(results), "seed": str(ctx.seed)}
    for index, stage in enumerate(stages):
        before = store.read_bytes() if stage.name == "bench-resume" and store.exists() else None
        run = run_stage(stage, fmt, ctx, pass_dir, traced)
        result.runs.append(run)
        time_reference(ctx.env, ctx.reference_s)
        exempt = exempt_pair_ids(pairs) if stage.name == "diff" else frozenset()
        attempted, failed = stage_outcome(
            stage.name, run.stdout, run.returncode, result.pairs, exempt
        )
        if stage.name == "gen" and workload.max_size is not None:
            result.pairs = drop_large_pairs(pairs, workload.max_size)
        elif stage.name == "bench" and store.exists():
            result.payload_s = store_payload_s(store)
        elif stage.name == "bench-resume":
            # The resume pass must read the complete store, not write it,
            # and must start no timing or calibration child.
            if before is None or store.read_bytes() != before:
                failed = attempted
            failed = max(failed, measures_with_timing_child(run.spans))
        elif stage.name == "check":
            result.extras["equivalence.check.not_equivalent"] = count_records(
                run.stdout, "status", "Equivalent", negate=True
            )
        elif stage.name == "diff":
            result.extras["bytecode.unclassifiable"] = count_records(
                run.stdout, "root_cause", "Unclassifiable"
            )
            result.unclassifiable_exempt = count_records(
                run.stdout, "root_cause", "Unclassifiable", pair_ids=exempt
            )
        elif stage.name == "stats" and workload.on_desk:
            # Every desk rho must stay in its band around the recorded median.
            found = desk_results(results, ctx.desk_ids) if results.exists() else {}
            in_band = [n for n, v in found.items() if rho_in_band(n, v["rho"])]
            failed = max(failed, len(DESK_RHO) - len(in_band))
            for name, values in found.items():
                if math.isfinite(values["rho"]):
                    result.extras[f"rho.{name}"] = values["rho"]
                    result.extras[f"stats.rciw.{name}"] = values["rciw"]
        result.attempted += attempted
        result.failed += failed
        if run.returncode == TIMED_OUT:
            # The run's time is up: the stages not started fail every pair.
            skipped = result.pairs * (len(stages) - index - 1)
            result.attempted += skipped
            result.failed += skipped
            break
    return result


def drop_large_pairs(pairs_dir: Path, max_size: int) -> int:
    """Delete pair files whose data size exceeds ``max_size``; return how many remain."""
    kept = 0
    for path in sorted(pairs_dir.glob("*.json")):
        features = json.loads(path.read_text(encoding="utf-8")).get("features") or {}
        if (features.get("size") or 0) > max_size:
            path.unlink()
        else:
            kept += 1
    return kept


def exempt_pair_ids(pairs_dir: Path) -> frozenset[str]:
    """Ids of the pairs that ``diff`` answers Unclassifiable by design."""
    ids = set()
    for path in pairs_dir.glob("*.json"):
        pair = json.loads(path.read_text(encoding="utf-8"))
        if unclassifiable_by_design(pair):
            ids.add(pair["pair_id"])
    return frozenset(ids)


def time_setup(
    setup_dir: Path, env: dict[str, str], reference_s: list[float]
) -> tuple[float, dict[str, Any]]:
    """One set-up: fresh workspace, interpreter probe, desk pairs.

    The reference task is timed after it, into ``reference_s``.
    """
    started = time.monotonic()
    shutil.rmtree(setup_dir, ignore_errors=True)
    setup_dir.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), str(setup_dir / "desk")],
        cwd=setup_dir,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    time_reference(env, reference_s)
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def time_reference(env: dict[str, str], samples: list[float]) -> None:
    """Append the wall time of REFERENCE_SOURCE in a fresh interpreter."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-I", "-S", "-c", REFERENCE_SOURCE], env=env, check=True)
    samples.append(time.monotonic() - started)


def pair_cost(passes: list[PassResult], reference_s: list[float]) -> float:
    """Harness seconds per pair, in units of the mean reference time.

    The median over the passes. Host speed flips between two levels
    every few seconds, and the mix drifts over minutes; the mean of the
    reference samples follows the mix, where their median would jump
    between the levels.
    """
    per_pair = statistics.median(p.harness_s / p.pairs for p in passes)
    return per_pair / statistics.mean(reference_s)


def spawn_floor_ms() -> float:
    """Median wall time of a bare ``python -I -S -c pass`` spawn."""
    samples = []
    for _ in range(SPAWN_FLOOR_REPEATS):
        started = time.monotonic()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        samples.append(1000.0 * (time.monotonic() - started))
    return statistics.median(samples)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _trace_record(runs: list[StageRun]) -> dict[str, Any]:
    spans = []
    for run in runs:
        offset = len(spans)
        for span in run.spans:
            parent = span["parent"]
            spans.append({**span, "parent": None if parent is None else parent + offset})
    return {"spans": spans, "self_time": self_time_table(runs)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "idiobench" / "cli.py").is_file():
        sys.stderr.write(f"no idiobench sources under {ROOT / 'src'}; nothing to measure\n")
        return 2

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    env = _child_env()
    load_start = os.getloadavg()
    try:
        reference: list[float] = []
        setups = [time_setup(work / f"setup-{i}", env, reference) for i in range(SETUPS_BEFORE)]
        info = setups[-1][1]
        if not Path(info["idiobench_file"]).resolve().is_relative_to(ROOT / "src"):
            sys.stderr.write(f"idiobench was imported from {info['idiobench_file']}\n")
            return 2
        floor_ms = spawn_floor_ms()
        ctx = Context(
            seed=args.seed,
            deadline=started + RUN_BUDGET_S,
            env=env,
            desk_dir=work / f"setup-{SETUPS_BEFORE - 1}" / "desk",
            desk_ids=info["desk"],
            reference_s=reference,
        )
        measure_start = time.monotonic()
        passes: list[PassResult] = []
        repeats = 0
        if args.trace:
            passes.append(run_pass(workload, ctx, work / "pass-0", traced=False))
            passes.append(run_pass(workload, ctx, work / "pass-1", traced=True))
        else:
            while True:
                if passes and workload.repeat_from is not None:
                    repeats += 1
                    run_pass(workload, ctx, work / "pass-0", traced=False, result=passes[-1])
                else:
                    passes.append(run_pass(workload, ctx, work / f"pass-{len(passes)}", traced=False))
                # What the next repeat should take: the last run of its stages.
                took = sum(r.wall_s for r in passes[-1].runs[-len(workload.repeat_stages) :])
                setups.append(time_setup(work / f"setup-{len(setups)}", env, reference))
                if time.monotonic() + took - measure_start > args.seconds:
                    break
                if passes[-1].runs[-1].returncode == TIMED_OUT:
                    break
        setups += [
            time_setup(work / f"setup-{len(setups)}", env, reference) for _ in range(SETUPS_AFTER)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    untraced = passes[:1] if args.trace else passes
    # Wall-clock throughput, as a user on this host would see it right now.
    pairs_per_s = statistics.median(p.pairs / p.harness_s for p in untraced)
    if args.trace:
        traced = passes[-1]
        extras = dict(traced.extras)
        extras["failed_share"] = failed / attempted
        extras["trace.overhead_s"] = traced.harness_s - passes[0].harness_s
        extras["pairs_per_s"] = pairs_per_s
        extras["reference_s"] = statistics.mean(reference)
        values = layer_metrics(traced.runs, traced.payload_s, extras)
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "pair_cost": pair_cost(passes, reference),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "interpreter_id": info["interpreter_id"],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "bench.spawn_floor_ms": floor_ms,
        "pairs_per_s": pairs_per_s,
        "reference_s": statistics.mean(reference),
        "bytecode.unclassifiable_exempt": passes[-1].unclassifiable_exempt,
        "passes": len(passes),
        "repeats": repeats,
        "run_wall_s": time.monotonic() - started,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "provenance": provenance,
        "setup_s": [s for s, _ in setups],
        "passes": [
            {
                "pairs": p.pairs,
                "harness_s": p.harness_s,
                "wall_s": p.wall_s,
                "payload_s": p.payload_s,
                "attempted": p.attempted,
                "failed": p.failed,
                "extras": p.extras,
                "stages": [
                    {"name": r.name, "returncode": r.returncode, "wall_s": r.wall_s, "cpu_s": r.cpu_s}
                    for r in p.runs
                ],
            }
            for p in passes
        ],
        "result": result,
        "reference_s": reference,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}.json").write_text(json.dumps(record, indent=2))
    if args.trace:
        (out_dir / f"trace-{args.workload}.json").write_text(json.dumps(_trace_record(passes[-1].runs)))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # Unwind as on an interrupt: the running stage's process group is
    # killed and the work directory removed.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
