"""Command-line pipeline: gen, refactor, check, bench, stats, analyze,
diff, report.

Stages communicate only through files: pair JSON documents in a
directory, a JSONL timing store, and a results CSV. Machine-readable
output goes to stdout, logs to stderr. Exit codes: 0 success, 1 stage
failure (divergent pair, measurement error), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from idiobench.catalog import IdiomKind
    from idiobench.synth import CodePair

# Each subcommand imports what it uses, so that, say, ``report`` loads
# neither the catalog nor the synthesizer.

log = logging.getLogger("idiobench")


def _idiom(value: str) -> IdiomKind:
    from idiobench.catalog import IdiomKind

    try:
        return IdiomKind(value)
    except ValueError:
        choices = ", ".join(k.value for k in IdiomKind)
        raise argparse.ArgumentTypeError(f"unknown idiom {value!r}; choose from {choices}")


def _stratified_indices(total: int, limit: int, seed: int) -> list[int]:
    """Deterministic systematic sample: equal strides, seeded offset."""
    if limit >= total:
        return list(range(total))
    import random

    offset = random.Random(seed).randrange(total)
    return sorted((offset + (i * total) // limit) % total for i in range(limit))


# ============================================================
# Subcommands
# ============================================================


def _cmd_gen(args: argparse.Namespace) -> int:
    from idiobench.catalog import IdiomKind, enumerate_matrix, matrix_to_csv
    from idiobench.synth import save_pair, synthesize

    idioms = [args.idiom] if args.idiom else list(IdiomKind)
    out_dir = Path(args.out)
    written = 0

    def sample(total: int) -> list[int]:
        return _stratified_indices(total, args.limit, args.seed)

    for idiom in idioms:
        vectors = enumerate_matrix(idiom, sample if args.limit else None)
        for vector in vectors:
            save_pair(synthesize(vector), out_dir)
            written += 1
        log.info("%s: %d pairs", idiom.value, len(vectors))
        if args.matrix_csv:
            csv_path = out_dir / f"matrix-{idiom.value}.csv"
            with csv_path.open("w", encoding="utf-8", newline="") as fh:
                matrix_to_csv(idiom, fh)
    print(json.dumps({"written": written, "out": str(out_dir)}))
    return 0


def _cmd_refactor(args: argparse.Namespace) -> int:
    from idiobench.refactor import NotApplicable, refactor_pair
    from idiobench.synth import load_pairs, save_pair

    pairs = load_pairs(Path(args.in_dir))
    if not pairs:
        log.error("no pair files found in %s", args.in_dir)
        return 1
    failures = 0
    for pair in pairs:
        if pair.idiomatic_source.strip() and not args.force:
            continue
        try:
            save_pair(refactor_pair(pair), Path(args.in_dir))
        except NotApplicable as exc:
            failures += 1
            log.error("pair %s: %s", pair.pair_id, exc)
    print(json.dumps({"refactored": len(pairs) - failures, "failed": failures}))
    return 1 if failures else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from idiobench import child
    from idiobench.equivalence import check, trial_sizes_for
    from idiobench.synth import load_pairs

    pairs = load_pairs(Path(args.in_dir))
    if not pairs:
        log.error("no pair files found in %s", args.in_dir)
        return 1

    def check_one(pair: CodePair) -> tuple[dict[str, Any], str | None]:
        sizes = None if args.trials is None else trial_sizes_for(pair, args.trials)
        record: dict[str, Any] = {"pair_id": pair.pair_id, "idiom": pair.idiom.value}
        try:
            report = check(pair, sizes=sizes)
        except ValueError as exc:
            return {**record, "status": "Error", "reason": str(exc)}, str(exc)
        record["status"] = report.status
        if report.status != "Equivalent":
            witness = report.witness
            record["witness"] = {
                "size": witness.size if witness else None,
                "detail": witness.detail if witness else {},
            }
        return record, None

    divergent = 0
    # Pairs are checked side by side; records and errors come out in
    # pair order.
    for pair, (record, error) in zip(pairs, child.imap(check_one, pairs)):
        if error is not None:
            log.error("pair %s: %s", pair.pair_id, error)
        if record["status"] != "Equivalent":
            divergent += 1
        print(json.dumps(record))
    log.info("checked %d pairs, %d not equivalent", len(pairs), divergent)
    return 1 if divergent else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from idiobench.bench import BenchConfig, BenchError, TimingStore, measure
    from idiobench.synth import load_pairs

    pairs = load_pairs(Path(args.in_dir))
    if not pairs:
        log.error("no pair files found in %s", args.in_dir)
        return 1
    cfg = BenchConfig(
        n_invocations=args.n,
        k_iterations=args.k,
        warmup=args.warmup,
        min_iteration_ns=args.min_iteration_ns,
        interpreter=args.interpreter,
    )
    store = TimingStore(Path(args.timings))
    failures = 0
    for index, pair in enumerate(pairs, 1):
        try:
            measure(pair, cfg, store, assume_equivalent=args.assume_equivalent)
            log.info("[%d/%d] %s done", index, len(pairs), pair.pair_id)
        except BenchError as exc:
            failures += 1
            log.error("pair %s: %s", pair.pair_id, exc)
    print(json.dumps({"measured": len(pairs) - failures, "failed": failures}))
    return 1 if failures else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from idiobench.bench import TimingStore, load_grid
    from idiobench.stats import PairResult, perf_change, write_results_csv
    from idiobench.synth import load_pairs

    store = TimingStore(Path(args.timings))
    pairs = {p.pair_id: p for p in load_pairs(Path(args.in_dir))}
    results: list[PairResult] = []
    failures = 0
    for pair_id in store.pair_ids():
        pair = pairs.get(pair_id)
        if pair is None:
            log.warning("timings for unknown pair %s skipped", pair_id)
            continue
        try:
            grid = load_grid(store, pair_id, args.warmup, pair)
        except (KeyError, ValueError) as exc:
            failures += 1
            log.error("pair %s skipped: %s", pair_id, exc)
            continue
        change = perf_change(
            *grid.halves(), B=args.bootstrap, confidence=args.confidence, seed=args.seed
        )
        results.append(
            PairResult(
                pair_id=pair_id, idiom=pair.idiom, features=pair.features, change=change
            )
        )
    if not results:
        log.error("no overlapping pairs between store and pair directory")
        return 1
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_results_csv(results, fh)
    print(json.dumps({"rows": len(results), "out": args.out}))
    return 1 if failures else 0


_CLASSES = ("Speedup", "Slowdown", "Unchanged")


def _results_by_idiom(path: str) -> dict[str, list[dict[str, str]]]:
    """Results CSV rows grouped by idiom, in idiom-name order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    groups: dict[str, list[dict[str, str]]] = {}
    for row in rows:
        groups.setdefault(row["idiom"], []).append(row)
    return dict(sorted(groups.items()))


def _class_percent(group: list[dict[str, str]]) -> dict[str, float]:
    classes = [r["classification"] for r in group]
    return {label: 100.0 * classes.count(label) / len(group) for label in _CLASSES}


def _cmd_analyze(args: argparse.Namespace) -> int:
    from idiobench.catalog import vector_from_row
    from idiobench.stats import distribution_summary, feature_correlation

    by_idiom = _results_by_idiom(args.results)
    if not by_idiom:
        log.error("results file is empty")
        return 1

    output: dict[str, Any] = {"idioms": {}}
    for idiom_name, group in by_idiom.items():
        rhos = [float(r["rho"]) for r in group]
        summary = distribution_summary(rhos)
        entry: dict[str, Any] = {
            "pairs": len(group),
            "rho": {
                "min": summary.minimum,
                "whisker_low": summary.whisker_low,
                "p25": summary.p25,
                "median": summary.median,
                "p75": summary.p75,
                "whisker_high": summary.whisker_high,
                "max": summary.maximum,
                "outliers": len(summary.outliers),
            },
            "percent": {
                label: round(share, 1) for label, share in _class_percent(group).items()
            },
        }
        vectors = [(vector_from_row(r), float(r["rho"])) for r in group]
        usable = [(v, rho) for v, rho in vectors if v is not None and rho > 0]
        if len(usable) >= 10:
            report = feature_correlation(
                usable, permutations=args.permutations, seed=args.seed
            )
            entry["feature_correlation"] = [
                {
                    "feature": e.feature,
                    "spearman_rho": round(e.spearman_rho, 4),
                    "permutation_p": round(e.permutation_p, 4),
                    "direction": e.direction,
                }
                for e in report.entries
            ]
            if report.skipped:
                entry["skipped_features"] = [list(item) for item in report.skipped]
            if report.vif_dropped:
                entry["vif_dropped"] = [
                    [name, round(value, 2)] for name, value in report.vif_dropped
                ]
        output["idioms"][idiom_name] = entry
    print(json.dumps(output, indent=2))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import subprocess

    from idiobench import child
    from idiobench.bench import ChildCrash, interpreter_id
    from idiobench.bytecode import diff_report
    from idiobench.synth import load_pairs

    pairs = load_pairs(Path(args.in_dir))
    if not pairs:
        log.error("no pair files found in %s", args.in_dir)
        return 1

    def diff_one(pair: CodePair) -> tuple[dict[str, Any], str | None]:
        try:
            return diff_report(pair, probe=args.probe, aligned=args.aligned), None
        except (ChildCrash, ValueError, subprocess.TimeoutExpired) as exc:
            record = {"pair_id": pair.pair_id, "root_cause": "Error", "evidence": [str(exc)]}
            return record, str(exc)

    # Fill the cache before the threads start: it has no lock, so each
    # thread would probe a target other than the running interpreter on
    # its own.
    interpreter_id(child.resolve_interpreter())
    unclassified = errors = 0
    for pair, (record, error) in zip(pairs, child.imap(diff_one, pairs)):
        if error is not None:
            errors += 1
            log.error("pair %s: %s", pair.pair_id, error)
        if record["root_cause"] == "Unclassifiable":
            unclassified += 1
        print(json.dumps(record))
    return 1 if unclassified or errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    import statistics

    by_idiom = _results_by_idiom(args.results)
    if not by_idiom:
        log.error("results file is empty")
        return 1
    lines = [
        "# Idiom performance report",
        "",
        f"Pairs analyzed: {sum(len(group) for group in by_idiom.values())}",
        "",
        "| idiom | pairs | median rho | % speedup | % slowdown | % unchanged |",
        "|---|---|---|---|---|---|",
    ]
    for idiom_name, group in by_idiom.items():
        percent = _class_percent(group)
        lines.append(
            "| {idiom} | {n} | {median:.3f} | {up:.1f} | {down:.1f} | {flat:.1f} |".format(
                idiom=idiom_name,
                n=len(group),
                median=statistics.median(float(r["rho"]) for r in group),
                up=percent["Speedup"],
                down=percent["Slowdown"],
                flat=percent["Unchanged"],
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        log.info("wrote %s", args.out)
    else:
        print(text, end="")
    return 0


# ============================================================
# Parser
# ============================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idiobench",
        description="Synthesize, refactor, differentially check, benchmark, "
        "and explain Python idiom code pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="synthesize pairs from the feature matrix")
    p_gen.add_argument("--idiom", type=_idiom, default=None, help="one idiom (default: all)")
    p_gen.add_argument("--limit", type=int, default=None, help="stratified sample size per idiom")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output directory for pair JSON files")
    p_gen.add_argument("--matrix-csv", action="store_true", help="also write the feature matrix CSV")
    p_gen.set_defaults(func=_cmd_gen)

    p_ref = sub.add_parser("refactor", help="fill idiomatic halves of stored pairs")
    p_ref.add_argument("--in", dest="in_dir", required=True)
    p_ref.add_argument("--force", action="store_true", help="rewrite already-filled pairs")
    p_ref.set_defaults(func=_cmd_refactor)

    p_chk = sub.add_parser("check", help="differential equivalence check")
    p_chk.add_argument("--in", dest="in_dir", required=True)
    p_chk.add_argument("--trials", type=int, default=None, help="number of trial sizes")
    p_chk.set_defaults(func=_cmd_check)

    p_bench = sub.add_parser("bench", help="measure stored pairs")
    p_bench.add_argument("--in", dest="in_dir", required=True)
    p_bench.add_argument("--timings", required=True, help="JSONL timing store path")
    p_bench.add_argument("--n", type=int, default=50, help="fresh-process invocations")
    p_bench.add_argument("--k", type=int, default=35, help="iterations per invocation")
    p_bench.add_argument("--warmup", type=int, default=3)
    p_bench.add_argument("--min-iteration-ns", type=int, default=1_000_000)
    p_bench.add_argument("--interpreter", default=None)
    p_bench.add_argument(
        "--assume-equivalent",
        action="store_true",
        help="skip the behavioral gate before measuring; the rows it writes "
        "do not vouch for a later gated run",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_stats = sub.add_parser("stats", help="ratios and CIs from the timing store")
    p_stats.add_argument("--timings", required=True)
    p_stats.add_argument("--in", dest="in_dir", required=True, help="pair directory")
    p_stats.add_argument("--bootstrap", type=int, default=1000)
    p_stats.add_argument("--confidence", type=float, default=0.95)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--warmup", type=int, default=3)
    p_stats.add_argument("--out", required=True, help="results CSV path")
    p_stats.set_defaults(func=_cmd_stats)

    p_an = sub.add_parser("analyze", help="distribution and correlation summaries")
    p_an.add_argument("--results", required=True, help="results CSV path")
    p_an.add_argument("--permutations", type=int, default=1000)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.set_defaults(func=_cmd_analyze)

    p_diff = sub.add_parser("diff", help="bytecode diffs and root causes")
    p_diff.add_argument("--in", dest="in_dir", required=True)
    p_diff.add_argument("--probe", action="store_true", help="run the runtime probe (enables R4)")
    p_diff.add_argument("--aligned", action="store_true", help="include the aligned opcode view")
    p_diff.set_defaults(func=_cmd_diff)

    p_rep = sub.add_parser("report", help="markdown summary from a results CSV")
    p_rep.add_argument("--results", required=True)
    p_rep.add_argument("--out", default=None, help="write to file instead of stdout")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        log.error("interrupted")
        return 1
    except Exception as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
