"""Pipeline subcommands: wiring, file formats, and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any

import pytest

from idiobench.cli import main
from idiobench.synth import load_pairs


def _run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """gen + refactor over a small truth-value-test sample."""
    root = tmp_path_factory.mktemp("pipeline")
    pairs = root / "pairs"
    assert (
        main(
            [
                "gen",
                "--idiom",
                "truth-value-test",
                "--limit",
                "10",
                "--seed",
                "3",
                "--out",
                str(pairs),
            ]
        )
        == 0
    )
    assert main(["refactor", "--in", str(pairs)]) == 0
    return root


def test_gen_writes_requested_pairs(tmp_path, capsys):
    code, out = _run(
        capsys,
        "gen",
        "--idiom",
        "loop-else",
        "--out",
        str(tmp_path / "pairs"),
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["written"] == 128
    assert len(load_pairs(tmp_path / "pairs")) == 128


def test_gen_limit_is_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _ = _run(
            capsys,
            "gen",
            "--idiom",
            "chain-comparison",
            "--limit",
            "7",
            "--seed",
            "11",
            "--out",
            str(tmp_path / sub),
        )
        assert code == 0
    ids_a = sorted(p.pair_id for p in load_pairs(tmp_path / "a"))
    ids_b = sorted(p.pair_id for p in load_pairs(tmp_path / "b"))
    assert ids_a == ids_b
    assert len(ids_a) == 7


def test_gen_different_seeds_differ(tmp_path, capsys):
    for seed, sub in ((1, "s1"), (2, "s2")):
        _run(
            capsys,
            "gen",
            "--idiom",
            "chain-comparison",
            "--limit",
            "9",
            "--seed",
            str(seed),
            "--out",
            str(tmp_path / sub),
        )
    ids_1 = {p.pair_id for p in load_pairs(tmp_path / "s1")}
    ids_2 = {p.pair_id for p in load_pairs(tmp_path / "s2")}
    assert ids_1 != ids_2


def test_refactor_fills_idiomatic_half(pipeline_dir):
    pairs = load_pairs(pipeline_dir / "pairs")
    assert pairs
    assert all(p.idiomatic_source.strip() for p in pairs)


def test_check_reports_equivalent(pipeline_dir, capsys):
    code, out = _run(capsys, "check", "--in", str(pipeline_dir / "pairs"))
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["status"] == "Equivalent" for r in records)


def test_check_nonzero_on_divergent(tmp_path, capsys):
    import dataclasses

    from idiobench.synth import save_pair
    from idiobench.catalog import IdiomKind, enumerate_matrix
    from idiobench.refactor import refactor_pair
    from idiobench.synth import synthesize

    vector = next(v for v in enumerate_matrix(IdiomKind.LOOP_ELSE) if v.size == 10)
    pair = refactor_pair(synthesize(vector))
    broken = dataclasses.replace(
        pair, idiomatic_source=pair.idiomatic_source + "r_7 = 1\n"
    )
    save_pair(broken, tmp_path)
    code, out = _run(capsys, "check", "--in", str(tmp_path))
    assert code == 1
    record = json.loads(out.strip().splitlines()[-1])
    assert record["status"] == "Divergent"
    assert record["witness"]["detail"]


def test_bench_stats_analyze_report(pipeline_dir, tmp_path, capsys):
    pairs_dir = str(pipeline_dir / "pairs")
    timings = str(tmp_path / "timings.jsonl")
    results = str(tmp_path / "results.csv")

    code, out = _run(
        capsys,
        "bench",
        "--in",
        pairs_dir,
        "--timings",
        timings,
        "--n",
        "3",
        "--k",
        "5",
        "--warmup",
        "1",
        "--min-iteration-ns",
        "100000",
        "--assume-equivalent",
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["failed"] == 0

    code, out = _run(
        capsys,
        "stats",
        "--timings",
        timings,
        "--in",
        pairs_dir,
        "--bootstrap",
        "100",
        "--warmup",
        "1",
        "--out",
        results,
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["rows"] == 10

    code, out = _run(capsys, "analyze", "--results", results, "--permutations", "50")
    assert code == 0
    payload = json.loads(out)
    entry = payload["idioms"]["truth-value-test"]
    assert entry["pairs"] == 10
    assert set(entry["percent"]) == {"Speedup", "Slowdown", "Unchanged"}
    assert sum(entry["percent"].values()) == pytest.approx(100.0, abs=0.5)
    assert "feature_correlation" in entry

    code, out = _run(capsys, "report", "--results", results)
    assert code == 0
    assert "truth-value-test" in out
    assert "| idiom |" in out


def test_bench_resume_is_idempotent(pipeline_dir, tmp_path, capsys):
    pairs_dir = str(pipeline_dir / "pairs")
    timings = tmp_path / "timings.jsonl"
    args = [
        "bench",
        "--in",
        pairs_dir,
        "--timings",
        str(timings),
        "--n",
        "2",
        "--k",
        "4",
        "--warmup",
        "1",
        "--min-iteration-ns",
        "100000",
        "--assume-equivalent",
    ]
    assert main(args) == 0
    capsys.readouterr()
    first = timings.read_text()
    assert main(args) == 0
    capsys.readouterr()
    assert timings.read_text() == first


def test_diff_reports_root_causes(pipeline_dir, capsys):
    code, out = _run(capsys, "diff", "--in", str(pipeline_dir / "pairs"), "--probe")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["root_cause"].startswith("R") for r in records)
    assert all("aligned_view" not in r for r in records)


def test_diff_aligned_flag(pipeline_dir, capsys):
    code, out = _run(
        capsys, "diff", "--in", str(pipeline_dir / "pairs"), "--aligned"
    )
    assert code == 0
    record = json.loads(out.strip().splitlines()[0])
    assert isinstance(record["aligned_view"], list)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--idiom", "not-an-idiom", "--out", "/tmp/x"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_stage_failures_exit_one(tmp_path, capsys):
    assert main(["check", "--in", str(tmp_path / "missing")]) == 1
    assert main(["refactor", "--in", str(tmp_path / "missing")]) == 1
    assert main(["analyze", "--results", str(tmp_path / "missing.csv")]) == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "idiobench.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("gen", "refactor", "check", "bench", "stats", "analyze", "diff", "report"):
        assert sub in proc.stdout


def test_diff_isolates_a_crashing_pair(pipeline_dir, tmp_path, capsys):
    from idiobench import child
    from idiobench.catalog import IdiomKind
    from idiobench.synth import CodePair, save_pair

    payload = "__os.kill(__os.getpid(), 9)\nr_0 = 1\n"
    save_pair(
        CodePair(
            pair_id="0-crashes",
            idiom=IdiomKind.TRUTH_VALUE_TEST,
            features=None,
            setup_source="import os as __os\n",
            non_idiomatic_source=payload,
            idiomatic_source=payload,
            scope_mode="Global",
        ),
        tmp_path,
    )
    good = load_pairs(pipeline_dir / "pairs")[0]
    save_pair(good, tmp_path)

    def server_pid():
        return child.run_job(
            "import os; result = os.getppid()",
            "",
            timeout=30,
            interpreter=child.resolve_interpreter(),
        )

    before = server_pid()
    code, out = _run(capsys, "diff", "--in", str(tmp_path), "--probe")
    assert code == 1
    crashed, fine = [json.loads(line) for line in out.strip().splitlines()]
    assert crashed["pair_id"] == "0-crashes"
    assert crashed["root_cause"] == "Error"
    assert "probe child failed: exited -9" in crashed["evidence"][0]
    assert fine["pair_id"] == good.pair_id
    assert fine["root_cause"].startswith("R")
    assert server_pid() == before


def _store_row(pair, invocation: int, non_idiomatic: float, idiomatic: float) -> dict:
    """The row ``bench`` writes for one invocation, with constant grids of k=4."""
    from idiobench.bench import content_id

    return {
        "pair_id": pair.pair_id,
        "invocation": invocation,
        "content_id": content_id(pair, "cpython-test"),
        "timings_ns": [non_idiomatic] * 4 + [idiomatic] * 4,
        "repetitions": 1,
        "min_iteration_ns": 1_000_000,
        "max_repetitions": 1_048_576,
        "interpreter_id": "cpython-test",
        "host_id": "host",
        "pid": 1000 + invocation,
    }


def test_stats_skips_a_partial_grid(pipeline_dir, tmp_path, capsys):
    from idiobench.bench import TimingStore

    pairs = load_pairs(pipeline_dir / "pairs")[:2]
    store = TimingStore(tmp_path / "timings.jsonl")
    for pair in pairs:
        for invocation in range(3):
            if pair is pairs[0] and invocation == 1:
                continue  # a hole in the first pair's grids
            store.record_invocation(
                _store_row(pair, invocation, 112.0 + invocation, 109.0 + invocation)
            )
    results = tmp_path / "results.csv"
    code, out = _run(
        capsys,
        "stats",
        "--timings", str(store.path),
        "--in", str(pipeline_dir / "pairs"),
        "--bootstrap", "50",
        "--warmup", "1",
        "--out", str(results),
    )
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["rows"] == 1
    rows = results.read_text().splitlines()
    assert len(rows) == 2 and pairs[1].pair_id in rows[1]


# The stats CSV of the fixed store below, pinned digit for digit: it
# covers every step from stored row through load and warmup to bootstrap.
GOLDEN_RESULTS = (
    "pair_id,idiom,empty_value,eq_op,is_true,scope,test_parent,"
    "rho,ci_low,ci_high,rciw,classification\n"
    "3b3b114b1d633764,truth-value-test,range,==,1,Global,assert,"
    "0.9417707659383865,0.8686898304256464,1.019360693758193,0.15998677043496579,Unchanged\n"
    "4207da07c2fef4d4,truth-value-test,list,==,0,Global,if,"
    "1.2828097117828365,1.19194582299421,1.3750967599248038,0.14277326968163698,Speedup\n"
)


def test_stats_csv_from_a_fixed_store_is_golden(pipeline_dir, tmp_path, capsys):
    from idiobench.bench import TimingStore, content_id

    store = TimingStore(tmp_path / "timings.jsonl")
    for index, pair in enumerate(load_pairs(pipeline_dir / "pairs")[:2]):
        # Four invocations of k=5 per variant; the second pair's idiomatic
        # half is the faster one.
        for invocation in range(4):
            store.record_invocation(
                {
                    **_store_row(pair, invocation, 0.0, 0.0),
                    "timings_ns": [
                        (
                            1000
                            + 300 * index
                            + 37 * ((invocation * 10 + j) * 7 % 11)
                            + (50 - 400 * index) * (j >= 5)
                        )
                        / 3
                        for j in range(10)
                    ],
                    "repetitions": 8,
                }
            )
    results = tmp_path / "results.csv"
    code, _ = _run(
        capsys,
        "stats",
        "--timings", str(store.path),
        "--in", str(pipeline_dir / "pairs"),
        "--bootstrap", "200",
        "--warmup", "1",
        "--out", str(results),
    )
    assert code == 0
    assert results.read_text(encoding="utf-8") == GOLDEN_RESULTS


def test_stats_checks_warmup_against_the_stored_k(pipeline_dir, tmp_path, capsys, caplog):
    from idiobench.synth import save_pair

    pair = load_pairs(pipeline_dir / "pairs")[0]
    save_pair(pair, tmp_path / "pairs")
    timings, results = str(tmp_path / "timings.jsonl"), str(tmp_path / "results.csv")
    code, _ = _run(
        capsys,
        "bench",
        "--in", str(tmp_path / "pairs"),
        "--timings", timings,
        "--n", "2",
        "--k", "40",
        "--min-iteration-ns", "100000",
        "--assume-equivalent",
    )
    assert code == 0
    stats = ["stats", "--timings", timings, "--in", str(tmp_path / "pairs")]
    stats += ["--bootstrap", "50", "--out", results]
    # 36 is above the default k of 35 but below the stored k of 40.
    code, out = _run(capsys, *stats, "--warmup", "36")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["rows"] == 1
    caplog.clear()
    code, _ = _run(capsys, *stats, "--warmup", "40")
    assert code == 1
    assert f"pair {pair.pair_id} skipped: warmup 40" in caplog.text


def _store_with_blank_idiomatic_half(tmp_path, capsys):
    """Three refactored loop-else pairs; the second loses its idiomatic half."""
    import dataclasses

    from idiobench.synth import save_pair

    pairs_dir = tmp_path / "pairs"
    assert main(["gen", "--idiom", "loop-else", "--limit", "3", "--out", str(pairs_dir)]) == 0
    assert main(["refactor", "--in", str(pairs_dir)]) == 0
    capsys.readouterr()
    pairs = load_pairs(pairs_dir)
    assert len(pairs) == 3
    blank = pairs[1]
    save_pair(dataclasses.replace(blank, idiomatic_source=""), pairs_dir)
    return pairs_dir, pairs, blank


def test_check_and_bench_isolate_a_pair_without_idiomatic_half(tmp_path, capsys):
    pairs_dir, pairs, blank = _store_with_blank_idiomatic_half(tmp_path, capsys)

    code, out = _run(capsys, "check", "--in", str(pairs_dir))
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["pair_id"] for r in records] == [p.pair_id for p in pairs]
    assert records[1] == {
        "pair_id": blank.pair_id,
        "idiom": "loop-else",
        "status": "Error",
        "reason": f"pair {blank.pair_id} has no idiomatic source",
    }
    assert records[0]["status"] == records[2]["status"] == "Equivalent"

    timings = tmp_path / "timings.jsonl"
    code, out = _run(
        capsys,
        "bench",
        "--in", str(pairs_dir),
        "--timings", str(timings),
        "--n", "2",
        "--k", "3",
        "--warmup", "1",
        "--min-iteration-ns", "100000",
    )
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1]) == {"measured": 2, "failed": 1}
    from idiobench.bench import TimingStore

    assert set(TimingStore(timings).pair_ids()) == {pairs[0].pair_id, pairs[2].pair_id}


def test_diff_isolates_a_pair_without_idiomatic_half(tmp_path, capsys):
    pairs_dir, pairs, blank = _store_with_blank_idiomatic_half(tmp_path, capsys)

    code, out = _run(capsys, "diff", "--in", str(pairs_dir))
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["pair_id"] for r in records] == [p.pair_id for p in pairs]
    assert records[1] == {
        "pair_id": blank.pair_id,
        "root_cause": "Error",
        "evidence": [f"pair {blank.pair_id} has no idiomatic source"],
    }
    assert records[0]["root_cause"] != "Error" and records[2]["root_cause"] != "Error"


@pytest.mark.parametrize("assume_equivalent", [False, True])
def test_bench_counts_a_bad_pair_file_and_goes_on(tmp_path, capsys, assume_equivalent):
    import dataclasses

    from idiobench.bench import TimingStore
    from idiobench.synth import save_pair

    pairs_dir = tmp_path / "pairs"
    assert main(["gen", "--idiom", "loop-else", "--limit", "3", "--out", str(pairs_dir)]) == 0
    assert main(["refactor", "--in", str(pairs_dir)]) == 0
    capsys.readouterr()
    pairs = load_pairs(pairs_dir)
    # An unknown scope raises ValueError; an idiomatic half that does not
    # compile fails the gate, or raises SyntaxError under --assume-equivalent.
    save_pair(dataclasses.replace(pairs[0], scope_mode="local"), pairs_dir)
    save_pair(dataclasses.replace(pairs[2], idiomatic_source="r_0 = (\n"), pairs_dir)
    timings = tmp_path / "timings.jsonl"
    argv = ["bench", "--in", str(pairs_dir), "--timings", str(timings), "--n", "2", "--k", "3"]
    argv += ["--warmup", "1", "--min-iteration-ns", "100000"]
    code, out = _run(capsys, *argv, *(["--assume-equivalent"] if assume_equivalent else []))
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1]) == {"measured": 1, "failed": 2}
    assert TimingStore(timings).pair_ids() == [pairs[1].pair_id]


def test_refactor_counts_a_pair_that_does_not_parse_and_goes_on(tmp_path, capsys):
    import dataclasses

    from idiobench.synth import save_pair

    pairs_dir = tmp_path / "pairs"
    assert main(["gen", "--idiom", "loop-else", "--limit", "2", "--out", str(pairs_dir)]) == 0
    broken, valid = load_pairs(pairs_dir)
    save_pair(dataclasses.replace(broken, non_idiomatic_source="r_0 = (\n"), pairs_dir)
    capsys.readouterr()
    code, out = _run(capsys, "refactor", "--in", str(pairs_dir))
    assert code == 1
    assert json.loads(out) == {"refactored": 1, "failed": 1}
    by_id = {pair.pair_id: pair for pair in load_pairs(pairs_dir)}
    assert by_id[valid.pair_id].idiomatic_source.strip()
    assert not by_id[broken.pair_id].idiomatic_source


_MODULES_AFTER_MAIN = """\
import json, sys
from idiobench.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "scipy": "scipy" in sys.modules}))
"""


def _modules_after(*argv: str) -> tuple[dict[str, Any], str]:
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_MAIN, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *output, last = proc.stdout.strip().splitlines()
    return json.loads(last), "\n".join(output)


def test_post_bench_stages_import_no_scipy_and_report_no_numpy(pipeline_dir, tmp_path):
    from idiobench.bench import TimingStore

    pairs = load_pairs(pipeline_dir / "pairs")
    store = TimingStore(tmp_path / "timings.jsonl")
    for index, pair in enumerate(pairs):
        for invocation in range(3):
            store.record_invocation(
                _store_row(pair, invocation, 100.0 + 10.0 * index + invocation, 100.0 + invocation)
            )
    results = str(tmp_path / "results.csv")

    loaded, _ = _modules_after(
        "stats",
        "--timings", str(store.path),
        "--in", str(pipeline_dir / "pairs"),
        "--bootstrap", "50",
        "--warmup", "1",
        "--out", results,
    )
    assert loaded["code"] == 0 and not loaded["scipy"]

    loaded, out = _modules_after("analyze", "--results", results, "--permutations", "50")
    assert loaded["code"] == 0 and not loaded["scipy"]
    assert "feature_correlation" in json.loads(out)["idioms"]["truth-value-test"]

    # Below the 10-row correlation minimum, analyze only summarizes.
    few = tmp_path / "few.csv"
    with open(results, encoding="utf-8", newline="") as fh:
        few.write_text("".join(fh.readlines()[:10]), encoding="utf-8")
    loaded, out = _modules_after("analyze", "--results", str(few))
    assert loaded == {"code": 0, "numpy": False, "scipy": False}
    assert json.loads(out)["idioms"]["truth-value-test"]["pairs"] == 9

    loaded, out = _modules_after("report", "--results", results)
    assert loaded == {"code": 0, "numpy": False, "scipy": False}
    assert "| truth-value-test | 10 |" in out


def _imported_by(*argv: str) -> set[str]:
    """The modules ``python -m idiobench.cli ARGV`` imports, as ``-X importtime``
    lists them."""
    import os
    from pathlib import Path

    import idiobench

    env = dict(os.environ, PYTHONPATH=str(Path(idiobench.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "idiobench.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_report_imports_neither_catalog_nor_synth_and_analyze_skips_synth(
    pipeline_dir, tmp_path, capsys
):
    from idiobench.bench import TimingStore

    store = TimingStore(tmp_path / "timings.jsonl")
    for index, pair in enumerate(load_pairs(pipeline_dir / "pairs")[:3]):
        for invocation in range(3):
            store.record_invocation(
                _store_row(pair, invocation, 100.0 + 10.0 * index + invocation, 100.0 + invocation)
            )
    results = str(tmp_path / "results.csv")
    args = ["--timings", str(store.path), "--in", str(pipeline_dir / "pairs")]
    code, _ = _run(capsys, "stats", *args, "--bootstrap", "20", "--warmup", "1", "--out", results)
    assert code == 0

    report = _imported_by("report", "--results", results)
    assert "idiobench" in report
    assert not {"idiobench.catalog", "idiobench.synth"} & report
    analyze = _imported_by("analyze", "--results", results)
    assert "idiobench.catalog" in analyze and "idiobench.synth" not in analyze


@pytest.fixture(scope="module")
def mixed_dir(pipeline_dir, tmp_path_factory):
    """Good pairs plus a Divergent mutant, a crashing pair and a pair
    without an idiomatic half."""
    import dataclasses

    from idiobench.catalog import IdiomKind
    from idiobench.equivalence import mutants
    from idiobench.synth import CodePair, save_pair

    directory = tmp_path_factory.mktemp("mixed")
    good = load_pairs(pipeline_dir / "pairs")[:5]
    for pair in good:
        save_pair(pair, directory)
    save_pair(mutants(good[0])[0][1], directory)
    save_pair(dataclasses.replace(good[1], pair_id="blank", idiomatic_source=""), directory)
    payload = "__os.kill(__os.getpid(), 9)\nr_0 = 1\n"
    save_pair(
        CodePair(
            pair_id="crashes",
            idiom=IdiomKind.TRUTH_VALUE_TEST,
            features=None,
            setup_source="import os as __os\n",
            non_idiomatic_source=payload,
            idiomatic_source=payload,
            scope_mode="Global",
        ),
        directory,
    )
    return directory


def test_check_and_diff_output_does_not_depend_on_pool_size(mixed_dir, monkeypatch, capsys):
    from idiobench import child

    runs = {}
    for size in (1, child._POOL_SIZE):
        monkeypatch.setattr(child, "_POOL_SIZE", size)
        runs[size] = (
            _run(capsys, "check", "--in", str(mixed_dir)),
            _run(capsys, "diff", "--in", str(mixed_dir), "--probe", "--aligned"),
        )
    assert runs[child._POOL_SIZE] == runs[1]
    (check_code, check_out), (diff_code, diff_out) = runs[1]
    assert check_code == diff_code == 1
    statuses = [json.loads(line)["status"] for line in check_out.splitlines()]
    assert {"Equivalent", "Divergent", "Error"} <= set(statuses)
    assert len(diff_out.splitlines()) == len(statuses) == 8


def test_an_exception_in_one_pair_cancels_the_queued_pairs(pipeline_dir, monkeypatch, capsys):
    import threading
    import time

    from idiobench import bytecode

    pairs = load_pairs(pipeline_dir / "pairs")
    calls = []
    lock = threading.Lock()

    def fake_diff_report(pair, probe=True, interpreter=None, aligned=True):
        with lock:
            calls.append(pair.pair_id)
        if pair.pair_id == pairs[0].pair_id:
            raise RuntimeError("boom")
        time.sleep(0.2)
        return {"pair_id": pair.pair_id, "root_cause": "R1_AddedPreparation"}

    monkeypatch.setattr(bytecode, "diff_report", fake_diff_report)
    code, out = _run(capsys, "diff", "--in", str(pipeline_dir / "pairs"))
    assert code == 1
    assert out == ""
    assert len(calls) < len(pairs)


def test_analyze_skips_a_row_with_an_unparsed_cell(pipeline_dir, tmp_path, capsys):
    import csv

    from idiobench.bench import TimingStore
    from idiobench.catalog import vector_from_row

    pairs = load_pairs(pipeline_dir / "pairs")
    store = TimingStore(tmp_path / "timings.jsonl")
    for index, pair in enumerate(pairs):
        for invocation in range(3):
            non_idiomatic, idiomatic = 100.0 + index * 12, 100.0 + index * 9
            store.record_invocation(
                _store_row(pair, invocation, non_idiomatic + invocation, idiomatic + invocation)
            )
    results = tmp_path / "results.csv"
    code, _ = _run(
        capsys,
        "stats",
        "--timings", str(store.path),
        "--in", str(pipeline_dir / "pairs"),
        "--bootstrap", "50",
        "--warmup", "1",
        "--out", str(results),
    )
    assert code == 0
    with results.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(vector_from_row(row) is not None for row in rows)
    rows[1]["is_true"] = "one"
    with results.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    code, out = _run(capsys, "analyze", "--results", str(results), "--permutations", "20")
    assert code == 0
    assert json.loads(out)["idioms"]["truth-value-test"]["pairs"] == len(rows)
    assert vector_from_row(rows[1]) is None
