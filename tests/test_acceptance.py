"""Acceptance gate: one verdict line per criterion.

Each test prints exactly one ``PASS criterion N`` / ``FAIL criterion N``
line (visible with ``pytest -v -s`` or on failure) and enforces its own
wall-clock budget. Benchmark-backed criteria allow a single remeasure
per failing benchmark before the verdict is final.
"""

from __future__ import annotations

import concurrent.futures
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from idiobench.bench import BenchConfig, measure
from idiobench.bytecode import classify_root_cause, diff_pair, runtime_probe
from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.equivalence import check, mutants
from idiobench.refactor import refactor_pair
from idiobench.stats import (
    bootstrap_ci,
    compute_rho,
    distribution_summary,
    perf_change,
)
from idiobench.synth import CodePair, synthesize

from conftest import stratified

EXPECTED_CARDINALITIES = {
    IdiomKind.LIST_COMPREHENSION: 1600,
    IdiomKind.SET_COMPREHENSION: 1600,
    IdiomKind.DICT_COMPREHENSION: 1600,
    IdiomKind.CHAIN_COMPARISON: 11968,
    IdiomKind.TRUTH_VALUE_TEST: 336,
    IdiomKind.LOOP_ELSE: 128,
    IdiomKind.ASSIGN_MULTI_TARGETS: 174,
    IdiomKind.STAR_IN_FUNC_CALL: 1920,
    IdiomKind.FOR_MULTI_TARGETS: 4800,
}

# Desk protocol: n=10, k=20, warmup=3. The 5 ms amplification floor
# keeps per-iteration noise small enough to resolve percent-level
# effects (the swap pair) on a shared host.
DESK_CFG = BenchConfig(
    n_invocations=10, k_iterations=20, warmup=3, min_iteration_ns=5_000_000
)
BOOTSTRAP_B = 1000


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _vector(idiom: IdiomKind, predicate):
    return next(v for v in enumerate_matrix(idiom) if predicate(v))


# ============================================================
# Criterion 1: feature matrix cardinalities
# ============================================================


def test_criterion_1_matrix_cardinalities():
    start = time.monotonic()
    mismatches = []
    total = 0
    for idiom, expected in EXPECTED_CARDINALITIES.items():
        vectors = enumerate_matrix(idiom)
        total += len(vectors)
        if len(vectors) != expected:
            mismatches.append(f"{idiom.value}: {len(vectors)} != {expected}")
        if len({v.key() for v in vectors}) != len(vectors):
            mismatches.append(f"{idiom.value}: duplicate vectors")
    elapsed = time.monotonic() - start
    if total != 24126:
        mismatches.append(f"total {total} != 24126")
    if elapsed >= 60:
        mismatches.append(f"took {elapsed:.1f}s >= 60s")
    _verdict(
        1,
        not mismatches,
        f"all 9 idiom matrices exact, {total} vectors in {elapsed:.1f}s"
        if not mismatches
        else "; ".join(mismatches),
    )


# ============================================================
# Criterion 2: synthesis, refactoring, and differential checking
# ============================================================


def _criterion_2_vectors() -> list:
    out = []
    for idiom, cardinality in EXPECTED_CARDINALITIES.items():
        vectors = enumerate_matrix(idiom)
        out.extend(vectors if cardinality <= 336 else stratified(vectors, 50, seed=1))
    return out


def test_criterion_2_equivalence_and_mutants():
    start = time.monotonic()
    vectors = _criterion_2_vectors()
    per_idiom: dict[IdiomKind, int] = {}
    for vector in vectors:
        per_idiom[vector.idiom] = per_idiom.get(vector.idiom, 0) + 1
    assert all(
        count >= min(50, EXPECTED_CARDINALITIES[idiom])
        for idiom, count in per_idiom.items()
    )

    pairs = [refactor_pair(synthesize(v)) for v in vectors]
    mutated = [(pair, label, m) for pair in pairs for label, m in mutants(pair)]

    failures: list[str] = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        for pair, report in zip(pairs, pool.map(lambda p: check(p), pairs)):
            if report.status != "Equivalent":
                failures.append(f"{pair.pair_id} ({pair.idiom.value}): {report.status}")
        mutant_reports = pool.map(lambda item: check(item[2]), mutated)
        for (pair, label, _), report in zip(mutated, mutant_reports):
            if report.status != "Divergent":
                failures.append(
                    f"mutant {label} of {pair.pair_id} not caught: {report.status}"
                )
    elapsed = time.monotonic() - start
    if elapsed >= 1200:
        failures.append(f"took {elapsed:.0f}s >= 1200s")
    _verdict(
        2,
        not failures,
        f"{len(pairs)} pairs all Equivalent, {len(mutated)} mutants all "
        f"Divergent in {elapsed:.0f}s"
        if not failures
        else "; ".join(failures[:5]) + (f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""),
    )


# ============================================================
# Criterion 3: estimator exactness and bootstrap coverage
# ============================================================


def test_criterion_3_statistics():
    start = time.monotonic()
    problems: list[str] = []

    # Exactness: constant grids give a degenerate interval at the ratio.
    a = np.full((6, 8), 3.0)
    b = np.full((6, 8), 1.5)
    if compute_rho(a, b) != 2.0:
        problems.append("rho not exact on constant grids")
    lo, hi, rciw = bootstrap_ci(a, b, B=BOOTSTRAP_B, seed=0)
    if (lo, hi, rciw) != (2.0, 2.0, 0.0):
        problems.append(f"degenerate CI wrong: {(lo, hi, rciw)}")

    # Determinism under a fixed seed.
    rng = np.random.default_rng(5)
    x = rng.lognormal(0.2, 0.1, (10, 17))
    y = rng.lognormal(0.0, 0.1, (10, 17))
    if bootstrap_ci(x, y, B=500, seed=7) != bootstrap_ci(x, y, B=500, seed=7):
        problems.append("bootstrap not deterministic under fixed seed")

    # Coverage: hierarchical lognormal noise around a known ratio.
    mc = np.random.default_rng(20260814)
    true_rho, n, k, experiments = 1.3, 10, 20, 200
    covered = 0
    for _ in range(experiments):
        mu_a = mc.normal(0.0, 0.05, size=(n, 1))
        mu_b = mc.normal(0.0, 0.05, size=(n, 1))
        sample_a = true_rho * np.exp(mu_a) * mc.lognormal(0.0, 0.08, (n, k))
        sample_b = np.exp(mu_b) * mc.lognormal(0.0, 0.08, (n, k))
        low, high, _ = bootstrap_ci(
            sample_a, sample_b, B=BOOTSTRAP_B, seed=int(mc.integers(1 << 31))
        )
        covered += low <= true_rho <= high
    coverage = 100.0 * covered / experiments
    if not 90.0 <= coverage <= 99.0:
        problems.append(f"coverage {coverage:.1f}% outside [90%, 99%]")

    elapsed = time.monotonic() - start
    if elapsed >= 300:
        problems.append(f"took {elapsed:.0f}s >= 300s")
    _verdict(
        3,
        not problems,
        f"exact on constants, deterministic, {coverage:.1f}% coverage over "
        f"{experiments} experiments in {elapsed:.0f}s"
        if not problems
        else "; ".join(problems),
    )


# ============================================================
# Criteria 4 and 5: desk-scale benchmark outcomes and precision
# ============================================================

BENCH_EXPECTATIONS = {
    # name: (classification, minimum rho or None)
    "list-comprehension@10000": ("Speedup", 1.5),
    "truth-value-test-Fraction": ("Speedup", 2.0),
    "assign-4-pure": ("Slowdown", None),
    "swap-2": ("Speedup", None),
    "list-comprehension@0": ("Slowdown", None),
}


class DeskBench:
    """Measures the five reference benchmarks; one retry per benchmark."""

    def __init__(self) -> None:
        self.pairs = {
            "list-comprehension@10000": _vector(
                IdiomKind.LIST_COMPREHENSION,
                lambda v: v.size == 10_000
                and v.scope == "Local"
                and v.node_counts == {"num_for": 1, "num_if": 0, "num_ifelse": 0},
            ),
            "truth-value-test-Fraction": _vector(
                IdiomKind.TRUTH_VALUE_TEST,
                lambda v: v.node_choices["empty_value"] == "Fraction"
                and v.node_choices["test_parent"] == "if"
                and v.node_choices["eq_op"] == "!="
                and v.scope == "Local"
                and v.is_true,
            ),
            "assign-4-pure": _vector(
                IdiomKind.ASSIGN_MULTI_TARGETS,
                lambda v: not v.is_const
                and not v.is_swap
                and v.node_counts["num_assign"] == 4
                and v.scope == "Local",
            ),
            "swap-2": _vector(
                IdiomKind.ASSIGN_MULTI_TARGETS,
                lambda v: v.is_swap
                and v.node_counts["num_assign"] == 2
                and v.scope == "Local",
            ),
            "list-comprehension@0": _vector(
                IdiomKind.LIST_COMPREHENSION,
                lambda v: v.size == 0
                and v.scope == "Local"
                and v.node_counts == {"num_for": 1, "num_if": 0, "num_ifelse": 0},
            ),
        }
        self.changes: dict[str, object] = {}
        self.retried: set[str] = set()
        self.build_seconds = 0.0

    def _measure(self, name: str):
        pair = refactor_pair(synthesize(self.pairs[name]))
        return perf_change(*measure(pair, DESK_CFG).halves(), B=BOOTSTRAP_B, seed=0)

    def change(self, name: str):
        if name not in self.changes:
            started = time.monotonic()
            self.changes[name] = self._measure(name)
            self.build_seconds += time.monotonic() - started
        return self.changes[name]

    def retry(self, name: str) -> bool:
        """Remeasure once; returns False if the retry was already spent."""
        if name in self.retried:
            return False
        self.retried.add(name)
        started = time.monotonic()
        self.changes[name] = self._measure(name)
        self.build_seconds += time.monotonic() - started
        return True


@pytest.fixture(scope="module")
def desk_bench():
    return DeskBench()


def test_criterion_4_benchmark_outcomes(desk_bench):
    start = time.monotonic()
    failures: list[str] = []
    summaries: list[str] = []
    for name, (expected_class, rho_floor) in BENCH_EXPECTATIONS.items():
        change = desk_bench.change(name)

        def satisfied(c) -> bool:
            if c.classification != expected_class:
                return False
            return rho_floor is None or c.rho >= rho_floor

        if not satisfied(change) and desk_bench.retry(name):
            change = desk_bench.change(name)
        if not satisfied(change):
            failures.append(
                f"{name}: got {change.classification} rho={change.rho:.3f}, "
                f"want {expected_class}"
                + (f" rho>={rho_floor}" if rho_floor else "")
            )
        summaries.append(f"{name} rho={change.rho:.2f}")
    elapsed = time.monotonic() - start
    if elapsed >= 900:
        failures.append(f"took {elapsed:.0f}s >= 900s")
    _verdict(
        4,
        not failures,
        f"all 5 outcomes as expected ({', '.join(summaries)}) in {elapsed:.0f}s"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_5_precision_and_documented_target(desk_bench):
    start = time.monotonic()
    failures: list[str] = []
    widths: list[str] = []
    for name in BENCH_EXPECTATIONS:
        change = desk_bench.change(name)
        if change.rciw >= 0.2 and desk_bench.retry(name):
            change = desk_bench.change(name)
        widths.append(f"{name} rciw={change.rciw:.3f}")
        if change.rciw >= 0.2:
            failures.append(f"{name}: rciw {change.rciw:.3f} >= 0.2")

    # The full 50 x 35 protocol targets a tighter interval; the README
    # must state the 0.05 target without claiming it was measured here.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    documented = bool(
        re.search(r"50\s*(?:invocations|fresh)", text)
        and re.search(r"0\.05", text)
    )
    if not documented:
        failures.append("README does not state the full-protocol 0.05 width target")

    elapsed = time.monotonic() - start
    if elapsed >= 900:
        failures.append(f"took {elapsed:.0f}s >= 900s")
    _verdict(
        5,
        not failures,
        f"all below 0.2 ({', '.join(widths)}); full-protocol target documented"
        if not failures
        else "; ".join(failures),
    )


# ============================================================
# Criterion 6: bytecode oracles and root causes
# ============================================================


def test_criterion_6_bytecode_and_root_causes():
    start = time.monotonic()
    problems: list[str] = []

    def expect(label: str, condition: bool) -> None:
        if not condition:
            problems.append(label)

    # Opcode movement oracles.
    lc100 = refactor_pair(
        synthesize(
            _vector(
                IdiomKind.LIST_COMPREHENSION,
                lambda v: v.size == 100
                and v.scope == "Global"
                and v.node_counts == {"num_for": 1, "num_if": 0, "num_ifelse": 0},
            )
        )
    )
    d = diff_pair(lc100)
    expect("lc adds LIST_APPEND", d.added["LIST_APPEND"] >= 1)
    expect("lc removes LOAD_METHOD", d.removed["LOAD_METHOD"] >= 1)
    expect("lc removes CALL_METHOD", d.removed["CALL_METHOD"] >= 1)
    expect(
        "lc@100 classifies R2",
        classify_root_cause(d, lc100).primary == "R2_SpecializedReplacement",
    )

    lc0 = refactor_pair(
        synthesize(
            _vector(
                IdiomKind.LIST_COMPREHENSION,
                lambda v: v.size == 0
                and v.scope == "Global"
                and v.node_counts == {"num_for": 1, "num_if": 0, "num_ifelse": 0},
            )
        )
    )
    expect(
        "lc@0 classifies R1 (specialized opcode never runs)",
        classify_root_cause(diff_pair(lc0), lc0).primary == "R1_AddedPreparation",
    )

    chain = refactor_pair(
        synthesize(
            _vector(
                IdiomKind.CHAIN_COMPARISON,
                lambda v: v.node_counts["num_compop"] == 2
                and v.scope == "Global"
                and v.is_true,
            )
        )
    )
    d = diff_pair(chain)
    expect("chain adds DUP_TOP", d.added["DUP_TOP"] >= 1)
    expect("chain adds ROT_THREE", d.added["ROT_THREE"] >= 1)
    expect(
        "chain classifies R2",
        classify_root_cause(d, chain).primary == "R2_SpecializedReplacement",
    )

    swap2 = refactor_pair(
        synthesize(
            _vector(
                IdiomKind.ASSIGN_MULTI_TARGETS,
                lambda v: v.is_swap
                and v.node_counts["num_assign"] == 2
                and v.scope == "Global",
            )
        )
    )
    d = diff_pair(swap2)
    expect("swap adds ROT_TWO", d.added["ROT_TWO"] >= 1)
    expect(
        "swap classifies R2",
        classify_root_cause(d, swap2).primary == "R2_SpecializedReplacement",
    )

    tvt_int = refactor_pair(
        synthesize(
            _vector(
                IdiomKind.TRUTH_VALUE_TEST,
                lambda v: v.node_choices["empty_value"] == "int"
                and v.node_choices["test_parent"] == "if"
                and v.node_choices["eq_op"] == "!="
                and v.scope == "Global"
                and v.is_true,
            )
        )
    )
    d = diff_pair(tvt_int)
    expect("truth test removes COMPARE_OP", d.removed["COMPARE_OP"] >= 1)
    expect("truth test removes LOAD_CONST", d.removed["LOAD_CONST"] >= 1)
    expect(
        "truth test int classifies R3",
        classify_root_cause(d, tvt_int).primary == "R3_RemovedInstructions",
    )

    assign4 = refactor_pair(
        synthesize(
            _vector(
                IdiomKind.ASSIGN_MULTI_TARGETS,
                lambda v: not v.is_const
                and not v.is_swap
                and v.node_counts["num_assign"] == 4
                and v.scope == "Global",
            )
        )
    )
    d = diff_pair(assign4)
    expect("assign merge adds BUILD_TUPLE", d.added["BUILD_TUPLE"] >= 1)
    expect("assign merge adds UNPACK_SEQUENCE", d.added["UNPACK_SEQUENCE"] >= 1)
    expect(
        "assign merge classifies R1",
        classify_root_cause(d, assign4).primary == "R1_AddedPreparation",
    )

    # R4 via the runtime probe: a standard-library wrapper type.
    tvt_fraction = refactor_pair(
        synthesize(
            _vector(
                IdiomKind.TRUTH_VALUE_TEST,
                lambda v: v.node_choices["empty_value"] == "Fraction"
                and v.node_choices["test_parent"] == "if"
                and v.node_choices["eq_op"] == "!="
                and v.scope == "Global"
                and v.is_true,
            )
        )
    )
    cause = classify_root_cause(
        diff_pair(tvt_fraction), tvt_fraction, runtime_probe(tvt_fraction)
    )
    expect("Fraction classifies R4", cause.primary == "R4_OverloadedBuiltins")

    # R4 via an injected truth-protocol override.
    injected = CodePair(
        pair_id="acceptance-overload",
        idiom=IdiomKind.TRUTH_VALUE_TEST,
        features=None,
        setup_source=(
            "class Box:\n"
            "    def __init__(self, v):\n"
            "        self.v = v\n"
            "    def __bool__(self):\n"
            "        return self.v != 0\n"
            "    def __eq__(self, other):\n"
            "        return self.v == other\n"
            "    def __hash__(self):\n"
            "        return hash(self.v)\n"
            "a_0 = Box(3)\n"
        ),
        non_idiomatic_source="if a_0 != 0:\n    r_0 = 1\n",
        idiomatic_source="if a_0:\n    r_0 = 1\n",
        scope_mode="Global",
    )
    cause = classify_root_cause(
        diff_pair(injected), injected, runtime_probe(injected)
    )
    expect("injected __bool__ classifies R4", cause.primary == "R4_OverloadedBuiltins")
    expect(
        "injected evidence names __bool__",
        any("__bool__" in item for item in cause.evidence),
    )

    # R5: comprehension body delegating to a function.
    complex_pair = CodePair(
        pair_id="acceptance-complex",
        idiom=IdiomKind.LIST_COMPREHENSION,
        features=None,
        setup_source="def work(v):\n    return v * v\nx_0 = list(range(64))\n",
        non_idiomatic_source="l_0 = []\nfor e_0 in x_0:\n    l_0.append(work(e_0))\n",
        idiomatic_source="l_0 = [work(e_0) for e_0 in x_0]\n",
        scope_mode="Global",
    )
    cause = classify_root_cause(diff_pair(complex_pair), complex_pair)
    expect(
        "function-call body classifies R5",
        cause.primary == "R5_ComplexComputation",
    )

    elapsed = time.monotonic() - start
    if elapsed >= 120:
        problems.append(f"took {elapsed:.0f}s >= 120s")
    _verdict(
        6,
        not problems,
        f"all opcode oracles and R1-R5 classifications hold in {elapsed:.1f}s"
        if not problems
        else "; ".join(problems),
    )


# ============================================================
# Criterion 7: distribution summary semantics
# ============================================================


def test_criterion_7_distribution_properties():
    start = time.monotonic()
    problems: list[str] = []

    known = distribution_summary([1.0, 2.0, 3.0, 4.0, 100.0])
    if known.outliers != (100.0,) or known.whisker_high != 4.0:
        problems.append("known outlier example wrong")

    rng = random.Random(20260814)
    for trial in range(500):
        size = rng.randint(1, 120)
        scale = 10.0 ** rng.randint(-3, 4)
        values = [rng.gauss(0.0, 1.0) * scale for _ in range(size)]
        if rng.random() < 0.3:  # heavy ties stress interpolated quartiles
            values = [round(v, 1) for v in values]
        summary = distribution_summary(values)
        data = sorted(values)
        fence_low = summary.p25 - 1.5 * summary.iqr
        fence_high = summary.p75 + 1.5 * summary.iqr
        inside = [v for v in data if fence_low <= v <= fence_high]
        outside = sorted(v for v in data if v < fence_low or v > fence_high)
        checks = [
            fence_low <= summary.p25 <= summary.median <= summary.p75 <= fence_high,
            summary.minimum == data[0] and summary.maximum == data[-1],
            summary.whisker_low == min(inside),
            summary.whisker_high == max(inside),
            list(summary.outliers) == outside,
            len(summary.outliers) + len(inside) == size,
            summary.n == size,
        ]
        if not all(checks):
            problems.append(f"trial {trial} violated invariants on n={size}")
            break

    elapsed = time.monotonic() - start
    if elapsed >= 120:
        problems.append(f"took {elapsed:.0f}s >= 120s")
    _verdict(
        7,
        not problems,
        f"fence, whisker, and outlier semantics hold over 500 seeded samples "
        f"in {elapsed:.1f}s"
        if not problems
        else "; ".join(problems),
    )
