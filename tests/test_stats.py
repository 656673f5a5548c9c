"""Ratio statistics: exactness, bootstrap behavior, summaries, correlation."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idiobench.catalog import IdiomKind, enumerate_matrix, feature_space
from idiobench.stats import (
    SLOWDOWN,
    SPEEDUP,
    UNCHANGED,
    DistributionSummary,
    EmptyInput,
    PairResult,
    PerfChange,
    ShapeMismatch,
    ZeroDenominator,
    bootstrap_ci,
    classify_change,
    compute_rho,
    distribution_summary,
    feature_correlation,
    perf_change,
    write_results_csv,
)


def _grid(value: float, n: int = 4, m: int = 6) -> np.ndarray:
    return np.full((n, m), value, dtype=float)


# ============================================================
# Point estimate
# ============================================================


def test_rho_exact_on_constant_grids():
    assert compute_rho(_grid(2.0), _grid(1.0)) == 2.0
    assert compute_rho(_grid(1.0), _grid(4.0)) == 0.25


def test_rho_greater_than_one_means_idiomatic_faster():
    slow_non_idiomatic = _grid(10.0)
    fast_idiomatic = _grid(5.0)
    assert compute_rho(slow_non_idiomatic, fast_idiomatic) == 2.0


def test_rho_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compute_rho(_grid(1.0, n=3), _grid(1.0, n=4))


def test_rho_rejects_zero_denominator():
    with pytest.raises(ZeroDenominator):
        compute_rho(_grid(1.0), np.zeros((4, 6)))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.1, 100.0),
    st.floats(0.1, 100.0),
    st.floats(0.001, 1000.0),
)
def test_rho_scale_invariance_and_antisymmetry(a, b, c):
    left, right = _grid(a), _grid(b)
    rho = compute_rho(left, right)
    assert math.isclose(compute_rho(left * c, right * c), rho, rel_tol=1e-12)
    assert math.isclose(compute_rho(right, left), 1.0 / rho, rel_tol=1e-12)


# ============================================================
# Bootstrap
# ============================================================


def test_bootstrap_degenerate_on_constant_data():
    lo, hi, rciw = bootstrap_ci(_grid(2.0), _grid(1.0), B=500, seed=1)
    assert (lo, hi, rciw) == (2.0, 2.0, 0.0)


def test_bootstrap_single_replicate_is_zero_width():
    rng = np.random.default_rng(3)
    a = rng.lognormal(0.1, 0.05, (5, 8))
    b = rng.lognormal(0.0, 0.05, (5, 8))
    lo, hi, rciw = bootstrap_ci(a, b, B=1, seed=0)
    assert lo == hi
    assert rciw == 0.0


def test_bootstrap_seed_determinism():
    rng = np.random.default_rng(7)
    a = rng.lognormal(0.2, 0.1, (6, 10))
    b = rng.lognormal(0.0, 0.1, (6, 10))
    first = bootstrap_ci(a, b, B=300, seed=42)
    second = bootstrap_ci(a, b, B=300, seed=42)
    third = bootstrap_ci(a, b, B=300, seed=43)
    assert first == second
    assert first != third


def test_bootstrap_interval_brackets_point_estimate():
    rng = np.random.default_rng(11)
    a = rng.lognormal(0.4, 0.2, (8, 12))
    b = rng.lognormal(0.0, 0.2, (8, 12))
    rho = compute_rho(a, b)
    lo, hi, rciw = bootstrap_ci(a, b, B=1000, seed=5)
    assert lo <= rho <= hi
    assert rciw == pytest.approx((hi - lo) / rho)


def test_bootstrap_validates_arguments():
    with pytest.raises(ValueError):
        bootstrap_ci(_grid(1.0), _grid(1.0), B=0)
    with pytest.raises(ValueError):
        bootstrap_ci(_grid(1.0), _grid(1.0), confidence=1.0)


def test_nearest_rank_indices_at_b1000():
    # With B=1000 at 95%, the interval endpoints are the 25th and 975th
    # order statistics (ceil(0.025 * 1000) = 25, ceil(0.975 * 1000) = 975).
    rng = np.random.default_rng(2)
    a = rng.lognormal(0.0, 0.3, (5, 9))
    b = rng.lognormal(0.0, 0.3, (5, 9))
    lo, hi, _ = bootstrap_ci(a, b, B=1000, confidence=0.95, seed=9)

    from idiobench.stats import _measured, _resampled_sums

    rng2 = np.random.default_rng(9)
    sums_a = _resampled_sums(_measured(a), 1000, rng2)
    sums_b = _resampled_sums(_measured(b), 1000, rng2)
    ratios = np.sort(sums_a / sums_b)
    assert lo == ratios[24]
    assert hi == ratios[974]


# ============================================================
# Classification
# ============================================================


def test_classification_boundaries():
    assert classify_change(1.0001, 1.5) == SPEEDUP
    assert classify_change(0.5, 0.9999) == SLOWDOWN
    assert classify_change(0.99, 1.01) == UNCHANGED
    assert classify_change(1.0, 1.2) == UNCHANGED  # boundary is strict
    assert classify_change(0.8, 1.0) == UNCHANGED


def test_perf_change_record_is_consistent():
    rng = np.random.default_rng(13)
    a = rng.lognormal(0.5, 0.1, (6, 10))
    b = rng.lognormal(0.0, 0.1, (6, 10))
    change = perf_change(a, b, B=400, seed=0)
    assert change.ci_low <= change.rho <= change.ci_high
    assert change.classification == SPEEDUP
    assert change.n_bootstrap == 400
    assert change.confidence == 0.95


def test_perf_change_rejects_inconsistent_record():
    with pytest.raises(ValueError):
        PerfChange(
            rho=1.0,
            ci_low=1.2,
            ci_high=1.1,  # inverted interval
            rciw=0.1,
            classification=SPEEDUP,
            n_bootstrap=10,
            confidence=0.95,
        )
    with pytest.raises(ValueError):
        PerfChange(
            rho=1.5,
            ci_low=1.2,
            ci_high=1.8,
            rciw=0.4,
            classification=SLOWDOWN,  # contradicts ci_low > 1
            n_bootstrap=10,
            confidence=0.95,
        )


# ============================================================
# Distribution summaries
# ============================================================


def test_distribution_known_example():
    summary = distribution_summary([1.0, 2.0, 3.0, 4.0, 100.0])
    assert summary.outliers == (100.0,)
    assert summary.whisker_low == 1.0
    assert summary.whisker_high == 4.0
    assert summary.maximum == 100.0
    assert summary.median == 3.0


def test_distribution_singleton():
    summary = distribution_summary([2.0])
    assert summary.n == 1
    assert summary.minimum == summary.maximum == summary.median == 2.0
    assert summary.outliers == ()


def test_distribution_empty_rejected():
    with pytest.raises(EmptyInput):
        distribution_summary([])


values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(values_strategy)
def test_distribution_invariants(values):
    summary = distribution_summary(values)
    data = sorted(values)
    fence_low = summary.p25 - 1.5 * summary.iqr
    fence_high = summary.p75 + 1.5 * summary.iqr

    # The fences bracket the quartiles; extremes come from the data.
    assert fence_low <= summary.p25 <= summary.median <= summary.p75 <= fence_high
    assert summary.n == len(values)
    assert summary.minimum == data[0] and summary.maximum == data[-1]
    assert summary.minimum <= summary.whisker_low <= summary.whisker_high <= summary.maximum

    # Whiskers are the extreme values inside the 1.5 IQR fences.
    inside = [v for v in data if fence_low <= v <= fence_high]
    assert summary.whisker_low == min(inside)
    assert summary.whisker_high == max(inside)

    # Outliers are exactly the values beyond the fences, sorted.
    outside = sorted(v for v in data if v < fence_low or v > fence_high)
    assert list(summary.outliers) == outside
    assert len(summary.outliers) + len(inside) == len(values)


@settings(max_examples=100, deadline=None)
@given(values_strategy)
def test_distribution_median_within_whiskers(values):
    # The median interpolates the central data points, which always sit
    # inside the fences, so it can never escape the whiskers. The same
    # does not hold for interpolated p25/p75 under heavy ties.
    summary = distribution_summary(values)
    assert summary.whisker_low <= summary.median <= summary.whisker_high
    assert summary.median not in summary.outliers or summary.iqr == 0


# ============================================================
# Feature correlation
# ============================================================


def _vectors_with_rho(idiom: IdiomKind, rho_of) -> list[tuple]:
    vectors = enumerate_matrix(idiom)
    return [(v, rho_of(v)) for v in vectors]


@pytest.mark.parametrize(
    "values",
    [
        [0.5, -1.25, 3.0, 2.75, 0.0],
        [3, 1, 2, 3, 3, 1, 0],
        [7.0],
        [4, 4, 4, 4],
    ],
    ids=["distinct-floats", "integer-ties", "single", "all-equal"],
)
def test_average_ranks_match_scipy_rankdata(values):
    sps = pytest.importorskip("scipy.stats")
    from idiobench.stats import _average_ranks

    ours, theirs = _average_ranks(values), sps.rankdata(values)
    assert ours.dtype == theirs.dtype
    assert np.array_equal(ours, theirs)


def test_correlation_directions():
    rows = _vectors_with_rho(
        IdiomKind.LIST_COMPREHENSION,
        lambda v: 1.0 + 0.3 * math.log10(1 + (v.size or 0)) - 0.05 * v.node_counts["num_if"],
    )
    report = feature_correlation(rows, permutations=300, seed=0)
    by_name = {e.feature: e for e in report.entries}
    assert by_name["size"].direction == "+"
    assert by_name["size"].permutation_p <= 0.01
    assert by_name["num_if"].direction == "-"
    assert report.idiom is IdiomKind.LIST_COMPREHENSION
    assert report.n_rows == len(rows)


def test_correlation_skips_constant_feature():
    vectors = [
        v for v in enumerate_matrix(IdiomKind.LIST_COMPREHENSION) if v.scope == "Global"
    ]
    rows = [(v, 1.0 + 0.1 * (v.size or 0) ** 0.25) for v in vectors]
    report = feature_correlation(rows, permutations=100, seed=0)
    assert any(name == "scope" for name, _ in report.skipped)
    assert all(e.feature != "scope" for e in report.entries)


def test_correlation_requires_enough_rows():
    vectors = enumerate_matrix(IdiomKind.LOOP_ELSE)[:5]
    with pytest.raises(ValueError):
        feature_correlation([(v, 1.0) for v in vectors])


def test_correlation_requires_single_idiom():
    mix = [
        (enumerate_matrix(IdiomKind.LOOP_ELSE)[0], 1.0),
        (enumerate_matrix(IdiomKind.LIST_COMPREHENSION)[0], 1.1),
    ] * 5
    with pytest.raises(ValueError):
        feature_correlation(mix)


def test_correlation_rejects_nonpositive_rho():
    vectors = enumerate_matrix(IdiomKind.LOOP_ELSE)[:12]
    rows = [(v, 0.0) for v in vectors]
    with pytest.raises(ValueError):
        feature_correlation(rows)


def test_correlation_constant_rho_marks_all_insignificant():
    vectors = enumerate_matrix(IdiomKind.LOOP_ELSE)
    rows = [(v, 1.0) for v in vectors]
    report = feature_correlation(rows, permutations=200, seed=1)
    assert all(e.permutation_p > 0.05 for e in report.entries)


def test_permutation_p_in_unit_interval():
    rows = _vectors_with_rho(
        IdiomKind.LOOP_ELSE, lambda v: 1.0 + (0.2 if v.is_break else 0.0)
    )
    report = feature_correlation(rows, permutations=100, seed=0)
    for entry in report.entries:
        assert 0.0 < entry.permutation_p <= 1.0


# ============================================================
# Results CSV
# ============================================================


def _change(rho: float) -> PerfChange:
    width = 0.02
    lo, hi = rho - width, rho + width
    return PerfChange(
        rho=rho,
        ci_low=lo,
        ci_high=hi,
        rciw=(hi - lo) / rho,
        classification=classify_change(lo, hi),
        n_bootstrap=100,
        confidence=0.95,
    )


def test_results_csv_round_trip():
    vectors = enumerate_matrix(IdiomKind.CHAIN_COMPARISON)[:3]
    results = [
        PairResult(f"id-{i}", IdiomKind.CHAIN_COMPARISON, v, _change(1.5 + i))
        for i, v in enumerate(vectors)
    ]
    buf = io.StringIO()
    write_results_csv(results, buf)
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    assert len(rows) == 3
    assert rows[0]["pair_id"] == "id-0"
    assert rows[0]["idiom"] == "chain-comparison"
    assert float(rows[0]["rho"]) == 1.5
    assert rows[0]["classification"] == SPEEDUP
    # Tuple-valued features serialize with a pipe separator.
    assert "|" in rows[0]["compops"] or len(vectors[0].node_choices["compops"]) == 1


def test_results_csv_handles_missing_features():
    results = [PairResult("ext-1", IdiomKind.LOOP_ELSE, None, _change(0.8))]
    buf = io.StringIO()
    write_results_csv(results, buf)
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    assert rows[0]["classification"] == SLOWDOWN
    assert rows[0]["pair_id"] == "ext-1"


def test_results_csv_floats_survive_exactly():
    vector = enumerate_matrix(IdiomKind.LOOP_ELSE)[0]
    change = _change(1.2345678901234567)
    buf = io.StringIO()
    write_results_csv([PairResult("x", IdiomKind.LOOP_ELSE, vector, change)], buf)
    buf.seek(0)
    row = list(csv.DictReader(buf))[0]
    assert float(row["rho"]) == change.rho
    assert float(row["ci_low"]) == change.ci_low
