"""Ratio statistics over timing matrices.

The central quantity is the performance-change ratio rho: the summed
post-warmup non-idiomatic durations divided by the summed idiomatic
ones, so rho > 1 means the idiomatic form is faster. Uncertainty comes
from a two-level bootstrap that resamples whole invocations first and
iterations within each drawn invocation second, reflecting that
iterations within one process are not independent of each other.
Classification is by CI position relative to 1, and interval width is
reported relative to the point estimate (RCIW).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, TextIO

import numpy as np

from idiobench.catalog import FeatureVector, IdiomKind, feature_cell, feature_space

SPEEDUP = "Speedup"
SLOWDOWN = "Slowdown"
UNCHANGED = "Unchanged"


class ShapeMismatch(ValueError):
    pass


class ZeroDenominator(ArithmeticError):
    pass


class EmptyInput(ValueError):
    pass


@dataclass(frozen=True)
class PerfChange:
    rho: float
    ci_low: float
    ci_high: float
    rciw: float
    classification: str
    n_bootstrap: int
    confidence: float

    def __post_init__(self) -> None:
        if self.ci_low > self.ci_high:
            raise ValueError("ci_low must not exceed ci_high")
        if self.classification != classify_change(self.ci_low, self.ci_high):
            raise ValueError("classification inconsistent with the CI rule")


def _measured(matrix: Any) -> np.ndarray:
    if hasattr(matrix, "measured"):
        return matrix.measured()
    data = np.asarray(matrix, dtype=float)
    if data.ndim != 2:
        raise ShapeMismatch("timing data must be a 2-D grid")
    return data


def _paired(non_id: Any, idio: Any) -> tuple[np.ndarray, np.ndarray]:
    a, b = _measured(non_id), _measured(idio)
    if a.shape != b.shape:
        raise ShapeMismatch(f"grids differ in shape: {a.shape} vs {b.shape}")
    if hasattr(non_id, "warmup") and hasattr(idio, "warmup"):
        if non_id.warmup != idio.warmup:
            raise ShapeMismatch("matrices disagree on warmup")
    if a.size == 0:
        raise EmptyInput("no measured iterations")
    return a, b


def compute_rho(non_id: Any, idio: Any) -> float:
    """Ratio of summed measured durations, non-idiomatic over idiomatic.

    Args:
        non_id, idio: TimingMatrix objects or plain (n, m) arrays of
            measured (post-warmup) durations with identical shape.

    Returns:
        rho > 1 when the idiomatic variant is faster.
    """
    a, b = _paired(non_id, idio)
    denominator = float(b.sum())
    if denominator <= 0:
        raise ZeroDenominator("idiomatic durations sum to zero")
    return float(a.sum()) / denominator


def _resampled_sums(data: np.ndarray, B: int, rng: np.random.Generator) -> np.ndarray:
    """Hierarchical resample: invocations first, iterations within each."""
    n, m = data.shape
    invocations = rng.integers(0, n, size=(B, n))
    rows = data[invocations]
    iterations = rng.integers(0, m, size=(B, n, m))
    draws = np.take_along_axis(rows, iterations, axis=2)
    return draws.sum(axis=(1, 2))


def _nearest_rank_index(q: float, B: int) -> int:
    """Zero-based nearest-rank order statistic: ceil(q * B) - 1, clamped.

    The product is nudged down by a hair so quantiles that land exactly
    on a rank (0.025 * 1000 = 25) are not pushed up a rank by floating
    point dust in q.
    """
    rank = math.ceil(q * B - 1e-9)
    return min(B - 1, max(0, rank - 1))


def bootstrap_ci(
    non_id: Any,
    idio: Any,
    B: int = 1000,
    confidence: float = 0.95,
    seed: int | None = 0,
) -> tuple[float, float, float]:
    """Two-level bootstrap CI for rho, plus its relative width.

    Args:
        non_id, idio: as in compute_rho.
        B: bootstrap replicates; B=1 degenerates to a zero-width
            interval at the single replicate.
        confidence: central interval mass.
        seed: generator seed; fixed seed gives identical output.

    Returns:
        (ci_low, ci_high, rciw) with rciw = (ci_high - ci_low) / rho
        anchored at the point estimate.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    a, b = _paired(non_id, idio)
    point = compute_rho(a, b)
    rng = np.random.default_rng(seed)
    sums_a = _resampled_sums(a, B, rng)
    sums_b = _resampled_sums(b, B, rng)
    ratios = np.sort(sums_a / sums_b)
    lo_q = (1.0 - confidence) / 2.0
    hi_q = (1.0 + confidence) / 2.0
    lo_idx = _nearest_rank_index(lo_q, B)
    hi_idx = _nearest_rank_index(hi_q, B)
    ci_low, ci_high = float(ratios[lo_idx]), float(ratios[hi_idx])
    return ci_low, ci_high, (ci_high - ci_low) / point


def classify_change(ci_low: float, ci_high: float) -> str:
    if ci_low > 1.0:
        return SPEEDUP
    if ci_high < 1.0:
        return SLOWDOWN
    return UNCHANGED


def perf_change(
    non_id: Any,
    idio: Any,
    B: int = 1000,
    confidence: float = 0.95,
    seed: int | None = 0,
) -> PerfChange:
    """Point estimate, CI, RCIW, and classification in one record."""
    rho = compute_rho(non_id, idio)
    ci_low, ci_high, rciw = bootstrap_ci(non_id, idio, B, confidence, seed)
    return PerfChange(
        rho=rho,
        ci_low=ci_low,
        ci_high=ci_high,
        rciw=rciw,
        classification=classify_change(ci_low, ci_high),
        n_bootstrap=B,
        confidence=confidence,
    )


# ============================================================
# Distribution summaries
# ============================================================


@dataclass(frozen=True)
class DistributionSummary:
    n: int
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    @property
    def iqr(self) -> float:
        return self.p75 - self.p25


def distribution_summary(values: Sequence[float]) -> DistributionSummary:
    """Box statistics with 1.5 IQR fences and non-outlier whiskers."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise EmptyInput("distribution_summary needs at least one value")
    p25, median, p75 = (float(np.percentile(data, q)) for q in (25, 50, 75))
    iqr = p75 - p25
    fence_low = p25 - 1.5 * iqr
    fence_high = p75 + 1.5 * iqr
    inside = data[(data >= fence_low) & (data <= fence_high)]
    outliers = data[(data < fence_low) | (data > fence_high)]
    return DistributionSummary(
        n=int(data.size),
        minimum=float(data.min()),
        p25=p25,
        median=median,
        p75=p75,
        maximum=float(data.max()),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=tuple(float(v) for v in np.sort(outliers)),
    )


# ============================================================
# Feature correlation
# ============================================================


@dataclass(frozen=True)
class FeatureCorrelation:
    feature: str
    spearman_rho: float
    permutation_p: float
    direction: str  # "+", "-", or "0"


@dataclass
class CorrelationReport:
    idiom: IdiomKind
    n_rows: int
    entries: list[FeatureCorrelation]
    skipped: list[tuple[str, str]] = field(default_factory=list)
    vif_dropped: list[tuple[str, float]] = field(default_factory=list)


def _level_orders(idiom: IdiomKind) -> dict[str, list[Any]]:
    """Declared value order per dimension, for ordinal encoding."""
    return {name: list(values) for name, values in feature_space(idiom).dims.items()}


def _encode_rows(
    rows: Sequence[tuple[FeatureVector, float]], idiom: IdiomKind
) -> tuple[list[str], np.ndarray]:
    orders = _level_orders(idiom)
    names: list[str] = []
    columns: dict[str, list[float]] = {}
    for vector, _ in rows:
        dims = vector.dims()
        for name in sorted(dims):
            value = dims[name]
            if isinstance(value, tuple):
                # Multiset dimensions expand to one count per level.
                for level in orders[name]:
                    key = f"{name}[{level}]"
                    columns.setdefault(key, []).append(float(value.count(level)))
            elif isinstance(value, bool):
                columns.setdefault(name, []).append(1.0 if value else 0.0)
            elif isinstance(value, (int, float)):
                columns.setdefault(name, []).append(float(value))
            else:
                levels = orders[name]
                columns.setdefault(name, []).append(float(levels.index(value)))
    names = sorted(columns)
    matrix = np.column_stack([np.asarray(columns[n]) for n in names])
    return names, matrix


def _vif(matrix: np.ndarray, col: int) -> float:
    y = matrix[:, col]
    others = np.delete(matrix, col, axis=1)
    design = np.column_stack([np.ones(len(y)), others])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ coef
    total = float(((y - y.mean()) ** 2).sum())
    if total == 0.0:
        return float("inf")
    r_squared = 1.0 - float((residual**2).sum()) / total
    if r_squared >= 1.0:
        return float("inf")
    return 1.0 / (1.0 - r_squared)


def _average_ranks(values: Any) -> np.ndarray:
    """1-based float ranks; tied values share their mean rank.

    Matches ``scipy.stats.rankdata(values)`` (method "average") on 1-D
    input without NaNs.
    """
    data = np.asarray(values)
    order = np.argsort(data, kind="mergesort")
    ordered = data[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], data.size]
    ranks = np.empty(data.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _spearman_with_permutation(
    x: np.ndarray, y_ranks: np.ndarray, perm_ranks: np.ndarray
) -> tuple[float, float]:
    x_ranks = _average_ranks(x)
    xc = x_ranks - x_ranks.mean()
    x_scale = float(np.sqrt((xc**2).sum()))
    yc = y_ranks - y_ranks.mean()
    y_scale = float(np.sqrt((yc**2).sum()))
    if x_scale == 0.0 or y_scale == 0.0:
        # A constant side carries no rank information: no effect, no
        # evidence against the null.
        return 0.0, 1.0
    observed = float((xc @ yc) / (x_scale * y_scale))
    perm_c = perm_ranks - perm_ranks.mean(axis=1, keepdims=True)
    perm_scale = np.sqrt((perm_c**2).sum(axis=1))
    perm_r = (perm_c @ xc) / (perm_scale * x_scale)
    extreme = int(np.count_nonzero(np.abs(perm_r) >= abs(observed) - 1e-12))
    p_value = (1 + extreme) / (len(perm_r) + 1)
    return observed, p_value


def feature_correlation(
    rows: Sequence[tuple[FeatureVector, float]],
    permutations: int = 1000,
    seed: int | None = 0,
    vif_threshold: float = 5.0,
) -> CorrelationReport:
    """Rank-correlate each feature dimension against log rho.

    Args:
        rows: (feature vector, rho) pairs, all from one idiom, at least
            ten of them.
        permutations: label permutations for the two-sided p-value.
        seed: permutation RNG seed.
        vif_threshold: features whose variance inflation factor exceeds
            this are dropped one at a time (first in name order) before
            correlation.

    Returns:
        CorrelationReport with per-feature Spearman rho, permutation p,
        and direction sign; constant features are skipped with a note.
    """
    if len(rows) < 10:
        raise ValueError("feature_correlation needs at least 10 rows")
    idioms = {vector.idiom for vector, _ in rows}
    if len(idioms) != 1:
        raise ValueError("rows must all come from a single idiom")
    idiom = idioms.pop()
    if any(rho <= 0 for _, rho in rows):
        raise ValueError("rho values must be positive for the log transform")

    names, matrix = _encode_rows(rows, idiom)
    log_rho = np.log(np.asarray([rho for _, rho in rows], dtype=float))

    report = CorrelationReport(idiom=idiom, n_rows=len(rows), entries=[])

    keep = []
    for i, name in enumerate(names):
        if np.ptp(matrix[:, i]) == 0.0:
            report.skipped.append((name, "constant feature"))
        else:
            keep.append(i)
    names = [names[i] for i in keep]
    matrix = matrix[:, keep]

    # Iterative collinearity screen.
    while matrix.shape[1] >= 2:
        vifs = [(_vif(matrix, i), names[i], i) for i in range(matrix.shape[1])]
        offending = sorted(
            ((v, n, i) for v, n, i in vifs if v > vif_threshold), key=lambda t: t[1]
        )
        if not offending:
            break
        vif_value, name, index = offending[0]
        report.vif_dropped.append((name, vif_value))
        names.pop(index)
        matrix = np.delete(matrix, index, axis=1)

    rng = np.random.default_rng(seed)
    y_ranks = _average_ranks(log_rho)
    perm_ranks = np.stack([rng.permutation(y_ranks) for _ in range(permutations)])
    for i, name in enumerate(names):
        rho_s, p_value = _spearman_with_permutation(matrix[:, i], y_ranks, perm_ranks)
        direction = "+" if rho_s > 0 else "-" if rho_s < 0 else "0"
        report.entries.append(
            FeatureCorrelation(
                feature=name,
                spearman_rho=rho_s,
                permutation_p=p_value,
                direction=direction,
            )
        )
    return report


# ============================================================
# Results CSV
# ============================================================


@dataclass(frozen=True)
class PairResult:
    pair_id: str
    idiom: IdiomKind
    features: FeatureVector | None
    change: PerfChange


def write_results_csv(results: Iterable[PairResult], fh: TextIO) -> None:
    """One row per pair: identity, features, rho, CI, RCIW, class."""
    results = list(results)
    feature_names = sorted(
        {name for r in results if r.features for name in r.features.dims()}
    )
    writer = csv.writer(fh)
    writer.writerow(
        ["pair_id", "idiom"]
        + feature_names
        + ["rho", "ci_low", "ci_high", "rciw", "classification"]
    )
    for r in results:
        dims = r.features.dims() if r.features else {}
        row = [r.pair_id, r.idiom.value]
        row += [feature_cell(dims[n]) if n in dims else "" for n in feature_names]
        row += [
            repr(r.change.rho),
            repr(r.change.ci_low),
            repr(r.change.ci_high),
            repr(r.change.rciw),
            r.change.classification,
        ]
        writer.writerow(row)
