"""Measurement protocol: fresh-process invocations, iteration grids.

Each variant of a pair is executed in n fresh interpreter processes; a
process runs the setup once, then times the payload k times with a
monotonic nanosecond clock. Payloads cheaper than the clock resolution
are amplified by an inner repetition loop whose count is calibrated once
per pair: one fresh child per variant grows the count in-process until
an amplified iteration reaches the floor, and the larger of the two
counts is applied to both variants, so the ratio of interest is
unaffected. Each invocation runs a NonIdiomatic child, then an
Idiomatic one: the variants interleave, NonIdiomatic always first.

Raw results append to a JSON Lines store, one record per invocation,
keyed by (pair_id, variant, invocation) for idempotent resume.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import subprocess
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from idiobench import child
from idiobench.synth import CodePair, wrap_calibration, wrap_scope

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

NON_IDIOMATIC = "NonIdiomatic"
IDIOMATIC = "Idiomatic"
VARIANTS = (NON_IDIOMATIC, IDIOMATIC)


class BenchError(RuntimeError):
    pass


class ChildCrash(BenchError):
    """A measurement child exited nonzero; stderr is attached."""


class ClockResolution(BenchError):
    """A duration read zero; the payload needs more amplification."""


class InvocationTimeout(BenchError):
    pass


class EquivalenceGate(BenchError):
    """The pair failed its behavioral check and override was not set."""


class MissingIdiomatic(BenchError, ValueError):
    """The pair has no idiomatic half to measure."""


@dataclass(frozen=True)
class BenchConfig:
    n_invocations: int = 50
    k_iterations: int = 35
    warmup: int = 3
    min_iteration_ns: int = 1_000_000
    max_repetitions: int = 1_048_576
    timeout_s: float = 300.0
    interpreter: str | None = None

    def __post_init__(self) -> None:
        if self.n_invocations < 1 or self.k_iterations < 1:
            raise ValueError("n_invocations and k_iterations must be positive")
        if not 0 <= self.warmup < self.k_iterations:
            raise ValueError("warmup must be nonnegative and below k_iterations")


@dataclass
class TimingMatrix:
    pair_id: str
    variant: str
    n_invocations: int
    k_iterations: int
    warmup: int
    timings_ns: list[list[float]]
    interpreter_id: str
    host_id: str
    repetitions: int = 1

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        grid = self.timings_ns
        if len(grid) != self.n_invocations or any(
            len(row) != self.k_iterations for row in grid
        ):
            raise ValueError("timings grid must be fully populated n x k")
        if any(cell <= 0 for row in grid for cell in row):
            raise ClockResolution("every duration must be positive")

    def measured(self) -> np.ndarray:
        """Post-warmup per-iteration durations, shape (n, k - warmup)."""
        import numpy as np

        return np.asarray(self.timings_ns, dtype=float)[:, self.warmup :]


def resolve_interpreter(cfg: BenchConfig | None = None) -> str:
    return child.resolve_interpreter(cfg.interpreter if cfg is not None else None)


def _child_env() -> dict[str, str]:
    keep = {}
    for key in ("PATH", "SYSTEMROOT", "TMPDIR", "TEMP", "TMP"):
        if key in os.environ:
            keep[key] = os.environ[key]
    keep["PYTHONHASHSEED"] = "0"
    keep["LC_ALL"] = "C"
    return keep


@lru_cache(maxsize=8)
def interpreter_id(interpreter: str) -> str:
    """``<implementation>-<version>`` of ``interpreter``, e.g. ``cpython-3.11.7``."""
    try:
        ident, _ = child.exec_json(
            [
                interpreter,
                "-I",
                "-S",
                "-c",
                "import sys; print('\"%s-%s\"' "
                "% (sys.implementation.name, sys.version.split()[0]))",
            ],
            timeout=30,
        )
    except child.ChildError as exc:
        raise ChildCrash(f"interpreter probe failed: {exc}") from exc
    return ident


def host_id() -> str:
    return platform.node() or "unknown-host"


def run_invocation(
    module_source: str, cfg: BenchConfig, interpreter: str
) -> tuple[dict[str, Any], int]:
    """Run one self-contained timing module in a fresh child.

    Returns:
        The parsed JSON record from the child's last stdout line, and
        the child's process id (distinct per invocation by construction).
    """
    try:
        return child.exec_json(
            [interpreter, "-I", "-S", "-c", module_source],
            timeout=cfg.timeout_s,
            env=_child_env(),
        )
    except subprocess.TimeoutExpired as exc:
        raise InvocationTimeout(f"invocation exceeded {cfg.timeout_s}s") from exc
    except child.ChildError as exc:
        raise ChildCrash(f"child {exc}") from exc


# ============================================================
# Timing store
# ============================================================


class TimingStore:
    """Append-only JSON Lines store of invocation records.

    Records carry ``kind``: ``invocation`` rows hold one per-iteration
    duration grid row; ``calibration`` rows pin the repetition count a
    pair was amplified with, so resumed runs reuse it.

    A process killed mid-append leaves a final line without its newline.
    Loading drops such a torn line from the file, with a warning, so that
    a resumed run measures that record again; a malformed line anywhere
    else raises.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._invocations: dict[tuple[str, str, int], dict[str, Any]] = {}
        self._calibrations: dict[str, int] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        body, _, torn = data.rpartition(b"\n")
        for line in body.split(b"\n"):
            if line.strip():
                self._ingest(json.loads(line))
        if torn:
            log.warning("%s: dropping a torn final line (%d bytes)", self.path, len(torn))
            with self.path.open("r+b") as fh:
                fh.truncate(len(data) - len(torn))

    def _ingest(self, record: dict[str, Any]) -> None:
        kind = record.get("kind", "invocation")
        if kind == "calibration":
            self._calibrations[record["pair_id"]] = int(record["repetitions"])
        else:
            key = (record["pair_id"], record["variant"], int(record["invocation"]))
            self._invocations[key] = record

    def _append(self, record: dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._ingest(record)

    def calibration(self, pair_id: str) -> int | None:
        return self._calibrations.get(pair_id)

    def record_calibration(self, pair_id: str, repetitions: int) -> None:
        if self.calibration(pair_id) == repetitions:
            return
        self._append(
            {"kind": "calibration", "pair_id": pair_id, "repetitions": repetitions}
        )

    def get(self, pair_id: str, variant: str, invocation: int) -> dict[str, Any] | None:
        return self._invocations.get((pair_id, variant, invocation))

    def record_invocation(self, record: dict[str, Any]) -> None:
        key = (record["pair_id"], record["variant"], int(record["invocation"]))
        if key in self._invocations:
            return
        self._append(record)

    def rows(self, pair_id: str, variant: str) -> list[dict[str, Any]]:
        rows = [
            rec
            for (pid, var, _), rec in self._invocations.items()
            if pid == pair_id and var == variant
        ]
        rows.sort(key=lambda rec: rec["invocation"])
        return rows

    def pair_ids(self) -> list[str]:
        return sorted({pid for (pid, _, _) in self._invocations})


# ============================================================
# Calibration and measurement
# ============================================================


def _variant_source(pair: CodePair, variant: str) -> str:
    return pair.non_idiomatic_source if variant == NON_IDIOMATIC else pair.idiomatic_source


def _calibrate_variant(
    pair: CodePair, variant: str, cfg: BenchConfig, interpreter: str
) -> int:
    """Find r so one amplified iteration takes at least min_iteration_ns.

    One fresh child runs the setup once and grows r in-process (see
    ``synth.wrap_calibration``); r stops at ``max_repetitions``.
    """
    module = wrap_calibration(
        _variant_source(pair, variant),
        pair.setup_source,
        pair.scope_mode,
        min_iteration_ns=cfg.min_iteration_ns,
        max_repetitions=cfg.max_repetitions,
    )
    record, _ = run_invocation(module, cfg, interpreter)
    return int(record["repetitions"])


def calibrate(pair: CodePair, cfg: BenchConfig, interpreter: str | None = None) -> int:
    """Calibrate the shared repetition count for both variants.

    Each variant is calibrated in one fresh child of its own, which grows
    the count in-process until one amplified iteration lasts at least
    ``min_iteration_ns``. The larger of the two counts is used for both,
    so the amplification factor cancels out of any ratio of the two
    variants.
    """
    interp = interpreter or resolve_interpreter(cfg)
    return max(
        _calibrate_variant(pair, NON_IDIOMATIC, cfg, interp),
        _calibrate_variant(pair, IDIOMATIC, cfg, interp),
    )


def _matrix_from_rows(
    pair_id: str, variant: str, rows: list[dict[str, Any]], cfg: BenchConfig
) -> TimingMatrix:
    grid = [rows[i]["timings_ns"] for i in range(cfg.n_invocations)]
    first = rows[0]
    return TimingMatrix(
        pair_id=pair_id,
        variant=variant,
        n_invocations=cfg.n_invocations,
        k_iterations=cfg.k_iterations,
        warmup=cfg.warmup,
        timings_ns=grid,
        interpreter_id=first.get("interpreter_id", "unknown"),
        host_id=first.get("host_id", "unknown"),
        repetitions=int(first.get("repetitions", 1)),
    )


def measure(
    pair: CodePair,
    cfg: BenchConfig | None = None,
    store: TimingStore | None = None,
    *,
    assume_equivalent: bool = False,
    progress: Callable[[str, int], None] | None = None,
) -> tuple[TimingMatrix, TimingMatrix]:
    """Measure both variants of ``pair`` under the full protocol.

    Args:
        pair: pair with both sources filled in.
        cfg: protocol parameters; defaults reproduce the reference
            protocol (50 invocations x 35 iterations, warmup 3).
        store: optional JSONL store; completed invocations found there
            are reused instead of re-run.
        assume_equivalent: skip the behavioral gate. Without it the
            pair is differentially checked first and a Divergent or
            Error outcome aborts the measurement.
        progress: optional callback (variant, invocation index).

    Returns:
        (non-idiomatic matrix, idiomatic matrix), each n x k of
        per-iteration durations in nanoseconds (amplification already
        divided out).
    """
    cfg = cfg or BenchConfig()
    if not pair.idiomatic_source.strip():
        raise MissingIdiomatic(f"pair {pair.pair_id} has no idiomatic source")
    interp = resolve_interpreter(cfg)
    if not assume_equivalent:
        from idiobench.equivalence import check

        report = check(pair, interpreter=interp)
        if report.status != "Equivalent":
            raise EquivalenceGate(
                f"pair {pair.pair_id} is {report.status}; "
                "pass assume_equivalent=True to override"
            )

    interp_id = interpreter_id(interp)
    host = host_id()

    reps = store.calibration(pair.pair_id) if store else None
    if reps is None:
        reps = calibrate(pair, cfg, interp)
        if store:
            store.record_calibration(pair.pair_id, reps)

    collected: dict[str, list[dict[str, Any]]] = {v: [] for v in VARIANTS}
    for invocation in range(cfg.n_invocations):
        for variant in VARIANTS:
            existing = store.get(pair.pair_id, variant, invocation) if store else None
            if (
                existing
                and existing.get("repetitions") == reps
                and len(existing.get("timings_ns", [])) == cfg.k_iterations
            ):
                collected[variant].append(existing)
                continue
            module = wrap_scope(
                _variant_source(pair, variant),
                pair.setup_source,
                pair.scope_mode,
                k_iterations=cfg.k_iterations,
                repetitions=reps,
            )
            raw, pid = run_invocation(module, cfg, interp)
            totals = raw["timings_ns"]
            if len(totals) != cfg.k_iterations:
                raise ChildCrash(
                    f"expected {cfg.k_iterations} iterations, got {len(totals)}"
                )
            if any(t <= 0 for t in totals):
                raise ClockResolution(
                    f"zero duration at repetitions={reps}; raise min_iteration_ns"
                )
            record = {
                "kind": "invocation",
                "pair_id": pair.pair_id,
                "variant": variant,
                "invocation": invocation,
                "timings_ns": [t / reps for t in totals],
                "repetitions": reps,
                "interpreter_id": interp_id,
                "host_id": host,
                "pid": pid,
            }
            if store:
                store.record_invocation(record)
            collected[variant].append(record)
            if progress:
                progress(variant, invocation)

    return (
        _matrix_from_rows(pair.pair_id, NON_IDIOMATIC, collected[NON_IDIOMATIC], cfg),
        _matrix_from_rows(pair.pair_id, IDIOMATIC, collected[IDIOMATIC], cfg),
    )


def load_matrices(
    store: TimingStore, pair_id: str, cfg: BenchConfig | None = None
) -> tuple[TimingMatrix, TimingMatrix]:
    """Rebuild both variants' matrices from stored rows.

    The grid shape is taken from the stored rows themselves; ``cfg``
    supplies the warmup (and validates n/k when given).
    """
    cfg = cfg or BenchConfig()
    out = []
    for variant in VARIANTS:
        rows = store.rows(pair_id, variant)
        if not rows:
            raise KeyError(f"no stored rows for {pair_id}/{variant}")
        n = len(rows)
        k = len(rows[0]["timings_ns"])
        shaped = replace(cfg, n_invocations=n, k_iterations=k)
        if [r["invocation"] for r in rows] != list(range(n)):
            raise ValueError(f"store holds a partial grid for {pair_id}/{variant}")
        out.append(_matrix_from_rows(pair_id, variant, rows, shaped))
    return out[0], out[1]
