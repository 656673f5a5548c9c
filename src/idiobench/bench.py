"""Measurement protocol: fresh-process invocations, iteration grids.

A pair is measured in n fresh interpreter processes, one per invocation.
Each process runs the setup once, then, in each of k iterations, times
both variants' payloads back to back with a monotonic nanosecond clock:
NonIdiomatic first on even iterations, Idiomatic first on odd ones.
Under Local scope the two payloads are two functions, and the
invocation's parity decides which is defined first. Payloads cheaper
than the clock resolution are amplified by an inner repetition loop
whose count is calibrated once per pair: one fresh child runs the setup
and grows each variant's count in-process until an amplified iteration
reaches the floor, and the larger of the two counts is applied to both
variants, so the ratio of interest is unaffected.

Raw results append to a JSON Lines store, one row per invocation keyed
by (pair_id, invocation), holding both variants' durations and the
repetition count. A row carries the ``content_id`` of the code and
interpreter it timed and the calibration floor and cap that chose its
count, and a resumed run reuses only rows that match on all three, so an
edited pair, another interpreter or another floor is timed again. A row
also records how its pair was admitted, so a pair that is reused whole
from rows written behind a passing gate is not gated again.

``measure`` and ``load_grid`` return one ``TimingGrid`` per pair: its
rows as stored, checked once. ``halves()`` splits them into the two
post-warmup grids, as plain lists, that ``stats`` compares.

The child-process layer is imported by the functions that start a
child, so a caller that only reads a store or names the running
interpreter does not load it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any

from idiobench.synth import CodePair, wrap_calibration, wrap_pair

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class TimingGrid:
    """One pair's n timed invocations, each row as the store holds it:
    2k per-repetition durations in nanoseconds, the non-idiomatic k first.
    """

    pair_id: str
    warmup: int
    rows: list[list[float]]
    repetitions: int
    interpreter_id: str
    host_id: str

    def __post_init__(self) -> None:
        k = len(self.rows[0]) // 2 if self.rows else 0
        if not k or any(len(row) != 2 * k for row in self.rows):
            raise ValueError("timing rows must be non-empty and all of one even length 2k")
        if not 0 <= self.warmup < k:
            raise ValueError(f"warmup {self.warmup} must be nonnegative and below k={k}")
        if any(cell <= 0 for row in self.rows for cell in row):
            raise ClockResolution("every duration must be positive")

    @classmethod
    def from_rows(cls, pair_id: str, rows: list[dict[str, Any]], warmup: int) -> TimingGrid:
        """The grid of a pair's store rows, given in invocation order."""
        first = rows[0]
        return cls(
            pair_id=pair_id,
            warmup=warmup,
            rows=[row["timings_ns"] for row in rows],
            repetitions=first["repetitions"],
            interpreter_id=first["interpreter_id"],
            host_id=first["host_id"],
        )

    def halves(self) -> tuple[list[list[float]], list[list[float]]]:
        """Post-warmup (non-idiomatic, idiomatic) grids, each n x (k - warmup)."""
        k = len(self.rows[0]) // 2
        return (
            [row[self.warmup : k] for row in self.rows],
            [row[k + self.warmup :] for row in self.rows],
        )


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
    """``<implementation>-<version>`` of ``interpreter``, e.g. ``cpython-3.11.7``.

    The running interpreter names itself; any other is asked in a child.
    """
    if interpreter == sys.executable:
        return f"{sys.implementation.name}-{sys.version.split()[0]}"
    from idiobench import child

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
    """This host's network name, the value ``platform.node()`` gives."""
    # Importing platform costs a stage milliseconds; only a host without
    # os.uname (Windows) needs it.
    if hasattr(os, "uname"):
        node = os.uname().nodename
    else:
        import platform

        node = platform.node()
    return node or "unknown-host"


def run_invocation(
    module_source: str, cfg: BenchConfig, interpreter: str
) -> tuple[dict[str, Any], int]:
    """Run one self-contained timing module in a fresh child.

    Returns:
        The parsed JSON record from the child's last stdout line, and
        the child's process id (distinct per invocation by construction).
    """
    import subprocess

    from idiobench import child

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


def content_id(pair: CodePair, interp_id: str) -> str:
    """16 hex digits of a sha1 over the timed code and the interpreter id."""
    code = (pair.setup_source, pair.non_idiomatic_source, pair.idiomatic_source)
    key = json.dumps([*code, pair.scope_mode, interp_id])
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


class TimingStore:
    """Append-only JSON Lines store, one row per timed invocation.

    A row is ``{pair_id, invocation, content_id, timings_ns, repetitions,
    min_iteration_ns, max_repetitions, gate, interpreter_id, host_id,
    pid}``, keyed by ``(pair_id, invocation)``; a later row replaces an
    earlier one with its key. ``timings_ns`` holds 2k per-repetition
    durations, the non-idiomatic k first, ``repetitions`` the count both
    variants shared, ``min_iteration_ns`` and ``max_repetitions`` the
    floor and cap it was calibrated for, and ``gate`` how the pair was
    admitted: ``"Equivalent"`` behind a passing gate, ``"assumed"``
    under ``assume_equivalent``.

    Loading raises ``ValueError`` on a line without ``content_id``, as
    written before rows were keyed by content. A process killed
    mid-append leaves a final line without its newline; loading drops it
    from the file, with a warning, so that a resumed run measures that
    row again. A malformed line anywhere else raises.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._rows: dict[tuple[str, int], dict[str, Any]] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        body, _, torn = data.rpartition(b"\n")
        for line in body.split(b"\n"):
            if line.strip():
                record = json.loads(line)
                if "content_id" not in record:
                    raise ValueError(
                        f"{self.path} holds a record without content_id, written "
                        "by an older idiobench; re-run bench into a new store"
                    )
                self._rows[(record["pair_id"], record["invocation"])] = record
        if torn:
            log.warning("%s: dropping a torn final line (%d bytes)", self.path, len(torn))
            with self.path.open("r+b") as fh:
                fh.truncate(len(data) - len(torn))

    def record_invocation(self, row: dict[str, Any]) -> None:
        key = (row["pair_id"], row["invocation"])
        if self._rows.get(key) == row:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._rows[key] = row

    def rows(self, pair_id: str) -> list[dict[str, Any]]:
        """The pair's rows in invocation order."""
        return sorted(
            (row for (pid, _), row in self._rows.items() if pid == pair_id),
            key=lambda row: row["invocation"],
        )

    def pair_ids(self) -> list[str]:
        return sorted({pid for (pid, _) in self._rows})


# ============================================================
# Calibration and measurement
# ============================================================


def calibrate(pair: CodePair, cfg: BenchConfig, interpreter: str | None = None) -> int:
    """Calibrate the shared repetition count for both variants.

    One fresh child runs the setup once, then grows each variant's count
    in-process in turn until one amplified iteration lasts at least
    ``min_iteration_ns`` (see ``synth.wrap_calibration``); a count stops
    at ``max_repetitions``. The larger of the two counts is used for
    both, so the amplification factor cancels out of any ratio of the
    two variants.
    """
    from idiobench import child

    module = wrap_calibration(
        pair.non_idiomatic_source,
        pair.idiomatic_source,
        pair.setup_source,
        pair.scope_mode,
        min_iteration_ns=cfg.min_iteration_ns,
        max_repetitions=cfg.max_repetitions,
    )
    interp = interpreter or child.resolve_interpreter(cfg.interpreter)
    record, _ = run_invocation(module, cfg, interp)
    return max(int(reps) for reps in record["repetitions"])


def measure(
    pair: CodePair,
    cfg: BenchConfig | None = None,
    store: TimingStore | None = None,
    *,
    assume_equivalent: bool = False,
) -> TimingGrid:
    """Measure both variants of ``pair`` under the full protocol.

    Args:
        pair: pair with both sources filled in.
        cfg: protocol parameters; defaults reproduce the reference
            protocol (50 invocations x 35 iterations, warmup 3).
        store: optional JSONL store. Only rows with this pair's
            ``content_id`` on this interpreter, 2k durations, and
            ``cfg``'s ``min_iteration_ns`` and ``max_repetitions`` count:
            the first gives the repetition count (calibration runs when
            none does), and an invocation whose row has that count is
            reused. Every other invocation is timed and its row replaced.
        assume_equivalent: skip the behavioral gate; new rows record
            ``gate: "assumed"``. Without it the pair is differentially
            checked before its first child, and a Divergent or Error
            outcome aborts the measurement; new rows record ``gate:
            "Equivalent"``, and a passing check rewrites each reused row
            that does not say so yet. The check is skipped only when all
            n invocations are reused from rows that say ``"Equivalent"``,
            since those rows hold the verdict for the same ``content_id``.

    Returns:
        The pair's grid at ``cfg.warmup``: n rows of 2k per-iteration
        durations in nanoseconds (amplification already divided out),
        the non-idiomatic k first.
    """
    from idiobench import child

    cfg = cfg or BenchConfig()
    non_idiomatic, idiomatic = pair.halves()
    interp = child.resolve_interpreter(cfg.interpreter)
    interp_id = interpreter_id(interp)
    key = content_id(pair, interp_id)
    host = host_id()
    k = cfg.k_iterations
    floor = {"min_iteration_ns": cfg.min_iteration_ns, "max_repetitions": cfg.max_repetitions}
    stored = [
        row
        for row in (store.rows(pair.pair_id) if store else [])
        if row["content_id"] == key
        and len(row["timings_ns"]) == 2 * k
        and all(row.get(field) == value for field, value in floor.items())
    ]
    reps = stored[0]["repetitions"] if stored else None
    reusable = {row["invocation"]: row for row in stored if row["repetitions"] == reps}
    reused = [reusable.get(invocation) for invocation in range(cfg.n_invocations)]
    gate = "assumed" if assume_equivalent else "Equivalent"
    if not assume_equivalent and not all(row and row.get("gate") == gate for row in reused):
        from idiobench.equivalence import check

        report = check(pair, interpreter=interp)
        if report.status != "Equivalent":
            raise EquivalenceGate(
                f"pair {pair.pair_id} is {report.status}; "
                "pass assume_equivalent=True to override"
            )
        # The verdict holds for the reused rows' content_id too.
        for row in reused:
            if row and store and row.get("gate") != gate:
                store.record_invocation({**row, "gate": gate})
    if reps is None:
        reps = calibrate(pair, cfg, interp)

    rows = []
    for invocation, row in enumerate(reused):
        if row is None:
            module = wrap_pair(
                non_idiomatic,
                idiomatic,
                pair.setup_source,
                pair.scope_mode,
                invocation=invocation,
                k_iterations=k,
                repetitions=reps,
            )
            raw, pid = run_invocation(module, cfg, interp)
            lengths = [len(totals) for totals in raw["timings_ns"]]
            if lengths != [k, k]:
                raise ChildCrash(f"expected 2 x {k} iterations, got {lengths}")
            timings = raw["timings_ns"][0] + raw["timings_ns"][1]
            if any(t <= 0 for t in timings):
                raise ClockResolution(
                    f"zero duration at repetitions={reps}; raise min_iteration_ns"
                )
            row = {
                "pair_id": pair.pair_id,
                "invocation": invocation,
                "content_id": key,
                "timings_ns": [t / reps for t in timings],
                "repetitions": reps,
                **floor,
                "gate": gate,
                "interpreter_id": interp_id,
                "host_id": host,
                "pid": pid,
            }
            if store:
                store.record_invocation(row)
        rows.append(row)
    return TimingGrid.from_rows(pair.pair_id, rows, cfg.warmup)


def load_grid(
    store: TimingStore,
    pair_id: str,
    warmup: int = BenchConfig.warmup,
    pair: CodePair | None = None,
) -> TimingGrid:
    """Rebuild a pair's grid from its stored rows.

    The grid's shape is taken from the rows themselves. Raises
    ``ValueError`` when the rows leave a hole, disagree on ``content_id``,
    ``repetitions``, ``min_iteration_ns`` or ``max_repetitions`` (a grid
    mixed from two runs) or on their length, leave no measured iteration
    after ``warmup``, or timed other code than ``pair`` now holds.
    """
    rows = store.rows(pair_id)
    if not rows:
        raise KeyError(f"no stored rows for {pair_id}")
    if [row["invocation"] for row in rows] != list(range(len(rows))):
        raise ValueError(f"store holds a partial grid for {pair_id}")
    first = rows[0]
    for field in ("content_id", "repetitions", "min_iteration_ns", "max_repetitions"):
        if any(row.get(field) != first.get(field) for row in rows):
            raise ValueError(f"rows of {pair_id} disagree on {field}; re-bench at the full --n")
    if pair is not None and first["content_id"] != content_id(pair, first["interpreter_id"]):
        raise ValueError(f"rows of {pair_id} are stale: the pair changed; re-run bench")
    return TimingGrid.from_rows(pair_id, rows, warmup)
