"""Benchmark set-up child: probe the interpreter and build the desk pairs.

Usage: python perfbench/prepare.py OUT_DIR

Writes the five criterion-4 desk pairs, refactored, as pair JSON files
into OUT_DIR and prints one JSON line: the interpreter id, the file the
idiobench package was imported from, and the pair id of each desk pair.
The pairs are selected with the same predicates as ``DeskBench`` in
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import idiobench
from idiobench.bench import interpreter_id
from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.refactor import refactor_pair
from idiobench.synth import save_pair, synthesize

_FLAT_COMPREHENSION = {"num_for": 1, "num_if": 0, "num_ifelse": 0}

DESK_PAIRS = {
    "listcomp-1e4": (
        IdiomKind.LIST_COMPREHENSION,
        lambda v: v.size == 10_000
        and v.scope == "Local"
        and v.node_counts == _FLAT_COMPREHENSION,
    ),
    "tvt-fraction": (
        IdiomKind.TRUTH_VALUE_TEST,
        lambda v: v.node_choices["empty_value"] == "Fraction"
        and v.node_choices["test_parent"] == "if"
        and v.node_choices["eq_op"] == "!="
        and v.scope == "Local"
        and v.is_true,
    ),
    "assign-4": (
        IdiomKind.ASSIGN_MULTI_TARGETS,
        lambda v: not v.is_const
        and not v.is_swap
        and v.node_counts["num_assign"] == 4
        and v.scope == "Local",
    ),
    "swap-2": (
        IdiomKind.ASSIGN_MULTI_TARGETS,
        lambda v: v.is_swap and v.node_counts["num_assign"] == 2 and v.scope == "Local",
    ),
    "listcomp-0": (
        IdiomKind.LIST_COMPREHENSION,
        lambda v: v.size == 0
        and v.scope == "Local"
        and v.node_counts == _FLAT_COMPREHENSION,
    ),
}


def main(out_dir: Path) -> int:
    desk = {}
    for name, (idiom, predicate) in DESK_PAIRS.items():
        vector = next(v for v in enumerate_matrix(idiom) if predicate(v))
        pair = refactor_pair(synthesize(vector))
        save_pair(pair, out_dir)
        desk[name] = pair.pair_id
    print(
        json.dumps(
            {
                "interpreter_id": interpreter_id(sys.executable),
                "idiobench_file": idiobench.__file__,
                "desk": desk,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
