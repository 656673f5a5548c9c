"""Render feature vectors into concrete non-idiomatic code pairs.

Every pair consists of setup code (data preparation and imports, run
once per process before any timing), a non-idiomatic payload, and an
idiomatic payload that stays empty until the refactorer fills it. The
payload is deliberately minimal so the idiom construct dominates the
measured time; all size-derived constants live in the setup so payloads
can be re-run against regenerated data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from idiobench.catalog import (
    EMPTY_VALUE_BY_NAME,
    FeatureVector,
    IdiomKind,
    IllegalFeature,
)

#: Bumped whenever template text changes; part of every pair id.
TEMPLATE_VERSION = 1


class MissingIdiomatic(ValueError):
    """A pair has no idiomatic half to check, time or diff."""


@dataclass
class CodePair:
    """Non-idiomatic source plus its (eventually filled) idiomatic twin."""

    pair_id: str
    idiom: IdiomKind
    features: FeatureVector | None
    setup_source: str
    non_idiomatic_source: str
    idiomatic_source: str
    scope_mode: str
    notes: str = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "pair_id": self.pair_id,
            "idiom": self.idiom.value,
            "features": self.features.to_json() if self.features else None,
            "setup_source": self.setup_source,
            "non_idiomatic_source": self.non_idiomatic_source,
            "idiomatic_source": self.idiomatic_source,
            "scope_mode": self.scope_mode,
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CodePair":
        features = data.get("features")
        return cls(
            pair_id=data["pair_id"],
            idiom=IdiomKind(data["idiom"]),
            features=FeatureVector.from_json(features) if features else None,
            setup_source=data.get("setup_source", ""),
            non_idiomatic_source=data["non_idiomatic_source"],
            idiomatic_source=data.get("idiomatic_source", ""),
            scope_mode=data.get("scope_mode", "Local"),
            notes=data.get("notes", ""),
        )

    def halves(self) -> tuple[str, str]:
        """The (non-idiomatic, idiomatic) sources.

        Raises:
            MissingIdiomatic: the idiomatic half is blank.
        """
        if not self.idiomatic_source.strip():
            raise MissingIdiomatic(f"pair {self.pair_id} has no idiomatic source")
        return self.non_idiomatic_source, self.idiomatic_source


def save_pair(pair: CodePair, directory: Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{pair.pair_id}.json"
    text = json.dumps(pair.to_json(), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path


def load_pair(path: Path) -> CodePair:
    return CodePair.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def load_pairs(directory: Path) -> list[CodePair]:
    return [load_pair(p) for p in sorted(Path(directory).glob("*.json"))]


def _pair_id(features: FeatureVector) -> str:
    basis = repr(features.key()) + f"|v{TEMPLATE_VERSION}"
    return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:16]


# ============================================================
# Per-idiom templates
# ============================================================


def _comprehension_condition(index: int) -> str:
    # Cheap arithmetic tests over the outer loop variable; the modulus
    # varies so repeated clauses stay distinct.
    return f"e_0 % {index + 2}"


def _comprehension_element(num_ifelse: int) -> str:
    expr = "e_0"
    for level in range(num_ifelse):
        cond = _comprehension_condition(4 + level)
        expr = f"e_0 if {cond} else {expr}" if level == 0 else f"e_0 if {cond} else ({expr})"
    return expr


def _synth_comprehension(features: FeatureVector) -> tuple[str, str]:
    num_for = features.node_counts["num_for"]
    num_if = features.node_counts["num_if"]
    num_ifelse = features.node_counts["num_ifelse"]
    size = features.size or 0

    setup_lines = [f"x_0 = list(range({size}))"]
    setup_lines += [f"x_{i} = [0]" for i in range(1, num_for)]

    elem = _comprehension_element(num_ifelse)
    if features.idiom is IdiomKind.LIST_COMPREHENSION:
        head, tail = "l_0 = []", f"l_0.append({elem})"
    elif features.idiom is IdiomKind.SET_COMPREHENSION:
        head, tail = "s_0 = set()", f"s_0.add({elem})"
    else:
        head, tail = "d_0 = {}", f"d_0[e_0] = {elem}"

    lines = [head]
    depth = 0
    for i in range(num_for):
        lines.append("    " * depth + f"for e_{i} in x_{i}:")
        depth += 1
    for j in range(num_if):
        lines.append("    " * depth + f"if {_comprehension_condition(j)}:")
        depth += 1
    lines.append("    " * depth + tail)
    return "\n".join(setup_lines) + "\n", "\n".join(lines) + "\n"


def _bump(value: Any) -> Any:
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value + [0]
    raise IllegalFeature(f"cannot grow operand of type {type(value).__name__}")


def _less(value: Any) -> Any:
    if not isinstance(value, int):
        raise IllegalFeature("ordering after membership is not renderable")
    return value - 1


#: How an operand is made from the one before it. An alias holds the same
#: value and is written as the previous operand's name.
_OPERAND_KINDS: dict[str, Callable[[Any], Any]] = {
    "same": lambda value: value,
    "bump": _bump,
    "less": _less,
    "alias": lambda value: value,
    "list": lambda value: [value],
    "bumped list": lambda value: [_bump(value)],
}

#: Per operator: the operand kind that makes its link hold, then the kind
#: that makes it fail.
_CHAIN_OPERANDS: dict[str, tuple[str, str]] = {
    "==": ("same", "bump"),
    "!=": ("bump", "same"),
    "<": ("bump", "same"),
    "<=": ("same", "less"),
    ">": ("less", "same"),
    ">=": ("same", "bump"),
    "is": ("alias", "bump"),
    "is not": ("bump", "alias"),
    "in": ("list", "bumped list"),
    "not in": ("bumped list", "list"),
}


def _chain_operands(compops: tuple[str, ...], is_true: bool) -> tuple[list[str], list[str]]:
    """Choose operand values so the whole chain evaluates to ``is_true``.

    Returns (prologue assignment lines, operand names). Operands start
    as integers; membership operators switch to nested lists. With a
    false target, every link except the last still holds so both code
    variants evaluate the full chain.
    """
    lines = ["c_0 = 10"]
    names = ["c_0"]
    current: Any = 10
    for index, op in enumerate(compops):
        name = f"c_{index + 1}"
        holds = is_true or index < len(compops) - 1
        kind = _CHAIN_OPERANDS[op][0 if holds else 1]
        current = _OPERAND_KINDS[kind](current)
        lines.append(f"{name} = {names[-1] if kind == 'alias' else repr(current)}")
        names.append(name)
    return lines, names


def _synth_chain(features: FeatureVector) -> tuple[str, str]:
    compops = features.node_choices["compops"]
    lines, names = _chain_operands(compops, bool(features.is_true))
    links = [
        f"{names[i]} {op} {names[i + 1]}" for i, op in enumerate(compops)
    ]
    payload = "\n".join(lines) + "\nr_0 = " + " and ".join(links) + "\n"
    return "", payload


def _synth_truth_value_test(features: FeatureVector) -> tuple[str, str]:
    empty = EMPTY_VALUE_BY_NAME[features.node_choices["empty_value"]]
    setup_lines = []
    if empty.import_stmt:
        setup_lines.append(empty.import_stmt)
    prepared = empty.truthy_source if features.is_true else empty.source
    setup_lines.append(f"a_0 = {prepared}")
    setup = "\n".join(setup_lines) + "\n"

    test = f"a_0 {features.node_choices['eq_op']} {empty.source}"
    parent = features.node_choices["test_parent"]
    if parent == "if":
        payload = f"if {test}:\n    r_0 = 1\n"
    elif parent == "while":
        payload = f"while {test}:\n    r_0 = 1\n    break\n"
    else:
        payload = (
            "try:\n"
            f"    assert {test}\n"
            "except AssertionError:\n"
            "    r_0 = 1\n"
        )
    return setup, payload


def _synth_loop_else(features: FeatureVector) -> tuple[str, str]:
    size = features.size or 0
    # The sentinel matches the last element when the break should fire
    # and stays out of range otherwise. An empty loop can never break.
    sentinel = size - 1 if features.is_break else size
    loop_kind = features.node_choices["loop_kind"]
    with_else = features.node_choices["condition_kind"] == "if-else"

    if loop_kind == "for":
        setup = f"x_0 = list(range({size}))\nb_0 = {sentinel}\n"
        body = [
            "flag_0 = True",
            "for e_0 in x_0:",
            "    if e_0 == b_0:",
            "        flag_0 = False",
            "        break",
        ]
        if with_else:
            body += ["    else:", "        r_1 = e_0"]
        body += ["if flag_0:", "    r_0 = 1"]
    else:
        setup = f"n_0 = {size}\nb_0 = {sentinel}\n"
        body = [
            "flag_0 = True",
            "i_0 = 0",
            "while i_0 < n_0:",
            "    if i_0 == b_0:",
            "        flag_0 = False",
            "        break",
        ]
        if with_else:
            body += ["    else:", "        r_1 = i_0"]
        body += ["    i_0 = i_0 + 1", "if flag_0:", "    r_0 = 1"]
    return setup, "\n".join(body) + "\n"


def _synth_assign_multi(features: FeatureVector) -> tuple[str, str]:
    k = features.node_counts["num_assign"]
    if features.is_const:
        lines = [f"a_{t} = {t}" for t in range(k)]
        return "", "\n".join(lines) + "\n"
    if features.is_swap:
        # Swapped variables are read before being written, so they must
        # be initialized inside the payload to stay local under Local
        # scope; the prologue is identical in both variants.
        prologue = [f"a_{t} = {t}" for t in range(k)]
        rotation = ["t_0 = a_0"]
        rotation += [f"a_{t} = a_{t + 1}" for t in range(k - 1)]
        rotation.append(f"a_{k - 1} = t_0")
        return "", "\n".join(prologue + rotation) + "\n"
    setup = "\n".join(f"v_{t} = {10 + t}" for t in range(k)) + "\n"
    lines = [f"a_{t} = v_{t}" for t in range(k)]
    return setup, "\n".join(lines) + "\n"


def star_list_len(features: FeatureVector) -> int:
    """Length of the argument list a star-call pair prepares.

    Slicing with an upper bound needs spare elements past the accessed
    prefix so the slice is observable; otherwise the list is exactly as
    long as the accessed prefix.
    """
    n = features.node_counts["num_subscript"]
    sliced = features.has_flags["has_subscript"] and features.has_flags["has_upper"]
    return n + 2 if sliced else n


def _synth_star_call(features: FeatureVector) -> tuple[str, str]:
    n = features.node_counts["num_subscript"]
    length = star_list_len(features)
    setup_lines = [
        "def func_0(*f_args):",
        "    return f_args",
        f"e_list = list(range({length}))",
    ]
    if features.is_const:
        indices = [str(t) for t in range(n)]
    else:
        setup_lines += [f"i_{t} = {t}" for t in range(n)]
        indices = [f"i_{t}" for t in range(n)]
    args = ", ".join(f"e_list[{idx}]" for idx in indices)
    return "\n".join(setup_lines) + "\n", f"r_0 = func_0({args})\n"


def _synth_for_multi(features: FeatureVector) -> tuple[str, str]:
    n = features.node_counts["num_subscript"]
    m = features.node_counts["num_target"]
    size = features.size or 0
    length = m + 1 if features.has_flags["has_starred"] else m
    setup = f"x_0 = [tuple(range({length}))] * {size}\n"
    lines = ["for e in x_0:"]
    lines += [f"    r_{t} = e[{t % m}]" for t in range(n)]
    return setup, "\n".join(lines) + "\n"


_SYNTHESIZERS = {
    IdiomKind.LIST_COMPREHENSION: _synth_comprehension,
    IdiomKind.SET_COMPREHENSION: _synth_comprehension,
    IdiomKind.DICT_COMPREHENSION: _synth_comprehension,
    IdiomKind.CHAIN_COMPARISON: _synth_chain,
    IdiomKind.TRUTH_VALUE_TEST: _synth_truth_value_test,
    IdiomKind.LOOP_ELSE: _synth_loop_else,
    IdiomKind.ASSIGN_MULTI_TARGETS: _synth_assign_multi,
    IdiomKind.STAR_IN_FUNC_CALL: _synth_star_call,
    IdiomKind.FOR_MULTI_TARGETS: _synth_for_multi,
}


def synthesize(features: FeatureVector) -> CodePair:
    """Render ``features`` into a code pair with an empty idiomatic half.

    Args:
        features: a vector that passes its own invariants.

    Returns:
        CodePair whose payload realizes exactly the requested counts.
    """
    setup, payload = _SYNTHESIZERS[features.idiom](features)
    compile(payload, "<payload>", "exec")
    return CodePair(
        pair_id=_pair_id(features),
        idiom=features.idiom,
        features=features,
        setup_source=setup,
        non_idiomatic_source=payload,
        idiomatic_source="",
        scope_mode=features.scope,
    )


def setup_for_size(features: FeatureVector, size: int) -> str:
    """Regenerate setup code for a different data size."""
    if features.size is None:
        return _SYNTHESIZERS[features.idiom](features)[0]
    return _SYNTHESIZERS[features.idiom](replace(features, size=size))[0]


# ============================================================
# Timed modules
# ============================================================


def _indent(text: str, levels: int) -> str:
    pad = "    " * levels
    return "\n".join(pad + line if line.strip() else line for line in text.splitlines())


def scoped(payload: str, scope_mode: str, name: str = "__payload", tail: str = "") -> str:
    """``payload`` as source that runs it under ``scope_mode``.

    Global returns the payload as is, to run at module level. Local
    returns ``def <name>():`` with the payload as its body, then ``tail``,
    so that the payload's names resolve as fast locals when ``<name>()``
    is called.

    Raises:
        SyntaxError: ``payload`` does not compile.
        ValueError: ``scope_mode`` is neither Local nor Global.
    """
    compile(payload, "<payload>", "exec")
    if scope_mode == "Global":
        return payload
    if scope_mode != "Local":
        raise ValueError(f"scope_mode must be Local or Global, got {scope_mode!r}")
    return f"def {name}():\n" + _indent(payload.rstrip("\n") + "\n" + tail, 1) + "\n"


def _repeat(payload: str, reps: str, levels: int) -> str:
    """A loop at ``levels`` that runs ``reps`` repetitions of ``payload``."""
    return (
        "    " * levels
        + f"for __r in range({reps}):\n"
        + _indent(payload.rstrip("\n"), levels + 1)
        + "\n"
    )


def _run(payloads: tuple[str, str], scope_mode: str, index: int, reps: str, levels: int) -> str:
    """Statements at ``levels`` that run ``reps`` repetitions of one payload.

    Local calls the payload's function, ``__payload_<index>``; Global runs
    the same repetition loop in place, at module level.
    """
    if scope_mode == "Local":
        return "    " * levels + f"__payload_{index}()\n"
    return _repeat(payloads[index], reps, levels)


def _timed_module(
    payloads: tuple[str, str], setup: str, scope_mode: str, reps: str, body: str, first: int = 0
) -> str:
    """Module text: ``import time``, the setup, the payload functions, ``body``.

    Under Local each payload becomes ``__payload_<i>()``, which runs
    ``reps`` repetitions of it, so names resolve as fast locals while the
    one call per timed pass amortizes over the repetitions. Payload
    ``first`` is defined first.
    """
    if scope_mode not in ("Local", "Global"):
        raise ValueError(f"scope_mode must be Local or Global, got {scope_mode!r}")
    for payload in payloads:
        compile(payload, "<payload>", "exec")
    module = "import time as __time\n\n" + setup.rstrip("\n") + "\n\n"
    if scope_mode == "Local":
        for index in (first, 1 - first):
            module += f"def __payload_{index}():\n" + _repeat(payloads[index], reps, 1) + "\n"
    module += body
    compile(module, "<module>", "exec")
    return module


def _print_record(timings: str, repetitions: str) -> str:
    """A line printing ``{"timings_ns": ..., "repetitions": ...}``.

    The child imports no ``json``: both values are ints or lists of ints,
    whose ``repr`` is already valid JSON. The record starts on a fresh
    line, so a payload that printed without a newline cannot share it.
    """
    return (
        "print('\\n{\"timings_ns\": %r, \"repetitions\": %r}' "
        f"% ({timings}, {repetitions}))\n"
    )


def wrap_pair(
    non_idiomatic: str,
    idiomatic: str,
    setup: str,
    scope_mode: str,
    *,
    invocation: int = 0,
    k_iterations: int = 1,
    repetitions: int = 1,
) -> str:
    """Build a runnable module timing both payloads of a pair under ``scope_mode``.

    The setup runs once, outside the timed region. Each of the
    ``k_iterations`` passes then times ``repetitions`` repetitions of
    both payloads back to back: the non-idiomatic one first on even
    passes, the idiomatic one first on odd passes. Under Local the two
    payload functions are defined in the order ``invocation``'s parity
    gives, non-idiomatic first when it is even, so neither variant always
    gets the first-defined function. Under Global the two repetition
    loops run at module level in the same alternating order. The module
    prints one JSON line: ``{"timings_ns": [non-idiomatic durations,
    idiomatic durations], "repetitions": r}``.
    """
    payloads = (non_idiomatic, idiomatic)
    reps = str(repetitions)

    def one_pass(first: int) -> str:
        second = 1 - first
        return (
            "        __t0 = __time.perf_counter_ns()\n"
            + _run(payloads, scope_mode, first, reps, 2)
            + "        __t1 = __time.perf_counter_ns()\n"
            + _run(payloads, scope_mode, second, reps, 2)
            + "        __t2 = __time.perf_counter_ns()\n"
            + f"        __timings[{first}].append(__t1 - __t0)\n"
            + f"        __timings[{second}].append(__t2 - __t1)\n"
        )

    body = (
        "__timings = [[], []]\n"
        + f"for __i in range({k_iterations}):\n"
        + "    if __i % 2 == 0:\n"
        + one_pass(0)
        + "    else:\n"
        + one_pass(1)
        + _print_record("__timings", reps)
    )
    return _timed_module(payloads, setup, scope_mode, reps, body, first=invocation % 2)


def wrap_calibration(
    non_idiomatic: str,
    idiomatic: str,
    setup: str,
    scope_mode: str,
    *,
    min_iteration_ns: int,
    max_repetitions: int,
) -> str:
    """Build a module that finds both payloads' repetition counts in-process.

    As ``timeit.Timer.autorange`` does, the module runs the setup once,
    then, for the non-idiomatic payload and then the idiomatic one, times
    one amplified iteration (the loop ``wrap_pair`` times) at a growing
    count, starting from 1. A count stops growing once an iteration lasts
    ``min_iteration_ns`` or the count reaches ``max_repetitions``;
    otherwise it is multiplied by ``max(2, 1.3 * min_iteration_ns /
    duration)``, aiming 30% past the floor to absorb run-to-run jitter.
    The module prints each payload's last duration and count, in
    ``wrap_pair``'s variant order: ``{"timings_ns": [d_non, d_idi],
    "repetitions": [r_non, r_idi]}``.
    """
    payloads = (non_idiomatic, idiomatic)
    body = ""
    for index in (0, 1):
        body += (
            "__reps = 1\n"
            + "while True:\n"
            + "    __t0 = __time.perf_counter_ns()\n"
            + _run(payloads, scope_mode, index, "__reps", 1)
            + "    __t1 = __time.perf_counter_ns()\n"
            + "    __d = __t1 - __t0\n"
            + f"    if __d >= {min_iteration_ns} or __reps >= {max_repetitions}:\n"
            + "        break\n"
            + f"    __grow = max(2.0, 1.3 * {min_iteration_ns} / max(__d, 1))\n"
            + f"    __reps = min({max_repetitions}, max(__reps + 1, int(__reps * __grow)))\n"
            + f"__d{index}, __r{index} = __d, __reps\n"
        )
    body += _print_record("[__d0, __d1]", "[__r0, __r1]")
    return _timed_module(payloads, setup, scope_mode, "__reps", body)
