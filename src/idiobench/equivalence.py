"""Differential behavioral checking of code pairs.

Both payload variants run in private child processes (see ``child``)
against the same regenerated setup, once per trial size. A trial
compares the post-execution namespace snapshot (bindings by repr),
captured stdout, and the raised exception, if any. Scaffolding bindings
that a transform may legitimately add or remove (temporaries, flags,
leaked loop variables) are excluded from the comparison; result
bindings are not.

The mutation suite corrupts the idiomatic half of a pair in ways that
must be caught, providing a sensitivity check on the comparator.
"""

from __future__ import annotations

import ast
import copy
import re
import subprocess
from dataclasses import dataclass, field
from typing import Any, Iterable

from idiobench import child
from idiobench.catalog import COMPREHENSIONS, SIZES, IdiomKind
from idiobench.synth import CodePair, scoped, setup_for_size

#: Sizes every sized pair is re-checked at; chosen small so trials stay
#: fast while still exercising empty, singleton, and multi-element data.
DEFAULT_TRIAL_SIZES = SIZES[:4]

#: Bindings created and consumed by the idiom patterns themselves:
#: temporaries (t_0), flags (flag_0), loop variables and unpacking
#: targets (e, e_0, e_len). A transform may add or drop these without
#: changing observable behavior.
_SCAFFOLD_RE = re.compile(r"^(?:e|e_\d+|t_\d+|flag_\d+|\w+_len)$")


def is_scaffold_name(name: str) -> bool:
    return bool(_SCAFFOLD_RE.match(name))


#: The fields of a statement (or module, handler or match case) that
#: hold statement lists, or the handlers and cases that hold them.
_STATEMENT_LISTS = ("body", "orelse", "finalbody", "handlers", "cases")


def _loop_target_names(*sources: str) -> frozenset[str]:
    """Names bound as for-statement targets in any of ``sources``.

    A for statement leaks its target into the enclosing namespace while
    the comprehension that replaces it does not, so such names are
    scaffolding regardless of spelling. Genuine reliance on a leaked
    target still surfaces through the exception and stdout channels.
    """
    found: set[str] = set()
    for source in sources:
        try:
            tree = child.parse(source)
        except SyntaxError:
            continue
        # A for statement sits only in a statement list, never inside an
        # expression, so the scan descends through statement lists alone.
        stack: list[ast.AST] = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.For):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        found.add(sub.id)
            for block in _STATEMENT_LISTS:
                stack.extend(getattr(node, block, ()))
    return frozenset(found)


@dataclass
class TrialOutcome:
    size: int | None
    status: str  # "match" | "mismatch" | "error"
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class EquivalenceReport:
    pair_id: str
    status: str  # "Equivalent" | "Divergent" | "Error"
    trials: list[TrialOutcome]

    @property
    def witness(self) -> TrialOutcome | None:
        for trial in self.trials:
            if trial.status != "match":
                return trial
        return None


class CheckError(RuntimeError):
    """A snapshot child crashed or bound no snapshots."""


# Input: {"payload", "setups", "scope"}. Output: one snapshot per setup,
# {"names", "exception", "stdout"}. Each setup runs in a fresh namespace
# with its output discarded, then the payload runs once: at module level
# under Global, as ``__payload()`` under Local, whose locals join the
# globals. ``names`` maps every binding not starting with "_" that is
# neither callable nor a module to its repr; ``exception`` is "Type: msg"
# for an exception the payload raised; ``stdout`` is what it printed.
_DRIVER = """\
import contextlib, io, types
payload = compile(job["payload"], "<payload>", "exec")
result = []
for setup in job["setups"]:
    ns = {"__name__": "__snapshot__"}
    exec(setup, ns)
    out, exception, local = io.StringIO(), None, {}
    try:
        with contextlib.redirect_stdout(out):
            exec(payload, ns)
            if job["scope"] == "Local":
                local = ns["__payload"]()
    except Exception as exc:
        exception = type(exc).__name__ + ": " + str(exc)
    names = {}
    for name, value in list(ns.items()) + list(local.items()):
        if name.startswith("_"):
            continue
        if callable(value) or isinstance(value, types.ModuleType):
            continue
        names[name] = repr(value)
    result.append({"names": names, "exception": exception, "stdout": out.getvalue()})
"""


def _run_snapshots(
    payload: str, setups: list[str], scope_mode: str, timeout: float, interpreter: str
) -> list[dict[str, Any]]:
    """One snapshot of ``payload`` per setup, from one private child.

    Raises:
        SyntaxError: ``payload`` does not compile.
        ValueError: ``scope_mode`` is neither Local nor Global.
    """
    payload = scoped(payload, scope_mode, tail="return dict(locals())")
    job = {"payload": payload, "setups": setups, "scope": scope_mode}
    try:
        return child.run_job(_DRIVER, job, timeout=timeout, interpreter=interpreter)
    except child.ChildError as exc:
        raise CheckError(f"snapshot child failed: {exc}") from exc


def _comparable(
    snapshot: dict[str, Any], excluded: frozenset[str] = frozenset()
) -> dict[str, Any]:
    names = {
        k: v
        for k, v in snapshot["names"].items()
        if not is_scaffold_name(k) and k not in excluded
    }
    return {
        "names": names,
        "exception": snapshot["exception"],
        "stdout": snapshot["stdout"],
    }


def trial_sizes_for(
    pair: CodePair, count: int = len(DEFAULT_TRIAL_SIZES)
) -> list[int | None]:
    """The first ``count`` sizes of ``SIZES`` (at least one) for a sized
    pair; a single native-setup trial, ``[None]``, otherwise."""
    if pair.features is not None and pair.features.size is not None:
        return list(SIZES[: max(1, count)])
    return [None]


def check(
    pair: CodePair,
    sizes: Iterable[int | None] | None = None,
    timeout: float = 60.0,
    interpreter: str | None = None,
) -> EquivalenceReport:
    """Differentially execute both variants of ``pair``.

    Args:
        pair: a pair whose idiomatic half is filled in.
        sizes: data sizes to regenerate the setup at; defaults to
            ``DEFAULT_TRIAL_SIZES`` when the pair is size-parameterized
            and a single native-setup trial otherwise.
        timeout: overall child timeout per variant, in seconds.
        interpreter: the interpreter to run both variants under;
            defaults to ``child.resolve_interpreter()``.

    Returns:
        EquivalenceReport with per-trial outcomes; status is
        ``Equivalent`` only if every trial matched.
    """
    non_idiomatic, idiomatic = pair.halves()
    trial_list = list(sizes) if sizes is not None else trial_sizes_for(pair)
    setups = []
    for size in trial_list:
        if size is None or pair.features is None:
            setups.append(pair.setup_source)
        else:
            setups.append(setup_for_size(pair.features, size))

    interp = child.resolve_interpreter(interpreter)
    trials: list[TrialOutcome] = []
    try:
        snaps_a = _run_snapshots(non_idiomatic, setups, pair.scope_mode, timeout, interp)
        snaps_b = _run_snapshots(idiomatic, setups, pair.scope_mode, timeout, interp)
    except (CheckError, SyntaxError, subprocess.TimeoutExpired) as exc:
        return EquivalenceReport(
            pair_id=pair.pair_id,
            status="Error",
            trials=[TrialOutcome(size=None, status="error", detail={"reason": str(exc)})],
        )

    excluded = _loop_target_names(non_idiomatic, idiomatic)
    for size, raw_a, raw_b in zip(trial_list, snaps_a, snaps_b):
        a, b = _comparable(raw_a, excluded), _comparable(raw_b, excluded)
        if a == b:
            trials.append(TrialOutcome(size=size, status="match"))
            continue
        detail: dict[str, Any] = {}
        for side, left, right in (("non_idiomatic", a, b), ("idiomatic", b, a)):
            delta = {
                k: v for k, v in left["names"].items() if right["names"].get(k) != v
            }
            if delta:
                detail.setdefault("names", {})[side] = delta
        if a["exception"] != b["exception"]:
            detail["exception"] = {
                "non_idiomatic": a["exception"],
                "idiomatic": b["exception"],
            }
        if a["stdout"] != b["stdout"]:
            detail["stdout"] = {
                "non_idiomatic": a["stdout"],
                "idiomatic": b["stdout"],
            }
        trials.append(TrialOutcome(size=size, status="mismatch", detail=detail))

    status = "Equivalent" if all(t.status == "match" for t in trials) else "Divergent"
    return EquivalenceReport(pair_id=pair.pair_id, status=status, trials=trials)


# ============================================================
# Mutation suite
# ============================================================

_NEGATED_CMP: dict[type, type] = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.Gt: ast.LtE,
    ast.LtE: ast.Gt,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}


def _negate_last_compare_op(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            node.ops[-1] = _NEGATED_CMP[type(node.ops[-1])]()
            return True
    return False


def _negate_break_condition(tree: ast.Module) -> bool:
    # Only the break guard is fair game: the loop condition itself is
    # untouched by the transform, and flipping it can spin forever.
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.If)
            and any(isinstance(stmt, ast.Break) for stmt in node.body)
            and isinstance(node.test, ast.Compare)
        ):
            node.test.ops[-1] = _NEGATED_CMP[type(node.test.ops[-1])]()
            return True
    return False


def _negate_test(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.Assert)):
            test = node.test
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                node.test = test.operand
            else:
                node.test = ast.UnaryOp(op=ast.Not(), operand=test)
            return True
    return False


def _bump_comprehension_element(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp)):
            node.elt = ast.BinOp(left=node.elt, op=ast.Add(), right=ast.Constant(value=1))
            return True
        if isinstance(node, ast.DictComp):
            node.value = ast.BinOp(
                left=node.value, op=ast.Add(), right=ast.Constant(value=1)
            )
            return True
    return False


def _negate_first_comp_condition(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            for gen in node.generators:
                if gen.ifs:
                    gen.ifs[0] = ast.UnaryOp(op=ast.Not(), operand=gen.ifs[0])
                    return True
    return False


def _reverse_tuple_assign_values(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Tuple)
            and len(node.value.elts) >= 2
        ):
            node.value.elts = list(reversed(node.value.elts))
            return True
    return False


def _drop_first_star_arg(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Starred) and isinstance(node.ctx, ast.Load):
            node.value = ast.Subscript(
                value=node.value,
                slice=ast.Slice(lower=ast.Constant(value=1), upper=None, step=None),
                ctx=ast.Load(),
            )
            return True
    return False


def _scramble_for_targets(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple):
            elts = node.target.elts
            plain = [i for i, e in enumerate(elts) if isinstance(e, ast.Name)]
            if len(plain) >= 2:
                i, j = plain[0], plain[1]
                elts[i], elts[j] = elts[j], elts[i]
            elif len(elts) >= 2:
                elts.reverse()
            elif isinstance(elts[0], ast.Name):
                elts[0] = ast.Starred(value=elts[0], ctx=ast.Store())
            else:
                return False
            return True
    return False


_MUTATORS: dict[IdiomKind, list[tuple[str, Any]]] = {
    **dict.fromkeys(
        COMPREHENSIONS,
        [
            ("bump-element", _bump_comprehension_element),
            ("negate-condition", _negate_first_comp_condition),
        ],
    ),
    IdiomKind.CHAIN_COMPARISON: [("negate-last-op", _negate_last_compare_op)],
    IdiomKind.TRUTH_VALUE_TEST: [("negate-test", _negate_test)],
    IdiomKind.LOOP_ELSE: [("negate-break", _negate_break_condition)],
    IdiomKind.ASSIGN_MULTI_TARGETS: [("reverse-values", _reverse_tuple_assign_values)],
    IdiomKind.STAR_IN_FUNC_CALL: [("drop-first-arg", _drop_first_star_arg)],
    IdiomKind.FOR_MULTI_TARGETS: [("scramble-targets", _scramble_for_targets)],
}


def mutants(pair: CodePair) -> list[tuple[str, CodePair]]:
    """Generate behavior-corrupting variants of the idiomatic half.

    Each mutation is a minimal plausible refactoring bug (flipped
    operator, off-by-one element, dropped clause effect); the checker is
    expected to flag every one as Divergent on the default trial sizes.
    """
    idiomatic = pair.halves()[1]
    out: list[tuple[str, CodePair]] = []
    for label, mutate in _MUTATORS[pair.idiom]:
        tree = ast.parse(idiomatic)
        if not mutate(tree):
            continue
        ast.fix_missing_locations(tree)
        mutated = copy.copy(pair)
        mutated.pair_id = f"{pair.pair_id}-mut-{label}"
        mutated.idiomatic_source = ast.unparse(tree) + "\n"
        mutated.notes = f"mutant: {label}"
        out.append((label, mutated))
    return out
