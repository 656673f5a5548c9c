"""Bytecode diffing and root-cause classification for code pairs.

Both payload variants are disassembled in a private child process by
the target interpreter's own ``dis.get_instructions`` (so the analysis
always reflects the interpreter being measured, not the orchestrator),
which returns one record per instruction, and the two streams are
compared as opcode multisets plus an aligned view. One function,
``_job``, builds, runs and decodes every child job here: it disassembles
the sources it is given and, given a pair, runs the runtime probe on it,
so ``diff_report`` needs one job per pair.

The classifier assigns one primary cause per pair:

  R4_OverloadedBuiltins    a hot object's type defines __bool__,
                           __len__, __next__, or a rich comparison
                           outside builtins (runtime probe evidence)
  R5_ComplexComputation    payload work beyond the minimal idiom
                           template (calls, attribute access, nested
                           expressions) dominates the idiom delta
  R2_SpecializedReplacement idiomatic form swaps generic sequences for
                           specialized opcodes that actually execute
  R1_AddedPreparation      idiomatic form adds preparation opcodes
  R3_RemovedInstructions   idiomatic form only removes instructions

Precedence is R4 > R5 > R2 > R1 > R3: dynamic evidence trumps static
structure, and replacement subsumes plain addition or removal.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from typing import Any

from idiobench import child
from idiobench.bench import ChildCrash, interpreter_id
from idiobench.catalog import COMPREHENSIONS, IdiomKind
from idiobench.synth import CodePair, scoped

#: Opcodes the reference interpreter uses as combined/cheap forms of
#: longer generic sequences.
SPECIALIZED_OPS = frozenset(
    {"LIST_APPEND", "SET_ADD", "MAP_ADD", "DUP_TOP", "ROT_TWO", "ROT_THREE", "BUILD_SLICE"}
)

#: Cross-version spelling normalization (best effort; the pinned
#: reference interpreter needs none of the newer entries).
_ALIASES = {
    "IS_OP": "COMPARE_OP",
    "CONTAINS_OP": "COMPARE_OP",
    "JUMP_ABSOLUTE": "JUMP",
    "JUMP_FORWARD": "JUMP",
    "JUMP_BACKWARD": "JUMP",
    "JUMP_BACKWARD_NO_INTERRUPT": "JUMP",
    "POP_JUMP_FORWARD_IF_FALSE": "POP_JUMP_IF_FALSE",
    "POP_JUMP_BACKWARD_IF_FALSE": "POP_JUMP_IF_FALSE",
    "POP_JUMP_FORWARD_IF_TRUE": "POP_JUMP_IF_TRUE",
    "POP_JUMP_BACKWARD_IF_TRUE": "POP_JUMP_IF_TRUE",
    "POP_JUMP_FORWARD_IF_NONE": "POP_JUMP_IF_NONE",
    "POP_JUMP_BACKWARD_IF_NONE": "POP_JUMP_IF_NONE",
    "POP_JUMP_FORWARD_IF_NOT_NONE": "POP_JUMP_IF_NOT_NONE",
    "POP_JUMP_BACKWARD_IF_NOT_NONE": "POP_JUMP_IF_NOT_NONE",
    "CALL": "CALL_FUNCTION",
}

#: Bookkeeping opcodes with no analytical content.
_NOISE = frozenset({"CACHE", "RESUME", "PRECALL", "NOP", "EXTENDED_ARG", "PUSH_NULL"})


class CompileError(ValueError):
    pass


class Unclassifiable(RuntimeError):
    """Empty diff without probe evidence; reported rather than guessed."""


@dataclass(frozen=True)
class Instruction:
    opname: str
    argrepr: str = ""


@dataclass
class BytecodeDiff:
    pair_id: str
    instructions_non_id: list[Instruction]
    instructions_id: list[Instruction]
    added: Counter
    removed: Counter
    interpreter_id: str

    def aligned_view(self) -> list[str]:
        """LCS alignment of the two opcode streams for human review."""
        a = [i.opname for i in self.instructions_non_id]
        b = [i.opname for i in self.instructions_id]
        lines: list[str] = []
        matcher = SequenceMatcher(a=a, b=b, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                lines.extend(f"  {op}" for op in a[i1:i2])
            else:
                lines.extend(f"- {op}" for op in a[i1:i2])
                lines.extend(f"+ {op}" for op in b[j1:j2])
        return lines


_ROOT_CAUSE_LABELS = (
    "R1_AddedPreparation",
    "R2_SpecializedReplacement",
    "R3_RemovedInstructions",
    "R4_OverloadedBuiltins",
    "R5_ComplexComputation",
)


@dataclass(frozen=True)
class RootCause:
    primary: str
    evidence: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.primary not in _ROOT_CAUSE_LABELS:
            raise ValueError(f"unknown root cause {self.primary!r}")
        if not self.evidence:
            raise ValueError("evidence must be nonempty")


# ============================================================
# Disassembly
# ============================================================

_PROBE_METHODS = (
    "__bool__",
    "__len__",
    "__eq__",
    "__ne__",
    "__lt__",
    "__le__",
    "__gt__",
    "__ge__",
    "__contains__",
)

# Input: {"scope", "sources"} to disassemble, plus "probe": {"setup",
# "payload"} to run the probe. Under Local each source defines
# ``__payload``, whose code is disassembled. Output: {"dis": [[[opname,
# operand], ...] per source], "probe": [finding, ...] or null}, a finding
# holding ``ProbeFinding``'s fields, or {"compile_error": detail}. An
# operand is the argrepr, else the raw arg: 3.11 gives SWAP and COPY no
# argrepr, and ``canonical`` reads their depth from it. Nested code
# objects follow their parent in the order ``dis.dis`` prints them. The
# disassembly runs no payload code: it only compiles, or execs a def.
_DRIVER = """\
import dis, types
def compiled(source):
    code = compile(source, "<payload>", "exec")
    if job["scope"] == "Local":
        ns = {}
        exec(code, ns)
        code = ns["__payload"].__code__
    return code
def records(code):
    out = [
        [i.opname, i.argrepr or ("" if i.arg is None else str(i.arg))]
        for i in dis.get_instructions(code)
    ]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out += records(const)
    return out
def probe(setup, payload):
    # A named namespace keeps user-defined classes out of "builtins".
    ns = {"__name__": "__probe__"}
    exec(setup, ns)
    exec(payload, ns)
    METHODS = %r
    def definer(tp, method):
        for klass in tp.__mro__:
            if method in vars(klass):
                return klass
        return None
    findings = []
    def inspect(name, tp, method):
        klass = definer(tp, method)
        if klass is not None:
            findings.append({
                "name": name,
                "type_qualname": tp.__qualname__,
                "method": method,
                "definer_module": klass.__module__,
                "definer": klass.__qualname__,
            })
    for name, obj in list(ns.items()):
        if name.startswith("_") or callable(obj) or isinstance(obj, types.ModuleType):
            continue
        for method in METHODS:
            inspect(name, type(obj), method)
        try:
            iterator = iter(obj)
        except TypeError:
            pass
        else:
            inspect(name, type(iterator), "__next__")
    return findings
try:
    codes = [compiled(source) for source in job["sources"]]
except SyntaxError as exc:
    result = {"compile_error": str(exc)}
else:
    result = {
        "dis": [records(code) for code in codes],
        "probe": probe(**job["probe"]) if "probe" in job else None,
    }
""" % (_PROBE_METHODS,)


def canonical(instructions: list[Instruction]) -> list[Instruction]:
    """Normalize opcode spellings across interpreter versions."""
    out: list[Instruction] = []
    for instr in instructions:
        name = instr.opname
        if name in _NOISE:
            continue
        if name == "SWAP":
            name = {"2": "ROT_TWO", "3": "ROT_THREE"}.get(instr.argrepr, name)
        elif name == "COPY" and instr.argrepr == "1":
            name = "DUP_TOP"
        else:
            name = _ALIASES.get(name, name)
        out.append(Instruction(opname=name, argrepr=instr.argrepr))
    return out


def _job(
    sources: list[str],
    scope_mode: str,
    interpreter: str | None,
    probe: CodePair | None = None,
) -> tuple[list[list[Instruction]], RuntimeProbe | None]:
    """Disassemble ``sources`` and, given a ``probe`` pair, run the runtime
    probe on it, in one private child of the target interpreter.

    Returns:
        One canonical instruction stream per source, and the probe's
        result, or None without ``probe``.

    Raises:
        CompileError: a source does not compile.
        ChildCrash: the child failed; only the probe runs payload code,
            so a job with a probe reports a failure as the probe's.
    """
    try:
        job = {"scope": scope_mode, "sources": [scoped(s, scope_mode) for s in sources]}
    except SyntaxError as exc:
        raise CompileError(str(exc)) from exc
    if probe is not None:
        job["probe"] = {"setup": probe.setup_source, "payload": probe.non_idiomatic_source}
    try:
        result = child.run_job(
            _DRIVER,
            job,
            timeout=60,
            interpreter=child.resolve_interpreter(interpreter),
        )
    except child.ChildError as exc:
        role = "disassembler" if probe is None else "probe"
        raise ChildCrash(f"{role} child failed: {exc}") from exc
    if "compile_error" in result:
        raise CompileError(result["compile_error"])
    streams = [canonical([Instruction(*r) for r in records]) for records in result["dis"]]
    if result["probe"] is None:
        return streams, None
    return streams, RuntimeProbe([ProbeFinding(**f) for f in result["probe"]])


def disassemble_source(
    source: str, scope_mode: str, interpreter: str | None = None
) -> list[Instruction]:
    """Disassemble a payload under the target interpreter.

    Local mode disassembles the payload compiled as a function body
    (fast-local variable opcodes); Global mode compiles it at module
    level. Nested code objects (comprehensions) are included.
    """
    return _job([source], scope_mode, interpreter)[0][0]


def diff(
    non_id: list[Instruction],
    idio: list[Instruction],
    pair_id: str = "",
    interpreter: str | None = None,
) -> BytecodeDiff:
    """Multiset opcode difference of the idiomatic stream vs the other.

    ``added`` holds opcodes with higher multiplicity in the idiomatic
    stream, ``removed`` the opposite direction.
    """
    count_a = Counter(i.opname for i in non_id)
    count_b = Counter(i.opname for i in idio)
    added = count_b - count_a
    removed = count_a - count_b
    interp = child.resolve_interpreter(interpreter)
    return BytecodeDiff(
        pair_id=pair_id,
        instructions_non_id=list(non_id),
        instructions_id=list(idio),
        added=added,
        removed=removed,
        interpreter_id=interpreter_id(interp),
    )


def diff_pair(pair: CodePair, interpreter: str | None = None) -> BytecodeDiff:
    if not pair.idiomatic_source.strip():
        raise ValueError(f"pair {pair.pair_id} has no idiomatic source")
    halves = [pair.non_idiomatic_source, pair.idiomatic_source]
    (non_id, idio), _ = _job(halves, pair.scope_mode, interpreter)
    return diff(non_id, idio, pair_id=pair.pair_id, interpreter=interpreter)


# ============================================================
# Runtime probe
# ============================================================


@dataclass(frozen=True)
class ProbeFinding:
    name: str
    type_qualname: str
    method: str
    definer_module: str
    definer: str

    @property
    def outside_builtins(self) -> bool:
        return self.definer_module != "builtins"


@dataclass
class RuntimeProbe:
    findings: list[ProbeFinding] = field(default_factory=list)

    @property
    def flagged(self) -> list[ProbeFinding]:
        return [f for f in self.findings if f.outside_builtins]


def runtime_probe(pair: CodePair, interpreter: str | None = None) -> RuntimeProbe:
    """Inspect the hot objects a pair binds for non-builtin dunders.

    Runs setup plus one payload execution in a child, then records, for
    every surviving binding, which class in its type's MRO defines each
    truth/length/comparison method, and likewise __next__ on its
    iterator type when the object is iterable.
    """
    return _job([], pair.scope_mode, interpreter, probe=pair)[1]


# ============================================================
# R5 static trigger: work beyond the minimal template
# ============================================================

_TVT_CONSTRUCTORS = frozenset({"dict", "set", "range", "Decimal", "Fraction"})


def _allowed_attribute(idiom: IdiomKind, node: ast.Attribute) -> bool:
    if idiom in COMPREHENSIONS:
        return node.attr in ("append", "add") and isinstance(node.value, ast.Name)
    return False


def _allowed_call(idiom: IdiomKind, node: ast.Call) -> bool:
    if node.keywords:
        return False
    if idiom in COMPREHENSIONS:
        # Empty-accumulator constructors are part of the pattern head.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "set", "dict")
            and not node.args
        ):
            return True
        return isinstance(node.func, ast.Attribute) and _allowed_attribute(
            idiom, node.func
        )
    if idiom is IdiomKind.TRUTH_VALUE_TEST:
        return (
            isinstance(node.func, ast.Name)
            and node.func.id in _TVT_CONSTRUCTORS
            and all(isinstance(a, ast.Constant) for a in node.args)
        )
    if idiom is IdiomKind.STAR_IN_FUNC_CALL:
        return isinstance(node.func, ast.Name) and all(
            isinstance(a, (ast.Subscript, ast.Starred, ast.Name, ast.Constant))
            for a in node.args
        )
    return False


def r5_evidence(pair: CodePair) -> list[str]:
    """Expression work in the payload beyond the idiom's own template."""
    tree = child.parse(pair.non_idiomatic_source)
    evidence: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not _allowed_call(pair.idiom, node):
            evidence.append(f"call: {ast.unparse(node)}")
        elif isinstance(node, ast.Attribute) and not _allowed_attribute(pair.idiom, node):
            evidence.append(f"attribute access: {ast.unparse(node)}")
        elif isinstance(
            node, (ast.Lambda, ast.GeneratorExp, ast.Await, ast.NamedExpr)
        ):
            evidence.append(f"compound expression: {ast.unparse(node)}")
    return evidence


# ============================================================
# Classification
# ============================================================


def _specialized_executes(pair: CodePair | None) -> bool:
    """Size-0 comprehensions never reach their per-element opcode."""
    if pair is None or pair.features is None:
        return True
    if pair.idiom in COMPREHENSIONS and pair.features.size == 0:
        return False
    return True


def classify_root_cause(
    bytecode_diff: BytecodeDiff,
    pair: CodePair | None = None,
    probe: RuntimeProbe | None = None,
) -> RootCause:
    """Assign the primary cause for a pair's performance difference.

    Args:
        bytecode_diff: multiset diff of the two streams.
        pair: the pair itself, used for the R5 template scan and the
            execution-reach guard; optional for raw stream diffs.
        probe: runtime probe result; R4 is only ever assigned when one
            was supplied.

    Returns:
        RootCause with nonempty evidence.

    Raises:
        Unclassifiable: both diff sides empty and no probe or template
            evidence applies.
    """
    if probe is not None and probe.flagged:
        evidence = tuple(
            f"{f.name}: {f.method} defined in {f.definer_module}.{f.definer}"
            for f in probe.flagged
        )
        return RootCause(primary="R4_OverloadedBuiltins", evidence=evidence)

    if pair is not None:
        complexity = r5_evidence(pair)
        if complexity:
            return RootCause(primary="R5_ComplexComputation", evidence=tuple(complexity))

    added, removed = bytecode_diff.added, bytecode_diff.removed
    specialized = sorted(op for op in added if op in SPECIALIZED_OPS)
    if specialized and removed and _specialized_executes(pair):
        evidence = tuple(
            [f"specialized: {op} x{added[op]}" for op in specialized]
            + [f"replaces: {op} x{removed[op]}" for op in sorted(removed)]
        )
        return RootCause(primary="R2_SpecializedReplacement", evidence=evidence)
    if added:
        return RootCause(
            primary="R1_AddedPreparation",
            evidence=tuple(f"added: {op} x{added[op]}" for op in sorted(added)),
        )
    if removed:
        return RootCause(
            primary="R3_RemovedInstructions",
            evidence=tuple(f"removed: {op} x{removed[op]}" for op in sorted(removed)),
        )
    raise Unclassifiable(
        f"pair {bytecode_diff.pair_id or '<unknown>'}: identical streams, no evidence"
    )


def diff_report(
    pair: CodePair, probe: bool = True, interpreter: str | None = None, aligned: bool = True
) -> dict[str, Any]:
    """Full analysis record for one pair, JSON-serializable.

    Both halves are disassembled, and with ``probe`` the runtime probe
    runs, in one child job. With ``aligned`` the record holds the
    aligned opcode view.
    """
    if not pair.idiomatic_source.strip():
        raise ValueError(f"pair {pair.pair_id} has no idiomatic source")
    halves = [pair.non_idiomatic_source, pair.idiomatic_source]
    (non_id, idio), probe_result = _job(
        halves, pair.scope_mode, interpreter, pair if probe else None
    )
    bdiff = diff(non_id, idio, pair_id=pair.pair_id, interpreter=interpreter)
    try:
        cause = classify_root_cause(bdiff, pair, probe_result)
        root_cause, evidence = cause.primary, list(cause.evidence)
    except Unclassifiable as exc:
        root_cause, evidence = "Unclassifiable", [str(exc)]
    record = {
        "pair_id": pair.pair_id,
        "interpreter_id": bdiff.interpreter_id,
        "added": dict(sorted(bdiff.added.items())),
        "removed": dict(sorted(bdiff.removed.items())),
    }
    if aligned:
        record["aligned_view"] = bdiff.aligned_view()
    return {**record, "root_cause": root_cause, "evidence": evidence}
