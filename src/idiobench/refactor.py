"""Source-to-source transforms from non-idiomatic code to the nine idioms.

All transforms operate on the AST and re-render with ``ast.unparse``;
original formatting is not preserved. ``refactor`` optionally takes
hints (element lengths, slice flags, index values) that a caller holding
the pair's feature vector can supply; without hints the transforms fall
back to conservative rules (always emit a starred leftover target,
reject variable subscript indices).
"""

from __future__ import annotations

import ast
import copy
from typing import Any, Callable

from idiobench.catalog import IdiomKind


class NotApplicable(ValueError):
    """The requested idiom's preconditions do not hold for this source."""


_MIRROR_OPS: dict[type, type] = {
    ast.Lt: ast.Gt,
    ast.Gt: ast.Lt,
    ast.LtE: ast.GtE,
    ast.GtE: ast.LtE,
    ast.Eq: ast.Eq,
    ast.NotEq: ast.NotEq,
    ast.Is: ast.Is,
    ast.IsNot: ast.IsNot,
}


def _same(a: ast.AST, b: ast.AST) -> bool:
    return ast.dump(a) == ast.dump(b)


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


# ============================================================
# Comprehensions
# ============================================================

_COMP_HEADS: dict[IdiomKind, Callable[[ast.stmt], str | None]] = {}


def _list_head(stmt: ast.stmt) -> str | None:
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.List)
        and not stmt.value.elts
    ):
        return stmt.targets[0].id
    return None


def _set_head(stmt: ast.stmt) -> str | None:
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "set"
        and not stmt.value.args
        and not stmt.value.keywords
    ):
        return stmt.targets[0].id
    return None


def _dict_head(stmt: ast.stmt) -> str | None:
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        v = stmt.value
        if isinstance(v, ast.Dict) and not v.keys:
            return stmt.targets[0].id
        if (
            isinstance(v, ast.Call)
            and isinstance(v.func, ast.Name)
            and v.func.id == "dict"
            and not v.args
            and not v.keywords
        ):
            return stmt.targets[0].id
    return None


_COMP_HEADS[IdiomKind.LIST_COMPREHENSION] = _list_head
_COMP_HEADS[IdiomKind.SET_COMPREHENSION] = _set_head
_COMP_HEADS[IdiomKind.DICT_COMPREHENSION] = _dict_head


def _collect_generators(loop: ast.For) -> tuple[list[ast.comprehension], ast.stmt] | None:
    """Walk a nest of single-statement fors/bare-ifs down to the leaf."""
    gens: list[ast.comprehension] = []
    node: ast.stmt = loop
    while True:
        if isinstance(node, ast.For) and not node.orelse:
            gens.append(
                ast.comprehension(
                    target=node.target, iter=node.iter, ifs=[], is_async=0
                )
            )
        elif isinstance(node, ast.If) and not node.orelse and gens:
            gens[-1].ifs.append(node.test)
        else:
            return (gens, node) if gens else None
        if len(node.body) != 1:
            return None
        node = node.body[0]


def _comp_leaf(idiom: IdiomKind, leaf: ast.stmt, result: str) -> tuple[ast.expr, ...] | None:
    """Return the comprehension element expression(s) built by the leaf."""
    if idiom is IdiomKind.DICT_COMPREHENSION:
        if (
            isinstance(leaf, ast.Assign)
            and len(leaf.targets) == 1
            and isinstance(leaf.targets[0], ast.Subscript)
            and isinstance(leaf.targets[0].value, ast.Name)
            and leaf.targets[0].value.id == result
            and not isinstance(leaf.targets[0].slice, ast.Slice)
        ):
            return (leaf.targets[0].slice, leaf.value)
        return None
    method = "append" if idiom is IdiomKind.LIST_COMPREHENSION else "add"
    if (
        isinstance(leaf, ast.Expr)
        and isinstance(leaf.value, ast.Call)
        and isinstance(leaf.value.func, ast.Attribute)
        and leaf.value.func.attr == method
        and isinstance(leaf.value.func.value, ast.Name)
        and leaf.value.func.value.id == result
        and len(leaf.value.args) == 1
        and not leaf.value.keywords
    ):
        return (leaf.value.args[0],)
    return None


def _try_comprehension(
    idiom: IdiomKind, stmts: list[ast.stmt], i: int
) -> tuple[ast.stmt, int] | None:
    result = _COMP_HEADS[idiom](stmts[i])
    if result is None or i + 1 >= len(stmts) or not isinstance(stmts[i + 1], ast.For):
        return None
    collected = _collect_generators(stmts[i + 1])
    if collected is None:
        return None
    gens, leaf = collected
    elems = _comp_leaf(idiom, leaf, result)
    if elems is None:
        return None
    if any(result in _names_in(e) for e in elems):
        return None
    if idiom is IdiomKind.LIST_COMPREHENSION:
        value: ast.expr = ast.ListComp(elt=elems[0], generators=gens)
    elif idiom is IdiomKind.SET_COMPREHENSION:
        value = ast.SetComp(elt=elems[0], generators=gens)
    else:
        value = ast.DictComp(key=elems[0], value=elems[1], generators=gens)
    new = ast.Assign(
        targets=[ast.Name(id=result, ctx=ast.Store())], value=value
    )
    return new, 2


# ============================================================
# Chain comparison
# ============================================================


def _flip_compare(left: ast.expr, op: ast.cmpop, right: ast.expr):
    mirror = _MIRROR_OPS.get(type(op))
    if mirror is None:
        return None
    return right, mirror(), left


class _ChainTransformer(ast.NodeTransformer):
    def __init__(self) -> None:
        self.count = 0

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.And):
            return node
        links: list[tuple[ast.expr, ast.cmpop, ast.expr]] = []
        for value in node.values:
            if not (
                isinstance(value, ast.Compare)
                and len(value.ops) == 1
                and len(value.comparators) == 1
            ):
                return node
            links.append((value.left, value.ops[0], value.comparators[0]))
        merged = self._merge(links)
        if merged is None:
            return node
        self.count += 1
        return merged

    @staticmethod
    def _merge(links) -> ast.Compare | None:
        first_left, first_op, first_right = links[0]
        candidates = [(first_left, first_op, first_right)]
        flipped = _flip_compare(first_left, first_op, first_right)
        if flipped is not None:
            candidates.append(flipped)
        for left, op, right in candidates:
            ops = [op]
            comparators = [right]
            tail = right
            ok = True
            for c_left, c_op, c_right in links[1:]:
                if _same(tail, c_left):
                    ops.append(c_op)
                    comparators.append(c_right)
                    tail = c_right
                    continue
                flip = _flip_compare(c_left, c_op, c_right)
                if flip is not None and _same(tail, flip[0]):
                    ops.append(flip[1])
                    comparators.append(flip[2])
                    tail = flip[2]
                    continue
                ok = False
                break
            if ok:
                return ast.Compare(left=left, ops=ops, comparators=comparators)
        return None


# ============================================================
# Truth value test
# ============================================================


def _is_empty_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        v = node.value
        if v is None or v is False:
            return True
        if isinstance(v, str) and v == "":
            return True
        if type(v) is int and v == 0:
            return True
        if isinstance(v, float) and v == 0.0:
            return True
        if isinstance(v, complex) and v == 0j:
            return True
        return False
    if isinstance(node, (ast.Tuple, ast.List)) and not node.elts:
        return True
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        args = node.args
        if node.keywords:
            return False
        if name in ("dict", "set") and not args:
            return True
        if name in ("range", "Decimal") and len(args) == 1:
            return isinstance(args[0], ast.Constant) and args[0].value == 0
        if name == "Fraction" and len(args) == 2:
            return (
                isinstance(args[0], ast.Constant)
                and args[0].value == 0
                and isinstance(args[1], ast.Constant)
            )
    return False


def _truth_test_rewrite(test: ast.expr) -> ast.expr | None:
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Eq, ast.NotEq))
        and _is_empty_literal(test.comparators[0])
        and not _is_empty_literal(test.left)
    ):
        return None
    if isinstance(test.ops[0], ast.NotEq):
        return test.left
    return ast.UnaryOp(op=ast.Not(), operand=test.left)


class _TruthTestTransformer(ast.NodeTransformer):
    def __init__(self) -> None:
        self.count = 0

    def _rewrite(self, node):
        new_test = _truth_test_rewrite(node.test)
        if new_test is not None:
            node.test = new_test
            self.count += 1
        return node

    def visit_If(self, node: ast.If) -> ast.AST:
        self.generic_visit(node)
        return self._rewrite(node)

    def visit_While(self, node: ast.While) -> ast.AST:
        self.generic_visit(node)
        return self._rewrite(node)

    def visit_Assert(self, node: ast.Assert) -> ast.AST:
        self.generic_visit(node)
        return self._rewrite(node)


# ============================================================
# Loop else
# ============================================================


def _find_flag_break(loop_body: list[ast.stmt], flag: str) -> ast.If | None:
    """Find the guard whose body clears the flag and breaks."""
    for stmt in loop_body:
        if isinstance(stmt, ast.If):
            body = stmt.body
            if (
                len(body) == 2
                and isinstance(body[0], ast.Assign)
                and len(body[0].targets) == 1
                and isinstance(body[0].targets[0], ast.Name)
                and body[0].targets[0].id == flag
                and isinstance(body[0].value, ast.Constant)
                and body[0].value.value is False
                and isinstance(body[1], ast.Break)
            ):
                return stmt
    return None


def _try_loop_else(stmts: list[ast.stmt], i: int) -> tuple[list[ast.stmt], int] | None:
    head = stmts[i]
    if not (
        isinstance(head, ast.Assign)
        and len(head.targets) == 1
        and isinstance(head.targets[0], ast.Name)
        and isinstance(head.value, ast.Constant)
        and head.value.value is True
    ):
        return None
    flag = head.targets[0].id
    # Statements may sit between the flag init and the loop (counter
    # setup and the like) as long as they never touch the flag.
    j = i + 1
    while j < len(stmts) - 1 and not isinstance(stmts[j], (ast.For, ast.While)):
        if flag in _names_in(stmts[j]):
            return None
        j += 1
    if j + 1 > len(stmts) - 1:
        return None
    loop = stmts[j]
    trailer = stmts[j + 1]
    if not isinstance(loop, (ast.For, ast.While)) or loop.orelse:
        return None
    if not (
        isinstance(trailer, ast.If)
        and isinstance(trailer.test, ast.Name)
        and trailer.test.id == flag
        and not trailer.orelse
    ):
        return None
    guard = _find_flag_break(loop.body, flag)
    if guard is None:
        return None
    # The flag must appear nowhere beyond its three pattern sites.
    uses = sum(
        1
        for n in ast.walk(ast.Module(body=[head, loop, trailer], type_ignores=[]))
        if isinstance(n, ast.Name) and n.id == flag
    )
    if uses != 3:
        return None
    new_loop = copy.deepcopy(loop)
    new_guard = _find_flag_break(new_loop.body, flag)
    assert new_guard is not None
    new_guard.body = [ast.Break()]
    new_loop.orelse = copy.deepcopy(trailer.body)
    return list(stmts[i + 1 : j]) + [new_loop], j - i + 2


# ============================================================
# Assign multi targets
# ============================================================


def _single_name_assign(stmt: ast.stmt) -> tuple[str, ast.expr] | None:
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return stmt.targets[0].id, stmt.value
    return None


def _try_swap_rotation(stmts: list[ast.stmt], i: int) -> tuple[ast.stmt, int] | None:
    """Match ``t = a_0; a_0 = a_1; ...; a_{k-1} = t`` temp rotations."""
    first = _single_name_assign(stmts[i])
    if first is None or not isinstance(first[1], ast.Name):
        return None
    temp, start = first[0], first[1].id
    chain: list[tuple[str, str]] = []
    j = i + 1
    while j < len(stmts):
        entry = _single_name_assign(stmts[j])
        if entry is None or not isinstance(entry[1], ast.Name):
            break
        chain.append((entry[0], entry[1].id))
        j += 1
        if entry[1].id == temp:
            break
    if len(chain) < 2 or chain[-1][1] != temp:
        return None
    targets = [t for t, _ in chain]
    values = [v for _, v in chain[:-1]] + [start]
    # A rotation reassigns the variable the temp captured and shifts the
    # rest; anything else is not a swap.
    if targets[0] != start or temp in targets or len(set(targets)) != len(targets):
        return None
    for (t, v), nxt in zip(chain[:-1], targets[1:]):
        if v != nxt:
            return None
    new = ast.Assign(
        targets=[
            ast.Tuple(
                elts=[ast.Name(id=t, ctx=ast.Store()) for t in targets],
                ctx=ast.Store(),
            )
        ],
        value=ast.Tuple(
            elts=[ast.Name(id=v, ctx=ast.Load()) for v in values], ctx=ast.Load()
        ),
    )
    return new, len(chain) + 1


def _try_independent_run(stmts: list[ast.stmt], i: int) -> tuple[ast.stmt, int] | None:
    """Merge a maximal run of order-independent single assignments."""
    run: list[tuple[str, ast.expr]] = []
    seen_targets: set[str] = set()
    j = i
    while j < len(stmts):
        entry = _single_name_assign(stmts[j])
        if entry is None:
            break
        target, value = entry
        if target in seen_targets or (_names_in(value) & (seen_targets | {target})):
            break
        run.append(entry)
        seen_targets.add(target)
        j += 1
    if len(run) < 2:
        return None
    new = ast.Assign(
        targets=[
            ast.Tuple(
                elts=[ast.Name(id=t, ctx=ast.Store()) for t, _ in run],
                ctx=ast.Store(),
            )
        ],
        value=ast.Tuple(elts=[v for _, v in run], ctx=ast.Load()),
    )
    return new, len(run)


def _try_assign_multi(
    stmts: list[ast.stmt], i: int, hints: dict[str, Any] | None = None
) -> tuple[ast.stmt, int] | None:
    hit = _try_swap_rotation(stmts, i)
    if hit is not None or (hints or {}).get("swap_only"):
        # A caller measuring a temp rotation leaves surrounding plain
        # assignment runs alone so both variants share them verbatim.
        return hit
    return _try_independent_run(stmts, i)


# ============================================================
# Star in func call
# ============================================================


def _subscript_index(node: ast.expr, index_values: dict[str, int] | None) -> int | None:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name) and index_values and node.id in index_values:
        return index_values[node.id]
    return None


class _StarCallTransformer(ast.NodeTransformer):
    def __init__(self, hints: dict[str, Any]) -> None:
        self.hints = hints
        self.count = 0

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        if node.keywords or len(node.args) < 1:
            return node
        seq_name: str | None = None
        indices: list[int] = []
        for arg in node.args:
            if not (
                isinstance(arg, ast.Subscript)
                and isinstance(arg.value, ast.Name)
                and not isinstance(arg.slice, ast.Slice)
            ):
                return node
            if seq_name is None:
                seq_name = arg.value.id
            elif arg.value.id != seq_name:
                return node
            idx = _subscript_index(arg.slice, self.hints.get("index_values"))
            if idx is None:
                return node
            indices.append(idx)
        n = len(indices)
        if indices != list(range(n)):
            return node
        assert seq_name is not None
        node.args = [ast.Starred(value=self._unpacked(seq_name, n), ctx=ast.Load())]
        self.count += 1
        return node

    def _unpacked(self, seq_name: str, n: int) -> ast.expr:
        base = ast.Name(id=seq_name, ctx=ast.Load())
        list_len = self.hints.get("list_len")
        flags = self.hints.get("slice_flags")
        if flags is not None and not flags.get("has_subscript", True):
            return base
        if flags is None and list_len == n:
            return base
        lower = ast.Constant(value=0) if flags and flags.get("has_lower") else None
        step = ast.Constant(value=1) if flags and flags.get("has_step") else None
        upper: ast.expr | None = ast.Constant(value=n)
        if flags is not None and not flags.get("has_upper"):
            upper = None
        return ast.Subscript(
            value=base,
            slice=ast.Slice(lower=lower, upper=upper, step=step),
            ctx=ast.Load(),
        )


# ============================================================
# For multi targets
# ============================================================


class _SubscriptRewriter(ast.NodeTransformer):
    def __init__(self, var: str, base: str) -> None:
        self.var = var
        self.base = base
        self.failed = False

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        if isinstance(node.value, ast.Name) and node.value.id == self.var:
            if isinstance(node.slice, ast.Constant) and type(node.slice.value) is int:
                return ast.Name(id=f"{self.base}_{node.slice.value}", ctx=node.ctx)
            self.failed = True
            return node
        self.generic_visit(node)
        return node

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id == self.var:
            self.failed = True
        return node


def _try_for_multi(stmts: list[ast.stmt], i: int, hints: dict[str, Any]):
    loop = stmts[i]
    if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)):
        return None
    var = loop.target.id
    positions: set[int] = set()
    for node in ast.walk(ast.Module(body=loop.body, type_ignores=[])):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == var
        ):
            if not (isinstance(node.slice, ast.Constant) and type(node.slice.value) is int):
                return None
            positions.add(node.slice.value)
    if not positions or min(positions) < 0:
        return None
    width = max(positions) + 1
    taken = _names_in(ast.Module(body=loop.body, type_ignores=[]))
    new_names = [f"{var}_{p}" for p in range(width)] + [f"{var}_len"]
    if any(n in taken for n in new_names):
        return None
    element_len = hints.get("element_len")
    # Without a known element length the leftover binding is mandatory.
    starred = element_len is None or element_len > width
    new_loop = copy.deepcopy(loop)
    rewriter = _SubscriptRewriter(var, var)
    new_loop.body = [rewriter.visit(s) for s in new_loop.body]
    if rewriter.failed:
        return None
    elts: list[ast.expr] = [
        ast.Name(id=f"{var}_{p}", ctx=ast.Store()) for p in range(width)
    ]
    if starred:
        elts.append(
            ast.Starred(value=ast.Name(id=f"{var}_len", ctx=ast.Store()), ctx=ast.Store())
        )
    new_loop.target = ast.Tuple(elts=elts, ctx=ast.Store())
    return [new_loop], 1


# ============================================================
# Driver
# ============================================================


def _rewrite_stmt_lists(
    tree: ast.AST,
    matcher: Callable[[list[ast.stmt], int], tuple[Any, int] | None],
) -> int:
    """Apply a statement-run matcher to every statement list in the tree."""
    count = 0
    for node in ast.walk(tree):
        for attr in ("body", "orelse", "finalbody"):
            stmts = getattr(node, attr, None)
            if not isinstance(stmts, list) or not stmts:
                continue
            out: list[ast.stmt] = []
            i = 0
            while i < len(stmts):
                hit = matcher(stmts, i)
                if hit is None:
                    out.append(stmts[i])
                    i += 1
                else:
                    replacement, consumed = hit
                    if isinstance(replacement, list):
                        out.extend(replacement)
                    else:
                        out.append(replacement)
                    i += consumed
                    count += 1
            setattr(node, attr, out)
    return count


def _apply(tree: ast.Module, idiom: IdiomKind, hints: dict[str, Any]) -> int:
    if idiom in _COMP_HEADS:
        return _rewrite_stmt_lists(tree, lambda s, i: _try_comprehension(idiom, s, i))
    if idiom is IdiomKind.CHAIN_COMPARISON:
        t = _ChainTransformer()
        t.visit(tree)
        return t.count
    if idiom is IdiomKind.TRUTH_VALUE_TEST:
        t = _TruthTestTransformer()
        t.visit(tree)
        return t.count
    if idiom is IdiomKind.LOOP_ELSE:
        return _rewrite_stmt_lists(tree, _try_loop_else)
    if idiom is IdiomKind.ASSIGN_MULTI_TARGETS:
        return _rewrite_stmt_lists(tree, lambda s, i: _try_assign_multi(s, i, hints))
    if idiom is IdiomKind.STAR_IN_FUNC_CALL:
        t = _StarCallTransformer(hints)
        t.visit(tree)
        return t.count
    if idiom is IdiomKind.FOR_MULTI_TARGETS:
        return _rewrite_stmt_lists(tree, lambda s, i: _try_for_multi(s, i, hints))
    raise ValueError(f"unknown idiom {idiom!r}")


def refactor(source: str, idiom: IdiomKind, hints: dict[str, Any] | None = None) -> str:
    """Rewrite every site of ``idiom`` in ``source`` to the idiomatic form.

    Args:
        source: parseable module text.
        idiom: which transformation to apply.
        hints: optional context a caller may know about the data
            (``element_len``, ``list_len``, ``slice_flags``,
            ``index_values``); see the module docstring.

    Returns:
        The rewritten module text.

    Raises:
        NotApplicable: no transformable site was found.
    """
    tree = ast.parse(source)
    count = _apply(tree, idiom, hints or {})
    if count == 0:
        raise NotApplicable(f"no {idiom.value} site found")
    ast.fix_missing_locations(tree)
    return ast.unparse(tree) + "\n"


def detect(source: str) -> list[tuple[IdiomKind, tuple[int, int]]]:
    """Report refactorable sites as (idiom, (first line, last line)).

    Spans are 1-based and inclusive, computed on a reparse of the
    source. A site is reported when the idiom's transform would change
    the tree.
    """
    results: list[tuple[IdiomKind, tuple[int, int]]] = []
    for idiom in IdiomKind:
        spans = _collect_spans(ast.parse(source), idiom)
        results.extend((idiom, span) for span in spans)
    results.sort(key=lambda item: item[1])
    return results


def hints_for(features) -> dict[str, Any]:
    """Derive transform hints from a pair's feature vector."""
    from idiobench.synth import star_list_len

    hints: dict[str, Any] = {}
    if features is None:
        return hints
    if features.idiom is IdiomKind.STAR_IN_FUNC_CALL:
        hints["list_len"] = star_list_len(features)
        hints["slice_flags"] = {
            "has_subscript": bool(features.has_flags["has_subscript"]),
            "has_lower": bool(features.has_flags["has_lower"]),
            "has_upper": bool(features.has_flags["has_upper"]),
            "has_step": bool(features.has_flags["has_step"]),
        }
        if not features.is_const:
            n = features.node_counts["num_subscript"]
            hints["index_values"] = {f"i_{t}": t for t in range(n)}
    elif features.idiom is IdiomKind.FOR_MULTI_TARGETS:
        width = features.node_counts["num_target"]
        hints["element_len"] = width + (1 if features.has_flags["has_starred"] else 0)
    elif features.idiom is IdiomKind.ASSIGN_MULTI_TARGETS and features.is_swap:
        hints["swap_only"] = True
    return hints


def refactor_pair(pair):
    """Return a copy of ``pair`` with the idiomatic half filled in.

    The non-idiomatic source is transformed under the pair's own idiom,
    using hints recovered from its feature vector so that degenerate
    data shapes (leftover tuple elements, slice spellings) round-trip.
    """
    import dataclasses

    idiomatic = refactor(pair.non_idiomatic_source, pair.idiom, hints_for(pair.features))
    compile(idiomatic, "<idiomatic>", "exec")
    return dataclasses.replace(pair, idiomatic_source=idiomatic)


def _collect_spans(tree: ast.Module, idiom: IdiomKind) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []

    if idiom in _COMP_HEADS:
        def matcher(stmts: list[ast.stmt], i: int):
            hit = _try_comprehension(idiom, stmts, i)
            if hit is not None:
                spans.append((stmts[i].lineno, stmts[i + 1].end_lineno or stmts[i + 1].lineno))
            return hit
        _rewrite_stmt_lists(tree, matcher)
    elif idiom is IdiomKind.CHAIN_COMPARISON:
        t = _ChainTransformer()
        for node in ast.walk(tree):
            if isinstance(node, ast.BoolOp):
                if not isinstance(t.visit_BoolOp(copy.deepcopy(node)), ast.BoolOp):
                    spans.append((node.lineno, node.end_lineno or node.lineno))
    elif idiom is IdiomKind.TRUTH_VALUE_TEST:
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.While, ast.Assert)):
                if _truth_test_rewrite(node.test) is not None:
                    spans.append((node.test.lineno, node.test.end_lineno or node.test.lineno))
    elif idiom is IdiomKind.LOOP_ELSE:
        def matcher(stmts: list[ast.stmt], i: int):
            hit = _try_loop_else(stmts, i)
            if hit is not None:
                last = stmts[i + hit[1] - 1]
                spans.append((stmts[i].lineno, last.end_lineno or last.lineno))
            return hit
        _rewrite_stmt_lists(tree, matcher)
    elif idiom is IdiomKind.ASSIGN_MULTI_TARGETS:
        def matcher(stmts: list[ast.stmt], i: int):
            hit = _try_assign_multi(stmts, i)
            if hit is not None:
                last = stmts[i + hit[1] - 1]
                spans.append((stmts[i].lineno, last.end_lineno or last.lineno))
            return hit
        _rewrite_stmt_lists(tree, matcher)
    elif idiom is IdiomKind.STAR_IN_FUNC_CALL:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                t = _StarCallTransformer({})
                if t.visit(copy.deepcopy(node)) and t.count:
                    spans.append((node.lineno, node.end_lineno or node.lineno))
    elif idiom is IdiomKind.FOR_MULTI_TARGETS:
        def matcher(stmts: list[ast.stmt], i: int):
            hit = _try_for_multi(stmts, i, {})
            if hit is not None:
                spans.append((stmts[i].lineno, stmts[i].end_lineno or stmts[i].lineno))
            return hit
        _rewrite_stmt_lists(tree, matcher)
    return spans
