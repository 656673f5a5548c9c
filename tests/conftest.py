"""Shared fixtures: deterministic sample vectors, refactored pairs and
local interpreters."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable

import pytest

from idiobench.catalog import IdiomKind, enumerate_matrix
from idiobench.cli import _stratified_indices
from idiobench.refactor import refactor_pair
from idiobench.synth import CodePair, synthesize


def stratified(items: list, limit: int, seed: int = 0) -> list:
    """The items ``gen --limit`` would pick: equal strides, seeded offset."""
    return [items[i] for i in _stratified_indices(len(items), limit, seed)]


def sample_vectors(idiom: IdiomKind, limit: int, seed: int = 0) -> list:
    return stratified(enumerate_matrix(idiom), limit, seed)


def digest(parts: Iterable[str]) -> str:
    """sha256 of the parts, each followed by a NUL byte."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") + b"\0")
    return h.hexdigest()


def pyenv_interpreter(minor: int) -> str | None:
    """A CPython 3.<minor> installed under pyenv, if there is one."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = sorted(root.glob(f"3.{minor}.*/bin/python3.{minor}"))
    return str(found[-1]) if found else None


@pytest.fixture(scope="session")
def pair_per_idiom() -> dict[IdiomKind, CodePair]:
    """One refactored, compilable pair for every idiom (size 100 where sized)."""
    out: dict[IdiomKind, CodePair] = {}
    for idiom in IdiomKind:
        vectors = enumerate_matrix(idiom)
        sized = [v for v in vectors if v.size == 100]
        chosen = sized[0] if sized else vectors[len(vectors) // 2]
        out[idiom] = refactor_pair(synthesize(chosen))
    return out
