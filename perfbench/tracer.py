"""Run one idiobench CLI stage with its public functions wrapped in spans.

Usage: python perfbench/tracer.py TRACE_FILE STAGE CLI_ARGS...

Every public function of the traced idiobench modules, plus
``TimingStore.__init__`` and ``subprocess.Popen``, is replaced by a
wrapper when its module is first imported; the import itself is an
``import.<module>`` span. Modules are wrapped as they
load, so a stage imports exactly what it imports untraced. The wrappers
keep spans ``{name, start, end, parent, stage}`` in memory (times from
``time.monotonic``, which is system-wide on Linux) and write them as
JSON to TRACE_FILE when the stage ends. A span whose call raised also
carries ``raised``. The start of the ``cli.main`` span, against the
parent's clock reading before the spawn, gives the stage's start-up time.

The idiobench modules look each of these functions up as a module
attribute at call time, or bind it with ``from ... import`` after the
defining module has finished loading, so every call is caught.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
from typing import Any, Callable

TRACED_MODULES = (
    "catalog",
    "synth",
    "refactor",
    "equivalence",
    "bench",
    "stats",
    "bytecode",
    "cli",
)


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = {
                "name": name,
                "start": time.monotonic(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
                "stage": self.stage,
            }
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.monotonic()
                self._open.pop()

        return traced

    def instrument(self, module: Any) -> None:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(module).items()):
            # Names imported from another module keep that module's
            # __module__ and are wrapped there, once.
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__
            ):
                setattr(module, attr, self.wrap(f"{short}.{attr}", value))
        if short == "bench":
            store = module.TimingStore
            store.__init__ = self.wrap("bench.TimingStore.load", store.__init__)

    def instrument_subprocess(self, module: Any) -> None:
        recorder = self

        class TracedPopen(module.Popen):
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                recorder.wrap("subprocess.Popen", super().__init__)(*args, **kwargs)

        module.Popen = TracedPopen

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stage": self.stage, "spans": self.spans}, fh)


class _InstrumentingLoader(importlib.abc.Loader):
    """Times a module's execution as an ``import.<name>`` span, then wraps it."""

    def __init__(
        self, inner: importlib.abc.Loader, recorder: Recorder, hook: Callable[[Any], None]
    ) -> None:
        self.inner = inner
        self.recorder = recorder
        self.hook = hook

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def create_module(self, spec: Any) -> Any:
        return self.inner.create_module(spec)

    def exec_module(self, module: Any) -> None:
        short = module.__name__.rsplit(".", 1)[-1]
        self.recorder.wrap(f"import.{short}", self.inner.exec_module)(module)
        self.hook(module)


class InstrumentingFinder(importlib.abc.MetaPathFinder):
    """Finds modules as usual and wraps the traced ones once loaded."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.hooks: dict[str, Callable[[Any], None]] = {
            f"idiobench.{name}": recorder.instrument for name in TRACED_MODULES
        }
        self.hooks["subprocess"] = recorder.instrument_subprocess

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        hook = self.hooks.get(fullname)
        if hook is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        spec.loader = _InstrumentingLoader(spec.loader, self.recorder, hook)
        return spec


def main(argv: list[str]) -> int:
    trace_file, stage, cli_args = argv[0], argv[1], argv[2:]
    recorder = Recorder(stage)
    finder = InstrumentingFinder(recorder)
    if "subprocess" in sys.modules:
        recorder.instrument_subprocess(sys.modules["subprocess"])
        del finder.hooks["subprocess"]
    sys.meta_path.insert(0, finder)

    from idiobench import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
