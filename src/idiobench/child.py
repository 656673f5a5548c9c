"""Child processes: the only module that starts interpreters.

Two kinds of child run here:

- **Analysis jobs** (the snapshot and bytecode drivers) run through a
  pool of fork servers per target interpreter, up to one per usable CPU,
  each started on first use as ``[interpreter, "-I", "-S", "-c", ...]``.
  A server imports the drivers' modules once, compiles each distinct
  driver once, and ``os.fork()``s one private child per job to run that
  code object, so each job still runs in its own process; this follows
  the stdlib ``multiprocessing`` forkserver. Each server runs one
  job at a time; a job takes the first-started idle server, so a caller
  that never runs two jobs at once always uses the same one. ``imap``
  runs a function over items on as many threads as a pool has servers.
  Where ``os.fork`` is missing, the same job runner runs once in a fresh
  ``-I -S`` exec per job instead.
- **Fresh execs** (``exec_child``, ``exec_json``) run an argv to
  completion. Timing invocations use them, since the measurement protocol
  needs a fresh interpreter per invocation.

A job's driver is source run as ``__main__`` with its input bound to the
global ``job``; it answers by binding the global ``result``. A job's
answer is encoded one way on both paths: the runner writes the JSON of
``result``, and nothing else, to a private pipe (the exec's stdout where
there is no fork), and the child exits with the driver's exit status.
``run_job`` checks that status and decodes the JSON, so no driver reads
stdin or prints its answer. A job's stdin and stdout, as ``sys`` streams
and as file descriptors 0 and 1, are ``/dev/null``, so nothing a payload
reads or writes there can reach the protocol.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import subprocess
import sys
import threading
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Characters of a failed child's stderr kept in the error message.
_STDERR_TAIL = 500


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


#: Fork servers per interpreter, and the threads ``imap`` runs on.
_POOL_SIZE = _usable_cpus()


class ChildError(RuntimeError):
    """A child died, exited nonzero, or left no readable result.

    The message ends with the tail of the child's stderr.
    """


def resolve_interpreter(configured: str | None = None) -> str:
    """The target interpreter: ``configured``, else ``TARGET_INTERPRETER``,
    else the running interpreter."""
    return configured or os.environ.get("TARGET_INTERPRETER", sys.executable)


def _tail(stderr: str) -> str:
    return stderr.strip()[-_STDERR_TAIL:]


def last_json_line(stdout: str) -> Any:
    """Parse the last line of a child's stdout as JSON."""
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise ChildError(f"unreadable child output: {stdout[-200:]!r}") from exc


def exec_child(
    argv: list[str],
    *,
    timeout: float,
    env: dict[str, str] | None = None,
    input: str | None = None,
) -> tuple[str, str, int]:
    """Run ``argv`` to completion in a fresh process.

    Without ``input`` the child inherits stdin.

    Returns:
        (stdout, stderr, pid).

    Raises:
        subprocess.TimeoutExpired: after killing a child that outran
            ``timeout`` seconds.
        ChildError: the child exited nonzero.
    """
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if input is not None else None,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        stdout, stderr = proc.communicate(input, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildError(f"exited {proc.returncode}: {_tail(stderr)}")
    return stdout, stderr, proc.pid


def exec_json(
    argv: list[str], *, timeout: float, env: dict[str, str] | None = None
) -> tuple[Any, int]:
    """``exec_child``, then the JSON record on the child's last stdout line.

    Returns:
        (record, pid).
    """
    stdout, _, pid = exec_child(argv, timeout=timeout, env=env)
    return last_json_line(stdout), pid


# ============================================================
# Analysis jobs
# ============================================================

# Runs one job in the current process, writes the JSON of the "result"
# the driver bound, if it exited normally and bound one, to a descriptor,
# and returns the driver's exit status. The driver is the code object
# given, else the job's source compiled here. A result that JSON cannot
# encode fails the job like an exception in the driver. The modules the
# drivers import are imported here, once per server.
_RUNNER = """\
import contextlib, dis, io, json, os, select, signal, sys, time, types

def run_job(job, result_fd, driver=None):
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.close(null)
    sys.stdin = sys.stdout = open(os.devnull, "r+")
    namespace = {"__name__": "__main__", "job": job["input"]}
    data, code = b"", 0
    try:
        if driver is None:
            driver = compile(job["driver"], "<string>", "exec")
        exec(driver, namespace)
        if "result" in namespace:
            data = json.dumps(namespace["result"]).encode()
    except SystemExit as exc:
        code = exc.code
        if code is None:
            code = 0
        elif not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
    except BaseException as exc:
        # Leave this function's frame out of the traceback.
        exc = exc.with_traceback(exc.__traceback__.tb_next)
        sys.excepthook(type(exc), exc, exc.__traceback__)
        code = 1
    sys.stderr.flush()
    while data:
        data = data[os.write(result_fd, data):]
    return code
"""

# Reads one job per stdin line, forks a child for it and answers with one
# JSON line: {"exitcode", "result", "stderr"}, "result" being the text
# the child wrote to its result pipe, or {"timeout", "stderr"}. Exits on
# stdin EOF.
_SERVER = _RUNNER + """
def exitcode(status):
    # os.waitstatus_to_exitcode is new in 3.9.
    if os.WIFEXITED(status):
        return os.WEXITSTATUS(status)
    return -os.WTERMSIG(status)

# Each driver's code object, keyed by its source. A driver that does not
# compile here is left for the child to compile, so that its error
# reaches the client as any other failure of the driver does.
driver_codes = {}

def driver_code(source):
    if source not in driver_codes:
        try:
            driver_codes[source] = compile(source, "<string>", "exec")
        except Exception:
            return None
    return driver_codes[source]

def fork_job(job):
    driver = driver_code(job["driver"])
    result_r, result_w = os.pipe()
    err_r, err_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            signal.signal(signal.SIGINT, signal.default_int_handler)
            os.close(result_r)
            os.close(err_r)
            os.dup2(err_w, 2)
            os.close(err_w)
            code = run_job(job, result_w, driver)
        finally:
            os._exit(code)
    os.close(result_w)
    os.close(err_w)
    chunks = {result_r: [], err_r: []}
    pending = [result_r, err_r]
    deadline = time.monotonic() + job["timeout"]
    timed_out = False
    while pending:
        left = deadline - time.monotonic()
        if left <= 0:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            break
        for fd in select.select(pending, [], [], left)[0]:
            data = os.read(fd, 65536)
            if data:
                chunks[fd].append(data)
            else:
                pending.remove(fd)
    status = os.waitpid(pid, 0)[1]
    os.close(result_r)
    os.close(err_r)
    stderr = b"".join(chunks[err_r]).decode("utf-8", "replace")[-4000:]
    if timed_out:
        return {"timeout": True, "stderr": stderr}
    return {
        "exitcode": exitcode(status),
        "result": b"".join(chunks[result_r]).decode("utf-8", "replace"),
        "stderr": stderr,
    }

# The client's process group gets terminal interrupts; the server ends
# when the client closes its stdin instead.
signal.signal(signal.SIGINT, signal.SIG_IGN)
for line in sys.stdin:
    sys.stdout.write(json.dumps(fork_job(json.loads(line))) + "\\n")
    sys.stdout.flush()
"""

_ONE_SHOT = _RUNNER + """
sys.exit(run_job(json.load(sys.stdin), os.dup(1)))
"""


class _Server:
    """Client side of one fork server; safe to share between threads."""

    def __init__(self, interpreter: str) -> None:
        self.interpreter = interpreter
        self._lock = threading.Lock()
        self._proc: subprocess.Popen[str] | None = None

    def run(self, job: dict[str, Any], timeout: float) -> dict[str, Any]:
        """Send one job; return the server's answer.

        A server found dead, or dying while it holds the job, is replaced
        and the job sent once more.
        """
        request = json.dumps({**job, "timeout": timeout}) + "\n"
        with self._lock:
            for _ in range(2):
                proc = self._proc
                if proc is None or proc.poll() is not None:
                    proc = self._start()
                try:
                    proc.stdin.write(request)  # type: ignore[union-attr]
                    proc.stdin.flush()  # type: ignore[union-attr]
                    answer = proc.stdout.readline()  # type: ignore[union-attr]
                except OSError:
                    answer = ""
                if answer:
                    return json.loads(answer)
                self._stop()
        raise ChildError(f"job server for {self.interpreter} died")

    def _start(self) -> subprocess.Popen[str]:
        self._stop()
        # Analysis children inherit the caller's environment; stderr is
        # shared so that a server that cannot start says why.
        self._proc = subprocess.Popen(
            [self.interpreter, "-I", "-S", "-c", _SERVER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
        )
        return self._proc

    def _stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()  # type: ignore[union-attr]
            except OSError:
                pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def close(self) -> None:
        with self._lock:
            self._stop()


class _Pool:
    """Up to ``_POOL_SIZE`` fork servers for one interpreter.

    A job takes the first-started idle server, starting a new one only
    when every server is busy and the pool is below its size, and
    otherwise waits for one to come free.
    """

    def __init__(self, interpreter: str) -> None:
        self.interpreter = interpreter
        self._free = threading.Condition()
        self._servers: list[_Server] = []  # in start order
        self._busy: set[_Server] = set()

    def run(self, job: dict[str, Any], timeout: float) -> dict[str, Any]:
        server = self._acquire()
        try:
            return server.run(job, timeout)
        finally:
            with self._free:
                self._busy.discard(server)
                self._free.notify()

    def _acquire(self) -> _Server:
        with self._free:
            while True:
                idle = [s for s in self._servers[:_POOL_SIZE] if s not in self._busy]
                if idle:
                    server = idle[0]
                elif len(self._servers) < _POOL_SIZE:
                    server = _Server(self.interpreter)
                    self._servers.append(server)
                else:
                    self._free.wait()
                    continue
                self._busy.add(server)
                return server

    def close(self) -> None:
        with self._free:
            servers, self._servers = self._servers, []
        for server in servers:
            server.close()


class _Servers:
    """One lazily filled server pool per interpreter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_interpreter: dict[str, _Pool] = {}

    def get(self, interpreter: str) -> _Pool:
        with self._lock:
            pool = self._by_interpreter.get(interpreter)
            if pool is None:
                pool = self._by_interpreter[interpreter] = _Pool(interpreter)
            return pool

    def close(self) -> None:
        with self._lock:
            pools = list(self._by_interpreter.values())
            self._by_interpreter.clear()
        for pool in pools:
            pool.close()


_SERVERS = _Servers()
atexit.register(_SERVERS.close)


def run_job(driver: str, job: Any, *, timeout: float, interpreter: str) -> Any:
    """Run ``driver`` as ``__main__`` source in a private child of
    ``interpreter``.

    The driver sees ``job``, a JSON-serializable value, as its global
    ``job`` and answers by binding the global ``result`` to a
    JSON-serializable value. The child is killed after ``timeout``
    seconds.

    Returns:
        The driver's ``result``.

    Raises:
        subprocess.TimeoutExpired: the job outran ``timeout``.
        ChildError: the job died, exited nonzero, or bound no ``result``
            or one that JSON cannot encode.
    """
    request = {"driver": driver, "input": job}
    if hasattr(os, "fork"):
        answer = _SERVERS.get(interpreter).run(request, timeout)
        stderr = answer["stderr"]
        if answer.get("timeout"):
            raise subprocess.TimeoutExpired(
                f"{interpreter} job", timeout, stderr=_tail(stderr)
            )
        if answer["exitcode"] != 0:
            raise ChildError(f"exited {answer['exitcode']}: {_tail(stderr)}")
        data = answer["result"]
    else:
        data, stderr, _ = exec_child(
            [interpreter, "-I", "-S", "-c", _ONE_SHOT],
            input=json.dumps(request),
            timeout=timeout,
        )
    if not data:
        raise ChildError(f"bound no result: {_tail(stderr)}")
    return json.loads(data)


# CPython 3.11.7 keeps the recursion depth of an AST conversion in state
# that all threads share, so two threads parsing at once can fail with
# "SystemError: AST constructor recursion depth mismatch".
_PARSE_LOCK = threading.Lock()


def parse(source: str) -> ast.Module:
    """``ast.parse(source)``, one thread at a time, for code that runs on
    ``imap``'s threads."""
    with _PARSE_LOCK:
        return ast.parse(source)


def imap(fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
    """Yield ``fn(item)`` for each item, in order, computed on up to
    ``_POOL_SIZE`` threads.

    An exception from ``fn``, or the consumer leaving the loop, cancels
    the items not yet started and waits for the running ones.
    """
    # Imported here: the stages that never call this skip its import cost.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=_POOL_SIZE)
    try:
        futures = [pool.submit(fn, item) for item in items]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)
