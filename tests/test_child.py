"""Child processes: the fork server for analysis jobs and its exec fallback."""

from __future__ import annotations

import concurrent.futures
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from idiobench import child
from idiobench.bytecode import diff_report
from idiobench.catalog import IdiomKind
from idiobench.equivalence import check, mutants
from idiobench.synth import CodePair, save_pair

from conftest import pyenv_interpreter

SRC = Path(__file__).resolve().parent.parent / "src"
PARENT_PID = "import os; result = os.getppid()"


def _job(driver: str, timeout: float = 30.0):
    return child.run_job(
        driver, "", timeout=timeout, interpreter=child.resolve_interpreter()
    )


def _noisy_pair(noise: bytes | str) -> CodePair:
    """A pair whose payload writes bytes ``noise`` to descriptor 1, or
    whose setup and payload both print str ``noise`` with no newline."""
    if isinstance(noise, bytes):
        setup, statement = "", f"__os.write(1, {noise!r})"
    else:
        statement = f"print({noise!r}, end='')"
        setup = statement + "\n"
    payload = f"{statement}\nif x_0 TEST:\n    r_0 = 1\n"
    return CodePair(
        pair_id="unit-noisy",
        idiom=IdiomKind.TRUTH_VALUE_TEST,
        features=None,
        setup_source=f"import os as __os\n{setup}x_0 = 3\n",
        non_idiomatic_source=payload.replace("TEST", "!= 0"),
        idiomatic_source=payload.replace(" TEST", ""),
        scope_mode="Global",
    )


def test_resolve_interpreter_precedence(monkeypatch):
    monkeypatch.delenv("TARGET_INTERPRETER", raising=False)
    assert child.resolve_interpreter() == sys.executable
    monkeypatch.setenv("TARGET_INTERPRETER", "/env/py")
    assert child.resolve_interpreter() == "/env/py"
    assert child.resolve_interpreter("/cfg/py") == "/cfg/py"


def test_jobs_fork_from_one_server():
    server = _job(PARENT_PID)
    assert server != os.getpid()
    assert _job(PARENT_PID) == server


def test_timeout_kills_the_job_not_the_server():
    server = _job(PARENT_PID)
    with pytest.raises(subprocess.TimeoutExpired):
        _job("while True: pass", timeout=1.0)
    assert _job(PARENT_PID) == server


@pytest.mark.parametrize("path", ["fork", "exec"])
def test_failed_jobs_raise_with_stderr_tail(path, monkeypatch):
    if path == "exec":
        monkeypatch.delattr(os, "fork")
    with pytest.raises(child.ChildError, match="(?s)exited 1:.*ValueError: boom"):
        _job("raise ValueError('boom')")
    with pytest.raises(child.ChildError, match="exited 3"):
        _job("import sys; sys.exit(3)")
    with pytest.raises(child.ChildError, match="exited -9"):
        _job("import os; os.kill(os.getpid(), 9)")
    with pytest.raises(child.ChildError, match="bound no result"):
        _job("print('not json')")
    with pytest.raises(child.ChildError, match="(?s)exited 1:.*not JSON serializable"):
        _job("result = object()")


@pytest.mark.parametrize("minor", range(8, 14), ids=lambda minor: f"3.{minor}")
def test_job_protocol_on_each_local_interpreter(minor, monkeypatch):
    """The runner decides a job's exit status inside the target interpreter."""
    interp = pyenv_interpreter(minor)
    if interp is None:
        pytest.skip(f"no CPython 3.{minor} under pyenv")

    def job(driver):
        return child.run_job(driver, [minor], timeout=30, interpreter=interp)

    for path in ("fork", "exec"):
        if path == "exec":
            monkeypatch.delattr(os, "fork")
        assert job("import sys; result = [sys.version_info[1], job]") == [minor, [minor]]
        with pytest.raises(child.ChildError, match="(?s)exited 1:.*ValueError: boom"):
            job("raise ValueError('boom')")
        with pytest.raises(child.ChildError, match="exited 3"):
            job("import sys; result = 1; sys.exit(3)")
        with pytest.raises(child.ChildError, match="bound no result"):
            job("print('not json')")
        with pytest.raises(child.ChildError, match="(?s)exited 1:.*not JSON serializable"):
            job("result = object()")


def test_killed_server_is_replaced():
    server = _job(PARENT_PID)
    os.kill(server, signal.SIGKILL)
    replacement = _job(PARENT_PID)
    assert replacement not in (server, os.getpid())


@pytest.mark.parametrize(
    "noise", [b"noise\n", b"{torn", pytest.param("{torn", id="print-without-newline")]
)
def test_raw_fd_writes_cannot_reach_the_protocol(noise, monkeypatch):
    pair = _noisy_pair(noise)
    assert check(pair).status == "Equivalent"
    assert diff_report(pair, probe=True)["root_cause"] != "Error"
    monkeypatch.delattr(os, "fork")
    assert check(pair).status == "Equivalent"
    assert diff_report(pair, probe=True)["root_cause"] != "Error"


def test_concurrent_checks_match_sequential(pair_per_idiom):
    pairs = list(pair_per_idiom.values())
    pairs += [m for pair in pairs for _, m in mutants(pair)]
    sequential = [check(p).status for p in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            concurrent_ = list(pool.map(lambda p: check(p).status, pairs, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent_ == sequential
    assert "Divergent" in sequential and "Equivalent" in sequential


def test_exec_fallback_without_fork(pair_per_idiom, monkeypatch):
    pairs = list(pair_per_idiom.values())
    forked = [(check(p), diff_report(p)) for p in pairs]
    monkeypatch.delattr(os, "fork")
    assert _job(PARENT_PID) == os.getpid()
    execed = [(check(p), diff_report(p)) for p in pairs]
    assert execed == forked
    with pytest.raises(subprocess.TimeoutExpired):
        _job("while True: pass", timeout=1.0)
    with pytest.raises(child.ChildError, match="ValueError: boom"):
        _job("raise ValueError('boom')")


def test_no_server_outlives_a_check_run(tmp_path):
    pid_file = tmp_path / "server.pid"
    save_pair(
        CodePair(
            pair_id="unit-server-pid",
            idiom=IdiomKind.TRUTH_VALUE_TEST,
            features=None,
            setup_source=(
                "import os as __os\n"
                f"with open({str(pid_file)!r}, 'w') as __fh:\n"
                "    __fh.write(str(__os.getppid()))\n"
                "x_0 = 3\n"
            ),
            non_idiomatic_source="if x_0 != 0:\n    r_0 = 1\n",
            idiomatic_source="if x_0:\n    r_0 = 1\n",
            scope_mode="Global",
        ),
        tmp_path / "pairs",
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "idiobench.cli", "check", "--in", str(tmp_path / "pairs")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "Equivalent"
    server = int(pid_file.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(server, 0)


@pytest.fixture
def fresh_pool(monkeypatch):
    """Fork servers of this test only, at most three per interpreter."""
    servers = child._Servers()
    monkeypatch.setattr(child, "_SERVERS", servers)
    monkeypatch.setattr(child, "_POOL_SIZE", 3)
    yield
    servers.close()


def test_pool_never_exceeds_its_size(fresh_pool):
    job = "import os, time; time.sleep(0.05); result = os.getppid()"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            servers = set(pool.map(lambda _: _job(job), range(32), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert 1 < len(servers) <= 3
    assert os.getpid() not in servers


def _side_by_side(directory: Path) -> set[int]:
    """The servers of two jobs that each wait until both are running."""
    directory.mkdir()
    job = (
        "import os, pathlib, time\n"
        f"d = pathlib.Path({str(directory)!r})\n"
        "(d / str(os.getpid())).touch()\n"
        "while len(list(d.iterdir())) < 2:\n"
        "    time.sleep(0.01)\n"
        "result = os.getppid()\n"
    )
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        return set(pool.map(lambda _: _job(job), range(2), timeout=60))


def test_killed_pooled_server_is_replaced_and_the_rest_keep_serving(fresh_pool, tmp_path):
    both = _side_by_side(tmp_path / "first")
    assert len(both) == 2
    first = _job(PARENT_PID)  # a lone job takes the first-started server
    (other,) = both - {first}
    os.kill(first, signal.SIGKILL)
    replacement = _job(PARENT_PID)
    assert replacement not in both
    assert _side_by_side(tmp_path / "again") == {replacement, other}
