"""The job wrapper, called directly: in-process through `wrapper.run`, and
as the process the executor starts."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from gridwms import wrapper
from gridwms.executor import WRAPPER_MAIN
from gridwms.submission import WrapperPlan
from gridwms.util import python_child_env

EXECUTOR_ARGV = [sys.executable, "-S", "-c", WRAPPER_MAIN]


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    path = tmp_path / "scratch"
    path.mkdir()
    monkeypatch.chdir(path)
    return path


def write_plan(path, command, **kwargs) -> str:
    plan_path = path / "plan.json"
    plan_path.write_text(json.dumps(WrapperPlan(command=command, **kwargs).as_dict()))
    return str(plan_path)


def result(scratch) -> dict:
    return json.loads((scratch / "wrapper.result").read_text())


def test_exit_code_passes_through_and_outputs_are_copied(scratch, tmp_path):
    source = tmp_path / "source.txt"
    source.write_text("payload")
    out_dir = tmp_path / "out"
    plan = write_plan(
        scratch,
        ["/bin/sh", "-c", "cp sub/in.txt out.txt; echo hi; exit 3"],
        inputs=[{"name": "sub/in.txt", "source": str(source)}],
        outputs=["out.txt", "never-made.txt"],
        output_dir=str(out_dir),
    )
    assert wrapper.run(plan) == 3
    assert result(scratch)["exit"] == 3
    assert (out_dir / "out.txt").read_text() == "payload"
    assert not (out_dir / "never-made.txt").exists()
    assert (scratch / "stdout.log").read_text() == "hi\n"


def test_exit_code_of_125_or_more_maps_to_124(scratch):
    assert wrapper.run(write_plan(scratch, ["/bin/sh", "-c", "exit 200"])) == 124
    assert result(scratch)["exit"] == 200


@pytest.mark.parametrize(
    "where, name",
    [("inputs", "/etc/passwd"), ("inputs", "a/../../x"), ("outputs", "/tmp/x"), ("outputs", "../x")],
)
def test_names_outside_scratch_are_refused(scratch, tmp_path, where, name):
    source = tmp_path / "source.txt"
    source.write_text("x")
    if where == "inputs":
        sandbox = {"inputs": [{"name": name, "source": str(source)}]}
    else:
        sandbox = {"outputs": [name], "output_dir": str(tmp_path / "out")}
    assert wrapper.run(write_plan(scratch, ["/bin/true"], **sandbox)) == wrapper.SETUP_FAILED
    assert "escapes scratch" in result(scratch)["error"]


@pytest.mark.parametrize("command", ["no-such-program-on-path", "/no/such/program"])
def test_missing_executable(scratch, command):
    assert wrapper.run(write_plan(scratch, [command])) == wrapper.SETUP_FAILED
    assert result(scratch)["error"].startswith("executable not found")


def test_missing_stdin_file(scratch):
    assert wrapper.run(write_plan(scratch, ["/bin/cat"], stdin="absent.txt")) == wrapper.SETUP_FAILED
    assert result(scratch)["error"].startswith("stdin unavailable")


def test_stdio_routing(scratch):
    (scratch / "in.txt").write_text("to stdout\n")
    plan = write_plan(scratch, ["/bin/sh", "-c", "cat; echo oops >&2"], stdin="in.txt", stdout="o.txt", stderr="e.txt")
    assert wrapper.run(plan) == 0
    assert (scratch / "o.txt").read_text() == "to stdout\n"
    assert (scratch / "e.txt").read_text() == "oops\n"


def test_job_does_not_inherit_ignored_sigpipe(scratch):
    # this interpreter ignores SIGPIPE; a job must start with it at default
    assert signal.getsignal(signal.SIGPIPE) == signal.SIG_IGN
    assert wrapper.run(write_plan(scratch, ["/bin/grep", "SigIgn", "/proc/self/status"])) == 0
    ignored = int((scratch / "stdout.log").read_text().split()[1], 16)
    assert not ignored & (1 << (signal.SIGPIPE - 1))


def test_job_killed_by_a_signal(scratch):
    assert wrapper.run(write_plan(scratch, ["/bin/sh", "-c", "kill -9 $$"])) == wrapper.SETUP_FAILED
    assert result(scratch) == {"error": "user executable killed by signal 9", "signal": 9}


def test_checkpoint_pairs_become_the_restore_file(scratch):
    plan = write_plan(scratch, ["/bin/sh", "-c", 'cat "$WMS_CHECKPOINT_IN"'], checkpoint_pairs=[["a", "1"], ["b", "2"]])
    assert wrapper.run(plan) == 0
    assert (scratch / wrapper.CHECKPOINT_FILE).read_text() == "a=1\nb=2\n"
    assert (scratch / "stdout.log").read_text() == "a=1\nb=2\n"


@pytest.mark.parametrize("content", [None, "not json", "[]", '{"env": {}}'])
def test_unreadable_plan(scratch, content):
    plan_path = scratch / "plan.json"
    if content is not None:
        plan_path.write_text(content)
    assert wrapper.run(str(plan_path)) == wrapper.SETUP_FAILED
    assert result(scratch)["error"].startswith("unreadable plan")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.mark.parametrize("argv", [EXECUTOR_ARGV, [sys.executable, "-m", "gridwms.wrapper"]])
def test_wrapper_process_runs_a_plan(scratch, tmp_path, argv):
    # input files named like the modules the wrapper imports late must not
    # replace them: a bare command name needs shutil, a plain job signal
    (tmp_path / "bad.py").write_text("raise RuntimeError('imported from the sandbox')\n")
    inputs = [{"name": name, "source": str(tmp_path / "bad.py")} for name in ("shutil.py", "signal.py")]
    plan = write_plan(scratch, ["sh", "-c", "exit 7"], inputs=inputs)
    done = subprocess.run(argv + [plan], cwd=scratch, env=python_child_env(), timeout=60)
    assert done.returncode == 7
    assert result(scratch)["exit"] == 7


def test_killpg_of_the_wrapper_ends_the_job(scratch):
    plan = write_plan(scratch, ["/bin/sh", "-c", "echo $$ > job.pid.tmp; mv job.pid.tmp job.pid; exec sleep 30"])
    proc = subprocess.Popen(EXECUTOR_ARGV + [plan], cwd=scratch, env=python_child_env(), start_new_session=True)
    try:
        assert _wait_for(lambda: (scratch / "job.pid").exists())
        job_pid = int((scratch / "job.pid").read_text())
        assert _alive(job_pid)
        os.killpg(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=10) == -signal.SIGKILL
        assert _wait_for(lambda: not _alive(job_pid))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def test_wrapper_imports_stay_lean():
    heavy = ["subprocess", "socket", "threading", "dataclasses", "inspect", "pathlib", "shutil", "gridwms.submission"]
    code = f"import gridwms.wrapper, sys; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=python_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
