"""Executor: two-phase staging, simulated CEs, job log, log monitor."""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from gridwms import executor as executor_module
from gridwms.bookkeeping import BookkeepingStore, Event, JobState
from gridwms.broker import ResourceRegistry
from gridwms.classad import Integer, attr_value
from gridwms.executor import (
    AlreadyTerminalError,
    ExecutorService,
    InvalidDescriptorError,
    UnknownHandleError,
)
from gridwms.client import GatewayClient
from gridwms.layout import SpoolLayout
from gridwms.logmonitor import LogMonitor, tail_and_translate
from gridwms.stack import Stack
from gridwms.submission import SubmissionDescriptor, WrapperPlan
from gridwms.util import append_locked, open_locked, read_json_lines

from conftest import wait_state, write_resource


@pytest.fixture
def exec_spool(tmp_path) -> SpoolLayout:
    layout = SpoolLayout(tmp_path / "spool").ensure()
    write_resource(layout.root / "resources", "CE1", Status="Production", FreeCPUs=2,
                   TotalCPUs=2, Slots=2, OwnerGroup="g", PricePerCpuSecond=1)
    return layout


@pytest.fixture(autouse=True)
def close_services(monkeypatch):
    """Close every executor a test makes, so that no wrapper zygote outlives its test."""
    made = []
    real_init = ExecutorService.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ExecutorService, "__init__", init)
    yield
    for service in made:
        service.close()


def make_service(spool: SpoolLayout, **kwargs) -> ExecutorService:
    return ExecutorService(spool, fake_cpu_seconds=0.25, **kwargs)


def descriptor(spool: SpoolLayout, job="job-1", attempt=1, command=None, outputs=(),
               inputs=(), stdout=None, checkpoint=None, ce="CE1") -> SubmissionDescriptor:
    plan = WrapperPlan(
        command=command or ["/bin/sh", "-c", "exit 0"],
        env={"WMS_JOB_ID": job},
        inputs=list(inputs),
        outputs=list(outputs),
        output_dir=str(spool.output_dir(job)),
        stdout=stdout,
        checkpoint_pairs=checkpoint,
    )
    return SubmissionDescriptor(job_id=job, attempt=attempt, submit_to=ce,
                                final_jdl='[ Executable = "/bin/sh"; ]', plan=plan, owner="alice")


def run_until(service: ExecutorService, pred, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        service.tick()
        if pred():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached")


def log_records(spool: SpoolLayout) -> list[dict]:
    path = spool.executor_log
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# -- two-phase commit ------------------------------------------------------------


def test_stage_is_durable_and_not_runnable(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool))
    kinds = [r["kind"] for r in log_records(exec_spool)]
    assert kinds == ["Staged"]
    # a restart sees the staged job, still not running
    again = make_service(exec_spool)
    assert handle in again.jobs
    assert not again.jobs[handle].committed
    assert not again.jobs[handle].started


def test_stage_idempotent_on_key(exec_spool):
    service = make_service(exec_spool)
    h1 = service.stage(descriptor(exec_spool))
    h2 = service.stage(descriptor(exec_spool))
    assert h1 == h2
    assert [r["kind"] for r in log_records(exec_spool)] == ["Staged"]


def test_stage_invalid_descriptor_records_nothing(exec_spool):
    service = make_service(exec_spool)
    bad = descriptor(exec_spool, ce="CE-UNKNOWN")
    with pytest.raises(InvalidDescriptorError):
        service.stage(bad)
    assert log_records(exec_spool) == []
    assert service.jobs == {}


def test_commit_unknown_handle(exec_spool):
    with pytest.raises(UnknownHandleError):
        make_service(exec_spool).commit("h-99999999")


def test_commit_timeout_garbage_collects(exec_spool):
    service = make_service(exec_spool, commit_timeout=0.2)
    service.stage(descriptor(exec_spool))
    time.sleep(0.3)
    service.tick()
    records = log_records(exec_spool)
    assert records[-1]["kind"] == "Aborted"
    assert records[-1]["data"]["reason"] == "commit timeout"


def test_execute_round_trip_output_sandbox(exec_spool, tmp_path):
    payload = os.urandom(512)
    src = tmp_path / "input.bin"
    src.write_bytes(payload)
    service = make_service(exec_spool)
    desc = descriptor(
        exec_spool,
        command=["/bin/sh", "-c", "cp input.bin result.bin"],
        inputs=[{"name": "input.bin", "source": str(src)}],
        outputs=["result.bin"],
    )
    handle = service.stage(desc)
    service.commit(handle)
    run_until(service, lambda: handle not in service.jobs)
    out = exec_spool.output_dir("job-1") / "result.bin"
    assert out.read_bytes() == payload  # byte-identical
    records = log_records(exec_spool)
    assert [r["kind"] for r in records] == ["Staged", "Committed", "Executing", "Terminated"]
    assert records[-1]["data"]["exitCode"] == 0


def test_a_job_sees_the_python_path_and_its_own_variables(exec_spool, monkeypatch):
    monkeypatch.delenv("WMS_FAKE_CPU_SECONDS", raising=False)
    monkeypatch.delenv("WMS_GATEWAY", raising=False)
    service = make_service(exec_spool, gateway_addr="127.0.0.1:1")
    names = ["PYTHONPATH", "WMS_JOB_ID", "WMS_SCRATCH", "WMS_FAKE_CPU_SECONDS", "WMS_GATEWAY", "WMS_FIRST"]
    script = "".join(f'echo "${name}" >> env.txt; ' for name in names)
    first = descriptor(exec_spool, job="job-1", command=["/bin/sh", "-c", script], outputs=["env.txt"])
    first = replace(first, plan=replace(first.plan, env={**first.plan.env, "WMS_FIRST": "yes"}))
    second = descriptor(exec_spool, job="job-2", command=["/bin/sh", "-c", script], outputs=["env.txt"])
    seen = {}
    for desc in (first, second):  # forked by one zygote
        if desc is second:  # the zygote's environment, not the executor's, decides
            monkeypatch.setenv("WMS_GATEWAY", "127.0.0.1:2")
        handle = service.stage(desc)
        service.commit(handle)
        run_until(service, lambda: handle not in service.jobs)
        lines = (exec_spool.output_dir(desc.job_id) / "env.txt").read_text().splitlines()
        seen[desc.job_id] = dict(zip(names, lines))
    package_root = str(Path(executor_module.__file__).resolve().parent.parent)
    for job, env in seen.items():
        assert package_root in env["PYTHONPATH"].split(os.pathsep)
        assert env["WMS_JOB_ID"] == job
        assert env["WMS_SCRATCH"] == str(exec_spool.run_dir(f"{job}.1"))
        assert (env["WMS_FAKE_CPU_SECONDS"], env["WMS_GATEWAY"]) == ("0.25", "127.0.0.1:1")
    assert (seen["job-1"]["WMS_FIRST"], seen["job-2"]["WMS_FIRST"]) == ("yes", "")


def test_exit_code_captured(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=["/bin/sh", "-c", "exit 3"]))
    service.commit(handle)
    run_until(service, lambda: handle not in service.jobs)
    last = log_records(exec_spool)[-1]
    assert last["kind"] == "Terminated"
    assert last["data"]["exitCode"] == 3


def test_escaping_sandbox_names_abort_in_band(exec_spool, tmp_path):
    src = tmp_path / "x"
    src.write_text("x")
    service = make_service(exec_spool)
    desc = descriptor(exec_spool, inputs=[{"name": "/etc/evil", "source": str(src)}])
    handle = service.stage(desc)
    service.commit(handle)
    run_until(service, lambda: handle not in service.jobs)
    last = log_records(exec_spool)[-1]
    assert last["kind"] == "Aborted"
    assert "escapes scratch" in last["data"]["reason"]


def test_missing_executable_aborts_in_band(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=["no-such-program-xyz"]))
    service.commit(handle)
    run_until(service, lambda: handle not in service.jobs)
    last = log_records(exec_spool)[-1]
    assert last["kind"] == "Aborted"
    assert "not found" in last["data"]["reason"]


def test_signal_death_becomes_abort(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=["/bin/sh", "-c", "kill -9 $$"]))
    service.commit(handle)
    run_until(service, lambda: handle not in service.jobs)
    last = log_records(exec_spool)[-1]
    assert last["kind"] == "Aborted"
    assert "signal 9" in last["data"]["reason"]


def test_checkpoint_restore_file_written(exec_spool):
    service = make_service(exec_spool)
    desc = descriptor(
        exec_spool,
        command=["/bin/sh", "-c", "cp \"$WMS_CHECKPOINT_IN\" restored.txt"],
        outputs=["restored.txt"],
        checkpoint=[["step", "3"], ["sum", "6"]],
    )
    handle = service.stage(desc)
    service.commit(handle)
    run_until(service, lambda: handle not in service.jobs)
    restored = exec_spool.output_dir("job-1") / "restored.txt"
    assert restored.read_text() == "step=3\nsum=6\n"


def test_cancel_queued_job_never_executes(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool))
    service.cancel(handle)
    service.tick()
    kinds = [r["kind"] for r in log_records(exec_spool)]
    assert kinds == ["Staged", "Cancelled"]
    assert "Executing" not in kinds


def test_cancel_running_job_kills_process(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=["/bin/sleep", "30"]))
    service.commit(handle)
    run_until(service, lambda: service.jobs[handle].started)
    proc = service.procs[handle]
    service.cancel(handle)
    deadline = time.monotonic() + 5
    while proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.02)
    assert proc.poll() is not None  # process gone
    service.tick()
    kinds = [r["kind"] for r in log_records(exec_spool)]
    assert kinds.count("Cancelled") == 1
    assert "Terminated" not in kinds


def test_cancel_twice_already_terminal(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool))
    service.cancel(handle)
    with pytest.raises(AlreadyTerminalError):
        service.cancel(handle)


def test_slot_bound_respected(exec_spool):
    service = make_service(exec_spool)  # CE1 has 2 slots
    handles = []
    for i in range(5):
        h = service.stage(descriptor(exec_spool, job=f"job-{i}",
                                     command=["/bin/sh", "-c", "sleep 0.3"]))
        service.commit(h)
        handles.append(h)
    run_until(service, lambda: all(h not in service.jobs for h in handles), timeout=30)
    # reconstruct concurrency from the log ordering
    running = 0
    peak = 0
    for record in log_records(exec_spool):
        if record["kind"] == "Executing":
            running += 1
            peak = max(peak, running)
        elif record["kind"] in ("Terminated", "Aborted", "Cancelled") and record["handle"] in handles:
            if any(r["kind"] == "Executing" and r["handle"] == record["handle"]
                   for r in log_records(exec_spool)):
                running -= 1
    assert peak <= 2


def test_two_phase_safety_from_log(exec_spool):
    service = make_service(exec_spool)
    for i in range(3):
        h = service.stage(descriptor(exec_spool, job=f"job-{i}"))
        service.commit(h)
    run_until(service, lambda: not service.jobs, timeout=30)
    seen: dict[str, list[str]] = {}
    for record in log_records(exec_spool):
        seen.setdefault(record["handle"], []).append(record["kind"])
    for kinds in seen.values():
        if "Executing" in kinds:
            i = kinds.index("Executing")
            assert "Staged" in kinds[:i] and "Committed" in kinds[:i]


def test_at_most_once_completion_per_handle(exec_spool):
    service = make_service(exec_spool)
    h = service.stage(descriptor(exec_spool))
    service.commit(h)
    run_until(service, lambda: h not in service.jobs)
    kinds = [r["kind"] for r in log_records(exec_spool) if r["handle"] == h]
    terminal = [k for k in kinds if k in ("Terminated", "Aborted", "Cancelled")]
    assert len(terminal) == 1


def test_executor_restart_aborts_lost_processes(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=["/bin/sleep", "60"]))
    service.commit(handle)
    run_until(service, lambda: service.jobs[handle].started)
    proc = service.procs[handle]
    # simulate the executor dying: a new incarnation takes over the spool
    replacement = make_service(exec_spool)
    recovered = replacement.recover()
    assert recovered == 1
    deadline = time.monotonic() + 5
    while proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.02)
    assert proc.poll() is not None  # the orphan wrapper was killed
    records = log_records(exec_spool)
    assert records[-1]["kind"] == "Aborted"
    assert "executor restart" in records[-1]["data"]["reason"]
    kinds = [r["kind"] for r in records if r["handle"] == handle]
    assert "Terminated" not in kinds  # at-most-once completion preserved


def test_queue_consumption_stages_and_commits(exec_spool):
    service = make_service(exec_spool)
    desc = descriptor(exec_spool)
    service.queue.enqueue({"type": "run", "descriptor": desc.as_dict()})
    run_until(service, lambda: desc.idem_key in service.finished)
    kinds = [r["kind"] for r in log_records(exec_spool)]
    assert kinds[:3] == ["Staged", "Committed", "Executing"]


def test_duplicate_descriptor_absorbed(exec_spool):
    service = make_service(exec_spool)
    desc = descriptor(exec_spool)
    service.queue.enqueue({"type": "run", "descriptor": desc.as_dict()})
    service.queue.enqueue({"type": "run", "descriptor": desc.as_dict()})
    run_until(service, lambda: service.queue.pending_count() == 0 and
              desc.idem_key in service.finished, timeout=30)
    records = log_records(exec_spool)
    assert len([r for r in records if r["kind"] == "Executing"]) == 1
    assert len([r for r in records if r["kind"] == "Terminated"]) == 1


# -- the wrapper zygote ------------------------------------------------------------

# a job that says where it runs, then waits to be killed
SLEEPER = ["/bin/sh", "-c", "echo $$ > job.pid.tmp; mv job.pid.tmp job.pid; exec sleep 60"]


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def job_pid(spool: SpoolLayout, handle: str) -> int:
    path = spool.run_dir(handle) / "job.pid"
    assert wait_for(path.exists)
    return int(path.read_text())


def test_restart_kills_a_wrapper_whose_pid_the_executor_never_saw(exec_spool, monkeypatch):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=SLEEPER))
    service.commit(handle)

    def crash(name):
        if name == "executor.after_spawn":
            raise RuntimeError("executor died between the spawn and its record of the pid")

    monkeypatch.setattr(executor_module, "crash_point", crash)
    with pytest.raises(RuntimeError):
        service.tick()
    assert handle not in service.procs
    pid = job_pid(exec_spool, handle)  # the job runs: its wrapper wrote wrapper.pid first
    replacement = make_service(exec_spool)
    assert replacement.recover() == 1
    assert wait_for(lambda: not alive(pid))
    assert [r["kind"] for r in log_records(exec_spool)] == ["Staged", "Committed", "Aborted"]


def test_a_killed_zygote_aborts_its_jobs_and_the_next_job_gets_a_new_one(exec_spool):
    service = make_service(exec_spool)  # CE1 has 2 slots
    sleepers = [service.stage(descriptor(exec_spool, job=f"job-{i}", command=SLEEPER)) for i in range(2)]
    last = service.stage(descriptor(exec_spool, job="job-last", command=["/bin/true"]))
    for handle in [*sleepers, last]:
        service.commit(handle)
    run_until(service, lambda: len(service.procs) == 2)
    pids = [job_pid(exec_spool, handle) for handle in sleepers]
    first = service._zygote.proc.pid
    os.kill(first, signal.SIGKILL)
    run_until(service, lambda: last in service.finished)
    assert wait_for(lambda: not any(alive(pid) for pid in pids))
    terminal = {r["handle"]: r for r in log_records(exec_spool) if r["kind"] in ("Terminated", "Aborted")}
    assert [terminal[h]["data"].get("reason") for h in sleepers] == ["wrapper zygote lost"] * 2
    assert terminal[last]["kind"] == "Terminated" and terminal[last]["data"]["exitCode"] == 0
    assert service._zygote.proc.pid != first
    assert not alive(first)


def test_a_zygote_that_does_not_answer_is_replaced(exec_spool, monkeypatch):
    service = make_service(exec_spool)
    warm = service.stage(descriptor(exec_spool, job="job-warm", command=["/bin/true"]))
    service.commit(warm)
    run_until(service, lambda: warm in service.finished)
    hung = service._zygote.proc
    os.kill(hung.pid, signal.SIGSTOP)
    handle = service.stage(descriptor(exec_spool, job="job-1", command=["/bin/true"]))
    service.commit(handle)
    # short only for this request: a new zygote's start counts against its first one
    timeout = executor_module.ZYGOTE_REPLY_TIMEOUT
    monkeypatch.setattr(executor_module, "ZYGOTE_REPLY_TIMEOUT", 0.3)
    service.tick()
    monkeypatch.setattr(executor_module, "ZYGOTE_REPLY_TIMEOUT", timeout)
    last = log_records(exec_spool)[-1]
    assert last["handle"] == handle and last["kind"] == "Aborted"
    assert last["data"]["reason"].startswith("wrapper spawn failed: wrapper zygote lost")
    assert hung.returncode == -signal.SIGKILL  # killed and reaped
    again = service.stage(descriptor(exec_spool, job="job-2", command=["/bin/true"]))
    service.commit(again)
    run_until(service, lambda: again in service.finished)
    assert log_records(exec_spool)[-1]["kind"] == "Terminated"


def test_a_wrapper_that_ends_before_its_pid_is_read_is_reaped(exec_spool, monkeypatch):
    real_select = executor_module.select.select

    def slow_select(*args):
        time.sleep(0.5)  # the wrapper ends meanwhile: its pid and its exit arrive in one read
        return real_select(*args)

    monkeypatch.setattr(executor_module, "select", SimpleNamespace(select=slow_select))
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=["/bin/true"]))
    service.commit(handle)
    run_until(service, lambda: handle in service.finished, timeout=5)
    assert log_records(exec_spool)[-1]["kind"] == "Terminated"


def test_no_zygote_outlives_the_stack(spool):
    with Stack(spool.root, fake_cpu_seconds=0.5) as stack:
        with GatewayClient.from_addr(stack.address, user="alice") as client:
            job = client.call("submit", jdl='[ Executable = "/bin/true"; ]')["job"]
            assert wait_state(client, job)["state"] == "DONE_OK"
        zygote = stack.executor._zygote.proc.pid
        assert alive(zygote)
    assert stack.executor._zygote is None
    assert not os.path.exists(f"/proc/{zygote}")  # exited and reaped


# -- only live attempts are kept -----------------------------------------------------


def run_through_queue(service: ExecutorService, *descs: SubmissionDescriptor) -> None:
    for desc in descs:
        service.queue.enqueue({"type": "run", "descriptor": desc.as_dict()})
    run_until(service, lambda: service.queue.pending_count() == 0 and not service.jobs, timeout=30)


def test_finished_attempts_leave_no_state(exec_spool):
    service = make_service(exec_spool)
    descs = [descriptor(exec_spool, job=f"job-{i}", command=["/bin/true"]) for i in range(4)]
    run_through_queue(service, *descs)
    assert service.jobs == {}
    assert os.listdir(exec_spool.executor_staged) == []
    assert os.listdir(exec_spool.run_root) == []
    assert service.finished == {d.idem_key for d in descs}
    assert [r["kind"] for r in log_records(exec_spool)].count("Terminated") == 4


def test_restart_absorbs_run_for_finished_attempt(exec_spool):
    service = make_service(exec_spool)
    desc = descriptor(exec_spool, command=["/bin/true"])
    handle = service.stage(desc)
    staged = (exec_spool.executor_staged / f"{handle}.json").read_text()
    service.commit(handle)
    run_until(service, lambda: handle not in service.jobs)
    # a crash between the terminal record and the cleanup leaves both behind
    (exec_spool.executor_staged / f"{handle}.json").write_text(staged)
    exec_spool.run_dir(handle).mkdir()
    again = make_service(exec_spool)
    assert again.jobs == {}
    assert os.listdir(exec_spool.executor_staged) == [] and os.listdir(exec_spool.run_root) == []
    assert again.recover() == 0
    again.queue.enqueue({"type": "run", "descriptor": desc.as_dict()})
    run_until(again, lambda: again.queue.pending_count() == 0)
    for _ in range(5):
        again.tick()
    kinds = [r["kind"] for r in log_records(exec_spool)]
    assert kinds.count("Executing") == 1 and kinds.count("Terminated") == 1
    assert again.jobs == {}


def test_the_zygote_replies_once_the_wrapper_has_its_group_and_pid_file(exec_spool, tmp_path):
    zygote = executor_module.Zygote()
    plan = descriptor(exec_spool, command=["/bin/sleep", "60"]).plan.as_dict()
    try:
        for i in range(10):
            run_dir = tmp_path / f"run-{i}"
            run_dir.mkdir()
            (run_dir / "plan.json").write_text(json.dumps(plan))
            proc = zygote.spawn(run_dir, run_dir / "plan.json", {})
            try:
                assert int((run_dir / "wrapper.pid").read_text()) == proc.pid
                assert os.getpgid(proc.pid) == proc.pid
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # no group yet: the wrapper has started nothing
                    os.kill(proc.pid, signal.SIGKILL)
    finally:
        zygote.close()


def test_the_zygote_refuses_a_wrapper_whose_pid_file_it_cannot_write(tmp_path):
    zygote = executor_module.Zygote()
    try:
        with pytest.raises(OSError, match="wrapper.pid not written"):
            zygote.spawn(tmp_path / "missing", tmp_path / "missing" / "plan.json", {})
        assert zygote.alive
    finally:
        zygote.close()


def test_restart_aborts_attempt_whose_run_dir_exists_without_executing_record(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=["/bin/sleep", "60"]))
    service.commit(handle)
    real_append = service.job_log.append

    def crash_before_executing(handle, job_id, kind, data=None):
        if kind == "Executing":
            raise RuntimeError("executor died after the spawn")
        real_append(handle, job_id, kind, data)

    service.job_log.append = crash_before_executing
    with pytest.raises(RuntimeError):
        run_until(service, lambda: False)
    proc = service.procs[handle]
    assert proc.poll() is None  # the wrapper is running, unrecorded
    replacement = make_service(exec_spool)
    assert replacement.jobs[handle].started
    assert replacement.recover() == 1
    deadline = time.monotonic() + 5
    while proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.02)
    assert proc.poll() is not None  # the wrapper was killed
    for _ in range(5):
        replacement.tick()
    kinds = [r["kind"] for r in log_records(exec_spool) if r["handle"] == handle]
    assert kinds == ["Staged", "Committed", "Aborted"]
    assert replacement.jobs == {} and os.listdir(exec_spool.run_root) == []


def test_restart_cancel_of_finished_handle_is_already_terminal(exec_spool):
    service = make_service(exec_spool)
    handle = service.stage(descriptor(exec_spool, command=["/bin/true"]))
    service.commit(handle)
    run_until(service, lambda: handle not in service.jobs)
    again = make_service(exec_spool)
    with pytest.raises(AlreadyTerminalError):
        again.cancel(handle)
    again.commit(handle)  # idempotent on a finished attempt
    assert [r["kind"] for r in log_records(exec_spool)].count("Committed") == 1


def test_handles_never_repeat_across_restarts(exec_spool):
    first = descriptor(exec_spool, job="job-1", command=["/bin/true"])
    run_through_queue(make_service(exec_spool), first)
    run_through_queue(make_service(exec_spool), first, descriptor(exec_spool, job="job-2", command=["/bin/true"]))
    run_through_queue(make_service(exec_spool), descriptor(exec_spool, job="job-1", attempt=2, command=["/bin/true"]))
    staged = [r for r in log_records(exec_spool) if r["kind"] == "Staged"]
    handles = [r["handle"] for r in staged]
    assert len(handles) == len(set(handles)) == 3
    assert [(r["jobId"], r["data"]["attempt"]) for r in staged] == [("job-1", 1), ("job-2", 1), ("job-1", 2)]


def test_heartbeat_publishes_free_slots(exec_spool):
    service = make_service(exec_spool)
    service.heartbeat()
    live = exec_spool.resources_live / "CE1.ad"
    assert live.exists()
    assert "FreeCPUs = 2" in live.read_text()


def test_a_heartbeat_that_changes_nothing_only_touches_the_ad(exec_spool, monkeypatch):
    service = make_service(exec_spool)
    service.heartbeat()
    live = exec_spool.resources_live / "CE1.ad"
    before, text = live.stat(), live.read_text()
    calls = []
    monkeypatch.setattr(os, "fsync", lambda fd, real=os.fsync: calls.append("fsync") or real(fd))
    monkeypatch.setattr(os, "rename", lambda *a, real=os.rename: calls.append("rename") or real(*a))
    time.sleep(0.05)  # past a coarse timestamp tick
    service.heartbeat()
    assert calls == []
    after = live.stat()
    assert after.st_mtime_ns > before.st_mtime_ns
    assert (after.st_ino, live.read_text()) == (before.st_ino, text)


def test_a_heartbeat_rewrites_an_ad_whose_free_cpus_changed_or_that_is_missing(exec_spool):
    service = make_service(exec_spool)
    service.heartbeat()
    live = exec_spool.resources_live / "CE1.ad"
    service.ces["CE1"].running.add("h-1")
    service.heartbeat()
    assert "FreeCPUs = 1" in live.read_text()
    live.unlink()
    service.heartbeat()
    assert "FreeCPUs = 1" in live.read_text()


def test_idle_heartbeat_is_accepted_when_slots_exceed_total_cpus(spool, caplog):
    service = make_service(spool)  # default fixture: CE2 has Slots 3, TotalCPUs 2
    service.heartbeat()
    registry = ResourceRegistry(static_dir=spool.resources_static, live_dir=spool.resources_live)
    with caplog.at_level(logging.WARNING, logger="gridwms.broker"):
        resources = registry.snapshot()
    assert not caplog.records
    live = spool.resources_live / "CE2.ad"
    assert resources["CE2"].last_update_ms == live.stat().st_mtime_ns // 1_000_000
    assert attr_value(resources["CE2"].ad, "freecpus") == Integer(2)


# -- log monitor -----------------------------------------------------------------


def lb_with_job(spool: SpoolLayout, job="job-1") -> BookkeepingStore:
    store = BookkeepingStore(spool.lb_root)
    store.log_event(Event(job=job, source="Gateway", sseq=1, ts=1000, kind="Registered",
                          payload={"jdl": "[ ]", "owner": "alice"}))
    return store


def append_line(path, line: str) -> None:
    fd, size = open_locked(path, create=True)
    try:
        append_locked(fd, size, line)
    finally:
        os.close(fd)


def append_log(spool: SpoolLayout, kind: str, job="job-1", handle="h-1", ts=None, **data):
    record = {"ts": ts or 5000, "handle": handle, "jobId": job, "kind": kind, "data": data}
    append_line(spool.executor_log, json.dumps(record))


def test_descriptor_for_an_unknown_ce_aborts_its_job(exec_spool):
    store = lb_with_job(exec_spool)
    store.log_event(Event("job-1", "WM", 1, 2000, "Matched", {"destination": "CE9"}))
    assert store.job_record("job-1").state == JobState.READY
    service = make_service(exec_spool)
    item = {"type": "run", "descriptor": descriptor(exec_spool, ce="CE9").as_dict()}
    service.queue.enqueue(item)
    service.tick()
    LogMonitor(exec_spool).tick()
    record = BookkeepingStore(exec_spool.lb_root).job_record("job-1")
    assert record.state == JobState.ABORTED
    assert record.destination == "CE9"
    assert "unknown CE" in next(e for e in record.events if e.kind == "Aborted").payload["reason"]
    service.queue.enqueue(item)  # a re-delivery is absorbed
    service.tick()
    assert [r["kind"] for r in read_json_lines(exec_spool.executor_log)] == ["Aborted"]
    assert service.queue.pending_count() == 0


def test_tail_translates_kinds(exec_spool):
    store = lb_with_job(exec_spool)
    append_log(exec_spool, "Staged", ts=1)
    append_log(exec_spool, "Committed", ts=2, ceId="CE1")
    append_log(exec_spool, "Executing", ts=3, ceId="CE1")
    append_log(exec_spool, "Terminated", ts=4, exitCode=0, cpuSeconds=1.5, ceId="CE1")
    count = tail_and_translate(exec_spool.executor_log, exec_spool.executor_log_offset, store)
    assert count == 3  # Staged is not a state event
    record = store.job_record("job-1")
    assert record.state == JobState.DONE_OK
    assert record.destination == "CE1"
    offset = int(exec_spool.executor_log_offset.read_text())
    assert offset == exec_spool.executor_log.stat().st_size


def test_tail_resend_after_crash_is_idempotent(exec_spool):
    store = lb_with_job(exec_spool)
    append_log(exec_spool, "Committed", ts=2, ceId="CE1")
    append_log(exec_spool, "Executing", ts=3, ceId="CE1")
    tail_and_translate(exec_spool.executor_log, exec_spool.executor_log_offset, store)
    before = store.job_record("job-1")
    # crash after forwarding, before the offset persisted: replay everything
    exec_spool.executor_log_offset.unlink()
    count = tail_and_translate(exec_spool.executor_log, exec_spool.executor_log_offset, store)
    assert count == 2  # re-sent, absorbed as duplicates
    after = store.job_record("job-1")
    assert (after.state, after.attempt) == (before.state, before.attempt)
    assert len(after.events) == len(before.events)


def test_tail_skips_truncated_final_line(exec_spool):
    store = lb_with_job(exec_spool)
    append_log(exec_spool, "Committed", ts=2, ceId="CE1")
    with open(exec_spool.executor_log, "ab") as fh:
        fh.write(b'{"ts": 3, "handle": "h-1", "jobId": "job-1", "kind": "Exec')  # no newline
    assert tail_and_translate(exec_spool.executor_log, exec_spool.executor_log_offset, store) == 1
    offset = int(exec_spool.executor_log_offset.read_text())
    # the partial record stays unconsumed
    with open(exec_spool.executor_log, "rb") as fh:
        fh.seek(offset)
        assert fh.read().startswith(b'{"ts": 3')
    # completing the line lets the next pass pick it up
    with open(exec_spool.executor_log, "ab") as fh:
        fh.write(b'uting", "data": {"ceId": "CE1"}}\n')
    assert tail_and_translate(exec_spool.executor_log, exec_spool.executor_log_offset, store) == 1
    assert store.job_record("job-1").state == JobState.RUNNING


def test_tail_skips_corrupt_record_with_diagnostic(exec_spool, caplog):
    store = lb_with_job(exec_spool)
    append_line(exec_spool.executor_log, "{ this is not json")
    append_log(exec_spool, "Executing", ts=3, ceId="CE1")
    import logging
    with caplog.at_level(logging.WARNING, logger="gridwms.logmonitor"):
        count = tail_and_translate(exec_spool.executor_log, exec_spool.executor_log_offset, store)
    assert count == 1
    assert any("corrupt" in rec.message for rec in caplog.records)


def test_monitor_restartable_with_no_divergence(exec_spool):
    store = lb_with_job(exec_spool)
    kinds = [("Committed", {}), ("Executing", {"ceId": "CE1"}),
             ("Terminated", {"exitCode": 1, "ceId": "CE1"})]
    for i, (kind, data) in enumerate(kinds):
        append_log(exec_spool, kind, ts=10 + i, **data)
    monitor = LogMonitor(exec_spool)
    monitor.tick()
    baseline = monitor.store.job_record("job-1")
    # fresh monitor, offset wiped: full replay
    exec_spool.executor_log_offset.unlink()
    LogMonitor(exec_spool).tick()
    replayed = BookkeepingStore(exec_spool.lb_root).job_record("job-1")
    assert (replayed.state, replayed.attempt) == (baseline.state, baseline.attempt)
    assert len(replayed.events) == len(baseline.events)
    assert replayed.state == JobState.DONE_FAILED


# -- the idle wait -----------------------------------------------------------------


def test_a_freed_slot_is_refilled_without_waiting_out_the_idle_poll(exec_spool, tmp_path, monkeypatch):
    one_slot = tmp_path / "one-slot"
    write_resource(one_slot, "CE1", Status="Production", FreeCPUs=1, TotalCPUs=1, Slots=1,
                   OwnerGroup="g", PricePerCpuSecond=1)
    service = make_service(exec_spool, resources_dir=one_slot)
    for i in range(3):
        desc = descriptor(exec_spool, job=f"job-{i}", command=["/bin/true"])
        service.queue.enqueue({"type": "run", "descriptor": desc.as_dict()})
    monkeypatch.setattr(executor_module, "IDLE_POLL", 2.0)
    stop = threading.Event()
    thread = threading.Thread(target=service.run_forever, args=(stop,))
    started = time.monotonic()
    thread.start()
    try:
        while sum(r["kind"] == "Terminated" for r in log_records(exec_spool)) < 3:
            assert time.monotonic() - started < 2.0, "each job waited out a poll before its slot was refilled"
            time.sleep(0.01)
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert [r["data"]["exitCode"] for r in log_records(exec_spool) if r["kind"] == "Terminated"] == [0, 0, 0]
