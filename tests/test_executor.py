"""Executor: two-phase staging, simulated CEs, job log, log monitor."""

from __future__ import annotations

import json
import os
import time

import pytest

from gridwms.bookkeeping import BookkeepingStore, Event, JobState
from gridwms.executor import (
    AlreadyTerminalError,
    ExecutorService,
    InvalidDescriptorError,
    UnknownHandleError,
)
from gridwms.layout import SpoolLayout
from gridwms.logmonitor import LogMonitor, tail_and_translate
from gridwms.submission import SubmissionDescriptor, WrapperPlan
from gridwms.util import append_line

from conftest import write_resource


@pytest.fixture
def exec_spool(tmp_path) -> SpoolLayout:
    layout = SpoolLayout(tmp_path / "spool").ensure()
    write_resource(layout.root / "resources", "CE1", Status="Production", FreeCPUs=2,
                   TotalCPUs=2, Slots=2, OwnerGroup="g", PricePerCpuSecond=1)
    return layout


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


# -- log monitor -----------------------------------------------------------------


def lb_with_job(spool: SpoolLayout, job="job-1") -> BookkeepingStore:
    store = BookkeepingStore(spool.lb_root)
    store.log_event(Event(job=job, source="Gateway", sseq=1, ts=1000, kind="Registered",
                          payload={"jdl": "[ ]", "owner": "alice"}))
    return store


def append_log(spool: SpoolLayout, kind: str, job="job-1", handle="h-1", ts=None, **data):
    record = {"ts": ts or 5000, "handle": handle, "jobId": job, "kind": kind, "data": data}
    append_line(spool.executor_log, json.dumps(record))


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
