"""Workload manager: helper chain, adaptation, partitioning, DAG engine,
resubmission, recovery scans."""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from collections import Counter

import pytest

from gridwms import aggregate
from gridwms import bookkeeping as bookkeeping_module
from gridwms import broker as broker_module
from gridwms import jdl as jdl_module
from gridwms import manager as manager_module
from gridwms.accounting import Ledger
from gridwms.bookkeeping import BookkeepingStore, Event, JobState, NoSuchStateError, Query, QueryPredicate
from gridwms.executor import ExecutorService
from gridwms.filequeue import ACK, FileQueue
from gridwms.gateway import GatewayCore, GatewayServer
from gridwms.jdl import ValidationError, validate_job
from gridwms.layout import SpoolLayout
from gridwms.logmonitor import LogMonitor
from gridwms.manager import MAX_ATTEMPTS, MissingSandboxFileError, WorkloadManager
from gridwms.partition import merge_pairs, partition_job, step_ranges
from gridwms.submission import SubmissionDescriptor
from gridwms.util import now_ms

from conftest import default_fixture, write_accounts, write_resource


@pytest.fixture
def wm_spool(tmp_path) -> SpoolLayout:
    layout = SpoolLayout(tmp_path / "spool").ensure()
    write_resource(layout.root / "resources", "CE1", Status="Production", FreeCPUs=4,
                   TotalCPUs=4, Slots=2, CloseSEs=["SE1"], OwnerGroup="physics",
                   PricePerCpuSecond=2)
    write_resource(layout.root / "resources", "CE2", Status="Production", FreeCPUs=2,
                   TotalCPUs=2, Slots=2, CloseSEs=[], OwnerGroup="physics",
                   PricePerCpuSecond=1)
    write_resource(layout.root / "resources", "SE1", rtype="SE", AvailableSpace=1000)
    return layout


@pytest.fixture
def manager(wm_spool) -> WorkloadManager:
    return WorkloadManager(wm_spool, match_retries=1, stuck_after=5.0)


def register(manager: WorkloadManager, job: str, jdl: str, owner="alice"):
    manager.lb.log_event(Event(job, "Gateway", 1, now_ms(), "Registered",
                               {"jdl": jdl, "owner": owner}))
    manager.lb.log_event(Event(job, "Gateway", 2, now_ms(), "Accepted", {}))


def drain(manager: WorkloadManager, rounds: int = 10):
    for _ in range(rounds):
        manager.process_requests()
        manager.run_scans()


# -- partitioning ------------------------------------------------------------------


def test_step_ranges_examples():
    assert step_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert step_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert step_ranges(10, 1) == [(0, 10)]
    with pytest.raises(ValidationError):
        step_ranges(3, 5)


def test_step_ranges_exhaustive_partition_correctness():
    for job_steps in range(1, 65):
        for sub_jobs in range(1, job_steps + 1):
            ranges = step_ranges(job_steps, sub_jobs)
            assert len(ranges) == sub_jobs
            covered = []
            for first, last in ranges:
                assert first < last
                covered.extend(range(first, last))
            assert covered == list(range(job_steps))  # disjoint union of [0, jobSteps)
            sizes = {last - first for first, last in ranges}
            assert max(sizes) - min(sizes) <= 1


def test_partition_job_builds_dag_with_aggregator():
    jd = validate_job(
        '[ Executable = "/bin/prog"; JobType = "Partitionable"; JobSteps = 10; SubJobs = 3; ]'
    )
    dag = partition_job(jd)
    assert list(dag.nodes) == ["n0", "n1", "n2", "aggregator"]
    assert dag.aggregator_node == "aggregator"
    assert sorted(dag.dependencies) == [("n0", "aggregator"), ("n1", "aggregator"), ("n2", "aggregator")]
    for i, (first, last) in enumerate([(0, 4), (4, 7), (7, 10)]):
        node = dag.nodes[f"n{i}"]
        assert node.job_type == "Checkpointable"
        assert (node.step_first, node.step_last) == (first, last)


def test_partition_degenerate_single_subjob():
    jd = validate_job(
        '[ Executable = "/bin/prog"; JobType = "Partitionable"; JobSteps = 10; SubJobs = 1; ]'
    )
    dag = partition_job(jd)
    assert list(dag.nodes) == ["n0", "aggregator"]
    assert (dag.nodes["n0"].step_first, dag.nodes["n0"].step_last) == (0, 10)


def test_merge_pairs_namespaces_deterministically():
    merged = merge_pairs({"n1": [("sum", "15")], "n0": [("sum", "6"), ("step", "3")]})
    assert merged == [("n0.step", "3"), ("n0.sum", "6"), ("n1.sum", "15")]


@pytest.fixture
def gateway(wm_spool, monkeypatch):
    """A gateway over the spool, named by WMS_GATEWAY, with alice as the user."""
    server = GatewayServer(GatewayCore(wm_spool), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    monkeypatch.setenv("WMS_GATEWAY", "%s:%d" % server.address)
    monkeypatch.setenv("WMS_USER", "alice")
    yield server
    server.shutdown()
    server.server_close()


def test_aggregate_merges_only_complete_subjobs(wm_spool, gateway, monkeypatch, capsys):
    store = BookkeepingStore(wm_spool.lb_root)
    for job in ("d.n0", "d.n1", "d.aggregator"):
        store.log_event(Event(job, "WM", 16, now_ms(), "Registered", {"jdl": "[ ]", "owner": "alice"}))
    store.log_event(Event("d.n0", "LogMonitor", 1, now_ms(), "Done", {"exitCode": "0"}))
    store.save_state("d.n0", [("sum", "6")])
    monkeypatch.setenv("WMS_JOB_ID", "d.aggregator")
    monkeypatch.setenv("WMS_AGGREGATE", "n0=d.n0,n1=d.n1")
    assert aggregate.main() == 1
    assert "sub-job n1 is SUBMITTED" in capsys.readouterr().err
    store.log_event(Event("d.n1", "LogMonitor", 1, now_ms(), "Done", {"exitCode": "0"}))
    assert aggregate.main() == 1
    assert "a sub-job saved no state" in capsys.readouterr().err
    with pytest.raises(NoSuchStateError):
        store.get_state("d.aggregator")  # nothing merged while a sub-job is incomplete
    store.save_state("d.n1", [("sum", "15")])
    assert aggregate.main() == 0
    assert store.get_state("d.aggregator") == [("n0.sum", "6"), ("n1.sum", "15")]


# -- job adaptation -------------------------------------------------------------------


def test_adapter_normal_job_plan(manager, wm_spool):
    resolved = manager.broker.resolve(validate_job('[ Executable = "/bin/echo"; Arguments = "a b"; ]'))
    desc = manager.adapter.resolve(resolved, job_id="j1", attempt=1, owner="alice")
    assert desc.submit_to == "CE1"
    assert desc.plan.command == ["/bin/echo", "a", "b"]
    assert desc.plan.checkpoint_pairs is None
    assert "WMS_CHECKPOINT_IN" not in desc.plan.env
    assert desc.plan.env["WMS_JOB_ID"] == "j1"
    # the final JDL re-validates (helper chain purity)
    assert validate_job(desc.final_jdl).submit_to == "CE1"


def test_adapter_interactive_env(manager):
    resolved = manager.broker.resolve(validate_job(
        '[ Executable = "/bin/cat"; JobType = "Interactive"; '
        'ListenerHost = "127.0.0.1"; ListenerPort = 45001; ]'
    ))
    desc = manager.adapter.resolve(resolved, job_id="j2", attempt=1, owner="alice")
    assert desc.plan.env["WMS_LISTENER_HOST"] == "127.0.0.1"
    assert desc.plan.env["WMS_LISTENER_PORT"] == "45001"
    assert desc.plan.listener == ["127.0.0.1", 45001]


def test_adapter_step_bounds_env(manager):
    resolved = manager.broker.resolve(validate_job(
        '[ Executable = "/x"; JobType = "Checkpointable"; JobSteps = 3; '
        "StepFirst = 4; StepLast = 7; ]"
    ))
    desc = manager.adapter.resolve(resolved, job_id="j3", attempt=1, owner="alice")
    assert desc.plan.env["WMS_STEP_FIRST"] == "4"
    assert desc.plan.env["WMS_STEP_LAST"] == "7"


def test_adapter_missing_sandbox_file(manager):
    resolved = manager.broker.resolve(validate_job('[ Executable = "prog"; InputSandbox = {"prog"}; ]'))
    with pytest.raises(MissingSandboxFileError):
        manager.adapter.resolve(resolved, job_id="j4", attempt=1, owner="alice")


def test_adapter_checkpoint_pairs_round_trip_through_store(manager):
    register(manager, "j5", '[ Executable = "/x"; ]')
    manager.lb.save_state("j5", [("step", "3"), ("sum", "6")])
    pairs = manager.lb.get_state("j5")
    resolved = manager.broker.resolve(validate_job('[ Executable = "/x"; ]'))
    desc = manager.adapter.resolve(resolved, job_id="j5", attempt=2, owner="alice",
                                   checkpoint_pairs=pairs)
    assert desc.plan.checkpoint_pairs == [["step", "3"], ["sum", "6"]]


# -- submit pipeline ------------------------------------------------------------------


def test_submit_reaches_executor_queue(manager):
    register(manager, "j10", '[ Executable = "/bin/true"; ]')
    manager.requests.enqueue({"kind": "submit", "job": "j10", "owner": "alice",
                              "jdl": '[ Executable = "/bin/true"; ]'})
    manager.process_requests()
    record = manager.lb.job_record("j10")
    kinds = [e.kind for e in record.events]
    assert "Matched" in kinds and "Staged" in kinds
    # the default Rank reads FreeCPUs as capacity minus claims: 2 on CE1
    # and on CE2, and the tie goes to the lowest Id
    assert record.destination == "CE1"
    items = list(manager.executor_queue.iter_items())
    assert len(items) == 1
    descriptor = SubmissionDescriptor.from_dict(json.loads(items[0][2])["descriptor"])
    assert descriptor.job_id == "j10"
    assert descriptor.attempt == 1


def test_submit_gangmatched_job_carries_chosen_se(manager):
    jdl = ('[ Executable = "/bin/true"; '
           "Requirements = se.AvailableSpace >= 500 && ce.FreeCPUs > 0; Rank = ce.FreeCPUs; ]")
    register(manager, "j-gang", jdl)
    manager.requests.enqueue({"kind": "submit", "job": "j-gang", "owner": "alice", "jdl": jdl})
    manager.process_requests()
    record = manager.lb.job_record("j-gang")
    matched = next(e for e in record.events if e.kind == "Matched")
    assert matched.payload["destination"] == "CE1"  # the only CE close to SE1
    assert matched.payload["se"] == "SE1"
    items = list(manager.executor_queue.iter_items())
    descriptor = SubmissionDescriptor.from_dict(json.loads(items[-1][2])["descriptor"])
    resolved = validate_job(descriptor.final_jdl)
    assert resolved.submit_to == "CE1"
    assert resolved.chosen_se == "SE1"


def test_submit_unmatchable_aborts_with_reason(manager):
    register(manager, "j11", '[ Executable = "/x"; Requirements = false; ]')
    manager.requests.enqueue({"kind": "submit", "job": "j11", "owner": "alice",
                              "jdl": '[ Executable = "/x"; Requirements = false; ]'})
    manager.process_requests()
    record = manager.lb.job_record("j11")
    assert record.state == JobState.ABORTED
    aborted = [e for e in record.events if e.kind == "Aborted"]
    assert aborted and aborted[0].payload["reason"] == "no matching resources"


def test_malformed_request_dead_letters_with_refused(manager):
    register(manager, "j12", "[ this is not jdl")
    manager.requests.enqueue({"kind": "submit", "job": "j12"})
    for _ in range(MAX_ATTEMPTS + 1):
        manager.process_requests()
    assert manager.requests.pending_count() == 0
    dead = list(manager.spool.dead_letter.iterdir())
    assert len(dead) == 1
    record = manager.lb.job_record("j12")
    assert record.state == JobState.ABORTED  # Refused maps to ABORTED
    assert any(e.kind == "Refused" for e in record.events)


def test_dead_letter_is_durable_before_the_request_is_acked(manager, monkeypatch):
    register(manager, "j-dl", "[ this is not jdl")
    manager.requests.enqueue({"kind": "submit", "job": "j-dl"})
    for _ in range(MAX_ATTEMPTS - 1):
        manager.handle_request(manager.requests.claim(manager.owner))  # nacked
    item = manager.requests.claim(manager.owner)
    ops = []
    fsync, rename, unlink = os.fsync, os.rename, os.unlink

    def recorded(op, fn, path_of):
        def wrapper(*args, **kwargs):
            ops.append((op, *path_of(*args)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(os, op, wrapper)

    recorded("fsync", fsync, lambda fd: (os.readlink(f"/proc/self/fd/{fd}"),))
    recorded("rename", rename, lambda src, dst: (os.path.realpath(src), os.path.realpath(dst)))
    recorded("unlink", unlink, lambda path: (os.path.realpath(path),))
    manager.handle_request(item)  # dead-lettered and acked
    monkeypatch.undo()
    [dead] = manager.spool.dead_letter.iterdir()
    dead = os.path.realpath(dead)
    acked = [i for i, op in enumerate(ops) if op[0] == "unlink" and ".claimed." in op[1]]
    placed = [i for i, op in enumerate(ops) if op[0] == "rename" and op[2] == dead]
    assert len(acked) == 1 and len(placed) == 1
    tmp = ops[placed[0]][1]
    assert ("fsync", tmp) in ops[: placed[0]]  # the record's bytes, then its name,
    assert ("fsync", os.path.dirname(dead)) in ops[placed[0] : acked[0]]  # before the ack
    with open(dead, "rb") as fh:
        assert json.loads(fh.read())["job"] == "j-dl"


def test_submit_to_a_storage_element_is_refused_not_retried(wm_spool):
    core = GatewayCore(wm_spool)
    manager = WorkloadManager(wm_spool, match_retries=1, stuck_after=0.0)
    executor = ExecutorService(wm_spool, fake_cpu_seconds=0.1)
    monitor = LogMonitor(wm_spool)
    job = core.dispatch("submit", "alice", {"jdl": '[ Executable = "/bin/true"; SubmitTo = "SE1"; ]'})["job"]
    for _ in range(2 * MAX_ATTEMPTS):
        manager.process_requests()
        executor.tick()
        monitor.tick()
        manager.run_scans()
    record = manager.lb.job_record(job)
    kinds = [e.kind for e in record.events]
    assert record.state == JobState.ABORTED
    assert kinds.count("Refused") == 1
    assert "Matched" not in kinds and "Staged" not in kinds
    assert len(list(wm_spool.dead_letter.iterdir())) == 1
    assert manager.requests.pending_count() == 0


def test_cancel_pre_executor_job(manager):
    register(manager, "j13", '[ Executable = "/x"; ]')
    manager.requests.enqueue({"kind": "cancel", "job": "j13", "owner": "alice"})
    manager.process_requests()
    assert manager.lb.job_record("j13").state == JobState.CANCELLED


def test_abort_scan_resubmits_excluding_failed_ce(manager):
    register(manager, "j14", '[ Executable = "/x"; RetryCount = 1; ]')
    manager.requests.enqueue({"kind": "submit", "job": "j14", "owner": "alice",
                              "jdl": '[ Executable = "/x"; RetryCount = 1; ]'})
    manager.process_requests()
    assert manager.lb.job_record("j14").destination == "CE1"
    # the executor reports the attempt lost
    manager.lb.log_event(Event("j14", "LogMonitor", 1, now_ms(), "Aborted",
                               {"reason": "worker lost", "destination": "CE1"}))
    assert manager.lb.job_record("j14").state == JobState.ABORTED
    assert manager.abort_scan(manager.lb.records()) == 1
    manager.process_requests()
    record = manager.lb.job_record("j14")
    assert record.attempt == 2
    assert record.destination == "CE2"  # CE1 excluded for this attempt
    # the scan does not resubmit twice
    assert manager.abort_scan(manager.lb.records()) == 0


def test_resubmit_lost_in_a_crash_still_excludes_the_failed_ce(wm_spool, monkeypatch):
    manager = WorkloadManager(wm_spool, match_retries=1)
    register(manager, "j-lost", '[ Executable = "/x"; RetryCount = 1; ]')
    manager.requests.enqueue({"kind": "submit", "job": "j-lost"})
    manager.process_requests()
    assert manager.lb.job_record("j-lost").destination == "CE1"
    taken = manager.executor_queue.claim("executor")  # the executor ran attempt 1
    manager.executor_queue.settle(taken.seq, ACK)
    manager.lb.log_event(Event("j-lost", "LogMonitor", 1, now_ms(), "Aborted",
                               {"reason": "worker lost", "destination": "CE1"}))

    class Killed(Exception):
        pass

    def killed(payload):
        raise Killed  # the manager dies after Resubmitted, before its request lands

    monkeypatch.setattr(manager.requests, "enqueue", killed)
    with pytest.raises(Killed):
        manager.abort_scan(manager.lb.records())
    assert manager.lb.job_record("j-lost").attempt == 2
    manager = WorkloadManager(wm_spool, match_retries=1)
    manager.recover()  # re-drives the orphaned attempt
    manager.process_requests()
    record = manager.lb.job_record("j-lost")
    assert (record.attempt, record.destination) == (2, "CE2")


def test_abort_scan_respects_budget(manager):
    register(manager, "j15", '[ Executable = "/x"; ]')  # retryCount defaults to 0
    manager.lb.log_event(Event("j15", "LogMonitor", 1, now_ms(), "Aborted", {"reason": "x"}))
    assert manager.abort_scan(manager.lb.records()) == 0
    assert manager.lb.job_record("j15").state == JobState.ABORTED


def test_resubmit_from_state_carries_pairs(manager):
    register(manager, "j16", '[ Executable = "/x"; ]')
    manager.lb.save_state("j16", [("step", "2")])
    manager.lb.save_state("j16", [("step", "5")])
    manager.requests.enqueue({"kind": "resubmit_from_state", "job": "j16", "owner": "alice",
                              "state_seq": 1})
    manager.process_requests()
    items = list(manager.executor_queue.iter_items())
    descriptor = SubmissionDescriptor.from_dict(json.loads(items[-1][2])["descriptor"])
    assert descriptor.plan.checkpoint_pairs == [["step", "2"]]
    assert descriptor.attempt == 2
    assert manager.lb.job_record("j16").attempt == 2


@pytest.fixture
def three_ces(tmp_path) -> WorkloadManager:
    """CE1, CE2 and CE3 with 3, 3 and 2 slots; their ads publish 4, 2 and 7 FreeCPUs."""
    layout = SpoolLayout(tmp_path / "spool").ensure()
    default_fixture(layout.root)
    return WorkloadManager(layout, match_retries=1)


def test_requests_in_a_row_fill_the_ces_by_their_slots(three_ces, monkeypatch):
    manager = three_ces
    for i in range(8):
        register(manager, f"j{i}", '[ Executable = "/x"; ]')
        manager.requests.enqueue({"kind": "submit", "job": f"j{i}"})
    snapshots = counted(monkeypatch, manager.registry, "snapshot")
    assert manager.process_requests() == 8
    assert len(snapshots) == 1  # the batch shares one
    placed = Counter(manager.lb.job_record(f"j{i}").destination for i in range(8))
    assert placed == {"CE1": 3, "CE2": 3, "CE3": 2}
    assert manager.claims == placed
    manager.run_scans()  # the scan pass counts the same claims from the records
    assert manager.claims == placed


def test_claims_end_with_their_attempts_and_never_refuse_a_match(three_ces):
    manager = three_ces
    for i in range(9):
        register(manager, f"j{i}", '[ Executable = "/x"; Requirements = other.FreeCPUs > 0; ]')
        manager.requests.enqueue({"kind": "submit", "job": f"j{i}"})
    drain(manager, rounds=2)
    # the ninth is matched on a full CE: Requirements read the published ad
    assert {manager.lb.job_record(f"j{i}").state for i in range(9)} == {JobState.READY}
    assert sum(manager.claims.values()) == 9
    for i in range(9):
        manager.lb.log_event(Event(f"j{i}", "WM", 5, now_ms(), "Cancelled", {}))
    manager.run_scans()
    assert manager.claims == {}


def test_a_redelivered_resubmit_request_opens_one_attempt(manager, monkeypatch):
    register(manager, "j16b", '[ Executable = "/x"; ]')
    real_resolve = manager.broker.resolve
    calls = []

    def resolve_failing_once(job, batch=None, claims=None):
        calls.append(job)
        if len(calls) == 1:
            raise ValidationError([])
        return real_resolve(job, batch, claims)

    monkeypatch.setattr(manager.broker, "resolve", resolve_failing_once)
    manager.requests.enqueue({"kind": "resubmit_from_state", "job": "j16b"})
    manager.process_requests()  # nacked once, then delivered again and staged
    assert len(calls) == 2
    record = manager.lb.job_record("j16b")
    assert record.attempt == 2
    assert [ev.kind for ev in record.events].count("Resubmitted") == 1
    items = list(manager.executor_queue.iter_items())
    assert SubmissionDescriptor.from_dict(json.loads(items[-1][2])["descriptor"]).attempt == 2


def test_stuck_scan_requeues_orphaned_jobs(manager):
    register(manager, "j17", '[ Executable = "/x"; ]')
    # nobody enqueued a request (a crashed gateway): stuck scan re-drives
    assert manager.stuck_scan(manager.lb.records(), min_age_ms=0) == 1
    assert manager.stuck_scan(manager.lb.records(), min_age_ms=0) == 0  # now pending, not stuck
    manager.process_requests()
    assert manager.lb.job_record("j17").state == JobState.READY


def test_scans_and_query_skip_a_job_with_no_event_yet(manager):
    register(manager, "job-1", '[ Executable = "/bin/true"; ]')
    # the gateway creates a job's events file just before it writes the
    # Registered line; a scan listing the jobs in between sees it empty
    empty = manager.lb._events_path("job-2")
    empty.parent.mkdir(parents=True, exist_ok=True)
    empty.touch()
    manager.run_scans()
    assert manager.lb.query(Query((QueryPredicate("owner", ("alice",)),))) == ["job-1"]
    assert [record.job for record in manager.lb.records()] == ["job-1"]


def test_startup_leaves_a_job_registered_since_the_manager_started_to_the_gateway(manager):
    time.sleep(0.002)  # the job's events are younger than the manager
    register(manager, "j-new", '[ Executable = "/x"; ]')  # the gateway's appends, before its enqueue
    manager.recover()
    assert manager.requests.pending_count() == 0
    manager.requests.enqueue({"kind": "submit", "job": "j-new"})  # the gateway's enqueue
    drain(manager, rounds=2)
    assert [ev.kind for ev in manager.lb.job_record("j-new").events].count("Matched") == 1


def test_recover_drives_everything_found(manager):
    register(manager, "j18", '[ Executable = "/x"; ]')
    manager = WorkloadManager(manager.spool, match_retries=1)  # a restart finds j18 orphaned
    manager.recover()
    manager.process_requests()
    assert manager.lb.job_record("j18").state == JobState.READY


def counted(monkeypatch, obj, name: str) -> list:
    """Record the first argument of every call to `obj.name`."""
    calls = []
    original = getattr(obj, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, wrapper)
    return calls


def finished(manager: WorkloadManager, job: str, destination: str):
    register(manager, job, '[ Executable = "/bin/true"; ]')
    manager.lb.log_event(Event(job, "LogMonitor", 1, now_ms(), "Done",
                               {"exitCode": "0", "cpuSeconds": "3", "destination": destination}))


def test_scan_pass_lists_the_store_once(manager, monkeypatch):
    register(manager, "dag7", '[ Type = "DAG"; Nodes = [ A = [ Executable = "/bin/true"; ]; '
                              'B = [ Executable = "/bin/true"; ]; ]; Dependencies = { {"A", "B"} }; ]')
    manager.run_scans()  # submits node A
    node_done(manager, "dag7.a")
    register(manager, "j-new", '[ Executable = "/x"; ]')
    register(manager, "j-aborted", '[ Executable = "/x"; RetryCount = 1; ]')
    manager.lb.log_event(Event("j-aborted", "LogMonitor", 1, now_ms(), "Aborted", {"reason": "x"}))
    finished(manager, "j-done", "CE1")
    expected = Counter(manager.lb.list_jobs())
    expected["dag7.a"] += 1  # dag_scan looks up the DAG's node
    list_calls = counted(monkeypatch, manager.lb, "list_jobs")
    record_calls = counted(monkeypatch, manager.lb, "job_record")
    manager.run_scans()
    assert len(list_calls) == 1
    assert Counter(record_calls) == expected
    # and each scan still acted on the one listing
    assert manager.lb.job_record("j-aborted").attempt == 2
    assert manager.ledger.has_charge("j-done", 1)
    assert manager.lb.job_record("dag7").user_tags.get("node:b") == "dag7.b"


def test_charge_scan_takes_one_snapshot_per_pass(manager, monkeypatch):
    jobs = [f"j-fin{i}" for i in range(3)]
    for i, job in enumerate(jobs):
        finished(manager, job, ("CE1", "CE2")[i % 2])
    snapshots = counted(monkeypatch, manager.registry, "snapshot")
    manager.run_scans()
    assert len(snapshots) == 1
    assert all(manager.ledger.has_charge(job, 1) for job in jobs)
    manager.run_scans()  # nothing left to charge: no snapshot at all
    assert len(snapshots) == 1


def test_pass_over_charged_jobs_does_not_read_the_ledger(manager, monkeypatch):
    jobs = [f"j-paid{i}" for i in range(4)]
    for job in jobs:
        finished(manager, job, "CE1")
    manager.run_scans()
    assert all(manager.ledger.has_charge(job, 1) for job in jobs)
    refreshes = counted(monkeypatch, manager.ledger, "_refresh")
    manager.run_scans()
    assert refreshes == []
    assert len(manager.ledger.entries()) == len(jobs)


def test_a_pass_charges_in_one_ledger_call_and_a_torn_batch_is_charged_again_once(wm_spool, monkeypatch):
    write_accounts(wm_spool.root, {"alice": ("User", 1000), "physics": ("Group", 0)})
    manager = WorkloadManager(wm_spool, match_retries=1, stuck_after=5.0)
    jobs = [f"j-torn{i}" for i in range(3)]
    for i, job in enumerate(jobs):
        finished(manager, job, ("CE1", "CE2")[i % 2])
    batches = counted(monkeypatch, manager.ledger, "charge_jobs")
    manager.run_scans()
    assert [len(batch) for batch in batches] == [3]
    # a crash tore the batch's last line; the manager starts again
    data = wm_spool.ledger_file.read_bytes()
    wm_spool.ledger_file.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 10])
    restarted = WorkloadManager(wm_spool, match_retries=1, stuck_after=5.0)
    assert sum(restarted.ledger.has_charge(job, 1) for job in jobs) == 2
    restarted.run_scans()
    restarted.run_scans()
    entries = restarted.ledger.entries()
    assert sorted(e.job_id for e in entries) == jobs  # each charged exactly once
    assert restarted.ledger.total() == 1000
    assert Ledger(wm_spool.ledger_file, wm_spool.accounts_file).accounts() == restarted.ledger.accounts()


def test_scans_forget_the_dag_of_finished_jobs(manager):
    jobs = [f"j-plain{i}" for i in range(50)]
    for job in jobs:
        register(manager, job, '[ Executable = "/bin/true"; ]')
    manager.run_scans()
    assert len(manager._dag_cache) == len(jobs)  # each live job is looked at
    for job in jobs:
        manager.lb.log_event(Event(job, "LogMonitor", 1, now_ms(), "Done",
                                   {"exitCode": "0", "destination": "CE1"}))
    manager.run_scans()
    assert manager._dag_cache == {}


def test_settled_jobs_leave_the_scans_and_the_cache(manager, monkeypatch):
    charged = [f"j-paid{i}" for i in range(20)]
    for job in charged:
        finished(manager, job, "CE1")
    register(manager, "j-failed", '[ Executable = "/x"; ]')  # RetryCount 0: no retry left
    manager.lb.log_event(Event("j-failed", "LogMonitor", 1, now_ms(), "Aborted", {"reason": "x"}))
    register(manager, "j-cancelled", '[ Executable = "/x"; ]')
    manager.lb.log_event(Event("j-cancelled", "WM", 1, now_ms(), "Cancelled", {}))
    register(manager, "j-live", '[ Executable = "/x"; ]')
    settled = [*charged, "j-failed", "j-cancelled"]
    manager.run_scans()
    assert all(manager.ledger.has_charge(job, 1) for job in charged)
    record_calls = counted(monkeypatch, manager.lb, "job_record")
    manager.run_scans()
    assert record_calls == ["j-live"]
    assert list(manager.lb._cache) == ["j-live"]
    # the store still answers for them
    owned = manager.lb.query(Query((QueryPredicate("owner", ("alice",)),)))
    assert owned == sorted([*settled, "j-live"])
    assert manager.lb.job_record("j-failed").state == JobState.ABORTED


def test_an_event_on_a_settled_job_brings_it_back_into_the_pass(manager, monkeypatch):
    finished(manager, "j-back", "CE1")
    manager.run_scans()
    assert [record.job for record in manager.lb.records()] == []
    # another process opens a new attempt (`wms resubmit` through a gateway)
    BookkeepingStore(manager.lb.root).log_event(
        Event("j-back", "WM", 10_000_001, now_ms(), "Resubmitted", {"reason": "explicit resubmit"}))
    record_calls = counted(monkeypatch, manager.lb, "job_record")
    manager.run_scans()
    assert record_calls == ["j-back"]
    assert [(r.job, r.state, r.attempt) for r in manager.lb.records()] == [("j-back", JobState.WAITING, 2)]
    assert manager.lb.query(Query((QueryPredicate("state", ("WAITING",)),))) == ["j-back"]


def test_requests_name_only_their_job(wm_spool, monkeypatch):
    core = GatewayCore(wm_spool)
    manager = WorkloadManager(wm_spool, match_retries=1)
    from_gateway = counted(monkeypatch, core.requests, "enqueue")
    from_manager = counted(monkeypatch, manager.requests, "enqueue")
    job = core.dispatch("submit", "alice", {"jdl": '[ Executable = "/bin/true"; RetryCount = 2; ]'})["job"]
    dag = core.dispatch("submit-dag", "alice", {"jdl": DAG_JDL})["job"]
    held = core.dispatch("submit", "alice", {"jdl": '[ Executable = "/bin/cat"; Arguments = "in.bin"; '
                                                    'InputSandbox = {"in.bin"}; ]'})["job"]
    assert upload(core, held, "in.bin")["released"]
    core.dispatch("save-state", "alice", {"job": job, "pairs": [["step", "1"]]})
    core.dispatch("resubmit", "alice", {"job": job, "from_state": 1})
    core.dispatch("cancel", "alice", {"job": held})
    drain(manager, rounds=3)  # submits the DAG's node A
    manager.lb.log_event(Event(job, "LogMonitor", 1, now_ms(), "Aborted", {"reason": "x", "destination": "CE1"}))
    assert manager.abort_scan(manager.lb.records()) == 1
    register(manager, "j-orphan", '[ Executable = "/bin/true"; ]')
    assert manager.stuck_scan(manager.lb.records(), min_age_ms=0) == 1
    assert [(r["kind"], r["job"]) for r in from_gateway] == [
        ("submit", job), ("submit_dag", dag), ("submit", held), ("resubmit_from_state", job), ("cancel", held),
    ]
    assert [(r["kind"], r["job"]) for r in from_manager] == [
        ("submit", f"{dag}.a"), ("submit", job), ("submit", "j-orphan"),
    ]
    for request in from_gateway + from_manager:
        extra = {"state_seq"} if request["kind"] == "resubmit_from_state" else set()
        assert set(request) == {"kind", "job"} | extra


def validate_calls(monkeypatch) -> list:
    """Record every validate_job call made by the manager or the broker."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return jdl_module.validate_job(*args, **kwargs)

    for module in (manager_module, broker_module):
        monkeypatch.setattr(module, "validate_job", wrapper, raising=False)
    return calls


@pytest.mark.parametrize("jdl", [
    '[ Executable = "/bin/true"; ]',
    '[ Executable = "/bin/true"; Requirements = se.AvailableSpace >= 500 && ce.FreeCPUs > 0; ]',
], ids=["plain", "gang"])
def test_submit_request_parses_once_and_reads_the_registry_once(manager, monkeypatch, jdl):
    register(manager, "j-once", jdl)
    manager.requests.enqueue({"kind": "submit", "job": "j-once", "owner": "alice", "jdl": jdl})
    item = manager.requests.claim(manager.owner)
    snapshots = counted(monkeypatch, manager.registry, "snapshot")
    parses = validate_calls(monkeypatch)
    manager.handle_request(item)
    assert len(snapshots) == 1
    assert parses == [jdl]
    assert manager.lb.job_record("j-once").state == JobState.READY
    assert manager.executor_queue.pending_count() == 1


def test_charge_scan_leaves_unpriced_and_undestined_jobs_uncharged(manager, wm_spool):
    write_resource(wm_spool.root / "resources", "CE3", Status="Production", FreeCPUs=1,
                   TotalCPUs=1, CloseSEs=[])  # no PricePerCpuSecond, no OwnerGroup
    finished(manager, "j-free", "CE3")
    finished(manager, "j-priced", "CE1")
    register(manager, "dag8", '[ Type = "DAG"; Nodes = [ A = [ Executable = "/bin/true"; ]; ]; ]')
    manager.lb.log_event(Event("dag8", "WM", 10, now_ms(), "Done", {"exitCode": "0"}))
    for _ in range(2):
        manager.run_scans()
    assert manager.lb.job_record("dag8").state == JobState.DONE_OK
    assert not manager.ledger.has_charge("j-free", 1)
    assert not manager.ledger.has_charge("dag8", 1)
    assert [e.job_id for e in manager.ledger.entries()] == ["j-priced"]


def upload(core: GatewayCore, job: str, name: str, data: bytes = b"x") -> dict:
    return core.dispatch("sandbox-put", "alice", {"job": job, "name": name, "seq": 1, "eof": True,
                                                  "data": base64.b64encode(data).decode("ascii")})


HELD_JDL = '[ Executable = "/bin/cat"; Arguments = "in.bin"; InputSandbox = {"in.bin"}; ]'


def test_a_repeated_final_upload_releases_the_held_job_once(wm_spool, monkeypatch):
    core = GatewayCore(wm_spool)
    job = core.dispatch("submit", "alice", {"jdl": HELD_JDL})["job"]
    monkeypatch.setattr(core.requests, "iter_items", lambda: pytest.fail("a release read the request queue"))
    assert upload(core, job, "in.bin")["released"]
    assert not upload(core, job, "in.bin")["released"]
    assert FileQueue(wm_spool.wm_requests).pending_count() == 1
    assert [ev.kind for ev in core.lb.events_of(job)].count("Released") == 1


def test_a_release_lost_between_its_event_and_its_enqueue_is_re_driven(wm_spool, monkeypatch):
    core = GatewayCore(wm_spool)
    manager = WorkloadManager(wm_spool, match_retries=1)
    job = core.dispatch("submit", "alice", {"jdl": HELD_JDL})["job"]

    class Killed(Exception):
        pass

    def killed(payload):
        raise Killed  # the gateway dies after the Released append, before its enqueue

    monkeypatch.setattr(core.requests, "enqueue", killed)
    with pytest.raises(Killed):
        upload(core, job, "in.bin")
    core = GatewayCore(wm_spool)
    assert not upload(core, job, "in.bin")["released"]  # released already: no second enqueue
    assert FileQueue(wm_spool.wm_requests).pending_count() == 0
    assert manager.stuck_scan(manager.lb.records(), min_age_ms=0) == 1
    manager.process_requests()
    assert manager.lb.job_record(job).state == JobState.READY


def test_stuck_scan_leaves_job_held_for_its_sandbox(wm_spool):
    core = GatewayCore(wm_spool)
    manager = WorkloadManager(wm_spool, match_retries=1)
    body = core.dispatch("submit", "alice", {"jdl": '[ Executable = "/bin/cat"; Arguments = "in.bin"; '
                                                     'InputSandbox = {"in.bin"}; ]'})
    job = body["job"]
    assert body["held_for_sandbox"]
    requeued = manager.stuck_scan(manager.lb.records(), min_age_ms=0)  # what recover() runs at manager start
    for _ in range(3):
        manager.process_requests()
    assert manager.lb.job_record(job).state == JobState.WAITING
    assert requeued == 0
    assert not list(wm_spool.dead_letter.iterdir())
    assert upload(core, job, "in.bin")["released"]
    manager.process_requests()
    assert manager.lb.job_record(job).state == JobState.READY
    assert manager.executor_queue.pending_count() == 1


def test_dag_scan_leaves_dag_held_for_its_sandbox(wm_spool):
    core = GatewayCore(wm_spool)
    manager = WorkloadManager(wm_spool, match_retries=1)
    dag = ('[ Type = "DAG"; Nodes = [ A = [ Executable = "/bin/cat"; Arguments = "in.bin"; '
           'InputSandbox = {"in.bin"}; ]; ]; ]')
    job = core.dispatch("submit-dag", "alice", {"jdl": dag})["job"]
    for _ in range(3):
        manager.run_scans()
        manager.process_requests()
    record = manager.lb.job_record(job)
    assert record.state == JobState.WAITING
    assert "node:a" not in record.user_tags
    assert upload(core, job, "a/in.bin")["released"]
    manager.process_requests()
    manager.run_scans()
    manager.process_requests()
    assert manager.lb.job_record(f"{job}.a").state == JobState.READY


# -- DAG engine --------------------------------------------------------------------


DAG_JDL = (
    '[ Type = "DAG"; Nodes = [ '
    'A = [ Executable = "/bin/true"; ]; '
    'B = [ Executable = "/bin/true"; ]; '
    'C = [ Executable = "/bin/true"; ]; '
    'D = [ Executable = "/bin/true"; ]; ]; '
    'Dependencies = { {"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"} }; ]'
)


def node_done(manager, node_id, exit_code="0"):
    manager.lb.log_event(Event(node_id, "LogMonitor", 99, now_ms(), "Done",
                               {"exitCode": exit_code, "destination": "CE1"}))


def test_dag_submits_only_free_nodes(manager):
    register(manager, "dag1", DAG_JDL)
    manager.dag_scan(manager.lb.records())
    record = manager.lb.job_record("dag1")
    assert record.user_tags.get("node:a") == "dag1.a"
    assert "node:b" not in record.user_tags  # B waits for A
    manager.process_requests()
    assert manager.lb.job_record("dag1.a").state == JobState.READY


def test_dag_diamond_runs_d_last(manager):
    register(manager, "dag2", DAG_JDL)
    manager.dag_scan(manager.lb.records())
    node_done(manager, "dag2.a")
    manager.dag_scan(manager.lb.records())
    record = manager.lb.job_record("dag2")
    assert {"node:b", "node:c"} <= set(record.user_tags)
    assert "node:d" not in record.user_tags
    node_done(manager, "dag2.b")
    manager.dag_scan(manager.lb.records())
    assert "node:d" not in manager.lb.job_record("dag2").user_tags  # C not done yet
    node_done(manager, "dag2.c")
    manager.dag_scan(manager.lb.records())
    assert manager.lb.job_record("dag2").user_tags.get("node:d") == "dag2.d"
    node_done(manager, "dag2.d")
    manager.dag_scan(manager.lb.records())
    final = manager.lb.job_record("dag2")
    assert final.state == JobState.DONE_OK


def test_dag_failed_node_makes_descendants_unreachable(manager):
    register(manager, "dag3", DAG_JDL)
    manager.dag_scan(manager.lb.records())
    node_done(manager, "dag3.a")
    manager.dag_scan(manager.lb.records())
    node_done(manager, "dag3.b", exit_code="1")  # B fails
    node_done(manager, "dag3.c")
    manager.dag_scan(manager.lb.records())
    record = manager.lb.job_record("dag3")
    assert "node:d" not in record.user_tags  # never submitted
    assert record.state == JobState.DONE_FAILED
    done_event = [e for e in record.events if e.kind == "Done"][0]
    summary = json.loads(done_event.payload["nodes"])
    assert summary == {"A": "Done", "B": "Failed", "C": "Done", "D": "Unreachable"}


def test_dag_scan_resubmits_node_whose_registration_was_cut(manager):
    register(manager, "dag6", '[ Type = "DAG"; Nodes = [ A = [ Executable = "/bin/true"; ]; ]; ]')
    # a crash after the node's tag and after its events file was created,
    # before its Registered line landed
    manager.lb.log_event(Event("dag6", "WM", 64, now_ms(), "UserTag",
                               {"name": "node:a", "value": "dag6.a"}))
    empty = manager.lb._events_path("dag6.a")
    empty.parent.mkdir(parents=True, exist_ok=True)
    empty.touch()
    manager.run_scans()
    manager.process_requests()
    assert manager.lb.job_record("dag6.a").state == JobState.READY


def test_dag_lazy_binding_sees_registry_changes(manager, wm_spool):
    register(manager, "dag4", '[ Type = "DAG"; Nodes = [ A = [ Executable = "/bin/true"; ]; '
                              'B = [ Executable = "/bin/true"; ]; ]; Dependencies = { {"A", "B"} }; ]')
    manager.dag_scan(manager.lb.records())
    manager.process_requests()
    assert manager.lb.job_record("dag4.a").destination == "CE1"
    # the registry changes between A and B submissions
    write_resource(wm_spool.root / "resources", "CE1", Status="Draining", FreeCPUs=4,
                   TotalCPUs=4, OwnerGroup="physics", PricePerCpuSecond=2)
    node_done(manager, "dag4.a")
    manager.dag_scan(manager.lb.records())
    manager.process_requests()
    assert manager.lb.job_record("dag4.b").destination == "CE2"  # matched on the new snapshot


def test_a_dag_node_registers_in_one_append(manager, monkeypatch):
    register(manager, "dag7", '[ Type = "DAG"; Nodes = [ A = [ Executable = "/bin/true"; '
                              'UserTags = [ lane = "l1"; run = "r1" ]; ]; ]; ]')
    appends: Counter = Counter()
    real_append = bookkeeping_module.append_locked

    def counted(fd, size, text):
        appends[json.loads(text.split("\n")[0])["job"]] += 1
        return real_append(fd, size, text)

    monkeypatch.setattr(bookkeeping_module, "append_locked", counted)
    manager.dag_scan(manager.lb.records())
    assert appends["dag7.a"] == 1
    record = manager.lb.job_record("dag7.a")
    assert [e.kind for e in record.events] == ["Registered", "Accepted"] + ["UserTag"] * 4
    assert record.user_tags == {"dag": "dag7", "node": "a", "lane": "l1", "run": "r1"}


def test_dag_aggregator_env_mapping(manager):
    register(manager, "dag5", '[ Type = "DAG"; Nodes = [ '
                              'N0 = [ Executable = "/bin/true"; ]; '
                              'N1 = [ Executable = "/bin/true"; ]; '
                              'Agg = [ Executable = "/bin/true"; ]; ]; '
                              'Dependencies = { {"N0", "Agg"}, {"N1", "Agg"} }; '
                              'Aggregator = "Agg"; ]')
    manager.dag_scan(manager.lb.records())
    node_done(manager, "dag5.n0")
    node_done(manager, "dag5.n1")
    manager.dag_scan(manager.lb.records())
    manager.process_requests()
    items = list(manager.executor_queue.iter_items())
    agg_items = [json.loads(p) for _s, _st, p in items
                 if json.loads(p).get("descriptor", {}).get("job") == "dag5.agg"]
    assert agg_items
    env = agg_items[0]["descriptor"]["plan"]["env"]
    assert env["WMS_AGGREGATE"] == "n0=dag5.n0,n1=dag5.n1"


def test_partitionable_submit_becomes_dag(manager):
    jdl = '[ Executable = "/bin/true"; JobType = "Partitionable"; JobSteps = 4; SubJobs = 2; ]'
    register(manager, "part1", jdl)
    manager.requests.enqueue({"kind": "submit", "job": "part1", "owner": "alice", "jdl": jdl})
    manager.process_requests()
    manager.dag_scan(manager.lb.records())
    record = manager.lb.job_record("part1")
    assert record.user_tags.get("node:n0") == "part1.n0"
    assert record.user_tags.get("node:n1") == "part1.n1"
    assert "node:aggregator" not in record.user_tags  # waits for sub-jobs
