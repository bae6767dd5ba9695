"""Workload manager: helper chain, adaptation, partitioning, DAG engine,
resubmission, recovery scans."""

from __future__ import annotations

import base64
import json

import pytest

from gridwms.bookkeeping import BookkeepingStore, Event, JobState
from gridwms.gateway import GatewayCore
from gridwms.jdl import ValidationError, validate_job
from gridwms.layout import SpoolLayout
from gridwms.manager import MissingSandboxFileError, WorkloadManager
from gridwms.partition import (
    SubJobIncompleteError,
    merge_pairs,
    merge_states,
    partition_job,
    step_ranges,
)
from gridwms.submission import SubmissionDescriptor
from gridwms.util import now_ms

from conftest import write_resource


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


def test_merge_states_requires_complete_subjobs(wm_spool):
    store = BookkeepingStore(wm_spool.lb_root)
    for job, done in (("d.n0", True), ("d.n1", False)):
        store.log_event(Event(job, "WM", 16, now_ms(), "Registered", {"jdl": "[ ]", "owner": "a"}))
        store.log_event(Event(job, "WM", 19, now_ms(), "UserTag",
                              {"name": "node", "value": job.split(".")[1]}))
        if done:
            store.log_event(Event(job, "LogMonitor", 1, now_ms(), "Done", {"exitCode": "0"}))
            store.save_state(job, [("sum", "6")])
    with pytest.raises(SubJobIncompleteError) as err:
        merge_states(store, ["d.n0", "d.n1"])
    assert "n1" in str(err.value)
    store.log_event(Event("d.n1", "LogMonitor", 1, now_ms(), "Done", {"exitCode": "0"}))
    with pytest.raises(SubJobIncompleteError) as err:
        merge_states(store, ["d.n0", "d.n1"])
    assert "no saved state" in str(err.value)
    store.save_state("d.n1", [("sum", "15")])
    assert merge_states(store, ["d.n0", "d.n1"]) == [("n0.sum", "6"), ("n1.sum", "15")]


# -- job adaptation -------------------------------------------------------------------


def test_adapter_normal_job_plan(manager, wm_spool):
    resolved = manager.broker.resolve('[ Executable = "/bin/echo"; Arguments = "a b"; ]')
    desc = manager.adapter.resolve(resolved, job_id="j1", attempt=1, owner="alice")
    assert desc.submit_to == "CE1"
    assert desc.plan.command == ["/bin/echo", "a", "b"]
    assert desc.plan.checkpoint_pairs is None
    assert "WMS_CHECKPOINT_IN" not in desc.plan.env
    assert desc.plan.env["WMS_JOB_ID"] == "j1"
    # the final JDL re-validates (helper chain purity)
    assert validate_job(desc.final_jdl).submit_to == "CE1"


def test_adapter_interactive_env(manager):
    resolved = manager.broker.resolve(
        '[ Executable = "/bin/cat"; JobType = "Interactive"; '
        'ListenerHost = "127.0.0.1"; ListenerPort = 45001; ]'
    )
    desc = manager.adapter.resolve(resolved, job_id="j2", attempt=1, owner="alice")
    assert desc.plan.env["WMS_LISTENER_HOST"] == "127.0.0.1"
    assert desc.plan.env["WMS_LISTENER_PORT"] == "45001"
    assert desc.plan.listener == ["127.0.0.1", 45001]


def test_adapter_step_bounds_env(manager):
    resolved = manager.broker.resolve(
        '[ Executable = "/x"; JobType = "Checkpointable"; JobSteps = 3; '
        "StepFirst = 4; StepLast = 7; ]"
    )
    desc = manager.adapter.resolve(resolved, job_id="j3", attempt=1, owner="alice")
    assert desc.plan.env["WMS_STEP_FIRST"] == "4"
    assert desc.plan.env["WMS_STEP_LAST"] == "7"


def test_adapter_missing_sandbox_file(manager):
    resolved = manager.broker.resolve('[ Executable = "prog"; InputSandbox = {"prog"}; ]')
    with pytest.raises(MissingSandboxFileError):
        manager.adapter.resolve(resolved, job_id="j4", attempt=1, owner="alice")


def test_adapter_checkpoint_pairs_round_trip_through_store(manager):
    register(manager, "j5", '[ Executable = "/x"; ]')
    manager.lb.save_state("j5", [("step", "3"), ("sum", "6")])
    pairs = manager.lb.get_state("j5")
    resolved = manager.broker.resolve('[ Executable = "/x"; ]')
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
    assert record.destination == "CE1"  # highest FreeCPUs wins the default rank
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
    register(manager, "j12", '[ Executable = "/x"; ]')
    manager.requests.enqueue({"kind": "submit", "job": "j12", "owner": "alice",
                              "jdl": "[ this is not jdl"})
    for _ in range(manager.max_attempts + 1):
        manager.process_requests()
    assert manager.requests.pending_count() == 0
    dead = list(manager.spool.dead_letter.iterdir())
    assert len(dead) == 1
    record = manager.lb.job_record("j12")
    assert record.state == JobState.ABORTED  # Refused maps to ABORTED
    assert any(e.kind == "Refused" for e in record.events)


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
    assert manager.abort_scan() == 1
    manager.process_requests()
    record = manager.lb.job_record("j14")
    assert record.attempt == 2
    assert record.destination == "CE2"  # CE1 excluded for this attempt
    # the scan does not resubmit twice
    assert manager.abort_scan() == 0


def test_abort_scan_respects_budget(manager):
    register(manager, "j15", '[ Executable = "/x"; ]')  # retryCount defaults to 0
    manager.lb.log_event(Event("j15", "LogMonitor", 1, now_ms(), "Aborted", {"reason": "x"}))
    assert manager.abort_scan() == 0
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


def test_stuck_scan_requeues_orphaned_jobs(manager):
    register(manager, "j17", '[ Executable = "/x"; ]')
    # nobody enqueued a request (a crashed gateway): stuck scan re-drives
    assert manager.stuck_scan(min_age_ms=0) == 1
    assert manager.stuck_scan(min_age_ms=0) == 0  # now pending, not stuck
    manager.process_requests()
    assert manager.lb.job_record("j17").state == JobState.READY


def test_recover_drives_everything_found(manager):
    register(manager, "j18", '[ Executable = "/x"; ]')
    manager.recover()
    manager.process_requests()
    assert manager.lb.job_record("j18").state == JobState.READY


def upload(core: GatewayCore, job: str, name: str, data: bytes = b"x") -> dict:
    return core.dispatch("sandbox-put", "alice", {"job": job, "name": name, "seq": 1, "eof": True,
                                                  "data": base64.b64encode(data).decode("ascii")})


def test_stuck_scan_leaves_job_held_for_its_sandbox(wm_spool):
    core = GatewayCore(wm_spool)
    manager = WorkloadManager(wm_spool, match_retries=1)
    body = core.dispatch("submit", "alice", {"jdl": '[ Executable = "/bin/cat"; Arguments = "in.bin"; '
                                                     'InputSandbox = {"in.bin"}; ]'})
    job = body["job"]
    assert body["held_for_sandbox"]
    requeued = manager.stuck_scan(min_age_ms=0)  # what recover() runs at manager start
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
    manager.dag_scan()
    record = manager.lb.job_record("dag1")
    assert record.user_tags.get("node:a") == "dag1.a"
    assert "node:b" not in record.user_tags  # B waits for A
    manager.process_requests()
    assert manager.lb.job_record("dag1.a").state == JobState.READY


def test_dag_diamond_runs_d_last(manager):
    register(manager, "dag2", DAG_JDL)
    manager.dag_scan()
    node_done(manager, "dag2.a")
    manager.dag_scan()
    record = manager.lb.job_record("dag2")
    assert {"node:b", "node:c"} <= set(record.user_tags)
    assert "node:d" not in record.user_tags
    node_done(manager, "dag2.b")
    manager.dag_scan()
    assert "node:d" not in manager.lb.job_record("dag2").user_tags  # C not done yet
    node_done(manager, "dag2.c")
    manager.dag_scan()
    assert manager.lb.job_record("dag2").user_tags.get("node:d") == "dag2.d"
    node_done(manager, "dag2.d")
    manager.dag_scan()
    final = manager.lb.job_record("dag2")
    assert final.state == JobState.DONE_OK


def test_dag_failed_node_makes_descendants_unreachable(manager):
    register(manager, "dag3", DAG_JDL)
    manager.dag_scan()
    node_done(manager, "dag3.a")
    manager.dag_scan()
    node_done(manager, "dag3.b", exit_code="1")  # B fails
    node_done(manager, "dag3.c")
    manager.dag_scan()
    record = manager.lb.job_record("dag3")
    assert "node:d" not in record.user_tags  # never submitted
    assert record.state == JobState.DONE_FAILED
    done_event = [e for e in record.events if e.kind == "Done"][0]
    summary = json.loads(done_event.payload["nodes"])
    assert summary == {"A": "Done", "B": "Failed", "C": "Done", "D": "Unreachable"}


def test_dag_lazy_binding_sees_registry_changes(manager, wm_spool):
    register(manager, "dag4", '[ Type = "DAG"; Nodes = [ A = [ Executable = "/bin/true"; ]; '
                              'B = [ Executable = "/bin/true"; ]; ]; Dependencies = { {"A", "B"} }; ]')
    manager.dag_scan()
    manager.process_requests()
    assert manager.lb.job_record("dag4.a").destination == "CE1"
    # the registry changes between A and B submissions
    write_resource(wm_spool.root / "resources", "CE1", Status="Draining", FreeCPUs=4,
                   TotalCPUs=4, OwnerGroup="physics", PricePerCpuSecond=2)
    node_done(manager, "dag4.a")
    manager.dag_scan()
    manager.process_requests()
    assert manager.lb.job_record("dag4.b").destination == "CE2"  # matched on the new snapshot


def test_dag_aggregator_env_mapping(manager):
    register(manager, "dag5", '[ Type = "DAG"; Nodes = [ '
                              'N0 = [ Executable = "/bin/true"; ]; '
                              'N1 = [ Executable = "/bin/true"; ]; '
                              'Agg = [ Executable = "/bin/true"; ]; ]; '
                              'Dependencies = { {"N0", "Agg"}, {"N1", "Agg"} }; '
                              'Aggregator = "Agg"; ]')
    manager.dag_scan()
    node_done(manager, "dag5.n0")
    node_done(manager, "dag5.n1")
    manager.dag_scan()
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
    manager.dag_scan()
    record = manager.lb.job_record("part1")
    assert record.user_tags.get("node:n0") == "part1.n0"
    assert record.user_tags.get("node:n1") == "part1.n1"
    assert "node:aggregator" not in record.user_tags  # waits for sub-jobs
