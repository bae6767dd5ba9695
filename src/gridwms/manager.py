"""Workload manager: the core request-dispatch component.

Requests arrive on a filesystem queue from the gateway, and each one
only names a job: `{"kind": "submit"|"submit_dag"|"cancel", "job"}` or
`{"kind": "resubmit_from_state", "job", "state_seq"}`.  The job's JDL,
owner, environment and sandbox routing are read from its bookkeeping
record, whose Registered event holds them.  A submit runs the Helper
chain on the job description parsed once from that JDL -- the broker
resolves it to a resource choice against the registry snapshot of the
batch of requests, refusing a SubmitTo that names no known CE, then the
job adapter turns the resolved description into a submission descriptor
with a concrete wrapper plan -- and the descriptor is enqueued for the
executor.  The broker ranks CEs by the manager's claims: the attempts it
matched on each CE that have not ended, counted again by each scan pass
and raised by each match in between.  The CE
that an automatic resubmission excludes is named on the Resubmitted event
that opened the attempt, so a request re-driven after a crash excludes it
too.
Independent scan activities drive automatic resubmission with checkpoint
restart, DAG execution with lazy node binding, job partitioning,
accounting charges, and recovery of jobs orphaned by crashes.  All
coordination state lives in the bookkeeping store and the queues; the
manager itself can be killed at any boundary and rebuilt from those
alone.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shlex
import threading
import time
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

from .accounting import Charge, Ledger
from .bookkeeping import (
    TERMINAL_STATES,
    BookkeepingStore,
    Event,
    JobRecord,
    JobState,
)
from .broker import Broker, MatchBatch, NoMatchingResourcesError, ResourceEntry, ResourceRegistry
from .classad import Integer, ListExpr, Literal, Text, attr_value
from .errors import UnknownJobError, WmsError
from .faults import crash_point
from .filequeue import ACK, NACK, FileQueue, QueueItem
from .jdl import DagDescription, JobDescription, ValidationError, Violation
from .jdl import validate_dag, validate_description, validate_job
from .layout import SpoolLayout
from .partition import partition_job
from .submission import SubmissionDescriptor, WrapperPlan
from .util import atomic_write_bytes, now_ms

log = logging.getLogger("gridwms.manager")

MAX_ATTEMPTS = 3  # queue deliveries before dead-lettering
DEFAULT_MATCH_RETRIES = 3
RETRY_BACKOFF = 1.0  # s between match retries
DEFAULT_STUCK_AFTER = 30.0
SCAN_INTERVAL = 0.5  # s between scan passes
IDLE_POLL = 0.05  # s to wait when a tick handles no request
REQUEST_BATCH = 8  # requests handled per tick, matched on one registry snapshot

# stable per-(job, source=WM) sequence ranges so replays deduplicate
# exactly and distinct event classes never collide
_SSEQ_NODE_REGISTERED = 16
_SSEQ_NODE_ACCEPTED = 17
_SSEQ_NODE_TAG_DAG = 18  # then the node tag at 19 and user tags from 20
_SSEQ_DAG_FINAL = 10
_SSEQ_NODE_ASSIGN_BASE = 64  # + node index, on the dag job
_SSEQ_RESUBMIT_BASE = 1000  # + attempt being retired
_SSEQ_ITEM_BASE = 100000  # + item_seq * 8 + stage

_STAGE_MATCHED = 1
_STAGE_STAGED = 2
_STAGE_NO_MATCH = 3
_STAGE_CANCELLED = 4
_STAGE_REFUSED = 5

# an attempt in these states with a destination holds a claim on that CE
CLAIMING_STATES = frozenset({JobState.READY, JobState.SCHEDULED, JobState.RUNNING})


def count_claims(records: Iterable[JobRecord]) -> dict[str, int]:
    """CE Id -> the attempts matched there that have not ended."""
    claims: dict[str, int] = {}
    for record in records:
        if record.state in CLAIMING_STATES and record.destination:
            claims[record.destination] = claims.get(record.destination, 0) + 1
    return claims


class MissingSandboxFileError(WmsError):
    code = "MissingSandboxFile"


class JobAdapter:
    """Helper mapping a resolved job description to a submission descriptor.

    Final touches before execution: wrapper command line, environment,
    sandbox manifests with concrete source paths, stdio routing, and the
    checkpoint restore pairs for attempts that resume from a saved state.
    """

    def __init__(self, spool: SpoolLayout, gateway_addr: str | None = None):
        self.spool = spool
        self.gateway_addr = gateway_addr

    def resolve(
        self,
        jd: JobDescription,
        *,
        job_id: str,
        attempt: int = 1,
        owner: str = "",
        checkpoint_pairs: list[tuple[str, str]] | None = None,
        extra_env: dict[str, str] | None = None,
        sandbox_source: str | None = None,
        sandbox_prefix: str | None = None,
    ) -> SubmissionDescriptor:
        if not jd.submit_to:
            raise ValidationError([Violation("missing", "SubmitTo", "resolved JDL must carry SubmitTo")])

        env: dict[str, str] = {"WMS_JOB_ID": job_id, "WMS_USER": owner}
        if self.gateway_addr:
            env["WMS_GATEWAY"] = self.gateway_addr
        if jd.step_first is not None and jd.step_last is not None:
            env["WMS_STEP_FIRST"] = str(jd.step_first)
            env["WMS_STEP_LAST"] = str(jd.step_last)
        listener = None
        if jd.job_type == "Interactive" and jd.listener:
            env["WMS_LISTENER_HOST"] = jd.listener[0]
            env["WMS_LISTENER_PORT"] = str(jd.listener[1])
            listener = [jd.listener[0], jd.listener[1]]
        if extra_env:
            env.update(extra_env)

        inputs = []
        for name in jd.input_sandbox:
            source = self.spool.input_file(sandbox_source or job_id, name, sandbox_prefix)
            if source is None:
                raise MissingSandboxFileError(f"input sandbox file {name!r} not found in spool")
            inputs.append({"name": name, "source": str(source)})

        plan = WrapperPlan(
            command=[jd.executable] + shlex.split(jd.arguments),
            env=env,
            inputs=inputs,
            outputs=list(jd.output_sandbox),
            output_dir=str(self.spool.output_dir(job_id)),
            stdin=jd.std_input,
            stdout=jd.std_output,
            stderr=jd.std_error,
            checkpoint_pairs=[[k, v] for k, v in checkpoint_pairs] if checkpoint_pairs else None,
            listener=listener,
        )
        return SubmissionDescriptor(
            job_id=job_id,
            attempt=attempt,
            submit_to=jd.submit_to,
            final_jdl=jd.to_jdl(),
            plan=plan,
            owner=owner,
        )


class WorkloadManager:
    def __init__(
        self,
        spool: SpoolLayout,
        resources_dir: Path | str | None = None,
        gateway_addr: str | None = None,
        match_retries: int = DEFAULT_MATCH_RETRIES,
        stuck_after: float = DEFAULT_STUCK_AFTER,
        strategy: str = "best",
    ):
        self.spool = spool.ensure()
        self.lb = BookkeepingStore(spool.lb_root)
        self.requests = FileQueue(spool.wm_requests)
        self.executor_queue = FileQueue(spool.executor_submit)
        self.registry = ResourceRegistry(
            static_dir=Path(resources_dir) if resources_dir else spool.resources_static,
            live_dir=spool.resources_live,
        )
        self.broker = Broker(self.registry, default_strategy=strategy)
        self.adapter = JobAdapter(spool, gateway_addr)
        self.ledger = Ledger(spool.ledger_file, spool.accounts_file)
        self.owner = f"wm-{os.getpid()}"
        self.match_retries = match_retries
        self.stuck_after = stuck_after
        self._dag_cache: dict[str, DagDescription | None] = {}
        self._last_scan = 0.0
        self.claims: dict[str, int] = {}  # CE Id -> attempts matched there that have not ended
        self._started_ms = now_ms()

    # -- event helpers -----------------------------------------------------

    def _wm_event(self, job_id: str, sseq: int, kind: str, payload: dict[str, str] | None = None) -> bool:
        try:
            return self.lb.log_event(
                Event(job=job_id, source="WM", sseq=sseq, ts=now_ms(), kind=kind, payload=payload or {})
            )
        except UnknownJobError:
            log.warning("event %s for unknown job %s dropped", kind, job_id)
            return False

    @staticmethod
    def _item_sseq(item_seq: int, stage: int) -> int:
        return _SSEQ_ITEM_BASE + item_seq * 8 + stage

    # -- request handling -----------------------------------------------------

    def handle_request(self, item: QueueItem, batch: MatchBatch | None = None) -> None:
        """Process one queue item; settles it exactly once.  A submit
        matches on `batch`'s registry snapshot, or on one of its own.

        Malformed or unprocessable requests are nacked up to MAX_ATTEMPTS
        deliveries, then dead-lettered with a Refused event.
        """
        try:
            payload = item.json()
            kind = payload["kind"]
            if kind == "submit":
                self._handle_submit(payload, item.seq, batch)
            elif kind == "cancel":
                self._handle_cancel(payload, item.seq)
            elif kind == "resubmit_from_state":
                self._handle_resubmit(payload, item.seq, batch)
            elif kind == "submit_dag":
                self._handle_submit_dag(payload, item.seq)
            else:
                raise WmsError(f"unknown request kind {kind!r}")
        except (WmsError, KeyError, ValueError) as exc:
            if item.attempts >= MAX_ATTEMPTS:
                log.error("dead-lettering request %s after %d attempts: %s", item.seq, item.attempts, exc)
                self._dead_letter(item, str(exc))
                self.requests.settle(item.seq, ACK)
            else:
                log.warning("nacking request %s (attempt %d): %s", item.seq, item.attempts, exc)
                self.requests.settle(item.seq, NACK)
            return
        self.requests.settle(item.seq, ACK)
        crash_point("wm.after_settle")

    def _dead_letter(self, item: QueueItem, reason: str) -> None:
        atomic_write_bytes(self.spool.dead_letter / f"request-{item.seq:016d}.json", item.payload)
        try:
            job_id = item.json().get("job")
        except ValueError:
            job_id = None
        if job_id and self.lb.exists(job_id):
            self._wm_event(
                job_id, self._item_sseq(item.seq, _STAGE_REFUSED), "Refused", {"reason": reason}
            )

    def _registered_context(self, record: JobRecord) -> tuple[dict[str, str], str | None, str | None]:
        """The environment and sandbox routing that the Registered payload
        holds beside the JDL and owner (a DAG node's)."""
        registered = record.registered
        env = {}
        if registered.get("env"):
            try:
                env = {str(k): str(v) for k, v in json.loads(registered["env"]).items()}
            except ValueError:
                env = {}
        return env, registered.get("sandbox_source"), registered.get("sandbox_prefix")

    def _handle_submit(self, payload: dict, item_seq: int, batch: MatchBatch | None) -> None:
        record = self.lb.job_record(payload["job"])
        if record.state in TERMINAL_STATES:
            return
        jd = validate_job(record.jdl)
        if jd.job_type == "Partitionable":
            return  # decomposed and driven by the DAG engine; nothing to stage here
        # the Resubmitted event that opened this attempt names the CE it must avoid
        exclude = record.opened.get("exclude") if record.opened else None
        if exclude and exclude not in jd.excluded_ces:
            excluded = [*jd.excluded_ces, exclude]
            ad = jd.ad.with_attr("ExcludedCEs", ListExpr(tuple(Literal(Text(ce)) for ce in excluded)))
            jd = replace(jd, ad=ad, excluded_ces=excluded)
        self._run_pipeline(record, jd, item_seq, None, batch)

    def _handle_resubmit(self, payload: dict, item_seq: int, batch: MatchBatch | None) -> None:
        job_id = payload["job"]
        record = self.lb.job_record(job_id)
        if record.state == JobState.CLEARED:
            return
        state_seq = payload.get("state_seq")
        if state_seq is not None:
            state_seq = int(state_seq)
            self.lb.get_state(job_id, state_seq)  # fail fast on a bad seq
        # the Resubmitted event names its request, so a redelivery of the
        # request continues the attempt it opened instead of opening another
        if record.opened is None or record.opened.get("request") != str(item_seq):
            self._wm_event(
                job_id,
                _SSEQ_RESUBMIT_BASE + record.attempt,
                "Resubmitted",
                {"reason": "explicit resubmit", "request": str(item_seq)},
            )
            record = self.lb.job_record(job_id)
        self._run_pipeline(record, validate_job(record.jdl), item_seq, state_seq, batch)

    def _handle_cancel(self, payload: dict, item_seq: int) -> None:
        job_id = payload["job"]
        if not self.lb.exists(job_id):
            return
        record = self.lb.job_record(job_id)
        if record.state in TERMINAL_STATES:
            return
        dag = self._dag_for(job_id, record)
        if dag is not None:
            for name in dag.nodes:
                node_id = record.user_tags.get(f"node:{name.lower()}")
                if node_id and self.lb.exists(node_id):
                    node_record = self.lb.job_record(node_id)
                    if node_record.state not in TERMINAL_STATES:
                        self._cancel_single(node_id, node_record, item_seq)
        self._cancel_single(job_id, record, item_seq)

    def _cancel_single(self, job_id: str, record, item_seq: int) -> None:
        if record.state in (JobState.SUBMITTED, JobState.WAITING, JobState.READY):
            self._wm_event(job_id, self._item_sseq(item_seq, _STAGE_CANCELLED), "Cancelled", {})
        self.executor_queue.enqueue({"type": "cancel", "job": job_id})

    def _handle_submit_dag(self, payload: dict, item_seq: int) -> None:
        job_id = payload["job"]
        record = self.lb.job_record(job_id)
        if record.state in TERMINAL_STATES:
            return
        validate_dag(record.jdl)  # protocol re-check
        # node scheduling happens in the dag scan; the request only has to
        # be well-formed and acknowledged

    # -- the submit pipeline ------------------------------------------------

    def _run_pipeline(
        self, record: JobRecord, job: JobDescription, item_seq: int, state_seq: int | None, batch: MatchBatch | None
    ) -> None:
        job_id, attempt = record.job, record.attempt
        crash_point("wm.before_match")

        batch = batch or MatchBatch(self.broker.registry)
        resolved: JobDescription | None = None
        for i in range(self.match_retries):
            try:
                resolved = self.broker.resolve(job, batch, self.claims)
                break
            except NoMatchingResourcesError:
                if i + 1 < self.match_retries:
                    time.sleep(RETRY_BACKOFF)
                    batch.refresh()
        if resolved is None:
            self._wm_event(
                job_id,
                self._item_sseq(item_seq, _STAGE_NO_MATCH),
                "Aborted",
                {"reason": "no matching resources"},
            )
            return

        matched_payload = {"destination": resolved.submit_to}
        if resolved.chosen_se:
            matched_payload["se"] = resolved.chosen_se
        if self._wm_event(job_id, self._item_sseq(item_seq, _STAGE_MATCHED), "Matched", matched_payload):
            self.claims[resolved.submit_to] = self.claims.get(resolved.submit_to, 0) + 1
        crash_point("wm.after_match")

        pairs: list[tuple[str, str]] | None = None
        if state_seq is not None:
            pairs = self.lb.get_state(job_id, state_seq)
        elif attempt > 1 and record.checkpoint_states:
            pairs = record.checkpoint_states[-1][1]

        env, sandbox_source, sandbox_prefix = self._registered_context(record)
        descriptor = self.adapter.resolve(
            resolved,
            job_id=job_id,
            attempt=attempt,
            owner=record.owner,
            checkpoint_pairs=pairs,
            extra_env=env,
            sandbox_source=sandbox_source,
            sandbox_prefix=sandbox_prefix,
        )
        crash_point("wm.after_adapt")

        self._wm_event(
            job_id, self._item_sseq(item_seq, _STAGE_STAGED), "Staged", {"destination": descriptor.submit_to}
        )
        self.executor_queue.enqueue({"type": "run", "descriptor": descriptor.as_dict()})
        crash_point("wm.after_enqueue")

    # -- scans ------------------------------------------------------------------

    def abort_scan(self, records: Iterable[JobRecord]) -> int:
        """Resubmit aborted jobs that still have retry budget.  The
        Resubmitted event names the CE where the failed attempt ran, which
        the new attempt's submit excludes.  A DAG is not a job ad, and a
        Partitionable job's nodes retry on their own; those and the jobs
        with no retry left are settled."""
        resubmitted = 0
        for record in records:
            if record.state != JobState.ABORTED:
                continue
            try:
                jd = validate_job(record.jdl)
            except WmsError:
                jd = None
            if jd is None or jd.job_type == "Partitionable" or record.attempt > jd.retry_count:
                self.lb.settle(record)
                continue
            payload = {"reason": "automatic reschedule after abort"}
            if record.destination:
                payload["exclude"] = record.destination
            if not self._wm_event(record.job, _SSEQ_RESUBMIT_BASE + record.attempt, "Resubmitted", payload):
                continue
            self.requests.enqueue({"kind": "submit", "job": record.job})
            resubmitted += 1
            crash_point("wm.after_resubmit_enqueue")
        return resubmitted

    # -- DAG engine ----------------------------------------------------------

    def _dag_for(self, job_id: str, record) -> DagDescription | None:
        if job_id in self._dag_cache:
            return self._dag_cache[job_id]
        dag: DagDescription | None = None
        if record.jdl:
            try:
                desc = validate_description(record.jdl)
                if isinstance(desc, DagDescription):
                    dag = desc
                elif desc.job_type == "Partitionable":
                    dag = partition_job(desc)
            except WmsError:
                dag = None
        self._dag_cache[job_id] = dag
        return dag

    def dag_scan(self, records: Iterable[JobRecord]) -> int:
        stepped = 0
        for record in records:
            job_id = record.job
            if record.state in TERMINAL_STATES:
                self._dag_cache.pop(job_id, None)  # no scan asks about a finished job again
                if record.state in (JobState.CANCELLED, JobState.CLEARED):
                    self.lb.settle(record)  # nor acts on it
                continue
            dag = self._dag_for(job_id, record)
            if dag is None:
                continue
            held = any(
                not self.spool.inputs_complete(job_id, jd.input_sandbox, name.lower())
                for name, jd in dag.nodes.items()
            )
            if held:
                continue  # the gateway holds it until its input sandbox is uploaded
            stepped += self._step_dag(job_id, record, dag)
        return stepped

    def _node_status(self, dag: DagDescription, record) -> dict[str, str]:
        """Idle | Ready | Assigned | Submitted | Done | Failed | Unreachable
        per node, derived only from bookkeeping state."""
        status: dict[str, str] = {}
        for name in dag.nodes:
            node_id = record.user_tags.get(f"node:{name.lower()}")
            if not node_id:
                status[name] = "Idle"
                continue
            try:
                node_record = self.lb.job_record(node_id)
            except UnknownJobError:
                status[name] = "Assigned"  # tag written, registration lost in a crash
                continue
            state = node_record.state
            if state == JobState.DONE_OK or state == JobState.CLEARED:
                status[name] = "Done"
            elif state in (JobState.DONE_FAILED, JobState.CANCELLED):
                status[name] = "Failed"
            elif state == JobState.ABORTED:
                retry = dag.nodes[name].retry_count
                status[name] = "Submitted" if node_record.attempt <= retry else "Failed"
            else:
                status[name] = "Submitted"
        # propagate failure downstream
        changed = True
        while changed:
            changed = False
            for name in dag.nodes:
                if status[name] != "Idle":
                    continue
                parents = dag.parents_of(name)
                if any(status[p] in ("Failed", "Unreachable") for p in parents):
                    status[name] = "Unreachable"
                    changed = True
        for name in dag.nodes:
            if status[name] == "Idle" and all(status[p] == "Done" for p in dag.parents_of(name)):
                status[name] = "Ready"
        return status

    def _step_dag(self, dag_id: str, record, dag: DagDescription) -> int:
        status = self._node_status(dag, record)
        actions = 0
        names = list(dag.nodes)
        for index, name in enumerate(names):
            if status[name] in ("Ready", "Assigned"):
                self._submit_node(dag_id, record, dag, name, index)
                status[name] = "Submitted"
                actions += 1
        if all(s in ("Done", "Failed", "Unreachable") for s in status.values()):
            failed = sorted(n for n, s in status.items() if s != "Done")
            exit_code = "0" if not failed else "1"
            self._wm_event(
                dag_id,
                _SSEQ_DAG_FINAL,
                "Done",
                {"exitCode": exit_code, "nodes": json.dumps(status, sort_keys=True)},
            )
            actions += 1
        return actions

    def _submit_node(self, dag_id: str, record, dag: DagDescription, name: str, index: int) -> None:
        """Lazy binding: a node job is registered and matched only now,
        when its dependencies are satisfied."""
        node_jd = dag.nodes[name]
        node_id = f"{dag_id}.{name.lower()}"
        self._wm_event(
            dag_id,
            _SSEQ_NODE_ASSIGN_BASE + index,
            "UserTag",
            {"name": f"node:{name.lower()}", "value": node_id},
        )
        crash_point("wm.after_node_assign")

        extra_env: dict[str, str] = {}
        if dag.aggregator_node and name == dag.aggregator_node:
            mapping = []
            for parent in sorted(dag.parents_of(name)):
                parent_id = record.user_tags.get(f"node:{parent.lower()}")
                if parent_id:
                    mapping.append(f"{parent.lower()}={parent_id}")
            extra_env["WMS_AGGREGATE"] = ",".join(mapping)

        registered_payload = {
            "jdl": node_jd.to_jdl(),
            "owner": record.owner,
            "sandbox_source": dag_id,
            "sandbox_prefix": name.lower(),
        }
        if extra_env:
            registered_payload["env"] = json.dumps(extra_env, sort_keys=True)
        # one append: a crash leaves all of the node's registration or none
        ts = now_ms()
        tags = [("dag", dag_id), ("node", name.lower()), *sorted(node_jd.user_tags.items())]
        self.lb.log_events(
            [
                Event(node_id, "WM", _SSEQ_NODE_REGISTERED, ts, "Registered", registered_payload),
                Event(node_id, "WM", _SSEQ_NODE_ACCEPTED, ts, "Accepted", {}),
                *(
                    Event(node_id, "WM", sseq, ts, "UserTag", {"name": tag, "value": value})
                    for sseq, (tag, value) in enumerate(tags, _SSEQ_NODE_TAG_DAG)
                ),
            ]
        )
        self.requests.enqueue({"kind": "submit", "job": node_id})
        crash_point("wm.after_node_enqueue")

    # -- charging ------------------------------------------------------------

    def charge_scan(self, records: Iterable[JobRecord]) -> int:
        """Charge each finished attempt once, from one registry snapshot and
        with one ledger write for the pass.  A DAG container, or a job on a
        CE with no price, is never charged.  A finished job is settled once
        its charge is written, or if it has nothing to charge."""
        charges: list[Charge] = []
        charged: list[JobRecord] = []
        resources: dict[str, ResourceEntry] | None = None
        for record in records:
            job_id = record.job
            if record.state not in (JobState.DONE_OK, JobState.DONE_FAILED):
                continue
            if not record.destination or self.ledger.has_charge(job_id, record.attempt):
                self.lb.settle(record)
                continue
            if resources is None:
                resources = self.registry.snapshot()
            entry = resources.get(record.destination)
            if entry is None:
                continue  # resource not visible yet; retry next scan
            price = attr_value(entry.ad, "pricepercpusecond")
            group = attr_value(entry.ad, "ownergroup")
            if not isinstance(price, Integer) or not isinstance(group, Text) or not group.value:
                self.lb.settle(record)
                continue
            charges.append(
                Charge(job_id, record.owner or "unknown", record.destination, record.cpu_seconds, price.value,
                       group.value, record.attempt)
            )
            charged.append(record)
        if charges:
            self.ledger.charge_jobs(charges)
            for record in charged:
                self.lb.settle(record)
        return len(charges)

    # -- stuck-job recovery -------------------------------------------------------

    def _pending_job_ids(self) -> set[str]:
        pending: set[str] = set()
        for _seq, _state, payload in self.requests.iter_items():
            try:
                obj = json.loads(payload.decode("utf-8"))
                if obj.get("job"):
                    pending.add(str(obj["job"]))
            except (ValueError, UnicodeDecodeError):
                continue
        for _seq, _state, payload in self.executor_queue.iter_items():
            try:
                obj = json.loads(payload.decode("utf-8"))
                descriptor = obj.get("descriptor") or {}
                if descriptor.get("job"):
                    pending.add(str(descriptor["job"]))
                elif obj.get("job"):
                    pending.add(str(obj["job"]))
            except (ValueError, UnicodeDecodeError):
                continue
        return pending

    def _staged_job_ids(self) -> set[str]:
        staged: set[str] = set()
        staged_dir = self.spool.executor_staged
        if not staged_dir.is_dir():
            return staged
        for entry in os.listdir(staged_dir):
            if not entry.endswith(".json"):
                continue
            try:
                obj = json.loads((staged_dir / entry).read_text())
                job = obj.get("descriptor", {}).get("job")
                if job:
                    staged.add(str(job))
            except (OSError, ValueError):
                continue
        return staged

    def stuck_scan(self, records: Iterable[JobRecord], min_age_ms: int | None = None) -> int:
        """Re-drive non-terminal jobs that are in nobody's hands.

        A job is stuck when it sits in SUBMITTED/WAITING/READY with no
        pending request, no queued descriptor, and no executor staging,
        and its newest event is older than the threshold.  A job whose
        declared input files are not all uploaded yet is held by the
        gateway, not stuck.  Rebuilding from queues plus bookkeeping alone
        is what makes manager crashes harmless.  The queues and staged
        files are read after `records`, so a job handed on since is pending.
        """
        threshold = self.stuck_after * 1000 if min_age_ms is None else min_age_ms
        now = now_ms()
        pending = None
        requeued = 0
        for record in records:
            job_id = record.job
            if record.state not in (JobState.SUBMITTED, JobState.WAITING, JobState.READY):
                continue
            if self._dag_for(job_id, record) is not None:
                continue
            if now - record.newest_ts < threshold:
                continue
            if pending is None:
                pending = self._pending_job_ids() | self._staged_job_ids()
            if job_id in pending:
                continue
            _env, sandbox_source, sandbox_prefix = self._registered_context(record)
            try:
                inputs = validate_job(record.jdl).input_sandbox
            except WmsError:
                inputs = []
            if not self.spool.inputs_complete(sandbox_source or job_id, inputs, sandbox_prefix):
                continue  # the gateway holds it until its input sandbox is uploaded
            self.requests.enqueue({"kind": "submit", "job": job_id})
            requeued += 1
        return requeued

    # -- lifecycle -------------------------------------------------------------

    def recover(self) -> None:
        """Startup recovery: reclaim dead queue claims, count the claims on
        each CE, and immediately re-drive orphaned jobs.  A job whose newest
        event is younger than this manager may be between the gateway's
        Registered append and its enqueue, so the periodic stuck scan
        handles it instead."""
        self.requests.recover_dead_owners()
        self.requests.recover_scan()
        records = list(self.lb.records())
        self.claims = count_claims(records)
        self.stuck_scan(records, min_age_ms=now_ms() - self._started_ms)

    def process_requests(self) -> int:
        """Handle up to REQUEST_BATCH requests; their matches share one
        registry snapshot, taken by the first match."""
        handled = 0
        shared = MatchBatch(self.broker.registry)
        for _ in range(REQUEST_BATCH):
            item = self.requests.claim(self.owner)
            if item is None:
                break
            crash_point("wm.after_claim")
            self.handle_request(item, shared)
            handled += 1
        return handled

    def run_scans(self) -> None:
        """The four scans share one listing of the store's live jobs.  They
        act on disjoint states, and settle the jobs that no scan will act on
        again, so the next pass does not read them; a job that moves after
        the listing waits for the next pass.  The listing also counts the
        claims afresh, which releases those of attempts that have ended."""
        records = list(self.lb.records())
        self.claims = count_claims(records)
        self.abort_scan(records)
        self.dag_scan(records)
        self.charge_scan(records)
        self.stuck_scan(records)
        self.requests.recover_scan()

    def tick(self) -> int:
        handled = self.process_requests()
        if time.monotonic() - self._last_scan >= SCAN_INTERVAL:
            self.run_scans()
            self._last_scan = time.monotonic()
        return handled

    def run_forever(self, stop: threading.Event | None = None) -> None:
        self.recover()
        while stop is None or not stop.is_set():
            if not self.tick():
                time.sleep(IDLE_POLL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wms-wm", description="workload manager")
    parser.add_argument("--spool", required=True)
    parser.add_argument("--resources", default=None)
    parser.add_argument("--gateway", default=os.environ.get("WMS_GATEWAY"))
    parser.add_argument("--strategy", default="best")
    parser.add_argument("--match-retries", type=int, default=DEFAULT_MATCH_RETRIES)
    parser.add_argument("--stuck-after", type=float, default=DEFAULT_STUCK_AFTER)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    os.environ.setdefault("WMS_SPOOL", args.spool)
    os.environ.setdefault("WMS_COMPONENT", "wm")
    manager = WorkloadManager(
        SpoolLayout(Path(args.spool)),
        resources_dir=args.resources,
        gateway_addr=args.gateway,
        strategy=args.strategy,
        match_retries=args.match_retries,
        stuck_after=args.stuck_after,
    )
    manager.run_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
