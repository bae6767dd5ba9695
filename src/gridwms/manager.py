"""Workload manager: the core request-dispatch component.

Requests arrive on a filesystem queue from the gateway.  A submit runs
the Helper chain -- the broker resolves the JDL to a resource choice,
then the job adapter turns the resolved JDL into a submission descriptor
with a concrete wrapper plan -- and the descriptor is enqueued for the
executor.  Independent scan activities drive automatic resubmission with
checkpoint restart, DAG execution with lazy node binding, job
partitioning, accounting charges, and recovery of jobs orphaned by
crashes.  All coordination state lives in the bookkeeping store and the
queues; the manager itself can be killed at any boundary and rebuilt
from those alone.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shlex
import threading
import time
from pathlib import Path

from . import classad
from .accounting import Ledger
from .bookkeeping import (
    TERMINAL_STATES,
    BookkeepingStore,
    Event,
    JobState,
)
from .broker import Broker, NoMatchingResourcesError, ResourceRegistry
from .classad import Integer, ListExpr, Literal, Text, attr_value
from .errors import UnknownJobError, WmsError
from .faults import crash_point
from .filequeue import ACK, NACK, FileQueue, QueueItem
from .jdl import DagDescription, ValidationError, Violation, validate_dag, validate_description, validate_job
from .layout import SpoolLayout
from .partition import partition_job
from .submission import SubmissionDescriptor, WrapperPlan
from .util import now_ms

log = logging.getLogger("gridwms.manager")

DEFAULT_MAX_ATTEMPTS = 3  # queue deliveries before dead-lettering
DEFAULT_MATCH_RETRIES = 3
DEFAULT_RETRY_BACKOFF = 1.0
DEFAULT_STUCK_AFTER = 30.0
DEFAULT_SCAN_INTERVAL = 0.5

# stable per-(job, source=WM) sequence ranges so replays deduplicate
# exactly and distinct event classes never collide
_SSEQ_NODE_REGISTERED = 16
_SSEQ_NODE_ACCEPTED = 17
_SSEQ_NODE_TAG_DAG = 18
_SSEQ_NODE_TAG_NODE = 19
_SSEQ_DAG_FINAL = 10
_SSEQ_NODE_ASSIGN_BASE = 64  # + node index, on the dag job
_SSEQ_RESUBMIT_BASE = 1000  # + attempt being retired
_SSEQ_ITEM_BASE = 100000  # + item_seq * 8 + stage

_STAGE_MATCHED = 1
_STAGE_STAGED = 2
_STAGE_NO_MATCH = 3
_STAGE_CANCELLED = 4
_STAGE_REFUSED = 5


class MissingSandboxFileError(WmsError):
    code = "MissingSandboxFile"


class JobAdapter:
    """Helper mapping a resolved JDL to a submission descriptor.

    Final touches before execution: wrapper command line, environment,
    sandbox manifests with concrete source paths, stdio routing, and the
    checkpoint restore pairs for attempts that resume from a saved state.
    """

    def __init__(self, spool: SpoolLayout, registry: ResourceRegistry, gateway_addr: str | None = None):
        self.spool = spool
        self.registry = registry
        self.gateway_addr = gateway_addr

    def resolve(
        self,
        jdl_text: str,
        *,
        job_id: str,
        attempt: int = 1,
        owner: str = "",
        checkpoint_pairs: list[tuple[str, str]] | None = None,
        extra_env: dict[str, str] | None = None,
        sandbox_source: str | None = None,
        sandbox_prefix: str | None = None,
    ) -> SubmissionDescriptor:
        jd = validate_job(jdl_text)
        if not jd.submit_to:
            raise ValidationError([Violation("missing", "SubmitTo", "resolved JDL must carry SubmitTo")])
        if self.registry.get(jd.submit_to) is None:
            raise ValidationError(
                [Violation("value", "SubmitTo", f"names unknown resource {jd.submit_to!r}")]
            )

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
            final_jdl=jdl_text,
            plan=plan,
            owner=owner,
        )


class WorkloadManager:
    def __init__(
        self,
        spool: SpoolLayout,
        resources_dir: Path | str | None = None,
        gateway_addr: str | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        match_retries: int = DEFAULT_MATCH_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        stuck_after: float = DEFAULT_STUCK_AFTER,
        scan_interval: float = DEFAULT_SCAN_INTERVAL,
        strategy: str = "best",
        broker_ttl: float = 120.0,
    ):
        self.spool = spool.ensure()
        self.lb = BookkeepingStore(spool.lb_root)
        self.requests = FileQueue(spool.wm_requests)
        self.executor_queue = FileQueue(spool.executor_submit)
        self.registry = ResourceRegistry(
            static_dir=Path(resources_dir) if resources_dir else spool.resources_static,
            live_dir=spool.resources_live,
        )
        self.broker = Broker(self.registry, default_strategy=strategy, ttl_seconds=broker_ttl)
        self.adapter = JobAdapter(spool, self.registry, gateway_addr)
        self.ledger = Ledger(spool.ledger_file, spool.accounts_file)
        self.owner = f"wm-{os.getpid()}"
        self.max_attempts = max_attempts
        self.match_retries = match_retries
        self.retry_backoff = retry_backoff
        self.stuck_after = stuck_after
        self.scan_interval = scan_interval
        self._dag_cache: dict[str, DagDescription | None] = {}
        self._uncharged_skip: set[tuple[str, int]] = set()
        self._last_scan = 0.0

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

    def handle_request(self, item: QueueItem) -> None:
        """Process one queue item; settles it exactly once.

        Malformed or unprocessable requests are nacked up to max_attempts
        deliveries, then dead-lettered with a Refused event.
        """
        try:
            payload = item.json()
            kind = payload["kind"]
            if kind == "submit":
                self._handle_submit(payload, item.seq)
            elif kind == "cancel":
                self._handle_cancel(payload, item.seq)
            elif kind == "resubmit_from_state":
                self._handle_resubmit(payload, item.seq)
            elif kind == "submit_dag":
                self._handle_submit_dag(payload, item.seq)
            else:
                raise WmsError(f"unknown request kind {kind!r}")
        except (WmsError, KeyError, ValueError) as exc:
            if item.attempts >= self.max_attempts:
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
        path = self.spool.dead_letter / f"request-{item.seq:016d}.json"
        path.write_bytes(item.payload)
        try:
            job_id = item.json().get("job")
        except ValueError:
            job_id = None
        if job_id and self.lb.exists(job_id):
            self._wm_event(
                job_id, self._item_sseq(item.seq, _STAGE_REFUSED), "Refused", {"reason": reason}
            )

    def _registered_context(self, record) -> tuple[dict[str, str], str | None, str | None]:
        """Extra submission context persisted in the Registered payload so
        crash-driven re-enqueues keep node environment and sandbox routing."""
        for ev in record.events:
            if ev.kind == "Registered":
                env = {}
                raw = ev.payload.get("env")
                if raw:
                    try:
                        env = {str(k): str(v) for k, v in json.loads(raw).items()}
                    except ValueError:
                        env = {}
                return env, ev.payload.get("sandbox_source"), ev.payload.get("sandbox_prefix")
        return {}, None, None

    def _handle_submit(self, payload: dict, item_seq: int) -> None:
        job_id = payload["job"]
        record = self.lb.job_record(job_id)
        if record.state in TERMINAL_STATES:
            return
        jdl_text = payload.get("jdl") or record.jdl
        jd = validate_job(jdl_text)
        if jd.job_type == "Partitionable":
            # decomposed and driven by the DAG engine; nothing to stage here
            self._dag_cache.pop(job_id, None)
            return
        env, sandbox_source, sandbox_prefix = self._registered_context(record)
        env.update(payload.get("env") or {})
        self._run_pipeline(
            job_id,
            jdl_text,
            record.owner or payload.get("owner", ""),
            item_seq,
            state_seq=None,
            extra_env=env,
            sandbox_source=payload.get("sandbox_source") or sandbox_source,
            sandbox_prefix=payload.get("sandbox_prefix") or sandbox_prefix,
        )

    def _handle_resubmit(self, payload: dict, item_seq: int) -> None:
        job_id = payload["job"]
        record = self.lb.job_record(job_id)
        if record.state == JobState.CLEARED:
            return
        state_seq = payload.get("state_seq")
        if state_seq is not None:
            self.lb.get_state(job_id, int(state_seq))  # fail fast on a bad seq
        self._wm_event(
            job_id,
            _SSEQ_RESUBMIT_BASE + record.attempt,
            "Resubmitted",
            {"reason": "explicit resubmit"},
        )
        record = self.lb.job_record(job_id)
        env, sandbox_source, sandbox_prefix = self._registered_context(record)
        self._run_pipeline(
            job_id,
            record.jdl,
            record.owner,
            item_seq,
            state_seq=int(state_seq) if state_seq is not None else None,
            extra_env=env,
            sandbox_source=sandbox_source,
            sandbox_prefix=sandbox_prefix,
        )

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
        validate_dag(payload.get("jdl") or record.jdl)  # protocol re-check
        self._dag_cache.pop(job_id, None)
        # node scheduling happens in the dag scan; the request only has to
        # be well-formed and acknowledged

    # -- the submit pipeline ------------------------------------------------

    def _run_pipeline(
        self,
        job_id: str,
        jdl_text: str,
        owner: str,
        item_seq: int,
        state_seq: int | None,
        extra_env: dict[str, str] | None,
        sandbox_source: str | None,
        sandbox_prefix: str | None,
    ) -> None:
        record = self.lb.job_record(job_id)
        if record.state in TERMINAL_STATES:
            return
        attempt = record.attempt
        crash_point("wm.before_match")

        resolved: str | None = None
        for i in range(self.match_retries):
            try:
                resolved = self.broker.resolve(jdl_text)
                break
            except NoMatchingResourcesError:
                if i + 1 < self.match_retries:
                    time.sleep(self.retry_backoff)
        if resolved is None:
            self._wm_event(
                job_id,
                self._item_sseq(item_seq, _STAGE_NO_MATCH),
                "Aborted",
                {"reason": "no matching resources"},
            )
            return

        rjd = validate_job(resolved)
        matched_payload = {"destination": rjd.submit_to or ""}
        if rjd.chosen_se:
            matched_payload["se"] = rjd.chosen_se
        self._wm_event(job_id, self._item_sseq(item_seq, _STAGE_MATCHED), "Matched", matched_payload)
        crash_point("wm.after_match")

        pairs: list[tuple[str, str]] | None = None
        if state_seq is not None:
            pairs = self.lb.get_state(job_id, state_seq)
        elif attempt > 1 and record.checkpoint_states:
            pairs = record.checkpoint_states[-1][1]

        descriptor = self.adapter.resolve(
            resolved,
            job_id=job_id,
            attempt=attempt,
            owner=owner,
            checkpoint_pairs=pairs,
            extra_env=extra_env,
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

    def abort_scan(self) -> int:
        """Resubmit aborted jobs that still have retry budget, excluding
        the CE where the failed attempt ran."""
        resubmitted = 0
        for record in self.lb.records():
            job_id = record.job
            if record.state != JobState.ABORTED:
                continue
            if self._dag_for(job_id, record) is not None:
                continue
            try:
                jd = validate_job(record.jdl)
            except WmsError:
                continue
            if record.attempt > jd.retry_count:
                continue
            appended = self._wm_event(
                job_id,
                _SSEQ_RESUBMIT_BASE + record.attempt,
                "Resubmitted",
                {"reason": "automatic reschedule after abort"},
            )
            if not appended:
                continue
            env, sandbox_source, sandbox_prefix = self._registered_context(record)
            jdl_text = record.jdl
            if record.destination:
                ad = classad.parse_ad(jdl_text).with_attr(
                    "ExcludedCEs", ListExpr((Literal(Text(record.destination)),))
                )
                jdl_text = ad.unparse()
            self.requests.enqueue(
                {
                    "kind": "submit",
                    "job": job_id,
                    "owner": record.owner,
                    "jdl": jdl_text,
                    "env": env,
                    "sandbox_source": sandbox_source,
                    "sandbox_prefix": sandbox_prefix,
                }
            )
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

    def dag_scan(self) -> int:
        stepped = 0
        for record in self.lb.records():
            job_id = record.job
            if record.state in TERMINAL_STATES:
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
            if not self.lb.exists(node_id):
                status[name] = "Assigned"  # tag written, registration lost in a crash
                continue
            node_record = self.lb.job_record(node_id)
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
        for name in names:
            if status[name] == "Ready":
                self._submit_node(dag_id, record, dag, name, names.index(name))
                status[name] = "Submitted"
                actions += 1
            elif status[name] == "Assigned":
                self._submit_node(dag_id, record, dag, name, names.index(name))
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
        try:
            self.lb.log_event(
                Event(node_id, "WM", _SSEQ_NODE_REGISTERED, now_ms(), "Registered", registered_payload)
            )
            self.lb.log_event(Event(node_id, "WM", _SSEQ_NODE_ACCEPTED, now_ms(), "Accepted", {}))
            self.lb.log_event(
                Event(node_id, "WM", _SSEQ_NODE_TAG_DAG, now_ms(), "UserTag", {"name": "dag", "value": dag_id})
            )
            self.lb.log_event(
                Event(
                    node_id,
                    "WM",
                    _SSEQ_NODE_TAG_NODE,
                    now_ms(),
                    "UserTag",
                    {"name": "node", "value": name.lower()},
                )
            )
            for i, (tag, value) in enumerate(sorted(node_jd.user_tags.items())):
                self.lb.log_event(
                    Event(node_id, "WM", 20 + i, now_ms(), "UserTag", {"name": tag, "value": value})
                )
        except UnknownJobError:  # pragma: no cover - Registered precedes
            pass
        self.requests.enqueue(
            {
                "kind": "submit",
                "job": node_id,
                "owner": record.owner,
                "jdl": node_jd.to_jdl(),
                "env": extra_env,
                "sandbox_source": dag_id,
                "sandbox_prefix": name.lower(),
            }
        )
        crash_point("wm.after_node_enqueue")

    # -- charging ------------------------------------------------------------

    def charge_scan(self) -> int:
        charged = 0
        for record in self.lb.records():
            job_id = record.job
            if record.state not in (JobState.DONE_OK, JobState.DONE_FAILED):
                continue
            key = (job_id, record.attempt)
            if key in self._uncharged_skip or self.ledger.has_charge(job_id, record.attempt):
                continue
            if not record.destination:
                self._uncharged_skip.add(key)  # e.g. DAG container jobs
                continue
            entry = self.registry.get(record.destination)
            if entry is None:
                continue  # resource not visible yet; retry next scan
            price = attr_value(entry.ad, "pricepercpusecond")
            group = attr_value(entry.ad, "ownergroup")
            if not isinstance(price, Integer) or not isinstance(group, Text) or not group.value:
                self._uncharged_skip.add(key)
                continue
            cpu = 0.0
            for ev in record.events:
                if ev.kind == "Done" and "cpuSeconds" in ev.payload:
                    try:
                        cpu = float(ev.payload["cpuSeconds"])
                    except ValueError:
                        cpu = 0.0
            self.ledger.charge_job(
                job_id,
                record.owner or "unknown",
                record.destination,
                cpu,
                price.value,
                group.value,
                attempt=record.attempt,
            )
            charged += 1
        return charged

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

    def stuck_scan(self, min_age_ms: int | None = None) -> int:
        """Re-drive non-terminal jobs that are in nobody's hands.

        A job is stuck when it sits in SUBMITTED/WAITING/READY with no
        pending request, no queued descriptor, and no executor staging,
        and its newest event is older than the threshold.  A job whose
        declared input files are not all uploaded yet is held by the
        gateway, not stuck.  Rebuilding from queues plus bookkeeping alone
        is what makes manager crashes harmless.
        """
        threshold = self.stuck_after * 1000 if min_age_ms is None else min_age_ms
        now = now_ms()
        pending = None
        requeued = 0
        for record in self.lb.records():
            job_id = record.job
            if record.state not in (JobState.SUBMITTED, JobState.WAITING, JobState.READY):
                continue
            if self._dag_for(job_id, record) is not None:
                continue
            newest = max((ev.ts for ev in record.events), default=0)
            if now - newest < threshold:
                continue
            if pending is None:
                pending = self._pending_job_ids() | self._staged_job_ids()
            if job_id in pending:
                continue
            env, sandbox_source, sandbox_prefix = self._registered_context(record)
            try:
                inputs = validate_job(record.jdl).input_sandbox
            except WmsError:
                inputs = []
            if not self.spool.inputs_complete(sandbox_source or job_id, inputs, sandbox_prefix):
                continue  # the gateway holds it until its input sandbox is uploaded
            self.requests.enqueue(
                {
                    "kind": "submit",
                    "job": job_id,
                    "owner": record.owner,
                    "jdl": record.jdl,
                    "env": env,
                    "sandbox_source": sandbox_source,
                    "sandbox_prefix": sandbox_prefix,
                }
            )
            requeued += 1
        return requeued

    # -- lifecycle -------------------------------------------------------------

    def recover(self) -> None:
        """Startup recovery: reclaim dead queue claims and immediately
        re-drive orphaned jobs."""
        self.requests.recover_dead_owners()
        self.requests.recover_scan()
        self.stuck_scan(min_age_ms=0)

    def process_requests(self, batch: int = 8) -> int:
        handled = 0
        for _ in range(batch):
            item = self.requests.claim(self.owner)
            if item is None:
                break
            crash_point("wm.after_claim")
            self.handle_request(item)
            handled += 1
        return handled

    def run_scans(self) -> None:
        self.abort_scan()
        self.dag_scan()
        self.charge_scan()
        self.stuck_scan()
        self.requests.recover_scan()

    def tick(self) -> int:
        handled = self.process_requests()
        if time.monotonic() - self._last_scan >= self.scan_interval:
            self.run_scans()
            self._last_scan = time.monotonic()
        return handled

    def run_forever(self, stop: threading.Event | None = None, poll: float = 0.05) -> None:
        self.recover()
        while stop is None or not stop.is_set():
            if not self.tick():
                time.sleep(poll)


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
