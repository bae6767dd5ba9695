"""Job execution service: two-phase-commit staging, a persistent job
queue, simulated compute elements running wrapper processes, and an
append-only job log that the log monitor translates into bookkeeping
events.

Staging is phase one (durable, not yet runnable) and commit is phase two;
a staged-never-committed job is garbage-collected after a timeout.  Every
lifecycle transition appends a record to the job log:

    spool/executor/job.log          one JSON record per line
    {"ts":..,"handle":..,"jobId":..,"kind":..,"data":{..}}

Simulated CEs run real local processes (one wrapper per job, its own
process group) so sandbox transfer, exit codes, kill semantics, and
interactive streams are exercised for real.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import classad
from .broker import ResourceRegistry
from .classad import Integer, attr_value
from .errors import WmsError
from .faults import crash_point
from .filequeue import ACK, FileQueue
from .layout import SpoolLayout
from .submission import SubmissionDescriptor
from .util import append_line, atomic_write_text, flocked, now_ms, python_child_env, python_executable

log = logging.getLogger("gridwms.executor")

LOG_KINDS = ("Staged", "Committed", "Executing", "Terminated", "Aborted", "Cancelled")

DEFAULT_COMMIT_TIMEOUT = 30.0
DEFAULT_HEARTBEAT_PERIOD = 2.0
WRAPPER_SETUP_FAILED = 125


class UnknownHandleError(WmsError):
    code = "UnknownHandle"


class AlreadyTerminalError(WmsError):
    code = "AlreadyTerminal"


class InvalidDescriptorError(WmsError):
    code = "InvalidDescriptor"


@dataclass
class StagedJob:
    handle: str
    descriptor: SubmissionDescriptor
    idem_key: str
    staged_at: int
    committed: bool = False
    started: bool = False
    terminal: bool = False
    cancelled: bool = False

    def as_dict(self) -> dict:
        return {
            "handle": self.handle,
            "descriptor": self.descriptor.as_dict(),
            "idem_key": self.idem_key,
            "staged_at": self.staged_at,
            "committed": self.committed,
            "started": self.started,
            "terminal": self.terminal,
            "cancelled": self.cancelled,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "StagedJob":
        return cls(
            handle=str(obj["handle"]),
            descriptor=SubmissionDescriptor.from_dict(obj["descriptor"]),
            idem_key=str(obj["idem_key"]),
            staged_at=int(obj["staged_at"]),
            committed=bool(obj.get("committed")),
            started=bool(obj.get("started")),
            terminal=bool(obj.get("terminal")),
            cancelled=bool(obj.get("cancelled")),
        )


@dataclass
class SimCE:
    ce_id: str
    slots: int
    running: set = field(default_factory=set)

    @property
    def free_slots(self) -> int:
        return max(0, self.slots - len(self.running))


class JobLog:
    """Append-only executor log with strictly increasing timestamps."""

    def __init__(self, path: Path):
        self.path = path
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._last_ts = 0

    def append(self, handle: str, job_id: str, kind: str, data: dict | None = None) -> None:
        assert kind in LOG_KINDS
        with flocked(self.path.with_suffix(".lock")):
            ts = max(now_ms(), self._last_ts + 1)
            self._last_ts = ts
            record = {"ts": ts, "handle": handle, "jobId": job_id, "kind": kind, "data": data or {}}
            append_line(self.path, json.dumps(record, sort_keys=True))


class ExecutorService:
    """Consumes the executor-submit queue, stages and runs jobs on
    simulated CEs, and heartbeats resource availability."""

    def __init__(
        self,
        spool: SpoolLayout,
        resources_dir: Path | str | None = None,
        commit_timeout: float = DEFAULT_COMMIT_TIMEOUT,
        heartbeat_period: float = DEFAULT_HEARTBEAT_PERIOD,
        fake_cpu_seconds: float | None = None,
        gateway_addr: str | None = None,
    ):
        self.spool = spool.ensure()
        self.queue = FileQueue(spool.executor_submit)
        self.job_log = JobLog(spool.executor_log)
        self.commit_timeout = commit_timeout
        self.heartbeat_period = heartbeat_period
        self.fake_cpu_seconds = fake_cpu_seconds
        self.gateway_addr = gateway_addr
        self.owner = f"executor-{os.getpid()}"
        self.jobs: dict[str, StagedJob] = {}
        self.by_idem: dict[str, str] = {}
        self.procs: dict[str, subprocess.Popen] = {}
        self.ces: dict[str, SimCE] = {}
        self._ce_ads: dict[str, classad.ClassAd] = {}
        self._handle_seq = 0
        self._last_heartbeat = 0.0
        self._load_ces(Path(resources_dir) if resources_dir else spool.resources_static)
        self._load_staged()

    # -- setup / recovery -------------------------------------------------

    def _load_ces(self, resources_dir: Path) -> None:
        for rid, entry in ResourceRegistry(static_dir=resources_dir).snapshot().items():
            if entry.type != "CE":
                continue
            slots = attr_value(entry.ad, "slots") or attr_value(entry.ad, "totalcpus")
            self.ces[rid] = SimCE(ce_id=rid, slots=max(1, slots.value if isinstance(slots, Integer) else 1))
            self._ce_ads[rid] = entry.ad

    def _staged_path(self, handle: str) -> Path:
        return self.spool.executor_staged / f"{handle}.json"

    def _persist(self, job: StagedJob) -> None:
        atomic_write_text(self._staged_path(job.handle), json.dumps(job.as_dict(), sort_keys=True))

    def _load_staged(self) -> None:
        for entry in sorted(os.listdir(self.spool.executor_staged)):
            if not entry.endswith(".json"):
                continue
            try:
                job = StagedJob.from_dict(json.loads((self.spool.executor_staged / entry).read_text()))
            except (ValueError, KeyError) as exc:
                log.warning("skipping corrupt staged record %s: %s", entry, exc)
                continue
            self.jobs[job.handle] = job
            self.by_idem[job.idem_key] = job.handle
            num = job.handle.rpartition("-")[2]
            if num.isdigit():
                self._handle_seq = max(self._handle_seq, int(num))

    def recover(self) -> int:
        """Startup recovery: reclaim dead queue claims and close out jobs
        whose wrapper processes did not survive the previous incarnation.

        A job with a started, non-terminal record and no live process gets
        an Aborted record; its pid group is killed first in case the
        wrapper outlived us.  Never touches jobs with a Terminated record
        already on disk, preserving at-most-once completion.
        """
        recovered = 0
        self.queue.recover_dead_owners()
        self.queue.recover_scan()
        for job in list(self.jobs.values()):
            if job.started and not job.terminal:
                self._kill_run_dir(job.handle)
                self._abort(job, "executor restart: worker process lost")
                recovered += 1
        return recovered

    def _kill_run_dir(self, handle: str) -> None:
        pid_file = self.spool.run_dir(handle) / "wrapper.pid"
        try:
            pid = int(pid_file.read_text().strip())
        except (OSError, ValueError):
            return
        try:
            os.killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    # -- two-phase commit ------------------------------------------------

    def stage(self, descriptor: SubmissionDescriptor, idem_key: str) -> str:
        """Phase one: durably record the job.  Idempotent on idem_key."""
        existing = self.by_idem.get(idem_key)
        if existing is not None:
            return existing
        if not descriptor.submit_to or descriptor.submit_to not in self.ces:
            raise InvalidDescriptorError(f"descriptor targets unknown CE {descriptor.submit_to!r}")
        if not descriptor.plan.command:
            raise InvalidDescriptorError("descriptor has an empty command")
        self._handle_seq += 1
        handle = f"h-{self._handle_seq:08d}"
        job = StagedJob(handle=handle, descriptor=descriptor, idem_key=idem_key, staged_at=now_ms())
        crash_point("executor.before_stage_persist")
        self._persist(job)
        self.jobs[handle] = job
        self.by_idem[idem_key] = handle
        self.job_log.append(handle, descriptor.job_id, "Staged", {"ceId": descriptor.submit_to})
        crash_point("executor.after_stage")
        return handle

    def commit(self, handle: str) -> None:
        """Phase two: make the job runnable.  Idempotent."""
        job = self.jobs.get(handle)
        if job is None:
            raise UnknownHandleError(f"unknown handle {handle}")
        if job.committed or job.terminal:
            return
        job.committed = True
        self._persist(job)
        self.job_log.append(handle, job.descriptor.job_id, "Committed", {"ceId": job.descriptor.submit_to})
        crash_point("executor.after_commit")

    def cancel(self, handle: str) -> None:
        """Remove a staged/queued job or kill a running one; appends a
        single Cancelled record."""
        job = self.jobs.get(handle)
        if job is None:
            raise UnknownHandleError(f"unknown handle {handle}")
        if job.terminal:
            raise AlreadyTerminalError(f"handle {handle} already terminal")
        job.cancelled = True
        if job.started:
            proc = self.procs.get(handle)
            if proc is not None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
            else:
                self._kill_run_dir(handle)
        self._finish(job, "Cancelled", {})

    def cancel_job(self, job_id: str) -> int:
        """Cancel every non-terminal handle for a job id (queue control path)."""
        count = 0
        for job in list(self.jobs.values()):
            if job.descriptor.job_id == job_id and not job.terminal:
                try:
                    self.cancel(job.handle)
                    count += 1
                except WmsError:
                    pass
        return count

    def _abort(self, job: StagedJob, reason: str) -> None:
        self._finish(job, "Aborted", {"reason": reason})

    def _finish(self, job: StagedJob, kind: str, data: dict) -> None:
        job.terminal = True
        self._persist(job)
        if job.handle in self.procs:
            ce = self.ces.get(job.descriptor.submit_to)
            if ce:
                ce.running.discard(job.handle)
            self.procs.pop(job.handle, None)
        payload = dict(data)
        payload.setdefault("ceId", job.descriptor.submit_to)
        self.job_log.append(job.handle, job.descriptor.job_id, kind, payload)

    # -- execution ------------------------------------------------------------

    def _start_job(self, job: StagedJob, ce: SimCE) -> None:
        run_dir = self.spool.run_dir(job.handle)
        run_dir.mkdir(parents=True, exist_ok=True)
        plan = job.descriptor.plan
        env = python_child_env(plan.env)
        env["WMS_SCRATCH"] = str(run_dir)
        if self.fake_cpu_seconds is not None:
            env.setdefault("WMS_FAKE_CPU_SECONDS", str(self.fake_cpu_seconds))
        if self.gateway_addr:
            env.setdefault("WMS_GATEWAY", self.gateway_addr)
        plan_path = run_dir / "plan.json"
        atomic_write_text(plan_path, json.dumps(plan.as_dict(), sort_keys=True))
        try:
            proc = subprocess.Popen(
                [python_executable(), "-m", "gridwms.wrapper", str(plan_path)],
                cwd=run_dir,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        except OSError as exc:
            self._abort(job, f"wrapper spawn failed: {exc}")
            return
        (run_dir / "wrapper.pid").write_text(str(proc.pid))
        job.started = True
        self._persist(job)
        self.procs[job.handle] = proc
        ce.running.add(job.handle)
        self.job_log.append(job.handle, job.descriptor.job_id, "Executing", {"ceId": ce.ce_id})
        crash_point("executor.after_executing")

    def _reap(self) -> None:
        for handle, proc in list(self.procs.items()):
            rc = proc.poll()
            if rc is None:
                continue
            job = self.jobs[handle]
            ce = self.ces.get(job.descriptor.submit_to)
            if ce:
                ce.running.discard(handle)
            self.procs.pop(handle, None)
            if job.terminal:
                continue  # cancelled while running; Cancelled already logged
            result = self._read_wrapper_result(handle)
            crash_point("executor.before_terminal_record")
            if result is not None and "error" in result:
                self._abort(job, str(result["error"]))
            elif result is not None and "exit" in result:
                self._finish(
                    job,
                    "Terminated",
                    {"exitCode": int(result["exit"]), "cpuSeconds": float(result.get("cpu_seconds", 0.0))},
                )
            elif rc < 0:
                self._abort(job, f"wrapper killed by signal {-rc}")
            else:
                self._abort(job, f"wrapper exited {rc} without a result")

    def _read_wrapper_result(self, handle: str) -> dict | None:
        path = self.spool.run_dir(handle) / "wrapper.result"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def _schedule(self) -> None:
        queued = [
            j
            for j in self.jobs.values()
            if j.committed and not j.started and not j.terminal
        ]
        queued.sort(key=lambda j: (j.staged_at, j.handle))
        for job in queued:
            ce = self.ces.get(job.descriptor.submit_to)
            if ce is None:
                self._abort(job, f"unknown CE {job.descriptor.submit_to}")
                continue
            if ce.free_slots <= 0:
                continue
            self._start_job(job, ce)

    def _gc_uncommitted(self) -> None:
        deadline = now_ms() - int(self.commit_timeout * 1000)
        for job in list(self.jobs.values()):
            if not job.committed and not job.terminal and job.staged_at < deadline:
                self._abort(job, "commit timeout")

    # -- queue consumption -------------------------------------------------------

    def _consume_queue(self, batch: int = 16) -> int:
        handled = 0
        for _ in range(batch):
            item = self.queue.claim(self.owner)
            if item is None:
                break
            crash_point("executor.after_claim")
            try:
                payload = item.json()
            except ValueError:
                payload = None
            if payload is None or payload.get("type") not in ("run", "cancel"):
                self.queue.settle(item.seq, ACK)  # malformed control message: drop
                continue
            try:
                if payload["type"] == "run":
                    descriptor = SubmissionDescriptor.from_dict(payload["descriptor"])
                    existing = self.by_idem.get(descriptor.idem_key)
                    if existing is not None and self.jobs[existing].terminal:
                        pass  # attempt already ran to completion; absorb the duplicate
                    else:
                        handle = self.stage(descriptor, descriptor.idem_key)
                        self.commit(handle)
                else:
                    self.cancel_job(str(payload.get("job", "")))
                self.queue.settle(item.seq, ACK)
                crash_point("executor.after_settle")
                handled += 1
            except (WmsError, KeyError, ValueError) as exc:
                log.warning("rejecting executor item %s: %s", item.seq, exc)
                self.queue.settle(item.seq, ACK)
        return handled

    # -- heartbeats -----------------------------------------------------------------

    def heartbeat(self) -> None:
        """Publish each CE's current availability for the broker."""
        self.spool.resources_live.mkdir(parents=True, exist_ok=True)
        for rid, ce in self.ces.items():
            ad = self._ce_ads.get(rid)
            if ad is None:
                continue
            updated = ad.with_attr("FreeCPUs", classad.Literal(Integer(ce.free_slots)))
            atomic_write_text(self.spool.resources_live / f"{rid}.ad", updated.unparse())

    # -- main loop ----------------------------------------------------------------

    def tick(self) -> int:
        handled = self._consume_queue()
        self._gc_uncommitted()
        self._schedule()
        self._reap()
        if time.monotonic() - self._last_heartbeat >= self.heartbeat_period:
            self.heartbeat()
            self._last_heartbeat = time.monotonic()
        return handled

    def run_forever(self, stop: threading.Event | None = None, poll: float = 0.05) -> None:
        self.recover()
        self.heartbeat()
        while stop is None or not stop.is_set():
            busy = self.tick()
            if not busy:
                time.sleep(poll)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wms-executor", description="job execution service")
    parser.add_argument("--spool", required=True)
    parser.add_argument("--resources", default=None)
    parser.add_argument("--commit-timeout", type=float, default=DEFAULT_COMMIT_TIMEOUT)
    parser.add_argument("--fake-cpu-seconds", type=float, default=None)
    parser.add_argument("--gateway", default=os.environ.get("WMS_GATEWAY"))
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    os.environ.setdefault("WMS_SPOOL", args.spool)
    os.environ.setdefault("WMS_COMPONENT", "executor")
    service = ExecutorService(
        SpoolLayout(Path(args.spool)),
        resources_dir=args.resources,
        commit_timeout=args.commit_timeout,
        fake_cpu_seconds=args.fake_cpu_seconds,
        gateway_addr=args.gateway,
    )
    service.run_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
