"""Job execution service: two-phase-commit staging, a persistent job
queue, simulated compute elements running wrapper processes, and an
append-only job log that the log monitor translates into bookkeeping
events.

Staging is phase one (durable, not yet runnable) and commit is phase two;
a staged-never-committed job is garbage-collected after a timeout.  An
attempt's handle is its idempotence key, `<jobId>.<attempt>`.

    spool/executor/job.log          one JSON record per line
    {"ts":..,"handle":..,"jobId":..,"kind":..,"data":{..}}

job.log is the one durable record of an attempt's progress: Staged,
Committed, Executing, then one terminal record.  Only a live attempt has
files besides: `staged/<handle>.json`, its descriptor and staging time,
written once, and `run/<handle>/`, made before its wrapper is spawned.
Both are deleted once the terminal record is appended.  An append opens
job.log once and flocks that descriptor, so no sidecar lock file is
made; a torn last line left by a crash stays on its own line, which the
log monitor skips.

Simulated CEs run real local processes (one wrapper per job, its own
process group) so sandbox transfer, exit codes, kill semantics, and
interactive streams are exercised for real.

The wrappers are forked by one wrapper zygote (`Zygote`, protocol in
gridwms.wrapper), which the executor starts in its own session on the
first job.  Per job the executor writes `run/<handle>/plan.json`, sends
the zygote one request line and reads back the wrapper's pid; the zygote
reports the wrapper's wait status when it reaps it, which `_reap` turns
into a return code as `Popen.poll` does.  Before it replies, the zygote
puts the wrapper in a process group of its own and writes its pid to
`wrapper.pid`, so a restart can kill the wrapper's process group even if
the executor died before it saw the pid.  If the
zygote dies, or does not answer a request within `ZYGOTE_REPLY_TIMEOUT`,
every wrapper it had started and not yet reported has its process group
killed and its attempt aborted ("wrapper zygote lost"), as `recover()`
does after a restart; the manager retries those jobs within their
RetryCount, and the next job starts a new zygote.  The zygote exits when
its request pipe closes: `close()`, which `run_forever` calls on its way
out, or the death of the executor.

When a tick takes no queue item, `run_forever` waits up to `IDLE_POLL`
before the next one; while wrappers run, it waits on the zygote's
pipe, so a wrapper's exit wakes it and its slot is refilled at once.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import select
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import classad
from .broker import ResourceRegistry, ce_capacity
from .classad import Integer, attr_value
from .errors import WmsError
from .faults import crash_point
from .filequeue import ACK, FileQueue
from .layout import SpoolLayout
from .submission import SubmissionDescriptor
from .util import (
    append_locked,
    atomic_write_text,
    now_ms,
    open_locked,
    python_child_env,
    python_executable,
    read_json_lines,
)

log = logging.getLogger("gridwms.executor")

TERMINAL_KINDS = ("Terminated", "Aborted", "Cancelled")
LOG_KINDS = ("Staged", "Committed", "Executing") + TERMINAL_KINDS

DEFAULT_COMMIT_TIMEOUT = 30.0
HEARTBEAT_PERIOD = 2.0  # s between heartbeats
IDLE_POLL = 0.05  # s to wait when a tick takes no queue item
WRAPPER_SETUP_FAILED = 125
# one wrapper as a process of its own: `python -S -c WRAPPER_MAIN plan.json`
WRAPPER_MAIN = "from gridwms.wrapper import main; raise SystemExit(main())"
# the wrapper zygote: `python -S -c ZYGOTE_MAIN`; see gridwms.wrapper
ZYGOTE_MAIN = "from gridwms.wrapper import serve; raise SystemExit(serve())"
ZYGOTE_REPLY_TIMEOUT = 10.0  # s for the zygote to answer a request with a pid


class UnknownHandleError(WmsError):
    code = "UnknownHandle"


class AlreadyTerminalError(WmsError):
    code = "AlreadyTerminal"


class InvalidDescriptorError(WmsError):
    code = "InvalidDescriptor"


@dataclass
class StagedJob:
    """A live attempt.  Its staged file holds the handle, descriptor and
    staging time; the flags mirror its records in job.log."""

    descriptor: SubmissionDescriptor
    staged_at: int
    committed: bool = False
    started: bool = False

    @property
    def handle(self) -> str:
        return self.descriptor.idem_key

    def as_dict(self) -> dict:
        return {"handle": self.handle, "descriptor": self.descriptor.as_dict(), "staged_at": self.staged_at}

    @classmethod
    def from_dict(cls, obj: dict) -> "StagedJob":
        return cls(descriptor=SubmissionDescriptor.from_dict(obj["descriptor"]), staged_at=int(obj["staged_at"]))


@dataclass
class SimCE:
    ce_id: str
    slots: int
    running: set = field(default_factory=set)

    @property
    def free_slots(self) -> int:
        return max(0, self.slots - len(self.running))


class ZygoteLostError(OSError):
    """The zygote died, or did not answer a request in time."""


class WrapperProcess:
    """A wrapper that the zygote forked; `poll` answers as `Popen.poll` does."""

    __slots__ = ("pid", "returncode", "zygote")

    def __init__(self, zygote: Zygote, pid: int):
        self.pid = pid
        self.returncode: int | None = None
        self.zygote = zygote

    def poll(self) -> int | None:
        if self.returncode is None:
            self.zygote.read()
        return self.returncode


class Zygote:
    """The wrapper zygote process and the executor's end of its two pipes."""

    def __init__(self):
        self.env = python_child_env()  # each wrapper's, before the variables its job adds
        self.proc = subprocess.Popen(
            [python_executable(), "-S", "-c", ZYGOTE_MAIN],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.env,
            start_new_session=True,
        )
        self._out = self.proc.stdout.fileno()
        os.set_blocking(self._out, False)
        self._rest = b""
        self._reply: WrapperProcess | str | None = None  # the answer to the last request
        self.children: dict[int, WrapperProcess] = {}  # started, exit not reported yet
        self.alive = True

    def spawn(self, run_dir: Path, plan_path: Path, env: dict[str, str]) -> WrapperProcess:
        """Have the zygote fork the wrapper of one job; raises OSError if it
        could not, ZygoteLostError if the zygote is gone or did not answer."""
        request = json.dumps({"dir": str(run_dir), "plan": str(plan_path), "env": env})
        try:
            self.proc.stdin.write(request.encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as exc:
            self.alive = False
            raise ZygoteLostError(f"request not sent: {exc}") from exc
        deadline = time.monotonic() + ZYGOTE_REPLY_TIMEOUT
        while self._reply is None:
            left = deadline - time.monotonic()
            if not self.alive or left <= 0 or not select.select([self._out], [], [], left)[0]:
                self.alive = False
                self.proc.kill()  # a zygote that does not answer is not trusted again
                raise ZygoteLostError("no reply to a request")
            self.read()
        reply, self._reply = self._reply, None
        if isinstance(reply, str):
            raise OSError(reply)
        return reply

    def read(self) -> None:
        """Take in every line the zygote has written: exits and the reply."""
        while self.alive:
            try:
                data = os.read(self._out, 1 << 16)
            except BlockingIOError:
                return
            if not data:
                self.alive = False  # end of file: the zygote is gone
                return
            *lines, self._rest = (self._rest + data).split(b"\n")
            for line in lines:
                kind, _, rest = line.decode().partition(" ")
                if kind == "exit":
                    pid, status = rest.split()
                    proc = self.children.pop(int(pid), None)
                    if proc is not None:
                        proc.returncode = os.waitstatus_to_exitcode(int(status))
                elif kind == "pid":
                    # known at once: the wrapper's exit may follow in this same read
                    self._reply = self.children[int(rest)] = WrapperProcess(self, int(rest))
                else:
                    self._reply = rest  # error <message>

    def wait(self, timeout: float) -> None:
        """Wait up to `timeout` for the zygote to write: a wrapper's exit, or
        its own end of file."""
        select.select([self._out], [], [], timeout)

    def close(self) -> None:
        """End the zygote by closing its request pipe (SIGKILL if it has not
        exited 5 s later), then reap it."""
        self.alive = False
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class JobLog:
    """Append-only executor log with strictly increasing timestamps."""

    def __init__(self, path: Path):
        self.path = path
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._last_ts = 0

    def append(self, handle: str, job_id: str, kind: str, data: dict | None = None) -> None:
        assert kind in LOG_KINDS
        fd, size = open_locked(self.path, create=True)
        try:
            ts = max(now_ms(), self._last_ts + 1)
            self._last_ts = ts
            record = {"ts": ts, "handle": handle, "jobId": job_id, "kind": kind, "data": data or {}}
            append_locked(fd, size, json.dumps(record, sort_keys=True))
        finally:
            os.close(fd)


class ExecutorService:
    """Consumes the executor-submit queue, stages and runs jobs on
    simulated CEs, and heartbeats resource availability."""

    def __init__(
        self,
        spool: SpoolLayout,
        resources_dir: Path | str | None = None,
        commit_timeout: float = DEFAULT_COMMIT_TIMEOUT,
        fake_cpu_seconds: float | None = None,
        gateway_addr: str | None = None,
    ):
        self.spool = spool.ensure()
        self.queue = FileQueue(spool.executor_submit)
        self.job_log = JobLog(spool.executor_log)
        self.commit_timeout = commit_timeout
        self.fake_cpu_seconds = fake_cpu_seconds
        self.gateway_addr = gateway_addr
        self.owner = f"executor-{os.getpid()}"
        self.jobs: dict[str, StagedJob] = {}  # live attempts by handle
        self.finished: set[str] = set()  # handles with a terminal record
        self.procs: dict[str, WrapperProcess] = {}  # running wrappers by handle
        self._zygote: Zygote | None = None
        self.ces: dict[str, SimCE] = {}
        self._ce_ads: dict[str, classad.ClassAd] = {}
        self._published: dict[str, int] = {}  # FreeCPUs last written to each CE's live ad
        self._last_heartbeat = 0.0
        self._load_ces(Path(resources_dir) if resources_dir else spool.resources_static)
        self._load_attempts()

    # -- setup / recovery -------------------------------------------------

    def _load_ces(self, resources_dir: Path) -> None:
        for rid, entry in ResourceRegistry(static_dir=resources_dir).snapshot().items():
            if entry.type != "CE":
                continue
            self.ces[rid] = SimCE(ce_id=rid, slots=ce_capacity(entry.ad))
            self._ce_ads[rid] = entry.ad

    def _staged_path(self, handle: str) -> Path:
        return self.spool.executor_staged / f"{handle}.json"

    def _load_attempts(self) -> None:
        """Rebuild the finished handles and the live attempts' flags from
        one read of job.log.  A live attempt counts as started once its
        run directory exists, even if the crash came before its Executing
        record, so recovery kills its wrapper instead of running it twice.
        """
        seen: dict[str, set[str]] = {}
        for record in read_json_lines(self.spool.executor_log):
            handle, kind = str(record.get("handle")), record.get("kind")
            if kind in TERMINAL_KINDS:
                self.finished.add(handle)
            else:
                seen.setdefault(handle, set()).add(kind)
        for entry in sorted(os.listdir(self.spool.executor_staged)):
            if not entry.endswith(".json"):
                continue
            handle = entry[: -len(".json")]
            if handle in self.finished:
                self._discard(handle)  # the crash came between the terminal record and the cleanup
                continue
            try:
                job = StagedJob.from_dict(json.loads((self.spool.executor_staged / entry).read_text()))
            except (ValueError, KeyError) as exc:
                log.warning("skipping corrupt staged record %s: %s", entry, exc)
                continue
            kinds = seen.get(handle, set())
            job.committed = "Committed" in kinds
            job.started = "Executing" in kinds or self.spool.run_dir(handle).is_dir()
            self.jobs[handle] = job

    def _discard(self, handle: str) -> None:
        """Delete a finished attempt's files: the run directory first, so
        that no run directory outlives its staged file."""
        shutil.rmtree(self.spool.run_dir(handle), ignore_errors=True)
        try:
            os.unlink(self._staged_path(handle))
        except FileNotFoundError:
            pass

    def recover(self) -> int:
        """Startup recovery: reclaim dead queue claims and close out jobs
        whose wrapper processes did not survive the previous incarnation.

        A live attempt that had started gets an Aborted record; its pid
        group is killed first in case the wrapper outlived us.  Finished
        attempts are not live, preserving at-most-once completion.
        """
        recovered = 0
        self.queue.recover_dead_owners()
        self.queue.recover_scan()
        for job in list(self.jobs.values()):
            if job.started:
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

    def stage(self, descriptor: SubmissionDescriptor) -> str:
        """Phase one: durably record the attempt; returns its handle.
        Idempotent: an attempt that is live or finished is not staged again."""
        handle = descriptor.idem_key
        if handle in self.jobs or handle in self.finished:
            return handle
        if not descriptor.submit_to or descriptor.submit_to not in self.ces:
            raise InvalidDescriptorError(f"descriptor targets unknown CE {descriptor.submit_to!r}")
        if not descriptor.plan.command:
            raise InvalidDescriptorError("descriptor has an empty command")
        job = StagedJob(descriptor=descriptor, staged_at=now_ms())
        crash_point("executor.before_stage_persist")
        atomic_write_text(self._staged_path(handle), json.dumps(job.as_dict(), sort_keys=True))
        self.jobs[handle] = job
        self.job_log.append(
            handle, descriptor.job_id, "Staged", {"ceId": descriptor.submit_to, "attempt": descriptor.attempt}
        )
        crash_point("executor.after_stage")
        return handle

    def commit(self, handle: str) -> None:
        """Phase two: make the job runnable.  Idempotent."""
        if handle in self.finished:
            return
        job = self.jobs.get(handle)
        if job is None:
            raise UnknownHandleError(f"unknown handle {handle}")
        if job.committed:
            return
        job.committed = True
        self.job_log.append(handle, job.descriptor.job_id, "Committed", {"ceId": job.descriptor.submit_to})
        crash_point("executor.after_commit")

    def cancel(self, handle: str) -> None:
        """Remove a staged/queued job or kill a running one; appends a
        single Cancelled record."""
        if handle in self.finished:
            raise AlreadyTerminalError(f"handle {handle} already terminal")
        job = self.jobs.get(handle)
        if job is None:
            raise UnknownHandleError(f"unknown handle {handle}")
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
        live = [job.handle for job in self.jobs.values() if job.descriptor.job_id == job_id]
        for handle in live:
            self.cancel(handle)
        return len(live)

    def _abort(self, job: StagedJob, reason: str) -> None:
        self._finish(job, "Aborted", {"reason": reason})

    def _refuse(self, descriptor: SubmissionDescriptor, reason: str) -> None:
        """Close an attempt that `stage` rejected with a terminal record, so
        the job leaves READY and a re-delivery of it is absorbed."""
        handle = descriptor.idem_key
        log.warning("refusing attempt %s: %s", handle, reason)
        self.job_log.append(handle, descriptor.job_id, "Aborted", {"reason": reason, "ceId": descriptor.submit_to})
        self.finished.add(handle)

    def _finish(self, job: StagedJob, kind: str, data: dict) -> None:
        handle = job.handle
        ce = self.ces.get(job.descriptor.submit_to)
        if ce:
            ce.running.discard(handle)
        self.procs.pop(handle, None)
        payload = dict(data)
        payload.setdefault("ceId", job.descriptor.submit_to)
        self.job_log.append(handle, job.descriptor.job_id, kind, payload)
        self.finished.add(handle)
        del self.jobs[handle]
        self._discard(handle)

    # -- execution ------------------------------------------------------------

    def _start_job(self, job: StagedJob, ce: SimCE) -> None:
        run_dir = self.spool.run_dir(job.handle)
        # from here on, a restart counts the attempt as started (see _load_attempts)
        run_dir.mkdir(parents=True, exist_ok=True)
        plan = job.descriptor.plan
        plan_path = run_dir / "plan.json"
        # no fsync: only this wrapper reads the plan, and after a crash the
        # run directory alone makes recovery abort the attempt
        plan_path.write_text(json.dumps(plan.as_dict(), sort_keys=True))
        try:
            if self._zygote is None:
                self._zygote = Zygote()
            # only what this job adds to the zygote's environment; the
            # executor's settings yield to that environment's own values
            env = {**plan.env, "WMS_SCRATCH": str(run_dir)}
            if self.fake_cpu_seconds is not None and "WMS_FAKE_CPU_SECONDS" not in self._zygote.env:
                env.setdefault("WMS_FAKE_CPU_SECONDS", str(self.fake_cpu_seconds))
            if self.gateway_addr and "WMS_GATEWAY" not in self._zygote.env:
                env.setdefault("WMS_GATEWAY", self.gateway_addr)
            proc = self._zygote.spawn(run_dir, plan_path, env)
        except ZygoteLostError as exc:
            self._kill_run_dir(job.handle)  # in case the wrapper was forked
            self._abort(job, f"wrapper spawn failed: wrapper zygote lost: {exc}")
            self._zygote_lost()
            return
        except OSError as exc:
            self._abort(job, f"wrapper spawn failed: {exc}")
            return
        crash_point("executor.after_spawn")
        job.started = True
        self.procs[job.handle] = proc
        ce.running.add(job.handle)
        self.job_log.append(job.handle, job.descriptor.job_id, "Executing", {"ceId": ce.ce_id})
        crash_point("executor.after_executing")

    def _zygote_lost(self) -> None:
        """Kill and abort every wrapper the zygote started and did not
        report, as a restart would; the next job starts a new zygote."""
        self.close()
        for handle, proc in list(self.procs.items()):
            if proc.returncode is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                self._abort(self.jobs[handle], "wrapper zygote lost")

    def close(self) -> None:
        """End the wrapper zygote, if one runs.  Running wrappers go on, as
        after a crash; the next start's `recover()` aborts them."""
        if self._zygote is not None:
            self._zygote.close()
            self._zygote = None

    def _reap(self) -> None:
        if self._zygote is not None:
            self._zygote.read()
        for handle, proc in list(self.procs.items()):
            rc = proc.returncode
            if rc is None:
                continue
            job = self.jobs[handle]
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
        if self._zygote is not None and not self._zygote.alive:
            self._zygote_lost()

    def _read_wrapper_result(self, handle: str) -> dict | None:
        path = self.spool.run_dir(handle) / "wrapper.result"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def _schedule(self) -> None:
        queued = sorted(
            (j for j in self.jobs.values() if j.committed and not j.started), key=lambda j: (j.staged_at, j.handle)
        )
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
            if not job.committed and job.staged_at < deadline:
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
                    try:
                        # a duplicate of a finished attempt is absorbed by both calls
                        self.commit(self.stage(descriptor))
                    except WmsError as exc:
                        self._refuse(descriptor, str(exc))
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
        """Publish each CE's current availability for the broker.

        A CE's ad is rewritten only when its FreeCPUs differs from what this
        executor last published there; otherwise the heartbeat only
        advances the ad's mtime, which is all the registry reads from an
        unchanged ad.  The touch is not fsynced: a crash that loses it only
        makes the CE look older until the next heartbeat.
        """
        self.spool.resources_live.mkdir(parents=True, exist_ok=True)
        for rid, ce in self.ces.items():
            ad = self._ce_ads.get(rid)
            if ad is None:
                continue
            # the registry rejects FreeCPUs > TotalCPUs, and Slots may exceed TotalCPUs
            free = min(ce.free_slots, attr_value(ad, "totalcpus").value)
            path = self.spool.resources_live / f"{rid}.ad"
            if self._published.get(rid) == free:
                try:
                    os.utime(path)
                    continue
                except FileNotFoundError:
                    pass  # removed since: write it again
            updated = ad.with_attr("FreeCPUs", classad.Literal(Integer(free)))
            atomic_write_text(path, updated.unparse())
            self._published[rid] = free

    # -- main loop ----------------------------------------------------------------

    def tick(self) -> int:
        handled = self._consume_queue()
        self._gc_uncommitted()
        self._reap()  # first, so that a slot freed now is filled in this tick
        self._schedule()
        if time.monotonic() - self._last_heartbeat >= HEARTBEAT_PERIOD:
            self.heartbeat()
            self._last_heartbeat = time.monotonic()
        return handled

    def run_forever(self, stop: threading.Event | None = None) -> None:
        self.recover()
        self.heartbeat()
        try:
            while stop is None or not stop.is_set():
                busy = self.tick()
                if not busy:
                    self._idle(IDLE_POLL)
        finally:
            self.close()

    def _idle(self, poll: float) -> None:
        """Wait up to `poll` before the next tick.  While wrappers run, wait
        on the zygote's pipe: a wrapper's exit wakes the executor at once,
        and the next tick reaps it and refills its slot.  A zygote at end
        of file wakes it too, and that tick's `_reap` replaces the zygote."""
        if any(proc.returncode is not None for proc in self.procs.values()):
            return  # an exit that a spawn read waits to be reaped
        zygote = self._zygote
        if zygote is not None and zygote.alive and zygote.children:
            zygote.wait(poll)
        else:
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
