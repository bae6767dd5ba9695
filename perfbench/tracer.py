"""Spans around the public calls of each gridwms layer.

`install()` wraps the callables listed in `TARGETS` where the program
looks them up: class attributes on their class, module functions in
every gridwms module that imported them by name.  Each call records one
span (name, id, parent id, start, end) in a per-thread buffer, with the
parent taken from a thread-local stack, so self time can be computed
later.  Spans stay in memory until `dump()` writes them out.

A few wrappers also feed counters and samples that a span cannot carry:
queue depth, claim hits, request-queue items read inside a submit, and
the log monitor's forwarding lag.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, class or None, attribute, span name)
TARGETS = [
    ("gridwms.gateway", "GatewayCore", "dispatch", None),  # named gateway.<cmd>
    ("gridwms.filequeue", "FileQueue", "enqueue", "filequeue.enqueue"),
    ("gridwms.filequeue", "FileQueue", "claim", "filequeue.claim"),
    ("gridwms.filequeue", "FileQueue", "settle", "filequeue.settle"),
    ("gridwms.filequeue", "FileQueue", "recover_scan", "filequeue.recover_scan"),
    ("gridwms.manager", "WorkloadManager", "handle_request", "manager.handle_request"),
    ("gridwms.manager", "WorkloadManager", "run_scans", "manager.run_scans"),
    ("gridwms.manager", "WorkloadManager", "abort_scan", "manager.abort_scan"),
    ("gridwms.manager", "WorkloadManager", "dag_scan", "manager.dag_scan"),
    ("gridwms.manager", "WorkloadManager", "charge_scan", "manager.charge_scan"),
    ("gridwms.manager", "WorkloadManager", "stuck_scan", "manager.stuck_scan"),
    ("gridwms.broker", "Broker", "resolve", "broker.resolve"),
    ("gridwms.broker", "ResourceRegistry", "snapshot", "broker.snapshot"),
    ("gridwms.classad", None, "parse_ad", "classad.parse_ad"),
    ("gridwms.jdl", None, "validate_job", "jdl.validate_job"),
    ("gridwms.bookkeeping", "BookkeepingStore", "log_event", "bookkeeping.log_event"),
    ("gridwms.bookkeeping", "BookkeepingStore", "job_record", "bookkeeping.job_record"),
    ("gridwms.bookkeeping", "BookkeepingStore", "events_of", "bookkeeping.events_of"),
    ("gridwms.bookkeeping", "BookkeepingStore", "list_jobs", "bookkeeping.list_jobs"),
    ("gridwms.bookkeeping", "BookkeepingStore", "exists", "bookkeeping.exists"),
    ("gridwms.bookkeeping", "BookkeepingStore", "query", "bookkeeping.query"),
    ("gridwms.bookkeeping", "BookkeepingStore", "save_state", "bookkeeping.save_state"),
    ("gridwms.bookkeeping", "BookkeepingStore", "get_state", "bookkeeping.get_state"),
    ("gridwms.executor", "ExecutorService", "tick", "executor.tick"),
    ("gridwms.executor", "ExecutorService", "heartbeat", "executor.heartbeat"),
    ("gridwms.executor", "ExecutorService", "stage", "executor.stage"),
    ("gridwms.executor", "ExecutorService", "commit", "executor.commit"),
    ("gridwms.logmonitor", None, "tail_and_translate", "logmonitor.tail"),
    ("gridwms.accounting", "Ledger", "charge_job", "accounting.charge_job"),
]

# gateway commands whose span counts request-queue reads (a release of a
# held job happens inside the upload that completes its sandbox)
SUBMIT_COMMANDS = ("submit", "submit-dag", "sandbox-put")


class _Buffer:
    """One thread's spans, in flat typed arrays (about 30 bytes a span)."""

    def __init__(self):
        self.name = array("H")
        self.sid = array("Q")
        self.parent = array("Q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []  # open span ids
        self.names: list[int] = []  # open span name ids
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.depth: dict[str, int] = {}
        self.depth_max: Counter = Counter()
        # perf_counter() + offset = wall-clock seconds
        self.offset = time.time() - time.perf_counter()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def span(self, fn, nid_of, probe=None):
        """Wrap `fn`; `nid_of(args)` names the span, `probe(buf, args, result, t0, t1)` may count."""
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self.buffer()
            sid = next(ids)
            nid = nid_of(args)
            parent = buf.stack[-1] if buf.stack else 0
            buf.stack.append(sid)
            buf.names.append(nid)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                buf.stack.pop()
                buf.names.pop()
                buf.name.append(nid)
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.start.append(t0)
                buf.end.append(t1)
                if probe is not None:
                    probe(buf, args, result, t0, t1)

        return traced

    def _queue_delta(self, queue, delta: int) -> None:
        name = queue.root.name
        with self._lock:
            if name not in self.depth:
                self.depth[name] = queue.pending_count() - delta  # items before this op
            self.depth[name] += delta
            self.depth_max[name] = max(self.depth_max[name], self.depth[name])

    # -- probes ------------------------------------------------------------

    def _on_enqueue(self, buf, args, result, t0, t1):
        if result is not None:
            self._queue_delta(args[0], +1)

    def _on_settle(self, buf, args, result, t0, t1):
        if len(args) > 2 and args[2] == "ack":
            self._queue_delta(args[0], -1)

    def _on_claim(self, buf, args, result, t0, t1):
        buf.counts["filequeue.claims"] += 1
        if result is not None:
            buf.counts["filequeue.claim_hits"] += 1

    def _on_log_event(self, buf, args, result, t0, t1):
        event = args[1]
        if result and event.source == "LogMonitor":
            buf.samples.setdefault("logmonitor.lag_ms", []).append((t1 + self.offset) * 1000 - event.ts)

    def _on_job_record(self, buf, args, result, t0, t1):
        if self._run_scans in buf.names:
            buf.counts["manager.scan_records"] += 1

    def _on_validate(self, buf, args, result, t0, t1):
        if self._validate not in buf.names:  # outermost call only
            buf.counts["jdl.validate_job.busy_ms"] += (t1 - t0) * 1000

    def _on_tail(self, buf, args, result, t0, t1):
        if result:
            buf.samples.setdefault("logmonitor.tail_busy_ms", []).append((t1 - t0) * 1000)

    def counting_items(self, fn, submit_nids: set[int]):
        """Wrap the generator `FileQueue.iter_items`, counting items it
        yields inside a gateway submit or upload."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self.buffer()
            inside = any(n in submit_nids for n in buf.names)
            for item in fn(*args, **kwargs):
                if inside:
                    buf.counts["gateway.queue_reads"] += 1
                yield item

        return traced

    # -- install and dump ---------------------------------------------------

    def install(self) -> None:
        import importlib

        self._run_scans = self.name_id("manager.run_scans")
        self._validate = self.name_id("jdl.validate_job")
        probes = {
            "bookkeeping.job_record": self._on_job_record,
            "jdl.validate_job": self._on_validate,
            "filequeue.enqueue": self._on_enqueue,
            "filequeue.settle": self._on_settle,
            "filequeue.claim": self._on_claim,
            "bookkeeping.log_event": self._on_log_event,
            "logmonitor.tail": self._on_tail,
        }
        for module_name, cls_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = getattr(owner, attr)
            if span_name is None:  # GatewayCore.dispatch(self, cmd, user, args)
                by_cmd: dict[str, int] = {}

                def nid_of(args, by_cmd=by_cmd):
                    cmd = args[1]
                    nid = by_cmd.get(cmd)
                    if nid is None:
                        nid = by_cmd[cmd] = self.name_id(f"gateway.{cmd}")
                    return nid

                wrapped = self.span(original, nid_of)
            else:
                nid = self.name_id(span_name)
                wrapped = self.span(original, lambda args, nid=nid: nid, probes.get(span_name))
            setattr(owner, attr, wrapped)
            if cls_name is None:
                # callers that imported the function by name look it up in
                # their own module
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("gridwms") and mod is not None:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
        from gridwms.filequeue import FileQueue

        submit_nids = {self.name_id(f"gateway.{c}") for c in SUBMIT_COMMANDS}
        FileQueue.iter_items = self.counting_items(FileQueue.iter_items, submit_nids)

    def dump(self, path: Path) -> None:
        """Write spans as five flat arrays (`<path>.bin`) plus a JSON header."""
        with self._lock:
            buffers = list(self._buffers)
        columns = {"name": array("H"), "sid": array("Q"), "parent": array("Q"),
                   "start": array("d"), "end": array("d")}
        counts: Counter = Counter()
        samples: dict[str, list[float]] = {}
        for buf in buffers:
            n = min(len(buf.name), len(buf.sid), len(buf.parent), len(buf.start), len(buf.end))
            for key, col in columns.items():
                col.extend(getattr(buf, key)[:n])
            counts.update(buf.counts)
            for key, values in buf.samples.items():
                samples.setdefault(key, []).extend(values)
        with open(str(path) + ".bin", "wb") as fh:
            for col in columns.values():
                col.tofile(fh)
        header = {
            "spans": len(columns["name"]),
            "columns": [[k, c.typecode] for k, c in columns.items()],
            "names": self.names,
            "offset": self.offset,
            "counts": dict(counts),
            "samples": samples,
            "depth_max": dict(self.depth_max),
        }
        Path(path).write_text(json.dumps(header))


def load(path: Path) -> tuple[dict, dict[str, array]]:
    header = json.loads(Path(path).read_text())
    columns: dict[str, array] = {}
    with open(str(path) + ".bin", "rb") as fh:
        for key, typecode in header["columns"]:
            col = array(typecode)
            col.fromfile(fh, header["spans"])
            columns[key] = col
    return header, columns
