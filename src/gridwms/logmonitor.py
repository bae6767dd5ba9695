"""Log monitor: tails the executor job log and forwards state-affecting
records to the bookkeeping store.

The byte offset of the last fully processed record is persisted only
after the store acknowledges the forwarded events, so a crash between
forwarding and persisting re-sends records; each event's source sequence
is derived from its byte offset in the log, making re-sends exact
duplicates that the store absorbs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import threading
import time
from pathlib import Path

from .bookkeeping import BookkeepingStore, Event
from .errors import UnknownJobError
from .faults import crash_point
from .layout import SpoolLayout
from .util import atomic_write_text

log = logging.getLogger("gridwms.logmonitor")

IDLE_POLL = 0.05  # s to wait when a tick forwards nothing

# executor record kind -> bookkeeping event kind
KIND_MAP = {
    "Committed": "Committed",
    "Executing": "Running",
    "Terminated": "Done",
    "Aborted": "Aborted",
    "Cancelled": "Cancelled",
}


def _read_offset(offset_path: Path) -> int:
    try:
        return int(offset_path.read_text().strip() or "0")
    except (FileNotFoundError, ValueError):
        return 0


def tail_and_translate(log_path: Path, offset_path: Path, store: BookkeepingStore) -> int:
    """Process records past the persisted offset; returns events forwarded.

    Corrupt lines are skipped with a diagnostic; a truncated final line
    (no newline yet) is left for the next pass.
    """
    offset = _read_offset(offset_path)
    try:
        with open(log_path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return 0
    if not data:
        return 0

    forwarded = 0
    consumed = 0
    pos = 0
    while True:
        newline = data.find(b"\n", pos)
        if newline < 0:
            break  # incomplete tail record: wait for the rest
        line = data[pos:newline]
        record_offset = offset + pos
        pos = newline + 1
        consumed = pos
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped.decode("utf-8"))
            kind = str(record["kind"])
            job_id = str(record["jobId"])
            ts = int(record["ts"])
            record_data = dict(record.get("data") or {})
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            log.warning("skipping corrupt log record at offset %d: %s", record_offset, exc)
            continue
        mapped = KIND_MAP.get(kind)
        if mapped is None:
            continue  # Staged and other non-state kinds are not forwarded
        payload: dict[str, str] = {}
        if "exitCode" in record_data:
            payload["exitCode"] = str(record_data["exitCode"])
        if "cpuSeconds" in record_data:
            payload["cpuSeconds"] = str(record_data["cpuSeconds"])
        if "ceId" in record_data:
            payload["destination"] = str(record_data["ceId"])
        if "reason" in record_data:
            payload["reason"] = str(record_data["reason"])
        event = Event(
            job=job_id,
            source="LogMonitor",
            sseq=record_offset + 1,  # byte offsets are unique and replay-stable
            ts=ts,
            kind=mapped,
            payload=payload,
        )
        try:
            store.log_event(event)
        except UnknownJobError:
            log.warning("log record for unregistered job %s dropped", job_id)
            continue
        forwarded += 1
        crash_point("logmonitor.after_forward")

    if consumed:
        atomic_write_text(offset_path, str(offset + consumed))
        crash_point("logmonitor.after_offset")
    return forwarded


class LogMonitor:
    def __init__(self, spool: SpoolLayout):
        self.spool = spool
        self.store = BookkeepingStore(spool.lb_root)

    def tick(self) -> int:
        return tail_and_translate(self.spool.executor_log, self.spool.executor_log_offset, self.store)

    def run_forever(self, stop: threading.Event | None = None) -> None:
        while stop is None or not stop.is_set():
            if not self.tick():
                time.sleep(IDLE_POLL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wms-logmonitor", description="executor log tailer")
    parser.add_argument("--spool", required=True)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    os.environ.setdefault("WMS_SPOOL", args.spool)
    os.environ.setdefault("WMS_COMPONENT", "logmonitor")
    LogMonitor(SpoolLayout(Path(args.spool)).ensure()).run_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
