"""Event-sourced job bookkeeping: the only persistent job repository.

Every component pushes events here; the store derives a state-machine
view per job from the accumulated event multiset.  Derivation is
deliberately order-independent: events are first put in a canonical
content order (timestamp, source, source-sequence, kind, payload), the
attempt count is the number of Resubmitted events plus one, and within
the newest attempt the state is the highest-precedence kind seen.  That
makes the derived state robust against events arriving reordered through
queues and the log tail, and makes full-log replay idempotent.

Storage is one append-only JSON-lines file per job:

    lbstore/<2-hex shard>/<jobId>.events
    {"job":..,"src":..,"sseq":..,"ts":..,"kind":..,"payload":{..}}

Duplicate (job, source, sseq) triples are acknowledged without effect.

An append opens the events file once and takes an exclusive flock on
that descriptor; every writer does the same, so the size read under the
lock is the end that the append extends, and no sidecar lock file is
made.  `log_events` appends several events of one job in one write and
one fsync, each deduplicated as `log_event` would.  Only a Registered
event may create the file (and its shard directory); the first one
fsyncs the shard directory too, so the job id the gateway hands out
names a durable file.  A crash can leave a torn last line: the next
append starts with a newline, so the torn tail stays on its own line,
which every reader skips.

A store caches each live job's parsed events with the file's size.  A
store's own appends update its cache: the new event is inserted in
canonical order, as a fresh parse would place it.  A change by another
process shows as a different size, so the file is parsed once more.  A
store caches only jobs it has read, so a store that only writes keeps
no events.  The workload manager's scan pass `settle`s a job that no
scan will act on again (terminal, and charged or with nothing left to
do): the store then keeps only the file's size and a `JobSummary` of
what a query reads (owner, state, destination, tags) and drops the
events.  `records()` skips a settled job, and `query` answers from its
summary, while the file keeps that size, which one `stat` per job
checks; an event appended since, by any process, makes the job live
again.  Reading a settled job (`job_record`, `events_of`) parses its
file without caching it.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import UnknownJobError, WmsError
from .util import append_locked, fsync_dir, now_ms, open_locked

SOURCES = ("UI", "Gateway", "WM", "Broker", "Executor", "LogMonitor", "JobWrapper")

KINDS = (
    "Registered",
    "Accepted",
    "Refused",
    "Matched",
    "Staged",
    "Committed",
    "Running",
    "Chkpt",
    "Done",
    "Aborted",
    "Cancelled",
    "Resubmitted",
    "Cleared",
    "UserTag",
)

# kinds that only mark a hand-off between components, like the gateway's
# Released (a held job's request was enqueued once): derivation skips
# them, as it skips UserTag, so the state machine's kinds stay KINDS
MARKER_KINDS = ("Released",)


class JobState(str, Enum):
    SUBMITTED = "SUBMITTED"
    WAITING = "WAITING"
    READY = "READY"
    SCHEDULED = "SCHEDULED"
    RUNNING = "RUNNING"
    DONE_OK = "DONE_OK"
    DONE_FAILED = "DONE_FAILED"
    ABORTED = "ABORTED"
    CANCELLED = "CANCELLED"
    CLEARED = "CLEARED"


TERMINAL_STATES = frozenset(
    {JobState.DONE_OK, JobState.DONE_FAILED, JobState.ABORTED, JobState.CANCELLED, JobState.CLEARED}
)

# precedence ladder; the four completion states share a level and the
# latest one in canonical order wins a tie
_STATE_RANK = {
    JobState.SUBMITTED: 0,
    JobState.WAITING: 1,
    JobState.READY: 2,
    JobState.SCHEDULED: 3,
    JobState.RUNNING: 4,
    JobState.DONE_OK: 5,
    JobState.DONE_FAILED: 5,
    JobState.CANCELLED: 5,
    JobState.ABORTED: 5,
    JobState.CLEARED: 6,
}

# kind -> (rank, state) for kinds that move the machine; Done is special
_KIND_EFFECT: dict[str, tuple[int, JobState]] = {
    "Registered": (0, JobState.SUBMITTED),
    "Accepted": (1, JobState.WAITING),
    "Refused": (5, JobState.ABORTED),
    "Matched": (2, JobState.READY),
    "Committed": (3, JobState.SCHEDULED),
    "Running": (4, JobState.RUNNING),
    "Aborted": (5, JobState.ABORTED),
    "Cancelled": (5, JobState.CANCELLED),
    "Cleared": (6, JobState.CLEARED),
}


class NoSuchStateError(WmsError):
    code = "NoSuchState"


class BadQueryError(WmsError):
    code = "BadQuery"


@dataclass(frozen=True, eq=False, slots=True)
class Event:
    job: str
    source: str
    sseq: int
    ts: int
    kind: str
    payload: dict[str, str]
    _key: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown event source {self.source!r}")
        if self.kind not in KINDS and self.kind not in MARKER_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def as_dict(self) -> dict:
        return {
            "job": self.job,
            "src": self.source,
            "sseq": self.sseq,
            "ts": self.ts,
            "kind": self.kind,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, obj: dict, payloads: dict[tuple, dict[str, str]]) -> "Event":
        # A store caches the live jobs it reads, and events repeat the same
        # strings (job id, source, kind, payload keys, destinations):
        # interned, each is held once.  Whole payloads repeat too ({}, a
        # destination, a user tag): one equal to a payload in the table
        # `payloads` is replaced by it, so payloads are read-only.
        payload = {sys.intern(str(k)): sys.intern(str(v)) for k, v in dict(obj.get("payload") or {}).items()}
        payload = payloads.setdefault(tuple(payload.items()), payload)
        return cls(
            job=sys.intern(str(obj["job"])),
            source=sys.intern(str(obj["src"])),
            sseq=int(obj["sseq"]),
            ts=int(obj["ts"]),
            kind=sys.intern(str(obj["kind"])),
            payload=payload,
        )


def _content_key(ev: Event) -> tuple:
    """Canonical order of events, from their content alone."""
    return (ev.ts, ev.source, ev.sseq, ev.kind, json.dumps(ev.payload, sort_keys=True, separators=(",", ":")))


def _event_key(ev: Event) -> tuple:
    # kept on the event, because state derivation over large event sets
    # is a hot path; the store's cached events are kept sorted instead
    if ev._key is None:
        object.__setattr__(ev, "_key", _content_key(ev))
    return ev._key


def derive_state(events: Iterable[Event]) -> tuple[JobState, int]:
    """Derive (state, attempt) from an event multiset.

    Pure and permutation-robust: any delivery order of the same multiset
    yields the same result.  Cleared is absorbing; a Resubmitted event
    opens a new attempt whose baseline is WAITING.
    """
    return _derive_ordered(sorted(events, key=_event_key))


def _derive_ordered(ordered: Sequence[Event]) -> tuple[JobState, int]:
    attempt = 1
    seg_start = 0
    cleared = False
    for i, ev in enumerate(ordered):
        kind = ev.kind
        if kind == "Resubmitted":
            attempt += 1
            seg_start = i + 1
        elif kind == "Cleared":
            cleared = True
    if cleared:
        return JobState.CLEARED, attempt
    state = JobState.SUBMITTED if attempt == 1 else JobState.WAITING
    rank = _STATE_RANK[state]
    effects = _KIND_EFFECT
    for ev in ordered[seg_start:]:
        kind = ev.kind
        if kind == "Done":
            eff_rank, eff_state = 5, (
                JobState.DONE_OK if ev.payload.get("exitCode") == "0" else JobState.DONE_FAILED
            )
        else:
            eff = effects.get(kind)
            if eff is None:
                continue  # Staged, Chkpt, UserTag never move the machine
            eff_rank, eff_state = eff
        if eff_rank >= rank:
            rank = eff_rank
            state = eff_state
    return state, attempt


@dataclass
class JobRecord:
    """A job's derived view.  Destination, exit code and CPU time are the
    current attempt's, read after the Resubmitted event that opened it; the
    payloads are the store's shared ones, so read-only."""

    job: str
    owner: str
    jdl: str
    state: JobState
    attempt: int
    destination: str | None
    exit_code: int | None
    user_tags: dict[str, str]
    checkpoint_states: list[tuple[int, list[tuple[str, str]]]]
    events: list[Event] = field(default_factory=list)
    size: int = 0  # of the events file that the record was derived from
    registered: dict[str, str] = field(default_factory=dict)  # the first Registered payload
    opened: dict[str, str] | None = None  # the newest Resubmitted payload
    cpu_seconds: float = 0.0  # from the attempt's last Done that carries one

    @property
    def newest_ts(self) -> int:
        """The newest event's timestamp: canonical order sorts by it first."""
        return self.events[-1].ts if self.events else 0


def _record(job_id: str, size: int, ordered: list[Event]) -> JobRecord:
    """A job's record from its events in canonical order, in one pass
    after the state's."""
    state, attempt = _derive_ordered(ordered)
    registered: dict[str, str] | None = None
    opened: dict[str, str] | None = None
    destination: str | None = None
    exit_code: int | None = None
    cpu_seconds = 0.0
    user_tags: dict[str, str] = {}
    checkpoints: dict[int, list[tuple[str, str]]] = {}
    for ev in ordered:
        kind, payload = ev.kind, ev.payload
        if kind == "Resubmitted":  # opens an attempt
            opened, destination, exit_code, cpu_seconds = payload, None, None, 0.0
            continue
        dest = payload.get("destination")
        if dest:
            destination = dest
        if kind == "Done":
            try:
                exit_code = int(payload.get("exitCode", ""))
            except ValueError:
                exit_code = None
            if "cpuSeconds" in payload:
                try:
                    cpu_seconds = float(payload["cpuSeconds"])
                except ValueError:
                    cpu_seconds = 0.0
        elif kind == "Registered":
            if registered is None:
                registered = payload
        elif kind == "UserTag":
            name = payload.get("name")
            if name:
                user_tags[name.lower()] = payload.get("value", "")
        elif kind == "Chkpt":
            try:
                seq = int(payload.get("seq", ""))
                pairs = [(str(k), str(v)) for k, v in json.loads(payload.get("pairs", "[]"))]
            except ValueError:
                continue
            checkpoints[seq] = pairs
    registered = registered or {}
    return JobRecord(
        job=job_id,
        owner=registered.get("owner", ""),
        jdl=registered.get("jdl", ""),
        state=state,
        attempt=attempt,
        destination=destination,
        exit_code=exit_code,
        user_tags=user_tags,
        checkpoint_states=sorted(checkpoints.items()),
        events=ordered,
        size=size,
        registered=registered,
        opened=opened,
        cpu_seconds=cpu_seconds,
    )


@dataclass(frozen=True, slots=True)
class JobSummary:
    """What a query reads of a settled job, and its events file's size then."""

    job: str
    size: int
    owner: str
    state: JobState
    destination: str | None
    user_tags: dict[str, str]


@dataclass(frozen=True)
class QueryPredicate:
    field: str  # owner | state | destination | tag:<name>
    values: tuple[str, ...]


@dataclass(frozen=True)
class Query:
    predicates: tuple[QueryPredicate, ...]

    def __post_init__(self):
        if not self.predicates:
            raise BadQueryError("a query needs at least one predicate")
        for pred in self.predicates:
            f = pred.field
            if f not in ("owner", "state", "destination") and not f.startswith("tag:"):
                raise BadQueryError(f"unknown query field {f!r}")
            if not pred.values:
                raise BadQueryError(f"predicate {f!r} lists no values")


PAYLOAD_TABLE_MAX = 256


def _shard(job_id: str) -> str:
    return hashlib.sha256(job_id.encode("utf-8")).hexdigest()[:2]


class BookkeepingStore:
    """File-backed event store with rebuildable in-memory caches."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # cache: live job -> (file size, parsed events); purely derived state
        self._cache: dict[str, tuple[int, tuple[Event, ...]]] = {}
        self._settled: dict[str, JobSummary] = {}  # see settle()
        # the cached events' payloads, each held once (Event.from_dict);
        # emptied when full, as some payloads are unique (a jdl, a cpu time)
        self._payloads: dict[tuple, dict[str, str]] = {}

    # -- paths ----------------------------------------------------------

    def _events_file(self, job_id: str) -> str:
        # a string, not a Path: a scan pass or a query builds one per listed job
        return f"{self.root}/{_shard(job_id)}/{job_id}.events"

    def _events_path(self, job_id: str) -> Path:
        return Path(self._events_file(job_id))

    # -- event ingestion --------------------------------------------------

    def exists(self, job_id: str) -> bool:
        return self._events_path(job_id).exists()

    def log_event(self, event: Event) -> bool:
        """Append an event durably.  Returns False for an idempotently
        ignored duplicate (same job, source, sseq)."""
        return self.log_events([event]) == 1

    def log_events(self, batch: Sequence[Event]) -> int:
        """Append events of one job durably, with one write and one fsync;
        returns how many were new.  Each event is deduplicated on its own,
        as `log_event` would."""
        job_id = batch[0].job
        if any(ev.job != job_id for ev in batch):
            raise ValueError("a batch of events must be of one job")
        registered = any(ev.kind == "Registered" for ev in batch)
        fd, size = self._open_locked(job_id, create=registered)
        try:
            events = self._locked_events(job_id, fd, size)
            seen = {(e.source, e.sseq) for e in events}
            new = []
            for ev in batch:
                if (ev.source, ev.sseq) not in seen:  # else a duplicate: no effect
                    seen.add((ev.source, ev.sseq))
                    new.append(ev)
            if new:
                self._append(fd, size, events, new)
        finally:
            os.close(fd)
        if registered and size == 0:
            # the first line of a new (or crash-emptied) file: make the
            # file's name durable too before the job id can be handed out
            fsync_dir(os.path.dirname(self._events_file(job_id)))
        return len(new)

    def _open_locked(self, job_id: str, create: bool) -> tuple[int, int]:
        """The job's events file, open and locked (`util.open_locked`);
        UnknownJobError if it is missing and may not be created."""
        path = self._events_file(job_id)
        try:
            return open_locked(path, create)
        except FileNotFoundError:
            if not create:
                raise UnknownJobError(f"job {job_id} is not registered") from None
        os.makedirs(os.path.dirname(path), exist_ok=True)  # the shard's first job
        return open_locked(path, create)

    def _locked_events(self, job_id: str, fd: int, size: int) -> tuple[Event, ...]:
        """The events of a job whose file is locked at `size`: the cached ones
        while the cache holds that size, else parsed from the descriptor."""
        cached = self._cache.get(job_id)
        if cached is not None and cached[0] == size:
            return cached[1]
        return self._parse(os.pread(fd, size, 0))

    def _append(self, fd: int, size: int, events: tuple[Event, ...], new: list[Event]) -> None:
        """Append `new` to a locked events file that holds `events`, in one
        write, and write the cache through: a job in the cache stays there,
        with each event where a fresh parse would put it."""
        records = [ev.as_dict() for ev in new]
        new_size = append_locked(fd, size, "\n".join(json.dumps(r, sort_keys=True) for r in records))
        job_id = new[0].job
        self._settled.pop(job_id, None)  # an event since it settled: live again
        if job_id in self._cache:
            ordered = list(events)
            for record in records:
                bisect.insort(ordered, self._event(record), key=_content_key)
            self._cache[job_id] = (new_size, tuple(ordered))

    # -- reading ----------------------------------------------------------

    def _forget(self, job_id: str) -> None:
        self._cache.pop(job_id, None)
        self._settled.pop(job_id, None)

    def _event(self, obj: dict) -> Event:
        if len(self._payloads) >= PAYLOAD_TABLE_MAX:
            self._payloads.clear()
        return Event.from_dict(obj, self._payloads)

    def _parse(self, data: bytes) -> tuple[Event, ...]:
        """The events of an events file's bytes, in canonical order."""
        events: list[Event] = []
        for line in data.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(self._event(json.loads(line.decode("utf-8"))))
            except (ValueError, KeyError, UnicodeDecodeError):
                continue  # partial or corrupt line: skip
        return tuple(sorted(events, key=_content_key))

    def _load_events(self, job_id: str) -> tuple[int, tuple[Event, ...]]:
        """(file size, events in canonical order); cached unless the job is settled."""
        path = self._events_file(job_id)
        try:
            size = os.stat(path).st_size
        except FileNotFoundError:
            self._forget(job_id)
            return 0, ()
        cached = self._cache.get(job_id)
        if cached and cached[0] == size:
            return cached
        with open(path, "rb") as fh:
            loaded = (size, self._parse(fh.read(size)))
        summary = self._settled.get(job_id)
        if summary is None or summary.size != size:
            self._settled.pop(job_id, None)  # an event since it settled: live again
            self._cache[job_id] = loaded
        return loaded

    def events_of(self, job_id: str) -> list[Event]:
        """A job's events in canonical order."""
        events = self._load_events(job_id)[1]
        if not events:
            raise UnknownJobError(f"job {job_id} is not registered")
        return list(events)

    def job_record(self, job_id: str) -> JobRecord:
        size, ordered = self._load_events(job_id)
        if not ordered:
            raise UnknownJobError(f"job {job_id} is not registered")
        return _record(job_id, size, list(ordered))

    def settle(self, record: JobRecord) -> None:
        """Drop a job's parsed events because no scan will act on it again,
        keeping its summary for `query` (see the module docstring)."""
        self._cache.pop(record.job, None)
        self._settled[record.job] = JobSummary(
            record.job, record.size, record.owner, record.state, record.destination, record.user_tags
        )

    def list_jobs(self) -> list[str]:
        jobs: list[str] = []
        try:
            shards = os.listdir(self.root)
        except FileNotFoundError:
            return jobs
        for shard in shards:
            shard_dir = self.root / shard
            if not shard_dir.is_dir():
                continue
            for entry in os.listdir(shard_dir):
                if entry.endswith(".events"):
                    jobs.append(sys.intern(entry[: -len(".events")]))  # the cached events' own id
        jobs.sort()
        return jobs

    def _views(self) -> Iterator[JobRecord | JobSummary]:
        """Each listed job in jobId order: the summary of a settled job whose
        events file has kept its size, else the job's record.

        A job's events file is created just before its Registered line is
        written, so a listing can name a job that has no event yet; such a
        job is skipped until the line lands.
        """
        for job_id in self.list_jobs():
            summary = self._settled.get(job_id)
            if summary is not None:
                try:
                    if os.stat(self._events_file(job_id)).st_size == summary.size:
                        yield summary
                        continue
                except FileNotFoundError:
                    continue
            try:
                yield self.job_record(job_id)
            except UnknownJobError:
                continue

    def records(self) -> Iterator[JobRecord]:
        """The record of every listed job that is not settled, in jobId order."""
        return (view for view in self._views() if isinstance(view, JobRecord))

    # -- queries ------------------------------------------------------------

    def query(self, query: Query) -> list[str]:
        """Jobs satisfying every predicate, any listed value per predicate;
        returned in ascending jobId order."""
        return [
            view.job for view in self._views() if all(self._predicate_holds(pred, view) for pred in query.predicates)
        ]

    @staticmethod
    def _predicate_holds(pred: QueryPredicate, record: JobRecord | JobSummary) -> bool:
        if pred.field == "owner":
            return record.owner in pred.values
        if pred.field == "state":
            return record.state.value in {v.upper() for v in pred.values}
        if pred.field == "destination":
            return record.destination is not None and record.destination in pred.values
        tag = pred.field[len("tag:") :].lower()
        return record.user_tags.get(tag) in pred.values

    # -- checkpoint states ----------------------------------------------------

    def save_state(self, job_id: str, pairs: Iterable[tuple[str, str]]) -> int:
        """Append a checkpoint state; returns its 1-based sequence number.

        The state rides inside a Chkpt event so the event log remains the
        single repository.
        """
        pair_list = [(str(k), str(v)) for k, v in pairs]
        fd, size = self._open_locked(job_id, create=False)
        try:
            events = self._locked_events(job_id, fd, size)
            if not events:
                raise UnknownJobError(f"job {job_id} is not registered")
            record = _record(job_id, size, list(events))
            if record.state == JobState.CLEARED:
                raise UnknownJobError(f"job {job_id} is cleared")
            seq = max((s for s, _pairs in record.checkpoint_states), default=0) + 1
            sseq = max((e.sseq for e in events if e.source == "UI"), default=0) + 1
            event = Event(
                job=job_id,
                source="UI",
                sseq=sseq,
                ts=now_ms(),
                kind="Chkpt",
                payload={"seq": str(seq), "pairs": json.dumps(pair_list)},
            )
            self._append(fd, size, events, [event])
        finally:
            os.close(fd)
        return seq

    def get_state(self, job_id: str, seq: int | None = None) -> list[tuple[str, str]]:
        record = self.job_record(job_id)
        if not record.checkpoint_states:
            raise NoSuchStateError(f"job {job_id} has no saved states")
        if seq is None:
            return record.checkpoint_states[-1][1]
        for s, pairs in record.checkpoint_states:
            if s == seq:
                return pairs
        raise NoSuchStateError(f"job {job_id} has no state seq {seq}")
