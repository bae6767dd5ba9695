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
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .errors import UnknownJobError, WmsError
from .util import append_line, flocked, now_ms

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
        if self.kind not in KINDS:
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
    def from_dict(cls, obj: dict) -> "Event":
        # A store caches every job it reads, and events repeat the same
        # strings (job id, source, kind, payload keys, destinations):
        # interned, each is held once.
        return cls(
            job=sys.intern(str(obj["job"])),
            source=sys.intern(str(obj["src"])),
            sseq=int(obj["sseq"]),
            ts=int(obj["ts"]),
            kind=sys.intern(str(obj["kind"])),
            payload={
                sys.intern(str(k)): sys.intern(str(v)) for k, v in dict(obj.get("payload") or {}).items()
            },
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


def _derive_ordered(ordered: list[Event]) -> tuple[JobState, int]:
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


def _shard(job_id: str) -> str:
    return hashlib.sha256(job_id.encode("utf-8")).hexdigest()[:2]


class BookkeepingStore:
    """File-backed event store with rebuildable in-memory caches."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # cache: job -> (file size, parsed events); purely derived state
        self._cache: dict[str, tuple[int, list[Event]]] = {}

    # -- paths ----------------------------------------------------------

    def _events_path(self, job_id: str) -> Path:
        return self.root / _shard(job_id) / f"{job_id}.events"

    def _lock_for(self, job_id: str) -> Path:
        return self._events_path(job_id).with_suffix(".lock")

    # -- event ingestion --------------------------------------------------

    def exists(self, job_id: str) -> bool:
        return self._events_path(job_id).exists()

    def log_event(self, event: Event) -> bool:
        """Append an event durably.  Returns False for an idempotently
        ignored duplicate (same job, source, sseq)."""
        path = self._events_path(job_id := event.job)
        if event.kind != "Registered" and not path.exists():
            raise UnknownJobError(f"job {job_id} is not registered")
        path.parent.mkdir(parents=True, exist_ok=True)
        with flocked(self._lock_for(job_id)):
            events = self._load_events(job_id)
            if any(e.source == event.source and e.sseq == event.sseq for e in events):
                return False  # duplicate: acknowledged, no effect
            append_line(path, json.dumps(event.as_dict(), sort_keys=True))
            self._cache.pop(job_id, None)
        return True

    # -- reading ----------------------------------------------------------

    def _load_events(self, job_id: str) -> list[Event]:
        path = self._events_path(job_id)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            self._cache.pop(job_id, None)
            return []
        cached = self._cache.get(job_id)
        if cached and cached[0] == size:
            return cached[1]
        events: list[Event] = []
        for line in path.read_bytes().split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(Event.from_dict(json.loads(line.decode("utf-8"))))
            except (ValueError, KeyError, UnicodeDecodeError):
                continue  # partial or corrupt line: skip
        events.sort(key=_content_key)
        self._cache[job_id] = (size, events)
        return events

    def events_of(self, job_id: str) -> list[Event]:
        """A job's events in canonical order."""
        events = self._load_events(job_id)
        if not events:
            raise UnknownJobError(f"job {job_id} is not registered")
        return list(events)

    def job_record(self, job_id: str) -> JobRecord:
        ordered = self.events_of(job_id)
        state, attempt = _derive_ordered(ordered)

        owner, jdl = "", ""
        for ev in ordered:
            if ev.kind == "Registered":
                owner = ev.payload.get("owner", owner)
                jdl = ev.payload.get("jdl", jdl)
                break

        seg_start = 0
        for i, ev in enumerate(ordered):
            if ev.kind == "Resubmitted":
                seg_start = i + 1

        destination = None
        exit_code: int | None = None
        for ev in ordered[seg_start:]:
            dest = ev.payload.get("destination")
            if dest:
                destination = dest
            if ev.kind == "Done":
                try:
                    exit_code = int(ev.payload.get("exitCode", ""))
                except ValueError:
                    exit_code = None

        user_tags: dict[str, str] = {}
        for ev in ordered:
            if ev.kind == "UserTag":
                name = ev.payload.get("name")
                if name:
                    user_tags[name.lower()] = ev.payload.get("value", "")

        checkpoints: dict[int, list[tuple[str, str]]] = {}
        for ev in ordered:
            if ev.kind == "Chkpt":
                try:
                    seq = int(ev.payload.get("seq", ""))
                    pairs = [(str(k), str(v)) for k, v in json.loads(ev.payload.get("pairs", "[]"))]
                except ValueError:
                    continue
                checkpoints[seq] = pairs

        return JobRecord(
            job=job_id,
            owner=owner,
            jdl=jdl,
            state=state,
            attempt=attempt,
            destination=destination,
            exit_code=exit_code,
            user_tags=user_tags,
            checkpoint_states=sorted(checkpoints.items()),
            events=ordered,
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
                    jobs.append(entry[: -len(".events")])
        jobs.sort()
        return jobs

    def records(self) -> Iterator[JobRecord]:
        """The record of every listed job, in jobId order.

        A job's events file is created just before its Registered line is
        written, so a listing can name a job that has no event yet; such a
        job is skipped until the line lands.
        """
        for job_id in self.list_jobs():
            try:
                yield self.job_record(job_id)
            except UnknownJobError:
                continue

    # -- queries ------------------------------------------------------------

    def query(self, query: Query) -> list[str]:
        """Jobs satisfying every predicate, any listed value per predicate;
        returned in ascending jobId order."""
        return [
            record.job
            for record in self.records()
            if all(self._predicate_holds(pred, record) for pred in query.predicates)
        ]

    @staticmethod
    def _predicate_holds(pred: QueryPredicate, record: JobRecord) -> bool:
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
        path = self._events_path(job_id)
        if not path.exists():
            raise UnknownJobError(f"job {job_id} is not registered")
        pair_list = [(str(k), str(v)) for k, v in pairs]
        with flocked(self._lock_for(job_id)):
            events = self._load_events(job_id)
            state, _ = _derive_ordered(events)
            if state == JobState.CLEARED:
                raise UnknownJobError(f"job {job_id} is cleared")
            seqs = []
            for ev in events:
                if ev.kind == "Chkpt":
                    try:
                        seqs.append(int(ev.payload.get("seq", "")))
                    except ValueError:
                        pass
            seq = max(seqs, default=0) + 1
            sseq = max((e.sseq for e in events if e.source == "UI"), default=0) + 1
            event = Event(
                job=job_id,
                source="UI",
                sseq=sseq,
                ts=now_ms(),
                kind="Chkpt",
                payload={"seq": str(seq), "pairs": json.dumps(pair_list)},
            )
            append_line(path, json.dumps(event.as_dict(), sort_keys=True))
            self._cache.pop(job_id, None)
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
