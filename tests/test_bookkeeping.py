"""Event store: state derivation, idempotency, queries, checkpoints."""

from __future__ import annotations

import itertools
import json
import os
import random
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwms.bookkeeping import (
    KINDS,
    BookkeepingStore,
    Event,
    JobState,
    Query,
    QueryPredicate,
    BadQueryError,
    NoSuchStateError,
    derive_state,
)
from gridwms.errors import UnknownJobError


def ev(kind, sseq=1, src="WM", ts=1000, payload=None, job="j"):
    return Event(job=job, source=src, sseq=sseq, ts=ts, kind=kind, payload=payload or {})


def seq_events(kinds, job="j"):
    out = []
    for i, kind in enumerate(kinds):
        payload = {}
        if kind == "Done":
            payload = {"exitCode": "0"}
        out.append(ev(kind, sseq=i + 1, ts=1000 + i, payload=payload, job=job))
    return out


# -- state derivation ---------------------------------------------------------


def test_happy_path_transitions():
    assert derive_state(seq_events(["Registered"])) == (JobState.SUBMITTED, 1)
    assert derive_state(seq_events(["Registered", "Accepted"])) == (JobState.WAITING, 1)
    assert derive_state(seq_events(["Registered", "Accepted", "Matched"])) == (JobState.READY, 1)
    assert derive_state(seq_events(["Registered", "Accepted", "Matched", "Committed"])) == (
        JobState.SCHEDULED,
        1,
    )
    assert derive_state(
        seq_events(["Registered", "Accepted", "Matched", "Committed", "Running", "Done"])
    ) == (JobState.DONE_OK, 1)


def test_done_exit_code_splits_ok_and_failed():
    events = seq_events(["Registered", "Running"])
    events.append(ev("Done", sseq=9, ts=2000, payload={"exitCode": "3"}))
    assert derive_state(events) == (JobState.DONE_FAILED, 1)


def test_refused_maps_to_aborted_and_cleared_is_final():
    assert derive_state(seq_events(["Registered", "Refused"]))[0] == JobState.ABORTED
    events = seq_events(["Registered", "Done", "Cleared", "Running"])
    assert derive_state(events)[0] == JobState.CLEARED


def test_staged_chkpt_usertag_never_change_state():
    base = seq_events(["Registered", "Accepted"])
    for kind in ("Staged", "Chkpt", "UserTag"):
        events = base + [ev(kind, sseq=50, ts=5000)]
        assert derive_state(events) == (JobState.WAITING, 1)


def test_resubmission_opens_new_attempt():
    kinds = ["Registered", "Accepted", "Aborted", "Resubmitted", "Matched", "Running"]
    assert derive_state(seq_events(kinds)) == (JobState.RUNNING, 2)


def test_resubmitted_baseline_is_waiting():
    kinds = ["Registered", "Accepted", "Running", "Aborted", "Resubmitted"]
    assert derive_state(seq_events(kinds)) == (JobState.WAITING, 2)


def test_out_of_order_running_before_matched():
    events = [
        ev("Registered", sseq=1, ts=1000, src="Gateway"),
        ev("Running", sseq=1, ts=1500, src="LogMonitor"),
    ]
    assert derive_state(events) == (JobState.RUNNING, 1)
    events.append(ev("Matched", sseq=2, ts=1200, src="WM"))
    assert derive_state(events) == (JobState.RUNNING, 1)


def _oracle(events):
    """Independent precedence-max oracle over the canonical order."""
    rank_of = {
        "Registered": (0, JobState.SUBMITTED),
        "Accepted": (1, JobState.WAITING),
        "Matched": (2, JobState.READY),
        "Committed": (3, JobState.SCHEDULED),
        "Running": (4, JobState.RUNNING),
        "Refused": (5, JobState.ABORTED),
        "Aborted": (5, JobState.ABORTED),
        "Cancelled": (5, JobState.CANCELLED),
        "Cleared": (6, JobState.CLEARED),
    }
    key = lambda e: (e.ts, e.source, e.sseq, e.kind, json.dumps(e.payload, sort_keys=True))
    ordered = sorted(events, key=key)
    attempt = 1 + sum(1 for e in ordered if e.kind == "Resubmitted")
    if any(e.kind == "Cleared" for e in ordered):
        return JobState.CLEARED, attempt
    tail = []
    for e in ordered:
        if e.kind == "Resubmitted":
            tail = []
        else:
            tail.append(e)
    best = (0, JobState.SUBMITTED) if attempt == 1 else (1, JobState.WAITING)
    for e in tail:
        if e.kind == "Done":
            eff = (5, JobState.DONE_OK if e.payload.get("exitCode") == "0" else JobState.DONE_FAILED)
        elif e.kind in rank_of:
            eff = rank_of[e.kind]
        else:
            continue
        if eff[0] >= best[0]:
            best = eff
    return best[1], attempt


def test_permutation_robustness_small_scale():
    rng = random.Random(7)
    pool = [
        ev(kind, sseq=1, ts=1000, payload=({"exitCode": "0"} if kind == "Done" else {}))
        for kind in KINDS
    ]
    for _ in range(60):
        sample = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        expected = _oracle(sample)
        for perm in itertools.permutations(sample):
            assert derive_state(list(perm)) == expected


def test_payload_breaks_ties_on_the_rest_of_the_key():
    base = seq_events(["Registered", "Accepted"])
    ok = ev("Done", sseq=7, ts=2000, payload={"exitCode": "0"})
    failed = ev("Done", sseq=7, ts=2000, payload={"exitCode": "1"})
    # {"exitCode":"1"} sorts after {"exitCode":"0"}: the failed Done is the later one
    assert derive_state(base + [ok, failed]) == (JobState.DONE_FAILED, 1)
    assert derive_state(base + [failed, ok]) == (JobState.DONE_FAILED, 1)


def test_store_serves_events_in_canonical_order(tmp_path):
    store = BookkeepingStore(tmp_path)
    events = seq_events(["Registered", "Accepted", "Matched", "Running"], job="j1")
    for event in events[:1] + events[:0:-1]:  # appended newest first
        store.log_event(event)
    assert [e.kind for e in store.events_of("j1")] == ["Registered", "Accepted", "Matched", "Running"]
    assert store.job_record("j1").state == derive_state(events)[0] == JobState.RUNNING


def test_derivation_matches_oracle_on_random_sequences():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 8)
        events = []
        for i in range(n):
            kind = rng.choice(KINDS)
            payload = {"exitCode": rng.choice(["0", "1"])} if kind == "Done" else {}
            events.append(ev(kind, sseq=i + 1, ts=rng.randint(1000, 1010), payload=payload))
        assert derive_state(events) == _oracle(events)


def test_released_markers_never_move_the_state():
    rng = random.Random(22)
    for _ in range(300):
        events = []
        for i in range(rng.randint(0, 6)):
            kind = rng.choice(KINDS)
            payload = {"exitCode": rng.choice(["0", "1"])} if kind == "Done" else {}
            events.append(ev(kind, sseq=i + 1, ts=rng.randint(1000, 1004), payload=payload))
        marked = events + [ev("Released", sseq=0, src="Gateway", ts=rng.randint(1000, 1004))]
        rng.shuffle(marked)
        assert derive_state(marked) == derive_state(events)


def test_an_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown event kind"):
        ev("Releasd")


# -- store behavior -----------------------------------------------------------------


def make_store(tmp_path) -> BookkeepingStore:
    return BookkeepingStore(tmp_path / "lb")


def register(store, job="j1", owner="alice", jdl='[ Executable = "/a"; ]'):
    store.log_event(
        Event(job=job, source="Gateway", sseq=1, ts=1000, kind="Registered",
              payload={"jdl": jdl, "owner": owner})
    )


def test_registered_creates_submitted_job(tmp_path):
    store = make_store(tmp_path)
    register(store)
    record = store.job_record("j1")
    assert record.state == JobState.SUBMITTED
    assert record.owner == "alice"
    assert record.jdl.startswith("[")


def test_duplicate_event_is_idempotent_ack(tmp_path):
    store = make_store(tmp_path)
    register(store)
    event = Event(job="j1", source="WM", sseq=5, ts=2000, kind="Accepted", payload={})
    assert store.log_event(event) is True
    assert store.log_event(event) is False
    assert len(store.job_record("j1").events) == 2


def test_unknown_job_rejected_for_non_registered(tmp_path):
    store = make_store(tmp_path)
    with pytest.raises(UnknownJobError):
        store.log_event(ev("Running", job="ghost"))
    with pytest.raises(UnknownJobError):
        store.save_state("ghost", [("a", "b")])
    assert list((tmp_path / "lb").iterdir()) == []  # no shard directory, no file


def test_full_log_replay_leaves_records_unchanged(tmp_path):
    store = make_store(tmp_path)
    register(store)
    for i, kind in enumerate(["Accepted", "Matched", "Running"]):
        store.log_event(ev(kind, sseq=i + 1, ts=1500 + i, src="WM", job="j1"))
    before = store.job_record("j1")
    for event in list(before.events):
        assert store.log_event(event) is False
    after = store.job_record("j1")
    assert (after.state, after.attempt) == (before.state, before.attempt)
    assert len(after.events) == len(before.events)


def test_store_rebuild_reconstructs_query_results(tmp_path):
    store = make_store(tmp_path)
    for i in range(6):
        job = f"job-{i}"
        register(store, job=job, owner="alice" if i % 2 else "bob")
        store.log_event(ev("UserTag", sseq=2, src="Gateway", job=job,
                           payload={"name": "batch", "value": f"b{i % 3}"}))
    query = Query((QueryPredicate("owner", ("alice",)), QueryPredicate("tag:batch", ("b1", "b2"))))
    expected = store.query(query)
    rebuilt = BookkeepingStore(tmp_path / "lb")  # fresh caches over the same files
    assert rebuilt.query(query) == expected
    assert expected  # non-vacuous


def test_query_matches_linear_scan_oracle(tmp_path):
    store = make_store(tmp_path)
    rng = random.Random(5)
    owners = ["alice", "bob", "carol"]
    states_pool = [
        [],
        ["Accepted"],
        ["Accepted", "Matched", "Committed", "Running"],
        ["Accepted", "Matched", "Committed", "Running", "Done"],
        ["Accepted", "Aborted"],
    ]
    for i in range(20):
        job = f"job-{i:02d}"
        register(store, job=job, owner=rng.choice(owners))
        for j, kind in enumerate(rng.choice(states_pool)):
            payload = {"exitCode": "0"} if kind == "Done" else {}
            if kind == "Matched":
                payload["destination"] = rng.choice(["X", "Y"])
            store.log_event(ev(kind, sseq=j + 1, ts=2000 + j, src="WM", job=job, payload=payload))
        if rng.random() < 0.6:
            store.log_event(ev("UserTag", sseq=40, src="UI", job=job,
                               payload={"name": "production", "value": rng.choice(["xyz", "abc"])}))

    for _ in range(25):
        predicates = []
        if rng.random() < 0.5:
            predicates.append(QueryPredicate("owner", tuple(rng.sample(owners, rng.randint(1, 2)))))
        if rng.random() < 0.5:
            predicates.append(QueryPredicate("state", tuple(rng.sample(
                ["SUBMITTED", "WAITING", "RUNNING", "DONE_OK", "ABORTED"], rng.randint(1, 3)))))
        if rng.random() < 0.5:
            predicates.append(QueryPredicate("destination", tuple(rng.sample(["X", "Y"], rng.randint(1, 2)))))
        if not predicates or rng.random() < 0.4:
            predicates.append(QueryPredicate("tag:production", ("xyz",)))
        query = Query(tuple(predicates))

        def holds(record):
            for pred in predicates:
                if pred.field == "owner":
                    ok = record.owner in pred.values
                elif pred.field == "state":
                    ok = record.state.value in pred.values
                elif pred.field == "destination":
                    ok = record.destination in pred.values
                else:
                    ok = record.user_tags.get("production") in pred.values
                if not ok:
                    return False
            return True

        oracle = sorted(j for j in store.list_jobs() if holds(store.job_record(j)))
        assert store.query(query) == oracle


def test_query_paper_example_shape(tmp_path):
    store = make_store(tmp_path)
    fixtures = [
        ("j-1", "xyz", "Running", "X"),
        ("j-2", "xyz", "Running", "Y"),
        ("j-3", "xyz", "Running", "Z"),
        ("j-4", "abc", "Running", "X"),
        ("j-5", "xyz", "Done", "X"),
    ]
    for job, tag, last, dest in fixtures:
        register(store, job=job)
        store.log_event(ev("UserTag", sseq=2, src="Gateway", job=job,
                           payload={"name": "production", "value": tag}))
        store.log_event(ev("Matched", sseq=3, src="WM", job=job, payload={"destination": dest}))
        payload = {"exitCode": "0"} if last == "Done" else {}
        store.log_event(ev(last, sseq=4, src="LogMonitor", job=job, payload=payload))
    query = Query((
        QueryPredicate("tag:production", ("xyz",)),
        QueryPredicate("state", ("RUNNING",)),
        QueryPredicate("destination", ("X", "Y")),
    ))
    assert store.query(query) == ["j-1", "j-2"]


def test_settled_jobs_answer_queries_from_their_summaries(tmp_path):
    store = make_store(tmp_path)
    rng = random.Random(11)
    for i in range(30):
        job = f"job-{i:02d}"
        register(store, job=job, owner=rng.choice(["alice", "bob"]))
        store.log_event(ev("Matched", sseq=2, ts=2000, job=job, payload={"destination": rng.choice(["X", "Y"])}))
        last = rng.choice(["Running", "Done", "Aborted", "Cancelled"])
        store.log_event(ev(last, sseq=3, ts=3000, job=job, payload={"exitCode": "0"} if last == "Done" else {}))
        if i % 3:
            store.log_event(ev("UserTag", sseq=4, src="UI", job=job, payload={"name": "Batch", "value": f"b{i % 2}"}))
    queries = [Query((QueryPredicate("owner", ("alice",)),)),
               Query((QueryPredicate("state", ("DONE_OK", "aborted")),)),
               Query((QueryPredicate("destination", ("X",)),)),
               Query((QueryPredicate("tag:batch", ("b1",)), QueryPredicate("owner", ("bob",)))),
               Query((QueryPredicate("state", ("RUNNING",)), QueryPredicate("destination", ("Y",))))]
    before = [store.query(q) for q in queries]
    assert all(before)  # non-vacuous
    for record in list(store.records()):
        store.settle(record)
    assert store._cache == {} and list(store.records()) == []
    assert [store.query(q) for q in queries] == before
    # reading a settled job parses its file and keeps nothing
    assert store.job_record("job-00").events and store.events_of("job-00")
    assert store._cache == {}
    # an event appended by another process makes the job live again
    BookkeepingStore(tmp_path / "lb").log_event(ev("UserTag", sseq=9, src="UI", job="job-01",
                                                   payload={"name": "batch", "value": "again"}))
    assert [record.job for record in store.records()] == ["job-01"]
    assert store.query(Query((QueryPredicate("tag:batch", ("again",)),))) == ["job-01"]


def test_query_empty_store_and_bad_field(tmp_path):
    store = make_store(tmp_path)
    assert store.query(Query((QueryPredicate("state", ("RUNNING",)),))) == []
    with pytest.raises(BadQueryError):
        Query((QueryPredicate("flavor", ("x",)),))
    with pytest.raises(BadQueryError):
        Query(())


# -- checkpoint states ------------------------------------------------------------


def test_save_and_get_state_round_trip(tmp_path):
    store = make_store(tmp_path)
    register(store)
    assert store.save_state("j1", [("step", "3")]) == 1
    assert store.save_state("j1", [("step", "4"), ("sum", "6")]) == 2
    assert store.get_state("j1") == [("step", "4"), ("sum", "6")]
    assert store.get_state("j1", 1) == [("step", "3")]
    record = store.job_record("j1")
    assert [seq for seq, _ in record.checkpoint_states] == [1, 2]


def test_get_state_without_saves(tmp_path):
    store = make_store(tmp_path)
    register(store)
    with pytest.raises(NoSuchStateError):
        store.get_state("j1")
    store.save_state("j1", [("a", "b")])
    with pytest.raises(NoSuchStateError):
        store.get_state("j1", 99)


def test_save_state_on_cleared_job_rejected(tmp_path):
    store = make_store(tmp_path)
    register(store)
    store.log_event(ev("Cleared", sseq=9, ts=5000, src="UI", job="j1"))
    with pytest.raises(UnknownJobError):
        store.save_state("j1", [("a", "b")])


def test_checkpoint_seqs_strictly_increasing_gap_free(tmp_path):
    store = make_store(tmp_path)
    register(store)
    seqs = [store.save_state("j1", [("i", str(i))]) for i in range(8)]
    assert seqs == list(range(1, 9))


def test_event_file_line_format(tmp_path):
    store = make_store(tmp_path)
    register(store)
    files = list((tmp_path / "lb").rglob("*.events"))
    assert len(files) == 1
    line = json.loads(files[0].read_text().splitlines()[0])
    assert set(line) == {"job", "src", "sseq", "ts", "kind", "payload"}
    assert line["kind"] == "Registered"
    assert line["payload"]["owner"] == "alice"


# -- the append path --------------------------------------------------------------


def events_file(store: BookkeepingStore, job: str) -> Path:
    return Path(store._events_file(job))


def record_fields(record):
    return (record.job, record.owner, record.jdl, record.state, record.attempt, record.destination,
            record.exit_code, record.user_tags, record.checkpoint_states, record.size,
            [e.as_dict() for e in record.events])


def test_the_shard_directory_is_fsynced_when_a_job_is_registered(tmp_path, monkeypatch):
    store = make_store(tmp_path)
    fsynced = []
    real_fsync = os.fsync

    def fsync(fd):
        fsynced.append(os.readlink(f"/proc/self/fd/{fd}"))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    register(store, job="j1")
    path = os.path.realpath(events_file(store, "j1"))
    assert fsynced == [path, os.path.dirname(path)]  # the line, then the file's name
    fsynced.clear()
    register(store, job="j1")  # a duplicate Registered
    store.log_event(ev("Accepted", sseq=2, job="j1"))
    store.save_state("j1", [("a", "b")])
    assert fsynced == [path, path]


_KIND_CHOICES = ["Accepted", "Matched", "Committed", "Running", "Done", "Aborted", "Resubmitted",
                 "UserTag", "Chkpt", "Cleared", "Registered"]
_PAYLOADS = [{}, {"destination": "CE1"}, {"destination": "CE2"}, {"exitCode": "0"}, {"exitCode": "1"},
             {"name": "batch", "value": "b1"}, {"owner": "bob", "jdl": "[ ]"}]
_event_args = st.tuples(
    st.sampled_from(["j1", "j2"]),
    st.sampled_from(["WM", "LogMonitor", "Executor"]),
    st.integers(1, 4),  # a small range, so that duplicates occur
    st.integers(1000, 1003),
    st.sampled_from(_KIND_CHOICES),
    st.sampled_from(_PAYLOADS),
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("log"), _event_args),
        st.tuples(st.just("other"), _event_args),  # appended by a second store on the same root
        st.tuples(st.just("save"), st.sampled_from(["j1", "j2"])),
        st.tuples(st.just("torn"), st.sampled_from(["j1", "j2"])),
        st.tuples(st.just("settle"), _event_args),
        st.tuples(st.just("batch"), st.lists(_event_args, min_size=1, max_size=3)),  # one log_events
    ),
    max_size=14,
)


@settings(max_examples=60, deadline=None)
@given(_steps)
def test_the_write_through_cache_equals_a_fresh_parse(steps):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "lb"
        store, other = BookkeepingStore(root), BookkeepingStore(root)
        for job in ("j1", "j2"):
            register(store, job=job)
            store.job_record(job)  # cached from here on
        for op, arg in steps:
            if op in ("log", "other", "settle"):
                job, src, sseq, ts, kind, payload = arg
                if op == "settle":
                    store.settle(store.job_record(job))
                (other if op == "other" else store).log_event(Event(job, src, sseq, ts, kind, payload))
            elif op == "batch":
                job = arg[0][0]  # one job's events
                store.log_events([Event(job, *rest) for _job, *rest in arg])
            elif op == "save":
                try:
                    store.save_state(arg, [("step", "1")])
                except UnknownJobError:
                    pass  # a cleared job
            else:
                with open(events_file(store, arg), "ab") as fh:
                    fh.write(b'{"job": "' + arg.encode() + b'", "src": "WM", "ss')
            fresh = BookkeepingStore(root)
            for job in ("j1", "j2"):
                assert [e.as_dict() for e in store.events_of(job)] == [e.as_dict() for e in fresh.events_of(job)]
                assert record_fields(store.job_record(job)) == record_fields(fresh.job_record(job))


def test_an_append_to_a_cached_job_parses_only_the_new_event(tmp_path, monkeypatch):
    store = make_store(tmp_path)
    register(store)
    for i, kind in enumerate(["Accepted", "Matched", "Committed", "Running"]):
        store.log_event(ev(kind, sseq=i + 2, ts=1000 + i, job="j1"))
    assert len(store.job_record("j1").events) == 5  # cached
    parsed = []
    real = Event.from_dict
    monkeypatch.setattr(Event, "from_dict", staticmethod(lambda obj, payloads: parsed.append(obj) or real(obj, payloads)))
    store.log_event(ev("Done", sseq=9, ts=2000, job="j1", payload={"exitCode": "0"}))
    record = store.job_record("j1")
    assert record.state == JobState.DONE_OK and len(record.events) == 6
    assert [obj["kind"] for obj in parsed] == ["Done"]


def test_an_append_to_a_cached_job_opens_one_file_and_fsyncs_once(tmp_path, monkeypatch):
    store = make_store(tmp_path)
    register(store)
    store.job_record("j1")  # cached
    calls = []
    for name in ("open", "fsync", "stat", "mkdir"):
        real = getattr(os, name)
        monkeypatch.setattr(os, name, lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
    assert store.log_event(ev("Accepted", sseq=2, job="j1"))
    monkeypatch.undo()
    assert sorted(calls) == ["fsync", "open"]
    assert not list((tmp_path / "lb").rglob("*.lock"))


def test_a_batch_of_events_is_one_write_and_one_fsync(tmp_path, monkeypatch):
    store = make_store(tmp_path)
    register(store)
    store.job_record("j1")  # cached
    batch = [ev("Accepted", sseq=2, job="j1")] + [
        ev("UserTag", sseq=3 + i, job="j1", payload={"name": name, "value": "v"}) for i, name in enumerate("ab")
    ]
    calls = []
    for name in ("open", "write", "fsync"):
        real = getattr(os, name)
        monkeypatch.setattr(os, name, lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
    assert store.log_events(batch) == 3
    monkeypatch.undo()
    assert sorted(calls) == ["fsync", "open", "write"]
    assert store.job_record("j1").user_tags == {"a": "v", "b": "v"}
    size = events_file(store, "j1").stat().st_size
    # each event is deduplicated on its own: only the new one is appended
    assert store.log_events(batch + [ev("Matched", sseq=9, job="j1", payload={"destination": "CE1"})]) == 1
    assert store.log_events(batch) == 0
    assert events_file(store, "j1").stat().st_size > size
    fresh = BookkeepingStore(tmp_path / "lb")
    assert [e.as_dict() for e in fresh.events_of("j1")] == [e.as_dict() for e in store.events_of("j1")]
    assert [e.kind for e in fresh.events_of("j1")] == ["Registered", "Accepted", "UserTag", "UserTag", "Matched"]
    with pytest.raises(ValueError):
        store.log_events([ev("Running", sseq=10, job="j1"), ev("Running", sseq=10, job="j2")])


def test_a_torn_tail_stays_on_its_own_line(tmp_path):
    store = make_store(tmp_path)
    register(store)
    path = events_file(store, "j1")
    with open(path, "ab") as fh:
        fh.write(b'{"job": "j1", "src": "WM", "sseq": 7, "ki')  # a crash mid-write
    store.log_event(ev("Accepted", sseq=2, job="j1"))
    lines = path.read_bytes().split(b"\n")
    assert lines[1] == b'{"job": "j1", "src": "WM", "sseq": 7, "ki'
    assert json.loads(lines[2])["kind"] == "Accepted" and lines[3] == b""
    assert [e.kind for e in BookkeepingStore(tmp_path / "lb").events_of("j1")] == ["Registered", "Accepted"]


def test_two_stores_appending_at_once_lose_no_event(tmp_path):
    register(make_store(tmp_path))
    stores = [make_store(tmp_path), make_store(tmp_path)]
    for store in stores:
        store.job_record("j1")  # both cached, so each must see the other's appends

    def append(i):
        for n in range(40):
            stores[i].log_event(ev("UserTag", sseq=n + 1, src=("WM", "UI")[i], ts=2000 + n, job="j1",
                                   payload={"name": f"t{i}", "value": str(n)}))

    threads = [threading.Thread(target=append, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    lines = events_file(stores[0], "j1").read_bytes().split(b"\n")
    assert lines[-1] == b""
    records = [json.loads(line) for line in lines[:-1]]  # every line intact
    assert sorted((r["src"], r["sseq"]) for r in records[1:]) == sorted(
        (src, n + 1) for src in ("WM", "UI") for n in range(40))
    for store in stores:
        assert len(store.events_of("j1")) == 81
