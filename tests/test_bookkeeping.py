"""Event store: state derivation, idempotency, queries, checkpoints."""

from __future__ import annotations

import itertools
import json
import random

import pytest

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
