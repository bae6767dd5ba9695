"""Crash-safe queue: FIFO, at-least-once, crash injection at every
file-operation prefix."""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from gridwms import filequeue
from gridwms.filequeue import ACK, NACK, SEQ_BLOCK, FileQueue, NotClaimedError


class SimulatedCrash(Exception):
    pass


def make_queue(tmp_path: Path, name: str = "q") -> FileQueue:
    return FileQueue(tmp_path / name)


def test_enqueue_claim_round_trip(tmp_path):
    q = make_queue(tmp_path)
    payload = {"hello": "world", "n": 3}
    q.enqueue(payload)
    item = q.claim("c-1")
    assert item is not None
    assert item.json() == payload
    assert item.attempts == 1


def test_fifo_order(tmp_path):
    q = make_queue(tmp_path)
    for i in range(5):
        q.enqueue({"i": i})
    got = []
    while (item := q.claim("c")) is not None:
        got.append(item.json()["i"])
        q.settle(item.seq, ACK)
    assert got == [0, 1, 2, 3, 4]


def test_empty_claim_returns_none(tmp_path):
    assert make_queue(tmp_path).claim("c") is None


def test_ack_removes_item_forever(tmp_path):
    q = make_queue(tmp_path)
    seq = q.enqueue({"x": 1})
    item = q.claim("c")
    q.settle(item.seq, ACK)
    assert q.claim("c") is None
    assert not (q.root / f"{seq:016d}.msg").exists()


def test_nack_returns_item_in_original_slot(tmp_path):
    q = make_queue(tmp_path)
    q.enqueue({"x": 1})
    q.enqueue({"x": 2})
    first = q.claim("c")
    q.settle(first.seq, NACK)
    again = q.claim("c")
    assert again.json() == {"x": 1}
    assert again.seq == first.seq
    assert again.attempts == 2


def test_settle_unknown_seq_not_claimed(tmp_path):
    q = make_queue(tmp_path)
    with pytest.raises(NotClaimedError):
        q.settle(42, ACK)


def test_bad_payload_rejected(tmp_path):
    q = make_queue(tmp_path)
    with pytest.raises(Exception):
        q.enqueue(b"not json")
    with pytest.raises(Exception):
        q.enqueue(b'["a", "list"]')


def test_claimed_item_invisible_to_others(tmp_path):
    q = make_queue(tmp_path)
    q.enqueue({"x": 1})
    assert q.claim("a") is not None
    assert q.claim("b") is None


def test_recover_scan_reverts_stale_claims(tmp_path):
    q = make_queue(tmp_path)
    q.enqueue({"x": 1})
    item = q.claim("dead")
    # age the claim artificially
    claimed = next(p for p in q.root.iterdir() if ".claimed." in p.name)
    os.utime(claimed, (time.time() - 120, time.time() - 120))
    assert q.recover_scan(stale_after=60) == 1
    redelivered = q.claim("alive")
    assert redelivered.seq == item.seq
    assert redelivered.attempts == 2


def test_recover_scan_clean_queue_is_zero(tmp_path):
    q = make_queue(tmp_path)
    q.enqueue({"x": 1})
    assert q.recover_scan(stale_after=60) == 0


def test_recover_scan_removes_orphan_temp(tmp_path):
    q = make_queue(tmp_path)
    q.enqueue({"x": 1})
    orphan = q.root / ".tmp.deadbeef"
    orphan.write_bytes(b"partial")
    assert q.recover_scan(stale_after=60) == 0
    assert not orphan.exists()
    assert q.claim("c").json() == {"x": 1}


def test_recover_dead_owners(tmp_path):
    q = make_queue(tmp_path)
    q.enqueue({"x": 1})
    q.claim("wm-999999")  # no such pid
    assert q.recover_dead_owners() == 1
    assert q.claim(f"wm-{os.getpid()}") is not None
    assert q.recover_dead_owners() == 0  # our own claim stays


def test_concurrent_claimers_no_duplicates(tmp_path):
    q = make_queue(tmp_path)
    total = 40
    for i in range(total):
        q.enqueue({"i": i})
    seen: list[int] = []
    lock = threading.Lock()

    def worker(name: str):
        mine = FileQueue(q.root)
        while True:
            item = mine.claim(name)
            if item is None:
                return
            with lock:
                seen.append(item.json()["i"])
            mine.settle(item.seq, ACK)

    threads = [threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(seen) == list(range(total))
    assert len(seen) == len(set(seen))  # exactly once in a crash-free run


# -- crash injection: cut the file-operation sequence at every prefix ----------


def _count_ops(fn) -> int:
    """Run fn on a scratch queue, counting fault-hook invocations."""
    ops = []

    def recorder(op, path):
        ops.append(op)

    fn(recorder)
    return len(ops)


def _crash_after(n: int):
    state = {"left": n}

    def hook(op, path):
        if state["left"] == 0:
            raise SimulatedCrash(op)
        state["left"] -= 1

    return hook


def test_enqueue_crash_at_every_prefix_loses_nothing(tmp_path):
    # the first enqueue of an instance reserves a block of seqs (it writes
    # SEQ); the next one takes a seq from that block
    for reserving in (True, False):
        probe = make_queue(tmp_path, f"probe-{reserving}")
        if not reserving:
            probe.enqueue({"x": 0})
        total_ops = _count_ops(lambda hook: (setattr(probe, "fault_hook", hook), probe.enqueue({"x": 1}))[1])
        assert total_ops == (6 if reserving else 3)

        for cut in range(total_ops + 1):
            root = tmp_path / f"q-{reserving}-{cut}"
            FileQueue(root).enqueue({"prior": True})  # already-durable item must survive
            q = FileQueue(root)
            if not reserving:
                q.enqueue({"steady": True})
            q.fault_hook = _crash_after(cut)
            crashed = False
            try:
                q.enqueue({"new": True})
            except SimulatedCrash:
                crashed = True
            q.fault_hook = None
            assert crashed == (cut < total_ops)

            q.recover_scan(stale_after=0)
            assert not any(p.name.startswith(".tmp.") for p in root.iterdir())
            before = [{"prior": True}] + ([] if reserving else [{"steady": True}])
            survivors = []
            while (item := q.claim("r")) is not None:
                survivors.append(item.json())
                q.settle(item.seq, ACK)
            # the earlier items are never lost and stay first (FIFO among survivors)
            assert survivors[: len(before)] == before
            assert survivors[len(before):] in ([], [{"new": True}])
            if not crashed:
                assert survivors == before + [{"new": True}]


def test_enqueue_crash_before_rename_leaves_item_invisible(tmp_path):
    q = make_queue(tmp_path)
    ops_seen = []

    def hook(op, path):
        ops_seen.append(op)
        if op == "msg.rename":
            raise SimulatedCrash(op)

    q.fault_hook = hook
    with pytest.raises(SimulatedCrash):
        q.enqueue({"x": 1})
    q.fault_hook = None
    assert q.recover_scan(stale_after=0) == 0  # orphan temp removed, nothing claimable
    assert q.claim("c") is None
    assert not any(p.name.startswith(".tmp.") for p in q.root.iterdir())


def test_claim_crash_then_recover_redelivers_with_attempts(tmp_path, monkeypatch):
    q = make_queue(tmp_path)
    q.enqueue({"x": 1})

    def crash(path):
        raise SimulatedCrash("claim.rename done")  # dies after taking the claim

    monkeypatch.setattr(filequeue, "fsync_dir", crash)  # the first step after claim.rename
    with pytest.raises(SimulatedCrash):
        q.claim("doomed")
    monkeypatch.undo()
    assert q.claim("other") is None  # still invisible: claim happened
    q.recover_scan(stale_after=0)
    item = q.claim("other")
    assert item is not None and item.json() == {"x": 1}
    assert item.attempts == 2


def test_settle_crash_prefixes_never_lose_unacked(tmp_path):
    for op_to_kill in ("settle.unlink", "settle.nack"):
        q = make_queue(tmp_path, f"s-{op_to_kill}")
        q.enqueue({"x": 1})
        item = q.claim("c")

        def hook(op, path, kill=op_to_kill):
            if op == kill:
                raise SimulatedCrash(op)

        q.fault_hook = hook
        with pytest.raises(SimulatedCrash):
            q.settle(item.seq, ACK if op_to_kill == "settle.unlink" else NACK)
        q.fault_hook = None
        q.recover_scan(stale_after=0)
        recovered = q.claim("c2")
        assert recovered is not None and recovered.json() == {"x": 1}


def test_external_queue_layout(tmp_path):
    q = make_queue(tmp_path)
    seq = q.enqueue({"x": 1})
    assert (q.root / "SEQ").read_text().strip() == str(SEQ_BLOCK)  # the end of the reserved block
    assert (q.root / f"{seq:016d}.msg").is_file()
    q.claim("ownerX")
    assert (q.root / f"{seq:016d}.claimed.ownerX.1").is_file()
    # payload file holds exactly the JSON object bytes
    data = json.loads((q.root / f"{seq:016d}.claimed.ownerX.1").read_text())
    assert data == {"x": 1}
    q.settle(seq, NACK)
    assert (q.root / f"{seq:016d}.msg.1").is_file()
    q.claim("ownerY")
    assert (q.root / f"{seq:016d}.claimed.ownerY.2").is_file()
    assert sorted(p.name for p in q.root.iterdir()) == [".lock", f"{seq:016d}.claimed.ownerY.2", "SEQ"]


# -- one durable step per operation ------------------------------------------


def _count_fsyncs(monkeypatch, fn):
    calls = []
    real = os.fsync

    def counted(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counted)
    try:
        result = fn()
    finally:
        monkeypatch.undo()
    return len(calls), result


def test_each_operation_costs_one_durable_step(tmp_path, monkeypatch):
    q = make_queue(tmp_path)
    reserving, _ = _count_fsyncs(monkeypatch, lambda: q.enqueue({"x": 1}))
    assert reserving == 4  # SEQ's temporary and directory, then the message's
    steady, _ = _count_fsyncs(monkeypatch, lambda: q.enqueue({"x": 2}))
    assert steady == 2  # the message's temporary and the directory
    claimed, item = _count_fsyncs(monkeypatch, lambda: q.claim("c"))
    assert claimed == 1
    nacked, _ = _count_fsyncs(monkeypatch, lambda: q.settle(item.seq, NACK))
    assert nacked == 1
    item = q.claim("c")
    acked, _ = _count_fsyncs(monkeypatch, lambda: q.settle(item.seq, ACK))
    assert acked == 1
    idle, _ = _count_fsyncs(monkeypatch, lambda: q.recover_scan(stale_after=60))
    assert idle == 0  # nothing to remove or revert: nothing to make durable


def test_seq_is_written_once_per_block(tmp_path):
    q = make_queue(tmp_path)
    seqs = [q.enqueue({"i": i}) for i in range(SEQ_BLOCK + 1)]
    assert seqs == list(range(1, SEQ_BLOCK + 2))
    assert (q.root / "SEQ").read_text() == str(2 * SEQ_BLOCK)
    assert [FileQueue(q.root).enqueue({"i": -1})] == [2 * SEQ_BLOCK + 1]  # a new instance starts above


def test_crash_after_seq_rename_never_reissues_a_seq(tmp_path):
    q = make_queue(tmp_path)
    issued = [q.enqueue({"i": i}) for i in range(3)]
    crashing = FileQueue(q.root)  # its first enqueue reserves a block

    def hook(op, path):
        if op == "msg.rename":
            raise SimulatedCrash(op)  # SEQ is renamed and durable, the message is not

    crashing.fault_hook = hook
    with pytest.raises(SimulatedCrash):
        crashing.enqueue({"i": "lost"})
    restarted = FileQueue(q.root)
    restarted.recover_scan(stale_after=0)
    seq = restarted.enqueue({"i": "after"})
    assert seq > max(issued) + SEQ_BLOCK  # above the crashed block too
    drained = []
    while (item := restarted.claim("r")) is not None:
        drained.append(item.json()["i"])
        restarted.settle(item.seq, ACK)
    assert drained == [0, 1, 2, "after"]


def test_two_instances_interleaving_enqueues_keep_seqs_unique_and_in_order(tmp_path):
    # the gateway's and the manager's queues on one request root
    gateway, manager = make_queue(tmp_path), make_queue(tmp_path)
    order = []
    for i in range(12):
        producer = gateway if i % 3 else manager
        order.append((producer.enqueue({"i": i}), i))
    seqs = [seq for seq, _ in order]
    assert len(set(seqs)) == len(seqs)
    assert seqs == sorted(seqs)
    drained = []
    while (item := manager.claim("r")) is not None:
        drained.append(item.json()["i"])
        manager.settle(item.seq, ACK)
    assert drained == list(range(12))


def test_two_processes_enqueueing_at_once_keep_seqs_unique(tmp_path):
    import multiprocessing

    root = tmp_path / "q"
    FileQueue(root)
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_enqueue_many, args=(str(root), name, 40)) for name in ("a", "b")]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    q = FileQueue(root)
    items = [(seq, json.loads(payload)) for seq, _state, payload in q.iter_items()]
    assert len(items) == 80
    for name in ("a", "b"):  # each producer's items drain in its own enqueue order
        assert [body["i"] for _seq, body in items if body["p"] == name] == list(range(40))


def _enqueue_many(root: str, name: str, n: int) -> None:
    q = FileQueue(root)
    for i in range(n):
        q.enqueue({"p": name, "i": i})


def test_nacked_and_reverted_items_keep_their_delivery_counts(tmp_path):
    q = make_queue(tmp_path)
    q.enqueue({"x": 1})
    item = q.claim("c")
    q.settle(item.seq, NACK)
    item = q.claim("dead")  # second delivery
    claimed = q.root / f"{item.seq:016d}.claimed.dead.2"
    os.utime(claimed, (time.time() - 120, time.time() - 120))
    assert q.recover_scan(stale_after=60) == 1
    other = FileQueue(q.root)
    item = other.claim("wm-999999")  # third delivery, to an owner with no process
    assert item.attempts == 3
    assert q.recover_dead_owners() == 1
    with pytest.raises(NotClaimedError):
        other.settle(item.seq, ACK)  # that claim was reverted
    assert q.claim("c").attempts == 4


def test_a_spool_of_the_earlier_layout_drains(tmp_path):
    root = tmp_path / "q"
    root.mkdir()
    (root / "SEQ").write_text("7")
    (root / f"{6:016d}.claimed.wm-999999").write_text('{"x": 6}')
    (root / f".attempts.{6:016d}").write_text("2")
    (root / f"{7:016d}.msg").write_text('{"x": 7}')
    q = FileQueue(root)
    assert [(seq, state) for seq, state, _ in q.iter_items()] == [(6, "claimed.wm-999999"), (7, "unclaimed")]
    assert q.recover_scan(stale_after=0) == 1
    assert not (root / f".attempts.{6:016d}").exists()
    assert q.enqueue({"x": 8}) == 8
    drained = []
    while (item := q.claim("r")) is not None:
        drained.append((item.json()["x"], item.attempts))
        q.settle(item.seq, ACK)
    assert drained == [(6, 1), (7, 1), (8, 1)]  # the delivery counts restart
