"""The three append-only logs (events files, job.log, ledger.log): each
append locks the log's own descriptor, leaves no sidecar, and keeps a
torn tail on its own line."""

from __future__ import annotations

import json
import os
import time
import tracemalloc

from gridwms.accounting import Ledger
from gridwms.client import GatewayClient
from gridwms.executor import JobLog
from gridwms.stack import Stack
from gridwms.util import read_json_lines

from conftest import wait_state, write_accounts

TORN = b'{"entry": "e-9", "kind": "char'  # a crash mid-write


def test_a_stack_leaves_no_lock_files_beside_its_logs(spool):
    with Stack(spool.root, fake_cpu_seconds=0.25) as stack:
        with GatewayClient.from_addr(stack.address, user="alice") as client:
            jobs = [client.call("submit", jdl='[ Executable = "/bin/true"; ]')["job"] for _ in range(3)]
            assert [wait_state(client, job)["state"] for job in jobs] == ["DONE_OK"] * 3
        deadline = time.monotonic() + 15.0
        while len(read_json_lines(spool.ledger_file)) < 3:  # the scans charge the jobs
            assert time.monotonic() < deadline, "the jobs were not charged"
            time.sleep(0.1)
    for sub in ("lbstore", "executor", "accounting"):
        assert not list((spool.root / sub).rglob("*.lock")), sub


def test_a_torn_tail_of_the_ledger_stays_on_its_own_line(tmp_path):
    write_accounts(tmp_path, {"group": ("Group", 100), "alice": ("User", 50)})
    ledger = Ledger(tmp_path / "ledger.log", tmp_path / "accounts.ad")
    ledger.transfer("group", "alice", 10)
    with open(ledger.path, "ab") as fh:
        fh.write(TORN)
    ledger.charge_job("job-1", "alice", "CE1", 2.0, 3, "group")
    lines = ledger.path.read_bytes().split(b"\n")
    assert lines[1] == TORN and lines[3] == b""
    assert json.loads(lines[2])["job"] == "job-1"
    again = Ledger(tmp_path / "ledger.log", tmp_path / "accounts.ad")
    assert [e.kind for e in again.entries()] == ["transfer", "charge"]
    assert again.balance("alice") == ledger.balance("alice") == 54


def test_a_torn_tail_of_the_job_log_stays_on_its_own_line(tmp_path):
    log = JobLog(tmp_path / "job.log")
    log.append("h-1", "job-1", "Staged")
    with open(log.path, "ab") as fh:
        fh.write(TORN)
    log.append("h-1", "job-1", "Committed")
    lines = log.path.read_bytes().split(b"\n")
    assert lines[1] == TORN and json.loads(lines[2])["kind"] == "Committed" and lines[3] == b""


def test_a_ledger_keeps_no_entry_in_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # only the memory is under test
    write_accounts(tmp_path, {"group": ("Group", 0), "alice": ("User", 10**9)})
    ledger = Ledger(tmp_path / "ledger.log", tmp_path / "accounts.ad")
    ledger.charge_job("job-0", "alice", "CE1", 1.0, 1, "group")
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for i in range(1, 1001):
        ledger.charge_job(f"job-{i}", "alice", "CE1", 1.0, 1, "group")
    retained = sum(s.size_diff for s in tracemalloc.take_snapshot().compare_to(before, "filename"))
    tracemalloc.stop()
    # the charged set holds one key and one entry id per charge (about 230 B);
    # a list of the entries held about 545 B per charge
    assert retained / 1000 < 400
    assert len(ledger.entries()) == 1001 and ledger.balance("group") == 1001
