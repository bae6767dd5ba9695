"""The durable steps one job costs across the whole stack: every fsync
made while `/bin/true` jobs pass from submit to their charge."""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from pathlib import Path

from gridwms.client import GatewayClient

JOBS = 60
BUDGET_PER_JOB = 26


def _caller(frame) -> str:
    """`module.function` of the first frame outside util's fsync helpers."""
    while frame.f_code.co_filename.endswith("util.py"):
        frame = frame.f_back
    return f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name}"


def test_a_true_job_costs_at_most_26_fsyncs(stack, monkeypatch):
    callers: Counter = Counter()
    real_fsync = os.fsync

    def counted(fd):
        callers[_caller(sys._getframe(1))] += 1
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counted)
    with GatewayClient.from_addr(stack.address, user="alice") as client:
        jobs = [client.call("submit", jdl='[ Executable = "/bin/true"; ]')["job"] for _ in range(JOBS)]
        deadline = time.monotonic() + 120
        while not all(stack.manager.ledger.has_charge(job, 1) for job in jobs):
            assert time.monotonic() < deadline, "the jobs were not charged"
            time.sleep(0.05)
        monkeypatch.undo()
        assert {client.call("status", job=job)["state"] for job in jobs} == {"DONE_OK"}
    per_job = sum(callers.values()) / JOBS
    breakdown = ", ".join(f"{name} {count / JOBS:.2f}" for name, count in callers.most_common())
    assert per_job <= BUDGET_PER_JOB, f"{per_job:.2f} fsyncs per job: {breakdown}"
