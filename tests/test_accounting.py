"""Credit ledger: double entry, conservation, idempotent charging."""

from __future__ import annotations

import os
import random

import pytest

from gridwms.accounting import (
    Charge,
    InsufficientCreditsError,
    Ledger,
    UnknownAccountError,
    job_cost,
)
from gridwms.errors import WmsError


def make_ledger(tmp_path, funding=None) -> Ledger:
    funding = funding if funding is not None else {"group": ("Group", 100), "alice": ("User", 0)}
    entries = ", ".join(
        f'[ Id = "{aid}"; Kind = "{kind}"; Balance = {bal}; ]' for aid, (kind, bal) in funding.items()
    )
    accounts = tmp_path / "accounts.ad"
    accounts.write_text(f"[ Accounts = {{ {entries} }}; ]")
    return Ledger(tmp_path / "ledger.log", accounts)


def test_transfer_moves_credits_once(tmp_path):
    ledger = make_ledger(tmp_path)
    entry = ledger.transfer("group", "alice", 40, memo="monthly grant")
    assert ledger.balance("group") == 60
    assert ledger.balance("alice") == 40
    assert len(ledger.entries()) == 1
    assert ledger.entries()[0].entry_id == entry


def test_transfer_insufficient_no_partial_effect(tmp_path):
    ledger = make_ledger(tmp_path)
    with pytest.raises(InsufficientCreditsError):
        ledger.transfer("group", "alice", 200)
    assert ledger.balance("group") == 100
    assert ledger.balance("alice") == 0
    assert ledger.entries() == []


def test_transfer_zero_and_negative_rejected(tmp_path):
    ledger = make_ledger(tmp_path)
    with pytest.raises(WmsError):
        ledger.transfer("group", "alice", 0)
    with pytest.raises(WmsError):
        ledger.transfer("group", "alice", -5)


def test_unknown_account(tmp_path):
    ledger = make_ledger(tmp_path)
    with pytest.raises(UnknownAccountError):
        ledger.transfer("nobody", "alice", 1)
    with pytest.raises(UnknownAccountError):
        ledger.balance("nobody")


def test_job_cost_ceiling_and_minimum():
    assert job_cost(3.2, 2) == 7  # ceiling(6.4)
    assert job_cost(0.1, 1) == 1  # minimum one credit
    assert job_cost(2.0, 3) == 6
    assert job_cost(0.0, 5) == 1


def test_charge_job_debits_user_credits_group(tmp_path):
    ledger = make_ledger(tmp_path, {"alice": ("User", 100), "physics": ("Group", 0)})
    ledger.charge_job("job-1", "alice", "CE1", cpu_seconds=3.2, price_per_cpu_second=2,
                      owner_group="physics")
    assert ledger.balance("alice") == 93
    assert ledger.balance("physics") == 7


def test_charge_job_idempotent_per_attempt(tmp_path):
    ledger = make_ledger(tmp_path, {"alice": ("User", 100), "physics": ("Group", 0)})
    first = ledger.charge_job("job-1", "alice", "CE1", 1.0, 2, "physics", attempt=1)
    second = ledger.charge_job("job-1", "alice", "CE1", 1.0, 2, "physics", attempt=1)
    assert first == second
    assert ledger.balance("alice") == 98
    # a different attempt is a separate charge
    ledger.charge_job("job-1", "alice", "CE1", 1.0, 2, "physics", attempt=2)
    assert ledger.balance("alice") == 96


def test_charge_deficit_keeps_job_and_conserves(tmp_path):
    ledger = make_ledger(tmp_path, {"bob": ("User", 1), "physics": ("Group", 0)})
    ledger.charge_job("job-2", "bob", "CE1", 10.0, 5, "physics")
    assert ledger.balance("bob") == 1
    assert ledger.balance("physics") == 0
    entry = ledger.entries()[-1]
    assert entry.kind == "deficit" and entry.amount == 0
    assert ledger.has_charge("job-2", 1)  # deficit still marks the attempt charged


def test_charge_auto_creates_accounts_at_zero(tmp_path):
    ledger = make_ledger(tmp_path, {})
    ledger.charge_job("job-3", "carol", "CE1", 4.0, 1, "newgroup")
    assert ledger.balance("carol") == 0  # deficit path: nothing to pay with
    assert ledger.balance("newgroup") == 0


def test_conservation_under_random_operations(tmp_path):
    funding = {"g1": ("Group", 500), "g2": ("Group", 300), "u1": ("User", 50), "u2": ("User", 0)}
    ledger = make_ledger(tmp_path, funding)
    initial_total = ledger.total()
    assert initial_total == 850
    rng = random.Random(13)
    accounts = list(funding)
    for i in range(200):
        op = rng.random()
        try:
            if op < 0.6:
                ledger.transfer(rng.choice(accounts), rng.choice(accounts + ["stranger"]),
                                rng.randint(1, 80))
            else:
                ledger.charge_job(f"job-{i}", rng.choice(["u1", "u2"]), "CE1",
                                  rng.uniform(0.0, 5.0), rng.randint(0, 3), rng.choice(["g1", "g2"]),
                                  attempt=rng.randint(1, 2))
        except (InsufficientCreditsError, UnknownAccountError, WmsError):
            pass
        assert ledger.total() == initial_total


def test_replay_reproduces_balances_exactly(tmp_path):
    ledger = make_ledger(tmp_path, {"group": ("Group", 400), "alice": ("User", 0)})
    ledger.transfer("group", "alice", 120)
    ledger.charge_job("j1", "alice", "CE1", 2.5, 3, "group")
    expected = {aid: acct.balance for aid, acct in ledger.accounts().items()}
    replayed = Ledger(tmp_path / "ledger.log", tmp_path / "accounts.ad")
    assert {aid: a.balance for aid, a in replayed.accounts().items()} == expected
    assert [e.as_dict() for e in replayed.entries()] == [e.as_dict() for e in ledger.entries()]


def test_cross_instance_visibility(tmp_path):
    a = make_ledger(tmp_path, {"group": ("Group", 100), "alice": ("User", 0)})
    b = Ledger(tmp_path / "ledger.log", tmp_path / "accounts.ad")
    a.transfer("group", "alice", 30)
    assert b.balance("alice") == 30  # second instance refreshes from the file


def test_ledger_opened_before_another_charged_does_not_charge_again(tmp_path):
    stale = make_ledger(tmp_path, {"group": ("Group", 0), "alice": ("User", 100)})
    fresh = Ledger(tmp_path / "ledger.log", tmp_path / "accounts.ad")
    entry = fresh.charge_job("job-1", "alice", "CE1", 3.0, 2, "group")
    assert stale.charge_job("job-1", "alice", "CE1", 3.0, 2, "group") == entry
    assert stale.has_charge("job-1", 1)
    assert len(Ledger(tmp_path / "ledger.log").entries()) == 1
    assert stale.balance("alice") == fresh.balance("alice") == 94


def test_a_batch_of_charges_appends_each_new_one_in_one_write(tmp_path, monkeypatch):
    ledger = make_ledger(tmp_path, {"group": ("Group", 0), "alice": ("User", 100)})
    first = ledger.charge_job("job-1", "alice", "CE1", 1.0, 2, "group")
    batch = [
        Charge("job-1", "alice", "CE1", 1.0, 2, "group"),  # already in the ledger
        Charge("job-2", "alice", "CE1", 1.5, 2, "group"),
        Charge("job-2", "alice", "CE1", 1.5, 2, "group"),  # repeated in the batch
        Charge("job-2", "alice", "CE1", 1.5, 2, "group", attempt=2),
        Charge("job-3", "alice", "CE2", 4.0, 30, "group"),  # more than alice has left
    ]
    calls = []
    for name in ("write", "fsync"):
        real = getattr(os, name)
        monkeypatch.setattr(os, name, lambda *a, name=name, real=real: (calls.append(name), real(*a))[1])
    ids = ledger.charge_jobs(batch)
    monkeypatch.undo()
    assert calls == ["write", "fsync"]
    assert ids[0] == first and ids[1] == ids[2] and len(set(ids)) == 4
    entries = Ledger(tmp_path / "ledger.log", tmp_path / "accounts.ad").entries()
    assert [(e.job_id, e.attempt, e.kind, e.amount) for e in entries] == [
        ("job-1", 1, "charge", 2),
        ("job-2", 1, "charge", 3),
        ("job-2", 2, "charge", 3),
        ("job-3", 1, "deficit", 0),  # the charges before it in the batch left 92
    ]
    assert [e.entry_id for e in entries] == ids[:2] + ids[3:]
    assert ledger.balance("alice") == 92 and ledger.total() == 100


def test_a_failed_batch_leaves_the_view_as_the_file(tmp_path, monkeypatch):
    ledger = make_ledger(tmp_path, {"group": ("Group", 0), "alice": ("User", 100)})

    def full(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    with pytest.raises(OSError):
        ledger.charge_jobs([Charge("job-1", "alice", "CE1", 1.0, 2, "group")])
    monkeypatch.undo()
    assert not ledger.has_charge("job-1", 1)
    assert ledger.balance("alice") == 100
    ledger.charge_job("job-1", "alice", "CE1", 1.0, 2, "group")
    assert ledger.balance("alice") == 98
