"""Closed-economy virtual-credit ledger.

Users pay compute resources for executed jobs; resources earn for their
owning group, and groups redistribute to their users via transfers.  The
economy is closed: every ledger entry debits exactly one account and
credits exactly one account by the same amount, so the sum of balances is
invariant.

The ledger file (one JSON entry per line, append-only) is the source of
truth; balances are a fold over initial funding plus entries and are
recomputed on load, and again whenever the file's size is not the one
this instance last folded.  The entries themselves are read from the
file when asked for, so a `Ledger` holds no list of them.  A batch of
charges or a transfer opens the file once, flocks that descriptor (no
sidecar lock file) and appends its entries with one write and one
fsync; a torn last line left by a crash stays on its own line, which
the fold skips, so a charge torn that way is not in the ledger and is
made again by the next charge of its attempt.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import classad
from .classad import AdValue, Integer, ListValue, Text, attr_value
from .errors import WmsError
from .util import append_locked, now_ms, open_locked, parse_json_lines

KIND_TRANSFER = "transfer"
KIND_CHARGE = "charge"
KIND_DEFICIT = "deficit"


class UnknownAccountError(WmsError):
    code = "UnknownAccount"


class InsufficientCreditsError(WmsError):
    code = "InsufficientCredits"


@dataclass
class Account:
    id: str
    kind: str  # User | Group | Resource
    balance: int


@dataclass(frozen=True)
class LedgerEntry:
    entry_id: str
    kind: str
    src: str
    dst: str
    amount: int
    ts: int
    memo: str = ""
    job_id: str | None = None
    attempt: int | None = None
    cpu_seconds: float | None = None
    price_per_cpu_second: int | None = None

    def as_dict(self) -> dict:
        out = {
            "entry": self.entry_id,
            "kind": self.kind,
            "from": self.src,
            "to": self.dst,
            "amount": self.amount,
            "ts": self.ts,
            "memo": self.memo,
        }
        if self.job_id is not None:
            out["job"] = self.job_id
        if self.attempt is not None:
            out["attempt"] = self.attempt
        if self.cpu_seconds is not None:
            out["cpuSeconds"] = self.cpu_seconds
        if self.price_per_cpu_second is not None:
            out["price"] = self.price_per_cpu_second
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "LedgerEntry":
        return cls(
            entry_id=str(obj["entry"]),
            kind=str(obj["kind"]),
            src=str(obj["from"]),
            dst=str(obj["to"]),
            amount=int(obj["amount"]),
            ts=int(obj["ts"]),
            memo=str(obj.get("memo", "")),
            job_id=obj.get("job"),
            attempt=obj.get("attempt"),
            cpu_seconds=obj.get("cpuSeconds"),
            price_per_cpu_second=obj.get("price"),
        )


@dataclass(frozen=True)
class Charge:
    """One executed attempt to charge: its user pays the resource's owning
    group for the CPU time it used there."""

    job_id: str
    user_account: str
    ce_id: str
    cpu_seconds: float
    price_per_cpu_second: int
    owner_group: str
    attempt: int = 1


def job_cost(cpu_seconds: float, price_per_cpu_second: int) -> int:
    """ceiling(cpuSeconds * price), minimum 1 credit."""
    return max(1, math.ceil(cpu_seconds * price_per_cpu_second))


def load_bootstrap_accounts(path: Path) -> dict[str, Account]:
    """Parse the accounts bootstrap ad:

        [ Accounts = { [ Id="alice"; Kind="User"; Balance=100; ], ... }; ]
    """
    accounts: dict[str, Account] = {}
    if not path.exists():
        return accounts
    value = attr_value(classad.parse_ad(path.read_text("utf-8")), "accounts")
    if value is None:
        return accounts
    if not isinstance(value, ListValue):
        raise WmsError(f"{path}: Accounts must be a list of account ads")
    for item in value.items:
        if not isinstance(item, AdValue):
            raise WmsError(f"{path}: each account must be a nested ad")
        aid = attr_value(item.ad, "id")
        kind = attr_value(item.ad, "kind")
        balance = attr_value(item.ad, "balance")
        if not isinstance(aid, Text) or not isinstance(balance, Integer) or balance.value < 0:
            raise WmsError(f"{path}: account needs Id (string) and Balance (integer >= 0)")
        kind_text = kind.value if isinstance(kind, Text) else "User"
        accounts[aid.value] = Account(id=aid.value, kind=kind_text, balance=balance.value)
    return accounts


class Ledger:
    """Double-entry credit ledger over one append-only file."""

    def __init__(self, ledger_path: Path | str, accounts_file: Path | str | None = None):
        self.path = Path(ledger_path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.accounts_file = Path(accounts_file) if accounts_file else None
        self._bootstrap = (
            load_bootstrap_accounts(self.accounts_file) if self.accounts_file else {}
        )
        # a fold over the ledger file's first `_size` bytes: the balances, the
        # charged attempts and the entry count; the entries stay in the file
        self._accounts: dict[str, Account] = {}
        self._count = 0
        self._charged: dict[tuple[str, int], str] = {}  # (job, attempt) -> first charge entry id
        self._size = 0
        self._replay(self._read())

    @contextmanager
    def _locked(self) -> Iterator[tuple[int, int]]:
        """The ledger file, open and locked (`util.open_locked`), with this
        view refreshed to the locked size."""
        fd, size = open_locked(self.path, create=True)
        try:
            if size != self._size:
                self._replay(os.pread(fd, size, 0))
            yield fd, size
        finally:
            os.close(fd)

    def _read(self) -> bytes:
        try:
            return self.path.read_bytes()
        except FileNotFoundError:
            return b""

    def _entries_of(self, data: bytes) -> Iterator[LedgerEntry]:
        for obj in parse_json_lines(data):
            try:
                yield LedgerEntry.from_dict(obj)
            except (KeyError, ValueError):
                continue

    def _replay(self, data: bytes) -> None:
        self._accounts = {aid: Account(a.id, a.kind, a.balance) for aid, a in self._bootstrap.items()}
        self._count = 0
        self._charged = {}
        for entry in self._entries_of(data):
            self._apply(entry)
        self._size = len(data)

    def _refresh(self) -> None:
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size != self._size:
            self._replay(self._read())

    def _apply(self, entry: LedgerEntry) -> None:
        self._ensure(entry.src)
        self._ensure(entry.dst)
        self._accounts[entry.src].balance -= entry.amount
        self._accounts[entry.dst].balance += entry.amount
        self._count += 1
        if entry.kind in (KIND_CHARGE, KIND_DEFICIT) and entry.job_id is not None:
            self._charged.setdefault((entry.job_id, entry.attempt or 1), entry.entry_id)

    def _ensure(self, account_id: str, kind: str = "User") -> Account:
        acct = self._accounts.get(account_id)
        if acct is None:
            acct = Account(id=account_id, kind=kind, balance=0)
            self._accounts[account_id] = acct
        return acct

    def _write(self, fd: int, size: int, entries: list[LedgerEntry]) -> None:
        lines = "\n".join(json.dumps(entry.as_dict(), sort_keys=True) for entry in entries)
        self._size = append_locked(fd, size, lines)

    # -- operations ------------------------------------------------------

    def transfer(self, src: str, dst: str, amount: int, memo: str = "") -> str:
        """Move credits atomically; no partial effect on failure."""
        if amount <= 0:
            raise WmsError("transfer amount must be > 0")
        with self._locked() as (fd, size):
            if src not in self._accounts:
                raise UnknownAccountError(f"unknown account {src!r}")
            if dst not in self._accounts:
                raise UnknownAccountError(f"unknown account {dst!r}")
            if self._accounts[src].balance < amount:
                raise InsufficientCreditsError(
                    f"{src} has {self._accounts[src].balance}, needs {amount}"
                )
            entry = LedgerEntry(
                entry_id=f"e-{self._count + 1}",
                kind=KIND_TRANSFER,
                src=src,
                dst=dst,
                amount=amount,
                ts=now_ms(),
                memo=memo,
            )
            self._write(fd, size, [entry])
            self._apply(entry)
            return entry.entry_id

    def charge_job(
        self,
        job_id: str,
        user_account: str,
        ce_id: str,
        cpu_seconds: float,
        price_per_cpu_second: int,
        owner_group: str,
        attempt: int = 1,
    ) -> str:
        """Charge one executed job: `charge_jobs` of a batch of one."""
        charge = Charge(job_id, user_account, ce_id, cpu_seconds, price_per_cpu_second, owner_group, attempt)
        return self.charge_jobs([charge])[0]

    def charge_jobs(self, charges: Iterable[Charge]) -> list[str]:
        """Charge each user for an executed job, crediting the resource's
        owning group, with one write and one fsync for the whole batch.
        Idempotent per (job, attempt): a charge already in the ledger, or
        repeated in the batch, appends nothing.  Returns each charge's
        entry id, the earlier one for a repeat.

        A user who cannot pay gets a zero-amount deficit entry instead;
        accounting never retroactively fails jobs.
        """
        with self._locked() as (fd, size):
            ids: list[str] = []
            new: list[LedgerEntry] = []
            try:
                for charge in charges:
                    charged = self._charged.get((charge.job_id, charge.attempt))
                    if charged is None:
                        entry = self._charge_entry(charge)
                        self._apply(entry)  # later charges of the batch see this one
                        new.append(entry)
                        charged = entry.entry_id
                    ids.append(charged)
                if new:
                    self._write(fd, size, new)
            except BaseException:
                self._replay(self._read())  # drop what this view applied but the file lacks
                raise
            return ids

    def _charge_entry(self, charge: Charge) -> LedgerEntry:
        user = self._ensure(charge.user_account, "User")
        self._ensure(charge.owner_group, "Group")
        cost = job_cost(charge.cpu_seconds, charge.price_per_cpu_second)
        if user.balance < cost:
            kind, amount = KIND_DEFICIT, 0
            memo = f"insufficient credits for {cost} (job {charge.job_id}, ce {charge.ce_id})"
        else:
            kind, amount, memo = KIND_CHARGE, cost, f"job {charge.job_id} on {charge.ce_id}"
        return LedgerEntry(
            entry_id=f"e-{self._count + 1}",
            kind=kind,
            src=charge.user_account,
            dst=charge.owner_group,
            amount=amount,
            ts=now_ms(),
            memo=memo,
            job_id=charge.job_id,
            attempt=charge.attempt,
            cpu_seconds=charge.cpu_seconds,
            price_per_cpu_second=charge.price_per_cpu_second,
        )

    # -- reads ----------------------------------------------------------------

    def balance(self, account_id: str) -> int:
        self._refresh()
        acct = self._accounts.get(account_id)
        if acct is None:
            raise UnknownAccountError(f"unknown account {account_id!r}")
        return acct.balance

    def accounts(self) -> dict[str, Account]:
        self._refresh()
        return {aid: Account(a.id, a.kind, a.balance) for aid, a in self._accounts.items()}

    def entries(self) -> list[LedgerEntry]:
        """Every entry, read from the ledger file."""
        return list(self._entries_of(self._read()))

    def total(self) -> int:
        self._refresh()
        return sum(a.balance for a in self._accounts.values())

    def has_charge(self, job_id: str, attempt: int = 1) -> bool:
        """Answered from this instance's view, without reading the file:
        charges are never removed, so a stale view can only say "not
        charged", and charge_jobs refreshes under the lock before it
        charges."""
        return (job_id, attempt) in self._charged
