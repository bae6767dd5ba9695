"""Closed-economy virtual-credit ledger.

Users pay compute resources for executed jobs; resources earn for their
owning group, and groups redistribute to their users via transfers.  The
economy is closed: every ledger entry debits exactly one account and
credits exactly one account by the same amount, so the sum of balances is
invariant.

The ledger file (one JSON entry per line, append-only) is the source of
truth; balances are a fold over initial funding plus entries and are
recomputed on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from . import classad
from .classad import AdValue, Integer, ListValue, Text, attr_value
from .errors import WmsError
from .util import append_line, flocked, now_ms, read_json_lines

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
        self._accounts: dict[str, Account] = {}
        self._entries: list[LedgerEntry] = []
        self._charged: dict[tuple[str, int], str] = {}  # (job, attempt) -> first charge entry id
        self._size = 0
        self._replay()

    def _lock(self):
        return flocked(self.path.with_suffix(".lock"))

    def _replay(self) -> None:
        self._accounts = {aid: Account(a.id, a.kind, a.balance) for aid, a in self._bootstrap.items()}
        self._entries = []
        self._charged = {}
        for obj in read_json_lines(self.path):
            try:
                entry = LedgerEntry.from_dict(obj)
            except (KeyError, ValueError):
                continue
            self._apply(entry)
        try:
            self._size = self.path.stat().st_size
        except FileNotFoundError:
            self._size = 0

    def _refresh(self) -> None:
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size != self._size:
            self._replay()

    def _apply(self, entry: LedgerEntry) -> None:
        self._ensure(entry.src)
        self._ensure(entry.dst)
        self._accounts[entry.src].balance -= entry.amount
        self._accounts[entry.dst].balance += entry.amount
        self._entries.append(entry)
        if entry.kind in (KIND_CHARGE, KIND_DEFICIT) and entry.job_id is not None:
            self._charged.setdefault((entry.job_id, entry.attempt or 1), entry.entry_id)

    def _ensure(self, account_id: str, kind: str = "User") -> Account:
        acct = self._accounts.get(account_id)
        if acct is None:
            acct = Account(id=account_id, kind=kind, balance=0)
            self._accounts[account_id] = acct
        return acct

    def _append(self, entry: LedgerEntry) -> None:
        append_line(self.path, json.dumps(entry.as_dict(), sort_keys=True))
        self._apply(entry)
        self._size = self.path.stat().st_size

    # -- operations ------------------------------------------------------

    def transfer(self, src: str, dst: str, amount: int, memo: str = "") -> str:
        """Move credits atomically; no partial effect on failure."""
        if amount <= 0:
            raise WmsError("transfer amount must be > 0")
        with self._lock():
            self._refresh()
            if src not in self._accounts:
                raise UnknownAccountError(f"unknown account {src!r}")
            if dst not in self._accounts:
                raise UnknownAccountError(f"unknown account {dst!r}")
            if self._accounts[src].balance < amount:
                raise InsufficientCreditsError(
                    f"{src} has {self._accounts[src].balance}, needs {amount}"
                )
            entry = LedgerEntry(
                entry_id=f"e-{len(self._entries) + 1}",
                kind=KIND_TRANSFER,
                src=src,
                dst=dst,
                amount=amount,
                ts=now_ms(),
                memo=memo,
            )
            self._append(entry)
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
        """Charge the user for an executed job, crediting the resource's
        owning group.  Idempotent per (job, attempt).

        A user who cannot pay gets a zero-amount deficit entry instead;
        accounting never retroactively fails jobs.
        """
        with self._lock():
            self._refresh()
            charged = self._charged.get((job_id, attempt))
            if charged is not None:
                return charged
            user = self._ensure(user_account, "User")
            self._ensure(owner_group, "Group")
            cost = job_cost(cpu_seconds, price_per_cpu_second)
            if user.balance < cost:
                entry = LedgerEntry(
                    entry_id=f"e-{len(self._entries) + 1}",
                    kind=KIND_DEFICIT,
                    src=user_account,
                    dst=owner_group,
                    amount=0,
                    ts=now_ms(),
                    memo=f"insufficient credits for {cost} (job {job_id}, ce {ce_id})",
                    job_id=job_id,
                    attempt=attempt,
                    cpu_seconds=cpu_seconds,
                    price_per_cpu_second=price_per_cpu_second,
                )
            else:
                entry = LedgerEntry(
                    entry_id=f"e-{len(self._entries) + 1}",
                    kind=KIND_CHARGE,
                    src=user_account,
                    dst=owner_group,
                    amount=cost,
                    ts=now_ms(),
                    memo=f"job {job_id} on {ce_id}",
                    job_id=job_id,
                    attempt=attempt,
                    cpu_seconds=cpu_seconds,
                    price_per_cpu_second=price_per_cpu_second,
                )
            self._append(entry)
            return entry.entry_id

    # -- reads ----------------------------------------------------------------

    def balance(self, account_id: str) -> int:
        self._refresh()
        acct = self._accounts.get(account_id)
        if acct is None:
            raise UnknownAccountError(f"unknown account {account_id!r}")
        return acct.balance

    def statement(self, account_id: str) -> list[LedgerEntry]:
        self._refresh()
        if account_id not in self._accounts:
            raise UnknownAccountError(f"unknown account {account_id!r}")
        involved = [e for e in self._entries if account_id in (e.src, e.dst)]
        return sorted(involved, key=lambda e: (e.ts, e.entry_id))

    def accounts(self) -> dict[str, Account]:
        self._refresh()
        return {aid: Account(a.id, a.kind, a.balance) for aid, a in self._accounts.items()}

    def entries(self) -> list[LedgerEntry]:
        self._refresh()
        return list(self._entries)

    def total(self) -> int:
        self._refresh()
        return sum(a.balance for a in self._accounts.values())

    def has_charge(self, job_id: str, attempt: int = 1) -> bool:
        self._refresh()
        return (job_id, attempt) in self._charged
