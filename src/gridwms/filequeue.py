"""Crash-safe FIFO queues in the filesystem.

Layout inside a queue root:

    SEQ                         upper end of the last reserved block of seqs
    <seq>.msg                   unclaimed item, never delivered (16-digit zero-padded seq)
    <seq>.msg.<n>               unclaimed item, delivered n times before
    <seq>.claimed.<owner>.<n>   item claimed by a consumer, on its n-th delivery
    .tmp.<random>               in-flight temporaries
    .lock                       advisory lock serializing mutations

Every visible mutation is a single atomic rename or unlink, so a crash at
any point leaves either the old state or the new state, never an
in-between.  Each operation is one durable step:

    enqueue   the message's temporary is written and fsynced, renamed to
              <seq>.msg, and the directory fsynced: two fsyncs
    claim     one rename to the claimed name, one directory fsync
    settle    an ack unlinks, a nack renames back to <seq>.msg.<n>; one
              directory fsync

Sequence numbers are reserved SEQ_BLOCK at a time (as a database caches a
sequence): SEQ is rewritten, by temporary, fsync, rename and directory
fsync, only when this instance's block runs out or SEQ shows that another
instance reserved a block since.  A crash skips the rest of a block, so
seqs stay unique and increase in the order of enqueues, across instances
and restarts.  The delivery count lives in the item's name and survives
nacks and reverted claims.

The contract is at-least-once: a claimed item whose consumer dies is
reverted to unclaimed by recover_scan and redelivered.  A claimed name
without a count, or an `.attempts.<seq>` sidecar, is left by an earlier
layout: the first reads as count 0, and recover_scan deletes the second.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import WmsError
from .util import flocked, fsync_dir, random_suffix

ACK = "ack"
NACK = "nack"

SEQ_WIDTH = 16
SEQ_BLOCK = 64  # seqs reserved by one write of SEQ
DEFAULT_STALE_AFTER = 60.0


class StorageError(WmsError):
    code = "StorageError"


class NotClaimedError(WmsError):
    code = "NotClaimed"


@dataclass(frozen=True)
class QueueItem:
    seq: int
    payload: bytes
    attempts: int

    def json(self) -> dict:
        return json.loads(self.payload.decode("utf-8"))


def _seq_name(seq: int) -> str:
    return str(seq).zfill(SEQ_WIDTH)


def _msg_name(seq: int, delivered: int) -> str:
    name = f"{_seq_name(seq)}.msg"
    return f"{name}.{delivered}" if delivered else name


def _parse_item(entry: str) -> tuple[int, str | None, int] | None:
    """(seq, owner, deliveries) of an item's file name, the owner None
    while unclaimed; None for any other file."""
    stem, _, rest = entry.partition(".")
    if not stem.isdigit():
        return None
    if rest == "msg":
        return int(stem), None, 0
    if rest.startswith("msg.") and rest[4:].isdigit():
        return int(stem), None, int(rest[4:])
    if rest.startswith("claimed."):
        claim = rest[len("claimed."):]
        owner, _, count = claim.rpartition(".")
        if owner and count.isdigit():
            return int(stem), owner, int(count)
        return int(stem), claim, 0
    return None


class FileQueue:
    """One queue rooted at a directory; safe for concurrent processes.

    `fault_hook`, when set, is invoked as fault_hook(op, path) before each
    filesystem mutation; crash-injection tests raise from it to cut the
    operation sequence at every prefix.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.fault_hook: Callable[[str, str], None] | None = None
        # this instance's block of seqs: the next to issue, and the upper
        # end it wrote to SEQ (-1 before its first block)
        self._next_seq = 0
        self._block_end = -1
        # seq -> (claimed file, deliveries) of each claim this instance holds
        self._claims: dict[int, tuple[Path, int]] = {}
        self.root.mkdir(parents=True, exist_ok=True)

    # -- internals ---------------------------------------------------

    def _hook(self, op: str, path: Path) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op, str(path))

    def _lock(self):
        return flocked(self.root / ".lock")

    def _tmp_path(self) -> Path:
        return self.root / f".tmp.{random_suffix()}"

    def _write_tmp(self, data: bytes, op: str) -> Path:
        tmp = self._tmp_path()
        self._hook(op, tmp)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            os.write(fd, data)
            self._hook(op + ".fsync", tmp)
            os.fsync(fd)
        finally:
            os.close(fd)
        return tmp

    def _rename(self, src: Path, dst: Path, op: str) -> None:
        self._hook(op, dst)
        os.rename(src, dst)
        fsync_dir(self.root)

    def _items(self) -> list[tuple[int, str | None, int, Path]]:
        """(seq, owner, deliveries, path) of every item, in seq order."""
        items = []
        for entry in os.listdir(self.root):
            parsed = _parse_item(entry)
            if parsed is not None:
                items.append((*parsed, self.root / entry))
        items.sort(key=lambda item: item[0])
        return items

    def _read_seq_file(self) -> int:
        try:
            with open(self.root / "SEQ", "rb") as fh:
                return int(fh.read() or 0)
        except (FileNotFoundError, ValueError):
            return 0

    def _take_seq(self) -> int:
        """The next seq, under the queue lock.  A new block starts above SEQ
        when this instance's block is used up, or when SEQ is not the end
        it wrote, because another instance reserved a block since."""
        last = self._read_seq_file()
        if last != self._block_end or self._next_seq > self._block_end:
            end = last + SEQ_BLOCK
            tmp = self._write_tmp(str(end).encode(), "seq.write")
            self._rename(tmp, self.root / "SEQ", "seq.rename")
            self._next_seq, self._block_end = last + 1, end
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _revert(self, seq: int, delivered: int, path: Path, op: str) -> None:
        """Make a claimed item unclaimed again, keeping its count; the
        caller fsyncs the directory."""
        self._hook(op, path)
        os.rename(path, self.root / _msg_name(seq, delivered))
        self._claims.pop(seq, None)

    # -- operations ---------------------------------------------------

    def enqueue(self, payload: Mapping | bytes) -> int:
        """Durably append one item; returns its sequence number.

        The payload must be a single JSON object.  On return the item is
        on disk and visible to claimers in FIFO position; on any failure
        it is provably absent.
        """
        if isinstance(payload, Mapping):
            data = json.dumps(dict(payload), sort_keys=True).encode("utf-8")
        else:
            data = bytes(payload)
            try:
                if not isinstance(json.loads(data.decode("utf-8")), dict):
                    raise ValueError
            except (ValueError, UnicodeDecodeError):
                raise StorageError("payload must be a UTF-8 JSON object") from None
        try:
            with self._lock():
                seq = self._take_seq()
                msg_tmp = self._write_tmp(data, "msg.write")
                self._rename(msg_tmp, self.root / _msg_name(seq, 0), "msg.rename")
                return seq
        except OSError as exc:
            raise StorageError(f"enqueue failed: {exc}") from exc

    def claim(self, owner: str) -> QueueItem | None:
        """Atomically claim the oldest unclaimed item, or None when empty.

        A claimed item is invisible to other claimers until settled or
        reverted by recover_scan.
        """
        if not owner or "/" in owner:
            raise ValueError("owner must be a non-empty path-safe string")
        try:
            with self._lock():
                unclaimed = [(s, n, p) for s, o, n, p in self._items() if o is None]
                if not unclaimed:
                    return None
                seq, delivered, path = unclaimed[0]
                attempts = delivered + 1
                target = self.root / f"{_seq_name(seq)}.claimed.{owner}.{attempts}"
                self._rename(path, target, "claim.rename")
                os.utime(target)  # claim time drives staleness detection
                self._claims[seq] = (target, attempts)
                return QueueItem(seq=seq, payload=target.read_bytes(), attempts=attempts)
        except OSError as exc:
            raise StorageError(f"claim failed: {exc}") from exc

    def settle(self, seq: int, disposition: str) -> None:
        """Settle a claim this instance holds: ack deletes the item durably;
        nack returns it to the queue in its original FIFO slot."""
        if disposition not in (ACK, NACK):
            raise ValueError(f"disposition must be {ACK!r} or {NACK!r}")
        try:
            with self._lock():
                if seq not in self._claims:
                    raise NotClaimedError(f"item {seq} is not claimed")
                path, attempts = self._claims[seq]
                try:
                    if disposition == ACK:
                        self._hook("settle.unlink", path)
                        os.unlink(path)
                        fsync_dir(self.root)
                    else:
                        self._rename(path, self.root / _msg_name(seq, attempts), "settle.nack")
                except FileNotFoundError:  # reverted since, by a recovery scan
                    del self._claims[seq]
                    raise NotClaimedError(f"item {seq} is no longer claimed") from None
                del self._claims[seq]
        except OSError as exc:
            raise StorageError(f"settle failed: {exc}") from exc

    def recover_scan(self, stale_after: float = DEFAULT_STALE_AFTER) -> int:
        """Remove orphan temporaries and revert stale claims, fsyncing the
        directory only if either was found.

        Returns the number of items made claimable again.  Any .tmp.* file
        visible here is an orphan: live operations hold the queue lock for
        the whole temp-write-then-rename sequence.
        """
        recovered = removed = 0
        now = time.time()
        try:
            with self._lock():
                for entry in os.listdir(self.root):
                    path = self.root / entry
                    if entry.startswith((".tmp.", ".attempts.")):
                        try:
                            os.unlink(path)
                            removed += 1
                        except FileNotFoundError:
                            pass
                        continue
                    parsed = _parse_item(entry)
                    if parsed is None or parsed[1] is None:
                        continue
                    try:
                        age = now - path.stat().st_mtime
                    except FileNotFoundError:
                        continue
                    if age >= stale_after:
                        self._revert(parsed[0], parsed[2], path, "recover.revert")
                        recovered += 1
                if recovered or removed:
                    fsync_dir(self.root)
        except OSError as exc:
            raise StorageError(f"recover_scan failed: {exc}") from exc
        return recovered

    def recover_dead_owners(self) -> int:
        """Revert claims whose owner process is gone.

        Owners are conventionally "<component>-<pid>": an owner is dead
        when its pid no longer exists, and one of another form is left alone.
        """
        recovered = 0
        try:
            with self._lock():
                for seq, owner, delivered, path in self._items():
                    _, _, pid = (owner or "").rpartition("-")
                    if not pid.isdigit():
                        continue  # unclaimed, or an owner of another form
                    try:
                        os.kill(int(pid), 0)  # raises unless the owner lives
                    except ProcessLookupError:
                        self._revert(seq, delivered, path, "recover.dead")
                        recovered += 1
                    except PermissionError:
                        pass  # alive, and another user's
                if recovered:
                    fsync_dir(self.root)
        except OSError as exc:
            raise StorageError(f"recover_dead_owners failed: {exc}") from exc
        return recovered

    # -- non-destructive inspection ------------------------------------

    def iter_items(self) -> Iterable[tuple[int, str, bytes]]:
        """Yield (seq, state, payload) for every item, claimed or not."""
        for seq, owner, _delivered, path in self._items():
            try:
                yield seq, "unclaimed" if owner is None else f"claimed.{owner}", path.read_bytes()
            except FileNotFoundError:
                continue

    def pending_count(self) -> int:
        return len(self._items())
