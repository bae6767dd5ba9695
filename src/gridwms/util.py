"""Small filesystem and clock helpers shared across components."""

from __future__ import annotations

import fcntl
import json
import os
import secrets
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def now_ms() -> int:
    return int(time.time() * 1000)


def random_suffix(nbytes: int = 4) -> str:
    return secrets.token_hex(nbytes)


def fsync_dir(path: Path | str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes, tmp_prefix: str = ".tmp.") -> None:
    """Write via a temp file in the same directory, fsync, then rename.

    The rename is the commit point: readers either see the old content or
    the complete new content, never a partial write.
    """
    tmp = path.parent / f"{tmp_prefix}{random_suffix()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, path)
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@contextmanager
def flocked(lock_path: Path):
    """Exclusive advisory lock on a sidecar file, held for the duration of
    the block: for a lock over several files, as a file queue's.  An
    append-only log is locked through its own descriptor (`open_locked`).
    The file's directory must exist.

    flock is released automatically if the holding process dies, which is
    what makes it safe to use in crash-prone components.
    """
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def open_locked(path: Path | str, create: bool = False) -> tuple[int, int]:
    """Open an append-only log for reading and appending, and lock it.

    Returns the descriptor, which holds an exclusive flock on the log
    itself until it is closed, and the log's size under that lock.  Every
    writer of the log takes this lock, so no append lands between the
    size read here and the caller's `append_locked`.  Only a caller that
    may make the log passes `create`; otherwise a missing log raises
    FileNotFoundError.
    """
    fd = os.open(path, os.O_RDWR | os.O_APPEND | (os.O_CREAT if create else 0), 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        return fd, os.fstat(fd).st_size
    except BaseException:
        os.close(fd)
        raise


def append_locked(fd: int, size: int, line: str) -> int:
    """Append one line (or several, joined by newlines) to a log that
    `open_locked` gave at `size`, with one write plus fsync; returns the
    log's new size.

    If a crash left a torn line at the end of the log, a newline goes
    first, so the torn tail stays on its own unparseable line instead of
    merging with this record.
    """
    data = line.encode("utf-8") + b"\n"
    if size and os.pread(fd, 1, size - 1) != b"\n":
        data = b"\n" + data
    os.write(fd, data)
    os.fsync(fd)
    return size + len(data)


def read_json_lines(path: Path) -> list[dict]:
    """Parse one-JSON-object-per-line files, skipping corrupt lines."""
    try:
        return parse_json_lines(path.read_bytes())
    except FileNotFoundError:
        return []


def parse_json_lines(raw: bytes) -> list[dict]:
    """The JSON objects of a one-object-per-line log, skipping corrupt lines."""
    out: list[dict] = []
    for line in raw.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(obj, dict):
            out.append(obj)
    return out


def python_child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for spawning `python -m gridwms...` children.

    Prepends this package's source root to PYTHONPATH so children work
    whether or not the package is pip-installed.
    """
    env = dict(os.environ)
    pkg_root = str(Path(__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    parts = [pkg_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    if extra:
        env.update(extra)
    return env


def python_executable() -> str:
    return sys.executable
