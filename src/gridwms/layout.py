"""Spool directory layout shared by every component."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable


@dataclass(frozen=True)
class SpoolLayout:
    """Well-known paths under one spool root.

    All components of a deployment point at the same root; the layout is
    the contract between them.  The root is made absolute up front:
    descriptor manifests carry these paths into wrapper processes that
    run with a different working directory.
    """

    root: Path

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root).resolve())

    @property
    def wm_requests(self) -> Path:
        return self.root / "wm-requests"

    @property
    def executor_submit(self) -> Path:
        return self.root / "executor-submit"

    @property
    def lb_root(self) -> Path:
        return self.root / "lbstore"

    @property
    def executor_staged(self) -> Path:
        return self.root / "executor" / "staged"

    @property
    def executor_log(self) -> Path:
        return self.root / "executor" / "job.log"

    @property
    def executor_log_offset(self) -> Path:
        return self.root / "executor" / "job.log.offset"

    @property
    def run_root(self) -> Path:
        return self.root / "executor" / "run"

    def run_dir(self, handle: str) -> Path:
        return self.run_root / handle

    def input_dir(self, job_id: str) -> Path:
        return self.root / "input" / job_id

    def input_file(self, job_id: str, name: str, prefix: str | None = None) -> Path | None:
        """An uploaded input sandbox file: under `prefix` (a DAG node's
        name) first when given, then at the top; None when absent."""
        base = self.input_dir(job_id)
        for path in ([base / prefix / name] if prefix else []) + [base / name]:
            if path.is_file():
                return path
        return None

    def inputs_complete(self, job_id: str, names: Iterable[str], prefix: str | None = None) -> bool:
        """True once every declared input file has been uploaded."""
        return all(self.input_file(job_id, name, prefix) for name in names)

    def output_dir(self, job_id: str) -> Path:
        return self.root / "output" / job_id

    @property
    def ledger_file(self) -> Path:
        return self.root / "accounting" / "ledger.log"

    @property
    def accounts_file(self) -> Path:
        return self.root / "accounts.ad"

    @property
    def resources_static(self) -> Path:
        return self.root / "resources"

    @property
    def resources_live(self) -> Path:
        return self.root / "resources-live"

    @property
    def dead_letter(self) -> Path:
        return self.root / "dead-letter"

    @property
    def crashctl(self) -> Path:
        return self.root / "crashctl"

    def ensure(self) -> "SpoolLayout":
        for d in (
            self.root,
            self.wm_requests,
            self.executor_submit,
            self.lb_root,
            self.executor_staged,
            self.run_root,
            self.root / "input",
            self.root / "output",
            self.ledger_file.parent,
            self.resources_static,
            self.resources_live,
            self.dead_letter,
            self.crashctl,
        ):
            d.mkdir(parents=True, exist_ok=True)
        return self
