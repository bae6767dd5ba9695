"""Submission descriptors: the adapted job handed to the executor.

A descriptor is the output of the job-adapter Helper: the resolved JDL
plus a concrete wrapper plan (command line, environment, sandbox
manifests, stdio routing, checkpoint restore pairs).  It travels through
the executor-submit queue as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WrapperPlan:
    command: list[str]
    env: dict[str, str] = field(default_factory=dict)
    inputs: list[dict] = field(default_factory=list)  # {"name":..., "source": abs path}
    outputs: list[str] = field(default_factory=list)
    output_dir: str = ""
    stdin: str | None = None
    stdout: str | None = None
    stderr: str | None = None
    checkpoint_pairs: list[list[str]] | None = None
    listener: list | None = None  # [host, port]

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "env": self.env,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "output_dir": self.output_dir,
            "stdin": self.stdin,
            "stdout": self.stdout,
            "stderr": self.stderr,
            "checkpoint_pairs": self.checkpoint_pairs,
            "listener": self.listener,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "WrapperPlan":
        return cls(
            command=[str(c) for c in obj["command"]],
            env={str(k): str(v) for k, v in dict(obj.get("env") or {}).items()},
            inputs=[dict(i) for i in obj.get("inputs") or []],
            outputs=[str(o) for o in obj.get("outputs") or []],
            output_dir=str(obj.get("output_dir") or ""),
            stdin=obj.get("stdin"),
            stdout=obj.get("stdout"),
            stderr=obj.get("stderr"),
            checkpoint_pairs=obj.get("checkpoint_pairs"),
            listener=obj.get("listener"),
        )


@dataclass
class SubmissionDescriptor:
    job_id: str
    attempt: int
    submit_to: str
    final_jdl: str
    plan: WrapperPlan
    owner: str = ""

    @property
    def idem_key(self) -> str:
        # one staging per (job, attempt) no matter how often the queue
        # redelivers the descriptor; the executor's handle and file names.
        # Job ids are path components already (input/, lbstore), and the
        # attempt number has no dot, so the key splits back unambiguously.
        return f"{self.job_id}.{self.attempt}"

    def as_dict(self) -> dict:
        return {
            "job": self.job_id,
            "attempt": self.attempt,
            "submit_to": self.submit_to,
            "jdl": self.final_jdl,
            "owner": self.owner,
            "plan": self.plan.as_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SubmissionDescriptor":
        return cls(
            job_id=str(obj["job"]),
            attempt=int(obj["attempt"]),
            submit_to=str(obj["submit_to"]),
            final_jdl=str(obj["jdl"]),
            owner=str(obj.get("owner") or ""),
            plan=WrapperPlan.from_dict(obj["plan"]),
        )
