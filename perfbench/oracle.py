"""Output checks against the generator's own expectations.

Nothing here asks the program what the right answer is: job results are
compared with values the generator computed, placements with the
fixture it wrote (in plain Python, not through the classad engine), and
charges with the price list and the cpuSeconds of each Done event.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import FUNDING, Job, Requirement, Workload

TERMINAL = {"DONE_OK", "DONE_FAILED", "ABORTED", "CANCELLED", "CLEARED"}


def ordered(events: list[dict]) -> list[dict]:
    return sorted(events, key=lambda e: (e["ts"], e["src"], e["sseq"], e["kind"]))


def last_attempt(events: list[dict]) -> list[dict]:
    evs = ordered(events)
    cut = max((i + 1 for i, e in enumerate(evs) if e["kind"] == "Resubmitted"), default=0)
    return evs[cut:]


def first(events: list[dict], kind: str) -> dict | None:
    return next((e for e in ordered(events) if e["kind"] == kind), None)


def done_event(events: list[dict]) -> dict | None:
    return next((e for e in reversed(last_attempt(events)) if e["kind"] == "Done"), None)


def attempts(events: list[dict]) -> int:
    return 1 + sum(e["kind"] == "Resubmitted" for e in events)


class Checker:
    """Collects failures; every check appends a line instead of raising."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.failures: list[str] = []

    def fail(self, text: str) -> None:
        self.failures.append(text)

    def ok_run(self, job_id: str, status: dict, want_attempt: int, label: str) -> bool:
        if status["state"] != "DONE_OK" or status["attempt"] != want_attempt:
            self.fail(f"{label} {job_id}: {status['state']} attempt {status['attempt']}, "
                      f"want DONE_OK attempt {want_attempt}")
            return False
        events = status["events"]
        if attempts(events) != want_attempt or done_event(events) is None:
            self.fail(f"{label} {job_id}: events show {attempts(events)} attempts, Done "
                      f"{'present' if done_event(events) else 'missing'}")
            return False
        return True

    def placement(self, label: str, req: Requirement, job_id: str, events: list[dict]) -> str | None:
        """The CE the final attempt ran on, checked against the job's Requirements."""
        matched = next((e for e in reversed(last_attempt(events)) if e["kind"] == "Matched"), None)
        if matched is None:
            self.fail(f"{label} {job_id}: no Matched event in the final attempt")
            return None
        ce = self.wl.resource(matched["payload"].get("destination", ""))
        if ce is None or not req.ce_ok(ce):
            self.fail(f"{label} {job_id}: placed on {matched['payload']} against {req.text()}")
            return None
        if req.min_space is not None:
            se = self.wl.resource(matched["payload"].get("se", ""))
            if se is None or not req.se_ok(ce, se):
                self.fail(f"{label} {job_id}: ChosenSE {matched['payload'].get('se')!r} "
                          f"on {ce.id} against {req.text()}")
        done = done_event(events)
        if done is not None and done["payload"].get("destination") != ce.id:
            self.fail(f"{label} {job_id}: matched {ce.id}, ran on {done['payload'].get('destination')}")
        return ce.id

    def outputs(self, label: str, job_id: str, got: dict[str, bytes], want: dict[str, bytes]) -> None:
        for name, data in want.items():
            if got.get(name) != data:
                self.fail(f"{label} {job_id}: output {name} is {got.get(name)!r:.60}, want {data!r:.60}")

    def resumed(self, job: Job, job_id: str, events: list[dict]) -> None:
        """The second attempt's first saved step is at or after the kill step."""
        steps = [int(dict(json.loads(e["payload"]["pairs"]))["step"])
                 for e in last_attempt(events) if e["kind"] == "Chkpt"]
        if not steps or steps[0] < job.kill_step:
            self.fail(f"{job.key} {job_id}: attempt 2 saved steps {steps[:3]}, killed at {job.kill_step}")

    def dag_order(self, dag_id: str, nodes: dict[str, list[dict]]) -> None:
        d_registered = first(nodes["d"], "Registered")["ts"]
        for parent in ("b", "c"):
            parent_done = done_event(nodes[parent])["ts"]
            if d_registered < parent_done:
                self.fail(f"dag {dag_id}: D registered at {d_registered}, before {parent} Done at {parent_done}")

    def ledger(self, ledger_file: Path, expected: dict[tuple[str, int], tuple[str, str, float]],
               balances: dict[str, int]) -> None:
        """One charge per (job, attempt), priced from the fixture; balances
        fold from the funding and sum to it."""
        entries = [json.loads(line) for line in ledger_file.read_text().splitlines() if line.strip()]
        seen: dict[tuple[str, int], int] = {}
        fold = {a: b for a, (_k, b) in FUNDING.items()}
        for e in entries:
            fold[e["from"]] = fold.get(e["from"], 0) - e["amount"]
            fold[e["to"]] = fold.get(e["to"], 0) + e["amount"]
            if e["kind"] not in ("charge", "deficit"):
                continue
            key = (e["job"], e.get("attempt") or 1)
            seen[key] = seen.get(key, 0) + 1
            want = expected.get(key)
            if want is None:
                self.fail(f"ledger: unexpected {e['kind']} for {key}")
                continue
            owner, ce_id, cpu = want
            ce = self.wl.resource(ce_id or "")
            if ce is None:
                continue  # its placement check has failed already
            amount = max(1, math.ceil(cpu * ce.attrs["PricePerCpuSecond"]))
            if (e["kind"], e["amount"], e["from"], e["to"]) != ("charge", amount, owner, ce.attrs["OwnerGroup"]):
                self.fail(f"ledger: {key} {e['kind']} {e['amount']} {e['from']}->{e['to']}, "
                          f"want charge {amount} {owner}->{ce.attrs['OwnerGroup']}")
        for key in expected:
            if seen.get(key, 0) != 1:
                self.fail(f"ledger: {seen.get(key, 0)} charges for {key}, want 1")
        initial = sum(b for _k, b in FUNDING.values())
        if sum(balances.values()) != initial:
            self.fail(f"ledger: balances sum to {sum(balances.values())}, funding was {initial}")
        for account, balance in balances.items():
            if fold.get(account) != balance:
                self.fail(f"ledger: {account} balance {balance}, ledger fold gives {fold.get(account)}")
