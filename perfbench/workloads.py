"""Workload inputs, made only from a seed.

Everything the system under test receives comes from here: resource
fixtures, account funding, job descriptions with their input sandboxes,
and (for `history`) a store of finished jobs written before the system
starts.  Each input also carries what the generator expects back, so the
oracle in `oracle.py` never asks the program what the right answer is.
"""

from __future__ import annotations

import calendar
import hashlib
import json
import multiprocessing
import os
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

USER = "alice"
OTHER_USER = "bob"
FUNDING = {
    "alice": ("User", 10**12),
    "bob": ("User", 10**12),
    "physics": ("Group", 10**6),
    "astro": ("Group", 10**6),
}
LANES = 5

# Checkpointable job: sums step * mult over steps [0, steps), saving
# step and sum through the gateway after every step, and kills itself at
# step `kill` on a fresh (non-restored) attempt.
SUMMER = """\
import os, signal, sys
from gridwms.client import GatewayClient

kill, steps, mult = (int(a) for a in sys.argv[1:4])
restore = {}
path = os.environ.get("WMS_CHECKPOINT_IN")
if path and os.path.isfile(path):
    for line in open(path):
        k, _, v = line.strip().partition("=")
        if k:
            restore[k] = v
fresh = not restore
start = int(restore.get("step", "-1")) + 1
total = int(restore.get("sum", "0"))
with GatewayClient.from_addr(None, user=os.environ.get("WMS_USER", "")) as client:
    for step in range(start, steps):
        if fresh and step == kill:
            os.kill(os.getpid(), signal.SIGKILL)
        total += step * mult
        client.call("save-state", job=os.environ["WMS_JOB_ID"],
                    pairs=[["step", str(step)], ["sum", str(total)]])
open("result.txt", "w").write(str(total))
"""


@dataclass
class Resource:
    id: str
    type: str  # "CE" | "SE"
    attrs: dict  # attribute name -> int | str | list[str]

    def ad_text(self) -> str:
        parts = [f'Id = "{self.id}"', f'Type = "{self.type}"']
        for name, value in self.attrs.items():
            if isinstance(value, int):
                parts.append(f"{name} = {value}")
            elif isinstance(value, list):
                parts.append(f"{name} = {{{', '.join(json.dumps(v) for v in value)}}}")
            else:
                parts.append(f"{name} = {json.dumps(value)}")
        return "[ " + "; ".join(parts) + "; ]"


@dataclass
class Requirement:
    """A job's Requirements, as classad text and as a plain-Python test."""

    site: str | None  # None: any production CE
    min_space: int | None = None  # set: gangmatch over (CE, SE) pairs

    def text(self) -> str:
        if self.min_space is None:
            if self.site is None:
                return 'other.Status == "Production"'
            return f'other.Status == "Production" && other.Site == "{self.site}"'
        return (f'ce.Status == "Production" && ce.Site == "{self.site}"'
                f" && se.AvailableSpace >= {self.min_space}")

    def ce_ok(self, ce: Resource) -> bool:
        if ce.type != "CE" or ce.attrs.get("Status") != "Production":
            return False
        return self.site is None or ce.attrs.get("Site") == self.site

    def se_ok(self, ce: Resource, se: Resource) -> bool:
        return (se.type == "SE" and se.id in ce.attrs.get("CloseSEs", [])
                and se.attrs["AvailableSpace"] >= (self.min_space or 0))


@dataclass
class Job:
    """One top-level submission and what it must produce."""

    key: str
    kind: str  # plain | ckpt | dag
    jdl: str
    lane: str
    req: Requirement | None = None
    inputs: dict[str, bytes] = field(default_factory=dict)
    outputs: dict[str, bytes] = field(default_factory=dict)
    kill_step: int | None = None
    node_outputs: dict[str, bytes] = field(default_factory=dict)  # dag node -> out.txt


@dataclass
class HistoryJob:
    job: str
    state: str  # DONE_OK | DONE_FAILED | ABORTED | CANCELLED
    owner: str
    destination: str
    era: str
    lane: str
    cpu: float


@dataclass
class Workload:
    name: str
    seed: int
    resources: list[Resource]
    jobs: list[Job]  # submitted in this order, in whole rounds
    round_size: int
    window: int | None  # closed loop: most jobs outstanding at once
    rate: float | None  # open loop: jobs per second
    history: list[HistoryJob] = field(default_factory=list)
    reader_loop: bool = False  # status/query beside the submits
    probe_query_rounds: int = 2  # tag queries over every lane after the drain

    def resource(self, rid: str) -> Resource | None:
        return next((r for r in self.resources if r.id == rid), None)

    def matchable(self) -> list[Resource]:
        reqs = [j.req for j in self.jobs if j.req is not None] or [Requirement(None)]
        return [r for r in self.resources if any(q.ce_ok(r) for q in reqs)]

    def matchable_slots(self) -> int:
        return sum(r.attrs["Slots"] for r in self.matchable())


def acceptance_fixture() -> list[Resource]:
    """CE1, CE2 and CE3 with 8 slots in all, plus SE1, as the acceptance suite writes them."""
    return [
        Resource("CE1", "CE", {"Status": "Production", "FreeCPUs": 4, "TotalCPUs": 4, "Slots": 3,
                               "CloseSEs": ["SE1"], "OwnerGroup": "physics", "PricePerCpuSecond": 2}),
        Resource("CE2", "CE", {"Status": "Production", "FreeCPUs": 2, "TotalCPUs": 2, "Slots": 3,
                               "CloseSEs": ["SE1"], "OwnerGroup": "physics", "PricePerCpuSecond": 1}),
        Resource("CE3", "CE", {"Status": "Production", "FreeCPUs": 7, "TotalCPUs": 8, "Slots": 2,
                               "CloseSEs": [], "OwnerGroup": "astro", "PricePerCpuSecond": 3}),
        Resource("SE1", "SE", {"AvailableSpace": 1000}),
    ]


def wide_fixture(rng: random.Random, n_ce: int, n_se: int) -> list[Resource]:
    """`n_ce` CEs and `n_se` SEs; six CEs at site "bench" hold 8 slots in all."""
    ses = [Resource(f"SE{i:03d}", "SE", {"AvailableSpace": rng.choice([200, 400, 800, 1600, 3200])})
           for i in range(n_se)]
    se_ids = [s.id for s in ses]
    # the same slots in the same Id order for every seed, so that ties in
    # rank break the same way
    bench = set(rng.sample(range(n_ce), 6))
    bench_slots = iter([2, 2, 1, 1, 1, 1])
    ces = []
    for i in range(n_ce):
        # two close SEs each, so every seed gangmatches over as many pairs
        close = sorted(rng.sample(se_ids, 2))
        if i in bench:
            slots = next(bench_slots)
            site, status, total = "bench", "Production", slots + 2
        else:
            slots = rng.randint(1, 4)
            site = f"site{rng.randrange(20):02d}"
            status = rng.choice(["Production", "Production", "Draining"])
            total = slots + rng.randint(0, 4)
        ces.append(Resource(f"CE{i:03d}", "CE", {
            "Status": status, "Site": site, "FreeCPUs": total, "TotalCPUs": total, "Slots": slots,
            "CloseSEs": close, "OwnerGroup": rng.choice(["physics", "astro"]),
            "PricePerCpuSecond": rng.randint(1, 5)}))
    # every bench CE offers one SE that the gang jobs accept
    big = [s.id for s in ses if s.attrs["AvailableSpace"] >= 1600]
    for ce in ces:
        if ce.attrs["Site"] == "bench" and not set(ce.attrs["CloseSEs"]) & set(big):
            ce.attrs["CloseSEs"] = sorted([ce.attrs["CloseSEs"][0], rng.choice(big)])
    return ces + ses


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _tags(lane: str) -> str:
    return f'UserTags = [ bench = "live"; lane = "{lane}"; ];'


def plain_job(rng: random.Random, key: str, lane: str, req: Requirement | None,
              input_kib: int = 0) -> Job:
    """Arithmetic into out.txt; with an input sandbox of `input_kib`, also hash the input."""
    a, b, c = rng.randint(2, 999), rng.randint(2, 999), rng.randint(0, 10**6)
    script = f"echo $(({a}*{b}+{c})) > out.txt"
    outputs = {"out.txt": f"{a * b + c}\n".encode()}
    inputs: dict[str, bytes] = {}
    sandbox = ""
    if input_kib:
        data = rng.randbytes(input_kib * 1024)
        inputs["in.dat"] = data
        script = "sha256sum in.dat > hash.txt; " + script
        outputs["hash.txt"] = f"{hashlib.sha256(data).hexdigest()}  in.dat\n".encode()
        sandbox = ' InputSandbox = {"in.dat"};'
    out_list = ", ".join(f'"{n}"' for n in sorted(outputs))
    requirements = f" Requirements = {req.text()};" if req is not None else ""
    jdl = (f'[ Executable = "/bin/sh"; Arguments = "-c \\"{_esc(script)}\\"";{sandbox}'
           f" OutputSandbox = {{{out_list}}};{requirements} {_tags(lane)} ]")
    return Job(key, "plain", jdl, lane, req or Requirement(None), inputs, outputs)


def ckpt_job(rng: random.Random, key: str, lane: str, steps: int) -> Job:
    mult = rng.randint(1, 50)
    kill = rng.randint(2, steps - 2)
    jdl = (f'[ Executable = "{_esc(sys.executable)}"; Arguments = "summer.py {kill} {steps} {mult}";'
           f' JobType = "Checkpointable"; JobSteps = {steps}; RetryCount = 1;'
           f' InputSandbox = {{"summer.py"}}; OutputSandbox = {{"result.txt"}}; {_tags(lane)} ]')
    total = sum(s * mult for s in range(steps))
    return Job(key, "ckpt", jdl, lane, Requirement(None), {"summer.py": SUMMER.encode()},
               {"result.txt": str(total).encode()}, kill_step=kill)


def dag_job(rng: random.Random, key: str, lane: str) -> Job:
    """Diamond A -> (B, C) -> D; each node writes its own arithmetic result."""
    nodes, expected = [], {}
    for name in "ABCD":
        a, b = rng.randint(2, 999), rng.randint(2, 999)
        expected[name.lower()] = f"{a * b}\n".encode()
        nodes.append(f'{name} = [ Executable = "/bin/sh"; '
                     f'Arguments = "-c \\"echo $(({a}*{b})) > out.txt\\""; OutputSandbox = {{"out.txt"}}; ];')
    jdl = ('[ Type = "DAG"; Nodes = [ ' + " ".join(nodes) + " ]; "
           'Dependencies = { {"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"} }; ]')
    return Job(key, "dag", jdl, lane, None, node_outputs=expected)


def _history(rng: random.Random, n: int, ces: list[Resource]) -> list[HistoryJob]:
    today = time.gmtime()
    base = calendar.timegm((today.tm_year, today.tm_mon, today.tm_mday, 0, 0, 0))
    seen: set[str] = set()
    out = []
    while len(out) < n:
        day = base - 86400 * rng.randint(1, 60)
        job = f"wms-{time.strftime('%Y%m%d', time.gmtime(day))}-{rng.getrandbits(24):06x}"
        if job in seen:
            continue
        seen.add(job)
        state = rng.choices(["DONE_OK", "DONE_FAILED", "ABORTED", "CANCELLED"], [70, 10, 10, 10])[0]
        out.append(HistoryJob(job, state, rng.choice([USER, OTHER_USER]), rng.choice(ces).id,
                              f"E{rng.randrange(8)}", f"L{rng.randrange(LANES)}",
                              round(rng.uniform(0.0, 3.0), 3)))
    return out


def make_workload(name: str, seed: int, seconds: int) -> Workload:
    """Enough rounds of jobs for `seconds` of submitting at any speed the
    program reaches today; the load stops at the last whole round."""
    rng = random.Random(f"{name}:{seed}")
    jobs: list[Job] = []
    if name == "burst":
        # round: 10 jobs, 3 of them hash an input sandbox of 1, 4 or 16 KiB
        for r in range(seconds * 8):
            for i, kib in enumerate(rng.sample([1, 4, 16] + [0] * 7, 10)):
                key = f"b{r:04d}{i}"
                jobs.append(plain_job(rng, key, f"L{(r * 10 + i) % LANES}", None, kib))
        return Workload(name, seed, acceptance_fixture(), jobs, 10, window=48, rate=None)
    if name == "history":
        resources = acceptance_fixture()
        history = _history(rng, 3000, [r for r in resources if r.type == "CE"])
        # round: 20 jobs: 18 plain (4 hash an input of 1, 4, 8 or 16 KiB),
        # 1 checkpointable with 8 steps, 1 diamond DAG
        for r in range(seconds):
            kinds = ["plain"] * 18 + ["ckpt8", "dag"]
            rng.shuffle(kinds)
            plain = [i for i, k in enumerate(kinds) if k == "plain"]
            inputs = dict(zip(rng.sample(plain, 4), [1, 4, 8, 16]))
            for i, kind in enumerate(kinds):
                key, lane = f"h{r:04d}{i:02d}", f"L{(r * 20 + i) % LANES}"
                if kind == "plain":
                    jobs.append(plain_job(rng, key, lane, None, inputs.get(i, 0)))
                elif kind.startswith("ckpt"):
                    jobs.append(ckpt_job(rng, key, lane, int(kind[4:])))
                else:
                    jobs.append(dag_job(rng, key, lane))
        return Workload(name, seed, resources, jobs, 20, window=None, rate=3.5,
                        history=history, reader_loop=True, probe_query_rounds=1)
    if name == "wide":
        resources = wide_fixture(rng, 96, 24)
        # round: 8 jobs: 2 gangmatched over (CE, SE), 2 hash an input of 2 or 8 KiB
        for r in range(seconds * 2):
            roles = rng.sample(["gang600", "gang1200", "in2", "in8", "plain", "plain", "plain", "plain"], 8)
            for i, role in enumerate(roles):
                req = Requirement("bench", int(role[4:]) if role.startswith("gang") else None)
                kib = int(role[2:]) if role.startswith("in") else 0
                key = f"w{r:04d}{i}"
                jobs.append(plain_job(rng, key, f"L{(r * 8 + i) % LANES}", req, kib))
        return Workload(name, seed, resources, jobs, 8, window=16, rate=None)
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(wl: Workload, spool: Path) -> None:
    """Resource fixtures and account funding, as `wms-stack` reads them."""
    res = spool / "resources"
    res.mkdir(parents=True, exist_ok=True)
    for r in wl.resources:
        (res / f"{r.id.lower()}.ad").write_text(r.ad_text())
    entries = ", ".join(f'[ Id = "{a}"; Kind = "{k}"; Balance = {b}; ]' for a, (k, b) in FUNDING.items())
    (spool / "accounts.ad").write_text(f"[ Accounts = {{ {entries} }}; ]")


def _history_events(h: HistoryJob) -> list[tuple[str, int, int, str, dict]]:
    day = h.job.split("-")[1]
    ts = calendar.timegm(time.strptime(day, "%Y%m%d")) * 1000 + 3_600_000
    jdl = (f'[ Executable = "/bin/sh"; Arguments = "-c \\"true\\""; RetryCount = 0;'
           f' UserTags = [ era = "{h.era}"; lane = "{h.lane}" ]; ]')
    dest = {"destination": h.destination}
    events = [("Gateway", 1, "Registered", {"jdl": jdl, "owner": h.owner}),
              ("Gateway", 2, "Accepted", {}),
              ("Gateway", 3, "UserTag", {"name": "era", "value": h.era}),
              ("Gateway", 4, "UserTag", {"name": "lane", "value": h.lane}),
              ("WM", 100009, "Matched", dest),
              ("WM", 100010, "Staged", dest),
              ("LogMonitor", 1, "Committed", dest),
              ("LogMonitor", 2, "Running", dest)]
    if h.state in ("DONE_OK", "DONE_FAILED"):
        code = "0" if h.state == "DONE_OK" else "3"
        events.append(("LogMonitor", 3, "Done", {**dest, "exitCode": code, "cpuSeconds": str(h.cpu)}))
    elif h.state == "ABORTED":
        events.append(("LogMonitor", 3, "Aborted", {**dest, "reason": "wrapper killed by signal 9"}))
    else:
        events.append(("LogMonitor", 3, "Cancelled", dest))
    return [(src, sseq, ts + 100 * i, kind, payload) for i, (src, sseq, kind, payload) in enumerate(events)]


def _no_fsync(fd: int) -> None:
    """The preload need not survive a crash of the machine: a crashed run is discarded."""


@contextmanager
def _without_fsync():
    saved = os.fsync
    os.fsync = _no_fsync
    try:
        yield
    finally:
        os.fsync = saved


def _log_history(src_root: str, lb_root: str, jobs: list[HistoryJob]) -> int:
    """Worker: append the jobs' events through `BookkeepingStore.log_event`."""
    sys.path.insert(0, src_root)
    from gridwms.bookkeeping import BookkeepingStore, Event

    os.fsync = _no_fsync  # this process only writes the preload

    store = BookkeepingStore(lb_root)
    for h in jobs:
        for src, sseq, ts, kind, payload in _history_events(h):
            store.log_event(Event(h.job, src, sseq, ts, kind, payload))
    return len(jobs)


def preload_history(wl: Workload, spool: Path, src_root: Path, workers: int = 2) -> None:
    """Write the finished jobs through the program's own store and ledger.

    Two worker processes append the events; this process writes the
    charges meanwhile, so the ledger has a single writer.
    """
    from gridwms.accounting import Ledger

    ctx = multiprocessing.get_context("spawn")
    chunks = [wl.history[i::workers] for i in range(workers)]
    with ctx.Pool(workers) as pool:
        pending = [pool.apply_async(_log_history, (str(src_root), str(spool / "lbstore"), c)) for c in chunks]
        ledger = Ledger(spool / "accounting" / "ledger.log", spool / "accounts.ad")
        with _without_fsync():
            for h in wl.history:
                ce = wl.resource(h.destination)
                ledger.charge_job(h.job, h.owner, h.destination, h.cpu, ce.attrs["PricePerCpuSecond"],
                                  ce.attrs["OwnerGroup"], attempt=1)
        written = sum(p.get() for p in pending)
        pool.close()
        pool.join()
    if written != len(wl.history):
        raise RuntimeError(f"history preload wrote {written} of {len(wl.history)} jobs")
