"""One run of the gridwms benchmark.

    python3 perfbench/run.py --workload burst|history|wide --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, starts the system (`wms-stack`
defaults, in its own process, see launcher.py), drives it from this one
process over at most two gateway connections for S seconds of submits
in whole rounds, waits for every job and charge, checks every output
against the generator's own expectations, and prints one JSON line last:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced system (BENCHMARK.json names both).  Exits 1
when a check fails and 2 when the run cannot be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads
from oracle import TERMINAL, Checker, done_event
from wire import CallFailed, Conn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACES = HERE / "traces"
RESULTS = HERE / "results"

SETUP_LAUNCHES = 3
START_LIMIT = 60.0  # s for the system to answer its first request
DRAIN_LIMIT = 60.0  # s for the last jobs to finish after the submits stop
CHARGE_LIMIT = 30.0  # s for the charge scan to catch up
# reads after the drain, spread over a few seconds so that a short stall
# of the machine does not decide their median
PROBE_STATUS, PROBE_STATUS_GAP = 100, 0.005
PROBE_QUERY_GAP = 0.05
SPAWN_SAMPLES = 10
READ_STATUS, READ_PAUSE = 10, 0.5  # the history reader's round: status calls and a query, then s of pause

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "turnaround_p50_ms": "ms",
    "turnaround_p90_ms": "ms",
    "submit_p50_ms": "ms",
    "submit_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "rss_peak_mb": "MB",
    "spool_kb_per_job": "KiB",
}


def pct(values: list[float], p: int) -> float:
    """The p-th percentile (inclusive method); the median for p = 50."""
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def calibrate() -> float:
    """ms for a fixed loop of Python, best of three: how fast this machine
    is right now, so that drift between runs can be told from the program."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i for i in range(300_000))
        best = min(best, time.perf_counter() - t0)
    return round(best * 1000, 2)


def tree_bytes(root: Path) -> int:
    """Apparent size of a tree that the running system may be changing."""
    total, stack = 0, [str(root)]
    while stack:
        try:
            with os.scandir(stack.pop()) as it:
                entries = list(it)
        except FileNotFoundError:
            continue
        for entry in entries:
            try:
                if entry.is_dir(follow_symlinks=False):
                    stack.append(entry.path)
                elif entry.is_file(follow_symlinks=False):
                    total += entry.stat(follow_symlinks=False).st_size
            except FileNotFoundError:
                continue  # a temporary file renamed or removed meanwhile
    return total


class JobLogTail:
    """Follows the executor's job.log from outside the program."""

    def __init__(self, path: Path):
        self.path = path
        self.offset = 0
        self.rest = b""
        self.records: list[dict] = []

    def poll(self) -> list[dict]:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        self.offset += len(data)
        *lines, self.rest = (self.rest + data).split(b"\n")
        new = []
        for line in lines:
            try:
                new.append(json.loads(line))
            except ValueError:
                continue
        self.records.extend(new)
        return new


class System:
    """The launcher process, with its CPU and memory read from /proc."""

    def __init__(self, spool: Path, log: Path, trace: Path | None):
        self.spool, self.log, self.trace = spool, log, trace
        self.proc: subprocess.Popen | None = None
        self.addr: tuple[str, int] | None = None

    def launch(self) -> float:
        """Start the system; returns seconds until its gateway answered."""
        cmd = [sys.executable, str(HERE / "launcher.py"), "--src", str(SRC), "--spool", str(self.spool)]
        if self.trace is not None:
            cmd += ["--trace", str(self.trace)]
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL)
        self.addr = self._address(t0 + START_LIMIT)
        conn = Conn(self.addr, "alice")
        try:
            conn.call("account-balance", account="alice")
            return time.perf_counter() - t0
        finally:
            conn.close()

    def _address(self, deadline: float) -> tuple[str, int]:
        out = b""
        while b"\n" not in out:
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                raise RuntimeError(f"system did not start; see {self.log}")
            out += chunk
        host, _, port = out.split(b"\n")[0].decode().rpartition(" ")[2].rpartition(":")
        return host, int(port)

    def cpu_s(self) -> float:
        """CPU seconds of the system process and its reaped children."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rpartition(")")[2].split()
        return sum(int(f) for f in fields[11:15]) / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the system process")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def kill_left_wrappers(spool: Path) -> None:
    """After a failed run, end wrapper process groups the stopped system left."""
    for pid_file in (spool / "executor" / "run").glob("*/wrapper.pid"):
        try:
            os.killpg(int(pid_file.read_text()), signal.SIGKILL)
        except (OSError, ValueError):
            pass


class Run:
    def __init__(self, wl, spool: Path):
        self.wl, self.spool = wl, spool
        self.tail = JobLogTail(spool / "executor" / "job.log")
        self.lock = threading.Lock()  # the reader thread counts too
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ids: dict[str, str] = {}  # job key -> job id
        self.start_ms: dict[str, float] = {}  # job key -> ms sent (closed) or due (open)
        self.submit_ms: list[float] = []
        self.late_ms: list[float] = []
        self.collisions: list[str] = []
        self.reads: dict[str, list[float]] = {"status": [], "query": []}
        self.first_sent = 0.0

    def op(self, fn, *args, **kwargs):
        """One counted operation; a failure is counted and recorded, not raised."""
        with self.lock:
            self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (CallFailed, OSError) as exc:
            with self.lock:
                self.failed += 1
            self.errors.append(str(exc))
            return None

    # -- load phase -------------------------------------------------------------

    def submit_all(self, conn, seconds: float) -> None:
        wl = self.wl
        ended: set[str] = set()
        live: set[str] = set()
        t_start = time.time()
        self.first_sent = t_start
        t_end = t_start + seconds
        for i, job in enumerate(wl.jobs):
            if i % wl.round_size == 0 and time.time() >= t_end:
                break
            if wl.rate is not None:
                due = t_start + i / wl.rate
                time.sleep(max(0.0, due - time.time()))
                start = due
            else:
                while len(live) - len(ended) >= wl.window:
                    for rec in self.tail.poll():
                        if rec["kind"] in ("Terminated", "Aborted", "Cancelled") and rec["jobId"] in live:
                            ended.add(rec["jobId"])
                    time.sleep(0.005)
                start = time.time()
            sent = time.time()
            result = self.op(conn.timed, "submit-dag" if job.kind == "dag" else "submit", jdl=job.jdl)
            if result is None:
                continue
            body, ms = result
            self.submit_ms.append(ms)
            if wl.rate is not None:
                self.late_ms.append((sent - start) * 1000)
            job_id = body["job"]
            if job_id in self.ids.values():
                # gateway.new_job_id drew an id it had already given out: the
                # job was never registered, so it is left out of every check
                self.collisions.append(f"{job.key} got {job_id}")
                continue
            self.ids[job.key] = job_id
            self.start_ms[job.key] = start * 1000
            live.add(job_id)
            for name, data in job.inputs.items():
                self.op(conn.upload, job_id, name, data)

    def read_loop(self, conn, stop: threading.Event) -> None:
        """Closed loop beside the submits: READ_STATUS status calls and one
        tag query, then READ_PAUSE seconds of think time."""
        wl = self.wl
        rng = random.Random(f"reads:{wl.seed}")
        eras = sorted({h.era for h in wl.history})
        while not stop.is_set():
            for _ in range(READ_STATUS):
                h = rng.choice(wl.history)
                result = self.op(conn.timed, "status", job=h.job)
                if result is not None:
                    body, ms = result
                    self.reads["status"].append(ms)
                    if (body["state"], body["destination"], body["owner"]) != (h.state, h.destination, h.owner):
                        self.errors.append(f"status {h.job}: {body['state']} on {body['destination']}, "
                                           f"want {h.state} on {h.destination}")
            era = rng.choice(eras)
            result = self.op(conn.timed, "query", predicates=[{"field": "tag:era", "values": [era]}])
            if result is not None:
                body, ms = result
                self.reads["query"].append(ms)
                want = sorted(h.job for h in wl.history if h.era == era)
                if body["jobs"] != want:
                    self.errors.append(f"query era={era}: {len(body['jobs'])} jobs, want {len(want)}")
            stop.wait(READ_PAUSE)

    # -- drain ---------------------------------------------------------------------

    def drain(self, conn) -> dict[str, dict]:
        """Wait for every job to end; returns job key -> final status (verbose)."""
        by_id = {job_id: key for key, job_id in self.ids.items()}
        kinds = {job.key: job.kind for job in self.wl.jobs}
        # plain jobs end with a Terminated (or Aborted) record, checkpointable
        # ones with Terminated; DAGs only in bookkeeping
        candidates = {k for k, kind in kinds.items() if kind == "dag" and k in self.ids}
        waiting = set(self.ids) - candidates
        final: dict[str, dict] = {}
        deadline = time.monotonic() + DRAIN_LIMIT
        seen = 0
        while (waiting or candidates) and time.monotonic() < deadline:
            self.tail.poll()
            new, seen = self.tail.records[seen:], len(self.tail.records)
            for rec in new:
                key = by_id.get(rec["jobId"])
                if key in waiting and (rec["kind"] == "Terminated" or
                                       (rec["kind"] == "Aborted" and kinds[key] == "plain")):
                    waiting.discard(key)
                    candidates.add(key)
            for key in sorted(candidates):
                body = conn.call("status", job=self.ids[key], verbose=True)
                if body["state"] in TERMINAL:
                    final[key] = body
                    candidates.discard(key)
            time.sleep(0.1)
        if waiting or candidates:
            raise RuntimeError(f"{len(waiting) + len(candidates)} jobs not done {DRAIN_LIMIT:.0f}s "
                               f"after the last submit: {sorted(waiting | candidates)[:5]}")
        return final

    def wait_charges(self, keys: set[tuple[str, int]]) -> None:
        ledger = self.spool / "accounting" / "ledger.log"
        deadline = time.monotonic() + CHARGE_LIMIT
        while time.monotonic() < deadline:
            charged = set()
            for line in ledger.read_text().splitlines():
                try:
                    e = json.loads(line)
                except ValueError:
                    continue  # a line still being appended
                if e.get("job") is not None:
                    charged.add((e["job"], e.get("attempt") or 1))
            if keys <= charged:
                return
            time.sleep(0.1)
        raise RuntimeError(f"{len(keys - charged)} runs not charged {CHARGE_LIMIT:.0f}s after the drain")


def run(args) -> int:
    wl_name, seed, trace = args.workload, args.seed, bool(args.trace)
    calib_ms = calibrate()
    phases: dict[str, float] = {}  # seconds spent in each step of the run
    last = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name] = round(now - last[0], 3)
        last[0] = now

    wl = workloads.make_workload(wl_name, seed, args.seconds)
    work = WORK / f"{wl_name}-{seed}-{'t' if trace else 'u'}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    spool = work / "spool"
    spool.mkdir(parents=True)
    workloads.write_inputs(wl, spool)
    if wl.history:
        workloads.preload_history(wl, spool, SRC)
    phase("build")

    trace_file = TRACES / f"{wl_name}.spans" if trace else None
    if trace_file is not None:
        TRACES.mkdir(exist_ok=True)
    system = System(spool, work / "system.log", trace_file)
    r = Run(wl, spool)
    ok = False
    try:
        setups = []
        for i in range(1 if trace else SETUP_LAUNCHES):
            if i:
                system.stop()
            setups.append(system.launch())
        cpu0, bytes0 = system.cpu_s(), tree_bytes(spool)
        phase("setup")

        conn = Conn(system.addr, workloads.USER)
        reader_conn = Conn(system.addr, workloads.USER) if wl.reader_loop else None
        stop_reads = threading.Event()
        reader = None
        if reader_conn is not None:
            reader = threading.Thread(target=r.read_loop, args=(reader_conn, stop_reads))
            reader.start()
        try:
            r.submit_all(conn, args.seconds)
        finally:
            stop_reads.set()
            if reader is not None:
                reader.join()
                reader_conn.close()
        phase("load")
        final = r.drain(conn)
        phase("drain")

        # expand DAGs into their nodes
        nodes: dict[str, dict[str, dict]] = {}
        for job in wl.jobs:
            if job.kind == "dag" and job.key in final:
                tags = final[job.key]["userTags"]
                nodes[job.key] = {n: conn.call("status", job=tags[f"node:{n}"], verbose=True)
                                  for n in "abcd" if f"node:{n}" in tags}
        charge_keys = {(s["job"], s["attempt"]) for s in final.values() if s["destination"]}
        charge_keys |= {(s["job"], s["attempt"]) for ns in nodes.values() for s in ns.values()}
        r.wait_charges(charge_keys)
        cpu1, rss, bytes1 = system.cpu_s(), system.rss_peak_mb(), tree_bytes(spool)
        phase("charges")

        # reads after the drain: the end-to-end read latencies of workloads
        # without a reader beside the load, which spans many more of the
        # manager's scan periods than a probe could
        check = Checker(wl)
        rng = random.Random(f"probe:{seed}")
        probe: dict[str, list[float]] = {"status": [], "query": []}
        for key in rng.choices(sorted(final), k=20 if wl.reader_loop else PROBE_STATUS):
            time.sleep(PROBE_STATUS_GAP)
            result = r.op(conn.timed, "status", job=r.ids[key])
            if result is not None:
                probe["status"].append(result[1])
                if result[0]["state"] != final[key]["state"]:
                    check.fail(f"status {r.ids[key]}: {result[0]['state']} after {final[key]['state']}")
        for lane in [f"L{i}" for i in range(workloads.LANES)] * wl.probe_query_rounds:
            time.sleep(PROBE_QUERY_GAP)
            result = r.op(conn.timed, "query", predicates=[{"field": "tag:lane", "values": [lane]}])
            if result is not None:
                probe["query"].append(result[1])
                want = {h.job for h in wl.history if h.lane == lane}
                want |= {r.ids[j.key] for j in wl.jobs if j.lane == lane and j.kind != "dag" and j.key in r.ids}
                if sorted(result[0]["jobs"]) != sorted(want):
                    check.fail(f"query lane={lane}: {len(result[0]['jobs'])} jobs, want {len(want)}")

        # oracle checks
        for err in r.errors:
            check.fail(err)
        charges: dict[tuple[str, int], tuple[str, str, float]] = {
            (h.job, 1): (h.owner, h.destination, h.cpu) for h in wl.history}
        placed: dict[str, int] = {}
        done_ms: dict[str, int] = {}  # job key -> Done ts
        done_by_id: dict[str, int] = {}  # every job id, DAG nodes too -> Done ts
        stage_jobs: list[list[dict]] = []
        for job in wl.jobs:
            if job.key not in r.ids:
                continue
            job_id, status = r.ids[job.key], final[job.key]
            if job.kind == "dag":
                if not check.ok_run(job_id, status, 1, job.key):
                    continue
                if sorted(nodes[job.key]) != list("abcd"):
                    check.fail(f"dag {job_id}: nodes {sorted(nodes[job.key])}")
                    continue
                for n, ns in nodes[job.key].items():
                    if check.ok_run(ns["job"], ns, 1, f"{job.key}.{n}"):
                        check.outputs(job.key, ns["job"], {"out.txt": conn.download(ns["job"], "out.txt")},
                                      {"out.txt": job.node_outputs[n]})
                        dest = check.placement(f"{job.key}.{n}", workloads.Requirement(None),
                                               ns["job"], ns["events"])
                        done = done_event(ns["events"])
                        charges[(ns["job"], 1)] = (workloads.USER, dest, float(done["payload"]["cpuSeconds"]))
                        done_by_id[ns["job"]] = done["ts"]
                check.dag_order(job_id, {n: ns["events"] for n, ns in nodes[job.key].items()})
            else:
                want_attempt = 2 if job.kind == "ckpt" else 1
                if not check.ok_run(job_id, status, want_attempt, job.key):
                    continue
                events = status["events"]
                check.outputs(job.key, job_id, {n: conn.download(job_id, n) for n in job.outputs},
                              job.outputs)
                dest = check.placement(job.key, job.req, job_id, events)
                if dest is not None:
                    placed[dest] = placed.get(dest, 0) + 1
                done = done_event(events)
                charges[(job_id, want_attempt)] = (workloads.USER, dest, float(done["payload"]["cpuSeconds"]))
                done_by_id[job_id] = done["ts"]
                if job.kind == "ckpt":
                    check.resumed(job, job_id, events)
                else:
                    stage_jobs.append(events)
            done_ms[job.key] = done_event(status["events"])["ts"]
        balances = {a: r.op(conn.call, "account-balance", account=a)["balance"] for a in workloads.FUNDING}
        check.ledger(spool / "accounting" / "ledger.log", charges, balances)
        conn.close()
        phase("checks")
        system.stop()
        phase("stop")

        jobs_ok = len(done_ms)
        if not jobs_ok:
            raise RuntimeError("no job completed")
        r.attempted += len(r.ids)  # each job is an operation of its own
        # plain jobs only: a DAG or a checkpointable job is several runs in a
        # row, and with 3 in 20 of them in history they would make up p90
        plain = {j.key for j in wl.jobs if j.kind == "plain"}
        reads = r.reads if wl.reader_loop else probe
        turnaround = [done_ms[k] - r.start_ms[k] for k in done_ms if k in plain]
        makespan_s = (max(done_ms.values()) - r.first_sent * 1000) / 1000
        summary = {
            "workload": wl_name, "seed": seed, "trace": int(trace), "calib_ms": calib_ms, "jobs": jobs_ok,
            "submits": len(r.submit_ms), "input_build_s": phases["build"],
            "setup_s_each": [round(s, 4) for s in setups], "makespan_s": round(makespan_s, 3),
            "per_ce_jobs": dict(sorted(placed.items())), "collisions": r.collisions,
            # read latencies: reported here, not gated (see README)
            "status_p50_ms": pct(reads["status"], 50), "query_p50_ms": pct(reads["query"], 50),
            "reads_beside": {k: len(v) for k, v in r.reads.items()},
            "reads_after": {k: len(v) for k, v in probe.items()},
            "late_ms_p50": round(pct(r.late_ms, 50), 2) if r.late_ms else None,
            "late_ms_max": round(max(r.late_ms), 2) if r.late_ms else None,
            "jobs_per_s": jobs_ok / makespan_s, "cpu_ms_per_job": (cpu1 - cpu0) * 1000 / jobs_ok,
        }
        if trace:
            r.tail.poll()
            spawn = layers.time_wrapper_spawn(SRC, work, SPAWN_SAMPLES)
            values = layers.per_layer(trace_file, wl, r.tail.records, stage_jobs, done_by_id, jobs_ok,
                                      r.first_sent, spool, spawn)
            metrics = {k: {"value": values[k], "unit": u} for k, u in layers.UNITS.items()}
        else:
            values = {
                "setup_s": statistics.median(setups),
                "jobs_per_s": jobs_ok / makespan_s,
                "turnaround_p50_ms": pct(turnaround, 50),
                "turnaround_p90_ms": pct(turnaround, 90),
                "submit_p50_ms": pct(r.submit_ms, 50),
                "submit_p90_ms": pct(r.submit_ms, 90),
                "cpu_ms_per_job": (cpu1 - cpu0) * 1000 / jobs_ok,
                "rss_peak_mb": rss,
                "spool_kb_per_job": (bytes1 - bytes0) / 1024 / jobs_ok,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        phase("metrics")
        summary["phase_s"] = phases
        summary["failures"] = check.failures[:20]
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{wl_name}-{seed}-{'trace' if trace else 'e2e'}.json").write_text(
            json.dumps({"summary": summary, "metrics": metrics}, indent=1))
        print("summary " + json.dumps(summary))
        ok = not check.failures
        print(json.dumps({"correct": ok, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}))
        return 0 if ok else 1
    finally:
        system.stop()
        if ok:
            shutil.rmtree(work, ignore_errors=True)
        else:
            kill_left_wrappers(spool)  # and keep the spool and system.log to look at


def main() -> int:
    parser = argparse.ArgumentParser(description="one run of the gridwms benchmark")
    parser.add_argument("--workload", required=True, choices=("burst", "history", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gridwms" / "__init__.py").is_file():
        print(f"no gridwms sources under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a SIGTERM still stops the system through run()'s finally clauses
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except (RuntimeError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
