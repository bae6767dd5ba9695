"""Per-layer metrics: from the traced system's spans, from the spool's
event timestamps, and from timing the wrapper on its own.

Every metric here is measured from outside the program: the spans come
from wrappers that perfbench/tracer.py puts around the public calls, and
the rest from files the program writes anyway (job.log, the lbstore
events, the ledger).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

# name -> unit; the order BENCHMARK.json lists them in
UNITS = {
    "gateway.submit.p50_ms": "ms",
    "gateway.queue_reads_per_submit": "items/submit",
    "gateway.status.p50_ms": "ms",
    "gateway.query.p50_ms": "ms",
    "filequeue.enqueue.p50_ms": "ms",
    "filequeue.claim.p50_ms": "ms",
    "filequeue.settle.p50_ms": "ms",
    "filequeue.wm-requests.depth_max": "items",
    "filequeue.executor-submit.depth_max": "items",
    "filequeue.claim_hit_ratio": "ratio",
    "manager.handle_request.p50_ms": "ms",
    "manager.run_scans.p50_ms": "ms",
    "manager.scan_busy_share": "ratio",
    "manager.records_per_scan": "records/scan",
    "manager.abort_scan.p50_ms": "ms",
    "manager.dag_scan.p50_ms": "ms",
    "manager.charge_scan.p50_ms": "ms",
    "manager.stuck_scan.p50_ms": "ms",
    "broker.resolve.p50_ms": "ms",
    "broker.snapshot.p50_ms": "ms",
    "broker.snapshots_per_job": "calls/job",
    "classad.parse_ad.per_job": "calls/job",
    "jdl.validate_job.per_job": "calls/job",
    "jdl.validate_job.busy_ms_per_job": "ms/job",
    "bookkeeping.log_event.p50_ms": "ms",
    "bookkeeping.log_event.per_job": "calls/job",
    "bookkeeping.job_record.p50_ms": "ms",
    "bookkeeping.job_record.per_job": "calls/job",
    "bookkeeping.list_jobs.p50_ms": "ms",
    "executor.tick.p50_ms": "ms",
    "executor.slot_use": "ratio",
    "executor.ce_skew": "ratio",
    "executor.heartbeat.p50_ms": "ms",
    "wrapper.run.p50_ms": "ms",
    "wrapper.spawn.p50_ms": "ms",
    "logmonitor.tail.p50_ms": "ms",
    "logmonitor.lag.p50_ms": "ms",
    "accounting.charge_job.p50_ms": "ms",
    "accounting.charge_lag.p50_ms": "ms",
    "stage.match.p50_ms": "ms",
    "stage.match.p95_ms": "ms",
    "stage.stage.p50_ms": "ms",
    "stage.commit.p50_ms": "ms",
    "stage.slot_wait.p50_ms": "ms",
    "stage.slot_wait.p95_ms": "ms",
    "stage.run.p50_ms": "ms",
}

# (metric prefix, first event, second event) over each plain job's single attempt
STAGES = [("match", "Registered", "Matched"), ("stage", "Matched", "Staged"),
          ("commit", "Staged", "Committed"), ("slot_wait", "Committed", "Running"),
          ("run", "Running", "Done")]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def time_wrapper_spawn(src: Path, work: Path, samples: int) -> list[float]:
    """ms to run `python -m gridwms.wrapper` on a /bin/true plan, start to exit."""
    plan = {"command": ["/bin/true"], "env": {}, "inputs": [], "outputs": [], "output_dir": "",
            "stdin": None, "stdout": None, "stderr": None, "checkpoint_pairs": None, "listener": None}
    env = dict(os.environ, PYTHONPATH=str(src))
    out = []
    for i in range(samples):
        scratch = work / f"spawn-{i}"
        scratch.mkdir(parents=True)
        (scratch / "plan.json").write_text(json.dumps(plan))
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "gridwms.wrapper", str(scratch / "plan.json")],
                              cwd=scratch, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        out.append((time.perf_counter() - t0) * 1000)
        if done.returncode != 0:
            raise RuntimeError(f"wrapper on a /bin/true plan exited {done.returncode}")
        shutil.rmtree(scratch)
    return out


def _clipped(spans: list[tuple[float, float]], lo: float, hi: float) -> float:
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in spans)


def per_layer(trace_file: Path, wl, joblog: list[dict], stage_events: list[list[dict]],
              done_by_id: dict[str, int], jobs: int, first_sent: float, spool: Path,
              spawn_ms: list[float]) -> dict:
    """Every metric in UNITS; `first_sent` is wall-clock seconds, `done_by_id` ms."""
    header, cols = tracer.load(trace_file)
    names, offset = header["names"], header["offset"]
    counts, samples = header["counts"], header["samples"]
    spans: dict[str, list[tuple[float, float]]] = {}
    for nid, t0, t1 in zip(cols["name"], cols["start"], cols["end"]):
        spans.setdefault(names[nid], []).append((t0 + offset, t1 + offset))
    dur = {k: [(b - a) * 1000 for a, b in v] for k, v in spans.items()}
    lo, hi = first_sent, max(done_by_id.values()) / 1000
    v: dict[str, float] = {}

    def p50(metric: str, span: str) -> None:
        v[metric] = median(dur.get(span, []))

    def per_job(metric: str, span: str) -> None:
        v[metric] = len(dur.get(span, [])) / jobs

    p50("gateway.submit.p50_ms", "gateway.submit")
    submits = len(dur.get("gateway.submit", [])) + len(dur.get("gateway.submit-dag", []))
    v["gateway.queue_reads_per_submit"] = counts.get("gateway.queue_reads", 0) / max(1, submits)
    p50("gateway.status.p50_ms", "gateway.status")
    p50("gateway.query.p50_ms", "gateway.query")
    for op in ("enqueue", "claim", "settle"):
        p50(f"filequeue.{op}.p50_ms", f"filequeue.{op}")
    for queue in ("wm-requests", "executor-submit"):
        v[f"filequeue.{queue}.depth_max"] = header["depth_max"].get(queue, 0)
    v["filequeue.claim_hit_ratio"] = counts.get("filequeue.claim_hits", 0) / max(1, counts.get("filequeue.claims", 0))
    p50("manager.handle_request.p50_ms", "manager.handle_request")
    p50("manager.run_scans.p50_ms", "manager.run_scans")
    v["manager.scan_busy_share"] = _clipped(spans.get("manager.run_scans", []), lo, hi) / (hi - lo)
    v["manager.records_per_scan"] = counts.get("manager.scan_records", 0) / max(1, len(dur.get("manager.run_scans", [])))
    for scan in ("abort", "dag", "charge", "stuck"):
        p50(f"manager.{scan}_scan.p50_ms", f"manager.{scan}_scan")
    p50("broker.resolve.p50_ms", "broker.resolve")
    p50("broker.snapshot.p50_ms", "broker.snapshot")
    per_job("broker.snapshots_per_job", "broker.snapshot")
    per_job("classad.parse_ad.per_job", "classad.parse_ad")
    per_job("jdl.validate_job.per_job", "jdl.validate_job")
    v["jdl.validate_job.busy_ms_per_job"] = counts.get("jdl.validate_job.busy_ms", 0.0) / jobs
    p50("bookkeeping.log_event.p50_ms", "bookkeeping.log_event")
    per_job("bookkeeping.log_event.per_job", "bookkeeping.log_event")
    p50("bookkeeping.job_record.p50_ms", "bookkeeping.job_record")
    per_job("bookkeeping.job_record.per_job", "bookkeeping.job_record")
    p50("bookkeeping.list_jobs.p50_ms", "bookkeeping.list_jobs")
    p50("executor.tick.p50_ms", "executor.tick")
    p50("executor.heartbeat.p50_ms", "executor.heartbeat")

    # job.log: wrapper runs, slot use and placement
    started: dict[str, tuple[int, str]] = {}
    runs, busy, per_ce = [], [], {}
    for rec in joblog:
        if rec["kind"] == "Executing":
            ce = rec["data"].get("ceId", "")
            started[rec["handle"]] = (rec["ts"], ce)
            per_ce[ce] = per_ce.get(ce, 0) + 1
        elif rec["kind"] in ("Terminated", "Aborted", "Cancelled") and rec["handle"] in started:
            ts0, _ce = started.pop(rec["handle"])
            busy.append((ts0 / 1000, rec["ts"] / 1000))
            if rec["kind"] == "Terminated":
                runs.append(rec["ts"] - ts0)
    v["executor.slot_use"] = _clipped(busy, lo, hi) / (wl.matchable_slots() * (hi - lo))
    matchable = [r.id for r in wl.matchable() if r.type == "CE"]
    counts_on = [per_ce.get(ce, 0) for ce in matchable]
    v["executor.ce_skew"] = max(counts_on) / (sum(counts_on) / len(counts_on)) if sum(counts_on) else 0.0
    v["wrapper.run.p50_ms"] = median(runs)
    v["wrapper.spawn.p50_ms"] = median(spawn_ms)
    v["logmonitor.tail.p50_ms"] = median(samples.get("logmonitor.tail_busy_ms", []))
    v["logmonitor.lag.p50_ms"] = median(samples.get("logmonitor.lag_ms", []))

    # ledger: Done -> charge entry, live jobs only
    p50("accounting.charge_job.p50_ms", "accounting.charge_job")
    lags = []
    for line in (spool / "accounting" / "ledger.log").read_text().splitlines():
        entry = json.loads(line)
        if entry.get("job") in done_by_id:
            lags.append(entry["ts"] - done_by_id[entry["job"]])
    v["accounting.charge_lag.p50_ms"] = median(lags)

    # stages, from the event timestamps of each plain job's single attempt
    gaps: dict[str, list[float]] = {name: [] for name, _a, _b in STAGES}
    for events in stage_events:
        ts = {}
        for e in sorted(events, key=lambda e: e["ts"]):
            ts.setdefault(e["kind"], e["ts"])
        for name, a, b in STAGES:
            if a in ts and b in ts:
                gaps[name].append(ts[b] - ts[a])
    for name, values in gaps.items():
        v[f"stage.{name}.p50_ms"] = median(values)
    v["stage.match.p95_ms"] = p95(gaps["match"])
    v["stage.slot_wait.p95_ms"] = p95(gaps["slot_wait"])
    return v
