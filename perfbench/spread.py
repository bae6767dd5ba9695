"""Run each workload repeatedly and print every metric's median and
quartiles against its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads burst,history,wide] [--runs 10] [--seed0 1000] [--traced 1]

Each untraced run uses the next seed.  The spread of a metric is the
distance between its first and third quartile (statistics.quantiles,
n=4) as a share of its median; "ok" means under a third of the bound.
With --traced N, N traced runs per workload follow, and the tracing
overhead is the traced runs' median jobs_per_s and cpu_ms_per_job
against the untraced ones.  Everything is also written to
perfbench/results/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    summary = next((json.loads(l[len("summary "):]) for l in lines if l.startswith("summary ")), {})
    return json.loads(lines[-1]), summary


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    (HERE / "results").mkdir(exist_ok=True)
    for workload in names:
        runs = []
        for i in range(args.runs):
            result, summary = one_run(workload, args.seed0 + i, seconds, 0)
            runs.append({"seed": args.seed0 + i, "result": result, "summary": summary})
            print(f"{workload} seed {args.seed0 + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"jobs={summary.get('jobs')} per_ce={summary.get('per_ce_jobs')}", flush=True)
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(shares)}")
        print(f"  {'metric':22} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        table = {}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            verdict = "ok" if s < m["bound"] / 3 else ("within" if s <= m["bound"] else "WIDE")
            if m["name"] == "setup_s":
                verdict += " (not gated)"
            table[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": s, "values": values}
            print(f"  {m['name']:22} {med:11.4f} {q1:11.4f} {q3:11.4f} {s:7.3f} {m['bound']:6.2f}  {verdict}")
        traced = []
        for i in range(args.traced):
            result, summary = one_run(workload, args.seed0 + args.runs + i, seconds, 1)
            traced.append({"seed": args.seed0 + args.runs + i, "result": result, "summary": summary})
        if traced:
            for key in ("jobs_per_s", "cpu_ms_per_job"):
                t = statistics.median(r["summary"][key] for r in traced)
                u = table[key]["median"]
                print(f"  tracing overhead on {key}: traced {t:.3f} vs untraced {u:.3f} ({t / u - 1:+.1%})")
        (HERE / "results" / f"spread-{workload}.json").write_text(
            json.dumps({"seconds": seconds, "runs": runs, "table": table, "traced": traced}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
