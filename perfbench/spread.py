"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (interquartile distance as a share of the median).

    python3 perfbench/spread.py --workload glue --seeds 0-9 [--out FILE]

Each run is untraced and lasts ``run_seconds`` from BENCHMARK.json.  The
spread is the figure the benchmark's bounds in BENCHMARK.json are
compared against: every end-to-end spread must stay within its metric's
bound.  ``--out`` writes every run's result and record together with the
summary as JSON.
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


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs, per_metric, correct = [], {}, True
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        correct &= result["correct"]
        runs.append({"seed": seed, "result": result, "record": record})
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
        for name, m in record.get("raw_metrics", {}).items():
            per_metric.setdefault("raw:" + name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), file=sys.stderr)
    summary = {name: summarize(vals) for name, vals in per_metric.items()}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
        print(f"{name:40s} median {s['median']:.6g}  spread {s['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "correct": correct, "summary": summary, "runs": runs}, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
