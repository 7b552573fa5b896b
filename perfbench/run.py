"""The skeintor benchmark: seeded verdict workloads, measured end to end
or traced per layer.

    python3 perfbench/run.py --workload glue --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every episode is a fresh interpreter (``worker.py``) that sets up and
then runs the workload's whole seeded input list once, one operation at
a time.  An untraced run first starts set-up-only interpreters for about
a second, then runs episodes until ``--seconds`` have passed.  A traced run
alternates untraced and traced episodes for ``--seconds``.  The last line
of standard output is the result, one JSON object; the line before it is
the full record (machine, seed, samples, checksums, failures).  The exit
code is 0 when every verdict held, 1 when some failed, and 2 when the
benchmark could not run.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up-only interpreters per untraced run: at least this many, and
# more while this much time has not passed (see README.md).
SETUP_SAMPLES = 5
SETUP_MIN_S = 1.0
TIME_LIMIT_S = 170.0
# Every time is expressed at the machine speed at which the workers'
# reference kernel takes this long (see worker.py and README.md).  The
# program's times move with the kernel's to this power: the slope of log
# program time on log kernel time that calibrate.py measures.
KERNEL_REF_S = 0.8e-3
KERNEL_EXPONENT = 0.8
KERNEL_WINDOW_S = 0.25

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "battery_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg_at_start": loadavg}


class Runner:
    def __init__(self, workload: str, seed: int, corrupt: bool):
        self.workload, self.seed, self.corrupt = workload, seed, corrupt
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def episode(self, mode: str, spans: Path | None = None) -> tuple[dict, float]:
        """Start one worker and return its report and its wall time."""
        cmd = [sys.executable, "-I", str(HERE / "worker.py"), self.workload, str(self.seed), mode]
        cmd += ["--corrupt"] if self.corrupt else []
        cmd += ["--spans", str(spans)] if spans else []
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the time limit: {' '.join(cmd)}")
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def checksum(episodes: list[dict]) -> tuple[dict, bool]:
    """The episode's work counts, and whether every episode repeated them."""
    keys = {(e["attempted"], e["terms_total"]) for e in episodes}
    ops, terms = episodes[0]["attempted"], episodes[0]["terms_total"]
    return {"ops": ops, "terms_total": terms}, len(keys) == 1


def speed_factor(kernel_s: float) -> float:
    """Factor taking times measured while the kernel took ``kernel_s`` to
    the reference machine speed."""
    return (KERNEL_REF_S / kernel_s) ** KERNEL_EXPONENT


def scale(report: dict, normalize: bool) -> float:
    """Factor taking a worker's times to the reference machine speed."""
    return speed_factor(report["kernel_s"]) if normalize else 1.0


def local_scale(report: dict, start: float, duration: float) -> float:
    """Factor from the kernel samples taken within ``KERNEL_WINDOW_S`` of
    the interval (the worker's median when fewer than three were)."""
    times, samples = report["kernel"]
    lo = bisect.bisect_left(times, start - KERNEL_WINDOW_S)
    near = samples[lo:bisect.bisect_right(times, start + duration + KERNEL_WINDOW_S)]
    return speed_factor(statistics.median(near)) if len(near) >= 3 else scale(report, True)


def kernel_time(report: dict, start: float, end: float) -> float:
    """Time of the kernel samples that started between ``start`` and ``end``."""
    times, samples = report["kernel"]
    return sum(samples[bisect.bisect_left(times, start):bisect.bisect_left(times, end)])


def op_times(workload: str, report: dict, normalize: bool) -> list[float]:
    """The episode's operation times, each at its local machine speed.
    A battery's operations are its suites, timed by the suites themselves
    and run back to back from the battery's start; the kernel samples
    taken during a suite are subtracted from its time."""
    if workload == "battery":
        start, out = report["starts"][0], []
        for _, _, elapsed in report["suites"].values():
            own = elapsed - kernel_time(report, start, start + elapsed)
            out.append(own * (local_scale(report, start, elapsed) if normalize else 1.0))
            start += elapsed
        return out
    return [lat * (local_scale(report, start, lat) if normalize else 1.0)
            for start, lat in zip(report["starts"], report["latencies"])]


def wall_time(report: dict, wall: float, normalize: bool) -> float:
    """An episode's wall time without the kernel: its operations at their
    local machine speed, the rest (interpreter start, import, set-up) at
    the worker's median speed."""
    rest = wall - sum(report["latencies"]) - report["kernel_outside_s"]
    if not normalize:
        return rest + sum(report["latencies"])
    ops = zip(report["starts"], report["latencies"])
    return (rest * scale(report, True)
            + sum(lat * local_scale(report, start, lat) for start, lat in ops))


def end_to_end(workload: str, episodes: list[dict], walls: list[float], setups: list[dict],
               normalize: bool = True) -> dict:
    # every episode runs the same operations in the same order: take each
    # operation's median over the episodes
    per_op = [statistics.median(col) for col in zip(*(op_times(workload, e, normalize)
                                                       for e in episodes))]
    verdicts = episodes[0]["terms_total"] if workload == "battery" else len(per_op)
    rate = verdicts / sum(per_op)
    values = {
        "verdicts_per_s": rate,
        "verdict_p50_ms": 1e3 * statistics.median(per_op),
        "verdict_p99_ms": 1e3 * percentile(per_op, 0.99),
        "battery_s": statistics.median(wall_time(e, w, normalize) for e, w in zip(episodes, walls)),
        "setup_s": statistics.median(r["setup_s"] * scale(r, normalize) for r in setups),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in episodes),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_untraced(r: Runner, seconds: float, record: dict) -> dict:
    setups, start = [], time.monotonic()
    while len(setups) < SETUP_SAMPLES or time.monotonic() - start < SETUP_MIN_S:
        setups.append(r.episode("setup")[0])
    episodes, walls = [], []
    start = time.monotonic()
    while not episodes or time.monotonic() - start < seconds:
        rep, wall = r.episode("run")
        episodes.append(rep)
        walls.append(wall)
    setups += episodes
    record.update(episodes=len(episodes), setup_samples=len(setups),
                  latency_samples=sum(len(e["latencies"]) for e in episodes),
                  kernel_ms=[round(1e3 * e["kernel_s"], 4) for e in setups],
                  raw_metrics=end_to_end(r.workload, episodes, walls, setups, normalize=False))
    record["latency_samples_beyond_p99"] = (
        len(episodes[0]["latencies"]) - math.ceil(0.99 * len(episodes[0]["latencies"]))
        if r.workload != "battery" else 0)
    return {"episodes": episodes, "metrics": end_to_end(r.workload, episodes, walls, setups)}


def run_traced(r: Runner, seconds: float, record: dict) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{r.workload}-seed{r.seed}.bin"
    plain, traced, summaries = [], [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        plain.append(r.episode("run")[0])
        traced.append(r.episode("trace", spans)[0])
        f = scale(traced[-1], True)
        summaries.append({k: v * f if tracing.UNITS[k] == "s" else v
                          for k, v in tracing.summarize(str(spans)).items()})
    op_time = lambda eps: statistics.median(sum(e["latencies"]) * scale(e, True) for e in eps)
    # counts repeat between episodes (see counts_repeat); times take the median
    metrics = {name: (statistics.median_low if unit == "count" else statistics.median)(
        s[name] for s in summaries) for name, unit in tracing.METRICS}
    metrics["trace.overhead_frac"] = op_time(traced) / op_time(plain) - 1
    work, _ = checksum(plain + traced)
    metrics["work.ops"], metrics["work.terms_total"] = work["ops"], work["terms_total"]
    counts_repeat = all(len({s[m] for s in summaries}) == 1
                        for m, unit in tracing.METRICS if unit == "count")
    record.update(episodes=len(traced), spans_file=str(spans.relative_to(ROOT)),
                  counts_repeat=counts_repeat, profile=profile(summaries[-1]))
    problems = tracing.coverage_problems(r.workload, metrics)
    if problems:
        raise BenchError("the spans miss layers this workload exercises; update "
                         "tracing.TARGETS: " + "; ".join(problems))
    return {"episodes": plain + traced,
            "metrics": {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()}}


def profile(summary: dict) -> dict:
    """Each layer's share of the traced operation time, from self times."""
    total = summary["trace.op_s"] or 1.0
    shares: dict[str, float] = {"ring": summary["ring.mul_self_s"]}
    for metric in set(tracing.SELF_METRIC.values()):
        layer = metric.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + summary[metric]
    return {k: round(v / total, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="negative control: check verdicts against a wrong expectation")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "skeintor" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'skeintor'}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "corrupt": args.corrupt, "seconds": args.seconds, "machine": machine()}
    runner = Runner(args.workload, args.seed, args.corrupt)
    try:
        result = (run_traced if args.trace else run_untraced)(runner, args.seconds, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    episodes = result["episodes"]
    work, repeats = checksum(episodes)
    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    correct = failed == 0 and repeats
    record.update(work=work, work_repeats=repeats, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted,
                  first_failures=[f for e in episodes for f in e["first_failures"]][:3],
                  suites=episodes[-1]["suites"], metrics=result["metrics"])
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
