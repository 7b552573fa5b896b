"""Measure how the program's times move with the reference kernel's.

    python3 perfbench/calibrate.py --seconds 360

Alternates, for ``--seconds``, three kernel samples with a fixed slice of
each of the glue, pants-traces and center workloads (the pants slice
starts from empty caches each time).  For each probe it prints the
slope of log probe time on log kernel time, over windows of three
rounds, and the spread (standard deviation of the log) of the probe's
times raw and normalized with a few exponents.  ``run.KERNEL_EXPONENT``
is this slope; see README.md.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402

WINDOW = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    probes = {}
    for workload, count in (("glue", 300), ("pants-traces", 150), ("center", 60)):
        st = workloads.setup(workload, 0)
        probes[workload] = (st, st.items[:count], workloads.OPS[workload])
    caches = [f for m in probes["pants-traces"][0].mods.values()
              for f in vars(m).values() if hasattr(f, "cache_clear")]

    rounds: list[dict] = []
    end = time.monotonic() + args.seconds
    while time.monotonic() < end:
        row = {"kernel": [worker.kernel() for _ in range(3)]}
        for workload, (st, items, op) in probes.items():
            if workload == "pants-traces":
                for f in caches:
                    f.cache_clear()
            t0 = time.perf_counter()
            for item in items:
                op(st, item)
            row[workload] = time.perf_counter() - t0
        rounds.append(row)
    if len(rounds) < 2 * WINDOW:
        print("error: too few rounds; give more --seconds", file=sys.stderr)
        return 2

    windows = [rounds[i:i + WINDOW] for i in range(len(rounds) - WINDOW + 1)]
    xs = [math.log(statistics.median(k for r in w for k in r["kernel"])) for w in windows]
    print(f"{len(rounds)} rounds")
    for workload in probes:
        ys = [math.log(statistics.fmean(r[workload] for r in w)) for w in windows]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        spreads = "  ".join(f"a={a}: {statistics.pstdev([y - a * x for x, y in zip(xs, ys)]):.3f}"
                            for a in (0.0, 0.5, 0.8, 1.0))
        print(f"{workload:13s} slope {slope:.2f}  log-time sd {spreads}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
