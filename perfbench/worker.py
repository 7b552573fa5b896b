"""One episode of a benchmark workload, in a fresh interpreter.

    python3 -I perfbench/worker.py WORKLOAD SEED MODE [--corrupt] [--spans PATH]

MODE is ``setup`` (set up, report the set-up time and exit), ``run``
(set up, then run every input once) or ``trace`` (the same with spans
recorded, written to PATH).  The report is one JSON line on standard
output.  ``run.py`` starts this script; it is not meant to be run by
hand except when debugging the benchmark.

Throughout the episode a timer signal runs a fixed reference kernel
every ``CAL_PERIOD_S`` and records how long it took; ``run.py`` uses the
median to express the episode's times at a reference machine speed.
The kernel's own time is kept out of every timing: this script
subtracts it from set-up and operation times and reports the part spent
outside operations (``kernel_outside_s``), and ``run.py`` subtracts the
samples that fall inside a battery's suites from their own timings.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAL_PERIOD_S = 0.05

# A small sparse product over tuple keys, the same kind of work as the
# program's torus products but independent of the program's code.
_KA = tuple(((i % 7, i // 7), (i * 37) % 11 - 5) for i in range(28))
_KB = tuple(((i % 5, i // 5), (i * 13) % 7 - 3) for i in range(28))


def kernel() -> float:
    """Seconds taken by four passes of the reference product."""
    t0 = time.perf_counter()
    for _ in range(4):
        out: dict = {}
        for ka, a in _KA:
            for kb, b in _KB:
                key = (ka[0] + kb[0], ka[1] + kb[1])
                out[key] = out.get(key, 0) + a * b
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken before the episode and from a SIGALRM handler
    during it.  ``times`` holds when each sample started, ``spent`` the
    total time taken by the samples and the handler."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.samples = [kernel() for _ in range(5)]
        self.times = [0.0] * 5
        self.spent = time.perf_counter() - self.origin
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.times.append(t0 - self.origin)
        self.spent += time.perf_counter() - t0

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return {"kernel_s": statistics.median(self.samples), "kernel": [self.times, self.samples]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import workloads

    cal = Calibration()
    t0, spent0 = time.perf_counter(), cal.spent
    st = workloads.setup(args.workload, args.seed, args.corrupt)
    report = {"setup_s": time.perf_counter() - t0 - (cal.spent - spent0)}
    program = Path(st.mods["surface"].__file__).resolve()
    if ROOT / "src" not in program.parents:
        raise SystemExit(f"skeintor was imported from {program}, not from {ROOT / 'src'}")
    if args.mode == "setup":
        report.update(cal.stop())
        print(json.dumps(report))
        return 0

    battery = args.workload == "battery"
    op = workloads.battery_op if battery else workloads.OPS[args.workload]
    recorder = None
    if args.mode == "trace":
        import tracing
        recorder = tracing.Recorder()
        recorder.install(st.mods)
        after = None if battery else (lambda a, r, _: (0, r[1]))
        op = recorder.wrap("bench.op", op, after=after)

    latencies, starts, failures, terms, suites = [], [], [], 0, {}
    inside = 0.0    # kernel time that fell inside operations
    for item in st.items:
        t, spent0 = time.perf_counter(), cal.spent
        starts.append(t - cal.origin)
        try:
            result = op(st, item)
        except Exception as exc:  # an exception is a failed verdict
            result = None
            failures.append(f"{item!r}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t - (cal.spent - spent0))
        inside += cal.spent - spent0
        if battery and result is not None:
            rows, bad = result
            suites = {row["name"]: row for row in rows}
            failures.extend(bad)
            terms += sum(row["checked"] for row in rows)
        elif result is not None:
            ok, nterms = result
            terms += nterms
            if not ok:
                failures.append(repr(item))
    report.update(cal.stop(), kernel_outside_s=cal.spent - inside)

    if recorder is not None:
        recorder.extra["core_cache"] = st.mods["qtrace"]._core_value.cache_info()._asdict()
        recorder.write(args.spans)

    attempted = len(workloads.BATTERY_COUNTS) if battery else len(st.items)
    report.update(
        latencies=latencies,
        starts=starts,
        attempted=attempted,
        failed=min(len(failures), attempted),
        first_failures=failures[:3],
        terms_total=terms,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        suites={n: [r["verdict"], r["checked"], r.get("elapsed")] for n, r in suites.items()},
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
