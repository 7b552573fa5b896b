"""Spans around the program's layers, recorded from outside the program.

The traced run wraps each layer's public entry points at every name a
module of the program holds them under, so calls between modules and
within a module both pass through the wrapper.  Each wrapper records a
span: name, parent, start and end, plus two sizes (see ``Recorder``).
``GroundElem.__mul__`` runs hundreds of thousands of times per episode,
so it is not a span of its own: each call adds its count and duration
to the span that made it.  Spans are kept in flat arrays and written to one file at
the end; ``summarize`` reads that file back and derives the per-layer
metrics.

A span's self time is its duration minus its child spans' durations and
the ring products it made, so the self times of all spans inside the
``bench.op`` spans add up to the traced operation time.  A call that no
wrapper sees is charged to its caller's span; ``coverage_problems``
catches the layers a workload exercises going unseen.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name) of every wrapped entry point.
TARGETS = (
    ("qtorus", "elem_mul", "qtorus.elem_mul"),
    ("qtorus", "lead_term", "qtorus.lead_term"),
    ("surface", "phi_value", "surface.phi_value"),
    ("surface", "face_split", "surface.face_split"),
    ("surface", "lambda_membership", "surface.membership"),
    ("qtrace", "utr_coord", "qtrace.utr_coord"),
    ("qtrace", "utr_coord_straight", "qtrace.straight"),
    ("pants", "lambda_contains", "pants.lambda_contains"),
    ("pants", "decompose", "pants.decompose"),
    ("pants", "twist_apply", "pants.twist_apply"),
    ("arith", "kernel_lattice", "arith.kernel_lattice"),
    ("arith", "lambda_hat", "arith.lambda_hat"),
    ("arith", "lattice_index", "arith.lattice_index"),
    ("intlinalg", "snf", "intlinalg.snf"),
    ("intlinalg", "hnf_columns", "intlinalg.hnf"),
    ("intlinalg", "solve_rational", "intlinalg.solve"),
    ("checks", "_sample_global", "checks.sampler"),
    ("checks", "_sample_pants", "checks.sampler"),
    ("checks", "check_pi_degree_grid", "checks.suite.pi-degree-grid"),
    ("checks", "check_kernel_form", "checks.suite.kernel-lattice-form"),
    ("checks", "check_even_index", "checks.suite.even-sublattice-index"),
    ("checks", "check_lead_term", "checks.suite.lead-term-theorem"),
    ("checks", "check_product_top", "checks.suite.top-term-products"),
    ("checks", "check_trace_properties", "checks.suite.trace-properties"),
    ("checks", "check_monoid_closure", "checks.suite.monoid-closure"),
    ("checks", "check_dt_catalog", "checks.suite.coordinate-catalog"),
    ("checks", "check_chebyshev", "checks.suite.chebyshev-oracle"),
    ("checks", "check_qtorus_laws", "checks.suite.quantum-torus-laws"),
)
SUITES = tuple(name.rsplit(".", 1)[1] for _, _, name in TARGETS if name.startswith("checks.suite."))

# Self-time metric of each span name; with ring.mul_self_s they partition trace.op_s.
SELF_METRIC = {
    "bench.op": "bench.self_s",
    "qtorus.elem_mul": "qtorus.elem_mul_self_s",
    "qtorus.lead_term": "qtorus.lead_term_self_s",
    "surface.phi_value": "surface.phi_value_self_s",
    "surface.face_split": "surface.face_split_self_s",
    "surface.membership": "surface.membership_self_s",
    "qtrace.utr_coord": "qtrace.utr_coord_self_s",
    "qtrace.straight": "qtrace.straight_self_s",
    "pants.lambda_contains": "pants.self_s",
    "pants.decompose": "pants.self_s",
    "pants.twist_apply": "pants.self_s",
    "arith.kernel_lattice": "arith.kernel_lattice_self_s",
    "arith.lambda_hat": "arith.lambda_hat_self_s",
    "arith.lattice_index": "arith.lattice_index_self_s",
    "intlinalg.snf": "intlinalg.snf_self_s",
    "intlinalg.hnf": "intlinalg.hnf_self_s",
    "intlinalg.solve": "intlinalg.solve_self_s",
    "checks.sampler": "checks.sampler_self_s",
    **{f"checks.suite.{s}": "checks.suite_self_s" for s in SUITES},
}

# Per-layer metric names and units, in report order.
METRICS = (
    ("ring.mul_calls", "count"), ("ring.mul_self_s", "s"),
    ("qtorus.elem_mul_calls", "count"), ("qtorus.elem_mul_self_s", "s"),
    ("qtorus.term_pairs", "count"), ("qtorus.terms_out_max", "count"),
    ("qtorus.lead_term_self_s", "s"),
    ("surface.phi_value_calls", "count"), ("surface.phi_value_self_s", "s"),
    ("surface.face_split_self_s", "s"),
    ("surface.membership_calls", "count"), ("surface.membership_self_s", "s"),
    ("qtrace.utr_coord_calls", "count"), ("qtrace.utr_coord_self_s", "s"),
    ("qtrace.utr_coord_miss_s", "s"), ("qtrace.utr_coord_hit_s", "s"),
    ("qtrace.core_hit_ratio", "ratio"), ("qtrace.core_cache_size", "count"),
    ("qtrace.straight_calls", "count"), ("qtrace.straight_self_s", "s"),
    ("pants.calls", "count"), ("pants.self_s", "s"),
    ("arith.kernel_lattice_calls", "count"), ("arith.kernel_lattice_self_s", "s"),
    ("arith.lambda_hat_self_s", "s"), ("arith.lattice_index_self_s", "s"),
    ("intlinalg.snf_self_s", "s"), ("intlinalg.hnf_self_s", "s"), ("intlinalg.solve_self_s", "s"),
    *((f"checks.suite_s.{s}", "s") for s in SUITES),
    ("checks.suite_self_s", "s"), ("checks.sampler_self_s", "s"),
    ("checks.sampler_accept_ratio", "ratio"),
    ("bench.self_s", "s"),
    ("trace.op_s", "s"), ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
    ("work.ops", "count"), ("work.terms_total", "count"),
)
UNITS = dict(METRICS)

# Metrics that must be nonzero in a traced episode of each workload: the
# layers the workload exercises (see the layer map in README.md).
COVERAGE = {
    "glue": ("ring.mul_calls", "qtorus.elem_mul_calls", "qtorus.lead_term_self_s",
             "surface.phi_value_calls", "surface.face_split_self_s", "surface.membership_calls",
             "qtrace.utr_coord_calls", "pants.calls"),
    "pants-traces": ("ring.mul_calls", "qtorus.elem_mul_calls", "qtorus.lead_term_self_s",
                     "qtrace.utr_coord_calls", "qtrace.utr_coord_miss_s", "qtrace.utr_coord_hit_s",
                     "qtrace.straight_calls", "pants.calls"),
    "center": ("arith.kernel_lattice_calls", "arith.lambda_hat_self_s",
               "arith.lattice_index_self_s", "intlinalg.snf_self_s", "intlinalg.hnf_self_s",
               "intlinalg.solve_self_s"),
    "battery": (*(f"checks.suite_s.{s}" for s in SUITES), "checks.sampler_self_s",
                "checks.sampler_accept_ratio", "surface.membership_calls", "qtorus.elem_mul_calls",
                "qtrace.utr_coord_calls", "arith.kernel_lattice_calls"),
}
# The largest share of trace.op_s the benchmark's own verdict code may take.
BENCH_SELF_MAX = 0.10

_FIELDS = (("name", "B"), ("parent", "i"), ("start", "d"), ("end", "d"),
           ("ring_calls", "I"), ("ring_s", "d"), ("size_in", "q"), ("size_out", "q"))


class Recorder:
    """Span buffers for one traced episode, and the wrappers that fill them.

    ``size_in``/``size_out`` hold, for ``qtorus.elem_mul``, the term pairs
    multiplied and the terms produced; for ``qtrace.utr_coord``, whether
    the core cache missed and the terms produced; for ``bench.op``, the
    terms of the object the verdict inspected.
    """

    def __init__(self):
        self.names: list[str] = []
        self.cols = {f: array(code) for f, code in _FIELDS}
        self.stack = [self._open("trace", -1)]
        self.cols["start"][0] = perf_counter()
        self.extra: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name: str, parent: int) -> int:
        c = self.cols
        idx = len(c["name"])
        c["name"].append(self._name_id(name))
        c["parent"].append(parent)
        for f in ("start", "end", "ring_s"):
            c[f].append(0.0)
        for f in ("ring_calls", "size_in", "size_out"):
            c[f].append(0)
        return idx

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span.  ``before(args)`` runs just before the span
        starts, ``after(args, result, token)`` just after it ends and returns
        ``(size_in, size_out)``; neither is counted in the span."""
        nid = self._name_id(name)
        c = self.cols
        names, parents, starts, ends = c["name"], c["parent"], c["start"], c["end"]
        ring_calls, ring_s, size_in, size_out = c["ring_calls"], c["ring_s"], c["size_in"], c["size_out"]
        stack = self.stack

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            ring_calls.append(0)
            ring_s.append(0.0)
            size_in.append(0)
            size_out.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after:
                size_in[idx], size_out[idx] = after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_ring_mul(self, fn):
        c = self.cols
        ring_calls, ring_s, stack = c["ring_calls"], c["ring_s"], self.stack

        def mul(a, b):
            t0 = perf_counter()
            result = fn(a, b)
            dt = perf_counter() - t0
            top = stack[-1]
            ring_calls[top] += 1
            ring_s[top] += dt
            return result

        return mul

    def install(self, mods: dict) -> None:
        """Wrap every target at every name the program's modules hold it under."""
        core = mods["qtrace"]._core_value
        hooks = {
            "qtorus.elem_mul": (None, lambda a, r, _: (len(a[0].terms) * len(a[1].terms), len(r.terms))),
            "qtrace.utr_coord": (lambda a: core.cache_info().misses,
                                 lambda a, r, m0: (core.cache_info().misses - m0, len(r.terms))),
        }
        program = [m for n, m in sys.modules.items() if n == "skeintor" or n.startswith("skeintor.")]
        for mod_name, attr, name in TARGETS:
            orig = getattr(sys.modules[f"skeintor.{mod_name}"], attr)
            wrapper = self.wrap(name, orig, *hooks.get(name, (None, None)))
            for m in program:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
        ground = mods["ring"].GroundElem
        ground.__mul__ = self.wrap_ring_mul(ground.__mul__)

    def write(self, path: str) -> None:
        self.cols["end"][0] = perf_counter()
        header = {"names": self.names, "spans": len(self.cols["name"]),
                  "fields": _FIELDS, "extra": self.extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f, _ in _FIELDS:
                self.cols[f].tofile(fh)


def read_spans(path: str) -> tuple[dict, dict]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for f, code in header["fields"]:
            cols[f] = array(code)
            cols[f].fromfile(fh, header["spans"])
    return header, cols


def summarize(path: str) -> dict:
    """Per-layer metrics of one traced episode's span file (without the
    ``trace.overhead_frac`` and ``work.*`` entries, which need the untraced
    episodes and the verdict counts)."""
    header, c = read_spans(path)
    names = header["names"]
    n = header["spans"]
    name, parent, start, end = c["name"], c["parent"], c["start"], c["end"]
    child = [0.0] * n
    for i in range(1, n):
        child[parent[i]] += end[i] - start[i]
    op_id = names.index("bench.op") if "bench.op" in names else -1
    # a span lies inside an operation when the op is among its ancestors;
    # parents precede children, so one forward pass settles it
    in_op = [False] * n
    for i in range(1, n):
        in_op[i] = name[i] == op_id or in_op[parent[i]]

    out = {m: 0 for m, _ in METRICS}
    calls: dict[str, int] = {}
    sampler_ids = {names.index("checks.sampler")} if "checks.sampler" in names else set()
    membership_ids = {names.index(x) for x in ("surface.membership", "pants.lambda_contains")
                      if x in names}
    sampler_tests = 0
    for i in range(1, n):
        if not in_op[i]:
            continue
        nm = names[name[i]]
        dur = end[i] - start[i]
        calls[nm] = calls.get(nm, 0) + 1
        out[SELF_METRIC[nm]] += dur - child[i] - c["ring_s"][i]
        out["ring.mul_calls"] += c["ring_calls"][i]
        out["ring.mul_self_s"] += c["ring_s"][i]
        if nm == "bench.op":
            out["trace.op_s"] += dur
        elif nm == "qtorus.elem_mul":
            out["qtorus.term_pairs"] += c["size_in"][i]
            out["qtorus.terms_out_max"] = max(out["qtorus.terms_out_max"], c["size_out"][i])
        elif nm == "qtrace.utr_coord":
            out["qtrace.utr_coord_miss_s" if c["size_in"][i] else "qtrace.utr_coord_hit_s"] += dur
        elif nm.startswith("checks.suite."):
            out["checks.suite_s." + nm[len("checks.suite."):]] += dur
        if name[i] in membership_ids and name[parent[i]] in sampler_ids:
            sampler_tests += 1
    out["qtorus.elem_mul_calls"] = calls.get("qtorus.elem_mul", 0)
    out["surface.phi_value_calls"] = calls.get("surface.phi_value", 0)
    out["surface.membership_calls"] = calls.get("surface.membership", 0)
    out["qtrace.utr_coord_calls"] = calls.get("qtrace.utr_coord", 0)
    out["qtrace.straight_calls"] = calls.get("qtrace.straight", 0)
    out["pants.calls"] = sum(v for k, v in calls.items() if k.startswith("pants."))
    out["arith.kernel_lattice_calls"] = calls.get("arith.kernel_lattice", 0)
    if sampler_tests:
        out["checks.sampler_accept_ratio"] = calls.get("checks.sampler", 0) / sampler_tests
    core = header["extra"].get("core_cache", {})
    lookups = core.get("hits", 0) + core.get("misses", 0)
    out["qtrace.core_hit_ratio"] = core["hits"] / lookups if lookups else 0.0
    out["qtrace.core_cache_size"] = core.get("currsize", 0)
    out["trace.spans"] = n - 1
    return out


def coverage_problems(workload: str, summary: dict) -> list[str]:
    """Why a traced episode does not see the layers its workload exercises.

    A layer call that no wrapper sees (say, the program starts calling an
    entry point through a method or a table) charges its time to the
    caller's span, and the layer reads 0.  So every metric ``COVERAGE``
    names for the workload must be nonzero, and the benchmark's own
    verdict code may hold at most ``BENCH_SELF_MAX`` of the operation time.
    """
    problems = [f"{m} is 0" for m in COVERAGE[workload] if not summary[m]]
    share = summary["bench.self_s"] / summary["trace.op_s"] if summary["trace.op_s"] else 1.0
    if share > BENCH_SELF_MAX:
        problems.append(f"bench.self_s is {share:.1%} of trace.op_s (at most {BENCH_SELF_MAX:.0%})")
    return problems
