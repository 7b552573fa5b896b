"""Seeded inputs, operations and verdicts of the four benchmark workloads.

A workload's ``setup`` imports the program, builds the data and tori the
operations need and generates the seeded input list; the program is
used there only to test monoid membership.  Each ``*_op`` function
performs one operation on one input and returns ``(verdict_ok, terms)``,
where ``terms`` is the size of the object the verdict inspected.  The
operations call the program through module attributes, so that the
traced run's wrappers (see ``tracing.py``) see every call.

``corrupt`` turns a workload into its own negative control: the verdict
is checked against a deliberately wrong expectation, and every affected
operation must be reported as failed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field

# Panels.  The cost of a glued or pants trace is driven by its lengths and
# by the twists of its zero-length curves (each twist step there adds a
# loop and doubles the terms); the twists of curves with positive length
# only translate the value.  That cost is heavy-tailed (the largest glued
# products take over a hundred times the median), so with a fresh uniform
# draw each seed did a different amount of work.  So the heavy inputs come
# from a fixed panel stream, and the seed redraws only the twists of
# positive-length curves, which changes the inputs but neither their cost
# nor the core-cache keys they touch.

# glue: criterion 5's reference surfaces at |n|,|t| <= 3, drawn from the
# seed, plus a panel of pairs on two punctured surfaces at |n|,|t| <= 2.
GLUE_REFERENCE = ((0, 4), (0, 5), (1, 2), (2, 0))
GLUE_REFERENCE_BOX = 3
GLUE_REFERENCE_PAIRS = 540          # per reference surface
GLUE_PUNCTURED = ((0, 7), (1, 4))
GLUE_PUNCTURED_BOX = 2
GLUE_PUNCTURED_PAIRS = 120          # per punctured surface: a 10% share

# pants-traces: a panel of coordinates on each pants type at lengths and
# |twists| <= 16.
PANTS_BOX = 16
PANTS_PER_TYPE = 1000

# center: (surface, root order) cells over the 34 surfaces with r <= 10,
# each surface in the same number of cells, orders drawn with replacement.
CENTER_RMAX = 10
CENTER_MAX_ORDER = 24
CENTER_CELLS_PER_SURFACE = 35

# battery: the reduced `skeintor check` grid and the check count each
# suite must report on it.
BATTERY_GRID = {"rmax": 4, "nmax": 12, "pairs": 2000, "leadbox": 3, "tracebox": 4,
                "monopairs": 20000}
_PAIRS = BATTERY_GRID["pairs"]
BATTERY_COUNTS = {
    "pi-degree grid": 108,
    "kernel lattice form": 108,
    "even sublattice index": 9,
    "lead-term theorem": 7786,          # every monoid point of the box-3 lead grid
    "top-term products": 4 * _PAIRS,
    "trace properties": 34508,          # every monoid point of the box-4 pants grid
    "monoid closure": 7 * _PAIRS,
    "coordinate catalog": 16,
    "chebyshev oracle": 65,
    "quantum torus laws": BATTERY_GRID["monopairs"] + _PAIRS,
}

WORKLOADS = ("glue", "pants-traces", "center", "battery")


@dataclass
class State:
    """Everything an episode needs: program modules, data and inputs."""

    workload: str
    seed: int
    corrupt: bool
    mods: dict
    items: list
    data: dict = field(default_factory=dict)


def _import_program() -> dict:
    names = ("arith", "checks", "cli", "pants", "qtorus", "qtrace", "ring", "surface")
    return {n: importlib.import_module(f"skeintor.{n}") for n in names}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _sample(rng, member, r: int, box: int) -> tuple:
    """A uniform point of box ∩ monoid: lengths in [0, box], twists in [-box, box]."""
    while True:
        c = tuple(rng.randint(0, box) for _ in range(r))
        c += tuple(rng.randint(-box, box) for _ in range(r))
        if member(c):
            return c


def _redraw_free_twists(rng, member, c: tuple, box: int) -> tuple:
    """``c`` with the twist of every positive-length curve drawn afresh."""
    r = len(c) // 2
    while True:
        t = tuple(rng.randint(-box, box) if c[i] else c[r + i] for i in range(r))
        if member(c[:r] + t):
            return c[:r] + t


def _corrupted(qtorus, matrix):
    """The doubled form with one antisymmetric pair of entries shifted,
    as ``skeintor check --corrupt-qtilde`` does."""
    rows = [list(r) for r in matrix.rows]
    rows[0][-1] += 1
    rows[-1][0] -= 1
    return qtorus.AntisymMatrix(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# setup


def setup(workload: str, seed: int, corrupt: bool = False) -> State:
    mods = _import_program()
    st = State(workload, seed, corrupt, mods, [])
    rng = _rng(workload, seed)
    if workload == "glue":
        surface, qtorus = mods["surface"], mods["qtorus"]
        panel = _rng("glue-panel", 0)
        for gm in GLUE_REFERENCE + GLUE_PUNCTURED:
            datum = surface.standard_datum(*gm)
            torus = surface.surface_torus(datum)
            pairing = _corrupted(qtorus, torus.matrix) if corrupt else torus.matrix
            st.data[gm] = (datum, torus, pairing)
            member = lambda c, d=datum: surface.lambda_global(d, c)
            if gm in GLUE_REFERENCE:
                for _ in range(GLUE_REFERENCE_PAIRS):
                    st.items.append((gm, _sample(rng, member, datum.r, GLUE_REFERENCE_BOX),
                                     _sample(rng, member, datum.r, GLUE_REFERENCE_BOX)))
                continue
            for _ in range(GLUE_PUNCTURED_PAIRS):
                k, l = (_redraw_free_twists(rng, member, _sample(panel, member, datum.r, GLUE_PUNCTURED_BOX),
                                            GLUE_PUNCTURED_BOX) for _ in range(2))
                st.items.append((gm, k, l))
    elif workload == "pants-traces":
        pants, qtrace = mods["pants"], mods["qtrace"]
        panel = _rng("pants-traces-panel", 0)
        for j in (1, 2, 3):
            st.data[j] = qtrace.trace_torus(j)
            member = lambda c, j=j: pants.lambda_contains(j, c)
            for _ in range(PANTS_PER_TYPE):
                c = _redraw_free_twists(rng, member, _sample(panel, member, j, PANTS_BOX), PANTS_BOX)
                twisted = [i + 1 for i in range(j) if c[i]]
                st.items.append((j, c, rng.choice(twisted) if twisted else 0))
    elif workload == "center":
        surfaces = mods["checks"].grid_surfaces(CENTER_RMAX)
        for gm in surfaces:
            st.data[gm] = mods["surface"].standard_datum(*gm)
        for _ in range(CENTER_CELLS_PER_SURFACE):
            st.items += [(gm, rng.randint(1, CENTER_MAX_ORDER)) for gm in surfaces]
    elif workload == "battery":
        st.items.append(battery_argv(seed, corrupt))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(st.items)
    return st


def battery_argv(seed: int, corrupt: bool) -> list[str]:
    grid = ",".join(f"{k}={v}" for k, v in BATTERY_GRID.items())
    argv = ["check", "--seed", str(seed), "--grid", grid, "--format", "json", "--timings"]
    return argv + (["--corrupt-qtilde"] if corrupt else [])


# ---------------------------------------------------------------------------
# operations


def glue_op(st: State, item) -> tuple[bool, int]:
    """Top term of a glued product: unique lead at k + l whose coefficient
    is q to the half-pairing, the pairing being even."""
    surface, qtorus = st.mods["surface"], st.mods["qtorus"]
    gm, k, l = item
    datum, torus, pairing = st.data[gm]
    a = surface.phi_value(datum, k)
    b = surface.phi_value(datum, l)
    p = pairing.pairing(k, l)
    if p % 2:
        return False, 0
    prod = qtorus.elem_mul(a, b)
    leads = qtorus.lead_term(prod, lambda e: surface.d_embed(datum, e))
    total = tuple(x + y for x, y in zip(k, l))
    ok = len(leads) == 1 and leads[0][0] == total and leads[0][1] == torus.ring.q_half(p)
    return ok, len(prod.terms)


def pants_op(st: State, item) -> tuple[bool, int]:
    """Boundary grading and unique top term of a pants trace, then the
    twist rule at one boundary through the cache-free reference path."""
    qtorus, qtrace, pants = st.mods["qtorus"], st.mods["qtrace"], st.mods["pants"]
    j, coord, i = item
    tt = st.data[j]
    value = qtrace.utr_coord(tt, coord)
    n = coord[:j]
    if any(k[:j] != n for k in value.terms):
        return False, len(value.terms)
    leads = qtorus.lead_term(value, lambda k: qtrace.pants_degree(j, k))
    if len(leads) != 1 or leads[0][0] != coord:
        return False, len(value.terms)
    if i:
        x_degree = n[i - 1] + (1 if st.corrupt else 0)
        lhs = qtrace.utr_coord_straight(tt, pants.twist_apply(j, i, coord))
        rhs = qtrace.weyl_u_mul(tt, i, qtrace.utr_coord_straight(tt, coord), x_degree)
        if lhs != rhs:
            return False, len(value.terms)
    return True, len(value.terms)


def center_op(st: State, item) -> tuple[bool, int]:
    """Kernel lattice equals the scaled span (odd order) or scaled even
    sublattice (even order), and its index equals the PI-degree squared."""
    arith = st.mods["arith"]
    (g, m), order = item
    datum = st.data[(g, m)]
    root = arith.RootOfUnity(order)
    span = arith.lambda_hat(datum)
    even = arith.even_sublattice(datum)
    kernel = arith.kernel_lattice(datum, order)
    target = span.scaled(root.big_n) if root.n1 % 2 else even.scaled(root.big_n)
    index = arith.lattice_index(kernel, span)
    degree = arith.pi_degree(g, m, root) + (1 if st.corrupt else 0)
    ok = kernel == target and index == degree * degree
    return ok, sum(1 for col in kernel.columns for x in col if x)


OPS = {"glue": glue_op, "pants-traces": pants_op, "center": center_op}


def battery_op(st: State, argv: list[str]) -> tuple[list[dict], list[str]]:
    """One `skeintor check` battery through the command-line entry point.
    Returns the suite rows and the suites that count as failed; an exit
    code that claims success despite a failed suite, or failure despite
    none, adds a failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = st.mods["cli"].main(argv)
    rows = json.loads(out.getvalue())
    bad = battery_verdicts(rows)
    if (code == 0) == bool(bad):
        bad.append(f"exit code {code}")
    return rows, bad


def battery_verdicts(rows: list[dict]) -> list[str]:
    """Names of the suites of one battery report that count as failed: a
    suite that did not PASS, whose check count is not the one the grid
    implies, or that is missing or unexpected."""
    seen = {row["name"]: row for row in rows}
    bad = [name for name, want in BATTERY_COUNTS.items()
           if name not in seen or seen[name]["verdict"] != "PASS" or seen[name]["checked"] != want]
    return bad + sorted(set(seen) - set(BATTERY_COUNTS))
