"""Verification suites behind the check command and the acceptance tests.

Each suite is a generator under :func:`_suite`, which turns it into a
function returning a :class:`CheckResult` with a pass verdict, counts,
and a witness for the first failure.  All randomized suites take an
explicit seed and are reproducible.

A seed fixes the inputs of one version of this module.  A draw
procedure may change between versions when the distribution of the
cases and the check counts stay the same; CHANGES.md names each such
change.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import time
from operator import add, mul
from typing import NamedTuple

from . import pants
from .arith import (
    RootOfUnity,
    chebyshev,
    even_sublattice,
    kernel_lattice,
    kernel_target,
    lambda_hat,
    lattice_index,
    pi_degree,
)
from .pants import lambda_contains, nu_of_component, return_arc
from .qtorus import AntisymMatrix, QuantumTorus, TorusElement, elem_mul, weyl_normalize
from .qtrace import (
    TWIST_KEY,
    lead_violation,
    trace_torus,
    twist_violations,
    utr_coord,
    utr_coord_straight,
)
from .ring import GroundElem, GroundRing, _checked_make
from .surface import (
    DTDatum,
    glued_key,
    glued_product,
    lambda_global,
    length_rule,
    phi_value,
    standard_datum,
    surface_excluded,
    surface_torus,
)


class _CheckResultFields(NamedTuple):
    name: str
    passed: bool
    checked: int
    elapsed: float
    detail: dict


class CheckResult(_CheckResultFields):
    __slots__ = ()

    def __new__(cls, name, passed, checked, elapsed, detail=None):
        # a suite that checked nothing has shown nothing
        if passed and not checked:
            passed, detail = False, {"reason": "no checks ran"}
        return tuple.__new__(cls, (name, passed, checked, elapsed, {} if detail is None else detail))

    _make = _checked_make

    def summary(self, timings: bool = True) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        timing = f" in {self.elapsed:.2f}s" if timings else ""
        extra = f" {self.detail}" if (self.detail and not self.passed) else ""
        return f"[{verdict}] {self.name}: {self.checked} checks{timing}{extra}"


def _suite(name: str):
    """The harness of every check suite.  The decorated generator yields
    None once per check, just before it tests that check, and on its
    first failure yields the failure detail, a dict.  The function it
    becomes takes the same arguments and returns the suite's
    :class:`CheckResult`: the harness times the run, counts the checks
    and stops the generator at the first detail."""
    def decorate(suite):
        @functools.wraps(suite)
        def run(*args, **kwargs):
            t0 = time.time()
            checked = 0
            for detail in suite(*args, **kwargs):
                if detail is not None:
                    return CheckResult(name, False, checked, time.time() - t0, detail)
                checked += 1
            return CheckResult(name, True, checked, time.time() - t0)
        run.__annotations__ = {**suite.__annotations__, "return": "CheckResult"}
        return run
    return decorate


def grid_surfaces(rmax: int) -> list[tuple[int, int]]:
    """All (genus, punctures) with 1 <= r <= rmax, excluding the torus cases."""
    out = []
    for g in range(0, rmax + 1):
        for m in range(0, rmax + 7):
            r = 3 * g - 3 + m
            if 1 <= r <= rmax and not surface_excluded(g, m):
                out.append((g, m))
    return sorted(out, key=lambda gm: (3 * gm[0] - 3 + gm[1], gm))


class _BoxTable:
    """The monoid points of a coordinate box as weighted rows, for exact
    uniform draws and for enumeration.

    The box holds the coordinates with lengths in [0, box] and twists in
    [-box, box] on ``r`` curves.  ``floors_of(n)`` gives the lowest
    admissible twist at each curve for the lengths ``n``, None at a curve
    that takes any twist, or None in place of the tuple when ``n`` itself
    is not admissible.  One row per admissible ``n`` keeps those floors,
    raised to -box, and the number of twist values from each floor up to
    box; ``cum[i]`` counts the box coordinates in rows 0..i.
    """

    def __init__(self, r: int, box: int, floors_of):
        self.rows: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = []
        self.cum: list[int] = []
        total = 0
        for n in itertools.product(range(box + 1), repeat=r):
            floors = floors_of(n)
            if floors is None:
                continue
            floors = tuple(-box if f is None else max(-box, f) for f in floors)
            widths = tuple(box - f + 1 for f in floors)
            if min(widths) <= 0:
                continue
            total += math.prod(widths)
            self.rows.append((n, floors, widths))
            self.cum.append(total)
        self.total = total

    def points(self):
        """Every box coordinate, in lexicographic order: the lengths by
        row, then the twists from each floor up to box."""
        for n, floors, widths in self.rows:
            for t in itertools.product(*(range(f, f + w) for f, w in zip(floors, widths))):
                yield n + t

    def draw(self, rng: random.Random) -> tuple[int, ...]:
        """One uniform box coordinate: a single integer draw, its row found
        by bisection and the rest read as twists in mixed radix."""
        k = rng.randrange(self.total)
        i = bisect.bisect_right(self.cum, k)
        if i:
            k -= self.cum[i - 1]
        n, floors, widths = self.rows[i]
        t = []
        for f, w in zip(floors, widths):
            k, d = divmod(k, w)
            t.append(f + d)
        return n + tuple(t)


def _pants_table(j: int, box: int) -> _BoxTable:
    """The box of ``Lambda_j``, by the floors :func:`pants.twist_floors` gives."""
    return _BoxTable(j, box, functools.partial(pants.twist_floors, j))


def _global_table(datum: DTDatum, box: int) -> _BoxTable:
    """The box of the global monoid, by the rule :func:`length_rule` states."""
    def floors_of(n):
        odd, floors = length_rule(datum, n)
        return None if odd else floors
    return _BoxTable(datum.r, box, floors_of)


def _sample_pants(rng: random.Random, j: int, table: _BoxTable):
    """A uniform point of ``table`` (built by :func:`_pants_table`), tested
    once for membership in ``Lambda_j``."""
    c = table.draw(rng)
    if not lambda_contains(j, c):
        raise AssertionError(f"pants sampler drew {c}, which is not in Lambda_{j}")
    return c


def _sample_global(rng: random.Random, datum: DTDatum, table: _BoxTable):
    """A uniform point of ``table`` (built by :func:`_global_table`),
    tested once for membership in the global monoid."""
    c = table.draw(rng)
    if not lambda_global(datum, c):
        raise AssertionError(f"global sampler drew {c}, which is not in the monoid")
    return c


# ---------------------------------------------------------------------------
# criteria 1-3: the center lattice grid


@_suite("pi-degree grid")
def check_pi_degree_grid(rmax: int = 4, nmax: int = 12):
    for g, m in grid_surfaces(rmax):
        datum = standard_datum(g, m)
        span = lambda_hat(datum)
        for n in range(1, nmax + 1):
            root = RootOfUnity(n)
            idx = lattice_index(kernel_lattice(datum, n), span)
            expected = pi_degree(g, m, root) ** 2
            yield
            if idx != expected:
                yield {"surface": (g, m), "order": n, "index": idx, "expected": expected}


@_suite("kernel lattice form")
def check_kernel_form(rmax: int = 4, nmax: int = 12):
    for g, m in grid_surfaces(rmax):
        datum = standard_datum(g, m)
        for n in range(1, nmax + 1):
            yield
            if kernel_lattice(datum, n) != kernel_target(datum, RootOfUnity(n)):
                yield {"surface": (g, m), "order": n}


@_suite("even sublattice index")
def check_even_index(rmax: int = 4):
    for g, m in grid_surfaces(rmax):
        datum = standard_datum(g, m)
        idx = lattice_index(even_sublattice(datum), lambda_hat(datum))
        yield
        if idx != 4 ** g:
            yield {"surface": (g, m), "index": idx, "expected": 4 ** g,
                   "matches_2^(2r)": idx == 4 ** datum.r}


# ---------------------------------------------------------------------------
# criterion 4: the lead-term theorem over coordinate boxes


LEAD_SURFACES = ((0, 4), (0, 5), (1, 2), (2, 0))


@_suite("lead-term theorem")
def check_lead_term(box: int = 4, surfaces=LEAD_SURFACES):
    for g, m in surfaces:
        datum = standard_datum(g, m)
        key = glued_key(datum.r)
        for coord in _global_table(datum, box).points():
            value = phi_value(datum, coord)
            yield
            why = lead_violation(coord, value, datum.r, key)
            if why:
                yield {"surface": (g, m), "coord": coord, "reason": why}


# ---------------------------------------------------------------------------
# criterion 5: top term of products


@_suite("top-term products")
def check_product_top(
    pairs: int = 10000,
    seed: int = 0,
    surfaces=LEAD_SURFACES,
    corrupt_qtilde: bool = False,
):
    rng = random.Random(seed)
    for g, m in surfaces:
        datum = standard_datum(g, m)
        torus = surface_torus(datum)
        qt = torus.matrix
        if corrupt_qtilde:
            rows = [list(r) for r in qt.rows]
            rows[0][-1] += 1
            rows[-1][0] -= 1
            qt = AntisymMatrix(rows)
        table = _global_table(datum, 3)
        key = glued_key(datum.r)
        for _ in range(pairs):
            k = _sample_global(rng, datum, table)
            l = _sample_global(rng, datum, table)
            p = qt.pairing(k, l)
            yield
            if p % 2:
                yield {"surface": (g, m), "pair": (k, l), "pairing": p, "reason": "odd pairing"}
            prod = glued_product(datum, k, l)
            total = tuple(map(add, k, l))
            why = lead_violation(total, prod, datum.r, key)
            if why:
                yield {"surface": (g, m), "pair": (k, l), "reason": why}
            if prod.terms[total] != torus.ring.q_half(p):
                yield {"surface": (g, m), "pair": (k, l),
                       "reason": "lead coefficient is not the half-pairing power",
                       "half_pairing": p // 2}


# ---------------------------------------------------------------------------
# criterion 6: the trace property suite on pants boxes


def _core_firsts(table: _BoxTable) -> set[int]:
    """The index in ``table.points()`` of the first coordinate of each
    decomposition core of a pants box: the core is the lengths and the
    twists at the boundaries of length 0, so within a row it comes first
    where every twist at a positive length is at its floor."""
    out = set()
    start = 0
    for n, _, widths in table.rows:
        steps = [math.prod(widths[i + 1 :]) for i in range(len(n))]  # the last twist varies fastest
        for offsets in itertools.product(*(range(1) if x else range(w) for x, w in zip(n, widths))):
            out.add(start + sum(map(mul, offsets, steps)))
        start += math.prod(widths)
    return out


_TWIST_SAMPLES = 4000  # box coordinates per pants type whose twist rule is checked


@_suite("trace properties")
def check_trace_properties(box: int = 6, seed: int = 0):
    """Boundary grading and top term on every box coordinate; the twist
    rule through the reference path (:func:`utr_coord_straight`, which
    reads no core value) on every decomposition core and a seeded sample
    of ``_TWIST_SAMPLES`` box coordinates.

    A twist check reads the reference trace at its coordinate and at the
    neighbour t + e_i at each boundary the curve meets, and a neighbour
    is often checked a few coordinates later.  The coordinates come in
    increasing order, so no check reads a trace below its own
    coordinate: the suite keeps each trace it computed until a check
    passes it, and so computes each once."""
    rng = random.Random(seed)
    kept: dict[tuple, TorusElement] = {}

    def straight(tt, coord):
        value = kept.get(coord)
        if value is None:
            value = kept[coord] = utr_coord_straight(tt, coord)
        return value

    for j in (1, 2, 3):
        tt, key = trace_torus(j), TWIST_KEY[j]
        table = _pants_table(j, box)
        kept.clear()
        twisted = set(rng.sample(range(table.total), min(_TWIST_SAMPLES, table.total))) | _core_firsts(table)
        for idx, coord in enumerate(table.points()):
            value = utr_coord(tt, coord)
            yield
            why = lead_violation(coord, value, j, key)
            if not why and idx in twisted:
                for passed in [c for c in kept if c < coord]:
                    del kept[passed]
                twist = twist_violations(tt, coord, straight)
                why = twist[0] if twist else None
            if why:
                yield {"j": j, "coord": coord, "reason": why}


# ---------------------------------------------------------------------------
# criterion 7: monoid closures


@_suite("monoid closure")
def check_monoid_closure(pairs: int = 10000, seed: int = 0, surfaces=LEAD_SURFACES):
    rng = random.Random(seed)
    for j in (1, 2, 3):
        table = _pants_table(j, 10)
        for _ in range(pairs):
            a = _sample_pants(rng, j, table)
            b = _sample_pants(rng, j, table)
            s = tuple(map(add, a, b))
            yield
            if not lambda_contains(j, s):
                yield {"j": j, "pair": (a, b)}
    for g, m in surfaces:
        datum = standard_datum(g, m)
        table = _global_table(datum, 8)
        for _ in range(pairs):
            a = _sample_global(rng, datum, table)
            b = _sample_global(rng, datum, table)
            s = tuple(map(add, a, b))
            yield
            if not lambda_global(datum, s):
                yield {"surface": (g, m), "pair": (a, b)}


# ---------------------------------------------------------------------------
# criterion 8: the coordinate catalog


@_suite("coordinate catalog")
def check_dt_catalog():
    expected = {
        (3, 1): (2, 0, 0, 0, 1, 0),
        (3, 2): (0, 2, 0, 0, 0, 1),
        (3, 3): (0, 0, 2, 1, 0, 0),
        (2, 1): (2, 0, 0, 1),
        (2, 2): (0, 2, -1, 1),
        (1, 1): (2, 1),
    }
    for (j, i), want in expected.items():
        got = nu_of_component(j, return_arc(i))
        yield
        if got != want:
            yield {"j": j, "arc": i, "got": got, "expected": want}
    for j in (1, 2, 3):
        for i in range(1, j + 1):
            got = nu_of_component(j, pants.loop(i))
            want = tuple(0 if z != j + i - 1 else 1 for z in range(2 * j))
            yield
            if got != want:
                yield {"j": j, "loop": i, "got": got, "expected": want}
    for j in (2, 3):
        for a in range(1, j + 1):
            for b in range(a + 1, j + 1):
                got = nu_of_component(j, pants.cross(a, b))
                yield
                if any(got[j:]):
                    yield {"j": j, "cross": (a, b), "got": got, "expected": "zero twists"}


# ---------------------------------------------------------------------------
# criterion 9: Chebyshev oracle


_CHEBYSHEV_KMAX = 64


@_suite("chebyshev oracle")
def check_chebyshev():
    ring = GroundRing()
    x = ring.q_half(2)
    z = x + x.reflect()
    z_powers = [ring.one()]   # z^0 .. z^k, one product more per k
    x_k = ring.one()
    for k in range(_CHEBYSHEV_KMAX + 1):
        if k:
            z_powers.append(z_powers[-1] * z)
            x_k = x_k * x
        # T_k(z) as one term dict: each c z^i adds c times z^i's terms
        flat: dict = {}
        for c, z_i in zip(chebyshev(k), z_powers):
            if c:
                for key, v in z_i.items():
                    flat[key] = flat.get(key, 0) + c * v
        yield
        if GroundElem(ring, flat) != x_k + x_k.reflect():
            yield {"k": k}


# ---------------------------------------------------------------------------
# criterion 10: quantum torus laws
#
# Each case is drawn as its size, then one uniform integer below the
# number of cases of that size, read in mixed radix: one digit per
# matrix entry (the strict upper triangle, row by row), then one per
# exponent of a monomial case, or one per letter (a generator and an
# exponent) of a Weyl case.  So every entry and exponent is independent
# and uniform on its range, as with one draw per value.

_ENTRIES = range(-3, 4)     # matrix entries and Weyl exponents
_EXPONENTS = range(-6, 7)   # monomial exponents


def _digits(k: int, values: range, count: int) -> list[int]:
    """The ``count`` lowest digits of ``k`` in base ``len(values)``, least
    significant first, each read as an entry of ``values`` (consecutive
    integers): for k uniform below len(values) ** count, independent
    uniform draws from values."""
    base, low = len(values), values.start
    out = []
    for _ in range(count):
        k, d = divmod(k, base)
        out.append(d + low)
    return out


_KEPT_RANK = 3  # 1, 7 and 343 matrices: 60% of the monomial cases, 75% of the Weyl cases


def _torus(tori: dict, n: int, k: int) -> tuple[QuantumTorus, int]:
    """The torus on the antisymmetric n x n matrix whose strict upper
    triangle, row by row, is the n(n-1)/2 lowest digits of ``k`` read as
    :func:`_digits` reads entries of ``_ENTRIES``; and the rest of k.
    ``tori`` keeps the torus of each matrix of rank at most ``_KEPT_RANK``."""
    base, low = len(_ENTRIES), _ENTRIES.start
    k, digits = divmod(k, base ** (n * (n - 1) // 2))
    T = tori.get((n, digits))
    if T is None:
        rows, rest = [[0] * n for _ in range(n)], digits
        for i, j in itertools.combinations(range(n), 2):  # row by row
            rest, d = divmod(rest, base)
            rows[i][j], rows[j][i] = d + low, -low - d
        T = QuantumTorus(AntisymMatrix(rows))
        if n <= _KEPT_RANK:
            tori[n, digits] = T
    return T, k


def _decode_monomial(tori: dict, n: int, k: int) -> tuple:
    """The monomial case number ``k`` of rank ``n``, for k below
    len(_ENTRIES)^(n(n-1)/2) len(_EXPONENTS)^(2n): the torus on the
    matrix (:func:`_torus`) and the exponents a, b."""
    T, k = _torus(tori, n, k)
    ab = _digits(k, _EXPONENTS, 2 * n)
    return T, tuple(ab[:n]), tuple(ab[n:])


def _monomial_case(rng: random.Random, tori: dict) -> tuple:
    """A uniform monomial case: the rank n in 1..5, then one integer."""
    n = rng.randint(1, 5)
    return _decode_monomial(
        tori, n, rng.randrange(len(_ENTRIES) ** (n * (n - 1) // 2) * len(_EXPONENTS) ** (2 * n)))


def _weyl_case(rng: random.Random, tori: dict) -> tuple:
    """A uniform Weyl case: the rank n in 1..4 and the word length in
    0..5, then one integer for the matrix and the word, a list of
    (generator, exponent) letters; the matrix as :func:`_torus` reads it."""
    n = rng.randint(1, 4)
    length = rng.randint(0, 5)
    w = len(_ENTRIES)
    T, k = _torus(tori, n, rng.randrange(w ** (n * (n - 1) // 2) * (n * w) ** length))
    return T, [(d // w, _ENTRIES[d % w]) for d in _digits(k, range(n * w), length)]


@_suite("quantum torus laws")
def check_qtorus_laws(mono_pairs: int = 100000, weyl_cases: int = 10000, seed: int = 0):
    rng = random.Random(seed)
    tori: dict[tuple[int, int], QuantumTorus] = {}
    one = GroundRing().one()
    for _ in range(mono_pairs):
        T, a, b = _monomial_case(rng, tori)
        M = T.matrix
        terms = elem_mul(TorusElement(T, {a: one}), TorusElement(T, {b: one})).terms
        yield
        if len(terms) != 1:
            yield {"matrix": M.rows, "pair": (a, b), "terms": len(terms),
                   "reason": "monomial product is not one term"}
        (k, c), = terms.items()
        if k != tuple(map(add, a, b)) or c != T.ring.q_half(M.pairing(a, b)):
            yield {"matrix": M.rows, "pair": (a, b), "reason": "monomial product"}
    for _ in range(weyl_cases):
        T, seq = _weyl_case(rng, tori)
        M = T.matrix
        perm = seq[:]
        rng.shuffle(perm)
        w1 = weyl_normalize(T, seq)
        yield
        if w1 != weyl_normalize(T, perm):
            yield {"matrix": M.rows, "seq": seq, "reason": "permutation variance"}
        total = [0] * len(M.rows)
        for gidx, e in seq:
            total[gidx] += e
        mono = T.monomial(total)
        if w1 != mono or mono.reflect() != mono:
            yield {"matrix": M.rows, "seq": seq, "reason": "normalization or reflection"}


# ---------------------------------------------------------------------------
# the full battery


def run_all(
    rmax: int = 4,
    nmax: int = 12,
    seed: int = 0,
    lead_box: int = 4,
    trace_box: int = 6,
    pairs: int = 10000,
    mono_pairs: int = 100000,
    corrupt_qtilde: bool = False,
) -> list[CheckResult]:
    return [
        check_pi_degree_grid(rmax, nmax),
        check_kernel_form(rmax, nmax),
        check_even_index(rmax),
        check_lead_term(lead_box),
        check_product_top(pairs, seed, corrupt_qtilde=corrupt_qtilde),
        check_trace_properties(trace_box, seed),
        check_monoid_closure(pairs, seed),
        check_dt_catalog(),
        check_chebyshev(),
        check_qtorus_laws(mono_pairs, pairs, seed),
    ]
