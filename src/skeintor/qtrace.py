"""Quantum traces for the basic pairs of pants.

Each pants type ``j`` gets a quantum torus on generators
``x_1..x_j, u_1..u_j`` (exponent positions 0..j-1 for the x block and
j..2j-1 for the u block) with the commutation rules

* ``x_{i+1} x_i = q x_i x_{i+1}`` cyclically for the three-holed type,
  ``x_2 x_1 = q x_1 x_2`` for the two-holed type,
* ``u_i x_k = q^{2 delta_{ik}} x_k u_i``, and the u's central among
  themselves.

The trace of an admissible coordinate is assembled from the catalog
values of the standard curves: the value of a canonical decomposition
is the product of the component values twisted by the global residual,
normalized to be reflection invariant.  Twisting by a boundary with
positive length is an exponent translation of the value, which is what
the core cache below exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from . import pants
from .pants import Coord, ComponentSpec, decompose, lambda_contains, split_nt, twist_apply
from .qtorus import (
    AntisymMatrix,
    QuantumTorus,
    TorusElement,
    elem_mul,
    lead_term,
    reflection_normalize,
)
from .ring import GroundRing


def _commutation_matrix(j: int) -> AntisymMatrix:
    dim = 2 * j
    rows = [[0] * dim for _ in range(dim)]
    if j == 3:
        for i in range(3):
            rows[(i + 1) % 3][i] = 1
            rows[i][(i + 1) % 3] = -1
    elif j == 2:
        rows[1][0] = 1
        rows[0][1] = -1
    for i in range(j):
        rows[j + i][i] = 2
        rows[i][j + i] = -2
    return AntisymMatrix(tuple(tuple(r) for r in rows))


_SYMBOLS = {3: (), 2: ("b3",), 1: ("b2", "b3")}


@dataclass(frozen=True)
class TraceTorus:
    """The quantum torus receiving the trace of a pants type."""

    j: int
    torus: QuantumTorus

    @property
    def ring(self) -> GroundRing:
        return self.torus.ring

    def u(self, i: int, power: int = 1) -> TorusElement:
        return self.torus.generator(self.j + i - 1, power)

    def monomial(self, coord: Coord) -> TorusElement:
        return self.torus.monomial(coord)


@lru_cache(maxsize=None)
def trace_torus(j: int) -> TraceTorus:
    if j not in pants.PANTS_TYPES:
        raise ValueError(f"pants type must be one of {pants.PANTS_TYPES}")
    return TraceTorus(j, QuantumTorus(_commutation_matrix(j), GroundRing(_SYMBOLS[j])))


def pants_degree(j: int, exponent: Coord) -> tuple[int, int, int]:
    """The three-component degree used to order trace monomials."""
    n, t = split_nt(j, exponent)
    if j == 3:
        return (sum(n), sum(t), 0)
    if j == 2:
        return (n[0] + n[1], t[0] + t[1], t[1])
    return (n[0], t[0], 0)


# ---------------------------------------------------------------------------
# catalog of one-component values


def utr_component(tt: TraceTorus, c: ComponentSpec) -> TorusElement:
    """Trace of a single standard curve, possibly twisted."""
    j = tt.j
    if c.multiplicity != 1:
        raise ValueError("utr_component expects multiplicity 1")
    for b in c.boundaries:
        if not (1 <= b <= j):
            raise ValueError(f"component boundary {b} invalid for type {j}")
    zeros = (0,) * j

    if c.kind == "loop":
        i = c.boundaries[0]
        e = [0] * j
        e[i - 1] = 1
        return tt.monomial(zeros + tuple(e)) + tt.monomial(zeros + tuple(-x for x in e))

    if c.kind == "cross":
        if j == 1:
            raise ValueError("no cross arcs on the one-holed type")
        (a, b), (s, t) = c.boundaries, c.twists
        n = [0] * j
        n[a - 1] = n[b - 1] = 1
        tw = [0] * j
        tw[a - 1] = s
        tw[b - 1] = t
        return tt.monomial(tuple(n) + tuple(tw))

    i = c.boundaries[0]
    m = c.twists[0]
    n = [0] * j
    n[i - 1] = 2
    n = tuple(n)

    def umono(**powers: int) -> Coord:
        tw = [0] * j
        for key, val in powers.items():
            tw[int(key[1:]) - 1] = val
        return n + tuple(tw)

    if j == 3:
        nxt, prv = i % 3 + 1, (i + 1) % 3 + 1
        first = {f"u{i}": m, f"u{nxt}": 1}
        second = {f"u{i}": m + 1, f"u{prv}": -1}
        return tt.monomial(umono(**first)) + tt.monomial(umono(**second))
    if j == 2:
        if i == 1:
            return tt.monomial(umono(u1=m, u2=1)) + tt.monomial(umono(u1=m + 1)).scale(
                tt.ring.var("b3", -1)
            )
        return tt.monomial(umono(u1=-1, u2=m + 1)) + tt.monomial(umono(u2=m)).scale(
            tt.ring.var("b3")
        )
    return tt.monomial(umono(u1=m + 1)) + tt.monomial(umono(u1=m)).scale(
        tt.ring.var("b2") * tt.ring.var("b3")
    )


# ---------------------------------------------------------------------------
# multi-component values


def _component_product(tt: TraceTorus, comps: tuple[ComponentSpec, ...]) -> TorusElement:
    out = tt.torus.one()
    for c in comps:
        val = utr_component(tt, replace(c, multiplicity=1))
        for _ in range(c.multiplicity):
            out = elem_mul(out, val)
    return out


@lru_cache(maxsize=None)
def _core_value(j: int, n: tuple[int, ...], loops: tuple[int, ...]) -> TorusElement:
    """Reflection-normalized trace of the untwisted canonical multiset
    for the length vector ``n`` together with ``loops[i]`` near-boundary
    loops at each missed boundary."""
    tt = trace_torus(j)
    crosses, returns = pants.arc_counts(j, n)
    comps = [ComponentSpec("cross", key, (0, 0), cnt) for key, cnt in sorted(crosses.items())]
    comps += [ComponentSpec("return", (i,), (0,), cnt) for i, cnt in sorted(returns.items())]
    comps += [ComponentSpec("loop", (i + 1,), (), cnt) for i, cnt in enumerate(loops) if cnt]
    return reflection_normalize(_component_product(tt, tuple(comps)))


def utr_coord(tt: TraceTorus, coord: Coord) -> TorusElement:
    """Trace of an admissible coordinate.

    The untwisted core value (canonical arcs and loops) is cached, and
    the residual boundary twists become an exponent translation: the
    x-degrees of the core are uniform, so twisting by an invertible u
    only adds a global power of q, which the reflection normalization
    removes.
    """
    j = tt.j
    n, t = split_nt(j, coord)
    if any(x < 0 for x in n) or sum(n) % 2:
        raise ValueError(f"coordinate {coord} is not in Lambda_{j}")
    base = pants.base_twists(j, n)
    loops = [0] * j
    shift = [0] * j
    for i in range(j):
        extra = t[i] - base[i]
        if n[i] == 0:
            if extra < 0:
                raise ValueError(f"coordinate {coord} is not in Lambda_{j}")
            loops[i] = extra
        else:
            shift[i] = extra
    core = _core_value(j, n, tuple(loops))
    return core.translate((0,) * j + tuple(shift))


def utr_coord_straight(tt: TraceTorus, coord: Coord) -> TorusElement:
    """Cache-free reference path: multiply the residual twist in as a
    monomial and renormalize.  Used to validate the translation shortcut."""
    if not lambda_contains(tt.j, coord):
        raise ValueError(f"coordinate {coord} is not in Lambda_{tt.j}")
    dec = decompose(tt.j, coord)
    prod = _component_product(tt, dec.components)
    twist = tt.monomial((0,) * tt.j + dec.twists)
    return reflection_normalize(elem_mul(twist, prod))


def weyl_u_mul(tt: TraceTorus, i: int, value: TorusElement, x_degree: int) -> TorusElement:
    """The Weyl-normalized product of u_i with a value of x_i-degree k,
    equal to q^{-k} u_i value."""
    return elem_mul(tt.u(i), value).shift_q(-2 * x_degree)


# ---------------------------------------------------------------------------
# the four checkable properties of the trace


def grading_violation(j: int, coord: Coord, value: TorusElement) -> str | None:
    """Why the x-degrees of ``value`` are not the lengths of ``coord``, or None."""
    n = tuple(coord[:j])
    for k in value.terms:
        if k[:j] != n:
            return f"grading: monomial {k} has x-degrees {k[:j]}, expected {n}"
    return None


def lead_violation(j: int, coord: Coord, value: TorusElement) -> str | None:
    """Why ``coord`` is not the unique top-degree exponent of ``value``, or None."""
    leads = [k for k, _ in lead_term(value, lambda k: pants_degree(j, k))]
    if leads == [tuple(coord)]:
        return None
    return f"lead: maximal class {leads}, expected unique {coord}"


def twist_violations(tt: TraceTorus, coord: Coord, trace) -> list[str]:
    """The twist rule at every boundary the curve meets, with the traces
    computed by ``trace`` (``utr_coord`` or ``utr_coord_straight``)."""
    j = tt.j
    value = trace(tt, coord)
    return [
        f"twist: boundary {i} of {coord}"
        for i in range(1, j + 1)
        if coord[i - 1]
        and trace(tt, twist_apply(j, i, coord)) != weyl_u_mul(tt, i, value, coord[i - 1])
    ]


@dataclass
class ThmbtrReport:
    j: int
    coord: Coord
    grading_ok: bool
    twist_ok: bool
    lead_ok: bool
    reflection_ok: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return self.grading_ok and self.twist_ok and self.lead_ok and self.reflection_ok


def check_thmbtr(tt: TraceTorus, coord: Coord) -> ThmbtrReport:
    """Check boundary grading, the twist rule, the top-degree exponent and
    reflection invariance on the trace of one coordinate."""
    j = tt.j
    value = utr_coord(tt, coord)
    grading = grading_violation(j, coord, value)
    twist = twist_violations(tt, coord, utr_coord)
    lead = lead_violation(j, coord, value)
    reflection_ok = value.reflect() == value
    violations = [v for v in (grading, *twist, lead) if v]
    if not reflection_ok:
        violations.append("reflection: value is not reflection invariant")
    return ThmbtrReport(j, tuple(coord), grading is None, not twist, lead is None, reflection_ok, violations)
