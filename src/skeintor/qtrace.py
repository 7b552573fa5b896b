"""Quantum traces for the basic pairs of pants.

Each pants type ``j`` gets a quantum torus on generators
``x_1..x_j, u_1..u_j`` (exponent positions 0..j-1 for the x block and
j..2j-1 for the u block) with the commutation rules

* ``x_{i+1} x_i = q x_i x_{i+1}`` cyclically for the three-holed type,
  ``x_2 x_1 = q x_1 x_2`` for the two-holed type,
* ``u_i x_k = q^{2 delta_{ik}} x_k u_i``, and the u's central among
  themselves.

The matrix is ``qtorus.tilde_q`` of the x-block, the doubled form the
surface torus is built with too (see ``surface``).

The trace of an admissible coordinate is assembled from the catalog
values of the standard curves: the value of a canonical decomposition
is the product of the component values twisted by the global residual,
normalized to be reflection invariant.  Twisting by a boundary with
positive length is an exponent translation of the value, which is what
the core cache below exploits.

A component of multiplicity m enters the product as its m-th power,
taken in one step.  Every component value is a monomial or a sum of two
monomials, and two Weyl-normalized monomials q-commute:
x^a x^b = q^p x^b x^a with p = pairing(a, b).  So the q-binomial
theorem (Kassel, *Quantum Groups*, ch. IV) gives the power with the
Gaussian binomials [m choose j]_t at t = q^p, and a multi-component
value costs one torus product per distinct component.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, zip_longest
from operator import add, itemgetter
from typing import NamedTuple

from . import pants
from .pants import Coord, ComponentSpec, decompose, split_nt, twist_apply
from .qtorus import (
    AntisymMatrix,
    QuantumTorus,
    TorusElement,
    elem_mul,
    lead_term,
    reflection_normalize,
    tilde_q,
)
from .ring import GroundElem, GroundRing, flat_mul, shared


# The x-block of each pants type: x_{i+1} x_i = q x_i x_{i+1}.
_X_BLOCKS = {3: ((0, -1, 1), (1, 0, -1), (-1, 1, 0)), 2: ((0, -1), (1, 0)), 1: ((0,),)}
_SYMBOLS = {3: (), 2: ("b3",), 1: ("b2", "b3")}


class TraceTorus(NamedTuple):
    """The quantum torus receiving the trace of a pants type."""

    j: int
    torus: QuantumTorus


def trace_torus(j: int) -> TraceTorus:
    """The trace torus of pants type ``j``, one of three built at import."""
    if j not in pants.PANTS_TYPES:
        raise ValueError(f"pants type must be one of {pants.PANTS_TYPES}")
    return _TRACE_TORI[j]


_TRACE_TORI = {j: TraceTorus(j, QuantumTorus(tilde_q(AntisymMatrix(_X_BLOCKS[j])), GroundRing(_SYMBOLS[j])))
               for j in pants.PANTS_TYPES}


@lru_cache(maxsize=4096)
def _kept_u(j: int, i: int, half_steps: int) -> TorusElement:
    """u_i times q^(half_steps/2) in ``trace_torus(j)``; one element per
    key, shared by every caller since it is read-only."""
    torus = trace_torus(j).torus
    exponent = [0] * (2 * j)
    exponent[j + i - 1] = 1
    return torus.monomial(exponent, torus.ring.q_half(half_steps))


def pants_degree(j: int, exponent: Coord) -> tuple[int, int, int]:
    """The three-component degree used to order trace monomials."""
    n, t = split_nt(j, exponent)
    if j == 3:
        return (n[0] + n[1] + n[2], t[0] + t[1] + t[2], 0)
    if j == 2:
        return (n[0] + n[1], t[0] + t[1], t[1])
    return (n[0], t[0], 0)


# ---------------------------------------------------------------------------
# catalog of one-component values


# The second monomial of a return arc's value, keyed by pants type and
# base boundary: its u-exponents minus those of the first monomial, and
# the puncture symbols of its coefficient with their powers.
_RETURN_TAIL = {
    (3, 1): ((1, -1, -1), ()), (3, 2): ((-1, 1, -1), ()), (3, 3): ((-1, -1, 1), ()),
    (2, 1): ((1, -1), (("b3", -1),)), (2, 2): ((1, -1), (("b3", 1),)),
    (1, 1): ((-1,), (("b2", 1), ("b3", 1))),
}


def _curve_value(tt: TraceTorus, c: ComponentSpec) -> TorusElement:
    """Trace of one copy of the standard curve ``c``, possibly twisted:
    the monomial at the curve's coordinates, plus its inverse for a loop
    and the monomial given by ``_RETURN_TAIL`` for a return arc."""
    top, torus = pants._nu1(tt.j, c), tt.torus
    value = torus.monomial(top)
    if c.kind == "loop":
        return value + torus.monomial(tuple(-x for x in top))
    if c.kind == "return":
        shift, syms = _RETURN_TAIL[tt.j, c.boundaries[0]]
        tail = torus.monomial(top[: tt.j] + tuple(map(add, top[tt.j :], shift)))
        for name, power in syms:
            tail = tail.scale(torus.ring.var(name, power))
        return value + tail
    return value


# ---------------------------------------------------------------------------
# multi-component values


def _component_power(value: TorusElement, m: int) -> TorusElement:
    """``value`` to the power ``m`` in one step, for a monomial or a sum
    of two monomials (every component value is one of these).

    With p = pairing(a, b), the q-binomial theorem gives
    (alpha x^a + beta x^b)^m = sum_j alpha^j beta^(m-j)
    sum_s g_{m,j,s} q^{p(j(m-j) - 2s)/2} x^{ja + (m-j)b}, where g_{m,j,s}
    is the t^s coefficient of the Gaussian binomial [m choose j]_t.
    """
    torus = value.torus
    (a, alpha), *rest = value.terms.items()
    one = {(0,) * torus.ring.nsym + (0,): 1}
    alphas = list(accumulate([alpha] * m, flat_mul, initial=one))
    if not rest:
        return torus.monomial(tuple(m * x for x in a), GroundElem(torus.ring, alphas[m]))
    (b, beta), = rest
    betas = list(accumulate([beta] * m, flat_mul, initial=one))
    row = [[1]]  # [r choose j]_t for j = 0..r, by Pascal's rule [r-1, j-1] + t^j [r-1, j]
    for r in range(1, m + 1):
        pascal = (zip_longest(row[j - 1], [0] * j + row[j], fillvalue=0) for j in range(1, r))
        row = [[1], *([x + y for x, y in pair] for pair in pascal), [1]]
    p = torus.matrix.pairing(a, b)
    out: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for j, gauss in enumerate(row):
        acc = out[tuple(j * x + (m - j) * y for x, y in zip(a, b))] = {}
        top = p * j * (m - j)
        for key, c in flat_mul(alphas[j], betas[m - j]).items():
            for s, g in enumerate(gauss):
                k = key[:-1] + (key[-1] + top - 2 * p * s,)
                acc[k] = acc.get(k, 0) + c * g
    return torus.from_flat(out)


# Bounded like _core_value: each component tuple, the same for every
# coordinate with the same lengths and loop counts on either side of a
# twist rule, is multiplied out once per process.  Kept coefficients are
# ring.shared's, so products, pants cores and glued cores share equal ones.
@lru_cache(maxsize=65536)
def _component_product(j: int, comps: tuple[ComponentSpec, ...]) -> TorusElement:
    """The untwisted product of the component values ``comps`` on pants
    type ``j``, each raised to its multiplicity."""
    tt = trace_torus(j)
    powers = [_component_power(_curve_value(tt, c), c.multiplicity) for c in comps]
    return _shared_coefficients(reduce(elem_mul, powers) if powers else tt.torus.one())


@lru_cache(maxsize=65536)
def _core_value(j: int, n: tuple[int, ...], loops: tuple[int, ...]) -> TorusElement:
    """Reflection-normalized trace of the untwisted canonical multiset
    for the length vector ``n`` together with ``loops[i]`` near-boundary
    loops at each missed boundary."""
    product = _component_product(j, pants.components(j, n, loops))
    core = reflection_normalize(product)
    return core if core is product else _shared_coefficients(core)


def _shared_coefficients(value: TorusElement) -> TorusElement:
    """``value`` with each coefficient replaced by the equal one of
    :func:`ring.shared`, as a pants product or core or a glued core is kept."""
    return TorusElement(value.torus, {k: shared(c) for k, c in value.terms.items()})


def utr_coord(tt: TraceTorus, coord: Coord) -> TorusElement:
    """Trace of an admissible coordinate.

    The untwisted core value (canonical arcs and loops) is cached, and
    the residual boundary twists become an exponent translation: the
    x-degrees of the core are uniform, so twisting by an invertible u
    only adds a global power of q, which the reflection normalization
    removes.
    """
    n, loops, shift = pants.canonical(tt.j, coord)
    return _core_value(tt.j, n, loops).translate((0,) * tt.j + shift)


def utr_coord_straight(tt: TraceTorus, coord: Coord) -> TorusElement:
    """Reference path: multiply the residual twist in as a monomial and
    renormalize.  Used to validate the translation shortcut.

    It shares no cached trace with :func:`utr_coord`: it never reads the
    core values or translates.  What it shares is the cached untwisted
    component product of each decomposition, computed once per component
    tuple; :func:`_core_value` normalizes the same product."""
    dec = decompose(tt.j, coord)
    twist = tt.torus.monomial((0,) * tt.j + dec.twists)
    return reflection_normalize(elem_mul(twist, _component_product(tt.j, dec.components)))


def weyl_u_mul(tt: TraceTorus, i: int, value: TorusElement, x_degree: int) -> TorusElement:
    """The Weyl-normalized product of u_i with a value of x_i-degree k,
    equal to q^{-k} u_i value: one product with the monomial q^{-k} u_i."""
    return elem_mul(_kept_u(tt.j, i, -2 * x_degree), value)


# ---------------------------------------------------------------------------
# the four checkable properties of the trace


# The twist part of pants_degree, which orders the terms of a pants value:
# its x-degrees are fixed.
TWIST_KEY = {3: lambda k: k[3] + k[4] + k[5], 2: lambda k: (k[2] + k[3], k[3]), 1: itemgetter(1)}


def lead_violation(coord: Coord, value: TorusElement, r: int, key) -> str | None:
    """Why ``coord`` is not the unique top term of ``value``, or None.

    The first ``r`` exponents of every term, the x-degrees of a pants
    value or the lengths of a glued trace, must be those of ``coord``;
    the terms are then ordered by ``key``, a twist part
    (``TWIST_KEY[j]`` or ``surface.glued_key(r)``), which on fixed
    lengths is the order of the full degree (:func:`pants_degree`,
    ``surface.d_embed``), and ``coord`` must be the only maximal term."""
    n = tuple(coord[:r])
    for k in value.terms:
        if k[:r] != n:
            return f"grading: monomial {k} has lengths {k[:r]}, expected {n}"
    if not value.terms:
        return "lead: the value is zero"
    leads = lead_term(value, key)
    if len(leads) != 1 or leads[0][0] != tuple(coord):
        return f"lead: maximal class {[k for k, _ in leads]}, expected unique {coord}"
    return None


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


class ThmbtrReport(NamedTuple):
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
    lead = lead_violation(coord, value, j, TWIST_KEY[j])
    twist = twist_violations(tt, coord, utr_coord)
    reflection_ok = value.reflect() == value
    violations = [v for v in (lead, *twist) if v]
    if not reflection_ok:
        violations.append("reflection: value is not reflection invariant")
    grading_ok = lead is None or not lead.startswith("grading")
    return ThmbtrReport(j, tuple(coord), grading_ok, not twist, lead is None, reflection_ok, violations)
