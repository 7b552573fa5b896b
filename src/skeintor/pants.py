"""Modified Dehn-Thurston coordinates on the three basic pairs of pants.

A pants type is the number ``j`` of boundary circles (1, 2 or 3); the
remaining ``3 - j`` holes are interior punctures.  A coordinate is a
flat tuple ``(n_1..n_j, t_1..t_j)`` of j non-negative lengths followed
by j integer twists.  The admissible coordinates form the monoid
``Lambda_j``: the lengths satisfy a parity constraint and, at every
boundary the curve misses, the twist is bounded below by the Add
function, the integer floor :func:`twist_floors` gives.

The twist convention differs from the classical one: each standard
return arc based at boundary i contributes +1 to the twist at the
boundary it approaches (i+1 cyclically for the three-holed sphere, and
the shifted values below for the punctured types).  This is what makes
the coordinates additive under disjoint union and compatible with lead
terms of skein products.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

PANTS_TYPES = (1, 2, 3)

Coord = tuple[int, ...]


def _validate_type(j: int):
    if j not in PANTS_TYPES:
        raise ValueError(f"pants type must be one of {PANTS_TYPES}, got {j}")


def split_nt(r: int, coord: Coord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lengths and twists of a coordinate on ``r`` curves (or boundaries)."""
    if len(coord) != 2 * r:
        raise ValueError(f"coordinate must have length {2 * r}")
    return tuple(coord[:r]), tuple(coord[r:])


def twist_floors(j: int, n: tuple[int, ...]) -> tuple[int | None, ...] | None:
    """The lowest admissible twist at each boundary for the ``j`` lengths
    ``n``: the Add bound (an integer) where the curve misses the boundary,
    None where it meets it and any twist is allowed.  None in place of the
    tuple when a length is negative or the length sum is odd, since no
    coordinate of ``Lambda_j`` has such lengths.

    The floor is the number of return arcs approaching the boundary in
    the canonical arc realization of ``n`` (the arcs' own twist there,
    :func:`base_twists`), in closed form, so it fills no cache.
    """
    if min(n) < 0 or sum(n) % 2:
        return None
    if j == 1:
        return (None if n[0] else 0,)
    if j == 2:
        a, b = n
        return (None if a else -b // 2, None if b else a // 2)
    a, b, c = n
    return (None if a else max(0, c - b) // 2,
            None if b else max(0, a - c) // 2,
            None if c else max(0, b - a) // 2)


def lambda_contains(j: int, coord: Coord) -> bool:
    """Membership in the coordinate monoid ``Lambda_j``."""
    _validate_type(j)
    n, t = split_nt(j, coord)
    floors = twist_floors(j, n)
    if floors is None:
        return False
    for f, x in zip(floors, t):
        if f is not None and x < f:
            return False
    return True


def twist_apply(j: int, i: int, coord: Coord) -> Coord:
    """The boundary twist at ``i``: bumps t_i when the curve meets b_i."""
    n, t = split_nt(j, coord)
    if not (1 <= i <= j):
        raise IndexError(f"boundary index {i} out of range for type {j}")
    if n[i - 1] == 0:
        return tuple(coord)
    t = list(t)
    t[i - 1] += 1
    return n + tuple(t)


# ---------------------------------------------------------------------------
# standard components and the canonical decomposition


class ComponentSpec(NamedTuple):
    """One standard curve, possibly twisted, with a positive multiplicity.

    kind "loop": the near-boundary loop at ``boundaries[0]``; no twists.
    kind "cross": the arc joining two distinct boundaries, with one
    twist exponent per endpoint boundary.
    kind "return": the return arc based at ``boundaries[0]``, with a
    single twist exponent.  Building a record checks none of this;
    :func:`loop`, :func:`cross`, :func:`return_arc` and :func:`nu_of_component` do.
    """

    kind: str
    boundaries: tuple[int, ...]
    twists: tuple[int, ...] = ()
    multiplicity: int = 1


# (distinct boundaries, twists) of each component kind
_SHAPES = {"loop": (1, 0), "cross": (2, 2), "return": (1, 1)}


def _checked(c: ComponentSpec) -> ComponentSpec:
    """``c``, after checking it against the rules of its kind."""
    nb = len(c.boundaries)
    if len(set(c.boundaries)) != nb or _SHAPES.get(c.kind) != (nb, len(c.twists)):
        raise ValueError(f"not a {c.kind!r} component (see ComponentSpec): {c!r}")
    return c


def loop(i: int) -> ComponentSpec:
    return _checked(ComponentSpec("loop", (i,)))

def cross(i: int, k: int, s: int = 0, t: int = 0) -> ComponentSpec:
    return _checked(ComponentSpec("cross", (i, k), (s, t)))

def return_arc(i: int, m: int = 0) -> ComponentSpec:
    return _checked(ComponentSpec("return", (i,), (m,)))


def _base_return_coord(j: int, i: int) -> Coord:
    """Coordinates of the untwisted return arc based at boundary i."""
    n = [0] * j
    t = [0] * j
    n[i - 1] = 2
    if j == 3:
        t[i % 3] = 1
    elif j == 2:
        if i == 1:
            t[1] = 1
        else:
            t[0], t[1] = -1, 1
    else:
        t[0] = 1
    return tuple(n) + tuple(t)


def _nu1(j: int, c: ComponentSpec) -> Coord:
    """Coordinates of one copy of ``c``, whose shape must keep the rules
    of its kind; only its boundaries are checked, against type ``j``."""
    for b in c.boundaries:
        if not (1 <= b <= j):
            raise ValueError(f"component boundary {b} invalid for type {j}")
    n = [0] * j
    t = [0] * j
    if c.kind == "loop":
        t[c.boundaries[0] - 1] = 1
    elif c.kind == "cross":
        (i, k), (s, m) = c.boundaries, c.twists
        n[i - 1] = n[k - 1] = 1
        t[i - 1] += s
        t[k - 1] += m
    else:
        base = _base_return_coord(j, c.boundaries[0])
        n = list(base[:j])
        t = list(base[j:])
        t[c.boundaries[0] - 1] += c.twists[0]
    return tuple(n) + tuple(t)


def nu_of_component(j: int, c: ComponentSpec) -> Coord:
    """Dehn-Thurston coordinates of a single (twisted) standard curve."""
    _validate_type(j)
    if _checked(c).multiplicity != 1:
        raise ValueError("nu_of_component expects multiplicity 1")
    return _nu1(j, c)


@lru_cache(maxsize=65536)
def arc_counts(j: int, n: tuple[int, ...]) -> tuple[Mapping[tuple[int, int], int], Mapping[int, int]]:
    """Canonical arc multiset realizing the length vector ``n``.

    Returns (cross counts keyed by boundary pair, return counts keyed by
    base boundary) as read-only mappings, since they are cached.
    Follows the classical triangle resolution; verified against the
    coordinate round trip rather than any closed reference.
    """
    _validate_type(j)
    if len(n) != j or any(x < 0 for x in n):
        raise ValueError("invalid length vector")
    if sum(n) % 2:
        raise ValueError("length vector violates the parity constraint")
    crosses: dict[tuple[int, int], int] = {}
    returns: dict[int, int] = {}
    if j == 1:
        if n[0] // 2:
            returns[1] = n[0] // 2
    elif j == 2:
        if min(n):
            crosses[(1, 2)] = min(n)
        for i in (1, 2):
            r = (n[i - 1] - n[2 - i]) // 2
            if r > 0:
                returns[i] = r
    else:
        for a in range(1, 4):
            b = a % 3 + 1
            l = ({1, 2, 3} - {a, b}).pop()
            x = max(0, min(n[a - 1], n[b - 1], (n[a - 1] + n[b - 1] - n[l - 1]) // 2))
            if x:
                crosses[(min(a, b), max(a, b))] = x
        for i in range(1, 4):
            others = [n[k] for k in range(3) if k != i - 1]
            r = max(0, (n[i - 1] - sum(others)) // 2)
            if r:
                returns[i] = r
    return MappingProxyType(crosses), MappingProxyType(returns)


@lru_cache(maxsize=65536)
def base_twists(j: int, n: tuple[int, ...]) -> tuple[int, ...]:
    """Twist vector of the canonical untwisted arc multiset for ``n``."""
    crosses, returns = arc_counts(j, n)
    t = [0] * j
    for i, cnt in returns.items():
        base = _base_return_coord(j, i)
        for s in range(j):
            t[s] += cnt * base[j + s]
    return tuple(t)


class Decomposition(NamedTuple):
    """Canonical component multiset plus a global twist per boundary.

    The residual twist vector represents one global boundary twist
    applied to the whole multi-curve, so the coordinate it realizes is
    the component sum plus ``(0, twists)``.
    """

    j: int
    components: tuple[ComponentSpec, ...]
    twists: tuple[int, ...]

    def nu(self) -> Coord:
        total = [0] * (2 * self.j)
        for c in self.components:
            v = _nu1(self.j, c)
            for idx in range(2 * self.j):
                total[idx] += c.multiplicity * v[idx]
        for i in range(self.j):
            total[self.j + i] += self.twists[i]
        return tuple(total)


def canonical(j: int, coord: Coord) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The canonical decomposition of ``coord`` as three vectors: the
    lengths, the loop count at each boundary and the residual twist.

    The arcs are the untwisted canonical multiset for the lengths.  The
    twist beyond the arcs' own (:func:`base_twists`) is a count of
    near-boundary loops where the curve misses the boundary and the
    residual twist where it meets it.  Raises ValueError exactly when
    ``coord`` is not in ``Lambda_j``: at a missed boundary, the arcs'
    own twist is the floor :func:`twist_floors` gives.  ``j``
    must be a pants type (:func:`decompose` checks it; a ``TraceTorus``
    has one).
    """
    n, t = split_nt(j, coord)
    if min(n) < 0 or sum(n) % 2:
        raise ValueError(f"coordinate {coord} is not in Lambda_{j}")
    base = base_twists(j, n)
    loops, residual = [0] * j, [0] * j
    for i in range(j):
        if n[i]:
            residual[i] = t[i] - base[i]
        elif t[i] < base[i]:
            raise ValueError(f"coordinate {coord} is not in Lambda_{j}")
        else:
            loops[i] = t[i] - base[i]
    return n, tuple(loops), tuple(residual)


def components(j: int, n: tuple[int, ...], loops: tuple[int, ...]) -> tuple[ComponentSpec, ...]:
    """The canonical components: the untwisted arcs for the lengths
    ``n``, then ``loops[i]`` loops at boundary i + 1."""
    crosses, returns = arc_counts(j, n)
    return (
        *(ComponentSpec("cross", key, (0, 0), cnt) for key, cnt in sorted(crosses.items())),
        *(ComponentSpec("return", (i,), (0,), cnt) for i, cnt in sorted(returns.items())),
        *(ComponentSpec("loop", (i,), (), cnt) for i, cnt in enumerate(loops, 1) if cnt),
    )


def decompose(j: int, coord: Coord) -> Decomposition:
    """Canonical decomposition of an admissible coordinate (see
    :func:`canonical`); raises ValueError on any other coordinate."""
    _validate_type(j)
    n, loops, residual = canonical(j, coord)
    return Decomposition(j, components(j, n, loops), residual)
