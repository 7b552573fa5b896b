"""General quantum tori on an antisymmetric integer matrix.

Elements are stored in the Weyl-normalized monomial basis: a term is an
exponent vector together with a :class:`~skeintor.ring.GroundElem`
coefficient, held in a read-only mapping.  Unnormalized generator
products never materialize; the product of two normalized monomials is
again a normalized monomial up to an explicit half-integer power of the
quantum parameter, which makes every operation closed-form.

Products accumulate flat: each output exponent collects plain integer
coefficients under their coefficient keys (``ring.flat_accumulate``, the
two-level form of ``ring.flat_mul``), and each output coefficient
becomes a ``GroundElem`` once, at the end.  The factors the program
multiplies are graded: the terms of a glued trace share their lengths
and those of a pants value their x-degrees, and the twist (u) block of
both commutation matrices is zero.  So the pairing of a term pair
splits into a part of the left term and a part of the right one, each
factor's coefficient keys take their part of the q-shift once, and
the pair loop only adds keys (see :func:`elem_mul`).  A left factor
that is one monomial times a power of q (in the pants trace, a twist
monomial or ``u_i``) only shifts the q-exponents of the right
coefficients, so that product skips the accumulation.
"""

from __future__ import annotations

from operator import add, mul
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Sequence

from .ring import GroundElem, GroundRing, _checked_make, _no_rebinding, _nonzero, flat_accumulate


class _AntisymFields(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class AntisymMatrix(_AntisymFields):
    """An antisymmetric integer matrix giving the commutation exponents.

    The rows are copied into tuples, so a caller's later change to the
    lists it passed does not reach the matrix, and the matrix hashes and
    equals the one built from the same rows as tuples.
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(map(tuple, rows))
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        # Q^T = -Q over the upper triangle and the diagonal, which must be zero
        for i, row in enumerate(rows):
            for j in range(i, n):
                x, y = row[j], rows[j][i]
                if type(x) is not int or type(y) is not int:
                    raise ValueError("matrix entries must be integers")
                if x != -y:
                    raise ValueError("matrix must be antisymmetric")
        return tuple.__new__(cls, (rows,))

    _make = _checked_make

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pairing(self, k: Sequence[int], l: Sequence[int]) -> int:
        """The bilinear form sum_{ij} Q_ij k_i l_j."""
        rows = self.rows
        if len(k) != len(rows) or len(l) != len(rows):
            raise ValueError("vector length must equal the matrix dimension")
        total = 0
        for row, ki in zip(rows, k):
            if ki:
                total += ki * sum(map(mul, row, l))  # one dot product per nonzero k_i
        return total


def tilde_q(q: AntisymMatrix) -> AntisymMatrix:
    """The doubled form [[Q, -2I], [2I, 0]] on lengths then twists, for
    the x-block ``q``: u_i x_i = q^2 x_i u_i, the u's central among
    themselves.  The one builder of an x-u block, shared by the pants
    tori and the surface torus, so that gluing adds the face pairings."""
    r = q.dim
    rows = [tuple(row) + tuple(-2 if k == i else 0 for k in range(r)) for i, row in enumerate(q.rows)]
    rows += [tuple(2 if k == i else 0 for k in range(r)) + (0,) * r for i in range(r)]
    return AntisymMatrix(rows)


class QuantumTorus(NamedTuple):
    """A quantum torus: commutation matrix plus coefficient ground ring."""

    matrix: AntisymMatrix
    ring: GroundRing = GroundRing()

    @property
    def rank(self) -> int:
        return self.matrix.dim

    def zero(self) -> "TorusElement":
        return TorusElement(self, {})

    def one(self) -> "TorusElement":
        return self.monomial((0,) * self.rank)

    def monomial(self, exponent: Sequence[int], coeff: GroundElem | None = None) -> "TorusElement":
        k = tuple(exponent)
        if len(k) != len(self.matrix.rows):
            raise ValueError("exponent length mismatch")
        if coeff is None:
            return TorusElement(self, {k: self.ring.one()})
        if not coeff:
            return self.zero()
        return TorusElement(self, {k: coeff})

    def from_flat(self, terms: dict[tuple[int, ...], dict[tuple[int, ...], int]]) -> "TorusElement":
        """The element with integer coefficients accumulated per exponent
        under their coefficient keys; exponents whose coefficients all
        cancel are dropped.  Takes over ``terms``."""
        ring = self.ring
        cancelled = []
        for k, acc in terms.items():
            c = GroundElem(ring, acc)
            if c:
                terms[k] = c
            else:
                cancelled.append(k)
        for k in cancelled:
            del terms[k]
        return TorusElement(self, terms)


class TorusElement:
    """Finitely supported map from exponent vectors to coefficients.

    ``terms`` is a read-only view of the dict passed in, which the
    element takes over, and the attributes cannot be rebound: values
    shared with a cache cannot be changed.
    """

    __slots__ = ("torus", "terms")

    def __init__(self, torus: QuantumTorus, terms: dict[tuple[int, ...], GroundElem]):
        _set_torus(self, torus)
        _set_terms(self, MappingProxyType(terms))

    __setattr__ = __delattr__ = _no_rebinding

    def _check(self, other: "TorusElement"):
        if self.torus is not other.torus and self.torus != other.torus:
            raise ValueError("elements live in different quantum tori")

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return TorusElement(self.torus, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusElement) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c: GroundElem) -> "TorusElement":
        if not c:
            return self.torus.zero()
        return TorusElement(self.torus, {k: v * c for k, v in self.terms.items()})

    def shift_q(self, half_steps: int) -> "TorusElement":
        """Multiply by q^{half_steps/2}."""
        if half_steps == 0:
            return self
        return TorusElement(self.torus, {k: v.shift_q(half_steps) for k, v in self.terms.items()})

    def translate(self, vector: Sequence[int]) -> "TorusElement":
        """Shift every exponent by ``vector``, leaving coefficients alone.

        This is *not* multiplication by a monomial unless the pairing of
        ``vector`` against every exponent in the support is constant.  The
        callers (``qtrace.utr_coord``, ``surface.phi_value``) do not check
        it: they rely on every term of a kept core having the same x-degrees,
        which are all that the twist vector they pass pairs with.
        """
        v = tuple(vector)
        if not any(v):
            return self
        return TorusElement(self.torus, {tuple(map(add, k, v)): c for k, c in self.terms.items()})

    def reflect(self) -> "TorusElement":
        """Coefficientwise reflection; fixes every normalized monomial."""
        return TorusElement(self.torus, {k: c.reflect() for k, c in self.terms.items()})

    def __repr__(self):
        return f"TorusElement({dict(self.terms)!r})"


# The slot setters, which bypass the guard (as in ring.GroundElem).
_set_torus = TorusElement.torus.__set__
_set_terms = TorusElement.terms.__set__


def elem_mul(e1: TorusElement, e2: TorusElement) -> TorusElement:
    """Bilinear extension of the normalized-monomial product.

    The term pair (k, l) carries q^(pairing(k, l)/2).  When the left
    factor's exponents differ only at a set A of positions, the right
    factor's only at a set B, and the matrix vanishes on A x B, the
    pairing splits at the first terms k0 and l0 of the two factors:

        pairing(k, l) = (pairing(k, l0) - pairing(k0, l0)) + pairing(k0, l)

    So each left coefficient takes the first part and each right one
    the second, once per term: one row per factor (k0^T Q and Q l0, dot
    products with the matrix rows) and no dot product per term pair,
    and the pair loop only adds keys.  The test reads the columns of
    the two exponent sets, O(terms), and a factor of one term skips it.
    When it fails, each left term is a graded group of its own,
    multiplied the same way.
    """
    e1._check(e2)
    torus = e1.torus
    terms1, terms2 = e1.terms, e2.terms
    if len(terms1) == 1:
        (k, c), = terms1.items()
        if len(c) == 1:
            (ka, ca), = c.items()
            if ca == 1 and not any(ka[:-1]):
                return _q_monomial_mul(torus, k, ka[-1], e2)
    if not terms1 or not terms2:
        return torus.zero()
    rows = torus.matrix.rows
    groups = [terms1.items()]
    if len(terms1) > 1 and len(terms2) > 1:
        b = _varying(terms2)
        for i, col in enumerate(zip(*terms1)):
            if col.count(col[0]) != len(col) and any(map(rows[i].__getitem__, b)):
                groups = [((k, c),) for k, c in terms1.items()]
                break
    out: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for group in groups:
        (k0, c0), *rest = group
        row = [-sum(map(mul, q, k0)) for q in rows]  # k0^T Q
        right = []
        for l, d in terms2.items():
            h, terms = sum(map(mul, row, l)), d.items()
            right.append((l, [(kb[:-1] + (kb[-1] + h,), cb) for kb, cb in terms] if h else terms))
        left = [(k0, c0.items())]
        if rest:
            l0 = next(iter(terms2))
            base = sum(map(mul, row, l0))
            col = [sum(map(mul, q, l0)) for q in rows]  # Q l0
            for k, c in rest:
                h, terms = sum(map(mul, col, k)) - base, c.items()
                left.append((k, [(ka[:-1] + (ka[-1] + h,), ca) for ka, ca in terms] if h else terms))
        flat_accumulate(out, left, right)
    return torus.from_flat(out)


def _varying(terms) -> list[int]:
    """The positions at which the exponents of ``terms`` do not all agree
    (``elem_mul`` scans the left factor's columns the same way)."""
    return [i for i, col in enumerate(zip(*terms)) if col.count(col[0]) != len(col)]


def _q_monomial_mul(torus: QuantumTorus, k: tuple[int, ...], h: int, e2: TorusElement) -> TorusElement:
    """The product of the monomial ``q^(h/2) x^k`` with ``e2``.

    Each output coefficient is a right coefficient shifted by ``h`` plus
    the pairing half-steps, a dot product with the row k^T Q: no two
    terms meet and none becomes zero, so nothing is accumulated or dropped.
    A coefficient whose shift is 0 is the right factor's object itself.
    """
    row = [-sum(map(mul, q, k)) for q in torus.matrix.rows]  # k^T Q
    out = {}
    for l, d in e2.terms.items():
        out[tuple(map(add, k, l))] = d.shift_q(h + sum(map(mul, row, l)))
    return TorusElement(torus, out)


def weyl_normalize(torus: QuantumTorus, seq: Iterable[tuple[int, int]]) -> TorusElement:
    """Weyl normalization of an ordered product of generator powers.

    ``seq`` is a sequence of (generator index, exponent) pairs.  The
    ordered product is corrected by the half-power of the quantum
    parameter that makes the result permutation invariant; it equals the
    normalized monomial at the total exponent vector.
    """
    seq = list(seq)
    Q = torus.matrix.rows
    correction = 0
    for i in range(len(seq)):
        gi, ei = seq[i]
        for j in range(i + 1, len(seq)):
            gj, ej = seq[j]
            correction += Q[gi][gj] * ei * ej
    result = torus.one()
    for g, e in seq:
        exps = [0] * torus.rank
        exps[g] = e
        result = elem_mul(result, torus.monomial(exps))
    return result.shift_q(-correction)


def lead_term(
    e: TorusElement, degree: Callable[[tuple[int, ...]], tuple]
) -> list[tuple[tuple[int, ...], GroundElem]]:
    """All terms of maximal degree class, compared lexicographically.

    Returns the full maximal class; a singleton list means a unique lead
    monomial.  Ties are surfaced, never silently broken.
    """
    if not e.terms:
        raise ValueError("lead term of the zero element")
    best = None
    out: list[tuple[tuple[int, ...], GroundElem]] = []
    for k, c in e.terms.items():
        d = degree(k)
        if best is None or d > best:
            best = d
            out = [(k, c)]
        elif d == best:
            out.append((k, c))
    return out


def reflection_normalize(e: TorusElement) -> TorusElement:
    """Rescale by the unique half-power of the quantum parameter making
    the element reflection invariant.

    The shift is read off one symbol group, the q-exponents that share
    the symbol exponents of the first coefficient's first key: their
    center must be the reflection point.  One pass then checks, term by
    term, that the shifted element is invariant and builds each shifted
    coefficient; invariance implies that every other group has the same
    center.  An element whose shift is 0 is only checked, and returned
    as it is.

    Raises ValueError when no such power exists; for products of
    quantum-trace values of disjoint curves it always does.
    """
    if e.is_zero():
        return e
    first = next(iter(e.terms.values()))
    group = next(iter(first))[:-1]
    qs = [key[-1] for key in first if key[:-1] == group]
    twice = -(max(qs) + min(qs))
    if twice % 2:
        raise ValueError("element is not reflection-normalizable (odd center)")
    shift = twice // 2
    if not shift:
        for c in e.terms.values():
            for key, v in c.items():
                if c.get(key[:-1] + (-key[-1],)) != v:
                    raise ValueError("element is not reflection-normalizable")
        return e
    # invariance of the shifted element, read off the unshifted terms:
    # q-exponent h lands on h + shift, and its mirror -(h + shift) comes
    # from -h - 2 shift
    ring = e.torus.ring
    out = {}
    for x, c in e.terms.items():
        shifted = {}
        for key, v in c.items():
            head, h = key[:-1], key[-1]
            if c.get(head + (-h - twice,)) != v:
                raise ValueError("element is not reflection-normalizable")
            shifted[head + (h + shift,)] = v
        out[x] = _nonzero(ring, shifted)
    return TorusElement(e.torus, out)
