"""Exact coefficient rings.

Two kinds of coefficients are used throughout the package:

* :class:`GroundRing` / :class:`GroundElem` -- Laurent polynomials with
  integer coefficients in a square root of the quantum parameter and in
  a declared tuple of puncture symbols.  A surface with interior
  punctures gets one invertible central symbol per puncture;
  ``GroundRing(())`` is the plain half-step Laurent ring.  The quantum
  parameter is stored as integer counts of half-steps, so ``q^{3/2}`` is
  the half-step exponent ``3``.  This keeps every computation integral.
* :class:`Cyclotomic` -- elements of ``Z[zeta]`` for a primitive root of
  unity ``zeta``, reduced modulo the cyclotomic polynomial.  Used when a
  root of unity is substituted for the quantum parameter.  We always
  work in the order ``2*d`` extension so that a square root of the
  chosen root of unity exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


# ---------------------------------------------------------------------------
# integer polynomials (dense tuples, constant term first)


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return poly_trim(out)


def poly_trim(cs) -> tuple[int, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_divmod(n: tuple[int, ...], d: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact division over Z; the divisor must be monic or divide exactly."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(n) - len(d) + 1)
    r = list(n)
    while len(r) >= len(d) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        c, rem = divmod(r[-1], d[-1])
        if rem:
            raise ValueError("non-exact polynomial division over Z")
        shift = len(r) - len(d)
        q[shift] = c
        for i, dc in enumerate(d):
            r[shift + i] -= c * dc
        r.pop()
    return poly_trim(q), poly_trim(r)


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial as a dense coefficient tuple.

    Computed by exact division of ``x^d - 1`` by the cyclotomic
    polynomials of the proper divisors of ``d``.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    """
    if d < 1:
        raise ValueError("order must be a positive integer")
    poly = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            poly, rem = poly_divmod(poly, cyclotomic_poly(e))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return poly


# ---------------------------------------------------------------------------
# ground ring with puncture symbols


@dataclass(frozen=True)
class GroundRing:
    """Laurent polynomials in the declared puncture symbols and the
    half-step generator ``q^{1/2}``.

    Elements are :class:`GroundElem`; their term keys are tuples
    ``(*puncture_exponents, q_half_exponent)``.
    """

    symbols: tuple[str, ...] = ()

    @property
    def nsym(self) -> int:
        return len(self.symbols)

    def zero(self) -> "GroundElem":
        return GroundElem(self, {})

    def one(self) -> "GroundElem":
        return GroundElem(self, {(0,) * self.nsym + (0,): 1})

    def q_half(self, e: int) -> "GroundElem":
        return GroundElem(self, {(0,) * self.nsym + (e,): 1})

    def monomial(self, sym_exps: tuple[int, ...], q_half_exp: int = 0, coeff: int = 1) -> "GroundElem":
        if len(sym_exps) != self.nsym:
            raise ValueError("symbol exponent length mismatch")
        if coeff == 0:
            return self.zero()
        return GroundElem(self, {tuple(sym_exps) + (q_half_exp,): coeff})

    def var(self, name: str, k: int = 1) -> "GroundElem":
        i = self.symbols.index(name)
        exps = [0] * self.nsym
        exps[i] = k
        return self.monomial(tuple(exps))


class _ReadOnlyTerms(dict):
    """A dict whose mutating methods raise TypeError.

    Coefficients use it rather than a ``types.MappingProxyType`` view:
    a cached trace holds one coefficient per term, and a view is one
    more object for each.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("coefficient terms are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class GroundElem:
    """Element of a :class:`GroundRing`.

    ``terms`` maps term key to nonzero integer coefficient and is
    read-only, so values shared with a cache cannot be changed.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GroundRing, terms: dict[tuple[int, ...], int]):
        self.ring = ring
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        self.terms = _ReadOnlyTerms(terms)

    def __add__(self, other: "GroundElem") -> "GroundElem":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return GroundElem(self.ring, out)

    def __neg__(self) -> "GroundElem":
        return GroundElem(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "GroundElem") -> "GroundElem":
        return self + (-other)

    def __mul__(self, other: "GroundElem") -> "GroundElem":
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1:
            (ka, ca), = a.items()
            (kb, cb), = b.items()
            return GroundElem(self.ring, {tuple(x + y for x, y in zip(ka, kb)): ca * cb})
        out: dict[tuple[int, ...], int] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                s = out.get(k, 0) + ca * cb
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return GroundElem(self.ring, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundElem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def reflect(self) -> "GroundElem":
        """q^{1/2} -> q^{-1/2}; puncture symbols are fixed."""
        return GroundElem(self.ring, {k[:-1] + (-k[-1],): c for k, c in self.terms.items()})

    def shift_q(self, half_steps: int) -> "GroundElem":
        return GroundElem(self.ring, {k[:-1] + (k[-1] + half_steps,): c for k, c in self.terms.items()})

    def __repr__(self):
        return f"GroundElem({self.terms!r})"


# ---------------------------------------------------------------------------
# cyclotomic integers


@lru_cache(maxsize=None)
def _power_table(order: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod the order-th cyclotomic polynomial, for 0 <= k < order."""
    phi = cyclotomic_poly(order)
    deg = len(phi) - 1
    table = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(order):
        table.append(tuple(cur))
        top = cur[deg - 1]
        cur = [0] + cur[:-1]
        if top:
            # x^deg == -(lower part of phi) since phi is monic
            for i in range(deg):
                cur[i] -= top * phi[i]
    return tuple(table)


class Cyclotomic:
    """An element of Z[zeta] with zeta a primitive ``order``-th root of 1.

    Stored reduced modulo the ``order``-th cyclotomic polynomial, so
    equality of coefficient tuples is equality in the ring.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.coeffs = self._reduce(order, list(coeffs))

    @staticmethod
    def _reduce(order: int, cs: list[int]) -> tuple[int, ...]:
        phi = cyclotomic_poly(order)
        deg = len(phi) - 1
        cs = list(cs) + [0] * max(0, deg - len(cs))
        for i in range(len(cs) - 1, deg - 1, -1):
            c = cs[i]
            if c:
                for j in range(len(phi)):
                    cs[i - deg + j] -= c * phi[j]
        return tuple(cs[:deg])

    @staticmethod
    def zero(order: int) -> "Cyclotomic":
        return Cyclotomic(order, ())

    @staticmethod
    def one(order: int) -> "Cyclotomic":
        return Cyclotomic(order, (1,))

    @staticmethod
    def root(order: int, power: int = 1) -> "Cyclotomic":
        """zeta^power for the primitive order-th root zeta."""
        table = _power_table(order)
        return Cyclotomic(order, table[power % order])

    def _check(self, other: "Cyclotomic"):
        if self.order != other.order:
            raise ValueError("cyclotomic order mismatch")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        prod = poly_mul(self.coeffs, other.coeffs)
        return Cyclotomic(self.order, self._reduce(self.order, list(prod)))

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            raise ValueError("negative powers: use root(order, -k) for root monomials")
        result = Cyclotomic.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cyclotomic)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self == Cyclotomic.one(self.order)

    def conjugate(self) -> "Cyclotomic":
        """The ring map zeta -> zeta^{-1} (the reflection at a root of 1)."""
        table = _power_table(self.order)
        out = [0] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, t in enumerate(table[(-i) % self.order]):
                    out[j] += c * t
        return Cyclotomic(self.order, out)

    def multiplicative_order(self) -> int:
        """Smallest k >= 1 with self^k == 1; raises if none below 2*order."""
        acc = self
        for k in range(1, 2 * self.order + 1):
            if acc.is_one():
                return k
            acc = acc * self
        raise ValueError("element has no small multiplicative order (not a root of unity?)")

    def __repr__(self):
        return f"Cyclotomic(order={self.order}, coeffs={self.coeffs})"


def specialize(p: GroundElem, xi_order: int) -> Cyclotomic:
    """Evaluate an element of ``GroundRing(())`` at a root of unity of the
    given order.

    The half-step generator is sent to a primitive ``2*xi_order``-th
    root, so the quantum parameter itself lands on a primitive
    ``xi_order``-th root.  This is a ring homomorphism.
    """
    if xi_order < 1:
        raise ValueError("xi_order must be positive")
    if p.ring.symbols:
        raise ValueError("only elements without puncture symbols can be specialized")
    n = 2 * xi_order
    table = _power_table(n)
    deg = len(cyclotomic_poly(n)) - 1
    out = [0] * deg
    for (e,), c in p.terms.items():
        for j, t in enumerate(table[e % n]):
            out[j] += c * t
    return Cyclotomic(n, out)
