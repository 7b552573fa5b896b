"""Root-of-unity orders, Chebyshev polynomials, and the lattice
computations behind the center and PI-degree of the sliced algebra.

Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm, prod
from operator import sub
from typing import NamedTuple

from .intlinalg import (
    congruence_kernel,
    hnf_columns,
    identity,
    kernel_columns,
    mat_mul,
    smith_columns,
    solve_rational,
    transpose,
)
from .ring import _checked_make, _no_rebinding
from .surface import DTDatum, surface_excluded, surface_torus


# ---------------------------------------------------------------------------
# orders attached to a root of unity


class _RootOfUnityFields(NamedTuple):
    n: int


class RootOfUnity(_RootOfUnityFields):
    """A primitive root of unity of order ``n`` with its derived orders.

    ``n`` is the order of the root itself, ``n1`` the order of its
    square, ``big_n`` the order of its fourth power.  The root raised to
    the square of ``big_n`` is a fourth root of unity epsilon: the root
    to the power ``epsilon_exponent``, named by ``epsilon_class``.
    """

    __slots__ = ()

    def __new__(cls, n):
        if type(n) is not int or n < 1:
            raise ValueError("order must be a positive integer")
        return tuple.__new__(cls, (n,))

    _make = _checked_make

    @property
    def n1(self) -> int:
        return self.n // gcd(self.n, 2)

    @property
    def big_n(self) -> int:
        return self.n // gcd(self.n, 4)

    @property
    def epsilon_exponent(self) -> int:
        return (self.big_n * self.big_n) % self.n

    @property
    def epsilon_class(self) -> str:
        e = self.epsilon_exponent
        if e == 0:
            return "1"
        if (2 * e) % self.n == 0:
            return "-1"
        return "i" if e == self.n // 4 else "-i"


# ---------------------------------------------------------------------------
# Chebyshev polynomials of the first kind


def chebyshev(k: int) -> tuple[int, ...]:
    """Dense coefficients (constant term first) of T_k.

    T_0 = 2, T_1 = z, T_k = z T_{k-1} - T_{k-2}; equivalently the
    polynomial with T_k(x + 1/x) = x^k + x^{-k}.  Built iteratively
    from T_{-1} = T_1, which keeps the recurrence valid at k = 1.
    """
    if k < 0:
        raise ValueError("index must be non-negative")
    prev, cur = (0, 1), (2,)
    for _ in range(k):
        prev, cur = cur, tuple(map(sub, (0,) + cur, prev + (0, 0)))
    return cur


# ---------------------------------------------------------------------------
# PI-degree


def pi_degree(g: int, m: int, xi: RootOfUnity) -> int:
    """PI-degree of the sliced algebra of the (g, m) surface at xi."""
    if surface_excluded(g, m):
        raise ValueError(f"excluded surface (g, m) = ({g}, {m})")
    r = 3 * g - 3 + m
    base = xi.big_n ** r
    return base if xi.n1 % 2 else (2 ** g) * base


# ---------------------------------------------------------------------------
# lattices


def _of_shape(n: int, columns):
    """The columns, checked to be n columns of length n as
    ``hnf_columns`` copies them, before it eliminates.  Lazy columns,
    such as those of ``LatticeBasis.scaled``, are then made inside the
    normal form, where the per-layer benchmark counts them."""
    count = 0
    for count, col in enumerate(columns, 1):
        if len(col) != n:
            break
        yield col
    else:
        if count == n:
            return
    raise ValueError(f"a basis of Z^{n} needs {n} columns of that length")


class _LatticeBasisFields(NamedTuple):
    ambient: int
    columns: tuple[tuple[int, ...], ...]


class LatticeBasis(_LatticeBasisFields):
    """A full-rank sublattice of Z^ambient.  The constructor takes
    ``ambient`` columns of that length and keeps the column Hermite
    normal form of the lattice they span, its canonical basis (Cohen,
    GTM 138, 2.4.2): equality of bases is lattice equality, and the
    basis matrix M is lower triangular with a positive diagonal.

    Each instance keeps, on first use, what is read off its columns:
    det M, the product of the diagonal, and the scaled inverse of M for
    ``lattice_index``.
    """

    def __new__(cls, ambient, columns):
        cols = hnf_columns(_of_shape(ambient, columns))
        if len(cols) != ambient:
            raise ValueError("columns do not span a full-rank sublattice")
        return tuple.__new__(cls, (ambient, tuple(map(tuple, cols))))

    __setattr__ = __delattr__ = _no_rebinding
    _make = _checked_make

    def matrix(self) -> list[list[int]]:
        """Columns as a matrix (rows of the ambient space)."""
        return [list(row) for row in zip(*self.columns)]

    def scaled(self, k: int) -> "LatticeBasis":
        """The lattice k L.  The scaled columns are made as ``hnf_columns``
        copies its input; they are already reduced, so the normal form
        eliminates nothing."""
        if k == 0:
            raise ValueError("scaling by zero collapses the lattice")
        return LatticeBasis(self.ambient, ([k * x for x in col] for col in self.columns))

    @cached_property
    def _det(self) -> int:
        """det M, the product of the diagonal."""
        return prod(col[j] for j, col in enumerate(self.columns))

    @cached_property
    def _scaled_inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(d, d * M^-1)`` for the basis matrix M, d the least common
        denominator of M^-1: one rational solve per instance."""
        inv = solve_rational(self.matrix(), identity(self.ambient))
        d = lcm(*(v.denominator for row in inv for v in row))
        return d, tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in inv)


def lattice_index(sub: LatticeBasis, sup: LatticeBasis) -> int:
    """Index [sup : sub]; raises ValueError when sub is not contained in
    sup.

    Containment is one integer product with the scaled inverse kept on
    ``sup`` and a divisibility test.  Both matrices are lower triangular,
    so the index det sub / det sup is read off their diagonals.
    """
    if sub.ambient != sup.ambient:
        raise ValueError("ambient dimensions differ")
    d, inv = sup._scaled_inverse
    if any(v % d for row in mat_mul(inv, sub.matrix()) for v in row):
        raise ValueError("first lattice is not contained in the second")
    return sub._det // sup._det


def _parity_matrix(datum: DTDatum) -> list[list[int]]:
    rows = []
    for curves in datum._tables.face_curves:
        row = [0] * datum.r
        for c in curves:
            row[c] += 1
        rows.append(row)
    return rows


def _center_data(datum: DTDatum) -> tuple:
    """What the center lattices of one datum share: ``(span, diagonal of
    S, columns of B V, their order-4 kernel)`` for the coordinate span
    with basis matrix B and the Smith form S = U G V of its Gram matrix
    G = B^T Q~ B under the doubled form.  Built on first use and kept on
    the datum instance (next to its ``_tables``), so it lives as long as
    the datum does."""
    data = vars(datum).get("_center")
    if data is None:
        span = _span(datum)
        diag, v = smith_columns(_gram(datum, span))
        smith, span_v = tuple(diag), tuple(zip(*mat_mul(span.matrix(), v)))
        even = LatticeBasis(2 * datum.r, kernel_columns(smith, span_v, 4))
        data = vars(datum)["_center"] = span, smith, span_v, even
    return data


def _span(datum: DTDatum) -> LatticeBasis:
    r = datum.r
    nblock = congruence_kernel(_parity_matrix(datum), 2)
    cols = [list(c) + [0] * r for c in nblock]
    for i in range(r):
        unit = [0] * (2 * r)
        unit[r + i] = 1
        cols.append(unit)
    return LatticeBasis(2 * r, cols)


def lambda_hat(datum: DTDatum) -> LatticeBasis:
    """Integer span of the coordinate monoid: lengths obey the boundary
    parity condition at every face, twists are free.  Computed once per
    datum instance."""
    return _center_data(datum)[0]


def _gram(datum: DTDatum, basis: LatticeBasis) -> list[list[int]]:
    B = basis.matrix()
    return mat_mul(mat_mul(transpose(B), [list(row) for row in surface_torus(datum).matrix.rows]), B)


def kernel_lattice(datum: DTDatum, modulus: int) -> LatticeBasis:
    """Vectors of the coordinate span pairing into modulus * Z against
    the whole span, under the doubled form.

    With the datum's Smith data (S = U G V for the Gram matrix G of the
    span basis B), this is the lattice spanned by the columns of B V,
    column i scaled by modulus // gcd(S_ii, modulus): one Hermite normal
    form per call, as the Smith form does not depend on the modulus.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    _, smith, span_v, _ = _center_data(datum)
    return LatticeBasis(2 * datum.r, kernel_columns(smith, span_v, modulus))


def even_sublattice(datum: DTDatum) -> LatticeBasis:
    """The even part of the span: vectors pairing into 4Z against the span.

    Lattice form of the statement that even diagrams are those with even
    geometric intersection with every curve.  Kept with the datum's
    center data, so each call is a read.
    """
    return _center_data(datum)[3]


def kernel_target(datum: DTDatum, root: RootOfUnity) -> LatticeBasis:
    """The kernel lattice the center theorem predicts at ``root``, from
    the datum's center data: the span scaled by the order of xi^4 when
    xi^2 has odd order, the even sublattice scaled by it otherwise."""
    span, _, _, even = _center_data(datum)
    return (span if root.n1 % 2 else even).scaled(root.big_n)

