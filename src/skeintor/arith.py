"""Root-of-unity orders, Chebyshev polynomials, and the lattice
computations behind the center and PI-degree of the sliced algebra.

Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from operator import sub

from .intlinalg import (
    congruence_kernel,
    det_int,
    hnf_columns,
    identity,
    kernel_columns,
    mat_mul,
    smith_columns,
    solve_rational,
    transpose,
)
from .surface import DTDatum, q_matrix, surface_excluded, tilde_q


# ---------------------------------------------------------------------------
# orders attached to a root of unity


@dataclass(frozen=True)
class RootOfUnity:
    """A primitive root of unity of order ``n`` with its derived orders.

    ``n2`` is the order of the root itself, ``n1`` the order of its
    square, ``big_n`` the order of its fourth power.  The root raised to
    the square of ``big_n`` is a fourth root of unity epsilon: the root
    to the power ``epsilon_exponent``, named by ``epsilon_class``.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be a positive integer")

    @property
    def n2(self) -> int:
        return self.n

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


@dataclass(frozen=True)
class LatticeBasis:
    """A full-rank sublattice of Z^ambient given by ``ambient`` basis
    columns.  ``from_columns`` stores the canonical column Hermite normal
    form, so that equality of such bases is lattice equality.

    Each instance keeps, on first use, what is read off its columns:
    whether its matrix M is lower triangular, and then det M (the
    product of the diagonal); and the scaled inverse of M for
    ``lattice_index``.  Every ``from_columns`` basis is in Hermite form,
    hence lower triangular.
    """

    ambient: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cols = tuple(map(tuple, self.columns))
        if len(cols) != self.ambient or any(len(c) != self.ambient for c in cols):
            raise ValueError(f"a basis of Z^{self.ambient} needs {self.ambient} columns of that length")
        object.__setattr__(self, "columns", cols)

    @staticmethod
    def from_columns(ambient: int, columns) -> "LatticeBasis":
        cols = hnf_columns(columns)
        if len(cols) != ambient:
            raise ValueError("columns do not span a full-rank sublattice")
        return LatticeBasis(ambient, cols)

    def matrix(self) -> list[list[int]]:
        """Columns as a matrix (rows of the ambient space)."""
        return [list(row) for row in zip(*self.columns)]

    def scaled(self, k: int) -> "LatticeBasis":
        """The lattice k L in Hermite form.  The scaled columns are made
        as ``hnf_columns`` copies its input; on a basis in Hermite form
        they are already reduced, so the normal form eliminates nothing."""
        if k == 0:
            raise ValueError("scaling by zero collapses the lattice")
        return LatticeBasis.from_columns(self.ambient, ([k * x for x in col] for col in self.columns))

    @cached_property
    def _triangular_det(self) -> int | None:
        """det M for a lower triangular basis matrix M (column j zero
        above row j), the product of its diagonal; None for any other."""
        cols = self.columns
        if any(any(col[:j]) for j, col in enumerate(cols)):
            return None
        return prod(col[j] for j, col in enumerate(cols))

    @cached_property
    def _scaled_inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(d, d * M^-1)`` for the basis matrix M, d the least common
        denominator of M^-1: one rational solve per instance."""
        inv = solve_rational(self.matrix(), identity(self.ambient))
        d = lcm(*(v.denominator for row in inv for v in row))
        return d, tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in inv)


def lattice_index(sub: LatticeBasis, sup: LatticeBasis) -> int:
    """Index [sup : sub], that is |det X| for sup X = sub; raises
    ValueError when sub is not contained in sup.

    X is (d sup^-1) sub / d with the scaled inverse kept on ``sup``, so
    each call is one integer product and a divisibility test.  When both
    bases are lower triangular, as every ``from_columns`` basis is,
    det X = det sub / det sup is read off their diagonals; otherwise it
    is a Bareiss determinant of X.
    """
    if sub.ambient != sup.ambient:
        raise ValueError("ambient dimensions differ")
    d, inv = sup._scaled_inverse
    coords = mat_mul(inv, sub.matrix())
    if any(v % d for row in coords for v in row):
        raise ValueError("first lattice is not contained in the second")
    if sub._triangular_det is not None and sup._triangular_det is not None:
        idx = abs(sub._triangular_det // sup._triangular_det)
    else:
        idx = abs(det_int([[v // d for v in row] for row in coords]))
    if idx == 0:
        raise ValueError("degenerate sublattice")
    return idx


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
    S, columns of B V)`` for the coordinate span with basis matrix B and
    the Smith form S = U G V of its Gram matrix G = B^T Q~ B under the
    doubled form.  Built on first use and kept on the datum instance
    (next to its ``_tables``), so it lives as long as the datum does."""
    data = vars(datum).get("_center")
    if data is None:
        span = _span(datum)
        diag, v = smith_columns(_gram(datum, span))
        data = span, tuple(diag), tuple(zip(*mat_mul(span.matrix(), v)))
        vars(datum)["_center"] = data
    return data


def _span(datum: DTDatum) -> LatticeBasis:
    r = datum.r
    nblock = congruence_kernel(_parity_matrix(datum), 2)
    cols = [list(c) + [0] * r for c in nblock]
    for i in range(r):
        unit = [0] * (2 * r)
        unit[r + i] = 1
        cols.append(unit)
    return LatticeBasis.from_columns(2 * r, cols)


def lambda_hat(datum: DTDatum) -> LatticeBasis:
    """Integer span of the coordinate monoid: lengths obey the boundary
    parity condition at every face, twists are free.  Computed once per
    datum instance."""
    return _center_data(datum)[0]


def _gram(datum: DTDatum, basis: LatticeBasis) -> list[list[int]]:
    tq = tilde_q(q_matrix(datum))
    B = basis.matrix()
    return mat_mul(mat_mul(transpose(B), [list(row) for row in tq.rows]), B)


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
    _, smith, span_v = _center_data(datum)
    return LatticeBasis.from_columns(2 * datum.r, kernel_columns(smith, span_v, modulus))


def even_sublattice(datum: DTDatum) -> LatticeBasis:
    """The even part of the span: vectors pairing into 4Z against the span.

    Lattice form of the statement that even diagrams are those with even
    geometric intersection with every curve.  Built on first use and kept
    on the datum instance next to its center data.
    """
    even = vars(datum).get("_even")
    if even is None:
        even = vars(datum)["_even"] = kernel_lattice(datum, 4)
    return even


def kernel_target(root: RootOfUnity, span: LatticeBasis, even: LatticeBasis) -> LatticeBasis:
    """The kernel lattice the center theorem predicts at ``root``: the
    span scaled by the order of xi^4 when xi^2 has odd order, the even
    sublattice scaled by it otherwise."""
    return (span if root.n1 % 2 else even).scaled(root.big_n)

