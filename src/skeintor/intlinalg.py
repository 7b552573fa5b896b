"""Small exact integer matrix utilities.

Hand-rolled Hermite and Smith normal forms with transformation
matrices, by the naive algorithms in Python integers.  The largest
matrices in this package are the Gram matrices of the coordinate span,
2r x 2r (20 x 20 at r = 10), whose Smith form the center lattices take
once per datum.  What each center lattice costs after that is one
Hermite normal form: the form is lower triangular, so callers read a
determinant off its diagonal instead of eliminating again (see
``arith.lattice_index``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)] if a else []


def hnf_columns(columns) -> list[list[int]]:
    """Canonical column Hermite normal form of the spanned lattice.

    The input is any iterable of column vectors, each copied once; the
    output is a list of column vectors.  The output basis is in column
    echelon form with positive pivots and the entries to the left of
    each pivot reduced into [0, pivot); it depends only on the spanned
    lattice, so it serves as the canonical representative.  Input that
    is already in this form comes back unchanged after one pass over the
    rows, with no elimination step.
    """
    cols = [list(c) for c in columns]
    if not cols:
        return []
    rows = len(cols[0])
    piv = 0
    for i in range(rows):
        while True:
            nz = [k for k in range(piv, len(cols)) if cols[k][i]]
            if not nz:
                break
            k = min(nz, key=lambda k: abs(cols[k][i]))
            cols[piv], cols[k] = cols[k], cols[piv]
            if len(nz) == 1:
                break
            for k in range(piv + 1, len(cols)):
                if cols[k][i]:
                    q = cols[k][i] // cols[piv][i]
                    for z in range(rows):
                        cols[k][z] -= q * cols[piv][z]
        if piv < len(cols) and cols[piv][i]:
            if cols[piv][i] < 0:
                cols[piv] = [-x for x in cols[piv]]
            p = cols[piv][i]
            for k in range(piv):
                q = cols[k][i] // p
                if q:
                    for z in range(rows):
                        cols[k][z] -= q * cols[piv][z]
            piv += 1
    return cols[:piv]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _zeroing(a: int, b: int) -> tuple[int, int, int, int]:
    """A unimodular (x, y, z, w) taking the pair (a, b), a != 0, to
    (x a + y b, z a + w b) = (g, 0) with g = +-gcd(a, b)."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, x, y = _xgcd(a, b)
    return x, y, b // g, -(a // g)


class _SnfState:
    """Workspace tracking S = U @ original @ V under unimodular 2 x 2
    operations on pairs of rows or of columns."""

    def __init__(self, mat: Matrix):
        self.rows = len(mat)
        self.cols = len(mat[0]) if mat else 0
        self.S = [row[:] for row in mat]
        self.U = identity(self.rows)
        self.V = identity(self.cols)

    def mix_rows(self, a, b, x, y, z, w):
        """Rows (a, b) of S and U become (x row_a + y row_b, z row_a + w row_b)."""
        for m in (self.S, self.U):
            ra, rb = m[a], m[b]
            m[a] = [x * p + y * q for p, q in zip(ra, rb)]
            m[b] = [z * p + w * q for p, q in zip(ra, rb)]

    def mix_cols(self, a, b, x, y, z, w):
        """Columns (a, b) of S and V become (x col_a + y col_b, z col_a + w col_b)."""
        for m in (self.S, self.V):
            for row in m:
                p, q = row[a], row[b]
                row[a] = x * p + y * q
                row[b] = z * p + w * q

    def diagonalize(self):
        """Make S diagonal with its nonzero entries first, all positive.

        Each pivot is the smallest entry left, and a whole row or column
        is cleared by Bezout steps, each leaving the gcd at the pivot, so
        the pivot only shrinks.  (Clearing by single Euclid steps with a
        row or column swap after each lets the remaining entries grow
        exponentially on dense matrices.)
        """
        S = self.S
        for t in range(min(self.rows, self.cols)):
            best = None
            for i in range(t, self.rows):
                for j in range(t, self.cols):
                    if S[i][j] and (best is None or abs(S[i][j]) < best[0]):
                        best = (abs(S[i][j]), i, j)
            if best is None:
                return
            _, i, j = best
            if i != t:
                self.mix_rows(t, i, 0, 1, 1, 0)
            if j != t:
                self.mix_cols(t, j, 0, 1, 1, 0)
            while True:
                for i in range(t + 1, self.rows):
                    if S[i][t]:
                        self.mix_rows(t, i, *_zeroing(S[t][t], S[i][t]))
                if not any(S[t][j] for j in range(t + 1, self.cols)):
                    break
                for j in range(t + 1, self.cols):
                    if S[t][j]:
                        self.mix_cols(t, j, *_zeroing(S[t][t], S[t][j]))
                if not any(S[i][t] for i in range(t + 1, self.rows)):
                    break
            if S[t][t] < 0:
                for m in (S, self.U):
                    m[t] = [-x for x in m[t]]

    def divisibility_chain(self):
        """Replace diagonal pairs (a, b) by (gcd, a b / gcd) until each
        diagonal entry divides the next."""
        S = self.S
        n = min(self.rows, self.cols)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = S[i][i], S[j][j]
                if a and b % a:
                    g, x, y = _xgcd(a, b)
                    self.mix_rows(i, j, 1, 0, x, 1)
                    self.mix_cols(i, j, 1, y, 0, 1)
                    self.mix_rows(i, j, 1, -(a // g), 0, 1)
                    self.mix_cols(i, j, 1, 0, -(b // g), 1)
                    self.mix_rows(i, j, 0, 1, -1, 0)


def snf(mat: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (S, U, V), S = U mat V.

    S is diagonal with each diagonal entry dividing the next; U and V
    are unimodular.
    """
    st = _SnfState(mat)
    st.diagonalize()
    st.divisibility_chain()
    return st.S, st.U, st.V


def smith_columns(mat: Matrix) -> tuple[list[int], Matrix]:
    """The Smith diagonal of ``mat``, padded with zeros to one entry per
    column, and the column transform V of ``snf``: the data
    ``congruence_kernel`` scales, which does not depend on the modulus."""
    S, _, V = snf(mat)
    return [S[i][i] if i < len(S) else 0 for i in range(len(V))], V


def kernel_columns(diag, columns, modulus: int) -> list[list[int]]:
    """Column i multiplied by modulus // gcd(diag[i], modulus): with the
    output of ``smith_columns`` (V's columns), a basis of the congruence
    kernel of the factored matrix modulo ``modulus``."""
    out = []
    for s, col in zip(diag, columns):
        mult = modulus // gcd(s, modulus)
        out.append([x * mult for x in col])
    return out


def congruence_kernel(mat: Matrix, modulus: int) -> list[list[int]]:
    """Basis (list of columns) of the lattice {x : mat @ x == 0 mod modulus}.

    Always full rank: the lattice contains modulus * Z^n.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if modulus == 1 or rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    diag, V = smith_columns(mat)
    return kernel_columns(diag, transpose(V), modulus)


def det_int(mat: Matrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_rational(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    """Solve a X = b exactly over the rationals (a square and invertible)."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_rational needs a square matrix and a right-hand side of its height")
    aug = [[Fraction(x) for x in a[i]] + [Fraction(x) for x in b[i]] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
