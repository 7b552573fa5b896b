import dataclasses
import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeintor.arith import (
    LatticeBasis,
    RootOfUnity,
    chebyshev,
    even_sublattice,
    kernel_lattice,
    lambda_hat,
    lattice_index,
    pi_degree,
)
from skeintor.checks import grid_surfaces
from skeintor.intlinalg import (
    congruence_kernel,
    det_int,
    hnf_columns,
    mat_mul,
    snf,
    solve_rational,
    transpose,
)
from skeintor.surface import q_matrix, standard_datum, tilde_q

GRID_SURFACES = [(0, 4), (0, 5), (1, 2), (0, 6), (1, 3), (2, 0), (0, 7), (1, 4), (2, 1)]


class TestOrders:
    def test_examples(self):
        # (order of xi, of xi^2, of xi^4, epsilon class)
        for n, want in ((5, (5, 5, 5, "1")), (6, (6, 3, 3, "-1")), (4, (4, 2, 1, "i"))):
            root = RootOfUnity(n)
            assert (root.n2, root.n1, root.big_n, root.epsilon_class) == want

    def test_epsilon_classification(self):
        # epsilon is xi^e for e = epsilon_exponent, and xi has order n, so
        # its powers are decided by e modulo n
        for n in range(1, 80):
            root = RootOfUnity(n)
            e = root.epsilon_exponent
            assert 4 * e % n == 0
            cls = root.epsilon_class
            if cls == "1":
                assert e % n == 0
            elif cls == "-1":
                assert 2 * e % n == 0 and e % n
            else:
                assert 2 * e % n
                assert e == (n // 4 if cls == "i" else 3 * n // 4)
            # odd order of the square forces a real epsilon; the converse
            # fails at orders divisible by 8
            if root.n1 % 2 == 1:
                assert cls in ("1", "-1")
            assert (cls in ("i", "-i")) == (n % 8 == 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            RootOfUnity(0)


class TestChebyshev:
    def test_small(self):
        assert chebyshev(0) == (2,)
        assert chebyshev(1) == (0, 1)
        assert chebyshev(2) == (-2, 0, 1)
        assert chebyshev(3) == (0, -3, 0, 1)

    def test_threading(self):
        # T_N is monic of degree N
        assert chebyshev(5) == (0, 5, 0, -5, 0, 1)
        for n in range(1, 30):
            cs = chebyshev(n)
            assert len(cs) == n + 1 and cs[-1] == 1

    def test_recurrence_and_large_index(self):
        # T_k = z T_{k-1} - T_{k-2}, and a large index needs no recursion
        for k in range(2, 40):
            a, b = chebyshev(k - 2), chebyshev(k - 1)
            want = [0] + list(b)
            for i, c in enumerate(a):
                want[i] -= c
            assert chebyshev(k) == tuple(want)
        cs = chebyshev(3000)
        assert len(cs) == 3001 and cs[-1] == 1
        with pytest.raises(ValueError):
            chebyshev(-1)


class TestPiDegree:
    def test_examples(self):
        assert pi_degree(2, 0, RootOfUnity(5)) == 125
        assert pi_degree(1, 2, RootOfUnity(4)) == 2
        assert pi_degree(0, 4, RootOfUnity(6)) == 3

    def test_excluded(self):
        with pytest.raises(ValueError):
            pi_degree(1, 1, RootOfUnity(5))


class TestIntLinalg:
    def test_snf_properties(self):
        rng = random.Random(0)
        for _ in range(300):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            M = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            S, U, V = snf(M)
            assert mat_mul(mat_mul(U, M), V) == S
            assert abs(det_int(U)) == 1 and abs(det_int(V)) == 1
            diag = [S[i][i] for i in range(min(r, c))]
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert S[i][j] == 0
            for a, b in zip(diag, diag[1:]):
                if a:
                    assert b % a == 0
                else:
                    assert b == 0

    def test_hnf_canonical(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 4)
            cols = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
            h1 = hnf_columns(cols)
            alt = [c[:] for c in cols]
            rng.shuffle(alt)
            if len(alt) >= 2:
                q = rng.randint(-3, 3)
                for z in range(n):
                    alt[0][z] += q * alt[1][z]
            assert hnf_columns(alt) == h1

    def test_solve_rational_shapes(self):
        assert solve_rational([[2, 0], [0, 1]], [[1], [1]]) == [[Fraction(1, 2)], [1]]
        assert solve_rational([], []) == []
        # a non-square matrix, a right-hand side of the wrong height
        for a, b in [
            ([[1, 0, 0], [0, 1, 0]], [[1], [1]]),
            ([[1], [0]], [[1], [1]]),
            ([[1, 0], [0, 1]], [[1]]),
            ([[1, 0], [0, 1]], [[1], [1], [1]]),
        ]:
            with pytest.raises(ValueError):
                solve_rational(a, b)

    def test_congruence_kernel_brute_force(self):
        rng = random.Random(2)
        for _ in range(150):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            D = rng.choice([1, 2, 3, 4, 6, 8])
            M = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
            K = congruence_kernel(M, D)
            basis = LatticeBasis.from_columns(c, K)
            for col in K:
                for row in M:
                    assert sum(a * b for a, b in zip(row, col)) % D == 0
            for x in itertools.product(range(-D, D + 1), repeat=c):
                good = all(sum(a * b for a, b in zip(row, x)) % D == 0 for row in M)
                assert _lattice_member(basis.columns, x) == good


def _lattice_member(columns, x) -> bool:
    """Whether x is an integer combination of columns in column echelon form."""
    x = list(x)
    for col in columns:
        i = next(i for i, v in enumerate(col) if v)
        if x[i] % col[i]:
            return False
        q = x[i] // col[i]
        for z in range(len(x)):
            x[z] -= q * col[z]
    return not any(x)


class TestLattices:
    def test_lambda_hat_examples(self):
        d04 = standard_datum(0, 4)
        assert lambda_hat(d04).columns == ((2, 0), (0, 1))
        d20 = standard_datum(2, 0)
        span = lambda_hat(d20)
        # one parity condition on the three lengths, twists free
        assert abs(det_int(span.matrix())) == 2
        assert span.ambient == 6

    def test_index_examples(self):
        d04 = standard_datum(0, 4)
        span = lambda_hat(d04)
        assert lattice_index(span.scaled(3), span) == 9
        d20 = standard_datum(2, 0)
        assert lattice_index(kernel_lattice(d20, 4), lambda_hat(d20)) == 16

    def test_non_containment_raises(self):
        d04 = standard_datum(0, 4)
        span = lambda_hat(d04)
        whole = LatticeBasis.from_columns(2, [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            lattice_index(whole, span)

    def test_even_sublattice_examples(self):
        d04 = standard_datum(0, 4)
        assert even_sublattice(d04) == lambda_hat(d04)
        for g, m in GRID_SURFACES:
            datum = standard_datum(g, m)
            assert lattice_index(even_sublattice(datum), lambda_hat(datum)) == 4 ** g

    def test_even_sublattice_idempotent(self):
        for g, m in [(0, 4), (2, 0), (1, 2)]:
            datum = standard_datum(g, m)
            even = even_sublattice(datum)
            # restricting the congruence to the even lattice again changes nothing
            again = kernel_lattice(datum, 4)
            assert again == even

    def test_kernel_examples(self):
        d04 = standard_datum(0, 4)
        span = lambda_hat(d04)
        assert kernel_lattice(d04, 5) == span.scaled(5)
        assert kernel_lattice(d04, 1) == span
        assert lattice_index(kernel_lattice(d04, 3), span) == 9 == pi_degree(0, 4, RootOfUnity(3)) ** 2

    def test_kernel_matches_scaled_span_on_grid(self):
        for g, m in GRID_SURFACES:
            datum = standard_datum(g, m)
            span = lambda_hat(datum)
            even = even_sublattice(datum)
            for n in range(1, 13):
                root = RootOfUnity(n)
                ker = kernel_lattice(datum, n)
                target = span.scaled(root.big_n) if root.n1 % 2 else even.scaled(root.big_n)
                assert ker == target
                assert lattice_index(ker, span) == pi_degree(g, m, root) ** 2

    def test_kernel_brute_force_rank_two(self):
        # enumerate span members in a window and compare the membership
        # predicate against the normal-form basis, for both r = 1 and 2
        for (g, m) in [(0, 4), (0, 5), (1, 2)]:
            datum = standard_datum(g, m)
            span = lambda_hat(datum)
            tq = tilde_q(q_matrix(datum))
            span_cols = [list(c) for c in span.columns]
            for n in (3, 4, 6):
                ker = kernel_lattice(datum, n)
                window = 2 * n
                dim = 2 * datum.r
                rng = random.Random(42)
                pts = [
                    tuple(rng.randint(-window, window) for _ in range(dim)) for _ in range(400)
                ]
                for x in pts:
                    if not _lattice_member(span.columns, x):
                        continue
                    good = all(
                        tq.pairing(x, col) % n == 0 for col in span_cols
                    )
                    assert _lattice_member(ker.columns, x) == good, (g, m, n, x)



# ---------------------------------------------------------------------------
# reference path: the center lattices recomputed from scratch on every call


def _reference_span(datum) -> LatticeBasis:
    """Lengths with an even sum at every face, twists free."""
    r = datum.r
    parity = []
    for v, slots in enumerate(datum.slots):
        row = [0] * r
        for h in slots[: datum.face_type(v)]:
            row[datum.graph.he_curve[h]] += 1
        parity.append(row)
    cols = [list(c) + [0] * r for c in congruence_kernel(parity, 2)]
    cols += [[1 if k == r + i else 0 for k in range(2 * r)] for i in range(r)]
    return LatticeBasis.from_columns(2 * r, cols)


def _gram(datum, B) -> list[list[int]]:
    """B^T Q~ B for the doubled form Q~ of the datum."""
    tq = [list(row) for row in tilde_q(q_matrix(datum)).rows]
    return mat_mul(mat_mul(transpose(B), tq), B)


def _reference_kernel(datum, span: LatticeBasis, modulus: int) -> LatticeBasis:
    """Span vectors pairing into modulus * Z with the span: the congruence
    kernel of the Gram matrix, factored afresh, mapped back through B."""
    B = span.matrix()
    sol = congruence_kernel(_gram(datum, B), modulus)
    cols = [[sum(B[i][k] * c[k] for k in range(len(c))) for i in range(len(B))] for c in sol]
    return LatticeBasis.from_columns(len(B), cols)


def _reference_index(sub: LatticeBasis, sup: LatticeBasis) -> int:
    """|det X| for sup X = sub, by a rational solve; raises when X is not integral."""
    coords = solve_rational(sup.matrix(), sub.matrix())
    if any(v.denominator != 1 for row in coords for v in row):
        raise ValueError("not contained")
    return abs(det_int([[int(v) for v in row] for row in coords]))


class TestCenterReference:
    def test_grid_cold_and_warm(self):
        # every surface with r <= 6 at orders 1-24; "cold" is a fresh datum
        # per order, "warm" one datum reused across all orders
        for g, m in grid_surfaces(6):
            warm = standard_datum(g, m)
            span = _reference_span(warm)
            assert lambda_hat(warm) == span
            # the same lattice through a basis not in normal form
            cols = [list(c) for c in reversed(span.columns)]
            cols[0] = [a + 3 * b for a, b in zip(cols[0], cols[1])]
            loose = LatticeBasis(span.ambient, cols)
            assert loose != span
            for n in range(1, 25):
                ref = _reference_kernel(warm, span, n)
                index = _reference_index(ref, span)
                assert index == pi_degree(g, m, RootOfUnity(n)) ** 2
                for datum in (standard_datum(g, m), warm):
                    ker = kernel_lattice(datum, n)
                    assert ker == ref, (g, m, n)
                    assert lattice_index(ker, lambda_hat(datum)) == index
                assert lattice_index(ref, loose) == index
                if index > 1:
                    for sup in (ref, kernel_lattice(warm, n)):
                        with pytest.raises(ValueError, match="not contained"):
                            lattice_index(span, sup)
                        with pytest.raises(ValueError, match="not contained"):
                            lattice_index(loose, sup)
                else:
                    assert lattice_index(span, ref) == 1

    def test_direct_bases(self):
        # Z^2 against 2Z + Z, both built directly; then a lattice that meets
        # the span in a proper sublattice of both
        span = LatticeBasis(2, ((2, 0), (0, 1)))
        whole = LatticeBasis(2, ((1, 0), (0, 1)))
        skew = LatticeBasis(2, ((1, 1), (0, 2)))
        assert lattice_index(span, whole) == 2
        for sub, sup in ((whole, span), (skew, span), (span, skew)):
            with pytest.raises(ValueError, match="not contained"):
                lattice_index(sub, sup)
            with pytest.raises(ValueError):
                _reference_index(sub, sup)
        # inverse denominators 2 and 3, so the common one is 6 = lcm, not max
        mixed = LatticeBasis(2, ((2, 0), (0, 3)))
        six = LatticeBasis(2, ((6, 0), (0, 6)))
        assert lattice_index(six, mixed) == _reference_index(six, mixed) == 6
        odd = LatticeBasis(2, ((1, 0), (0, 6)))
        with pytest.raises(ValueError, match="not contained"):
            lattice_index(odd, mixed)
        with pytest.raises(ValueError):
            _reference_index(odd, mixed)

    def test_malformed_bases_rejected(self):
        with pytest.raises(ValueError):
            LatticeBasis(2, ((1, 0),))
        with pytest.raises(ValueError):
            LatticeBasis(2, ((1, 0), (0, 1, 0)))
        singular = LatticeBasis(2, ((1, 2), (2, 4)))
        with pytest.raises(ValueError):
            lattice_index(singular, LatticeBasis(2, ((1, 0), (0, 1))))
        with pytest.raises(ValueError):
            lattice_index(LatticeBasis(2, ((1, 0), (0, 1))), singular)


class TestCenterDefinition:
    def test_kernel_membership_is_the_pairing_condition(self):
        # the kernel lattice at the level of its definition: a span vector
        # k lies in kernel_lattice(datum, N) exactly when Q~(k, b) = 0 mod N
        # for every span basis column b.  Membership is an exact solve
        # against the kernel basis; the coefficients of k are multiples of
        # divisors of N, so that both answers come up often
        rng = random.Random(9)
        seen = {True: 0, False: 0}
        for g, m in grid_surfaces(6):
            datum = standard_datum(g, m)
            span = lambda_hat(datum)
            tq = tilde_q(q_matrix(datum))
            B = span.matrix()
            for n in range(1, 25):
                ker = kernel_lattice(datum, n).matrix()
                divisors = [d for d in range(1, n + 1) if n % d == 0]
                for _ in range(12):
                    c = [rng.choice(divisors) * rng.randint(-3, 3) for _ in range(span.ambient)]
                    k = [sum(a * x for a, x in zip(row, c)) for row in B]
                    member = all(v.denominator == 1 for (v,) in solve_rational(ker, [[x] for x in k]))
                    pairs = all(tq.pairing(k, b) % n == 0 for b in span.columns)
                    assert member == pairs, (g, m, n, k)
                    seen[member] += 1
        assert min(seen.values()) > 500, seen


# ---------------------------------------------------------------------------
# the index read off triangular bases, against the Bareiss determinant
# that directly built non-triangular bases take; scaling, against a normal
# form taken afresh

_entries = st.integers(-9, 9)


@st.composite
def _square(draw, n: int, triangular: bool, diagonal=_entries.filter(bool)) -> list[list[int]]:
    """Columns of an n x n matrix with entries in [-9, 9], lower
    triangular (column j zero above row j) on request."""
    cols = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if triangular:
        for j, col in enumerate(cols):
            col[:j] = [0] * j
            col[j] = draw(diagonal)
    return cols


def _times(a_cols, x_cols) -> list[list[int]]:
    """Columns of A X, from the columns of A and of X."""
    return [[sum(a[i] * c for a, c in zip(a_cols, x)) for i in range(len(a_cols))] for x in x_cols]


@st.composite
def _index_pairs(draw):
    """(sub, sup) with sub = sup X for an integer X, each of sup and X
    triangular or not, X possibly singular; sometimes one entry of sub
    is moved, which may take it off the lattice."""
    n = draw(st.integers(1, 5))
    sup = draw(_square(n, draw(st.booleans())))
    x = draw(_square(n, draw(st.booleans()), diagonal=_entries))
    sub = _times(sup, x)
    if draw(st.booleans()):
        sub[-1][-1] += 1
    return LatticeBasis(n, sub), LatticeBasis(n, sup)


@st.composite
def _triangular_bases(draw):
    """A directly built lower triangular basis, rarely in Hermite form."""
    n = draw(st.integers(1, 5))
    return LatticeBasis(n, draw(_square(n, True)))


class TestTriangularBases:
    @given(_index_pairs())
    @settings(max_examples=400, deadline=None)
    @example((LatticeBasis(2, ((2, 1), (0, 0))), LatticeBasis(2, ((1, 0), (0, 1)))))
    @example((LatticeBasis(2, ((-2, 0), (0, 3))), LatticeBasis(2, ((1, 0), (0, -1)))))
    @example((LatticeBasis(2, ((4, 0), (0, 4))), LatticeBasis(2, ((2, 1), (0, 2)))))
    def test_index_against_reference(self, pair):
        sub, sup = pair
        try:
            want = _reference_index(sub, sup)
        except ValueError as exc:
            with pytest.raises(ValueError, match="singular" if "singular" in str(exc) else "not contained"):
                lattice_index(sub, sup)
            return
        if want == 0:
            with pytest.raises(ValueError, match="degenerate sublattice"):
                lattice_index(sub, sup)
        else:
            assert lattice_index(sub, sup) == want

    def test_index_edge_cases(self):
        whole = LatticeBasis(2, ((1, 0), (0, 1)))
        # a zero on the diagonal of a contained triangular basis
        flat = LatticeBasis(2, ((2, 1), (0, 0)))
        assert flat._triangular_det == 0
        with pytest.raises(ValueError, match="degenerate sublattice"):
            lattice_index(flat, whole)
        # a singular larger lattice, triangular or not
        for singular in (flat, LatticeBasis(2, ((0, 0), (1, 1))), LatticeBasis(2, ((1, 2), (2, 4)))):
            with pytest.raises(ValueError, match="singular"):
                lattice_index(whole, singular)
        # negative diagonals: the index is |det X|
        neg = LatticeBasis(2, ((-2, 0), (0, 3)))
        flip = LatticeBasis(2, ((1, 0), (0, -1)))
        assert neg._triangular_det == -6 and flip._triangular_det == -1
        assert lattice_index(neg, flip) == lattice_index(neg, whole) == _reference_index(neg, flip) == 6
        assert lattice_index(whole, flip) == lattice_index(flip, whole) == 1

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_scaled_against_from_columns(self, data):
        triangular = data.draw(_triangular_bases())
        n = triangular.ambient
        hermite = LatticeBasis.from_columns(n, triangular.columns)
        for k in (*range(-9, 0), *range(1, 10)):
            for basis in (hermite, triangular):
                want = LatticeBasis.from_columns(n, [[k * x for x in col] for col in basis.columns])
                assert basis.scaled(k) == want
            # |k| times a Hermite basis is the Hermite form of k L
            assert hermite.scaled(k).columns == tuple(tuple(abs(k) * x for x in c) for c in hermite.columns)

    def test_scaled_examples(self):
        cases = (
            ((2, 1), (0, 2)),
            ((1, 0, 0), (0, 3, 2), (0, 0, 5)),
            ((1, 5), (0, 2)),  # 5 left of the pivot 2
            ((2, 2), (0, 2)),  # equal to the pivot
            ((2, -1), (0, 2)),  # negative
            ((-1, 0), (0, 1)),  # negative pivot
            ((1, 1), (1, 2)),  # not triangular
        )
        for cols in cases:
            basis = LatticeBasis(len(cols), cols)
            hermite = LatticeBasis.from_columns(basis.ambient, cols)
            assert (hermite == basis) == (cols in cases[:2])
            for k in (-9, -2, -1, 1, 3, 9):
                want = LatticeBasis.from_columns(basis.ambient, [[k * x for x in c] for c in cols])
                assert basis.scaled(k) == hermite.scaled(k) == want
                assert want.columns == tuple(tuple(abs(k) * x for x in c) for c in hermite.columns)


class TestCachedLatticeData:
    def test_caller_cannot_change_later_results(self):
        datum = standard_datum(1, 3)
        span = lambda_hat(datum)
        ker = kernel_lattice(datum, 6)
        index = lattice_index(ker, span)
        # what a caller can reach: the matrix lists, the columns, the
        # cached scaled inverse
        mat = span.matrix()
        mat[0][0] += 5
        mat.reverse()
        with pytest.raises(dataclasses.FrozenInstanceError):
            span.columns = ((1,) * span.ambient,) * span.ambient
        with pytest.raises(TypeError):
            span.columns[0][0] = 7
        d, inv = span._scaled_inverse
        with pytest.raises(TypeError):
            inv[0][0] = d + 1
        # a basis built from lists the caller still holds
        cols = [list(c) for c in span.columns]
        loose = LatticeBasis(span.ambient, cols)
        assert lattice_index(ker, loose) == index
        cols[0][0] += 1
        cols.reverse()
        assert lattice_index(ker, loose) == index
        assert lambda_hat(datum) == span == loose
        assert kernel_lattice(datum, 6) == ker
        assert lattice_index(kernel_lattice(datum, 6), lambda_hat(datum)) == index

    def test_even_sublattice_built_once(self, monkeypatch):
        import skeintor.arith as arith

        calls = []
        real = arith.hnf_columns
        monkeypatch.setattr(arith, "hnf_columns", lambda cols: calls.append(1) or real(cols))
        datum = standard_datum(1, 3)
        even = even_sublattice(datum)
        built = len(calls)
        assert all(even_sublattice(datum) is even for _ in range(5))
        assert len(calls) == built
        assert even == kernel_lattice(datum, 4)

    def test_kept_on_the_datum(self):
        datum = standard_datum(0, 6)
        span = lambda_hat(datum)
        assert lambda_hat(datum) is span
        lattice_index(kernel_lattice(datum, 5), span)
        # nothing outside the datum holds on to it
        ref = weakref.ref(datum)
        del datum
        gc.collect()
        assert ref() is None


# ---------------------------------------------------------------------------
# cross-check of the integer linear algebra against sympy


def _random_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Entries in [-9, 9]; every third matrix gets a row that is a
    combination of two others, so rank deficiency is covered."""
    mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 1 / 3:
        a, b = rng.sample(range(1, rows), 2)
        k = rng.randint(-3, 3)
        mat[0] = [x + k * y for x, y in zip(mat[a], mat[b])]
    return mat


def _random_matrices(seed: int):
    rng = random.Random(seed)
    for n in range(1, 21):
        yield _random_matrix(rng, n, n)
        yield _random_matrix(rng, n, rng.randint(1, 20))
    for _ in range(3):
        yield _random_matrix(rng, 20, 20)


def _gram_matrices():
    for g, m in grid_surfaces(10):
        datum = standard_datum(g, m)
        yield _gram(datum, lambda_hat(datum).matrix())


class TestSympyCrossCheck:
    def test_snf_diagonal(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        for mat in itertools.chain(_random_matrices(11), _gram_matrices()):
            S, U, V = snf(mat)
            assert mat_mul(mat_mul(U, mat), V) == S
            n = min(len(mat), len(mat[0]))
            want = smith_normal_form(sympy.Matrix(mat), domain=sympy.ZZ)
            assert [S[i][i] for i in range(n)] == [int(want[i, i]) for i in range(n)]

    def test_det(self):
        sympy = pytest.importorskip("sympy")
        for mat in itertools.chain(_random_matrices(12), _gram_matrices()):
            if len(mat) == len(mat[0]):
                assert det_int(mat) == sympy.Matrix(mat).det()

    def test_hnf_lattice(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form

        for mat in _random_matrices(13):
            ours = hnf_columns(transpose(mat))
            theirs = hermite_normal_form(sympy.Matrix(mat))
            # their columns lie in our lattice, and the two have the same
            # rank and covolume, so the lattices are equal
            assert theirs.shape[1] == len(ours)
            for j in range(theirs.shape[1]):
                assert _lattice_member(ours, [int(x) for x in theirs.col(j)])
            K = sympy.Matrix(ours).T
            assert (K.T * K).det() == (theirs.T * theirs).det()
