import itertools
import random

import pytest

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
from skeintor.intlinalg import (
    congruence_kernel,
    det_int,
    hnf_columns,
    mat_mul,
    snf,
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
                assert _lattice_member(basis, x) == good


def _lattice_member(basis: LatticeBasis, x) -> bool:
    x = list(x)
    for col in basis.columns:
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
                    if not _lattice_member(span, x):
                        continue
                    good = all(
                        tq.pairing(x, col) % n == 0 for col in span_cols
                    )
                    assert _lattice_member(ker, x) == good, (g, m, n, x)

