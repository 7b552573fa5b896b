import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skeintor import qtrace
from skeintor.pants import decompose, lambda_contains
from skeintor.qtorus import (
    AntisymMatrix,
    QuantumTorus,
    _q_monomial_mul,
    elem_mul,
    lead_term,
    reflection_normalize,
    weyl_normalize,
)
from skeintor.ring import GroundElem, GroundRing
from skeintor.surface import phi_value, standard_datum

import test_surface


def mono_mul(torus, a, b):
    """Product of two normalized monomials: the normalized monomial at
    ``a + b`` scaled by the quantum parameter to the half-pairing.  The
    reference the elem_mul tests compare against."""
    a = tuple(a)
    b = tuple(b)
    p = torus.matrix.pairing(a, b)
    exps = tuple(x + y for x, y in zip(a, b))
    return torus.monomial(exps, torus.ring.q_half(p))


def random_torus(rng, n, bound=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = -v
    return QuantumTorus(AntisymMatrix(tuple(tuple(r) for r in rows)))


def random_element(rng, torus, terms=3, bound=3):
    e = torus.zero()
    for _ in range(rng.randint(1, terms)):
        k = tuple(rng.randint(-bound, bound) for _ in range(torus.rank))
        e = e + torus.monomial(k, torus.ring.q_half(rng.randint(-3, 3)))
    return e


class TestPairing:
    def test_examples(self):
        q = AntisymMatrix(((0, 2), (-2, 0)))
        assert q.pairing((2, 0), (0, 1)) == 4
        assert q.pairing((1, 1), (1, 1)) == 0
        assert AntisymMatrix(((0, 1), (-1, 0))).pairing((1, 0), (0, 1)) == 1

    def test_dimension_mismatch(self):
        q = AntisymMatrix(((0, 1), (-1, 0)))
        with pytest.raises(ValueError):
            q.pairing((1, 0, 0), (0, 1))

    def test_antisymmetry_enforced(self):
        with pytest.raises(ValueError):
            AntisymMatrix(((0, 1), (1, 0)))

    def test_bilinear_antisymmetric(self):
        rng = random.Random(0)
        for _ in range(200):
            t = random_torus(rng, rng.randint(1, 5))
            q = t.matrix
            a = tuple(rng.randint(-4, 4) for _ in range(q.dim))
            b = tuple(rng.randint(-4, 4) for _ in range(q.dim))
            c = tuple(rng.randint(-4, 4) for _ in range(q.dim))
            ab = tuple(x + y for x, y in zip(a, b))
            assert q.pairing(ab, c) == q.pairing(a, c) + q.pairing(b, c)
            assert q.pairing(a, b) == -q.pairing(b, a)


@st.composite
def matrix_and_vectors(draw):
    """An antisymmetric matrix of dimension 1-10 and two vectors, zero
    vectors and zero entries drawn often."""
    n = draw(st.integers(min_value=1, max_value=10))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-5, 5))
            rows[j][i] = -rows[i][j]
    vector = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-4, 4)] * n))
    return AntisymMatrix(tuple(map(tuple, rows))), draw(vector), draw(vector)


class TestPairingReference:
    """``pairing`` against the double sum over every entry of the matrix."""

    @given(matrix_and_vectors())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_double_sum(self, case):
        q, k, l = case
        n = q.dim
        want = sum(q.rows[i][j] * k[i] * l[j] for i in range(n) for j in range(n))
        assert q.pairing(k, l) == want
        assert q.pairing(list(k), list(l)) == want

    def test_reads_the_rows_not_the_columns(self):
        # on an antisymmetric matrix the transpose flips the sign
        q = AntisymMatrix(((0, 3, 0), (-3, 0, 1), (0, -1, 0)))
        assert q.pairing((1, 0, 0), (0, 1, 0)) == 3
        assert q.pairing((0, 2, 0), (0, 0, 5)) == 10
        assert q.pairing((1, 1, 1), (1, -1, 2)) == -3 + (-3 + 2) + 1

    @pytest.mark.parametrize("k, l", [((1, 0, 0), (0, 1)), ((1, 0), (0, 1, 0)), ((0, 0), (0,))])
    def test_wrong_length_raises(self, k, l):
        with pytest.raises(ValueError, match="matrix dimension"):
            AntisymMatrix(((0, 1), (-1, 0))).pairing(k, l)

    @given(matrix_and_vectors(), st.integers(-2, 2).filter(bool), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_any_wrong_length_raises(self, case, extra, left):
        # a vector one or two entries off, on either side, even a zero one
        q, k, l = case
        bad = (k + (0,) * extra) if extra > 0 else k[:extra]
        with pytest.raises(ValueError, match="matrix dimension"):
            q.pairing(bad, l) if left else q.pairing(l, bad)


def entries(n, bound=3):
    return st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def antisymmetric_rows(draw):
    """Rows of an antisymmetric matrix of dimension 0-10, as lists."""
    n = draw(st.integers(min_value=0, max_value=10))
    rows = draw(entries(n))
    for i in range(n):
        rows[i][i] = 0
        for j in range(i):
            rows[i][j] = -rows[j][i]
    return rows


class TestAntisymValidator:
    """The constructor accepts exactly the square antisymmetric matrices,
    given as any sequences of rows."""

    @given(antisymmetric_rows())
    @settings(max_examples=200, deadline=None)
    def test_accepts_antisymmetric_rows(self, rows):
        for given_rows in (rows, tuple(map(tuple, rows))):
            assert AntisymMatrix(given_rows).dim == len(rows)

    @given(st.integers(1, 6).flatmap(entries))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_entrywise_rule(self, rows):
        n = len(rows)
        antisymmetric = all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(n))
        if antisymmetric:
            AntisymMatrix(rows)
        else:
            with pytest.raises(ValueError, match="antisymmetric"):
                AntisymMatrix(rows)

    @given(antisymmetric_rows().filter(len), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rejects_a_ragged_row(self, rows, data):
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i] + [0] if data.draw(st.booleans()) or not rows[i] else rows[i][:-1]
        with pytest.raises(ValueError, match="square"):
            AntisymMatrix(rows)

    @given(antisymmetric_rows().filter(len), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rejects_a_nonzero_diagonal_entry(self, rows, data):
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i][i] = data.draw(st.integers(-3, 3).filter(bool))
        with pytest.raises(ValueError, match="antisymmetric"):
            AntisymMatrix(rows)

    @given(antisymmetric_rows().filter(lambda rows: len(rows) > 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rejects_a_broken_pair(self, rows, data):
        # one entry of an off-diagonal pair changed, the other kept
        i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        rows[i][j] += data.draw(st.integers(-3, 3).filter(bool))
        with pytest.raises(ValueError, match="antisymmetric"):
            AntisymMatrix(rows)

    def test_examples(self):
        AntisymMatrix(())
        AntisymMatrix([[0, 2], [-2, 0]])
        with pytest.raises(ValueError, match="square"):
            AntisymMatrix(((0, 1), (-1,)))
        with pytest.raises(ValueError, match="square"):
            AntisymMatrix(((0, 1, 0), (-1, 0, 0)))
        with pytest.raises(ValueError, match="antisymmetric"):
            AntisymMatrix(((1,),))
        with pytest.raises(ValueError, match="antisymmetric"):
            AntisymMatrix(((0, 1), (1, 0)))
        # the first row and column agree; only the pair (1, 2) is broken
        with pytest.raises(ValueError, match="antisymmetric"):
            AntisymMatrix(((0, 1, 2), (-1, 0, 3), (-2, 3, 0)))

    def test_copies_the_given_rows(self):
        # a caller's later change to its lists does not reach the matrix,
        # which equals and hashes like the one built from tuples
        rows = [[0, 1], [-1, 0]]
        M = AntisymMatrix(rows)
        rows[0][1] = 5
        rows[1][0] = -5
        rows.append([0, 0])
        built = AntisymMatrix(((0, 1), (-1, 0)))
        assert M.pairing((1, 0), (0, 1)) == 1 and M.dim == 2
        assert M == built and hash(M) == hash(built) and M.rows == ((0, 1), (-1, 0))
        assert {M: 1}[built] == 1 and hash(QuantumTorus(M)) == hash(QuantumTorus(built))

    def test_rejects_non_integer_entries(self):
        # q-exponents are integral half-steps: a half-integer entry would
        # put a non-integer key into a product's coefficients
        for rows in (((0, 0.5), (-0.5, 0)), ((0, 1), (-1.0, 0)), ((0.0,),), ((False,),),
                     ((0, True), (-1, 0)), ((0, 2, 0), (-2, 0, 1), (0, -1.0, 0))):
            with pytest.raises(ValueError, match="^matrix entries must be integers$"):
                AntisymMatrix(rows)


class TestMonoMul:
    def test_u_times_x(self):
        # one-holed pants torus: u x = q^2 x u in exponent order (x, u)
        t = QuantumTorus(AntisymMatrix(((0, -2), (2, 0))))
        e = mono_mul(t, (0, 1), (1, 0))
        (k, c), = e.terms.items()
        assert k == (1, 1)
        assert c == t.ring.q_half(2)

    def test_identity_and_inverse(self):
        t = QuantumTorus(AntisymMatrix(((0, 1), (-1, 0))))
        assert mono_mul(t, (0, 0), (3, -2)) == t.monomial((3, -2))
        assert mono_mul(t, (3, -2), (-3, 2)) == t.one()

    def test_eq_prod_randomized(self):
        rng = random.Random(1)
        for _ in range(500):
            t = random_torus(rng, rng.randint(1, 5))
            a = tuple(rng.randint(-5, 5) for _ in range(t.rank))
            b = tuple(rng.randint(-5, 5) for _ in range(t.rank))
            prod = mono_mul(t, a, b)
            (k, c), = prod.terms.items()
            assert k == tuple(x + y for x, y in zip(a, b))
            assert c == t.ring.q_half(t.matrix.pairing(a, b))


class TestElemMul:
    def test_distributes(self):
        t = QuantumTorus(AntisymMatrix(((0, 1), (-1, 0))))
        k, l = (2, 1), (0, 3)
        e = elem_mul(t.monomial(k), t.one() + t.monomial(l))
        assert e == t.monomial(k) + mono_mul(t, k, l)

    def test_self_commuting_square(self):
        t = QuantumTorus(AntisymMatrix(((0,),)))
        u = t.monomial((1,)) + t.monomial((-1,))
        sq = elem_mul(u, u)
        two = t.ring.one() + t.ring.one()
        assert sq == t.monomial((2,)) + t.one().scale(two) + t.monomial((-2,))

    def test_associative(self):
        rng = random.Random(2)
        for _ in range(150):
            t = random_torus(rng, 3)
            a, b, c = (random_element(rng, t) for _ in range(3))
            assert elem_mul(elem_mul(a, b), c) == elem_mul(a, elem_mul(b, c))

    def test_matrix_mismatch(self):
        t1 = QuantumTorus(AntisymMatrix(((0, 1), (-1, 0))))
        t2 = QuantumTorus(AntisymMatrix(((0, 2), (-2, 0))))
        with pytest.raises(ValueError):
            elem_mul(t1.one(), t2.one())

    def test_ring_mismatch(self):
        # equal matrices, different ground rings: the coefficient keys
        # of the two tori have different lengths and must not mix
        m = AntisymMatrix(((0, 1), (-1, 0)))
        a, b = QuantumTorus(m, GroundRing(("b",))), QuantumTorus(m)
        x, y = a.monomial((1, 0), a.ring.var("b")), b.monomial((0, 1))
        for first, second in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="different quantum tori"):
                elem_mul(first, second)
            with pytest.raises(ValueError, match="different quantum tori"):
                first + second
        # equal tori built apart still mix
        again = QuantumTorus(AntisymMatrix(((0, 1), (-1, 0))), GroundRing(("b",)))
        assert elem_mul(x, again.monomial((0, 1))) == elem_mul(x, a.monomial((0, 1)))


# two puncture symbols, so coefficients have several terms
SYM = GroundRing(("v1", "v2"))

# narrow ranges make exponents and coefficient keys collide and cancel
sym_coeffs = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-3, 3)),
    st.integers(-3, 3),
    max_size=3,
).map(lambda terms: GroundElem(SYM, terms))


@st.composite
def torus_and_pair(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-3, 3))
            rows[j][i] = -rows[i][j]
    t = QuantumTorus(AntisymMatrix(tuple(tuple(r) for r in rows)), SYM)
    exps = st.tuples(*[st.integers(-1, 1)] * n)
    element = st.dictionaries(exps, sym_coeffs, max_size=4).map(
        lambda terms: sum((t.monomial(k, c) for k, c in terms.items()), t.zero())
    )
    return t, draw(element), draw(element)


def reference_mul(t, a, b):
    """The product one term pair at a time, through mono_mul."""
    out = t.zero()
    for k, c in a.terms.items():
        for l, d in b.terms.items():
            out = out + mono_mul(t, k, l).scale(c * d)
    return out


class TestElemMulReference:
    @given(torus_and_pair())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_pair_reference(self, case):
        t, a, b = case
        prod = elem_mul(a, b)
        assert prod == reference_mul(t, a, b)
        assert all(prod.terms.values())

    def test_cancelling_terms_are_dropped(self):
        # X Y = q^{p/2} [XY] and Y X = q^{-p/2} [XY], so in
        # (X + Y)(X - q^{-p} Y) = X^2 - q^{-p} Y^2 the two XY terms cancel
        t = QuantumTorus(AntisymMatrix(((0, 2), (-2, 0))), SYM)
        p = t.matrix.pairing((1, 0), (0, 1))
        v1 = SYM.var("v1")
        a = t.monomial((1, 0), v1) + t.monomial((0, 1), v1)
        b = t.monomial((1, 0)) + t.monomial((0, 1), SYM.monomial((0, 0), -2 * p, -1))
        prod = elem_mul(a, b)
        assert (1, 1) not in prod.terms
        assert prod == reference_mul(t, a, b)
        assert prod == t.monomial((2, 0), v1) + t.monomial((0, 2), SYM.monomial((1, 0), -2 * p, -1))
        # a coefficient whose symbol terms cancel leaves the other terms alone
        c = t.monomial((1, 0), v1 + SYM.one())
        d = t.monomial((0, 0), SYM.one()) + t.monomial((0, 0), SYM.monomial((1, 0), 0, -1))
        assert elem_mul(c, d) == reference_mul(t, c, d) == t.monomial((1, 0), SYM.one() + SYM.monomial((2, 0), 0, -1))


class TestTranslate:
    """``translate`` against adding the vector entry by entry."""

    @given(torus_and_pair(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_entrywise_sum(self, case, data):
        t, a, _ = case
        v = data.draw(st.one_of(st.just((0,) * t.rank), st.tuples(*[st.integers(-4, 4)] * t.rank)))
        shifted = a.translate(v)
        want = {tuple(x + y for x, y in zip(k, v)): c for k, c in a.terms.items()}
        assert dict(shifted.terms) == want
        assert list(shifted.terms) == list(want)
        assert shifted.translate([-x for x in v]) == a

    @given(torus_and_pair())
    @settings(max_examples=50, deadline=None)
    def test_zero_vector_returns_the_element(self, case):
        t, a, _ = case
        assert a.translate((0,) * t.rank) is a
        assert a.translate([0] * t.rank) is a


class TestQHalf:
    @given(st.integers(0, 3), st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_is_the_monomial(self, nsym, e):
        ring = GroundRing(tuple(f"s{i}" for i in range(nsym)))
        got = ring.q_half(e)
        assert got == ring.monomial((0,) * nsym, e)
        # the kept element of an equal ring built earlier: its ring is equal
        assert got.ring == ring and dict(got) == {(0,) * nsym + (e,): 1}
        assert ring.q_half(e) is got
        with pytest.raises(TypeError):
            got[(0,) * nsym + (e,)] = 2


Q_ONLY = GroundRing(())


def coeffs(ring, max_size=3):
    """Coefficients of ``ring`` over narrow key ranges."""
    keys = st.tuples(*[st.integers(-1, 1)] * ring.nsym, st.integers(-3, 3))
    terms = st.dictionaries(keys, st.integers(-3, 3), max_size=max_size)
    return terms.map(lambda terms: GroundElem(ring, terms))


@st.composite
def monomial_and_element(draw):
    """A one-term element whose coefficient is one term (half the time
    a power of q, otherwise a symbol-bearing term with any nonzero
    integer factor) and an element of the same torus, possibly zero."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-3, 3))
            rows[j][i] = -rows[i][j]
    ring = draw(st.sampled_from([Q_ONLY, SYM]))
    t = QuantumTorus(AntisymMatrix(tuple(tuple(r) for r in rows)), ring)
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    if draw(st.booleans()):
        sym, factor = (0,) * ring.nsym, 1
    else:
        sym = draw(st.tuples(*[st.integers(-2, 2)] * ring.nsym))
        factor = draw(st.integers(-4, 4).filter(bool))
    left = t.monomial(draw(exps), ring.monomial(sym, draw(st.integers(-4, 4)), factor))
    right = st.dictionaries(exps, coeffs(ring), max_size=4).map(
        lambda terms: sum((t.monomial(k, c) for k, c in terms.items()), t.zero())
    )
    return t, left, draw(right)


class TestMonomialProduct:
    """A left factor of one term times a power of q shifts the
    q-exponents of the right coefficients; other one-term coefficients
    take the general product.  The per-pair product is the reference."""

    @given(monomial_and_element())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, case):
        t, a, b = case
        prod = elem_mul(a, b)
        assert prod == reference_mul(t, a, b)
        assert all(prod.terms.values())
        assert len(prod.terms) == len(b.terms)

    def test_examples(self):
        t = QuantumTorus(AntisymMatrix(((0, 2), (-2, 0))), SYM)
        v1, minus_v2 = SYM.var("v1"), SYM.monomial((0, 1), 0, -1)
        right = t.monomial((0, 1), v1 + SYM.q_half(3)) + t.monomial((1, -1), SYM.q_half(-1) + minus_v2)
        # x_1 x_2 = q x_(1,1) and x_1 x_(1,-1) = q^-1 x_(2,-1)
        for c in (SYM.q_half(2), SYM.monomial((1, -1), -1, 3), SYM.monomial((0, 0), 0, -1)):
            assert elem_mul(t.monomial((1, 0), c), right) == (
                t.monomial((1, 1), c * SYM.q_half(2) * (v1 + SYM.q_half(3)))
                + t.monomial((2, -1), c * SYM.q_half(-2) * (SYM.q_half(-1) + minus_v2))
            )
        assert elem_mul(t.monomial((1, 0), v1), t.zero()) == t.zero()

    def test_zero_shift_keeps_the_right_coefficients(self):
        # x_1 pairs with x_2 to +2 half-steps, which q^-1 cancels, and
        # with x_(1,-1) to -2; the unshifted coefficient is the right
        # factor's object, the shifted one a new one
        t = QuantumTorus(AntisymMatrix(((0, 2), (-2, 0))), SYM)
        kept, moved = SYM.var("v1") + SYM.q_half(3), SYM.q_half(-1) + SYM.monomial((0, 1), 0, -1)
        right = t.monomial((0, 1), kept) + t.monomial((1, -1), moved)
        left = t.monomial((1, 0), SYM.q_half(-2))
        assert _q_monomial_mul(t, (1, 0), -2, right) == elem_mul(left, right) == reference_mul(t, left, right)
        for prod in (_q_monomial_mul(t, (1, 0), -2, right), elem_mul(left, right)):
            assert prod.terms[(1, 1)] is right.terms[(0, 1)]
            assert prod.terms[(2, -1)] is not right.terms[(1, -1)]
            assert prod.terms[(2, -1)] == moved.shift_q(-4)
        # a commuting monomial with no power of q shifts nothing
        prod = _q_monomial_mul(t, (0, 0), 0, right)
        assert prod == right and all(prod.terms[k] is c for k, c in right.terms.items())


def graded(a, b):
    """Whether the matrix vanishes on the positions where the exponents
    of ``a`` vary times those where the exponents of ``b`` vary: the
    condition under which elem_mul splits the pairing between the
    factors."""
    rows, n = a.torus.matrix.rows, a.torus.rank
    varying = [[i for i in range(n) if len({k[i] for k in e.terms}) > 1] for e in (a, b)]
    return not any(rows[i][j] for i in varying[0] for j in varying[1])


@st.composite
def graded_pair(draw):
    """Two elements of a torus on an x block and a twist block whose
    twist block of the matrix is zero (isotropic), each element's terms
    sharing one x-part: the shape of glued traces and pants values."""
    nx, nt = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = nx + nt
    rows = [[0] * n for _ in range(n)]
    for i in range(nx):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-3, 3))
            rows[j][i] = -rows[i][j]
    t = QuantumTorus(AntisymMatrix(tuple(tuple(r) for r in rows)), SYM)

    def element():
        x = draw(st.tuples(*[st.integers(-2, 2)] * nx))
        terms = draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * nt), sym_coeffs, max_size=5))
        return sum((t.monomial(x + u, c) for u, c in terms.items()), t.zero())

    return t, element(), element()


@st.composite
def non_graded_pair(draw):
    """Two elements of at least two terms each whose exponents vary at
    positions i and j with a nonzero matrix entry, over SYM."""
    n = draw(st.integers(2, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-3, 3))
            rows[j][i] = -rows[i][j]
    rows[0][1] = draw(st.sampled_from([-2, -1, 1, 2]))
    rows[1][0] = -rows[0][1]
    t = QuantumTorus(AntisymMatrix(tuple(tuple(r) for r in rows)), SYM)
    exps = st.tuples(*[st.integers(-1, 1)] * n)
    coeffs = st.dictionaries(
        st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-3, 3)),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        min_size=1,
        max_size=3,
    ).map(lambda terms: GroundElem(SYM, terms))
    element = st.dictionaries(exps, coeffs, min_size=2, max_size=4).map(
        lambda terms: sum((t.monomial(k, c) for k, c in terms.items()), t.zero())
    )
    return t, draw(element), draw(element)


class TestGradedProduct:
    """elem_mul splits the q-shift between graded factors and falls back
    to one group per left term otherwise; the per-pair product is the
    reference either way."""

    @given(graded_pair())
    @settings(max_examples=400, deadline=None)
    def test_graded_pairs_match_reference(self, case):
        t, a, b = case
        assert graded(a, b)
        prod = elem_mul(a, b)
        assert prod == reference_mul(t, a, b)
        assert all(prod.terms.values())

    @given(non_graded_pair())
    @settings(max_examples=300, deadline=None)
    def test_non_graded_pairs_match_reference(self, case):
        t, a, b = case
        assume(len(a.terms) > 1 and len(b.terms) > 1 and not graded(a, b))
        assert elem_mul(a, b) == reference_mul(t, a, b)

    def test_examples(self):
        # Q = [[0, 1, 2], [-1, 0, 0], [-2, 0, 0]]: positions 1 and 2 commute
        t = QuantumTorus(AntisymMatrix(((0, 1, 2), (-1, 0, 0), (-2, 0, 0))), SYM)
        v1 = SYM.var("v1")
        a = t.monomial((1, 0, 1), v1) + t.monomial((1, 1, 0), SYM.q_half(1))
        b = t.monomial((2, 1, 0)) + t.monomial((2, 0, 1), v1 + SYM.one())
        assert graded(a, b) and graded(b, a)
        assert elem_mul(a, b) == reference_mul(t, a, b)
        assert elem_mul(b, a) == reference_mul(t, b, a)
        # varying at position 0 against position 1, where Q is 1
        c = t.monomial((0, 1, 0)) + t.monomial((1, 1, 0), v1)
        assert not graded(c, a)
        assert elem_mul(c, a) == reference_mul(t, c, a)
        assert elem_mul(a, c) == reference_mul(t, a, c)

    def test_zero_factor(self):
        t = QuantumTorus(AntisymMatrix(((0, 1, 2), (-1, 0, 0), (-2, 0, 0))), SYM)
        v1 = SYM.var("v1")
        for e in (t.monomial((1, 0, 1), v1) + t.monomial((1, 2, 0), SYM.q_half(1)),
                  t.monomial((1, 0, 1), v1), t.one(), t.zero()):
            assert elem_mul(t.zero(), e) == t.zero()
            assert elem_mul(e, t.zero()) == t.zero()


def _recorded_products(module, monkeypatch):
    """Patch ``module.elem_mul`` to record its argument pairs."""
    seen = []

    def record(a, b):
        seen.append((a, b))
        return elem_mul(a, b)

    monkeypatch.setattr(module, "elem_mul", record)
    return seen


class TestProgramProductsAreGraded:
    """The products the program computes take the graded path: glued
    traces on the four reference surfaces, the tensor-torus products of
    the glue oracle, and the component products of the pants traces (a
    one-holed pants curve has one component, so type 1 multiplies none)."""

    @pytest.mark.parametrize("gm", [(0, 4), (0, 5), (1, 2), (2, 0)])
    def test_glue_and_oracle_products(self, gm, monkeypatch):
        datum = standard_datum(*gm)
        coords = list(test_surface.box(datum, 3, 3))
        rng = random.Random(15)
        for k, l in zip(rng.choices(coords, k=60), rng.choices(coords, k=60)):
            a, b = phi_value(datum, k), phi_value(datum, l)
            assert graded(a, b), (k, l)
            assert elem_mul(a, b) == reference_mul(a.torus, a, b)
        seen = _recorded_products(test_surface, monkeypatch)
        for coord in rng.choices(coords, k=20):
            test_surface.oracle_glue(datum, coord)
        assert seen and all(graded(a, b) for a, b in seen)

    @pytest.mark.parametrize("j", [2, 3])
    def test_pants_component_products(self, j, monkeypatch):
        seen = _recorded_products(qtrace, monkeypatch)
        for coord in itertools.product(range(5), repeat=j):
            for t in itertools.product(range(-2, 3), repeat=j):
                if lambda_contains(j, coord + t):
                    qtrace._component_product.__wrapped__(j, decompose(j, coord + t).components)
        assert seen and all(graded(a, b) for a, b in seen)


def reference_normalize(e):
    """The three-pass normalization: the shift from the centers of all
    symbol groups, the invariance of the shifted element, then the
    shift.  The reference reflection_normalize is compared against."""
    if e.is_zero():
        return e
    shift = None
    for c in e.terms.values():
        groups = {}
        for key in c:
            groups.setdefault(key[:-1], []).append(key[-1])
        for qs in groups.values():
            s = -(max(qs) + min(qs))
            if s % 2:
                raise ValueError("element is not reflection-normalizable (odd center)")
            if shift is None:
                shift = s // 2
            elif shift != s // 2:
                raise ValueError("element is not reflection-normalizable (mixed centers)")
    for c in e.terms.values():
        for key, v in c.items():
            if c.get(key[:-1] + (-key[-1] - 2 * shift,)) != v:
                raise ValueError("element is not reflection-normalizable")
    return e.shift_q(shift) if shift else e


def outcome(normalize, e):
    try:
        return normalize(e)
    except ValueError:
        return ValueError


@st.composite
def invariant_element(draw):
    """A reflection-invariant element of a rank-2 torus over SYM: each
    coefficient is a sum of c sym^a (q^(h/2) + q^(-h/2))."""
    t = QuantumTorus(AntisymMatrix(((0, 1), (-1, 0))), SYM)
    e = t.zero()
    for k in draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=4)):
        for a, h, c in draw(st.lists(st.tuples(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                                               st.integers(0, 4), st.integers(-3, 3).filter(bool)),
                                     min_size=1, max_size=3)):
            e = e + t.monomial(k, SYM.monomial(a, h, c) + SYM.monomial(a, -h, c))
    return e


class TestReflectionNormalizeReference:
    @given(invariant_element(), st.integers(-6, 6))
    @settings(max_examples=300, deadline=None)
    def test_invariant_times_a_power_of_q(self, e, s):
        assert e.reflect() == e
        shifted = e.shift_q(s)
        got = reflection_normalize(shifted)
        assert got == reference_normalize(shifted) == e
        assert all(got.terms.values())
        # an element already invariant comes back as the same object
        assert reflection_normalize(e) is e

    @given(st.dictionaries(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), coeffs(SYM), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_random_elements(self, terms):
        t = QuantumTorus(AntisymMatrix(((0, 1), (-1, 0))), SYM)
        e = sum((t.monomial(k, c) for k, c in terms.items()), t.zero())
        assert outcome(reflection_normalize, e) == outcome(reference_normalize, e)

    @pytest.mark.parametrize("coeffs_by_exponent", [
        [[((0, 0), 1, 1), ((0, 0), 0, 1)]],                        # odd center
        [[((0, 0), 2, 1), ((0, 0), -2, 1)], [((0, 0), 4, 1)]],     # two centers
        [[((0, 0), 2, 1), ((1, 0), 4, 1)]],                        # two centers in one coefficient
        [[((0, 0), 5, 1), ((0, 0), 1, 2)]],                        # centered, not invariant
        [[((0, 0), 2, 1), ((0, 0), -2, -1)]],                      # centered, not invariant
        [[((1, 0), 3, 1), ((1, 0), 1, 1), ((1, 0), -1, 2)]],       # centered, not invariant
    ])
    def test_both_raise(self, coeffs_by_exponent):
        t = QuantumTorus(AntisymMatrix(((0, 1), (-1, 0))), SYM)
        e = t.zero()
        for i, terms in enumerate(coeffs_by_exponent):
            c = sum((SYM.monomial(a, h, v) for a, h, v in terms), SYM.zero())
            e = e + t.monomial((i, 0), c)
        for s in (0, 1, -3):
            for normalize in (reflection_normalize, reference_normalize):
                with pytest.raises(ValueError):
                    normalize(e.shift_q(s))


class TestWeyl:
    def test_single_generator(self):
        t = random_torus(random.Random(3), 4)
        assert weyl_normalize(t, [(0, 2)]) == t.monomial((2, 0, 0, 0))

    def test_u_then_x(self):
        t = QuantumTorus(AntisymMatrix(((0, -2), (2, 0))))
        assert weyl_normalize(t, [(1, 1), (0, 1)]) == t.monomial((1, 1))

    def test_permutation_invariance(self):
        rng = random.Random(4)
        for _ in range(300):
            t = random_torus(rng, rng.randint(1, 4))
            seq = [(rng.randrange(t.rank), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))]
            perm = seq[:]
            rng.shuffle(perm)
            w = weyl_normalize(t, seq)
            assert w == weyl_normalize(t, perm)
            total = [0] * t.rank
            for g, e in seq:
                total[g] += e
            assert w == t.monomial(total)


class TestLeadAndSubalgebra:
    def test_single_monomial(self):
        t = QuantumTorus(AntisymMatrix(((0,),)))
        leads = lead_term(t.monomial((5,)), lambda k: k)
        assert leads == [((5,), t.ring.one())]

    def test_tie_surfaced(self):
        t = QuantumTorus(AntisymMatrix(((0, 0), (0, 0))))
        e = t.monomial((1, 0)) + t.monomial((0, 1))
        leads = lead_term(e, lambda k: (k[0] + k[1],))
        assert len(leads) == 2

    def test_zero_raises(self):
        t = QuantumTorus(AntisymMatrix(((0,),)))
        with pytest.raises(ValueError):
            lead_term(t.zero(), lambda k: k)

    def test_lead_multiplicativity(self):
        # lead of a product is the monomial product of the leads when the
        # degree map is additive and both leads are unique
        rng = random.Random(5)
        done = 0
        while done < 100:
            t = random_torus(rng, 3)
            key = lambda k: (sum(k),) + k
            a = random_element(rng, t)
            b = random_element(rng, t)
            la, lb = lead_term(a, key), lead_term(b, key)
            if len(la) != 1 or len(lb) != 1:
                continue
            prod = elem_mul(a, b)
            if prod.is_zero():
                continue
            lp = lead_term(prod, key)
            ka, ca = la[0]
            kb, cb = lb[0]
            expect = mono_mul(t, ka, kb).scale(ca * cb)
            assert len(lp) == 1
            assert t.monomial(lp[0][0], lp[0][1]) == expect
            done += 1


class TestReflection:
    def test_monomials_fixed(self):
        rng = random.Random(6)
        for _ in range(100):
            t = random_torus(rng, rng.randint(1, 4))
            k = tuple(rng.randint(-4, 4) for _ in range(t.rank))
            assert t.monomial(k).reflect() == t.monomial(k)

    def test_normalize(self):
        t = QuantumTorus(AntisymMatrix(((0,),)))
        v = t.monomial((1,)) + t.monomial((-1,))
        assert reflection_normalize(v.shift_q(3)) == v
        assert reflection_normalize(t.one().shift_q(4)) == t.one()

    def test_unnormalizable_raises(self):
        t = QuantumTorus(AntisymMatrix(((0,),)))
        bad = t.monomial((1,), t.ring.q_half(1)) + t.monomial((-1,), t.ring.q_half(-3)) + t.monomial((0,))
        with pytest.raises(ValueError):
            reflection_normalize(bad)

    def test_centered_but_not_invariant_raises(self):
        # q + 2 q^-1 is centered at q^0 but not reflection invariant, so
        # neither center check catches it
        t = QuantumTorus(AntisymMatrix(((0,),)))
        coeff = t.ring.monomial((), 2) + t.ring.monomial((), -2, 2)
        bad = t.monomial((1,), coeff.shift_q(3))
        with pytest.raises(ValueError, match="^element is not reflection-normalizable$"):
            reflection_normalize(bad)
        with pytest.raises(ValueError, match="^element is not reflection-normalizable$"):
            reflection_normalize(t.monomial((0,)).shift_q(3) + bad)
