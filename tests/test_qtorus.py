import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintor.qtorus import (
    AntisymMatrix,
    QuantumTorus,
    elem_mul,
    lead_term,
    reflection_normalize,
    weyl_normalize,
)
from skeintor.ring import GroundElem, GroundRing


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
        assert all(not c.is_zero() for c in prod.terms.values())

    def test_cancelling_terms_are_dropped(self):
        # X Y = q^{p/2} [XY] and Y X = q^{-p/2} [XY], so in
        # (X + Y)(X - q^{-p} Y) = X^2 - q^{-p} Y^2 the two XY terms cancel
        t = QuantumTorus(AntisymMatrix(((0, 2), (-2, 0))), SYM)
        p = t.matrix.pairing((1, 0), (0, 1))
        v1 = SYM.var("v1")
        a = t.monomial((1, 0), v1) + t.monomial((0, 1), v1)
        b = t.monomial((1, 0)) - t.monomial((0, 1), SYM.q_half(-2 * p))
        prod = elem_mul(a, b)
        assert (1, 1) not in prod.terms
        assert prod == reference_mul(t, a, b)
        assert prod == t.monomial((2, 0), v1) - t.monomial((0, 2), v1 * SYM.q_half(-2 * p))
        # a coefficient whose symbol terms cancel leaves the other terms alone
        c = t.monomial((1, 0), v1 + SYM.one())
        d = t.monomial((0, 0), SYM.one()) - t.monomial((0, 0), v1)
        assert elem_mul(c, d) == reference_mul(t, c, d) == t.monomial((1, 0), SYM.one() - v1 * v1)


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
