import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintor.ring import (
    Cyclotomic,
    GroundElem,
    GroundRing,
    cyclotomic_poly,
    specialize,
)

# the half-step Laurent ring
R = GroundRing(())


def hl(terms):
    return GroundElem(R, {(e,): c for e, c in terms.items()})


half_laurents = st.dictionaries(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-9, max_value=9), max_size=5
).map(hl)


class TestCyclotomicPoly:
    def test_small_orders(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)

    def test_product_over_divisors_is_x_pow_minus_one(self):
        from skeintor.ring import poly_mul

        for d in range(1, 30):
            prod = (1,)
            for e in range(1, d + 1):
                if d % e == 0:
                    prod = poly_mul(prod, cyclotomic_poly(e))
            assert prod == (-1,) + (0,) * (d - 1) + (1,)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)


class TestHalfLaurent:
    """Laurent polynomials in q^{1/2}: the elements of GroundRing(())."""

    def test_reflect_examples(self):
        p = R.q_half(1) + R.q_half(-3)
        assert p.reflect() == R.q_half(-1) + R.q_half(3)
        assert R.one().reflect() == R.one()
        p = hl({4: 3, 2: -1})  # 3q^2 - q
        assert p.reflect() == hl({-4: 3, -2: -1})

    def test_reflect_is_involution_and_multiplicative(self):
        a = hl({1: 2, -3: 1})
        b = hl({0: 1, 2: -4})
        assert a.reflect().reflect() == a
        assert (a * b).reflect() == a.reflect() * b.reflect()
        assert (R.q_half(1) * a).reflect() == R.q_half(-1) * a.reflect()

    @given(half_laurents, half_laurents, half_laurents)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * R.one() == a
        assert (a + R.zero()) == a


class TestSpecialize:
    def test_examples(self):
        assert specialize(R.q_half(2), 2) == -Cyclotomic.one(4)
        assert specialize(R.q_half(2) + R.q_half(-2), 4).is_zero()
        r = specialize(R.q_half(1), 2)
        assert r.multiplicative_order() == 4

    def test_rejects_puncture_symbols(self):
        with pytest.raises(ValueError):
            specialize(GroundRing(("b3",)).q_half(1), 2)

    def test_power_orders(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                z = specialize(R.q_half(2 * k), n)
                assert z.multiplicative_order() == n // math.gcd(n, k)

    @given(half_laurents, half_laurents, st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_ring_homomorphism(self, a, b, n):
        assert specialize(a * b, n) == specialize(a, n) * specialize(b, n)
        assert specialize(a + b, n) == specialize(a, n) + specialize(b, n)

    def test_primitivity(self):
        for d in (1, 2, 3, 4, 5, 6, 8, 12):
            xi = Cyclotomic.root(2 * d, 2)
            assert xi.multiplicative_order() == d
            half = Cyclotomic.root(2 * d, 1)
            assert half * half == xi


class TestCyclotomic:
    def test_conjugate_is_ring_involution(self):
        a = Cyclotomic(10, (1, 2, 3, 4))
        b = Cyclotomic(10, (0, -1, 5))
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            Cyclotomic.one(3) + Cyclotomic.one(4)


class TestGroundRing:
    def test_symbols_and_reflection(self):
        ring = GroundRing(("b2", "b3"))
        e = ring.var("b2") * ring.var("b3", -1) + ring.q_half(3)
        assert e.reflect().reflect() == e
        assert ring.one() * e == e
        # puncture symbols are fixed by the reflection
        v = ring.var("b2")
        assert v.reflect() == v

    def test_shift(self):
        ring = GroundRing(())
        e = ring.q_half(2)
        assert e.shift_q(-2) == ring.one()
